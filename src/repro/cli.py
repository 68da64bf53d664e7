"""Command-line interface: regenerate paper artifacts and run config sweeps.

Usage::

    stalloc-repro list
    stalloc-repro run fig8a
    stalloc-repro run all --quick --jobs 4 --cache-dir .stalloc-cache
    stalloc-repro sweep quick-grid --jobs 4 --output results.json --output results.csv
    stalloc-repro sweep my_spec.json --jobs 8
    stalloc-repro sweep job-smoke --compare baseline.json   # CI regression gate
    stalloc-repro sweep --compare old.json new.json         # diff two saved results
    stalloc-repro sweep ep-comm-smoke --jobs 2              # all-to-all transients on/off
    stalloc-repro sweep timeline-smoke --jobs 2             # discrete-event timing vs comm factor
    stalloc-repro sweep ep-smoke --cache-max-gib 1          # cap the cache inline
    stalloc-repro sweep --list
    stalloc-repro search gpt-tiny                           # preset search
    stalloc-repro search moe-tiny --exhaustive              # no pruning (the oracle)
    stalloc-repro search gpt-tiny 4xA800-80GB@0.5 --global-batch 8
    stalloc-repro search search-smoke --compare baseline.json  # CI regression gate
    stalloc-repro search --list
    stalloc-repro timeline gpt-tiny --pp 2 --microbatches 8
    stalloc-repro timeline moe-tiny --pp 2 --ep 4 --comm-factor 1.0 \
        --trace-out timeline.json                           # open in ui.perfetto.dev
    stalloc-repro timeline gpt-tiny --workload generation --decode-steps 16
    stalloc-repro sweep gen-smoke --jobs 2                  # prefill/decode KV-cache growth
    stalloc-repro cache prune --max-gib 2
    stalloc-repro sweep quick-grid --obs-out obs.ndjson     # record spans + metrics
    stalloc-repro sweep quick-grid --obs-trace obs-trace.json  # open in ui.perfetto.dev
    stalloc-repro obs summarize obs.ndjson                  # span-tree time breakdown

A command imports what it executes.  This module imports only ``argparse`` and
the version; each handler imports its own subsystem, and the subsystems import
the execution layer (the trace generator, the planner, the allocators, the
timeline simulator, the experiments, the process pool) at the first cache
miss or fan-out.  Nothing imports numpy: the MoE router's draw is stdlib.
``--version``, ``sweep --list``, ``sweep --compare a b``, ``obs summarize``,
``cache prune`` and a ``sweep``/``search`` served entirely from the result
cache therefore load none of it (README, "Layers and what a command imports";
pinned by ``tests/test_import_layers.py``).
"""

from __future__ import annotations

import argparse
import sys

from repro.version import __version__


def _add_obs_arguments(parser: argparse.ArgumentParser, *, progress: bool = False) -> None:
    """The observability flags shared by the run/sweep/search/timeline commands."""
    parser.add_argument(
        "--obs-out",
        default=None,
        metavar="PATH.ndjson",
        help=(
            "record spans and metrics as NDJSON (one JSON event per line; "
            "inspect with 'stalloc-repro obs summarize')"
        ),
    )
    parser.add_argument(
        "--obs-trace",
        default=None,
        metavar="PATH.json",
        help=(
            "record spans as Chrome trace-event JSON "
            "(open in chrome://tracing or ui.perfetto.dev)"
        ),
    )
    if progress:
        parser.add_argument(
            "--no-progress",
            action="store_true",
            help="silence the stderr progress line (rows done, ETA, cache hit rate)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stalloc-repro",
        description="Reproduce the tables and figures of the STAlloc paper (EuroSys '26).",
    )
    parser.add_argument("--version", action="version", version=f"stalloc-repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id (e.g. fig8a, table1) or 'all'")
    run_parser.add_argument(
        "--quick", action="store_true", help="run a reduced version of the experiment"
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for multi-allocator workloads (default: 1, serial)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent trace/plan cache directory (default: no on-disk cache)",
    )
    _add_obs_arguments(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a declarative config x allocator sweep grid"
    )
    sweep_parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="sweep preset name or path to a JSON spec file",
    )
    sweep_parser.add_argument(
        "--list", action="store_true", dest="list_presets", help="list available sweep presets"
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes executing sweep points (default: 1, serial)",
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=".stalloc-repro-cache",
        metavar="DIR",
        help="persistent trace/plan/result cache directory (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent cache for this sweep",
    )
    sweep_parser.add_argument(
        "--fresh",
        action="store_true",
        help="recompute result rows even when cached (traces/plans are still reused)",
    )
    sweep_parser.add_argument(
        "--output",
        action="append",
        default=[],
        metavar="PATH",
        help="write results to PATH (.json or .csv); repeatable",
    )
    sweep_parser.add_argument(
        "--max-rows",
        type=int,
        default=40,
        metavar="N",
        help="rows to print to stdout (default: %(default)s; outputs always get all rows)",
    )
    sweep_parser.add_argument(
        "--cache-max-gib",
        type=float,
        default=None,
        metavar="X",
        help=(
            "cap the persistent cache during the sweep: stores that push it past "
            "X GiB LRU-evict inline (default: unbounded; see 'cache prune')"
        ),
    )
    sweep_parser.add_argument(
        "--compare",
        nargs="+",
        default=None,
        metavar="RESULTS.json",
        help=(
            "with one file: diff the sweep's rows against that previous results "
            "JSON file; with two files: diff them against each other without "
            "running any sweep (no spec argument). Exits non-zero if any point "
            "regressed (peak memory up, throughput down, ok -> OOM)"
        ),
    )
    sweep_parser.add_argument(
        "--tolerance-pct",
        type=float,
        default=0.0,
        metavar="PCT",
        help="relative change a metric may move before --compare flags it (default: 0)",
    )
    _add_obs_arguments(sweep_parser, progress=True)

    search_parser = subparsers.add_parser(
        "search",
        help="search the config space for the fastest configuration that fits",
    )
    search_parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help=(
            "search preset name, path to a JSON search spec, or a model name "
            "(then a cluster argument is required)"
        ),
    )
    search_parser.add_argument(
        "cluster",
        nargs="?",
        default=None,
        help=(
            "cluster description '[<nodes>x]<N>x<DEVICE>[@<GiB>]' (e.g. "
            "8xA800-80GB@40 or 2x8xA800-80GB) when the first argument is a "
            "model name; the node form prices all-to-all on the tiered fabric"
        ),
    )
    search_parser.add_argument(
        "--list", action="store_true", dest="list_presets", help="list available search presets"
    )
    search_parser.add_argument(
        "--global-batch",
        type=int,
        default=16,
        metavar="N",
        help="sequences per optimizer step for model+cluster searches (default: %(default)s)",
    )
    search_parser.add_argument(
        "--allocators",
        nargs="+",
        default=["torch2.3", "stalloc"],
        metavar="NAME",
        help="allocators to price for model+cluster searches (default: %(default)s)",
    )
    search_parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="disable both prunes and evaluate the full candidate grid (the oracle)",
    )
    search_parser.add_argument(
        "--cache-dir",
        default=".stalloc-repro-cache",
        metavar="DIR",
        help="persistent trace/plan/result cache directory (default: %(default)s)",
    )
    search_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent cache for this search",
    )
    search_parser.add_argument(
        "--fresh",
        action="store_true",
        help="recompute result rows even when cached (traces/plans are still reused)",
    )
    search_parser.add_argument(
        "--output",
        action="append",
        default=[],
        metavar="PATH",
        help="write the search result to PATH (.json or .csv); repeatable",
    )
    search_parser.add_argument(
        "--max-rows",
        type=int,
        default=40,
        metavar="N",
        help="rows to print to stdout (default: %(default)s; outputs always get all rows)",
    )
    search_parser.add_argument(
        "--cache-max-gib",
        type=float,
        default=None,
        metavar="X",
        help="cap the persistent cache during the search (LRU-evict past X GiB)",
    )
    search_parser.add_argument(
        "--compare",
        nargs="+",
        default=None,
        metavar="RESULTS.json",
        help=(
            "with one file: diff the search's ranked rows against that previous "
            "results JSON file; with two files: diff them against each other "
            "without running any search. Exits non-zero on regressions "
            "(rank shifts, peak memory up, throughput down, ok -> OOM)"
        ),
    )
    search_parser.add_argument(
        "--tolerance-pct",
        type=float,
        default=0.0,
        metavar="PCT",
        help="relative change a metric may move before --compare flags it (default: 0)",
    )
    _add_obs_arguments(search_parser, progress=True)

    timeline_parser = subparsers.add_parser(
        "timeline",
        help="simulate one iteration's timeline and optionally export it",
    )
    timeline_parser.add_argument(
        "model", help="model preset name (see 'stalloc-repro sweep --list' presets)"
    )
    timeline_parser.add_argument(
        "--pp", type=int, default=1, metavar="N", help="pipeline-parallel degree (default: 1)"
    )
    timeline_parser.add_argument(
        "--dp", type=int, default=1, metavar="N", help="data-parallel degree (default: 1)"
    )
    timeline_parser.add_argument(
        "--ep", type=int, default=1, metavar="N", help="expert-parallel degree (default: 1)"
    )
    timeline_parser.add_argument(
        "--chunks",
        type=int,
        default=1,
        metavar="N",
        help="virtual-pipeline chunks (default: 1)",
    )
    timeline_parser.add_argument(
        "--microbatches",
        type=int,
        default=8,
        metavar="N",
        help="micro-batches per iteration (default: %(default)s)",
    )
    timeline_parser.add_argument(
        "--micro-batch-size",
        type=int,
        default=1,
        metavar="N",
        help="sequences per micro-batch (default: %(default)s)",
    )
    timeline_parser.add_argument(
        "--comm-factor",
        type=float,
        default=0.0,
        metavar="X",
        help="MoE all-to-all comm factor (default: 0, comm-free)",
    )
    timeline_parser.add_argument(
        "--overlap",
        type=float,
        default=0.0,
        metavar="X",
        help=(
            "fraction of each all-to-all hidden under expert compute, in "
            "[0, 1] (default: 0, fully serialised)"
        ),
    )
    timeline_parser.add_argument(
        "--workload",
        default="training",
        choices=["training", "inference", "generation"],
        help="workload kind to simulate (default: %(default)s)",
    )
    timeline_parser.add_argument(
        "--decode-steps",
        type=int,
        default=0,
        metavar="N",
        help=(
            "autoregressive decode passes per micro-batch "
            "(generation workloads only; default: 0)"
        ),
    )
    timeline_parser.add_argument(
        "--max-new-tokens",
        type=int,
        default=0,
        metavar="N",
        help=(
            "cap on generated tokens per sequence -- the KV cache stops "
            "growing at the cap (generation workloads only; default: 0, no cap)"
        ),
    )
    timeline_parser.add_argument(
        "--gpu", default="A800-80GB", metavar="NAME", help="GPU spec (default: %(default)s)"
    )
    timeline_parser.add_argument(
        "--gpus-per-node",
        type=int,
        default=None,
        metavar="N",
        help=(
            "ranks per node for the hierarchical fabric (default: the GPU "
            "spec's; 0 = single node)"
        ),
    )
    timeline_parser.add_argument(
        "--intra-bw",
        type=float,
        default=None,
        metavar="GBPS",
        help="intra-node all-to-all bandwidth in GB/s (default: the GPU spec's)",
    )
    timeline_parser.add_argument(
        "--inter-bw",
        type=float,
        default=None,
        metavar="GBPS",
        help="inter-node all-to-all bandwidth in GB/s (default: the GPU spec's)",
    )
    timeline_parser.add_argument(
        "--seed", type=int, default=0, metavar="N", help="router seed (default: 0)"
    )
    timeline_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        metavar="X",
        help="layer-count scale in (0, 1] (default: 1.0)",
    )
    timeline_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH.json",
        help=(
            "write the per-rank event streams as Chrome trace-event JSON "
            "(open in chrome://tracing or ui.perfetto.dev)"
        ),
    )
    _add_obs_arguments(timeline_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="manage the persistent trace/plan/result cache"
    )
    cache_parser.add_argument("action", choices=["prune"], help="cache operation to run")
    cache_parser.add_argument(
        "--cache-dir",
        default=".stalloc-repro-cache",
        metavar="DIR",
        help="cache directory to operate on (default: %(default)s)",
    )
    cache_parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="LRU-evict entries (oldest mtime first) until the cache is at most N bytes",
    )
    cache_parser.add_argument(
        "--max-gib",
        type=float,
        default=None,
        metavar="X",
        help="like --max-bytes, in GiB",
    )

    obs_parser = subparsers.add_parser(
        "obs", help="inspect observability recordings (--obs-out NDJSON files)"
    )
    obs_parser.add_argument(
        "action", choices=["summarize"], help="obs operation to run"
    )
    obs_parser.add_argument(
        "source", metavar="OBS.ndjson", help="NDJSON file written by --obs-out"
    )
    obs_parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the summary as JSON instead of text",
    )
    return parser


def _context_from_args(args):
    """The :class:`ExecutionContext` the command's flags describe.

    Reads ``--jobs`` / ``--cache-dir`` / ``--no-cache`` / ``--cache-max-gib``
    (a flag the command lacks takes its default); prints the one-line error
    and returns None when a flag is out of range.
    """
    from repro.simulator.execution import ExecutionContext

    max_gib = getattr(args, "cache_max_gib", None)
    try:
        if max_gib is not None and max_gib < 0:
            raise ValueError(f"cache-max-gib must be >= 0, got {max_gib}")
        return ExecutionContext(
            cache_dir=None if getattr(args, "no_cache", False) else args.cache_dir,
            cache_max_bytes=int(max_gib * (1 << 30)) if max_gib is not None else None,
            jobs=getattr(args, "jobs", 1),
        )
    except ValueError as error:
        print(f"error: --{error}", file=sys.stderr)
        return None


def _cmd_list(args) -> int:
    from repro.experiments import available_experiments

    for experiment_id in available_experiments():
        print(experiment_id)
    return 0


def _cmd_run(args) -> int:
    from repro.experiments import available_experiments, run_experiment

    ctx = _context_from_args(args)
    if ctx is None:
        return 2
    targets = available_experiments() if args.experiment == "all" else [args.experiment]
    for experiment_id in targets:
        result = run_experiment(experiment_id, quick=args.quick, ctx=ctx)
        print(result.to_text())
        print()
    return 0


def _run_grid_command(args, *, noun: str, spec_hint: str, presets, load, execute) -> int:
    """The flow ``sweep`` and ``search`` share: validate, run, write, compare.

    ``presets()`` lists preset names, ``load()`` builds the spec and
    ``execute(spec, ctx, progress)`` runs it; the result must offer
    ``write``, ``to_text`` and ``as_dict`` (rows in the sweep row schema).
    """
    from repro.obs import ProgressReporter
    from repro.sweep import SweepPointError, SweepResult, compare_files, compare_results

    if args.list_presets:
        for preset in presets():
            print(preset)
        return 0
    if args.compare is not None and len(args.compare) > 2:
        print(
            f"error: --compare takes one or two results files, got {len(args.compare)}",
            file=sys.stderr,
        )
        return 2
    if args.compare is not None and len(args.compare) == 2:
        # Dual-file mode: diff two saved results files, run nothing.
        if args.spec is not None:
            print(
                "error: a spec cannot be combined with two-file --compare "
                f"(the files are compared without running a {noun})",
                file=sys.stderr,
            )
            return 2
        old_path, new_path = args.compare
        try:
            report = compare_files(old_path, new_path, tolerance_pct=args.tolerance_pct)
        except (OSError, ValueError) as error:
            print(f"error: cannot compare results files: {error}", file=sys.stderr)
            return 2
        print(report.to_text())
        return report.exit_code
    if args.spec is None:
        print(f"error: a {noun} spec ({spec_hint}) is required", file=sys.stderr)
        return 2
    bad_outputs = [o for o in args.output if not o.lower().endswith((".json", ".csv"))]
    if bad_outputs:
        print(
            f"error: unsupported --output extension for {', '.join(bad_outputs)}; "
            "use .json or .csv",
            file=sys.stderr,
        )
        return 2
    ctx = _context_from_args(args)
    if ctx is None:
        return 2
    try:
        spec = load()
    except (ValueError, FileNotFoundError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    baseline = None
    if args.compare is not None:
        try:
            baseline = SweepResult.load(args.compare[0])
        except (OSError, ValueError) as error:
            print(f"error: cannot load --compare baseline: {error}", file=sys.stderr)
            return 2
    try:
        result = execute(
            spec, ctx, ProgressReporter(0, label=noun, enabled=not args.no_progress)
        )
    except SweepPointError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for output in args.output:
        result.write(output)
        print(f"wrote {output}", file=sys.stderr)
    print(result.to_text(max_rows=args.max_rows if args.max_rows >= 0 else None))
    if baseline is not None:
        report = compare_results(baseline, result.as_dict(), tolerance_pct=args.tolerance_pct)
        print()
        print(report.to_text())
        return report.exit_code
    return 0


def _cmd_sweep(args) -> int:
    from repro.sweep import available_presets, load_spec, run_sweep

    def load():
        spec = load_spec(args.spec)
        spec.expand()  # builds every point's config: a bad field exits 2 up front
        return spec

    return _run_grid_command(
        args,
        noun="sweep",
        spec_hint="preset name or JSON file",
        presets=available_presets,
        load=load,
        execute=lambda spec, ctx, progress: run_sweep(
            spec,
            jobs=ctx.jobs,
            cache_dir=ctx.cache_dir,
            reuse_results=not args.fresh,
            cache_max_bytes=ctx.cache_max_bytes,
            progress=progress,
        ),
    )


def _cmd_search(args) -> int:
    from repro.search import (
        SearchSpec,
        available_search_presets,
        load_search_spec,
        run_search,
    )

    def load():
        if args.cluster is None:
            spec = load_search_spec(args.spec)
        else:
            # Model + cluster form: build a default spec around the model.
            spec = SearchSpec(
                name=f"search-{args.spec}",
                model=args.spec,
                cluster=args.cluster,
                global_batch=args.global_batch,
                allocators=list(args.allocators),
            )
        spec.enumerate_candidates()  # builds every candidate's config: a bad field exits 2
        return spec

    return _run_grid_command(
        args,
        noun="search",
        spec_hint="preset name, JSON file, or model + cluster",
        presets=available_search_presets,
        load=load,
        execute=lambda spec, ctx, progress: run_search(
            spec,
            cache_dir=ctx.cache_dir,
            reuse_results=not args.fresh,
            cache_max_bytes=ctx.cache_max_bytes,
            exhaustive=args.exhaustive,
            progress=progress,
        ),
    )


def _cmd_timeline(args) -> int:
    from dataclasses import replace as dataclass_replace

    from repro.gpu.specs import get_gpu
    from repro.timeline import simulate_timeline, write_chrome_trace
    from repro.workloads.models import get_model
    from repro.workloads.parallelism import ParallelismConfig
    from repro.workloads.training import TrainingConfig

    try:
        config = TrainingConfig(
            model=get_model(args.model),
            parallelism=ParallelismConfig(
                pipeline_parallel=args.pp,
                data_parallel=args.dp,
                expert_parallel=args.ep,
                virtual_pipeline_chunks=args.chunks,
            ),
            micro_batch_size=args.micro_batch_size,
            num_microbatches=args.microbatches,
            moe_comm_factor=args.comm_factor,
            comm_overlap_factor=args.overlap,
            workload_kind=args.workload,
            decode_steps=args.decode_steps,
            max_new_tokens=args.max_new_tokens,
        )
        gpu = get_gpu(args.gpu)
        fabric = {
            name: value
            for name, value in (
                ("gpus_per_node", args.gpus_per_node),
                ("intra_node_gbytes_per_sec", args.intra_bw),
                ("inter_node_gbytes_per_sec", args.inter_bw),
            )
            if value is not None
        }
        if fabric:
            gpu = dataclass_replace(gpu, **fabric)
        result = simulate_timeline(config, gpu=gpu, seed=args.seed, scale=args.scale)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = result.as_dict()
    print(f"timeline: {summary['description']} on {summary['gpu']}")
    print(f"  iteration_seconds  {summary['iteration_seconds']:.6f}")
    print(f"  compute_seconds    {result.compute_seconds:.6f}")
    print(f"  comm_seconds       {summary['comm_seconds']:.6f}")
    print(f"  stall_seconds      {summary['stall_seconds']:.6f}")
    if summary["decode_seconds"]:
        print(f"  decode_seconds     {summary['decode_seconds']:.6f}")
    print(f"  bubble_fraction    {summary['bubble_fraction']:.4f}")
    print(f"  mfu                {summary['mfu']:.4f}")
    print(f"  events             {summary['num_events']}")
    print(f"  binding_rank       pp{summary['binding_rank'][0]}/ep{summary['binding_rank'][1]}")
    if args.trace_out is not None:
        written = write_chrome_trace(result, args.trace_out)
        print(f"wrote {written} trace events to {args.trace_out}", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    from repro.sweep import SweepCache

    if args.max_bytes is not None and args.max_gib is not None:
        print("error: pass at most one of --max-bytes / --max-gib", file=sys.stderr)
        return 2
    max_bytes = args.max_bytes
    if args.max_gib is not None:
        max_bytes = int(args.max_gib * (1 << 30))
    if max_bytes is not None and max_bytes < 0:
        print(f"error: size limit must be >= 0, got {max_bytes}", file=sys.stderr)
        return 2
    cache = SweepCache(args.cache_dir)
    report = cache.prune(max_bytes)
    print(
        f"pruned {args.cache_dir}: "
        f"{report['stale_removed']} stale-version entries "
        f"({report['stale_bytes']} bytes), "
        f"{report['lru_removed']} LRU-evicted entries ({report['lru_bytes']} bytes); "
        f"{report['remaining_files']} entries / {report['remaining_bytes']} bytes kept"
    )
    stats = cache.cache_stats()
    print(
        "cache stats: "
        f"{stats['evicted_entries']} evicted entries ({stats['evicted_bytes']} bytes), "
        f"{stats['hits']} hits / {stats['misses']} misses "
        f"({100 * stats['hit_rate']:.0f}% hit rate this process)"
    )
    return 0


def _cmd_obs(args) -> int:
    import json

    from repro.obs import summarize_file

    try:
        summary = summarize_file(args.source)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
    else:
        print(summary.to_text())
    return 0


def _run_with_obs(handler, args) -> int:
    """Dispatch one command with --obs-out/--obs-trace recording installed.

    The tracer is installed before the handler and shut down (flushing
    metric totals and closing sinks) afterwards -- also on error, so a
    failing sweep still leaves a parseable NDJSON file for post-mortems.
    """
    from repro import obs

    obs.configure(ndjson_path=args.obs_out, chrome_path=args.obs_trace)
    try:
        return handler(args)
    finally:
        obs.shutdown()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list(args)

    if args.command == "run":
        return _run_with_obs(_cmd_run, args)

    if args.command == "sweep":
        return _run_with_obs(_cmd_sweep, args)

    if args.command == "search":
        return _run_with_obs(_cmd_search, args)

    if args.command == "timeline":
        return _run_with_obs(_cmd_timeline, args)

    if args.command == "cache":
        return _cmd_cache(args)

    if args.command == "obs":
        return _cmd_obs(args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
