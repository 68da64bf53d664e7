"""Core-throughput benchmark: events/sec for trace build, analytics, replay, timeline.

This is the perf trajectory for the columnar trace core (ROADMAP open item 1).
It measures four hot layers at three scales and reports events/sec:

* ``trace_build``  -- ``TraceGenerator.generate()`` (event emission).
* ``analytics``    -- ``peak_allocated_bytes`` + ``comm_peak_bytes`` +
                      ``distinct_sizes`` + ``allocation_sizes`` on a fresh
                      ``Trace(columns=...)`` over the generated arrays (cold
                      memos each rep).  Entries before 1.22.0 also timed
                      building the columns from a list of event objects and
                      a size histogram, so they are not comparable.
* ``replay_native``-- ``replay_trace`` against the native allocator (the
                      profiler mode; batch-replayable).
* ``replay_caching`` / ``replay_expandable`` / ``replay_gmlake`` /
  ``replay_stalloc``-- ``replay_trace`` against torch2.3, torch_es, gmlake and
                      STAlloc's runtime allocator (plan synthesized once,
                      outside the timing): the four state machines of the
                      paper's comparison.  The baselines are driven event by
                      event from the columns; STAlloc replays the trace its
                      plan was profiled on as a plan lookup (dense) or in one
                      pass over its dynamic events (MoE).  On the MoE preset
                      the STAlloc replay must serve dynamic requests from the
                      pool (checked).
* ``timeline``     -- ``simulate_timeline`` each rep (steady state: the
                      dataflow order, memoised per schedule geometry by
                      ``_phase_order``, stays warm, exactly like a sweep
                      evaluating many points of one geometry).
* ``timeline_tiered`` -- the same on a 2-node tiered fabric with half the
                      all-to-all hidden under expert compute.
* ``trace_store``  -- writing the trace's binary sweep-cache entry
                      (``Trace.entry_chunks``: a JSON head line, then the raw
                      bytes of the typed columns) to a file, digest memoised.
* ``trace_load``   -- ``Trace.load`` of that binary entry (``array.fromfile``
                      per column, digest from the head).
* ``jsonl_load``   -- ``Trace.load`` of the same trace saved as JSON lines, the
                      format the cache stored until 1.21.0: the reference
                      ``trace_load`` is measured against.
* ``gen_trace_build`` / ``gen_replay_native`` / ``gen_timeline`` -- the same
                      build, replay, and timeline layers on a *generation*
                      variant of the preset (prefill + 64 decode steps with
                      per-step KV-cache re-allocation), the dynamic-size
                      stream that stresses the decode hot paths.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace_core.py                 # all presets
    PYTHONPATH=src python benchmarks/bench_trace_core.py --preset gpt-tiny
    PYTHONPATH=src python benchmarks/bench_trace_core.py --json out.json
    PYTHONPATH=src python benchmarks/bench_trace_core.py --preset gpt-tiny \
        --check benchmarks/BENCH_trace_core.json   # CI perf smoke
    PYTHONPATH=src python benchmarks/bench_trace_core.py \
        --record benchmarks/BENCH_trace_core.json --note "what changed"

``--check`` compares against the most recent trajectory entry in
``BENCH_trace_core.json`` and fails (exit 1) when

* a ``replay_*``, timeline, ``trace_store``, ``trace_load``, ``trace_build``
  or ``gen_trace_build`` column's best rep falls below 0.8x the recorded best rep (best-of-k is steady enough for
  a ratio gate; the 3x floor let ``replay_caching`` stand still for seven
  releases and gpt-tiny ``timeline`` slide from 1.76M to 1.00M ev/s), or
* any other column's mean rate drops more than 3x below the recorded one --
  loose enough for CI noise, tight enough to catch an accidental return to
  object-per-event hot paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.allocators.registry import create_allocator
from repro.core.columns import COLUMN_NAMES, TraceColumns
from repro.core.stalloc import STAlloc
from repro.gpu.device import GIB, Device
from repro.gpu.specs import get_gpu
from repro.simulator.replay import replay_trace
from repro.timeline.simulator import simulate_timeline
from repro.version import __version__
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig

#: Regression gate for --check: fail when measured < recorded / 3.
CHECK_RATIO = 3.0
#: Tighter gate for the ``replay_*``, timeline, trace I/O and trace build
#: columns: best rep >= 0.8x the recorded best.
BEST_RATIO = 0.8
#: Columns gated on their best rep (besides every ``replay_*`` column).
BEST_COLUMNS = frozenset(
    (
        "timeline", "timeline_tiered", "gen_timeline", "trace_store", "trace_load",
        "trace_build", "gen_trace_build",
    )
)

#: Benchmark configurations.  "job-smoke" mirrors the sweep preset of the same
#: name (gpt2-345m, pp=4 dp=2, mbs=4, m=4, scale 0.5); the tiny ones match the
#: golden-fixture shapes with more microbatches for stable timing.
PRESETS: dict[str, dict] = {
    "gpt-tiny": {
        "model": "gpt-tiny",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 2},
        "micro_batch_size": 2,
        "num_microbatches": 8,
        "scale": 1.0,
    },
    "moe-tiny": {
        "model": "moe-tiny",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
        "micro_batch_size": 2,
        "num_microbatches": 8,
        "moe_imbalance": 0.6,
        "moe_comm_factor": 1.0,
        "scale": 1.0,
    },
    "job-smoke": {
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "micro_batch_size": 4,
        "num_microbatches": 4,
        "scale": 0.5,
    },
}


def build_config(preset: str) -> tuple[TrainingConfig, float]:
    spec = PRESETS[preset]
    parallelism = ParallelismConfig(**spec["parallelism"])
    config = TrainingConfig(
        model=get_model(spec["model"]),
        parallelism=parallelism,
        micro_batch_size=spec["micro_batch_size"],
        num_microbatches=spec["num_microbatches"],
        moe_imbalance=spec.get("moe_imbalance", 0.3),
        moe_comm_factor=spec.get("moe_comm_factor", 0.0),
    )
    return config, spec["scale"]


def _measure(fn, events: int, *, min_seconds: float = 1.0, min_reps: int = 3) -> dict:
    """Run ``fn`` until ``min_seconds`` of wall time accumulate; report ev/s."""
    fn()  # warm-up (imports, first-touch caches shared by old and new code)
    reps = 0
    start = time.perf_counter()
    elapsed = 0.0
    best = float("inf")
    while elapsed < min_seconds or reps < min_reps:
        rep_start = time.perf_counter()
        fn()
        now = time.perf_counter()
        best = min(best, now - rep_start)
        reps += 1
        elapsed = now - start
    rate = events * reps / elapsed
    return {
        "events": int(events),
        "reps": int(reps),
        "seconds": round(elapsed, 4),
        "events_per_sec": int(rate),
        "best_events_per_sec": int(events / best),
    }


def bench_preset(preset: str) -> dict:
    config, scale = build_config(preset)

    generator = TraceGenerator(config, scale=scale)
    trace = generator.generate()
    num_events = trace.num_events

    def run_build():
        TraceGenerator(config, scale=scale).generate()

    # Each rep reads a fresh view over the generated arrays (no copy), so the
    # peaks memoised on a TraceColumns start cold every time.
    columns = trace.columns
    metadata = trace.metadata
    phases = trace.phases
    spans = trace.module_spans

    def run_analytics():
        fresh = TraceColumns(
            **{name: getattr(columns, name) for name in COLUMN_NAMES},
            modules=columns.modules,
            tags=columns.tags,
        )
        view = Trace(columns=fresh, metadata=metadata, phases=phases, module_spans=spans)
        view.peak_allocated_bytes()
        view.comm_peak_bytes()
        view.distinct_sizes()
        view.allocation_sizes()

    stalloc = STAlloc.from_trace(trace)

    def build_allocator(name: str, device: Device):
        if name == "stalloc":
            return stalloc.build_runtime_allocator(device)
        return create_allocator(name, device)

    def make_replay(name: str):
        def run_replay():
            device = Device(name="bench", capacity=512 * GIB)
            allocator = build_allocator(name, device)
            result = replay_trace(trace, allocator)
            if not result.success:
                raise RuntimeError(f"replay OOM in benchmark ({name})")
            return allocator

        return run_replay

    if any(trace.columns.dyn):
        served = make_replay("stalloc")().stats.extra["dynamic_pool_bytes"]
        if not served:
            raise RuntimeError(f"{preset}: the STAlloc replay never took the dynamic path")

    def run_timeline():
        simulate_timeline(config, seed=0, scale=scale)

    # The sweep cache's binary entry and the JSON lines it replaced, in a
    # temporary directory.  Storing an entry hashes nothing: the plan key
    # hashes the columns on its own.
    workdir = Path(tempfile.mkdtemp(prefix="bench-trace-"))
    entry_path, jsonl_path = workdir / "entry", workdir / "trace.jsonl"
    trace.save(jsonl_path)

    def run_store():
        with entry_path.open("wb") as handle:
            handle.writelines(trace.entry_chunks())

    def run_load():
        Trace.load(entry_path)

    def run_jsonl_load():
        Trace.load(jsonl_path)

    # Hierarchical pricing: a 2-node tiered fabric plus partial overlap takes
    # the per-rank tier-mix a2a path instead of the flat single-rate branch.
    tiered_gpu = dataclasses.replace(
        get_gpu("A800-80GB"),
        gpus_per_node=4,
        intra_node_gbytes_per_sec=160.0,
        inter_node_gbytes_per_sec=25.0,
    )
    tiered_config = config.with_(comm_overlap_factor=0.5)

    def run_timeline_tiered():
        simulate_timeline(tiered_config, gpu=tiered_gpu, seed=0, scale=scale)

    # Generation twin of the preset: prefill plus 64 decode steps, so the
    # per-step KV re-allocation and decode-event paths dominate the stream.
    gen_config = config.with_(workload_kind="generation", decode_steps=64)
    gen_trace = TraceGenerator(gen_config, scale=scale).generate()
    gen_events = gen_trace.num_events

    def run_gen_build():
        TraceGenerator(gen_config, scale=scale).generate()

    def run_gen_replay():
        device = Device(name="bench", capacity=512 * GIB)
        allocator = create_allocator("native", device)
        result = replay_trace(gen_trace, allocator)
        if not result.success:
            raise RuntimeError("replay OOM in benchmark (gen/native)")

    def run_gen_timeline():
        simulate_timeline(gen_config, seed=0, scale=scale)

    timeline_events = simulate_timeline(config, seed=0, scale=scale).num_events
    tiered_events = simulate_timeline(
        tiered_config, gpu=tiered_gpu, seed=0, scale=scale
    ).num_events
    gen_timeline_events = simulate_timeline(gen_config, seed=0, scale=scale).num_events

    results = {
        "trace_build": _measure(run_build, num_events),
        "analytics": _measure(run_analytics, num_events),
        "replay_native": _measure(make_replay("native"), num_events),
        "replay_caching": _measure(make_replay("torch2.3"), num_events),
        "replay_expandable": _measure(make_replay("torch_es"), num_events),
        "replay_gmlake": _measure(make_replay("gmlake"), num_events),
        "replay_stalloc": _measure(make_replay("stalloc"), num_events),
        "trace_store": _measure(run_store, num_events),
        "trace_load": _measure(run_load, num_events),
        "jsonl_load": _measure(run_jsonl_load, num_events),
        "timeline": _measure(run_timeline, timeline_events),
        "timeline_tiered": _measure(run_timeline_tiered, tiered_events),
        "gen_trace_build": _measure(run_gen_build, gen_events),
        "gen_replay_native": _measure(run_gen_replay, gen_events),
        "gen_timeline": _measure(run_gen_timeline, gen_timeline_events),
    }
    shutil.rmtree(workdir, ignore_errors=True)
    return results


def latest_floor(trajectory_path: Path, preset: str) -> dict:
    data = json.loads(trajectory_path.read_text())
    entry = data["trajectory"][-1]
    return entry["results"][preset]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=[*PRESETS, "all"], default="all")
    parser.add_argument("--json", type=Path, help="write results as JSON")
    parser.add_argument(
        "--check",
        type=Path,
        help="compare against the latest BENCH_trace_core.json entry; fail if a "
        f"replay_*, timeline, trace_store/_load or (gen_)trace_build column's best rep is "
        f"below {BEST_RATIO:g}x the recorded one or any other metric is >{CHECK_RATIO:g}x "
        "below the recorded floor",
    )
    parser.add_argument("--record", type=Path, help="append an entry to this trajectory file")
    parser.add_argument("--note", default="", help="what changed (stored with --record)")
    args = parser.parse_args(argv)

    presets = list(PRESETS) if args.preset == "all" else [args.preset]
    results: dict[str, dict] = {}
    for preset in presets:
        results[preset] = bench_preset(preset)
        print(f"== {preset} ==")
        for metric, row in results[preset].items():
            print(
                f"  {metric:18s} {row['events_per_sec']:>12,d} ev/s"
                f"  best {row['best_events_per_sec']:>12,d}"
                f"  ({row['events']} events x {row['reps']} reps in {row['seconds']}s)"
            )
        rows = results[preset]
        speedup = rows["trace_load"]["best_events_per_sec"] / rows["jsonl_load"]["best_events_per_sec"]
        print(f"  binary entry loads {speedup:.1f}x faster than JSON lines (best reps)")

    if args.json:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    if args.record:
        data = json.loads(args.record.read_text())
        data["trajectory"].append(
            {
                "note": args.note,
                "recorded": datetime.date.today().isoformat(),
                "results": results,
                "version": __version__,
            }
        )
        args.record.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"recorded {__version__} in {args.record}")

    if args.check:
        failed = False
        for preset in presets:
            floor = latest_floor(args.check, preset)
            for metric, row in results[preset].items():
                recorded = floor.get(metric)
                if recorded is None:
                    continue
                if metric.startswith("replay_") or metric in BEST_COLUMNS:
                    measured = row["best_events_per_sec"]
                    bound = recorded["best_events_per_sec"] * BEST_RATIO
                    rule = f"best {recorded['best_events_per_sec']:,d} x {BEST_RATIO:g}"
                else:
                    measured = row["events_per_sec"]
                    bound = recorded["events_per_sec"] / CHECK_RATIO
                    rule = f"floor {recorded['events_per_sec']:,d}/{CHECK_RATIO:g}"
                status = "ok" if measured >= bound else "FAIL"
                print(
                    f"check {preset}/{metric}: measured {measured:,d} ev/s vs "
                    f"{rule} = {int(bound):,d} ev/s [{status}]"
                )
                if measured < bound:
                    failed = True
        if failed:
            print("perf smoke FAILED: events/sec regressed below the recorded gate")
            return 1
        print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
