"""The traced run's in-process half, executed as a child process of run.py.

``stages`` walks one generated spec through every layer by hand -- the same
public calls, in the same order and with the same sharing of traces and plans
across allocators as ``repro.sweep.engine`` / ``repro.search.planner`` make --
with a benchmark span around each call, and writes the spans plus the counts
taken at the same boundaries.  ``engine`` runs the program's own
``run_sweep`` / ``run_search`` under a single span, so the two walls can be
set against each other (``sweep.engine_overhead_s``).

Each mode is its own process on purpose: the program keeps five in-process
memos, so a second pass in one interpreter would not be cold.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from collections import defaultdict
from dataclasses import replace as dataclass_replace
from pathlib import Path

from spans import SpanLog

STALLOC = "stalloc"


def _environment() -> dict:
    """Versions that decide whether two result files are comparable."""
    import numpy

    from repro.search.planner import SEARCH_VERSION
    from repro.sweep.cache import RESULT_FORMAT_VERSION
    from repro.timeline import TIMELINE_VERSION
    from repro.version import __version__
    from repro.workloads.tracegen import TRACEGEN_VERSION

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": __version__,
        "tracegen_version": TRACEGEN_VERSION,
        "timeline_version": TIMELINE_VERSION,
        "result_format_version": RESULT_FORMAT_VERSION,
        "search_version": SEARCH_VERSION,
    }


def _load_points(log: SpanLog, kind: str, spec_path: Path, cold: dict, counts: dict):
    """Expand the spec into the points the cold CLI run executed."""
    from repro.gpu.specs import get_gpu
    from repro.search.bounds import memory_lower_bound, throughput_upper_bound
    from repro.search.space import SearchSpec
    from repro.simulator.runner import resolve_job_ranks
    from repro.sweep.spec import SweepSpec
    from repro.workloads.parallelism import normalize_rank
    from repro.workloads.tracegen import config_fingerprint

    if kind == "sweep":
        spec = SweepSpec.from_file(spec_path)
        with log.span("sweep.expand"):
            return spec.expand()

    spec = SearchSpec.from_file(spec_path)
    with log.span("search.enumerate"):
        candidates = spec.enumerate_candidates()
    counts["search.candidates"] = len(candidates)
    # One bound evaluation per priced configuration, as the planner groups
    # them: every allocator cell of a configuration shares both bounds.
    heads = {}
    for point in candidates:
        key = config_fingerprint(point.config, seed=point.seed, scale=point.scale)
        heads.setdefault(key, point)
    with log.span("search.bounds"):
        for head in heads.values():
            for members in resolve_job_ranks(head.config, head.ranks):
                pp, ep = normalize_rank(members[0])
                memory_lower_bound(head.config, rank=pp, ep_rank=ep, scale=head.scale)
            gpu = get_gpu(head.device_name)
            if head.fabric:
                gpu = dataclass_replace(gpu, **dict(head.fabric))
            throughput_upper_bound(head.config, gpu, timing=head.timing, scale=head.scale)
    evaluated = {row["point"] for row in cold["rows"]}
    return [point for point in candidates if point.index in evaluated]


def run_stages(kind: str, spec_path: Path, cold_path: Path, cache_dir: Path) -> dict:
    from repro.allocators.registry import create_allocator
    from repro.core.profiler import AllocationProfiler
    from repro.core.stalloc import STAlloc, STAllocConfig
    from repro.core.synthesizer import PlanSynthesizer
    from repro.gpu.device import GIB, Device
    from repro.gpu.errors import OutOfMemoryError
    from repro.gpu.specs import get_gpu
    from repro.simulator.replay import replay_trace
    from repro.simulator.runner import resolve_job_ranks
    from repro.sweep.cache import SweepCache
    from repro.sweep.engine import point_result_key
    from repro.timeline import simulate_timeline
    from repro.workloads.parallelism import normalize_rank
    from repro.workloads.tracegen import TraceGenerator, config_fingerprint

    cold = json.loads(cold_path.read_text(encoding="utf-8"))
    rows_by_point = {row["point"]: row for row in cold["rows"]}
    log = SpanLog()
    counts: dict[str, float] = defaultdict(float)
    #: Per-allocator sums of the replay results' own counters.
    by_allocator: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    cache = SweepCache(cache_dir)
    traces: dict[str, object] = {}
    plans: dict[tuple, STAlloc] = {}
    timelines: dict[int, object] = {}

    with log.span("stages") as root:
        points = _load_points(log, kind, spec_path, cold, counts)
        for point in points:
            config, seed, scale = point.config, point.seed, point.scale
            gpu = get_gpu(point.device_name)
            capacity_gib = point.device_capacity_gib or gpu.memory_gib
            overhead = 0.0
            with log.span("point", point=point.index):
                for members in resolve_job_ranks(config, point.ranks):
                    pp, ep = normalize_rank(members[0])
                    fingerprint = config_fingerprint(
                        config, seed=seed, scale=scale, rank=pp, ep_rank=ep
                    )
                    trace = traces.get(fingerprint)
                    if trace is None:
                        with log.span("workloads.tracegen"):
                            trace = TraceGenerator(
                                config, seed=seed, scale=scale, rank=pp, ep_rank=ep
                            ).generate()
                        traces[fingerprint] = trace
                        counts["workloads.traces"] += 1
                        counts["workloads.trace_events"] += trace.num_events
                        with log.span("sweep.cache_write", entry="trace"):
                            trace.save(cache.trace_path(fingerprint))
                        with log.span("sweep.cache_read", entry="trace"):
                            cache.get_trace(config, seed=seed, scale=scale, rank=pp, ep_rank=ep)

                    device = Device(
                        name=point.device_name,
                        capacity=int(capacity_gib * GIB),
                        reserved_overhead=0,
                    )
                    if point.allocator == STALLOC:
                        stalloc_config = STAllocConfig(**dict(point.stalloc_overrides))
                        plan_id = (fingerprint, point.stalloc_overrides)
                        stalloc = plans.get(plan_id)
                        if stalloc is None:
                            with log.span("core.profile"):
                                profile = AllocationProfiler(
                                    iterations=stalloc_config.profiler_iterations
                                ).profile(trace)
                            with log.span("core.synthesize"):
                                plan = PlanSynthesizer(
                                    stalloc_config.synthesizer_config()
                                ).synthesize(profile)
                            stalloc = STAlloc(profile=profile, plan=plan, config=stalloc_config)
                            plans[plan_id] = stalloc
                            counts["core.plans"] += 1
                            counts["core.plan_requests"] += profile.num_requests
                            info = plan.synthesis_info
                            counts["core.static_pool_bytes"] += info["static_pool_bytes"]
                            counts["core.peak_static_demand_bytes"] += info[
                                "peak_static_demand_bytes"
                            ]
                            with log.span("sweep.cache_write", entry="plan"):
                                stalloc.save_plan(
                                    cache.plan_path(cache.plan_key(trace, stalloc_config))
                                )
                            with log.span("sweep.cache_read", entry="plan"):
                                cache.get_stalloc(trace, stalloc_config)
                        try:
                            with log.span("core.runtime_build"):
                                allocator = stalloc.build_runtime_allocator(device)
                        except OutOfMemoryError:
                            # The static pool alone exceeds the budget: an
                            # OOM result with nothing replayed, as in the
                            # program's run_workload.
                            continue
                    else:
                        allocator = create_allocator(point.allocator, device)

                    with log.span("simulator.replay", allocator=point.allocator):
                        replay = replay_trace(trace, allocator)
                    overhead = max(overhead, replay.overhead_seconds)
                    counts["simulator.replays"] += 1
                    counts["simulator.replay_events"] += replay.events_replayed
                    sums = by_allocator[point.allocator]
                    sums["replays"] += 1
                    sums["events"] += replay.events_replayed
                    if replay.success:
                        sums["ok_replays"] += 1
                        sums["frag_pct"] += 100 * replay.fragmentation_ratio
                    for key in (
                        "alloc_calls",
                        "device_malloc_calls",
                        "cache_hits",
                        "cache_misses",
                        "fallback_allocs",
                        "plan_mismatches",
                    ):
                        sums[key] += replay.allocator_stats[key]

                if point.fabric:
                    gpu = dataclass_replace(gpu, **dict(point.fabric))
                with log.span("timeline.simulate"):
                    timeline = simulate_timeline(
                        config,
                        gpu=gpu,
                        seed=seed,
                        scale=scale,
                        allocator_overhead_seconds=overhead,
                    )
                # The memo hands one object to every caller with the same
                # key; count each simulation's events once.
                timelines[id(timeline)] = timeline

                result_key = point_result_key(cache, point)
                with log.span("sweep.cache_read", entry="result-miss"):
                    cache.load_result(result_key)
                with log.span("sweep.cache_write", entry="result"):
                    cache.store_result(result_key, rows_by_point[point.index])
                with log.span("sweep.cache_read", entry="result"):
                    cache.load_result(result_key)
        root["points"] = len(points)

    counts["timeline.events"] = sum(item.num_events for item in timelines.values())
    return {
        "spans": log.spans,
        "counts": dict(counts),
        "by_allocator": {name: dict(sums) for name, sums in by_allocator.items()},
    }


def run_engine(kind: str, spec_path: Path, cache_dir: Path) -> dict:
    """The program's own serial run over an empty cache, under one span."""
    log = SpanLog()
    if kind == "sweep":
        from repro.sweep.engine import run_sweep
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec.from_file(spec_path)
        with log.span("engine.run"):
            result = run_sweep(spec, jobs=1, cache_dir=str(cache_dir))
    else:
        from repro.search.planner import run_search
        from repro.search.space import SearchSpec

        spec = SearchSpec.from_file(spec_path)
        with log.span("engine.run"):
            result = run_search(spec, cache_dir=str(cache_dir))
    return {"spans": log.spans, "rows": len(result.rows)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["stages", "engine"])
    parser.add_argument("kind", choices=["sweep", "search"])
    parser.add_argument("spec", type=Path)
    parser.add_argument("--cache-dir", type=Path, required=True, help="fresh, empty directory")
    parser.add_argument("--cold-rows", type=Path, help="a cold CLI run's --output (stages)")
    parser.add_argument("--obs", type=Path, help="a cold CLI run's --obs-out to summarize")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.mode == "engine":
        document = run_engine(args.kind, args.spec, args.cache_dir)
    else:
        document = run_stages(args.kind, args.spec, args.cold_rows, args.cache_dir)
        document["env"] = _environment()
        if args.obs is not None:
            from repro.obs.summarize import summarize_file

            document["obs_summary"] = summarize_file(args.obs).as_dict()
    args.out.write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
