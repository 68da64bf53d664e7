"""The benchmark's metric tables and the per-layer derivation.

``BENCHMARK.json`` at the repository root lists exactly these names, units,
directions and bounds (the self-test compares them).  A layer is a package
under ``src/repro``; a per-layer metric that does not apply to a workload
(``search.*`` on a sweep, an allocator the workload does not run) reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from spans import busy_by_name

ALLOCATORS = ("torch2.3", "torch_es", "gmlake", "stalloc")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the reference value by which the gated value may worsen.
    bound: float | None = None
    #: How the gated value is taken from a run's samples: ``best`` (host
    #: timings -- contention only ever adds time, so the best rep is the
    #: steadiest estimate), ``median``, or ``exact`` (a simulated statistic,
    #: identical on every rep of one seed).
    stat: str = "exact"


END_TO_END = (
    # Host timings.  This machine runs whole minutes 10-30% slow, so even
    # the best of five cold reps moves by 5-20% from run to run (README,
    # "Noise"); the bounds are the widest the contract allows.
    Metric("setup_s", "s", "lower", 0.25, "median"),
    Metric("cold_wall_s", "s", "lower", 0.25, "best"),
    Metric("warm_wall_s", "s", "lower", 0.25, "best"),
    Metric("events_per_s", "events/s", "higher", 0.25, "best"),
    Metric("peak_rss_mib", "MiB", "lower", 0.10, "median"),
    # Simulated statistics.  Under one seed they repeat bit for bit (and
    # --compare holds them to that); the bounds only have to cover how far
    # the MoE router's draws move them from seed to seed.
    Metric("stalloc_mem_eff_pct", "%", "higher", 0.02),
    Metric("frag_reduction_pct", "%", "higher", 0.08),
    Metric("sim_tokens_per_s", "tokens/s", "higher", 0.10),
)


def _per_allocator(prefix: str, unit: str, better: str) -> list[Metric]:
    return [Metric(f"{prefix}.{name}", unit, better) for name in ALLOCATORS]


PER_LAYER = (
    Metric("workloads.tracegen_s", "s", "lower"),
    Metric("workloads.traces", "count", "lower"),
    Metric("workloads.trace_events", "count", "lower"),
    Metric("workloads.tracegen_events_per_s", "events/s", "higher"),
    Metric("core.profile_s", "s", "lower"),
    Metric("core.synthesize_s", "s", "lower"),
    Metric("core.runtime_build_s", "s", "lower"),
    Metric("core.plans", "count", "lower"),
    Metric("core.plan_requests", "count", "lower"),
    Metric("core.synthesize_requests_per_s", "1/s", "higher"),
    Metric("core.plan_overhead_ratio", "ratio", "lower"),
    Metric("core.fallback_share", "ratio", "lower"),
    Metric("core.plan_mismatch_share", "ratio", "lower"),
    *_per_allocator("simulator.replay_s", "s", "lower"),
    Metric("simulator.replays", "count", "lower"),
    Metric("simulator.replay_events", "count", "lower"),
    *_per_allocator("simulator.replay_events_per_s", "events/s", "higher"),
    *_per_allocator("allocators.frag_pct", "%", "lower"),
    *_per_allocator("allocators.device_malloc_calls", "count", "lower"),
    *_per_allocator("allocators.cache_hit_ratio", "ratio", "higher"),
    Metric("timeline.simulate_s", "s", "lower"),
    Metric("timeline.events", "count", "lower"),
    Metric("timeline.events_per_s", "events/s", "higher"),
    Metric("sweep.expand_s", "s", "lower"),
    Metric("sweep.cache_write_s", "s", "lower"),
    Metric("sweep.cache_read_s", "s", "lower"),
    Metric("sweep.cache_bytes", "bytes", "lower"),
    Metric("sweep.cache_hit_ratio_warm", "ratio", "higher"),
    Metric("sweep.engine_overhead_s", "s", "lower"),
    Metric("sweep.point_max_s", "s", "lower"),
    Metric("sweep.jobs2_wall_s", "s", "lower"),
    Metric("sweep.jobs2_speedup", "ratio", "higher"),
    Metric("search.enumerate_s", "s", "lower"),
    Metric("search.bounds_s", "s", "lower"),
    Metric("search.candidates", "count", "lower"),
    Metric("search.pruned_memory", "count", "higher"),
    Metric("search.pruned_bound", "count", "higher"),
    Metric("search.evaluated_share", "ratio", "lower"),
    Metric("obs.overhead_pct", "%", "lower"),
    Metric("obs.spans", "count", "lower"),
    Metric("cli.import_s", "s", "lower"),
    Metric("cli.cold_cpu_s", "s", "lower"),
)

#: Span names of the staged pass that make up a cold serial run's work; the
#: cache's read path is measured there too but a cold run never takes it.
COLD_BUSY_SPANS = (
    "workloads.tracegen",
    "core.profile",
    "core.synthesize",
    "core.runtime_build",
    "simulator.replay",
    "timeline.simulate",
    "sweep.expand",
    "sweep.cache_write",
    "search.enumerate",
    "search.bounds",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_busy_seconds(stage_spans: list[dict]) -> dict[str, float]:
    """Busy seconds per layer (span-name prefix) over the cold-path spans."""
    busy = busy_by_name(stage_spans)
    layers: dict[str, float] = {}
    for name in COLD_BUSY_SPANS:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + busy.get(name, 0.0)
    return layers


def layer_shares(stage_spans: list[dict], engine_wall: float) -> dict[str, float]:
    """Each layer's share of the program's own in-process run.

    What the run took beyond the staged layers' busy time (orchestration,
    row assembly, cache bookkeeping) is the engine's, so it counts towards
    ``sweep``; the shares then add up to one.
    """
    layers = layer_busy_seconds(stage_spans)
    layers["sweep"] += engine_wall - sum(layers.values())
    return {name: seconds / engine_wall for name, seconds in layers.items()}


def derive_per_layer(stage: dict, engine_wall: float, extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric of one workload.

    ``stage`` is the document ``stages.py stages`` wrote, ``engine_wall`` the
    wall of the program's own in-process run, and ``extra`` holds the values
    run.py measured from outside (CLI children, result files): see
    ``WorkloadBench.traced``.
    """
    spans = stage["spans"]
    # A boundary the workload never crosses has no span and no count.
    busy = defaultdict(float, busy_by_name(spans))
    counts = defaultdict(float, stage["counts"])
    by_allocator = {
        name: defaultdict(float, stage["by_allocator"].get(name, {})) for name in ALLOCATORS
    }
    replay_seconds = dict.fromkeys(ALLOCATORS, 0.0)
    for span in spans:
        if span["name"] == "simulator.replay":
            replay_seconds[span["allocator"]] += span["end"] - span["start"]
    stalloc = by_allocator["stalloc"]

    values = {
        "workloads.tracegen_s": busy["workloads.tracegen"],
        "workloads.traces": counts["workloads.traces"],
        "workloads.trace_events": counts["workloads.trace_events"],
        "workloads.tracegen_events_per_s": _ratio(
            counts["workloads.trace_events"], busy["workloads.tracegen"]
        ),
        "core.profile_s": busy["core.profile"],
        "core.synthesize_s": busy["core.synthesize"],
        "core.runtime_build_s": busy["core.runtime_build"],
        "core.plans": counts["core.plans"],
        "core.plan_requests": counts["core.plan_requests"],
        "core.synthesize_requests_per_s": _ratio(
            counts["core.plan_requests"], busy["core.synthesize"]
        ),
        "core.plan_overhead_ratio": _ratio(
            counts["core.static_pool_bytes"], counts["core.peak_static_demand_bytes"]
        ),
        "core.fallback_share": _ratio(stalloc["fallback_allocs"], stalloc["alloc_calls"]),
        "core.plan_mismatch_share": _ratio(stalloc["plan_mismatches"], stalloc["alloc_calls"]),
        "simulator.replays": counts["simulator.replays"],
        "simulator.replay_events": counts["simulator.replay_events"],
        "timeline.simulate_s": busy["timeline.simulate"],
        "timeline.events": counts["timeline.events"],
        "timeline.events_per_s": _ratio(counts["timeline.events"], busy["timeline.simulate"]),
        "sweep.expand_s": busy["sweep.expand"],
        "sweep.cache_write_s": busy["sweep.cache_write"],
        "sweep.cache_read_s": busy["sweep.cache_read"],
        "sweep.engine_overhead_s": engine_wall - sum(layer_busy_seconds(spans).values()),
        "search.enumerate_s": busy["search.enumerate"],
        "search.bounds_s": busy["search.bounds"],
        "search.candidates": counts["search.candidates"],
        "obs.spans": stage.get("obs_summary", {}).get("spans", 0),
    }
    for name, sums in by_allocator.items():
        values[f"simulator.replay_s.{name}"] = replay_seconds[name]
        values[f"simulator.replay_events_per_s.{name}"] = _ratio(
            sums["events"], replay_seconds[name]
        )
        values[f"allocators.frag_pct.{name}"] = _ratio(sums["frag_pct"], sums["ok_replays"])
        values[f"allocators.device_malloc_calls.{name}"] = sums["device_malloc_calls"]
        values[f"allocators.cache_hit_ratio.{name}"] = _ratio(
            sums["cache_hits"], sums["cache_hits"] + sums["cache_misses"]
        )
    values.update(extra)
    missing = {metric.name for metric in PER_LAYER} - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not derived: {sorted(missing)}")
    return {metric.name: float(values[metric.name]) for metric in PER_LAYER}
