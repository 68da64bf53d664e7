"""Seeded property/fuzz suite for generation workloads.

Generation traces are the adversarial input for a static memory planner: the
KV cache is re-allocated larger at every decode step, so allocation sizes are
a function of *sequence position* rather than a fixed per-phase inventory.
This suite locks down the invariants that make that dynamism analyzable,
across ~200 randomly drawn configurations (fixed-seed RNG, so failures
reproduce):

* **KV lifetime shape** -- per (layer, micro-batch, chunk) unit the cache
  only grows (strictly increasing alloc sizes until the ``max_new_tokens``
  cap), and the total live KV bytes sampled at phase boundaries rise to a
  single peak and fall back to exactly zero (every cache is released when
  its sequence completes);
* **workload-kind equivalences** -- ``decode_steps=0`` generation produces
  the inference event stream byte for byte, and an inference trace allocates
  exactly the training trace's INIT+forward allocations minus gradient and
  optimizer state;
* **monotonicity** -- peak memory is strictly increasing in ``decode_steps``
  and, below the cap, in ``max_new_tokens``;
* **bound admissibility** -- the search planner's KV-aware
  ``memory_lower_bound`` never exceeds a real generation trace's peak, so
  pruning on it can only kill configurations that genuinely cannot fit;
* **allocator differential** -- native and STAlloc reach the same OOM
  verdict on generation traces at both generous and starved capacities.

The full fuzz sweeps are marked ``slow`` (run with ``-m slow``); an
unmarked prefix of the same draws keeps the tier-1 suite fast.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.events import PhaseKind, TensorCategory
from repro.gpu.device import GIB
from repro.search import memory_lower_bound, search_points
from repro.search.bounds import kv_cache_bytes_floor
from repro.simulator.runner import run_workload
from repro.sweep.spec import load_spec
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.trace_oracle import events_of

_LAYERS = {"gpt-tiny": 4, "moe-tiny": 8}


def _config(
    model: str = "gpt-tiny",
    *,
    kind: str = "generation",
    pipeline: int = 2,
    chunks: int = 1,
    expert: int = 1,
    mbs: int = 2,
    m: int = 2,
    decode_steps: int = 4,
    max_new_tokens: int = 0,
    imbalance: float = 0.0,
    comm_factor: float = 0.0,
) -> TrainingConfig:
    return TrainingConfig(
        model=get_model(model),
        parallelism=ParallelismConfig(
            pipeline_parallel=pipeline,
            data_parallel=4 if model == "moe-tiny" else 2,
            expert_parallel=expert,
            virtual_pipeline_chunks=chunks,
        ),
        micro_batch_size=mbs,
        num_microbatches=m,
        workload_kind=kind,
        decode_steps=decode_steps if kind == "generation" else 0,
        max_new_tokens=max_new_tokens if kind == "generation" else 0,
        moe_imbalance=imbalance,
        moe_comm_factor=comm_factor,
    )


def _draw_configs(count: int, *, rng_seed: int) -> list[tuple]:
    """Reproducible (model, pp, vpp, ep, mbs, m, steps, cap, seed) draws."""
    rng = random.Random(rng_seed)
    draws = []
    for _ in range(count):
        model = rng.choice(["gpt-tiny", "moe-tiny"])
        layers = _LAYERS[model]
        pipeline = rng.choice([p for p in (1, 2, 4) if layers % p == 0])
        per_rank = layers // pipeline
        chunks = rng.choice(
            [c for c in (1, 2) if per_rank % c == 0 and (c == 1 or pipeline > 1)]
        )
        expert = rng.choice([1, 2, 4]) if model == "moe-tiny" else 1
        draws.append(
            (
                model,
                pipeline,
                chunks,
                expert,
                rng.choice([1, 2]),             # micro_batch_size
                rng.choice([1, 2, 4]),          # num_microbatches
                rng.randrange(0, 9),            # decode_steps
                rng.choice([0, rng.randrange(1, 13)]),  # max_new_tokens cap
                rng.randrange(10_000),          # trace seed
            )
        )
    return draws


def _case_config(case: tuple, *, kind: str = "generation") -> tuple[TrainingConfig, int]:
    model, pipeline, chunks, expert, mbs, m, steps, cap, seed = case
    config = _config(
        model,
        kind=kind,
        pipeline=pipeline,
        chunks=chunks,
        expert=expert,
        mbs=mbs,
        m=m,
        decode_steps=steps,
        max_new_tokens=cap,
        imbalance=0.6 if model == "moe-tiny" else 0.0,
        comm_factor=1.0 if (model == "moe-tiny" and seed % 2) else 0.0,
    )
    return config, seed


#: Every fuzz test takes its fast prefix from the same 200 draws the slow
#: sweep runs in full, so `-m slow` extends coverage instead of forking it.
FULL_CASES = _draw_configs(200, rng_seed=2026)
FAST_CASES = FULL_CASES[:16]
SLOW_CASES = FULL_CASES[16:]


def _event_keys(trace) -> list[tuple]:
    """Time/req_id-free view of the event stream (stable under renumbering)."""
    return [
        (
            event.kind.value, event.size, event.tag, event.category.value,
            event.module, event.dyn, event.phase.index, event.phase.kind.value,
            event.phase.microbatch, event.phase.chunk,
        )
        for event in events_of(trace)
    ]


def _kv_live_at_phase_ends(trace) -> list[int]:
    """Live KV-cache bytes sampled at every phase boundary."""
    series = []
    live = 0
    current = None
    for event in events_of(trace):
        if current is not None and event.phase.index != current:
            series.append(live)
        current = event.phase.index
        if event.category is TensorCategory.KV_CACHE:
            live += event.size if event.is_alloc() else -event.size
    series.append(live)
    return series


def _alloc_multiset(trace, *, exclude: tuple = ()) -> Counter:
    """(tag, size, category) multiset of INIT+forward-phase allocations."""
    return Counter(
        (event.tag, event.size, event.category.value)
        for event in events_of(trace)
        if event.is_alloc()
        and event.phase.kind in (PhaseKind.INIT, PhaseKind.FORWARD)
        and event.category not in exclude
    )


# --------------------------------------------------------------------- #
# KV-cache lifetime shape
# --------------------------------------------------------------------- #
def _check_kv_lifetime(case: tuple) -> None:
    config, seed = _case_config(case)
    trace = TraceGenerator(config, seed=seed).generate()
    if config.decode_steps == 0:
        assert trace.kv_peak_bytes() == 0
        assert not any(
            event.category is TensorCategory.KV_CACHE for event in events_of(trace)
        )
        return
    # Per unit, the cache only grows: alloc sizes strictly increase until the
    # max_new_tokens cap stops the re-allocations.
    allocs: dict[tuple, list[int]] = {}
    for event in events_of(trace):
        if event.is_alloc() and event.category is TensorCategory.KV_CACHE:
            key = (event.tag, event.phase.microbatch, event.phase.chunk)
            allocs.setdefault(key, []).append(event.size)
    assert allocs, case
    for key, sizes in allocs.items():
        assert sizes == sorted(set(sizes)), (case, key, sizes)
    # Total live KV rises to one peak and falls back to exactly zero.
    series = _kv_live_at_phase_ends(trace)
    top = series.index(max(series))
    assert series[: top + 1] == sorted(series[: top + 1]), (case, series)
    assert series[top:] == sorted(series[top:], reverse=True), (case, series)
    assert series[-1] == 0, (case, series)
    assert trace.kv_peak_bytes() >= max(series)
    # The planner's KV floor prices a guaranteed-live subset of that peak.
    assert kv_cache_bytes_floor(config) <= trace.kv_peak_bytes(), case


@pytest.mark.parametrize("case", FAST_CASES)
def test_kv_lifetime_shape(case):
    _check_kv_lifetime(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", SLOW_CASES)
def test_kv_lifetime_shape_full_fuzz(case):
    _check_kv_lifetime(case)


# --------------------------------------------------------------------- #
# Workload-kind equivalences
# --------------------------------------------------------------------- #
def _check_prefill_only_is_inference(case: tuple) -> None:
    model, pipeline, chunks, expert, mbs, m, _, _, seed = case
    prefill_only = (model, pipeline, chunks, expert, mbs, m, 0, 0, seed)
    generation, seed = _case_config(prefill_only)
    inference, _ = _case_config(prefill_only, kind="inference")
    gen_trace = TraceGenerator(generation, seed=seed).generate()
    inf_trace = TraceGenerator(inference, seed=seed).generate()
    assert _event_keys(gen_trace) == _event_keys(inf_trace), case
    assert gen_trace.metadata.workload_kind == "generation"
    assert inf_trace.metadata.workload_kind == "inference"


@pytest.mark.parametrize("case", FAST_CASES)
def test_prefill_only_generation_is_the_inference_trace(case):
    """decode_steps=0 generation emits the inference stream byte for byte."""
    _check_prefill_only_is_inference(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", SLOW_CASES)
def test_prefill_only_generation_is_the_inference_trace_full_fuzz(case):
    _check_prefill_only_is_inference(case)


def _check_inference_is_training_minus_state(case: tuple) -> None:
    config, seed = _case_config(case, kind="inference")
    training = config.with_(workload_kind="training", decode_steps=0, max_new_tokens=0)
    inf_trace = TraceGenerator(config, seed=seed).generate()
    train_trace = TraceGenerator(training, seed=seed).generate()
    assert _alloc_multiset(inf_trace) == _alloc_multiset(
        train_trace,
        exclude=(TensorCategory.GRADIENT, TensorCategory.OPTIMIZER_STATE),
    ), case
    assert inf_trace.peak_allocated_bytes() < train_trace.peak_allocated_bytes()


@pytest.mark.parametrize("case", FAST_CASES)
def test_inference_allocates_training_forward_minus_state(case):
    """An inference trace's INIT+forward allocations are exactly the training
    trace's, minus gradients and optimizer state (sizes are deterministic per
    micro-batch, so the multisets match element for element)."""
    _check_inference_is_training_minus_state(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", SLOW_CASES)
def test_inference_allocates_training_forward_minus_state_full_fuzz(case):
    _check_inference_is_training_minus_state(case)


# --------------------------------------------------------------------- #
# Peak-memory monotonicity in the decode knobs
# --------------------------------------------------------------------- #
def test_peak_strictly_increasing_in_decode_steps():
    """KV peak grows strictly with every decode step; the overall peak never
    shrinks, and once the cache outgrows the prefill activations (the
    KV-bound regime) it grows strictly too."""
    peaks = []
    kv_peaks = []
    for steps in (0, 1, 2, 4, 8):
        trace = TraceGenerator(_config(decode_steps=steps), seed=3).generate()
        peaks.append(trace.peak_allocated_bytes())
        kv_peaks.append(trace.kv_peak_bytes())
    assert peaks == sorted(peaks), peaks
    assert kv_peaks == sorted(set(kv_peaks)), kv_peaks
    assert kv_peaks[0] == 0 and kv_peaks[-1] > 0
    bound_peaks = [
        TraceGenerator(_config(decode_steps=steps), seed=3)
        .generate()
        .peak_allocated_bytes()
        for steps in (1536, 1792, 2048)
    ]
    assert bound_peaks == sorted(set(bound_peaks)), bound_peaks
    assert bound_peaks[0] > peaks[-1]


def test_peak_strictly_increasing_in_max_new_tokens_below_the_cap():
    peaks = []
    kv_peaks = []
    for cap in (512, 1024, 1536, 2048):
        trace = TraceGenerator(
            _config(decode_steps=2048, max_new_tokens=cap), seed=3
        ).generate()
        peaks.append(trace.peak_allocated_bytes())
        kv_peaks.append(trace.kv_peak_bytes())
    assert kv_peaks == sorted(set(kv_peaks)), kv_peaks
    assert peaks == sorted(peaks), peaks
    assert peaks[-1] > peaks[0]
    # A cap equal to decode_steps is the uncapped trace.
    uncapped = TraceGenerator(
        _config(decode_steps=2048, max_new_tokens=0), seed=3
    ).generate()
    assert peaks[-1] == uncapped.peak_allocated_bytes()
    assert kv_peaks[-1] == uncapped.kv_peak_bytes()


# --------------------------------------------------------------------- #
# Search-bound admissibility on generation workloads
# --------------------------------------------------------------------- #
def _check_memory_bound_admissible(case: tuple) -> None:
    config, seed = _case_config(case)
    pipeline = config.parallelism.pipeline_parallel
    expert = config.parallelism.expert_parallel
    for rank in {0, pipeline - 1}:
        for ep_rank in {0, expert - 1}:
            bound = memory_lower_bound(config, rank=rank, ep_rank=ep_rank)
            trace = TraceGenerator(
                config, seed=seed, rank=rank, ep_rank=ep_rank
            ).generate()
            assert bound <= trace.peak_allocated_bytes(), (
                f"bound {bound} exceeds real peak {trace.peak_allocated_bytes()} "
                f"for {config.label or config.describe()} rank ({rank}, {ep_rank})"
            )


@pytest.mark.parametrize("case", FAST_CASES)
def test_memory_lower_bound_admissible_on_generation(case):
    """The KV-aware memory floor never exceeds a real generation trace peak."""
    _check_memory_bound_admissible(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", SLOW_CASES)
def test_memory_lower_bound_admissible_on_generation_full_fuzz(case):
    _check_memory_bound_admissible(case)


def test_search_matches_exhaustive_on_generation_grid():
    """The planner returns the exhaustive argmin on the gen-smoke grid."""
    points = load_spec("gen-smoke").expand()
    searched = search_points(points, name="gen-smoke", cache_dir=None)
    oracle = search_points(points, name="gen-smoke", cache_dir=None, exhaustive=True)
    assert searched.best is not None and oracle.best is not None
    assert (searched.best["config"], searched.best["allocator"]) == (
        oracle.best["config"],
        oracle.best["allocator"],
    )


# --------------------------------------------------------------------- #
# Allocator differential: static planning survives dynamic allocation
# --------------------------------------------------------------------- #
def _check_allocator_verdicts_agree(case: tuple) -> None:
    config, seed = _case_config(case)
    trace = TraceGenerator(config, seed=seed).generate()
    peak_gib = trace.peak_allocated_bytes() / GIB
    for capacity_gib, expect_fit in ((4.0 * peak_gib + 0.05, True),
                                     (0.4 * peak_gib, False)):
        verdicts = {
            name: run_workload(
                config, name, device_capacity_gib=capacity_gib,
                seed=seed, trace=trace,
            ).success
            for name in ("native", "stalloc")
        }
        assert verdicts["native"] is expect_fit, (case, capacity_gib, verdicts)
        assert verdicts["stalloc"] is expect_fit, (case, capacity_gib, verdicts)


@pytest.mark.parametrize("case", FAST_CASES[:6])
def test_native_and_stalloc_agree_on_generation_oom_verdicts(case):
    """Both allocators fit a generous device and OOM a starved one: STAlloc's
    static plan must not change the feasibility verdict on traces whose
    allocation sizes are dynamic in sequence position."""
    _check_allocator_verdicts_agree(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", SLOW_CASES[:40])
def test_native_and_stalloc_agree_on_generation_oom_verdicts_full_fuzz(case):
    _check_allocator_verdicts_agree(case)


# --------------------------------------------------------------------- #
# Quality floor: what the static plan reserves on generation traces
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("rank", [0, 1])
@pytest.mark.parametrize("decode_steps", [8, 16])
def test_gen_decode_plan_reserves_its_demand_and_no_more_than_expandable_segments(
    decode_steps, rank
):
    """The end-to-end benchmark's ``gen-decode`` shape, every rank.

    The prefill forwards sit on top of however many per-micro-batch KV plans
    are alive by then (longest-lifetime-first placement, 1.14.0): the first
    stage reserves exactly its peak demand, the last -- the job's binding
    rank -- what its HomoPhase groups' own packing adds (ROADMAP item 3).
    Layered alone, the ratios were 1.10 / 1.07 (1.13.0, sub-layer Requests
    Insertion) and 1.33-1.44 before that, behind ``torch_es`` both times.
    """
    config = _config("gpt2-345m", pipeline=2, mbs=4, m=4, decode_steps=decode_steps)
    run = run_workload(config, "stalloc", rank=rank)
    report = run.planning_report
    assert run.success
    assert report["placement_order"] == "lifetime"
    assert report["static_pool_bytes"] < report["layered_pool_bytes"]
    assert report["layers"]["num_layers"] == 1 and report["subrange_insertions"] > 0
    if rank == 0:
        assert report["plan_overhead_ratio"] == 1.0
    else:
        assert report["plan_overhead_ratio"] <= 1.03
    assert 100 * run.fragmentation_ratio <= (0.5, 3.0)[rank]
    # The paper's ordering: offline planning reserves no more than any baseline.
    for baseline in ("torch_es", "torch2.3"):
        reserved = run_workload(config, baseline, rank=rank).peak_reserved_bytes
        assert run.peak_reserved_bytes <= reserved, baseline


def test_gpt_tiny_generation_pool_is_no_larger_than_before_sub_layer_insertion():
    from tests.test_golden_traces import _case_configs

    case = _case_configs()["gpt-tiny-generation"]
    trace = TraceGenerator(
        case["config"], seed=case["seed"], rank=case["rank"], ep_rank=case["ep_rank"]
    ).generate()
    report = run_workload(case["config"], "stalloc", trace=trace).planning_report
    assert report["static_pool_bytes"] <= 20543488  # the pool at 1.12.0
