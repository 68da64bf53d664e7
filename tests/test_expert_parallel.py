"""Expert-parallel rank asymmetry: router properties, differential tests
against the symmetric baseline, cache-key identity, and heterogeneous
per-rank device budgets."""

from __future__ import annotations

import itertools

import pytest

from repro.allocators.registry import create_allocator
from repro.gpu.device import Device, GIB
from repro.simulator import ExecutionContext
from repro.simulator.ranks import resolve_job_ranks
from repro.simulator.replay import replay_trace
from repro.simulator.runner import run_workload
from repro.sweep import SweepCache, SweepSpec, load_spec, run_sweep
from repro.sweep.engine import point_result_key
from repro.sweep.results import _ranks_label
from repro.workloads.moe import ExpertRouter, balanced_split
from repro.workloads.models import get_model
from repro.workloads.parallelism import (
    ParallelismConfig,
    normalize_rank,
    rank_label,
)
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.conftest import run_job
from tests.trace_oracle import events_of


def _moe_config(
    *,
    imbalance: float = 0.6,
    pipeline: int = 2,
    expert: int = 4,
    num_microbatches: int = 2,
) -> TrainingConfig:
    return TrainingConfig(
        model=get_model("moe-tiny"),
        parallelism=ParallelismConfig(
            pipeline_parallel=pipeline, data_parallel=4, expert_parallel=expert
        ),
        micro_batch_size=1,
        num_microbatches=num_microbatches,
        moe_imbalance=imbalance,
    )


def _routers(num_experts, local, top_k, *, seed, imbalance):
    """One router per EP rank, sharing the job-global seed."""
    return [
        ExpertRouter(
            num_experts=num_experts,
            num_local_experts=local,
            top_k=top_k,
            seed=seed,
            imbalance=imbalance,
            ep_rank=ep_rank,
        )
        for ep_rank in range(num_experts // local)
    ]


# ---------------------------------------------------------------------- #
# ExpertRouter property tests
# ---------------------------------------------------------------------- #
class TestRouterProperties:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("imbalance", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize(
        "num_experts,local,top_k,tokens",
        [(8, 2, 2, 1024), (16, 4, 4, 513), (60, 15, 4, 777), (4, 1, 1, 1)],
    )
    def test_token_conservation_across_ep_ranks(
        self, seed, imbalance, num_experts, local, top_k, tokens
    ):
        """Sum of per-EP-rank loads == num_tokens * top_k: the gating decision
        is global, each rank only observes its slice."""
        routers = _routers(num_experts, local, top_k, seed=seed, imbalance=imbalance)
        total = sum(sum(router.route(tokens)) for router in routers)
        assert total == tokens * top_k

    @pytest.mark.parametrize("imbalance", [0.0, 0.5])
    def test_determinism_under_fixed_seed(self, imbalance):
        def sequence():
            router = ExpertRouter(
                num_experts=8, num_local_experts=2, top_k=2,
                seed=13, imbalance=imbalance, ep_rank=1,
            )
            return [router.route(500, layer=layer, microbatch=mb)
                    for layer, mb in itertools.product(range(3), range(4))]

        assert sequence() == sequence()

    def test_different_ep_ranks_slice_one_global_draw(self):
        reference = ExpertRouter(
            num_experts=8, num_local_experts=2, top_k=2, seed=3, imbalance=0.8
        )
        global_draw = reference.route_global(1024)
        for ep_rank, router in enumerate(_routers(8, 2, 2, seed=3, imbalance=0.8)):
            assert router.route(1024) == global_draw[ep_rank * 2 : (ep_rank + 1) * 2]

    @pytest.mark.parametrize("tokens", [4, 64, 512])
    def test_uniform_split_when_imbalance_zero(self, tokens):
        """imbalance == 0 with a divisible total gives every expert -- and
        therefore every EP rank -- exactly the same load, for any seed."""
        for seed in (0, 1, 99):
            routers = _routers(8, 2, 2, seed=seed, imbalance=0.0)
            for router in routers:
                assert router.route(tokens) == [tokens * 2 // 8] * 2

    def test_balanced_split_properties(self):
        for total, bins in [(0, 3), (7, 3), (8, 8), (1000, 7), (5, 8)]:
            split = balanced_split(total, bins)
            assert sum(split) == total
            assert max(split) - min(split) <= 1
        with pytest.raises(ValueError, match="bins"):
            balanced_split(4, 0)

    def test_zero_tokens_and_validation(self):
        router = ExpertRouter(num_experts=8, num_local_experts=2, top_k=2, ep_rank=3)
        assert router.route(0) == [0, 0]
        with pytest.raises(ValueError, match="ep_rank"):
            ExpertRouter(num_experts=8, num_local_experts=2, top_k=2, ep_rank=4)
        with pytest.raises(ValueError, match="ep_rank"):
            ExpertRouter(num_experts=8, num_local_experts=2, top_k=2, ep_rank=-1)

    def test_imbalance_skews_ep_ranks_apart(self):
        """With a skewed router, EP ranks receive measurably different loads."""
        routers = _routers(8, 2, 2, seed=7, imbalance=0.9)
        loads = [sum(router.route(4096)) for router in routers]
        assert len(set(loads)) > 1


# ---------------------------------------------------------------------- #
# Execution-keyed gating draws (the call-order regression)
# ---------------------------------------------------------------------- #
class TestExecutionKeyedDraws:
    """The gating decision of one (layer, microbatch) execution must not
    depend on the order a rank's schedule visits executions.

    The router used to draw from one sequential RNG stream, so two ranks
    walking their 1F1B schedules in different orders (warm-up depth varies by
    pipeline stage) would hand the *same* layer execution *different* global
    draws -- breaking token conservation and giving the dispatch/combine
    transients inconsistent sizes across the EP group.
    """

    EXECUTIONS = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]

    def _draws(self, order):
        router = ExpertRouter(
            num_experts=8, num_local_experts=8, top_k=2, seed=11, imbalance=0.7
        )
        return {
            (layer, mb): router.route(512, layer=layer, microbatch=mb)
            for layer, mb in order
        }

    def test_draws_are_call_order_independent(self):
        forward_order = self._draws(self.EXECUTIONS)
        reversed_order = self._draws(list(reversed(self.EXECUTIONS)))
        assert forward_order == reversed_order

    def test_repeated_queries_memoised_within_one_iteration(self):
        """Asking for one execution twice (forward + recomputed backward, or
        dispatch + combine sizing) returns the identical counts."""
        router = ExpertRouter(
            num_experts=8, num_local_experts=2, top_k=2, seed=5, imbalance=0.7, ep_rank=1
        )
        first = router.route(512, layer=3, microbatch=1)
        assert router.route(512, layer=3, microbatch=1) == first
        assert router.route_global(512, layer=3, microbatch=1)[2:4] == first

    def test_distinct_executions_get_distinct_draws(self):
        router = ExpertRouter(
            num_experts=8, num_local_experts=8, top_k=2, seed=11, imbalance=0.7
        )
        draws = {
            (layer, mb): tuple(router.route(512, layer=layer, microbatch=mb))
            for layer, mb in self.EXECUTIONS
        }
        assert len(set(draws.values())) > 1

    def test_rejects_negative_execution_keys(self):
        router = ExpertRouter(num_experts=8, num_local_experts=2, top_k=2, imbalance=0.5)
        with pytest.raises(ValueError, match="layer and microbatch"):
            router.route(512, layer=-1)
        with pytest.raises(ValueError, match="layer and microbatch"):
            router.route(512, microbatch=-2)

    def test_trace_dispatch_sizes_consistent_across_pipeline_schedules(self):
        """Cache-collision regression at the trace level: the two pipeline
        stages execute their micro-batches in different 1F1B orders, yet the
        EP group of *each* stage must agree on every execution's dispatch
        sizes (slices of one global draw, summing to the routed load)."""
        config = _moe_config(imbalance=0.8, pipeline=2, expert=4).with_(
            moe_comm_factor=1.0
        )
        per_token = config.model.hidden_size * 2
        routed = config.micro_batch_size * config.model.seq_length * config.model.moe_top_k
        for pp_rank in range(2):
            recv_sizes = []
            for ep_rank in range(4):
                trace = TraceGenerator(
                    config, seed=2, rank=pp_rank, ep_rank=ep_rank
                ).generate()
                recv_sizes.append(
                    {
                        (e.phase.microbatch, e.module): e.size
                        for e in events_of(trace)
                        if e.is_alloc() and e.tag == "a2a_dispatch_recv"
                    }
                )
            executions = set().union(*(set(sizes) for sizes in recv_sizes))
            assert executions
            for execution in executions:
                total = sum(sizes.get(execution, 0) for sizes in recv_sizes)
                assert total == routed * per_token, (pp_rank, execution)


# ---------------------------------------------------------------------- #
# Rank coordinate helpers
# ---------------------------------------------------------------------- #
class TestRankCoords:
    def test_normalize_rank(self):
        assert normalize_rank(3) == (3, 0)
        assert normalize_rank((2, 1)) == (2, 1)
        assert normalize_rank([2, 1]) == (2, 1)
        for bad in (True, (1,), (1, 2, 3), "2.1", (1.5, 0)):
            with pytest.raises(ValueError):
                normalize_rank(bad)

    def test_rank_label(self):
        assert rank_label(3) == "3"
        assert rank_label((2, 1)) == "2.1"

    def test_ranks_label_rendering(self):
        assert _ranks_label((0, 1, 2, 3)) == "0-3"
        assert _ranks_label(((0, 0), (0, 1), (1, 0), (1, 1))) == "0-1xep0-1"
        assert _ranks_label(((0, 0), (1, 1))) == "0.0,1.1"


# ---------------------------------------------------------------------- #
# Equivalence classes over the (pp, ep) grid
# ---------------------------------------------------------------------- #
class TestExpertEquivalenceClasses:
    @pytest.mark.parametrize("pipeline,expert,m", [(2, 4, 2), (4, 2, 8), (3, 3, 1)])
    def test_classes_partition_full_grid_exactly_once(self, pipeline, expert, m):
        par = ParallelismConfig(
            pipeline_parallel=pipeline, data_parallel=expert, expert_parallel=expert
        )
        classes = par.rank_equivalence_classes(m, expert_asymmetry=True)
        flattened = [coord for cls in classes for coord in cls]
        grid = [(pp, ep) for pp in range(pipeline) for ep in range(expert)]
        assert sorted(flattened) == grid  # every coordinate exactly once
        assert len(flattened) == len(set(flattened))

    def test_without_asymmetry_classes_stay_pipeline_ints(self):
        par = ParallelismConfig(pipeline_parallel=4, expert_parallel=4)
        classes = par.rank_equivalence_classes(2)
        assert all(isinstance(rank, int) for cls in classes for rank in cls)
        assert sorted(rank for cls in classes for rank in cls) == list(range(4))

    def test_ep_ranks_never_share_a_class_under_asymmetry(self):
        par = ParallelismConfig(pipeline_parallel=2, expert_parallel=4)
        for cls in par.rank_equivalence_classes(4, expert_asymmetry=True):
            eps = [ep for _, ep in cls]
            assert len(eps) == len(set(eps))

    def test_memory_key_validates_ep_rank(self):
        par = ParallelismConfig(pipeline_parallel=2, expert_parallel=2)
        with pytest.raises(ValueError, match="ep_rank"):
            par.rank_memory_key(0, 4, ep_rank=2, expert_asymmetry=True)

    def test_class_members_generate_identical_event_streams(self):
        """Soundness: coordinates sharing a class emit byte-identical traces,
        coordinates in different classes do not (with a skewed router)."""
        config = _moe_config(imbalance=0.7, pipeline=2, expert=2, num_microbatches=2)

        def signature(coord):
            pp, ep = coord
            trace = TraceGenerator(config, seed=0, rank=pp, ep_rank=ep).generate()
            return tuple((e.kind, e.req_id, e.size, e.tag) for e in events_of(trace))

        classes = config.parallelism.rank_equivalence_classes(
            config.num_microbatches, expert_asymmetry=True
        )
        representatives = {}
        for cls in classes:
            signatures = {signature(coord) for coord in cls}
            assert len(signatures) == 1, f"class {cls} not memory-equivalent"
            representatives[cls[0]] = signatures.pop()
        assert len(set(representatives.values())) == len(representatives)


# ---------------------------------------------------------------------- #
# Differential: imbalance == 0 vs the symmetric (EP-collapsed) baseline
# ---------------------------------------------------------------------- #
class TestDifferentialAgainstBaseline:
    def test_imbalance_zero_ep_ranks_match_baseline_peaks(self):
        """Every explicitly-simulated EP coordinate of an imbalance-0 job
        reports exactly the peak of the collapsed (ep_rank 0) baseline."""
        config = _moe_config(imbalance=0.0)
        assert not config.expert_asymmetry
        baseline = {
            pp: run_workload(config, "torch2.3", rank=pp).peak_allocated_gib
            for pp in range(2)
        }
        for pp in range(2):
            for ep in range(4):
                explicit = run_workload(config, "torch2.3", rank=pp, ep_rank=ep)
                assert explicit.peak_allocated_gib == baseline[pp], (
                    f"coordinate ({pp}, {ep}) diverged from the EP-collapsed baseline"
                )

    def test_imbalance_zero_job_collapses_to_pipeline_classes(self):
        config = _moe_config(imbalance=0.0)
        job = run_job(config, "torch2.3", ranks="all")
        assert job.num_ranks == 2  # pipeline ranks only: EP peers collapsed
        assert all(isinstance(rank, int) for rank in job.runs_by_rank())

    def test_resolve_job_ranks_expands_coordinates(self):
        config = _moe_config(imbalance=0.6)
        classes = resolve_job_ranks(config, "all")
        flattened = sorted(coord for cls in classes for coord in cls)
        assert flattened == [(pp, ep) for pp in range(2) for ep in range(4)]
        # An int entry selects every EP coordinate of that stage.
        stage0 = resolve_job_ranks(config, [0])
        assert sorted(c for cls in stage0 for c in cls) == [(0, ep) for ep in range(4)]
        # An explicit pair selects one coordinate.
        assert resolve_job_ranks(config, [(1, 2)]) == [((1, 2),)]
        with pytest.raises(ValueError, match="ep_rank"):
            resolve_job_ranks(config, [(0, 4)])

    def test_dedup_matches_exhaustive_coordinates(self):
        """Job aggregates over deduplicated classes equal an exhaustive
        per-coordinate simulation."""
        config = _moe_config(imbalance=0.6)
        job = run_job(config, "torch2.3", ranks="all")
        peaks = {}
        for pp in range(2):
            for ep in range(4):
                run = run_workload(config, "torch2.3", rank=pp, ep_rank=ep)
                peaks[(pp, ep)] = run.peak_allocated_gib
        assert job.peak_allocated_gib == pytest.approx(max(peaks.values()))
        assert job.mean_peak_allocated_gib == pytest.approx(
            sum(peaks.values()) / len(peaks)
        )
        assert job.binding_rank == max(peaks, key=peaks.get)


# ---------------------------------------------------------------------- #
# Acceptance: EP=4 asymmetric job + cache-key identity
# ---------------------------------------------------------------------- #
class TestAcceptance:
    def test_ep4_job_reports_distinct_per_rank_peaks_and_binding_rank(self):
        job = run_job(_moe_config(imbalance=0.6), "torch2.3", ranks="all")
        per_rank = {rank: run.peak_allocated_gib for rank, run in job.runs_by_rank().items()}
        assert set(per_rank) == {(pp, ep) for pp in range(2) for ep in range(4)}
        assert len(set(per_rank.values())) > 1, "EP ranks reported identical peaks"
        assert job.binding_rank == max(per_rank, key=per_rank.get)

    def test_fingerprint_distinguishes_ep_ranks(self):
        config = _moe_config()
        prints = {
            config_fingerprint(config, seed=0, rank=pp, ep_rank=ep)
            for pp in range(2)
            for ep in range(4)
        }
        assert len(prints) == 8

    def test_trace_cache_never_collides_across_ep_ranks(self, tmp_path):
        """Regression: a trace cached for (0, 0) must not satisfy (0, 1)."""
        config = _moe_config(imbalance=0.6)
        cache = SweepCache(tmp_path)
        traces = {
            ep: cache.get_trace(config, rank=0, ep_rank=ep) for ep in range(4)
        }
        assert cache.stats.trace_misses == 4 and cache.stats.trace_hits == 0
        digests = {trace.digest() for trace in traces.values()}
        assert len(digests) == 4
        for ep, trace in traces.items():
            assert trace.metadata.ep_rank == ep
            path = cache.trace_path(config_fingerprint(config, rank=0, ep_rank=ep))
            assert path.exists()
        # Second pass: all hits, byte-identical content.
        for ep in range(4):
            assert cache.get_trace(config, rank=0, ep_rank=ep).digest() == traces[ep].digest()
        assert cache.stats.trace_hits == 4

    def test_plan_cache_keys_differ_across_ep_ranks(self, tmp_path):
        """STAlloc plans hash the trace bytes, which embed the EP coordinate."""
        config = _moe_config(imbalance=0.6)
        cache = SweepCache(tmp_path)
        from repro.core.stalloc import STAllocConfig

        keys = set()
        for ep in range(2):
            trace = cache.get_trace(config, rank=0, ep_rank=ep)
            keys.add(cache.plan_key(trace, STAllocConfig()))
        assert len(keys) == 2

    def test_result_cache_key_includes_ep_identity(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec_data = {
            "name": "ep",
            "model": "moe-tiny",
            "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
            "base": {"num_microbatches": 2},
            "grid": {"moe_imbalance": [0.6]},
            "allocators": ["torch2.3"],
            "ranks": "all",
        }
        full = SweepSpec.from_dict(spec_data).expand()[0]
        single = SweepSpec.from_dict(dict(spec_data, ranks=[[0, 0]])).expand()[0]
        stage = SweepSpec.from_dict(dict(spec_data, ranks=[0])).expand()[0]
        keys = {point_result_key(cache, p) for p in (full, single, stage)}
        assert len(keys) == 3

    def test_run_workload_replays_the_requested_coordinate(self):
        config = _moe_config(imbalance=0.6)
        ctx = ExecutionContext()
        run = run_workload(config, "torch2.3", rank=(1, 2), ctx=ctx)
        device = Device(name="A800-80GB", capacity=80 * GIB, reserved_overhead=0)
        trace = ctx.trace(config, rank=1, ep_rank=2)
        assert run == replay_trace(trace, create_allocator("torch2.3", device))
        other = ctx.trace(config, rank=1, ep_rank=0)
        assert run != replay_trace(other, create_allocator("torch2.3", device))


# ---------------------------------------------------------------------- #
# Heterogeneous per-rank device budgets
# ---------------------------------------------------------------------- #
class TestHeterogeneousBudgets:
    def test_binding_rank_differs_from_peak_rank(self):
        """A smaller budget on a lighter rank makes it bind the job even
        though another rank holds the absolute peak."""
        config = _moe_config(imbalance=0.6)
        probe = run_job(config, "native", ranks="all")
        peak_rank = probe.binding_rank
        per_rank = probe.runs_by_rank()
        # Pick the lightest rank and give it a budget tight enough that its
        # utilization exceeds the peak rank's.
        light_rank = min(per_rank, key=lambda r: per_rank[r].peak_allocated_gib)
        light_peak = per_rank[light_rank].peak_allocated_gib
        budgets = {rank_label(light_rank): light_peak * 1.01}
        job = run_job(
            config, "native", ranks="all", device_memory_by_rank=budgets
        )
        assert job.heterogeneous_budgets
        assert job.binding_rank == light_rank != peak_rank
        assert job.peak_allocated_gib == pytest.approx(probe.peak_allocated_gib)
        assert job.binding_utilization == pytest.approx(1 / 1.01, rel=1e-3)

    def test_budget_splits_equivalence_classes(self):
        """A stage-level budget on one member of a collapsed class forces the
        class apart so each rank replays against its own device."""
        config = _moe_config(imbalance=0.0, pipeline=4, num_microbatches=2)
        # m=2 collapses the middle stages 1 and 2 into one class.
        assert resolve_job_ranks(config, "all") == [(0,), (1, 2), (3,)]
        job = run_job(
            config, "native", ranks="all", device_memory_by_rank={"1": 40.0}
        )
        assert (1,) in job.rank_classes and (2,) in job.rank_classes
        capacities = dict(zip(job.rank_classes, job.class_capacities))
        assert capacities[(1,)] == 40.0
        assert capacities[(2,)] == 80  # the A800 default

    @pytest.mark.parametrize(
        "key, classes",
        [
            (2, [(0,), (2,), (1,), (3,)]),
            ("2", [(0,), (2,), (1,), (3,)]),
            (
                "2.1",
                [
                    ((0, 0), (0, 1), (0, 2), (0, 3)),
                    ((2, 1),),
                    ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 2), (2, 3)),
                    ((3, 0), (3, 1), (3, 2), (3, 3)),
                ],
            ),
            (
                (2, 1),
                [
                    ((0, 0), (0, 1), (0, 2), (0, 3)),
                    ((2, 1),),
                    ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 2), (2, 3)),
                    ((3, 0), (3, 1), (3, 2), (3, 3)),
                ],
            ),
        ],
    )
    def test_every_budget_key_form_splits_the_same_classes(self, key, classes):
        """A stage key (``2``/``"2"``) splits stage 2 off its collapsed class;
        a coordinate key (``"2.1"``/``(2, 1)``) exposes the coordinates and
        splits (2, 1) alone.  Pinned from the release before points became
        the one job description."""
        config = _moe_config(imbalance=0.0, pipeline=4, num_microbatches=2)
        job = run_job(config, "native", ranks="all", device_memory_by_rank={key: 40})
        assert job.rank_classes == classes
        assert job.class_capacities == [80, 40.0, 80, 80]
        assert job.binding_rank == classes[1][0]

    def test_tight_budget_ooms_only_that_rank(self):
        config = _moe_config(imbalance=0.6)
        probe = run_job(config, "native", ranks="all")
        target = probe.binding_rank
        tight = probe.peak_allocated_gib * 0.5
        job = run_job(
            config,
            "native",
            ranks="all",
            device_memory_by_rank={rank_label(target): tight},
        )
        assert not job.success
        assert job.oom_ranks == [target]

    def test_exact_coordinate_budget_overrides_stage_budget(self):
        config = _moe_config(imbalance=0.6)
        job = run_job(
            config,
            "native",
            ranks="all",
            device_memory_by_rank={"0": 60.0, "0.2": 30.0},
        )
        capacities = {
            rank: capacity
            for cls, capacity in zip(job.rank_classes, job.class_capacities)
            for rank in cls
        }
        assert capacities[(0, 2)] == 30.0
        assert capacities[(0, 1)] == 60.0
        assert capacities[(1, 0)] == 80

    def test_invalid_budgets_rejected(self):
        config = _moe_config()
        with pytest.raises(ValueError, match="positive GiB value"):
            run_job(config, "native", ranks="all", device_memory_by_rank={"0": 0})
        with pytest.raises(ValueError, match="out of range"):
            run_job(config, "native", ranks="all", device_memory_by_rank={"9": 40})
        with pytest.raises(ValueError, match="ep_rank"):
            run_job(config, "native", ranks="all", device_memory_by_rank={"0.9": 40})
        with pytest.raises(ValueError, match="not a rank"):
            run_job(config, "native", ranks="all", device_memory_by_rank={"a.b": 40})

    def test_coordinate_budget_applies_to_symmetric_job(self):
        """Regression: a '0.1' budget on an imbalance-0 (EP-collapsed) job
        must still address coordinate (0, 1) -- the classes expand to the
        coordinate grid so the budget splits them instead of vanishing."""
        config = _moe_config(imbalance=0.0)
        probe = run_job(config, "native", ranks="all")
        tight = probe.runs_by_rank()[0].peak_allocated_gib * 0.5
        job = run_job(
            config, "native", ranks="all", device_memory_by_rank={"0.1": tight}
        )
        assert job.num_ranks == 8  # coordinates materialised
        assert not job.success
        assert job.oom_ranks == [(0, 1)]
        capacities = {
            rank: capacity
            for cls, capacity in zip(job.rank_classes, job.class_capacities)
            for rank in cls
        }
        assert capacities[(0, 1)] == tight
        assert capacities[(0, 0)] == 80
        # On a dense/EP=1 job the same key is a hard error, not a no-op.
        with pytest.raises(ValueError, match="ep_rank"):
            run_job(
                _moe_config(expert=1, imbalance=0.0),
                "native",
                ranks="all",
                device_memory_by_rank={"0.1": 40},
            )

    def test_out_of_range_ep_rejected_even_when_symmetric(self):
        """Regression: a typo'd ep in a ranks list must fail regardless of
        whether the router is currently skewed."""
        for imbalance in (0.0, 0.6):
            config = _moe_config(imbalance=imbalance)
            with pytest.raises(ValueError, match="ep_rank"):
                resolve_job_ranks(config, [(0, 99)])
            spec = SweepSpec.from_dict(
                {
                    "name": "bad-ep",
                    "model": "moe-tiny",
                    "parallelism": {
                        "pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4,
                    },
                    "base": {"num_microbatches": 2, "moe_imbalance": imbalance},
                    "allocators": ["torch2.3"],
                    "ranks": [[0, 99]],
                }
            )
            with pytest.raises(ValueError, match="ep_rank"):
                spec.expand()


# ---------------------------------------------------------------------- #
# EP-aware sweeps
# ---------------------------------------------------------------------- #
class TestExpertSweeps:
    def _spec(self, **overrides) -> SweepSpec:
        data = {
            "name": "ep-test",
            "model": "moe-tiny",
            "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
            "base": {"num_microbatches": 2, "micro_batch_size": 1},
            "grid": {"moe_imbalance": [0.0, 0.6]},
            "allocators": ["torch2.3"],
            "ranks": "all",
        }
        data.update(overrides)
        return SweepSpec.from_dict(data)

    def test_rows_report_coordinate_grid_and_binding(self, tmp_path):
        result = run_sweep(self._spec(), jobs=1, cache_dir=tmp_path / "cache")
        by_config = {row["config"]: row for row in result.rows}
        balanced = by_config["imb=0.0"]
        skewed = by_config["imb=0.6"]
        assert balanced["ranks"] == "0-1"  # collapsed: pipeline ranks only
        assert balanced["num_ranks"] == 2
        assert skewed["ranks"] == "0-1xep0-3"
        assert skewed["num_ranks"] == 8
        assert skewed["unique_ranks"] == 8
        assert "." in str(skewed["binding_rank"])

    def test_spec_validates_coordinate_ranks_and_budgets(self):
        assert self._spec(ranks=[[0, 1], 1]).expand()
        with pytest.raises(ValueError, match="ranks"):
            self._spec(ranks=[[0, 1, 2]])
        with pytest.raises(ValueError, match="ep_rank"):
            self._spec(ranks=[[0, 7]]).expand()
        with pytest.raises(ValueError, match="device_memory_by_rank"):
            self._spec(device_memory_by_rank={"x": 40})
        with pytest.raises(ValueError, match="device_memory_by_rank"):
            self._spec(device_memory_by_rank={"0": -1})
        spec = self._spec(device_memory_by_rank={"0.1": 40, 1: 96})
        point = spec.expand()[0]
        assert point.device_memory_by_rank == (("0.1", 40.0), ("1", 96.0))

    def test_budgets_are_part_of_result_cache_key(self, tmp_path):
        cache = SweepCache(tmp_path)
        plain = self._spec().expand()[0]
        budgeted = self._spec(device_memory_by_rank={"0": 40}).expand()[0]
        assert point_result_key(cache, plain) != point_result_key(cache, budgeted)

    def test_warm_rerun_identical_with_coordinates(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_sweep(self._spec(), jobs=1, cache_dir=cache_dir)
        warm = run_sweep(self._spec(), jobs=1, cache_dir=cache_dir)
        assert warm.num_cached == warm.num_points == cold.num_points
        strip = lambda rows: [  # noqa: E731
            {k: v for k, v in row.items() if k not in ("elapsed_seconds", "cached")}
            for row in rows
        ]
        assert strip(warm.rows) == strip(cold.rows)

    def test_parallel_matches_serial(self, tmp_path):
        spec = self._spec(allocators=["torch2.0", "torch2.3"])
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        strip = lambda rows: [  # noqa: E731
            {k: v for k, v in row.items() if k not in ("elapsed_seconds", "cached")}
            for row in rows
        ]
        assert strip(serial.rows) == strip(parallel.rows)

    def test_ep_smoke_preset_loads_and_runs(self, tmp_path):
        spec = load_spec("ep-smoke")
        assert spec.ranks == "all"
        result = run_sweep(spec, jobs=1, cache_dir=tmp_path / "cache")
        assert result.num_points == 4
        skewed_rows = [row for row in result.rows if row["config"] == "imb=0.6"]
        assert skewed_rows and all(row["num_ranks"] == 8 for row in skewed_rows)
        assert all(row["status"] == "ok" for row in result.rows)
