"""Tests for STAlloc's plan synthesis: grouping, fusion, layering, global planning."""

from __future__ import annotations

import random
from operator import add
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_space import locate_dynamic_reusable_spaces
from repro.core import homophase
from repro.core.columns import HomoLayerGroup
from repro.core.events import EventKind, PhaseKind
from repro.core.homophase import (
    attempt_fusion,
    build_homophase_groups,
    fuse_adjacent_groups,
    fuse_plans_by_repack,
    weighted_average_tmp,
)
from repro.core.config import STAllocConfig
from repro.core.homosize import MemoryLayer, construct_memory_layers, group_by_size
from repro.core.intervals import IntervalSet
from repro.core.plan import StaticAllocationPlan
from repro.core.planner import build_global_plan, plan_summary
from repro.core.profiler import AllocationProfiler
from repro.core.synthesizer import PlanSynthesizer
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.conftest import decide, decisions_of, make_phase, make_request, pack, plan_of
from tests.test_placement_digests import _golden_trace
from tests.test_plan_invariants import (
    assert_no_spatio_temporal_overlap,
    object_homolayer_groups,
    object_reusable_spaces,
    object_temporal_range,
)
from tests.test_planner_columns import peak_demand
from tests.trace_oracle import TraceEvent, make_trace, profile_of, requests_of


def _num_static(profile) -> int:
    return len(profile.columns.dyn) - sum(profile.columns.dyn)


class TestPackRequests:
    def test_overlapping_requests_are_stacked(self):
        requests = [make_request(i, 100, 0, 10) for i in range(3)]
        plan = pack(requests)
        assert plan.size == 300
        plan.validate()

    def test_sequential_requests_share_space(self):
        requests = [
            make_request(0, 100, 0, 5),
            make_request(1, 100, 5, 10),
            make_request(2, 100, 10, 15),
        ]
        plan = pack(requests)
        assert plan.size == 100
        plan.validate()

    def test_mixed_lifespans(self):
        requests = [
            make_request(0, 100, 0, 20),   # long lived
            make_request(1, 50, 0, 5),     # short
            make_request(2, 50, 6, 12),    # reuses request 1's space
        ]
        plan = pack(requests)
        assert plan.size == 150
        plan.validate()

    def test_empty_plan(self):
        plan = pack([])
        assert plan.size == 0
        assert plan.time_memory_product() == 1.0

    def test_tmp_perfect_for_single_request(self):
        plan = pack([make_request(0, 128, 0, 10)])
        assert plan.time_memory_product() == pytest.approx(1.0)

    def test_tmp_reflects_bubbles(self):
        # Two requests that overlap for only part of their lifespans.
        plan = pack([make_request(0, 100, 0, 10), make_request(1, 100, 8, 20)])
        assert plan.time_memory_product() < 1.0


class TestHomoPhaseGrouping:
    def test_groups_keyed_by_phase_pair(self):
        f0, b0 = make_phase(1, PhaseKind.FORWARD, 0), make_phase(2, PhaseKind.BACKWARD, 0)
        f1, b1 = make_phase(3, PhaseKind.FORWARD, 1), make_phase(4, PhaseKind.BACKWARD, 1)
        requests = [
            make_request(0, 10, 0, 100, alloc_phase=f0, free_phase=b0),
            make_request(1, 10, 1, 101, alloc_phase=f0, free_phase=b0),
            make_request(2, 10, 50, 150, alloc_phase=f1, free_phase=b1),
        ]
        groups = build_homophase_groups(profile_of(requests).columns)
        assert len(groups) == 2
        assert {group.num_requests for group in groups} == {1, 2}

    def test_group_plans_are_conflict_free(self, dense_trace):
        profile = AllocationProfiler().profile(dense_trace)
        groups = build_homophase_groups(profile.columns)
        for group in groups:
            group.validate()
        assert sum(group.num_requests for group in groups) == _num_static(profile)


class TestFusion:
    def _adjacent_plans(self):
        f0 = make_phase(1, PhaseKind.FORWARD, 0)
        b0 = make_phase(2, PhaseKind.BACKWARD, 0)
        scoped = pack(
            [make_request(0, 100, 0, 100, alloc_phase=f0, free_phase=b0),
             make_request(1, 100, 1, 101, alloc_phase=f0, free_phase=b0)],
            phase_span=(f0.index, b0.index),
        )
        transient = pack(
            [make_request(2, 80, 110, 120, alloc_phase=b0, free_phase=b0),
             make_request(3, 80, 121, 130, alloc_phase=b0, free_phase=b0)],
            phase_span=(b0.index, b0.index),
        )
        return scoped, transient

    def test_fusion_by_repack_keeps_all_requests(self):
        a, b = self._adjacent_plans()
        fused = fuse_plans_by_repack(a, b)
        assert fused.num_requests == a.num_requests + b.num_requests
        fused.validate()

    def test_fusion_reuses_space_across_phase_boundary(self):
        a, b = self._adjacent_plans()
        fused = fuse_plans_by_repack(a, b)
        # The transient requests run after the scoped ones have been freed, so
        # the fused plan should not be taller than the scoped plan alone.
        assert fused.size <= a.size

    def test_acceptance_requires_tmp_improvement(self):
        a, b = self._adjacent_plans()
        fused = attempt_fusion(a, b)
        if fused is not None:
            assert fused.time_memory_product() > weighted_average_tmp(a, b)

    def test_fuse_adjacent_groups_reduces_group_count(self):
        a, b = self._adjacent_plans()
        fused, count = fuse_adjacent_groups([a, b])
        assert count in (0, 1)
        assert len(fused) == 2 - count

    def test_fusion_disabled(self):
        a, b = self._adjacent_plans()
        fused, count = fuse_adjacent_groups([a, b], enable_fusion=False)
        assert count == 0 and len(fused) == 2

    def test_phase_span_merge(self):
        a, b = self._adjacent_plans()
        fused = fuse_plans_by_repack(a, b)
        assert fused.phase_span == (1, 2)


def _fuse_without_memo(plans):
    """The greedy loop with no memory of rejected pairs (the reference)."""
    working = list(plans)
    fused_count = 0
    progress = True
    while progress:
        progress = False
        for index, plan in enumerate(working):
            if plan is None or plan.phase_span is None:
                continue
            for other_index, other in enumerate(working):
                if other is None or other is plan or other.phase_span is None:
                    continue
                if other.phase_span[0] != plan.phase_span[1]:
                    continue
                fused = attempt_fusion(plan, other)
                if fused is None:
                    continue
                working[index] = fused
                working[other_index] = None
                fused_count += 1
                progress = True
                break
            if progress:
                break
    return [plan for plan in working if plan is not None], fused_count


#: Generation shapes (every decode step re-allocates each KV cache one token
#: larger, so fusion is attempted across many phases): the ``gen-smoke`` sweep
#: preset and the end-to-end benchmark's ``gen-decode`` workload.
GENERATION_SHAPES = {
    "gen-smoke": dict(micro_batch_size=2, num_microbatches=2, scale=0.25),
    "gen-decode": dict(micro_batch_size=4, num_microbatches=4, scale=1.0),
}


class TestFusionRemembersRejections:
    @staticmethod
    def _profile(shape: str):
        knobs = dict(GENERATION_SHAPES[shape])
        scale = knobs.pop("scale")
        config = TrainingConfig(
            model=get_model("gpt2-345m"),
            parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=2),
            workload_kind="generation",
            decode_steps=16,
            **knobs,
        )
        trace = TraceGenerator(config, seed=0, scale=scale).generate()
        return AllocationProfiler().profile(trace)

    @classmethod
    def _phase_groups(cls, shape: str):
        return build_homophase_groups(cls._profile(shape).columns)

    @pytest.mark.parametrize("shape", ["gen-smoke", "gen-decode"])
    def test_same_plans_and_one_attempt_per_pair(self, shape, monkeypatch):
        attempts = []
        keep_alive = []  # ids are only distinct while the objects live
        real_attempt = homophase.attempt_fusion

        def recording_attempt(a, b):
            attempts.append((id(a), id(b)))
            keep_alive.extend((a, b))
            return real_attempt(a, b)

        monkeypatch.setattr(homophase, "attempt_fusion", recording_attempt)
        monkeypatch.setitem(globals(), "attempt_fusion", recording_attempt)
        groups = self._phase_groups(shape)
        expected, expected_count = _fuse_without_memo(groups)
        reference_attempts = len(attempts)
        del attempts[:]
        fused, count = fuse_adjacent_groups(groups)

        assert count == expected_count
        assert [plan.rows for plan in fused] == [plan.rows for plan in expected]
        assert [plan.offsets for plan in fused] == [plan.offsets for plan in expected]
        assert [plan.phase_span for plan in fused] == [plan.phase_span for plan in expected]
        assert len(attempts) == len(set(attempts))
        if shape == "gen-decode":
            # Fusions happen here, so the scan restarts and rejected pairs
            # come up again: the reference re-packs them, the memo does not.
            assert count > 0
            assert len(attempts) < reference_attempts
        else:
            assert len(attempts) == reference_attempts

    def test_synthesizer_reports_the_reference_fusion_count(self):
        profile = self._profile("gen-decode")
        expected, expected_count = _fuse_without_memo(build_homophase_groups(profile.columns))
        info = PlanSynthesizer().synthesize(profile).synthesis_info
        assert info["num_fusions"] == expected_count
        assert info["num_groups_after_fusion"] == len(expected)


class TestMemoryLayers:
    def _plan(self, req_id, size, start, end):
        return pack([make_request(req_id, size, start, end)])

    def test_non_overlapping_plans_share_one_layer(self):
        plans = [self._plan(0, 100, 0, 10), self._plan(1, 100, 10, 20), self._plan(2, 100, 20, 30)]
        layers = construct_memory_layers(plans, 100)
        assert len(layers) == 1
        assert len(layers[0].items) == 3

    def test_overlapping_plans_need_separate_layers(self):
        plans = [self._plan(0, 100, 0, 20), self._plan(1, 100, 5, 25), self._plan(2, 100, 10, 30)]
        layers = construct_memory_layers(plans, 100)
        assert len(layers) == 3

    def test_layer_count_is_minimal(self):
        # Peak concurrency is 2, so exactly 2 layers are needed.
        plans = [
            self._plan(0, 100, 0, 10),
            self._plan(1, 100, 5, 15),
            self._plan(2, 100, 10, 20),
            self._plan(3, 100, 15, 25),
        ]
        assert len(construct_memory_layers(plans, 100)) == 2

    def test_oversized_plan_rejected(self):
        with pytest.raises(ValueError):
            construct_memory_layers([self._plan(0, 200, 0, 10)], 100)

    def test_group_by_size(self):
        plans = [self._plan(0, 100, 0, 10), self._plan(1, 100, 10, 20), self._plan(2, 50, 0, 10)]
        groups = group_by_size(plans)
        assert set(groups) == {100, 50}
        assert len(groups[100]) == 2

    def test_whole_height_query_checks_time_and_size(self):
        layer = MemoryLayer(size=100)
        layer.place(self._plan(0, 100, 0, 10))
        assert layer.find_offset(self._plan(1, 80, 10, 20)) == (20, 0)
        assert layer.find_offset(self._plan(2, 80, 5, 15)) is None
        assert layer.find_offset(self._plan(3, 200, 10, 20)) is None

    def test_sub_range_query_takes_the_tightest_idle_bytes(self):
        layer = MemoryLayer(size=100)
        layer.place(self._plan(0, 30, 0, 10), 0)
        layer.place(self._plan(1, 20, 5, 15), 50)  # idle through [5, 10): [30, 50) and [70, 100)
        probe = self._plan(2, 20, 5, 10)
        assert layer.find_offset(probe) is None
        assert layer.find_offset(probe, whole_height=False) == (0, 30)
        assert layer.find_offset(self._plan(3, 25, 5, 10), whole_height=False) == (5, 70)
        assert layer.find_offset(self._plan(4, 31, 5, 10), whole_height=False) is None
        # Only occupants that overlap the window count: [10, 15) sees occupant 1 alone.
        assert layer.find_offset(self._plan(5, 50, 10, 15), whole_height=False) == (0, 0)
        layer.place(probe, 30)
        assert layer.subrange_insertions == 2  # occupant 1 and the probe share a window
        # Later whole-height queries see the sub-range occupants as one busy window.
        assert layer.find_offset(self._plan(6, 100, 12, 20)) is None
        assert layer.find_offset(self._plan(7, 100, 15, 20)) == (0, 0)

    def test_idle_share(self):
        layer = MemoryLayer(size=100)
        layer.place(self._plan(0, 100, 0, 10))
        assert layer.idle_share(20) == 0.5
        layer.place(self._plan(1, 50, 10, 20))
        assert layer.idle_share(20) == 0.25


class TestGlobalPlanning:
    def test_decisions_cover_all_requests(self, dense_trace):
        profile = AllocationProfiler().profile(dense_trace)
        groups = build_homophase_groups(profile.columns)
        plan, layers, _ = build_global_plan(groups)
        assert len(decisions_of(plan)) == _num_static(profile)
        plan.validate()

    def test_gap_insertion_reduces_pool(self):
        # A small plan whose lifetime fits the idle window of a big layer.
        big_a = pack([make_request(0, 1000, 0, 10)])
        big_b = pack([make_request(1, 1000, 20, 30)])
        small = pack([make_request(2, 100, 12, 18)])
        with_insertion, _, _ = build_global_plan([big_a, big_b, small], STAllocConfig())
        without_insertion, _, _ = build_global_plan(
            [big_a, big_b, small], STAllocConfig(enable_gap_insertion=False)
        )
        assert with_insertion.pool_size == 1000
        assert without_insertion.pool_size == 1100

    def test_descending_order_never_worse_on_trace(self, dense_trace):
        profile = AllocationProfiler().profile(dense_trace)
        groups = build_homophase_groups(profile.columns)
        descending = build_global_plan(groups, STAllocConfig(descending_size_order=True))[0]
        ascending = build_global_plan(groups, STAllocConfig(descending_size_order=False))[0]
        assert descending.pool_size <= ascending.pool_size

    def test_plan_validation_detects_conflicts(self):
        request_a = make_request(0, 100, 0, 10)
        request_b = make_request(1, 100, 5, 15)
        plan = plan_of([decide(request_a, 0), decide(request_b, 50)])
        with pytest.raises(ValueError):
            plan.validate()

    def test_plan_validation_accepts_time_disjoint_overlap(self):
        request_a = make_request(0, 100, 0, 10)
        request_b = make_request(1, 100, 10, 20)
        plan = plan_of([decide(request_a, 0), decide(request_b, 0)])
        plan.validate()

    def test_pool_size_bounds_every_decision(self):
        request = make_request(0, 100, 0, 10)
        plan = plan_of([decide(request, 50)], pool_size=100)
        with pytest.raises(ValueError):
            plan.validate()


class TestRequestsInsertionOnArbitraryPlans:
    """The layered planner on local plans ``tracegen`` never shaped.

    ``idle_space_reused=True`` keeps the longest-lifetime-first candidate (see
    :class:`TestLongestLivedFirstCandidate`) out of the way.
    """

    SIZE_CLASSES = (64, 192, 193, 1024)

    @classmethod
    def _random_plans(cls, rng: random.Random) -> list:
        shape = rng.choice(["nested", "staggered", "disjoint", "mixed"])
        plans = []
        req_id = 0
        for index in range(rng.randint(5, 40)):
            if shape == "nested" or (shape == "mixed" and rng.random() < 0.3):
                start = index
                end = 200 - index
            elif shape == "disjoint":
                start = 10 * index
                end = start + rng.randint(1, 10)
            else:
                start = rng.randint(0, 150) if shape == "mixed" else 4 * index
                end = start + rng.randint(1, 60)
            # A plan is one request, or a few the packer stacks and reuses.
            requests = []
            for _ in range(rng.choice([1, 1, 1, 3])):
                size = rng.choice(cls.SIZE_CLASSES)
                if rng.random() < 0.15:  # outliers: sizes no other plan shares
                    size = rng.randint(1, 4096)
                inner = rng.randint(start, end - 1)
                requests.append(make_request(req_id, size, inner, rng.randint(inner + 1, end)))
                req_id += 1
            plans.append(pack(requests))
        rng.shuffle(plans)
        return plans

    @pytest.mark.parametrize("seed", range(60))
    def test_layered_plan_invariants(self, seed):
        plans = self._random_plans(random.Random(f"insertion/{seed}"))
        plan, layers, _ = build_global_plan(plans, idle_space_reused=True)
        plan.validate()
        assert_no_spatio_temporal_overlap(plan)
        assert sorted(plan.req_id) == sorted(row[1] for item in plans for row in item.rows)
        assert plan.pool_size == sum(layer.size for layer in layers)
        peak_live_bytes = peak_demand([row for item in plans for row in item.rows])
        assert peak_live_bytes <= plan.pool_size <= sum(item.size for item in plans)
        for layer in layers:
            occupants = list(zip(layer.items, layer.offsets))
            for index, (item, offset) in enumerate(occupants):
                assert 0 <= offset and offset + item.size <= layer.size
                for other, other_offset in occupants[:index]:
                    if item.start_time < other.end_time and other.start_time < item.end_time:
                        assert (
                            offset + item.size <= other_offset
                            or other_offset + other.size <= offset
                        )
            assert layer.end == max(item.end_time for item in layer.items)
        assert all(0 <= share < 1 for share in plan_summary(layers)["idle_share_per_layer"])
        again, _, _ = build_global_plan(list(plans), idle_space_reused=True)
        assert (again.req_id, again.address) == (plan.req_id, plan.address)

    @pytest.mark.parametrize("seed", range(60))
    def test_the_ablation_switch_turns_both_insertion_tests_off(self, seed):
        plans = self._random_plans(random.Random(f"insertion/{seed}"))
        plan, layers, _ = build_global_plan(plans, STAllocConfig(enable_gap_insertion=False))
        plan.validate()
        assert not any(offset for layer in layers for offset in layer.offsets)
        assert not any(layer.subrange_insertions for layer in layers)
        assert all(item.size == layer.size for layer in layers for item in layer.items)

    def test_some_seed_exercises_every_placement_kind(self):
        sub_range = whole_height = fresh = 0
        for seed in range(60):
            plans = self._random_plans(random.Random(f"insertion/{seed}"))
            _, layers, _ = build_global_plan(plans, idle_space_reused=True)
            sub_range += sum(layer.subrange_insertions for layer in layers)
            whole_height += sum(
                len(layer.items) - 1 - layer.subrange_insertions for layer in layers
            )
            fresh += len(layers)
        assert sub_range > 50 and whole_height > 50 and fresh > 50

    @pytest.mark.parametrize("count", [1, 4, 8])
    def test_short_plans_share_an_idle_tall_layer_side_by_side(self, count):
        """Prefill then concurrent KV caches: the shape of a generation trace."""
        tall = pack([make_request(0, 1600, 0, 100)])
        short = [pack([make_request(1 + i, 200, 100 + i, 500)]) for i in range(count)]
        plan, layers, _ = build_global_plan([tall, *short])
        plan.validate()
        assert [layer.size for layer in layers] == [1600]
        assert sorted(layers[0].offsets) == [0, *range(0, 200 * count, 200)]
        assert layers[0].subrange_insertions == count - 1  # the first takes the idle window
        # A ninth does not fit beside the eight: it opens a layer of its own.
        extra = pack([make_request(99, 200, 120, 400)])
        _, layers, _ = build_global_plan([tall, *short, extra])
        assert [layer.size for layer in layers] == ([1600, 200] if count == 8 else [1600])
        # Without Requests Insertion every short plan gets a layer.
        no_insertion = STAllocConfig(enable_gap_insertion=False)
        off, _, _ = build_global_plan([tall, *short], no_insertion)
        assert off.pool_size == 1600 + 200 * count

    def test_insertion_prefers_an_idle_window_to_an_idle_byte_range(self):
        tall = pack([make_request(0, 1000, 0, 10)])
        early = pack([make_request(1, 300, 0, 4)])  # opens the 300-byte layer
        long = pack([make_request(2, 250, 5, 50)])  # its only idle window: 50 bytes spare
        roomy = pack([make_request(3, 50, 20, 30)])  # the tall layer is idle: whole height wins
        snug = pack([make_request(4, 50, 6, 9)])  # both layers busy: the spare 50 bytes
        plan, layers, _ = build_global_plan([tall, early, long, roomy, snug])
        plan.validate()
        assert [layer.size for layer in layers] == [1000, 300]
        assert list(zip(layers[0].items, layers[0].offsets)) == [(tall, 0), (roomy, 0)]
        assert list(zip(layers[1].items, layers[1].offsets)) == [(early, 0), (long, 0), (snug, 250)]
        assert [layer.subrange_insertions for layer in layers] == [0, 1]


def _layered_reference(plans, config=None):
    """``build_global_plan`` as it was while the paper's order was the only candidate."""
    from repro.core.planner import _insert_into_existing_layer

    config = config or STAllocConfig()
    groups = group_by_size(plans)
    layers = []
    for size in sorted(groups, reverse=config.descending_size_order):
        pending = []
        for plan in sorted(groups[size], key=lambda p: (p.start_time, p.end_time)):
            if config.enable_gap_insertion and _insert_into_existing_layer(plan, layers):
                continue
            pending.append(plan)
        layers.extend(construct_memory_layers(pending, size))
    base = 0
    rows, addresses = [], []
    for layer in layers:
        for item, item_base in zip(layer.items, layer.offsets):
            rows += item.rows
            addresses += [base + item_base + offset for offset in item.offsets]
        base += layer.size
    return StaticAllocationPlan.from_rows(rows, addresses, pool_size=base)


def _placements(plan):
    return plan.req_id, plan.address, plan.pool_size


class TestLongestLivedFirstCandidate:
    """The second candidate: one open layer, longest-lived plans underneath."""

    SEEDS = range(60)

    @staticmethod
    def _plans(seed):
        rng = random.Random(f"insertion/{seed}")
        return TestRequestsInsertionOnArbitraryPlans._random_plans(rng)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_the_smaller_pool_wins_and_a_tie_keeps_the_layered_plan(self, seed):
        plans = self._plans(seed)
        plan, layers, layered_pool = build_global_plan(plans)
        layered = _layered_reference(plans)
        assert layered_pool == layered.pool_size
        # Plans are rectangles of bytes x time: no placement beats their peak.
        rectangles = [(item.start_time, 0, item.size, item.end_time) for item in plans]
        assert peak_demand(rectangles) <= plan.pool_size <= layered_pool
        plan.validate()
        assert_no_spatio_temporal_overlap(plan)
        assert sorted(plan.req_id) == sorted(row[1] for item in plans for row in item.rows)
        if plan.pool_size == layered_pool:
            assert _placements(plan) == _placements(layered)
        else:
            (layer,) = layers
            assert layer.size == plan.pool_size == max(map(add, plan.address, plan.size))
            assert plan_summary(layers)["num_layers"] == 1
            assert 0 <= plan_summary(layers)["idle_share_per_layer"][0] < 1
        again, _, _ = build_global_plan(list(plans))
        assert _placements(again) == _placements(plan)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "config, reused",
        [
            (STAllocConfig(), True),
            (STAllocConfig(enable_gap_insertion=False), False),
            (STAllocConfig(descending_size_order=False), False),
        ],
        ids=["dynamic-reuse", "no-gap-insertion", "ascending"],
    )
    def test_the_guard_and_each_ablation_switch_keep_the_layered_plan(
        self, seed, config, reused
    ):
        plans = self._plans(seed)
        plan, layers, layered_pool = build_global_plan(plans, config, idle_space_reused=reused)
        assert _placements(plan) == _placements(_layered_reference(plans, config))
        assert layered_pool == plan.pool_size == sum(layer.size for layer in layers)

    def test_the_seeds_reach_both_outcomes(self):
        shrunk = 0
        for seed in self.SEEDS:
            plan, _, layered_pool = build_global_plan(self._plans(seed))
            shrunk += plan.pool_size < layered_pool
        assert 10 <= shrunk <= len(self.SEEDS) - 10

    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_tall_plans_sit_on_top_of_the_long_lived_ones_alive_by_then(self, count):
        """Prefill forwards of shrinking height, each after one more KV plan was born.

        A memory-layer pins every tall plan to offset 0 and the tall plans never
        shrink by a whole KV plan, so the layered planner stacks every KV plan
        on top of the tallest one; underneath, they cost what is alive at once.
        """
        tall, small, shrink = 1600, 200, 20
        caches = [pack([make_request(i, small, 10 * i, 1000)]) for i in range(count)]
        prefills = [
            pack([make_request(100 + i, tall - shrink * i, 10 * i + 1, 10 * i + 6)])
            for i in range(count)
        ]
        plans = [*prefills, *caches]
        plan, layers, layered_pool = build_global_plan(plans)
        plan.validate()
        assert layered_pool == tall + count * small
        assert plan.pool_size == peak_demand([row for item in plans for row in item.rows])
        assert plan.pool_size == tall + small + (count - 1) * (small - shrink)
        assert sorted(layers[0].offsets[:count]) == [small * i for i in range(count)]
        # Each prefill starts where the caches alive through it end.
        by_id = dict(zip(plan.req_id, plan.address))
        assert [by_id[100 + i] for i in range(count)] == [small * (i + 1) for i in range(count)]


def _groups(requests):
    """The HomoLayer groups of a profile of request objects."""
    return profile_of(requests).dynamic_groups


def _hand_built_trace(seed: int) -> Trace:
    """A seeded stream no generator shaped, with ``dyn`` requests that are
    never freed, freed in an empty module, or allocated at a shared tick."""
    rng = random.Random(seed)
    phases = [make_phase(i, PhaseKind.FORWARD if i < 2 else PhaseKind.BACKWARD) for i in range(4)]
    modules = ["m0", "m1", "m2", "m3"]
    events, live, time = [], [], 0
    # Numbered in allocation order, as the profiler requires at a shared tick.
    for req_id in sorted(rng.sample(range(1000), rng.randrange(10, 60))):
        freeable = [i for i, (_, _, opened) in enumerate(live) if opened < time]
        if freeable and rng.random() < 0.45:
            freed, size, _ = live.pop(rng.choice(freeable))
            events.append(TraceEvent(
                EventKind.FREE, freed, size, time, rng.choice(phases), rng.choice([*modules, ""]),
            ))
        size = rng.choice([64, 128, 256])
        events.append(TraceEvent(
            EventKind.ALLOC, req_id, size, time, rng.choice(phases), rng.choice(modules),
            dyn=rng.random() < 0.6,
        ))
        live.append((req_id, size, time))
        time += rng.choice([0, 1, 1, 2])  # 0: two allocs share a tick
    spans = {module: (rng.randrange(time + 1), time + rng.randrange(4)) for module in modules[:3]}
    return make_trace(events, phases=phases, module_spans=spans)


class TestDynamicSpace:
    def _static_plan(self):
        requests = [
            make_request(0, 100, 0, 10),    # occupies [0, 100) during [0, 10)
            make_request(1, 100, 20, 30),   # occupies [100, 200) during [20, 30)
        ]
        decisions = [decide(requests[0], 0), decide(requests[1], 100)]
        return plan_of(decisions, pool_size=200)

    def test_homolayer_grouping(self):
        dynamic = [
            make_request(10, 64, 2, 5, dyn=True, alloc_module="l0", free_module="l0"),
            make_request(11, 64, 3, 6, dyn=True, alloc_module="l0", free_module="l0"),
            make_request(12, 64, 22, 25, dyn=True, alloc_module="l1", free_module="l1"),
        ]
        groups = _groups(dynamic)
        assert groups == [
            HomoLayerGroup(("l0", "l0"), array("q", [10, 11]), 2, 6),
            HomoLayerGroup(("l1", "l1"), array("q", [12]), 22, 25),
        ]

    def test_reusable_space_excludes_live_statics(self):
        dynamic = [make_request(10, 64, 2, 5, dyn=True, alloc_module="l0", free_module="l0")]
        spaces = locate_dynamic_reusable_spaces(
            _groups(dynamic), self._static_plan(), {"l0": (2, 5)}
        )
        space = spaces[("l0", "l0")]
        # Static request 0 is live during [2, 5); request 1 is not.
        assert not space.contains(50, 51)
        assert space.contains(100, 200)

    def test_reusable_space_full_when_statics_idle(self):
        dynamic = [make_request(10, 64, 12, 18, dyn=True, alloc_module="gap", free_module="gap")]
        spaces = locate_dynamic_reusable_spaces(
            _groups(dynamic), self._static_plan(), {"gap": (12, 18)}
        )
        assert spaces[("gap", "gap")] == IntervalSet.full(0, 200)

    def test_temporal_range_falls_back_to_the_members(self):
        """An unseen module leaves the members' own [2, 5) as the range; a
        profiled one widens it to its span."""
        members = [make_request(10, 64, 2, 5, dyn=True, alloc_module="x", free_module="x")]
        unseen = locate_dynamic_reusable_spaces(_groups(members), self._static_plan(), {})
        assert unseen[("x", "x")] == IntervalSet([(100, 200)])
        widened = locate_dynamic_reusable_spaces(
            _groups(members), self._static_plan(), {"x": (2, 25)}
        )
        assert widened[("x", "x")] == IntervalSet()

    def test_routing_index(self):
        dynamic = [make_request(10, 64, 2, 5, dyn=True, alloc_module="a", free_module="b")]
        plan = PlanSynthesizer().synthesize(profile_of(dynamic))
        assert plan.dynamic_request_groups == {10: ("a", "b")}

    def test_empty_dynamic_set(self):
        assert locate_dynamic_reusable_spaces([], self._static_plan(), {}) == {}

    @pytest.mark.parametrize("seed", range(30))
    def test_gap_walk_equals_complement_of_the_interval_union(self, seed):
        """Each group's space is ``[0, pool)`` minus the union of its live decisions.

        The reference is the construction the gap walk replaced: one
        ``IntervalSet.add`` per live decision, then ``complement``, over the
        request objects.  The plans are random, so decisions overlap, touch,
        repeat and run to the end of the pool.
        """
        rng = random.Random(seed)
        count = rng.randrange(1, 80)
        size = [rng.choice([64, 128, 256, 256, 512]) for _ in range(count)]
        address = [64 * rng.randrange(40) for _ in range(count)]
        alloc_time = [rng.randrange(100) for _ in range(count)]
        free_time = [t + rng.randrange(1, 40) for t in alloc_time]
        pool_size = max(a + s for a, s in zip(address, size)) + rng.choice([0, 64])
        plan = StaticAllocationPlan(
            list(range(count)), size, alloc_time, free_time, address, pool_size
        )
        spans = {f"m{i}": (10 * i, 10 * i + rng.randrange(1, 30)) for i in range(12)}
        dynamic = []
        for req_id in range(1000, 1000 + rng.randrange(1, 20)):
            start, end = rng.choice([(0, 1), (40, 45), (0, 150), (99, 140), (200, 210)])
            dynamic.append(
                make_request(
                    req_id, 64, start, end, dyn=True,
                    alloc_module=rng.choice([*spans, "unseen"]),
                    free_module=rng.choice([*spans, "unseen"]),
                )
            )
        spaces = locate_dynamic_reusable_spaces(_groups(dynamic), plan, spans)
        assert spaces == object_reusable_spaces(dynamic, plan, spans)


def _assert_groups_match_the_objects(trace: Trace) -> None:
    """Columnar groups, routing and spaces equal the object oracle over ``pair_events``."""
    requests = requests_of(trace)
    oracle = object_homolayer_groups(requests)
    groups = trace.columns.homolayer_groups(end_of_trace=trace.end_time())
    assert [group.key for group in groups] == list(oracle)
    for group in groups:
        members = oracle[group.key]
        assert group.req_ids.tolist() == [member.req_id for member in members]
        # With no module spans, the temporal range is the members' own extremes.
        assert object_temporal_range(group.key, members, {}) == (
            group.first_alloc, group.last_free
        )
    plan = PlanSynthesizer().synthesize(AllocationProfiler().profile(trace))
    assert plan.dynamic_request_groups == {r.req_id: r.layer_pair for r in requests if r.dyn}
    if groups:
        expected = object_reusable_spaces(requests, plan.static_plan, trace.module_spans)
        assert list(plan.dynamic_reusable_spaces.items()) == list(expected.items())


class TestColumnarHomoLayerGroups:
    def test_golden_moe_trace(self):
        trace = _golden_trace("moe-tiny-comm")
        assert any(trace.columns.dyn)
        _assert_groups_match_the_objects(trace)

    @pytest.mark.parametrize("seed", range(30))
    def test_hand_built_traces(self, seed):
        trace = _hand_built_trace(seed)
        requests = requests_of(trace)
        assert any(r.dyn for r in requests), "every stream has dynamic requests"
        _assert_groups_match_the_objects(trace)


class TestPlanSynthesizer:
    def test_static_plan_valid_and_complete(self, dense_trace):
        profile = AllocationProfiler().profile(dense_trace)
        plan = PlanSynthesizer().synthesize(profile)
        assert len(plan.static_plan) == _num_static(profile)
        plan.static_plan.validate()

    def test_pool_size_close_to_peak_demand(self, dense_trace):
        """The plan's reserved pool should be near the theoretical lower bound."""
        profile = AllocationProfiler().profile(dense_trace)
        plan = PlanSynthesizer().synthesize(profile)
        peak = plan.synthesis_info["peak_static_demand_bytes"]
        assert plan.pool_size >= peak
        assert plan.pool_size <= peak * 1.10  # within 10% of optimal

    def test_moe_plan_has_dynamic_spaces(self, moe_trace):
        profile = AllocationProfiler().profile(moe_trace)
        plan = PlanSynthesizer().synthesize(profile)
        assert plan.dynamic_reusable_spaces
        assert plan.dynamic_request_groups
        for space in plan.dynamic_reusable_spaces.values():
            for interval in space:
                assert 0 <= interval.start < interval.end <= plan.pool_size

    def test_dynamic_reuse_can_be_disabled(self, moe_trace):
        profile = AllocationProfiler().profile(moe_trace)
        plan = PlanSynthesizer(STAllocConfig(enable_dynamic_reuse=False)).synthesize(profile)
        assert plan.dynamic_reusable_spaces == {}

    def test_synthesis_info_populated(self, dense_trace):
        profile = AllocationProfiler().profile(dense_trace)
        plan = PlanSynthesizer().synthesize(profile)
        info = plan.synthesis_info
        assert info["num_static_requests"] == _num_static(profile)
        assert info["num_homophase_groups"] > 0
        assert "synthesis_seconds" not in info and plan.synthesis_seconds >= 0
        assert info["layers"]["num_layers"] >= 1

    def test_synthesizer_tells_the_planner_when_idle_space_is_reused(
        self, dense_trace, moe_trace, monkeypatch
    ):
        from repro.core import synthesizer
        from repro.core.stalloc import STAlloc

        seen = []

        def recording(plans, config=None, *, idle_space_reused=False):
            seen.append(idle_space_reused)
            return build_global_plan(plans, config, idle_space_reused=idle_space_reused)

        monkeypatch.setattr(synthesizer, "build_global_plan", recording)
        for trace, config in [
            (moe_trace, STAllocConfig()),
            (moe_trace, STAllocConfig(enable_dynamic_reuse=False)),
            (dense_trace, STAllocConfig()),
        ]:
            stalloc = STAlloc.from_trace(trace, config)
            info = stalloc.plan.synthesis_info
            assert info["layered_pool_bytes"] >= info["static_pool_bytes"]
            assert info["placement_order"] == (
                "lifetime" if info["static_pool_bytes"] < info["layered_pool_bytes"] else "size"
            )
            for report in (stalloc.planning_report(), stalloc.to_json_dict()["report"]):
                assert report["placement_order"] == info["placement_order"]
                assert report["layered_pool_bytes"] == info["layered_pool_bytes"]
        # Only dynamic groups that will be served from the plan hold the planner back.
        assert seen == [True, False, False]

    def test_fusion_improves_or_matches_pool_size(self, dense_trace):
        profile = AllocationProfiler().profile(dense_trace)
        fused = PlanSynthesizer(STAllocConfig(enable_fusion=True)).synthesize(profile)
        unfused = PlanSynthesizer(STAllocConfig(enable_fusion=False)).synthesize(profile)
        assert fused.pool_size <= unfused.pool_size * 1.01


# ---------------------------------------------------------------------- #
# Property-based planning tests
# ---------------------------------------------------------------------- #
@st.composite
def random_requests(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    requests = []
    for req_id in range(count):
        start = draw(st.integers(min_value=0, max_value=200))
        duration = draw(st.integers(min_value=1, max_value=100))
        size = draw(st.integers(min_value=512, max_value=1 << 20))
        phase_index = draw(st.integers(min_value=0, max_value=5))
        requests.append(
            make_request(
                req_id,
                size,
                start,
                start + duration,
                alloc_phase=make_phase(phase_index),
                free_phase=make_phase(phase_index + 1, PhaseKind.BACKWARD),
            )
        )
    return requests


class TestPlanningProperties:
    @given(random_requests())
    @settings(max_examples=50, deadline=None)
    def test_global_plan_never_stomps_memory(self, requests):
        groups = build_homophase_groups(profile_of(requests).columns)
        fused, _ = fuse_adjacent_groups(groups)
        plan, _, _ = build_global_plan(fused)
        plan.validate()  # raises on any spatio-temporal conflict
        assert len(decisions_of(plan)) == len(requests)

    @given(random_requests())
    @settings(max_examples=50, deadline=None)
    def test_pool_size_at_least_peak_demand(self, requests):
        groups = build_homophase_groups(profile_of(requests).columns)
        plan, _, _ = build_global_plan(groups)
        events = []
        for request in requests:
            events.append((request.alloc_time, request.size))
            events.append((request.free_time, -request.size))
        events.sort()
        live = peak = 0
        for _, delta in events:
            live += delta
            peak = max(peak, live)
        assert plan.pool_size >= peak

    @given(random_requests())
    @settings(max_examples=30, deadline=None)
    def test_pack_requests_is_conflict_free(self, requests):
        plan = pack(requests)
        plan.validate()
        assert plan.num_requests == len(requests)
