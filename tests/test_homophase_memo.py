"""``build_homophase_groups`` packs each distinct group once.

A group is keyed on its sorted rows shifted to its first alloc time; a group
whose key was already packed reuses that plan's ``offsets``, ``size``,
``memory_time`` and ``demand_floor``.  These tests pin that the reuse is
invisible: every local plan equals what packing its own rows gives, field by
field, on every trace behind ``tests/test_plan_digests.py`` and on two sweep
presets; the shared ``offsets`` lists are never mutated by fusion or global
planning; and two groups whose alloc/free order differs never share.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.columns import RequestColumns
from repro.core.config import STAllocConfig
from repro.core.homophase import (
    LocalPlan,
    build_homophase_groups,
    fuse_adjacent_groups,
    pack_requests,
)
from repro.core.planner import build_global_plan
from repro.core.profiler import AllocationProfiler
from repro.search.space import SearchSpec
from repro.simulator.ranks import resolve_job_ranks
from repro.sweep.spec import SweepSpec, load_spec
from repro.workloads.parallelism import normalize_rank
from repro.workloads.tracegen import TraceGenerator
from tests.test_golden_traces import _case_configs
from tests.test_plan_digests import E2E_SHAPES, GOLDEN_CASES


def _trace_of(point, rank):
    pp, ep = normalize_rank(rank)
    return TraceGenerator(
        point.config, seed=point.seed, scale=point.scale, rank=pp, ep_rank=ep
    ).generate()


def _traces() -> dict:
    """The golden and e2e-shape traces of the plan digests, plus two presets."""
    traces = {}
    for name in GOLDEN_CASES:
        case = _case_configs()[name]
        traces[name] = TraceGenerator(
            case["config"], seed=case["seed"], rank=case["rank"], ep_rank=case["ep_rank"]
        ).generate()
    for shape, (kind, scale, document) in E2E_SHAPES.items():
        document = dict(document, seed=0, scale=scale)
        if kind == "sweep":
            points = SweepSpec.from_dict(document).expand()
        else:
            points = SearchSpec.from_dict(document).enumerate_candidates()
        for point in (points[0], points[-1]):
            rank = resolve_job_ranks(point.config, point.ranks)[-1][0]
            traces[f"{shape}/point{point.index}"] = _trace_of(point, rank)
    for preset in ("job-smoke", "gen-smoke"):
        point = load_spec(preset).expand()[0]
        for rank in (point.ranks[0], point.ranks[-1]):
            traces[f"{preset}/rank{rank}"] = _trace_of(point, rank)
    return traces


@pytest.fixture(scope="module")
def profiles() -> dict:
    return {name: AllocationProfiler().profile(trace) for name, trace in _traces().items()}


def _as_dict(plan: LocalPlan) -> dict:
    return {field.name: getattr(plan, field.name) for field in fields(LocalPlan)}


def test_every_group_equals_packing_its_own_rows(profiles):
    shared = 0
    for name, profile in profiles.items():
        plans = build_homophase_groups(profile.columns)
        for plan in plans:
            expected = pack_requests(sorted(plan.rows), phase_span=plan.phase_span)
            assert _as_dict(plan) == _as_dict(expected), (name, plan.phase_span)
        distinct = {id(plan.offsets) for plan in plans}
        shared += len(plans) - len(distinct)
    assert shared > 0  # the memo is exercised, not bypassed


def _columns(groups: dict[tuple[int, int], list[tuple[int, int]]]) -> RequestColumns:
    """Hand-built request columns: per phase pair, ``(alloc, free)`` rows sized 100, 60, 40."""
    rows = sorted(
        (alloc, size, free, phases)
        for phases, lifetimes in groups.items()
        for (alloc, free), size in zip(lifetimes, (100, 60, 40))
    )
    return RequestColumns(
        alloc_time=[row[0] for row in rows],
        req_id=list(range(len(rows))),
        size=[row[1] for row in rows],
        free_time=[row[2] for row in rows],
        alloc_phase=[row[3][0] for row in rows],
        free_phase=[row[3][1] for row in rows],
        dyn=[0] * len(rows),
    )


def _by_span(plans: list[LocalPlan]) -> dict:
    return {plan.phase_span: plan for plan in plans}


def test_groups_equal_up_to_a_time_shift_share_offsets_and_keep_their_own_rows():
    plans = _by_span(build_homophase_groups(_columns({
        (1, 2): [(0, 10), (2, 5), (6, 9)],
        (5, 6): [(100, 110), (102, 105), (106, 109)],
    })))
    first, repeat = plans[(1, 2)], plans[(5, 6)]
    assert repeat.offsets is first.offsets
    assert [row[0] for row in first.rows] == [0, 2, 6]
    assert [row[0] for row in repeat.rows] == [100, 102, 106]
    assert (first.start_time, first.end_time) == (0, 10)
    assert (repeat.start_time, repeat.end_time) == (100, 110)
    assert (repeat.size, repeat.memory_time, repeat.demand_floor) == (
        first.size, first.memory_time, first.demand_floor
    )
    assert _as_dict(repeat) == _as_dict(pack_requests(repeat.rows, phase_span=(5, 6)))


def test_groups_differing_in_the_order_of_one_free_and_one_alloc_do_not_share():
    # The second request allocates after the first frees in one group (and
    # reuses its space), before it frees in the other (and stacks on it).
    plans = _by_span(build_homophase_groups(_columns({
        (1, 2): [(0, 5), (6, 10)],
        (5, 6): [(100, 107), (106, 110)],
    })))
    reused, stacked = plans[(1, 2)], plans[(5, 6)]
    assert reused.offsets is not stacked.offsets
    assert (reused.offsets, reused.size) == ([0, 0], 100)
    assert (stacked.offsets, stacked.size) == ([0, 100], 160)


def test_fusion_and_global_planning_never_mutate_a_local_plans_offsets(profiles):
    for name, profile in profiles.items():
        plans = build_homophase_groups(profile.columns)
        before = [(plan.offsets, list(plan.offsets)) for plan in plans]
        fused, _ = fuse_adjacent_groups(plans)
        for idle_space_reused in (False, True):
            build_global_plan(fused, STAllocConfig(), idle_space_reused=idle_space_reused)
        for offsets, copy in before:
            assert offsets == copy, name
