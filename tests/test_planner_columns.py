"""The columnar planner against the object-walking one it replaced.

Nothing here comes from ``tracegen`` except the spy tests at the end: request
rows are drawn directly, with the shapes that stress a time-ordered sweep
(equal allocation times, zero-length lifespans, all-overlapping and
all-sequential groups, frees that land exactly on the next allocation tick).

* ``reference_pack`` / ``reference_can_hold`` are the bodies ``pack_requests``
  and ``MemoryLayer``'s whole-height query (then ``can_hold``) had before plans
  became int columns (a ``live`` list rebuilt per request, extents recomputed
  by rescanning, a linear scan over the occupants); the shipped ones must agree
  with them row for row.
* The brute-force overlap checker of ``test_plan_invariants`` runs over the
  column plan the whole pipeline emits for the same rows.
* The spies pin what the rewrite was for: extents are fields fixed when a plan
  is built, fusion packs at most once per attempt and never sorts a union,
  and a ``sweep`` / ``search`` run builds no per-request object for a static
  request.
"""

from __future__ import annotations

import random

import pytest

from repro.core import homophase
from repro.core.columns import RequestColumns
from repro.core.homophase import (
    LocalPlan,
    build_homophase_groups,
    fuse_adjacent_groups,
    pack_requests,
)
from repro.core.homosize import MemoryLayer
from repro.core.intervals import IntervalSet
from repro.core.planner import build_global_plan
from repro.core.profiler import AllocationProfiler
from repro.core.synthesizer import PlanSynthesizer
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.test_plan_invariants import assert_no_spatio_temporal_overlap

SHAPES = ("random", "equal_alloc_times", "zero_length", "all_overlapping", "all_sequential", "touching")


def draw_rows(shape: str, rng: random.Random) -> list[tuple[int, int, int, int]]:
    """Sorted ``(alloc_time, req_id, size, free_time)`` rows of one group."""
    count = rng.randint(1, 60)
    rows = []
    clock = 0
    for req_id in range(count):
        size = 64 * rng.randint(1, 64)
        if shape == "random":
            alloc_time = rng.randint(0, 80)
            free_time = alloc_time + rng.randint(1, 40)
        elif shape == "equal_alloc_times":
            alloc_time = rng.choice([0, 0, 7, 7, 19])
            free_time = alloc_time + rng.randint(1, 25)
        elif shape == "zero_length":
            alloc_time = rng.randint(0, 30)
            free_time = alloc_time + rng.choice([0, 0, 1, 5])
        elif shape == "all_overlapping":
            alloc_time = req_id
            free_time = count + rng.randint(0, 10)
        elif shape == "all_sequential":
            alloc_time = clock
            clock = free_time = clock + rng.randint(1, 4)
        else:  # touching: some free exactly on the tick of a later allocation
            alloc_time = clock
            free_time = alloc_time + rng.randint(1, 6)
            clock += rng.randint(0, 3)
        rows.append((alloc_time, req_id, size, free_time))
    return sorted(rows)


def reference_pack(rows):
    """``pack_requests`` as it was: the live list rebuilt for every request."""
    free = IntervalSet()
    top = 0
    offsets = []
    live: list[tuple[int, int, int]] = []
    for alloc_time, _, size, free_time in rows:
        still_live = []
        for live_free_time, offset, live_size in live:
            if live_free_time <= alloc_time:
                free.add(offset, offset + live_size)
            else:
                still_live.append((live_free_time, offset, live_size))
        live = still_live
        offset = free.carve(size)
        if offset is None:
            offset = top
            top += size
        offsets.append(offset)
        live.append((free_time, offset, size))
    return offsets


def reference_extents(rows, offsets) -> dict:
    """The extents ``LocalPlan`` used to recompute on every read."""
    return {
        "size": max((offset + row[2] for row, offset in zip(rows, offsets)), default=0),
        "start_time": min((row[0] for row in rows), default=0),
        "end_time": max((row[3] for row in rows), default=0),
        "memory_time": sum(row[2] * (row[3] - row[0]) for row in rows),
    }


def peak_demand(rows) -> int:
    ticks = sorted([(row[3], -row[2]) for row in rows] + [(row[0], row[2]) for row in rows])
    live = peak = 0
    for _, delta in ticks:
        live += delta
        peak = max(peak, live)
    return peak


def reference_can_hold(layer_size: int, occupants, plan: LocalPlan) -> bool:
    """``MemoryLayer.can_hold`` as it was: every occupant compared."""
    if plan.size > layer_size:
        return False
    return all(
        not (plan.start_time < item.end_time and item.start_time < plan.end_time)
        for item in occupants
    )


@pytest.mark.parametrize("shape", SHAPES)
class TestPackAgainstReference:
    def test_same_offsets_and_extents(self, shape):
        for seed in range(80):
            rows = draw_rows(shape, random.Random(f"{shape}/{seed}"))
            plan = pack_requests(rows, phase_span=(0, 1))
            assert plan.rows == rows
            assert plan.offsets == reference_pack(rows), (shape, seed)
            extents = reference_extents(rows, plan.offsets)
            assert {name: getattr(plan, name) for name in extents} == extents
            assert plan.demand_floor == peak_demand(rows) <= plan.size
            if shape != "zero_length":  # an empty lifespan occupies nothing
                plan.validate()

    def test_whole_pipeline_emits_a_stomp_free_column_plan(self, shape):
        for seed in range(25):
            rng = random.Random(f"pipeline/{shape}/{seed}")
            rows = [row for row in draw_rows(shape, rng) if row[3] > row[0]]
            phases = [rng.randrange(4) for _ in rows]
            columns = RequestColumns(
                req_id=[row[1] for row in rows],
                size=[row[2] for row in rows],
                alloc_time=[row[0] for row in rows],
                free_time=[row[3] for row in rows],
                alloc_phase=phases,
                free_phase=[phase + rng.randrange(2) for phase in phases],
                dyn=[0] * len(rows),
            )
            fused, _ = fuse_adjacent_groups(build_homophase_groups(columns))
            plan, layers, _ = build_global_plan(fused)
            assert sorted(plan.req_id) == sorted(columns.req_id)
            assert plan.pool_size == sum(layer.size for layer in layers)
            assert_no_spatio_temporal_overlap(plan)
            plan.validate()


class TestCanHoldAgainstReference:
    @staticmethod
    def _window(req_id: int, size: int, start: int, end: int) -> LocalPlan:
        return LocalPlan([(start, req_id, size, end)], [0], size, start, end, size * (end - start))

    @pytest.mark.parametrize("seed", range(40))
    def test_same_answer_for_every_probe(self, seed):
        rng = random.Random(f"layer/{seed}")
        layer = MemoryLayer(size=1024)
        for req_id in range(120):
            start = rng.randint(0, 200)
            length = rng.choice([0, 0, 1, 2, 5, 20])  # zero-length windows included
            probe = self._window(req_id, rng.choice([256, 1024, 2048]), start, start + length)
            expected = reference_can_hold(layer.size, layer.items, probe)
            assert (layer.find_offset(probe) is not None) == expected, (seed, req_id)
            if expected and rng.random() < 0.6:
                layer.place(probe)
        assert len(layer.items) > 5
        assert layer._starts == sorted(layer._starts) and layer._ends == sorted(layer._ends)
        assert sorted(zip(layer._starts, layer._ends)) == sorted(
            (item.start_time, item.end_time) for item in layer.items
        )
        assert layer.end == max(item.end_time for item in layer.items)

    def test_probe_costs_one_bisect(self, monkeypatch):
        from repro.core import homosize

        layer = MemoryLayer(size=64)
        for index in range(1000):
            layer.place(self._window(index, 64, 10 * index, 10 * index + 5))
        probes = []
        real = homosize.bisect_right
        monkeypatch.setattr(
            homosize, "bisect_right", lambda *args: probes.append(args) or real(*args)
        )
        assert layer.find_offset(self._window(-1, 64, 4005, 4010)) == (0, 0)
        assert layer.find_offset(self._window(-1, 64, 4004, 4010)) is None
        assert len(probes) == 2


# ---------------------------------------------------------------------- #
# Spies: what the planner no longer does
# ---------------------------------------------------------------------- #
def _generation_profile():
    """The end-to-end benchmark's gen-decode shape: fusions are accepted."""
    config = TrainingConfig(
        model=get_model("gpt2-345m"),
        parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=2),
        workload_kind="generation",
        decode_steps=16,
        micro_batch_size=4,
        num_microbatches=4,
    )
    return AllocationProfiler().profile(TraceGenerator(config, seed=0).generate())


class TestNoRescans:
    def test_extents_are_fields_fixed_at_build_time(self):
        plan = pack_requests([(0, 1, 128, 9), (3, 2, 64, 5)])
        for name in ("size", "start_time", "end_time", "memory_time", "demand_floor"):
            assert name in vars(plan) and not isinstance(vars(LocalPlan).get(name), property)
        with pytest.raises(AttributeError):  # frozen: never mutated after packing
            plan.size = 0

    def test_one_pack_per_attempt_and_no_sort_over_a_union(self, monkeypatch):
        profile = _generation_profile()
        groups = build_homophase_groups(profile.columns)
        calls = {"attempts": 0, "packs": 0, "built": 0, "sorted": []}
        real_attempt, real_pack = homophase.attempt_fusion, homophase.pack_requests
        real_init = LocalPlan.__init__

        def counting_attempt(a, b):
            calls["attempts"] += 1
            return real_attempt(a, b)

        def counting_pack(rows, *, phase_span=None):
            calls["packs"] += 1
            return real_pack(rows, phase_span=phase_span)

        def counting_init(self, *args, **kwargs):
            calls["built"] += 1
            real_init(self, *args, **kwargs)

        def recording_sorted(iterable, **kwargs):
            items = list(iterable)
            calls["sorted"].append(len(items))
            return sorted(items, **kwargs)

        monkeypatch.setattr(homophase, "attempt_fusion", counting_attempt)
        monkeypatch.setattr(homophase, "pack_requests", counting_pack)
        monkeypatch.setattr(LocalPlan, "__init__", counting_init)
        monkeypatch.setattr(homophase, "sorted", recording_sorted, raising=False)
        fused, count = fuse_adjacent_groups(groups)

        assert count > 0 and len(fused) == len(groups) - count
        # A bound rejects some pairs unpacked; nothing is packed twice, and a
        # plan's extents are computed when it is built and at no other time.
        assert calls["built"] < calls["attempts"]
        assert calls["packs"] == calls["built"]
        assert calls["sorted"] == []  # two sorted orders are merged, never re-sorted

    def test_synthesis_reads_each_extent_from_the_plan(self, monkeypatch):
        """min()/max() calls stay proportional to the plans, not to the reads."""
        from repro.core import homosize, planner

        profile = _generation_profile()
        calls = {"min": 0, "max": 0}

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return counted

        for module in (homophase, homosize, planner):
            monkeypatch.setattr(module, "min", counting("min", min), raising=False)
            monkeypatch.setattr(module, "max", counting("max", max), raising=False)
        info = PlanSynthesizer().synthesize(profile).synthesis_info
        groups = info["num_homophase_groups"]
        assert info["num_fusions"] > 0
        # The object-walking planner made 173k max() and 85k min() calls here.
        assert calls["max"] + calls["min"] < 20 * groups
