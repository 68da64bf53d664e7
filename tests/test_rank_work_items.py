"""The unit of work is one rank's trace: fetched once, replayed by every job.

Sweeps, searches and job tables group the replays of all the points they run
under the trace each one reads, so a process holds one trace at a time and
generates each distinct trace exactly once -- with or without a disk cache --
while every row stays what the point alone would produce.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import fields, replace

import pytest

from repro.search import load_search_spec, run_search
from repro.simulator import ExecutionContext, run_job, run_jobs
from repro.simulator import replay as replay_module
from repro.search.presets import SEARCH_PRESETS
from repro.search.space import SearchSpec
from repro.simulator.ranks import job_rank_classes, resolve_job_ranks
from repro.simulator.runner import _work_items
from repro.sweep import SweepPointError, SweepSpec, load_spec, run_sweep
from repro.sweep.engine import execute_points
from repro.sweep.spec import SWEEP_PRESETS, SweepPoint
from repro.workloads.parallelism import normalize_rank
from repro.workloads.trace import Trace
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.tracegen import TraceGenerator


@pytest.fixture
def probe(monkeypatch):
    """Counts live traces at every replay and every generator call."""
    live: weakref.WeakSet = weakref.WeakSet()
    seen = {"max_live": 0, "replays": 0, "generated": 0}
    original_init = Trace.__init__
    original_replay = replay_module._replay_trace
    original_generate = TraceGenerator.generate

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        live.add(self)

    def replay(*args, **kwargs):
        seen["max_live"] = max(seen["max_live"], len(live))
        seen["replays"] += 1
        return original_replay(*args, **kwargs)

    def generate(self):
        seen["generated"] += 1
        return original_generate(self)

    monkeypatch.setattr(Trace, "__init__", init)
    monkeypatch.setattr(replay_module, "_replay_trace", replay)
    monkeypatch.setattr(TraceGenerator, "generate", generate)
    return seen


def _trace_fingerprints(points) -> set[str]:
    """Distinct traces the points read: one per rank-class representative."""
    keys = set()
    for point in points:
        budgets = dict(point.device_memory_by_rank)
        classes = job_rank_classes(point.config, point.ranks, budgets, point.device_capacity_gib)
        for members, _ in classes:
            pp, ep = normalize_rank(members[0])
            keys.add(
                config_fingerprint(
                    point.config, seed=point.seed, scale=point.scale, rank=pp, ep_rank=ep
                )
            )
    return keys


def _comparable(rows) -> str:
    return json.dumps(
        [{k: v for k, v in row.items() if k not in ("elapsed_seconds", "cached")} for row in rows],
        sort_keys=True,
    )


def _fabric_spec(**overrides) -> SweepSpec:
    """Points that differ only in fabric (and so in row label) share every trace."""
    data = {
        "name": "fabric-pair",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 2},
        "base": {"num_microbatches": 2, "micro_batch_size": 1},
        "grid": {"fabric": [None, {"gpus_per_node": 2, "inter_node_gbytes_per_sec": 25}]},
        "allocators": ["torch2.3", "stalloc"],
        "ranks": "all",
        "scale": 0.25,
    }
    data.update(overrides)
    return SweepSpec.from_dict(data)


class TestOneTraceAlive:
    @pytest.mark.parametrize("preset", ["job-smoke", "fabric-smoke"])
    def test_serial_sweep_replays_with_one_trace_alive(self, probe, preset):
        result = run_sweep(load_spec(preset), jobs=1)
        assert probe["replays"] > 0 and result.num_points > 0
        assert probe["max_live"] == 1  # the memo kept 8 (job-smoke) / 16 alive

    def test_search_replays_with_one_trace_alive(self, probe):
        result = run_search(load_search_spec("search-smoke"))
        assert probe["replays"] > 0 and result.evaluated > 0
        assert probe["max_live"] == 1

    def test_job_lineup_replays_with_one_trace_alive(self, probe, tiny_dense_config):
        jobs = [
            (name, SweepPoint.build(tiny_dense_config, name, scale=0.25))
            for name in ("torch2.3", "stalloc")
        ]
        done = {tag: job for tag, job, _ in run_jobs(jobs)}
        assert set(done) == {"torch2.3", "stalloc"}
        assert probe["max_live"] == 1
        assert probe["generated"] == len(done["stalloc"].class_runs)  # once for both


class TestEachTraceOnce:
    @pytest.mark.parametrize("cached", [False, True])
    def test_fabric_smoke_generates_each_distinct_trace_once(self, probe, tmp_path, cached):
        spec = load_spec("fabric-smoke")
        distinct = _trace_fingerprints(spec.expand())
        assert len(distinct) == 16  # 2 overlap configs x 8 (pp, ep) coordinates
        result = run_sweep(spec, jobs=1, cache_dir=tmp_path / "cache" if cached else None)
        assert probe["generated"] == len(distinct)
        if cached:
            assert result.cache_stats["trace_misses"] == len(distinct)
            assert result.cache_stats["trace_hits"] == 0

    def test_parallel_cold_sweep_reads_no_trace_back(self, tmp_path):
        spec = _fabric_spec()
        result = run_sweep(spec, jobs=2, cache_dir=tmp_path / "cache")
        assert result.cache_stats["trace_hits"] == 0
        assert result.cache_stats["trace_misses"] == len(_trace_fingerprints(spec.expand()))


class TestFewerTracesThanWorkers:
    def test_a_trace_is_split_over_the_workers_and_fetched_once(self, probe, tiny_dense_config):
        trace_args = (tiny_dense_config, 0, 0.25, 0, 0)
        requests = [((0, index), ("job", tiny_dense_config, "torch2.3", {})) for index in range(5)]
        owners, items = _work_items([(trace_args, requests)], ExecutionContext(jobs=4), None)
        assert probe["generated"] == 1
        assert [len(chunk) for chunk in owners] == [1, 1, 1, 2]
        assert [owner for chunk in owners for owner in chunk] == [owner for owner, _ in requests]
        traces = {id(trace) for _, trace, _, _ in items}
        assert len(traces) == 1 and None not in {trace for _, trace, _, _ in items}

    def test_one_trace_per_item_when_workers_are_busy(self, probe, tiny_dense_config):
        groups = [
            ((tiny_dense_config, 0, 0.25, rank, 0), [((0, rank), ("job", None, "torch2.3", {}))] * 3)
            for rank in range(2)
        ]
        owners, items = _work_items(groups, ExecutionContext(jobs=2), None)
        assert len(items) == 2 and probe["generated"] == 0
        assert all(trace is None for _, trace, _, _ in items)

    @pytest.mark.parametrize("cached", [False, True])
    def test_split_rows_match_serial(self, tmp_path, cached):
        spec = _fabric_spec(ranks=[0])  # one trace read by four points
        assert len(_trace_fingerprints(spec.expand())) == 1
        serial = run_sweep(spec, jobs=1)
        cache_dir = tmp_path / "cache" if cached else None
        parallel = run_sweep(spec, jobs=2, cache_dir=cache_dir)
        assert _comparable(parallel.rows) == _comparable(serial.rows)
        if cached:  # generated once up front, read back by both items
            assert parallel.cache_stats["trace_misses"] == 1
            assert parallel.cache_stats["trace_hits"] == 2

    def test_split_items_read_a_cached_trace_back(self, probe, tiny_dense_config, tmp_path):
        trace_args = (tiny_dense_config, 0, 0.25, 0, 0)
        requests = [((0, index), ("job", tiny_dense_config, "torch2.3", {})) for index in range(2)]
        ctx = ExecutionContext(cache_dir=tmp_path / "cache", jobs=2)
        _, items = _work_items([(trace_args, requests)], ctx, None)
        assert len(items) == 2 and all(trace is None for _, trace, _, _ in items)
        assert probe["generated"] == 1 and ctx.cache.stats.trace_misses == 1


class TestFailureAttribution:
    @staticmethod
    def _points():
        """Two points on the same traces; the second one's STAlloc knobs are bad."""
        good, bad = [point for point in _fabric_spec().expand() if point.allocator == "stalloc"]
        assert good.row_label != bad.row_label
        return [good, replace(bad, stalloc_overrides=(("no_such_knob", 1),))]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_replay_names_its_own_point(self, jobs):
        points = self._points()
        bad = points[1]

        class Spec:
            name = "one-bad-point"

            @staticmethod
            def expand():
                return points

        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(Spec(), jobs=jobs)
        assert excinfo.value.label == bad.row_label
        assert excinfo.value.fingerprint == config_fingerprint(
            bad.config, seed=bad.seed, scale=bad.scale
        )
        assert "no_such_knob" in excinfo.value.cause
        if jobs == 1:
            assert isinstance(excinfo.value.__cause__, TypeError)

    def test_run_jobs_lets_the_error_itself_through(self):
        # ``SweepPoint.build`` rejects the knob up front; a point that skips
        # it fails inside the replay, and without ``on_error`` that error
        # passes through unchanged.
        _, bad = self._points()
        with pytest.raises(TypeError, match="no_such_knob"):
            list(run_jobs([(None, bad)]))


class TestPartlyCachedGroup:
    def test_only_missing_points_recompute_and_rows_match(self, probe, tmp_path):
        points = _fabric_spec().expand()
        reference = execute_points(points)
        ctx = ExecutionContext(cache_dir=tmp_path / "cache")
        stored = points[0]
        execute_points([stored], ctx)
        probe["replays"] = 0
        rows = execute_points(points, ctx)
        assert _comparable(rows) == _comparable(reference)
        assert [row["cached"] for row in rows] == [point is stored for point in points]
        assert probe["replays"] == sum(row["unique_ranks"] for row in rows[1:])


class TestOnePointType:
    """Sweeps, searches, experiments and ``run_job`` hand ``run_jobs`` one type."""

    @staticmethod
    def _preset_points():
        """Every sweep and search preset point, with the selection it resolved."""
        for document in SWEEP_PRESETS.values():
            spec = SweepSpec.from_dict(document)
            yield from ((point, spec.ranks) for point in spec.expand())
        for document in SEARCH_PRESETS.values():
            yield from (
                (point, "all") for point in SearchSpec.from_dict(document).enumerate_candidates()
            )

    def test_point_ranks_are_the_resolved_selection(self):
        count = 0
        for point, selection in self._preset_points():
            classes = resolve_job_ranks(point.config, selection)
            assert tuple(sorted(rank for cls in classes for rank in cls)) == point.ranks
            count += 1
        assert count > 200

    def test_build_is_idempotent_on_every_preset_point(self):
        for point, _ in self._preset_points():
            values = {f.name: getattr(point, f.name) for f in fields(point)}
            assert SweepPoint.build(**values) == point

    def test_build_accepts_mappings_and_pairs(self, tiny_dense_config):
        as_dicts = SweepPoint.build(
            tiny_dense_config,
            "stalloc",
            stalloc_overrides={"enable_fusion": False, "descending_size_order": True},
            fabric={"inter_node_gbytes_per_sec": 25, "gpus_per_node": 2},
            device_memory_by_rank={3: 40, "1": 60},
        )
        as_pairs = SweepPoint.build(
            tiny_dense_config,
            "stalloc",
            stalloc_overrides=(("descending_size_order", True), ("enable_fusion", False)),
            fabric=(("gpus_per_node", 2), ("inter_node_gbytes_per_sec", 25)),
            device_memory_by_rank=(("1", 60.0), ("3", 40.0)),
        )
        assert as_dicts == as_pairs
        assert as_dicts.ranks == (0, 1, 2, 3)  # "all" by default, as run_job's
        assert as_dicts.device_memory_by_rank == (("1", 60.0), ("3", 40.0))
        assert SweepPoint.build(tiny_dense_config, "stalloc", ranks=None).ranks == (0,)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            *(
                (field, value, field)
                for field in ("fabric", "stalloc_overrides", "device_memory_by_rank")
                for value in ("fast", 5)
            ),
            ("stalloc_overrides", {"bogus": 1}, "bogus"),
            ("stalloc_overrides", {"enable_fusion": "yes"}, "enable_fusion"),
            ("allocator", "no-such", "no-such"),
            ("seed", -1, "-1"),
            ("seed", True, "True"),
            ("scale", 0, "(0, 1]"),
            ("scale", 1.5, "1.5"),
            ("device_capacity_gib", -5, "-5"),
            ("device_capacity_gib", 0, "positive GiB"),
        ],
    )
    def test_build_rejects_a_malformed_field_before_any_trace(
        self, monkeypatch, tiny_dense_config, field, value, named
    ):
        def generate(self):
            raise AssertionError("a trace was generated for an invalid point")

        monkeypatch.setattr(TraceGenerator, "generate", generate)
        allocator = value if field == "allocator" else "stalloc"
        options = {} if field == "allocator" else {field: value}
        for build in (SweepPoint.build, run_job):
            with pytest.raises(ValueError) as excinfo:
                build(tiny_dense_config, allocator, **options)
            message = str(excinfo.value)
            assert field in message and named in message and "\n" not in message

    @pytest.mark.parametrize("index", [0, 3])
    def test_job_smoke_point_matches_run_job(self, index):
        point = load_spec("job-smoke").expand()[index]
        (row,) = execute_points([point])
        job = run_job(
            point.config,
            point.allocator,
            ranks=point.ranks,
            seed=point.seed,
            scale=point.scale,
            device_name=point.device_name,
            device_capacity_gib=point.device_capacity_gib,
            device_memory_by_rank=dict(point.device_memory_by_rank),
            stalloc_overrides=dict(point.stalloc_overrides),
            fabric=dict(point.fabric),
        )
        assert row["status"] == ("ok" if job.success else "OOM")
        assert row["num_ranks"] == job.num_ranks
        assert row["unique_ranks"] == len(job.class_runs)
        assert row["binding_rank"] == job.binding_rank
        assert row["allocated_gib"] == job.peak_allocated_gib
        assert row["allocated_mean_gib"] == job.mean_peak_allocated_gib
        assert row["reserved_gib"] == job.peak_reserved_gib
        assert row["memory_efficiency_pct"] == 100 * job.binding_run.memory_efficiency
        assert row["tflops_per_gpu"] == job.timeline.tflops_per_gpu
        assert row["tokens_per_second"] == job.timeline.tokens_per_second
