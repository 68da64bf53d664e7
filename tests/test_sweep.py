"""Tests for the parallel sweep engine, its spec format and persistent cache."""

from __future__ import annotations

import csv
import inspect
import io
import json
import time
import tokenize
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.common import run_lineups
from repro.core.stalloc import STAllocConfig
from repro.simulator import ExecutionContext, runner
from repro.sweep import (
    SweepCache,
    SweepSpec,
    available_presets,
    load_spec,
    run_sweep,
)
from repro.sweep.compare import IDENTITY_COLUMNS, METRIC_DIRECTIONS
from repro.sweep.engine import execute_points
from repro.sweep.results import ROW_COLUMNS
from repro.sweep.spec import SWEEP_PRESETS, SweepPoint
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.tracegen import TraceGenerator


#: A small job-level spec document.
TINY_SPEC = {
    "name": "tiny",
    "model": "gpt2-345m",
    "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
    "base": {"num_microbatches": 2},
    "grid": {"micro_batch_size": [1, 2]},
    "allocators": ["torch2.3", "stalloc"],
    "scale": 0.25,
}


def _tiny_spec(**overrides) -> SweepSpec:
    return SweepSpec.from_dict({**TINY_SPEC, **overrides})


# ---------------------------------------------------------------------- #
# Spec parsing and expansion
# ---------------------------------------------------------------------- #
class TestSweepSpec:
    @pytest.mark.parametrize("preset", sorted(SWEEP_PRESETS))
    def test_presets_expand_to_declared_size(self, preset):
        spec = load_spec(preset)
        points = spec.expand()
        assert len(points) > 0
        assert [p.index for p in points] == list(range(len(points)))

    def test_quick_grid_preset_has_at_least_24_points(self):
        assert len(load_spec("quick-grid").expand()) >= 24

    def test_grid_values_reach_the_config(self):
        spec = _tiny_spec(grid={"micro_batch_size": [1, 2], "recompute": [False, True]})
        points = spec.expand()
        assert len(points) == 2 * 2 * 2
        combos = {(p.config.micro_batch_size, p.config.recompute, p.allocator) for p in points}
        assert (2, True, "stalloc") in combos and (1, False, "torch2.3") in combos

    def test_parallelism_and_model_axes(self):
        spec = _tiny_spec(
            grid={"pipeline_parallel": [2, 4], "model": ["gpt2-345m", "llama2-7b"]},
        )
        points = spec.expand()
        assert {p.config.parallelism.pipeline_parallel for p in points} == {2, 4}
        assert {p.config.model.name for p in points} == {"gpt2-345m", "llama2-7b"}
        # Swept parallelism degrees must be visible in the row label.
        assert {p.config.label for p in points} == {"pp=2", "pp=4"}

    def test_preset_axis_builds_preset_configs(self):
        spec = _tiny_spec(grid={"preset": ["Naive", "R"], "micro_batch_size": [1]})
        points = spec.expand()
        recompute = {p.config.label: p.config.recompute for p in points}
        assert recompute["R/mbs=1"] is True
        assert recompute["Naive/mbs=1"] is False

    def test_stalloc_grid_only_applies_to_stalloc(self):
        spec = _tiny_spec(stalloc_grid={"enable_fusion": [True, False]})
        points = spec.expand()
        # 2 configs x (torch2.3 + 2 stalloc variants) = 6 points
        assert len(points) == 6
        torch_points = [p for p in points if p.allocator == "torch2.3"]
        assert all(p.stalloc_overrides == () for p in torch_points)
        stalloc_labels = {p.allocator_label for p in points if p.allocator == "stalloc"}
        assert stalloc_labels == {
            "stalloc[enable_fusion=True]",
            "stalloc[enable_fusion=False]",
        }

    def test_seed_and_scale_axes(self):
        spec = _tiny_spec(grid={"micro_batch_size": [1], "seed": [0, 1], "scale": [0.25, 0.5]})
        points = spec.expand()
        assert {(p.seed, p.scale) for p in points} == {(0, 0.25), (0, 0.5), (1, 0.25), (1, 0.5)}

    def test_unknown_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown grid axis"):
            _tiny_spec(grid={"bogus_axis": [1]})

    def test_unknown_stalloc_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown stalloc_grid axis"):
            _tiny_spec(stalloc_grid={"bogus": [True]})

    def test_empty_allocators_rejected(self):
        with pytest.raises(ValueError, match="at least one allocator"):
            _tiny_spec(allocators=[])

    def test_unknown_allocator_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown allocator 'torch9.9'"):
            _tiny_spec(allocators=["torch2.3", "torch9.9"])

    def test_unknown_model_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown model 'gpt5'"):
            _tiny_spec(model="gpt5")
        with pytest.raises(ValueError, match="unknown model 'gpt5'"):
            _tiny_spec(grid={"model": ["gpt2-345m", "gpt5"]})

    def test_unknown_preset_value_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            _tiny_spec(grid={"preset": ["NotAPreset"]})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec fields"):
            SweepSpec.from_dict({"name": "x", "allocators": ["native"], "wat": 1})

    def test_spec_file_roundtrip(self, tmp_path):
        spec = _tiny_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TINY_SPEC), encoding="utf-8")
        loaded = load_spec(path)
        assert [p.row_label for p in loaded.expand()] == [p.row_label for p in spec.expand()]

    def test_load_spec_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sweep preset"):
            load_spec("no-such-preset")

    def test_available_presets_lists_smoke(self):
        assert "smoke" in available_presets()
        assert "quick-grid" in available_presets()


# ---------------------------------------------------------------------- #
# Cache layers
# ---------------------------------------------------------------------- #
class TestSweepCache:
    def test_trace_cache_generates_then_hits(self, tmp_path, tiny_dense_config):
        cache = SweepCache(tmp_path)
        first = cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        assert cache.stats.trace_misses == 1
        fingerprint = config_fingerprint(tiny_dense_config, seed=0, scale=0.25)
        assert cache.trace_path(fingerprint).exists()
        second = cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        assert cache.stats.trace_hits == 1
        assert second.digest() == first.digest()

    def test_corrupt_trace_entry_is_regenerated(self, tmp_path, tiny_dense_config):
        cache = SweepCache(tmp_path)
        cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        fingerprint = config_fingerprint(tiny_dense_config, seed=0, scale=0.25)
        cache.trace_path(fingerprint).write_text("not json\n", encoding="utf-8")
        trace = cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        assert cache.stats.trace_misses == 2
        assert trace.num_events > 0

    def test_plan_cache_round_trips_stalloc(self, tmp_path, tiny_dense_config):
        cache = SweepCache(tmp_path)
        trace = TraceGenerator(tiny_dense_config, seed=0, scale=0.25).generate()
        first = cache.get_stalloc(trace, STAllocConfig())
        assert cache.stats.plan_misses == 1
        second = cache.get_stalloc(trace, STAllocConfig())
        assert cache.stats.plan_hits == 1
        assert second.plan.pool_size == first.plan.pool_size
        assert second.plan.static_plan == first.plan.static_plan
        # The stored form holds no wall-clock: only the fresh instance has one.
        fresh_report = first.planning_report()
        assert fresh_report.pop("synthesis_seconds") >= 0
        assert second.planning_report() == fresh_report
        second.plan.static_plan.validate()

    def test_plan_cache_distinguishes_knobs(self, tmp_path, tiny_dense_config):
        cache = SweepCache(tmp_path)
        trace = TraceGenerator(tiny_dense_config, seed=0, scale=0.25).generate()
        cache.get_stalloc(trace, STAllocConfig())
        cache.get_stalloc(trace, STAllocConfig(enable_gap_insertion=False))
        assert cache.stats.plan_misses == 2

    def test_result_cache_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = cache.result_key("fingerprint", {"allocator": "native"})
        assert cache.load_result(key) is None
        cache.store_result(key, {"status": "ok", "value": 1.5})
        assert cache.load_result(key) == {"status": "ok", "value": 1.5}


# ---------------------------------------------------------------------- #
# Engine execution
# ---------------------------------------------------------------------- #
def _comparable(rows: list[dict]) -> list[dict]:
    """Strip per-run timing/caching fields so rows compare by measurement."""
    return [
        {k: v for k, v in row.items() if k not in ("elapsed_seconds", "cached")} for row in rows
    ]


class TestSweepEngine:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_runs_and_rows_are_complete(self, jobs, tmp_path):
        result = run_sweep(_tiny_spec(), jobs=jobs, cache_dir=tmp_path / "cache")
        assert result.num_points == 4
        assert all(row["status"] == "ok" for row in result.rows)
        assert [row["point"] for row in result.rows] == [0, 1, 2, 3]
        stalloc_rows = [row for row in result.rows if row["allocator"] == "stalloc"]
        assert all("static_pool_gib" in row for row in stalloc_rows)

    def test_parallel_equals_serial(self, tmp_path):
        serial = run_sweep(_tiny_spec(), jobs=1)
        parallel = run_sweep(_tiny_spec(), jobs=4)
        assert _comparable(serial.rows) == _comparable(parallel.rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_second_run_is_fully_cached_and_identical(self, jobs, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_sweep(_tiny_spec(), jobs=jobs, cache_dir=cache_dir)
        warm = run_sweep(_tiny_spec(), jobs=jobs, cache_dir=cache_dir)
        assert cold.num_cached == 0
        assert warm.num_cached == warm.num_points == cold.num_points
        assert _comparable(warm.rows) == _comparable(cold.rows)

    def test_reuse_results_false_recomputes_but_reuses_traces_and_plans(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(_tiny_spec(), jobs=1, cache_dir=cache_dir)
        # Each sweep has its own context (and trace memo): disk must serve traces.
        fresh = run_sweep(_tiny_spec(), jobs=1, cache_dir=cache_dir, reuse_results=False)
        assert fresh.num_cached == 0
        assert fresh.cache_stats["trace_hits"] > 0  # traces were reused from disk
        assert fresh.cache_stats["plan_hits"] > 0  # stalloc plans were reused from disk

    def test_sweep_without_cache_dir(self):
        result = run_sweep(_tiny_spec(), jobs=1)
        assert result.cache_dir is None
        assert result.num_cached == 0

    def test_throughput_columns_in_default_rows(self, tmp_path):
        """Default rows carry full-precision throughput-model estimates."""
        cache_dir = tmp_path / "cache"
        result = run_sweep(_tiny_spec(), jobs=1, cache_dir=cache_dir)
        for row in result.rows:
            assert row["tflops_per_gpu"] > 0
            assert row["tokens_per_second"] > 0
        # Full precision on purpose: rounding is display-only (results._fmt).
        assert any(row["tflops_per_gpu"] != round(row["tflops_per_gpu"], 1) for row in result.rows)
        again = run_sweep(_tiny_spec(), jobs=1, cache_dir=cache_dir)
        assert again.num_cached == again.num_points
        assert all("tokens_per_second" in row for row in again.rows)

    def test_parallel_cold_sweep_aggregates_worker_cache_stats(self, tmp_path):
        result = run_sweep(_tiny_spec(), jobs=2, cache_dir=tmp_path / "cache")
        assert result.cache_stats["trace_misses"] + result.cache_stats["trace_hits"] > 0
        assert result.cache_stats["plan_misses"] > 0  # stalloc plans were synthesized

    def test_cached_rows_are_reindexed_for_the_current_grid(self, tmp_path):
        """A sweep whose grid orders points differently must not inherit the
        original sweep's point indices from the result cache."""
        cache_dir = tmp_path / "cache"
        forward = _tiny_spec(grid={"micro_batch_size": [1, 2]}, allocators=["torch2.3"])
        reversed_ = _tiny_spec(grid={"micro_batch_size": [2, 1]}, allocators=["torch2.3"])
        run_sweep(forward, jobs=1, cache_dir=cache_dir)
        warm = run_sweep(reversed_, jobs=1, cache_dir=cache_dir)
        assert warm.num_cached == warm.num_points
        assert [row["point"] for row in warm.rows] == [0, 1]
        assert warm.rows[0]["config"] == "mbs=2"
        assert warm.rows[1]["config"] == "mbs=1"

    def test_configs_differing_only_in_seq_length_get_distinct_traces(self):
        """The in-memory trace memo must key on the full config fingerprint."""
        spec_short = _tiny_spec(
            name="short", base={"num_microbatches": 2, "seq_length": 512},
            grid={"micro_batch_size": [1]}, allocators=["torch2.3"],
        )
        spec_long = _tiny_spec(
            name="long", base={"num_microbatches": 2, "seq_length": 2048},
            grid={"micro_batch_size": [1]}, allocators=["torch2.3"],
        )
        short_row = run_sweep(spec_short, jobs=1).rows[0]
        long_row = run_sweep(spec_long, jobs=1).rows[0]
        assert long_row["allocated_gib"] > short_row["allocated_gib"]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_sweep(_tiny_spec(), jobs=0)


# ---------------------------------------------------------------------- #
# Row schema: one declaration, read by the engine and by --compare
# ---------------------------------------------------------------------- #
#: The declared columns, pinned: an edit to the declaration is an edit here.
DECLARED_COLUMNS = [
    "point", "model", "config", "allocator", "seed", "scale", "device", "workload_kind",
    "decode_steps", "ranks", "num_ranks", "unique_ranks", "status", "binding_rank",
    "memory_efficiency_pct", "fragmentation_pct", "allocated_gib", "allocated_mean_gib",
    "reserved_gib", "comm_peak_bytes", "kv_peak_bytes", "events_replayed", "elapsed_seconds",
    "cached", "description", "tflops_per_gpu", "tokens_per_second", "iteration_seconds",
    "comm_seconds", "decode_seconds", "bubble_fraction", "mfu", "binding_utilization",
    "oom_ranks", "oom_at_event", "static_pool_gib", "search_rank", "timing",
]


def assert_declared_row(row: dict, *, heterogeneous: bool = False) -> None:
    """``row`` holds declared columns only, in declared order, and each
    conditional column exactly when its condition holds."""
    assert list(row) == [name for name in DECLARED_COLUMNS if name in row], list(row)
    failed = row["status"] != "ok"
    assert ("oom_ranks" in row, "oom_at_event" in row) == (failed, failed), row
    # A STAlloc row reports its pool unless the pool itself did not fit.
    pool_missed = failed and row["allocated_gib"] == 0
    stalloc = row["allocator"].startswith("stalloc")
    assert ("static_pool_gib" in row) == (stalloc and not pool_missed), row
    assert ("binding_utilization" in row) == heterogeneous, row
    assert "timing" not in row


class TestRowSchema:
    def test_the_declaration_is_pinned(self):
        assert [column.name for column in ROW_COLUMNS] == DECLARED_COLUMNS
        assert set(IDENTITY_COLUMNS) == {
            "model", "config", "allocator", "seed", "scale", "device", "ranks", "timing",
            "workload_kind",
        }
        assert METRIC_DIRECTIONS == {
            "allocated_gib": +1,
            "allocated_mean_gib": 0,
            "reserved_gib": +1,
            "comm_peak_bytes": +1,
            "kv_peak_bytes": +1,
            "fragmentation_pct": 0,
            "memory_efficiency_pct": 0,
            "tflops_per_gpu": -1,
            "tokens_per_second": -1,
            "iteration_seconds": +1,
            "comm_seconds": +1,
            "decode_seconds": +1,
            "decode_steps": 0,
            "bubble_fraction": +1,
            "mfu": -1,
            "binding_rank": 0,
            "search_rank": +1,
        }

    @pytest.mark.parametrize("preset", sorted(SWEEP_PRESETS))
    def test_every_preset_row_and_csv_header_follow_the_declaration(self, preset, tmp_path):
        spec = load_spec(preset)
        assert not any(point.device_memory_by_rank for point in spec.expand())
        result = run_sweep(spec)
        assert result.rows
        for row in result.rows:
            assert_declared_row(row)
        result.write(tmp_path / "rows.csv")
        with (tmp_path / "rows.csv").open(encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == [name for name in DECLARED_COLUMNS if name in header]


class TestSweepResultOutputs:
    def test_json_and_csv_outputs(self, tmp_path):
        result = run_sweep(_tiny_spec(), jobs=1, cache_dir=tmp_path / "cache")
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        result.write(json_path)
        result.write(csv_path)
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["spec"] == "tiny"
        assert len(payload["rows"]) == result.num_points
        with csv_path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == result.num_points
        assert rows[0]["allocator"] == result.rows[0]["allocator"]

    def test_unknown_extension_rejected(self, tmp_path):
        result = run_sweep(_tiny_spec(), jobs=1)
        with pytest.raises(ValueError, match="unsupported output extension"):
            result.write(tmp_path / "out.xlsx")

    def test_to_text_mentions_spec_and_truncates(self):
        result = run_sweep(_tiny_spec(), jobs=1)
        text = result.to_text(max_rows=2)
        assert "sweep tiny" in text
        assert "more rows" in text


# ---------------------------------------------------------------------- #
# Acceptance: CLI end-to-end with >= 24 points, jobs=4, 5x cached speedup
# ---------------------------------------------------------------------- #
class TestSweepCli:
    def test_quick_grid_cli_cold_then_cached_5x_faster(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        json_path = tmp_path / "results.json"
        csv_path = tmp_path / "results.csv"
        argv = [
            "sweep",
            "quick-grid",
            "--jobs",
            "4",
            "--cache-dir",
            str(cache_dir),
            "--output",
            str(json_path),
            "--output",
            str(csv_path),
        ]

        started = time.perf_counter()
        assert cli_main(argv) == 0
        cold_seconds = time.perf_counter() - started

        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["num_points"] >= 24
        assert payload["num_cached"] == 0
        assert all(row["status"] == "ok" for row in payload["rows"])
        with csv_path.open(encoding="utf-8", newline="") as handle:
            assert len(list(csv.DictReader(handle))) >= 24

        started = time.perf_counter()
        assert cli_main(argv) == 0
        warm_seconds = time.perf_counter() - started

        warm_payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert warm_payload["num_cached"] == warm_payload["num_points"]
        assert _comparable(warm_payload["rows"]) == _comparable(payload["rows"])
        assert warm_seconds * 5 <= cold_seconds, (
            f"cached rerun not >=5x faster: cold={cold_seconds:.3f}s warm={warm_seconds:.3f}s"
        )
        capsys.readouterr()  # swallow the printed tables

    def test_cli_list_presets(self, capsys):
        assert cli_main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "quick-grid" in out and "smoke" in out

    def test_cli_requires_spec(self, capsys):
        assert cli_main(["sweep"]) == 2

    def test_cli_rejects_bad_inputs_cleanly(self, capsys, tmp_path):
        assert cli_main(["sweep", "no-such-preset", "--no-cache"]) == 2
        assert cli_main(["sweep", "smoke", "--no-cache", "--jobs", "0"]) == 2
        assert cli_main(["sweep", "smoke", "--no-cache", "--output", "x.xlsx"]) == 2
        assert cli_main(["run", "fig8a", "--quick", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "unknown sweep preset" in err
        assert "--jobs must be >= 1" in err
        assert "unsupported --output extension" in err

    def test_cli_no_cache_flag(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        assert (
            cli_main(
                ["sweep", "smoke", "--no-cache", "--output", str(out_path), "--max-rows", "0"]
            )
            == 0
        )
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["cache_dir"] is None
        capsys.readouterr()


# ---------------------------------------------------------------------- #
# Retrofit: existing runner/experiments route through the same machinery
# ---------------------------------------------------------------------- #
def _listing(root: Path) -> dict:
    return {str(p.relative_to(root)): p.stat().st_mtime_ns for p in sorted(root.rglob("*"))}


#: Names the single-context refactor and the rank-granular work items deleted
#: (process-global setters, the trace memo, the shared-trace pre-warm); none
#: may come back.  Spelled in pieces so this file itself stays clean under a
#: plain grep for them.
_DELETED_NAMES = {
    "_".join(pieces)
    for pieces in (
        ("set", "persistent", "cache"),
        ("persistent", "cache"),
        ("persistent", "cache", "dir"),
        ("set", "default", "jobs"),
        ("clear", "trace", "cache"),
        ("NO", "CACHE"),
        ("configure", "execution"),
        ("execution", "settings"),
        ("", "suite", "worker"),
        ("", "job", "rank", "worker"),
        ("", "execute", "point", "job"),
        ("", "Trace", "Cache"),
        ("", "prewarm", "shared", "traces"),
        ("", "execute", "pending"),
    )
}


class TestRunnerIntegration:
    def test_figure_fan_out_matches_serial(self, tiny_dense_config, tmp_path):
        """A figure's one ``run_jobs`` call fans its whole (configuration x
        allocator) grid out over the workers, and matches the serial run."""
        lineup = ["torch2.0", "torch2.3", "stalloc"]
        configs = {"mbs=4": tiny_dense_config, "mbs=2": tiny_dense_config.with_(micro_batch_size=2)}
        serial = run_lineups(configs, lineup, ctx=ExecutionContext())
        ctx = ExecutionContext(cache_dir=tmp_path / "cache", jobs=3)
        parallel = run_lineups(configs, lineup, ctx=ctx)
        tags = [(label, name) for label in configs for name in lineup]
        assert list(parallel) == list(serial) == tags
        for tag, job in serial.items():
            # The planning report holds the synthesis wall time.
            assert replace(parallel[tag].class_runs[0], planning_report={}) == replace(
                job.class_runs[0], planning_report={}
            )
        # Each trace is generated once, in the parent (fewer traces than
        # workers split each over two items, which read it back from disk);
        # the workers' disk lookups are folded back into the parent.
        assert ctx.cache.stats.trace_misses == len(configs)
        assert ctx.cache.stats.trace_hits == 2 * len(configs)
        assert ctx.cache.stats.plan_misses == len(configs)

    def test_second_context_is_served_the_trace_from_disk(self, tiny_dense_config, tmp_path):
        first_ctx = ExecutionContext(cache_dir=tmp_path / "cache")
        first = first_ctx.trace(tiny_dense_config, scale=0.25)
        fingerprint = config_fingerprint(tiny_dense_config, seed=0, scale=0.25)
        assert (tmp_path / "cache" / "traces" / f"{fingerprint}.jsonl").exists()
        second_ctx = ExecutionContext(cache_dir=tmp_path / "cache")
        second = second_ctx.trace(tiny_dense_config, scale=0.25)
        assert second.digest() == first.digest()
        assert (first_ctx.cache.stats.trace_misses, first_ctx.cache.stats.trace_hits) == (1, 0)
        assert (second_ctx.cache.stats.trace_misses, second_ctx.cache.stats.trace_hits) == (0, 1)

    def test_context_without_cache_dir_writes_no_file(
        self, tiny_dense_config, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        ctx = ExecutionContext()
        assert ctx.cache is None
        run = runner.run_workload(tiny_dense_config, "stalloc", scale=0.25, ctx=ctx)
        assert run.success
        assert list(tmp_path.iterdir()) == []

    def test_uncached_sweep_leaves_an_earlier_cache_dir_untouched(self, tmp_path):
        """Nothing from a cached run may leak into a later cache-less run in
        the same process (a sentinel used to defend this against the setters)."""
        cache_dir = tmp_path / "A"
        cached = run_sweep(_tiny_spec(), jobs=1, cache_dir=cache_dir)
        before = _listing(cache_dir)
        assert before
        uncached = run_sweep(_tiny_spec(), jobs=1)
        assert _listing(cache_dir) == before
        assert uncached.cache_dir is None and uncached.num_cached == 0
        assert _comparable(uncached.rows) == _comparable(cached.rows)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"jobs": 0}, "jobs must be >= 1, got 0"),
            ({"jobs": -3}, "jobs must be >= 1, got -3"),
            ({"jobs": True}, "jobs must be >= 1, got True"),
            ({"jobs": 2.0}, "jobs must be >= 1, got 2.0"),
            ({"jobs": "4"}, "jobs must be >= 1, got '4'"),
            ({"cache_max_bytes": -1}, "cache_max_bytes must be >= 0, got -1"),
        ],
    )
    def test_context_validates_its_fields_once(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExecutionContext(**kwargs)

    def test_one_pool_and_no_deleted_names(self):
        """Structural guard: exactly one process pool in the package, and the
        deleted execution setters, memo and fan-out paths stay deleted
        everywhere (run_job, the point builder and execute_points take no
        per-rank traces)."""
        for function in (runner.run_job, SweepPoint.build, execute_points):
            assert "traces" not in inspect.signature(function).parameters
        root = Path(__file__).resolve().parent.parent
        files = [
            path
            for pattern in ("src/**/*.py", "tests/*.py", "examples/*.py", "benchmarks/bench_*.py")
            for path in root.glob(pattern)
        ]
        pools = 0
        for path in files:
            tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
            names = [tok for tok in tokens if tok.type == tokenize.NAME]
            leaked = {tok.string for tok in names} & _DELETED_NAMES
            assert not leaked, f"{path}: {sorted(leaked)}"
            if path.is_relative_to(root / "src"):
                pools += sum(
                    1
                    for tok, nxt in zip(tokens, tokens[1:])
                    if tok.type == tokenize.NAME
                    and tok.string == "ProcessPoolExecutor"
                    and nxt.string == "("
                )
        assert pools == 1
