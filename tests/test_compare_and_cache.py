"""sweep --compare regression diffs, results serialization fixes, cache prune."""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import zlib

import pytest

from repro.cli import main as cli_main
from repro.core.columns import COLUMN_NAMES
from repro.core.stalloc import PLAN_FORMAT_VERSION, STAllocConfig
from repro.simulator import runner
from repro.sweep import SweepCache, SweepResult, compare_results
from repro.sweep.cache import _RESULT_VERSION_KEY, RESULT_FORMAT_VERSION, _atomic_write
from repro.version import TRACE_ENTRY_VERSION
from repro.workloads.trace import Trace
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.tracegen import TraceGenerator


def _row(**overrides) -> dict:
    row = {
        "point": 0,
        "model": "gpt2-345m",
        "config": "R/mbs=2",
        "allocator": "torch2.3",
        "seed": 0,
        "scale": 0.25,
        "device": "A800-80GB",
        "ranks": "0-3",
        "status": "ok",
        "binding_rank": 3,
        "allocated_gib": 2.0,
        "allocated_mean_gib": 1.5,
        "reserved_gib": 2.5,
        "tflops_per_gpu": 100.0,
        "tokens_per_second": 5000.0,
    }
    row.update(overrides)
    return row


def _result(rows) -> SweepResult:
    return SweepResult(spec_name="test", rows=rows)


# ---------------------------------------------------------------------- #
# compare_results
# ---------------------------------------------------------------------- #
class TestCompare:
    def test_identical_runs_have_no_diff(self):
        report = compare_results(_result([_row()]), _result([_row()]))
        assert report.num_matched == 1
        assert not report.has_regressions
        assert report.exit_code == 0
        assert "no differences" in report.to_text()

    def test_peak_memory_increase_is_a_regression(self):
        report = compare_results(
            _result([_row()]), _result([_row(allocated_gib=2.2)])
        )
        assert report.has_regressions
        assert report.exit_code == 1
        assert "allocated_gib regressed" in report.to_text()

    def test_peak_memory_decrease_is_not_a_regression(self):
        report = compare_results(
            _result([_row()]), _result([_row(allocated_gib=1.5)])
        )
        assert report.changed and not report.has_regressions

    def test_ok_to_oom_is_a_regression(self):
        report = compare_results(
            _result([_row()]), _result([_row(status="OOM")])
        )
        assert report.has_regressions
        assert "status regressed" in report.to_text()
        # The reverse (OOM fixed) is a change, not a regression.
        fixed = compare_results(_result([_row(status="OOM")]), _result([_row()]))
        assert fixed.changed and not fixed.has_regressions

    def test_throughput_drop_is_a_regression(self):
        report = compare_results(
            _result([_row()]), _result([_row(tflops_per_gpu=90.0)])
        )
        assert report.has_regressions

    def test_tolerance_suppresses_small_moves(self):
        report = compare_results(
            _result([_row()]),
            _result([_row(allocated_gib=2.0004)]),
            tolerance_pct=0.1,
        )
        assert not report.changed and not report.has_regressions
        tight = compare_results(
            _result([_row()]), _result([_row(allocated_gib=2.0004)])
        )
        assert tight.has_regressions

    def test_regression_just_past_tolerance_is_still_flagged(self):
        """Regression: a worsening between t% of |old| and t% of max(old, new)
        used to slip through because the changed-check gated the regression
        check with a larger scale."""
        report = compare_results(
            _result([_row(allocated_gib=10.0)]),
            _result([_row(allocated_gib=10.52)]),  # +5.2%: worse than 5% of old
            tolerance_pct=5.0,
        )
        assert report.has_regressions
        assert report.exit_code == 1

    def test_unmatched_baseline_fails_the_gate(self):
        """A baseline whose rows never line up has verified nothing."""
        old = _result([_row(config="some-other-spec")])
        new = _result([_row()])
        report = compare_results(old, new)
        assert report.num_matched == 0
        assert report.baseline_unmatched
        assert report.exit_code == 1
        assert "no baseline point matched" in report.to_text()
        # An empty baseline (nothing to protect) is not an error.
        empty = compare_results(_result([]), new)
        assert empty.exit_code == 0

    def test_binding_rank_shift_reported_but_not_flagged(self):
        report = compare_results(
            _result([_row()]), _result([_row(binding_rank=0)])
        )
        assert report.changed and not report.has_regressions

    def test_added_and_removed_points(self):
        old = _result([_row(), _row(config="Naive/mbs=2")])
        new = _result([_row(), _row(config="V/mbs=2")])
        report = compare_results(old, new)
        assert len(report.added) == 1 and len(report.removed) == 1
        assert not report.has_regressions
        text = report.to_text()
        assert "only in the new run" in text and "only in the old run" in text

    def test_points_match_across_reordered_grids(self):
        old = _result([_row(point=0), _row(point=1, config="Naive/mbs=2")])
        new = _result([_row(point=1), _row(point=0, config="Naive/mbs=2")])
        report = compare_results(old, new)
        assert report.num_matched == 2
        assert not report.changed

    def test_result_roundtrip_through_file(self, tmp_path):
        result = _result([_row()])
        path = tmp_path / "r.json"
        result.write(path)
        loaded = SweepResult.load(path)
        assert loaded.rows == result.rows
        assert not compare_results(loaded, result).changed

    def test_load_rejects_non_result_files(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError, match="not a sweep results file"):
            SweepResult.load(path)


# ---------------------------------------------------------------------- #
# Results serialization bugfixes
# ---------------------------------------------------------------------- #
class TestResultsSerialization:
    def test_write_accepts_uppercase_extensions(self, tmp_path):
        """Regression: .JSON / .CSV used to be rejected."""
        result = _result([_row()])
        json_path = tmp_path / "OUT.JSON"
        csv_path = tmp_path / "OUT.CSV"
        result.write(json_path)
        result.write(csv_path)
        assert json.loads(json_path.read_text(encoding="utf-8"))["spec"] == "test"
        assert "allocator" in csv_path.read_text(encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported output extension"):
            result.write(tmp_path / "out.XLSX")

    def test_to_text_renders_non_finite_floats(self):
        """Regression: inf/NaN used to come out of the float formatter raw."""
        from repro.sweep.results import _fmt

        assert _fmt(float("inf")) == "inf"
        assert _fmt(float("-inf")) == "-inf"
        assert _fmt(float("nan")) == "nan"
        result = _result(
            [_row(tflops_per_gpu=float("inf"), tokens_per_second=float("nan"))]
        )
        text = result.to_text()
        assert "inf" in text and "nan" in text
        header, sep, data = text.splitlines()[1:4]
        assert len(data) <= len(header)  # columns still aligned


# ---------------------------------------------------------------------- #
# Plan entries: a function of their key, and never trusted when damaged
# ---------------------------------------------------------------------- #
def _v1_document(document: dict) -> dict:
    """The entry as format 1 stored it: one dict per decision."""
    static = document["plan"]["static_plan"]
    decisions = [
        {"address": address, "request": {"req_id": req_id, "size": size}}
        for req_id, size, address in zip(static["req_id"], static["size"], static["address"])
    ]
    plan = dict(document["plan"], static_plan={"pool_size": static["pool_size"], "decisions": decisions})
    return dict(document, format_version=1, plan=plan)


def _v2_document(document: dict) -> dict:
    """The entry as format 2 stored it: one ``[req_id, alloc, free]`` triple per request."""
    triples = [
        [req_id, alloc_module, free_module]
        for alloc_module, free_module, req_ids in document["plan"]["dynamic_request_groups"]
        for req_id in req_ids
    ]
    plan = dict(document["plan"], dynamic_request_groups=triples)
    return dict(document, format_version=2, plan=plan)


def _with_fusion_strategy(document: dict, version: int) -> dict:
    """The entry with the removed ``fusion_strategy`` knob in its stored config.

    Format 3 stored it, so a format-3 entry is this with ``version=3``.
    """
    config = dict(document["config"])
    config = dict(enable_fusion=config.pop("enable_fusion"), fusion_strategy="repack", **config)
    return dict(document, format_version=version, config=config)


def _ragged(document: dict) -> dict:
    static = dict(document["plan"]["static_plan"])
    static["address"] = static["address"][:-1]
    return dict(document, plan=dict(document["plan"], static_plan=static))


PLAN_DAMAGE = {
    "truncated": lambda text: text[: len(text) // 2],
    "zero-byte": lambda text: "",
    "v1-format": lambda text: json.dumps(_v1_document(json.loads(text))),
    "v2-format": lambda text: json.dumps(_v2_document(json.loads(text)), separators=(",", ":")),
    "wrong-length-column": lambda text: json.dumps(_ragged(json.loads(text)), separators=(",", ":")),
    "not-an-object": lambda text: "[]",
    "v3-fusion-strategy": lambda text: json.dumps(
        _with_fusion_strategy(json.loads(text), 3), separators=(",", ":")
    ),
    "current-head-removed-knob": lambda text: json.dumps(
        _with_fusion_strategy(json.loads(text), PLAN_FORMAT_VERSION), separators=(",", ":")
    ),
}


class TestPlanEntries:
    @staticmethod
    def _trace(config):
        return TraceGenerator(config, seed=0, scale=0.25).generate()

    def test_two_cold_caches_hold_byte_identical_plan_files(self, tmp_path, tiny_moe_config):
        """Racing writers of one content-addressed key write the same bytes."""
        files = []
        for name in ("a", "b"):
            cache = SweepCache(tmp_path / name)
            stalloc = cache.get_stalloc(self._trace(tiny_moe_config), STAllocConfig())
            assert stalloc.planning_report()["synthesis_seconds"] >= 0
            (path,) = cache.plans_dir.iterdir()
            files.append((path.name, path.read_bytes()))
        assert files[0] == files[1]
        assert b"seconds" not in files[0][1]

    def test_entry_is_columns_behind_a_readable_version(self, tmp_path, tiny_dense_config):
        cache = SweepCache(tmp_path)
        stalloc = cache.get_stalloc(self._trace(tiny_dense_config), STAllocConfig())
        (path,) = cache.plans_dir.iterdir()
        text = path.read_text(encoding="utf-8")
        assert text.startswith(f'{{"format_version":{PLAN_FORMAT_VERSION},')
        static = json.loads(text)["plan"]["static_plan"]
        assert sorted(static) == ["address", "alloc_time", "free_time", "pool_size", "req_id", "size"]
        assert static["address"] == stalloc.plan.static_plan.address
        assert len(text) < 60 * len(stalloc.plan.static_plan)  # was ~250 bytes a decision

    @pytest.mark.parametrize("damage", sorted(PLAN_DAMAGE))
    def test_damaged_entry_is_regenerated_and_swept_never_raised(
        self, damage, tmp_path, tiny_moe_config
    ):
        cache = SweepCache(tmp_path)
        trace = self._trace(tiny_moe_config)
        first = cache.get_stalloc(trace, STAllocConfig())
        (path,) = cache.plans_dir.iterdir()
        good = path.read_text(encoding="utf-8")
        damaged = PLAN_DAMAGE[damage](good)

        # A lookup treats it as a miss and rewrites the entry ...
        path.write_text(damaged, encoding="utf-8")
        again = SweepCache(tmp_path)
        regenerated = again.get_stalloc(trace, STAllocConfig())
        assert (again.stats.plan_hits, again.stats.plan_misses) == (0, 1)
        assert regenerated.plan.static_plan == first.plan.static_plan
        assert path.read_text(encoding="utf-8") == good

        # ... and prune sweeps it as stale, next to a healthy entry it keeps.
        healthy = cache.plans_dir / "healthy.json"
        healthy.write_text(good, encoding="utf-8")
        path.write_text(damaged, encoding="utf-8")
        report = SweepCache(tmp_path).prune()
        assert report["stale_removed"] == 1
        assert not path.exists() and healthy.exists()

    def test_stale_version_is_decided_by_the_head_alone(self, tmp_path, monkeypatch):
        """An older-format entry is swept without parsing its megabyte of decisions."""
        cache = SweepCache(tmp_path)
        old = cache.plans_dir / "old.json"
        old.write_text('{"format_version": 1, "plan": ' + "x" * 100_000, encoding="utf-8")
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("parsed"))
        assert cache.prune()["stale_removed"] == 1


# ---------------------------------------------------------------------- #
# Trace entries: a JSON head line, then the raw column bytes
# ---------------------------------------------------------------------- #
def _rehead(data: bytes, **changes) -> bytes:
    line, _, body = data.partition(b"\n")
    head = dict(json.loads(line), **changes)
    return json.dumps(head, separators=(",", ":")).encode("utf-8") + b"\n" + body


def _head(data: bytes) -> dict:
    return json.loads(data.partition(b"\n")[0])


def _without_last_column(data: bytes) -> bytes:
    _, _, itemsize, length = _head(data)["columns"][-1]
    return data[: len(data) - itemsize * length]


def _cut_mid_column(data: bytes) -> bytes:
    head_bytes = data.index(b"\n") + 1
    return data[: head_bytes + (len(data) - head_bytes) // 2 + 3]


def _flip_byte(data: bytes, column: str) -> bytes:
    """``data`` with one bit flipped in the middle of ``column``'s bytes."""
    offset = data.index(b"\n") + 1
    for name, _, itemsize, length in _head(data)["columns"]:
        if name == column:
            offset += itemsize * (length // 2) + 1
            return data[:offset] + bytes([data[offset] ^ 1]) + data[offset + 1 :]
        offset += itemsize * length
    raise KeyError(column)


def _change_head_field(data: bytes) -> bytes:
    """A module-span bound one off: the head still parses and agrees with the columns."""
    line, _, body = data.partition(b"\n")
    head = json.loads(line)
    name = next(iter(head["module_spans"]))
    head["module_spans"][name][1] += 1
    return json.dumps(head, separators=(",", ":")).encode("utf-8") + b"\n" + body


TRACE_DAMAGE = {
    "cut-mid-column": _cut_mid_column,
    "flipped-byte-in-size-column": lambda data: _flip_byte(data, "size"),
    "flipped-byte-in-time-column": lambda data: _flip_byte(data, "time"),
    "changed-head-field": _change_head_field,
    "cut-at-column-boundary": _without_last_column,
    "zero-byte": lambda data: b"",
    "wrong-entry-version": lambda data: _rehead(data, trace_entry=TRACE_ENTRY_VERSION + 1),
    "other-byte-order": lambda data: _rehead(
        data, byteorder="big" if sys.byteorder == "little" else "little"
    ),
    "count-disagrees-with-columns": lambda data: _rehead(data, events=_head(data)["events"] - 1),
    "non-json-head": lambda data: b"{not json" + data[data.index(b"\n"):],
    "trailing-bytes": lambda data: data + b"\0",
}


class TestTraceEntries:
    def test_a_write_that_fails_mid_stream_leaves_nothing_behind(
        self, tmp_path, tiny_dense_config, monkeypatch
    ):
        real_chunks = Trace.entry_chunks

        def failing_chunks(self):
            for index, chunk in enumerate(real_chunks(self)):
                if index == 3:  # the head and two columns are written
                    raise RuntimeError("generator failed mid-stream")
                yield chunk

        monkeypatch.setattr(Trace, "entry_chunks", failing_chunks)
        cache = SweepCache(tmp_path)
        noted: list[int] = []
        monkeypatch.setattr(cache, "_note_store", noted.append)
        with pytest.raises(RuntimeError, match="mid-stream"):
            cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        assert list(cache.traces_dir.iterdir()) == [] and noted == []

    def test_an_entry_is_a_json_head_then_the_raw_columns(
        self, tmp_path, tiny_dense_config, monkeypatch
    ):
        cache = SweepCache(tmp_path)
        noted: list[int] = []
        monkeypatch.setattr(cache, "_note_store", noted.append)
        trace = cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        (path,) = cache.traces_dir.iterdir()
        data = path.read_bytes()
        assert noted == [len(data)]
        line, _, body = data.partition(b"\n")
        assert line.startswith(b'{"trace_entry":%d,' % TRACE_ENTRY_VERSION)
        head = json.loads(line)
        # The head stores no digest, and writing the entry hashes nothing.
        assert "digest" not in head and trace._digest_cache is None
        canonical = trace.dumps().encode("utf-8")
        assert body == b"".join(getattr(trace.columns, name).tobytes() for name in COLUMN_NAMES)
        assert len(body) == 39 * trace.num_events
        assert len(data) < len(canonical) / 3

    def test_an_entry_written_by_1_23_is_a_miss_and_rewritten(self, tmp_path, tiny_moe_config):
        """The 1.23.0 entry (version 1, a digest of the JSON lines in its head) is not read."""
        cache = SweepCache(tmp_path)
        trace = cache.get_trace(tiny_moe_config, seed=0, scale=0.25)
        (path,) = cache.traces_dir.iterdir()
        current = path.read_bytes()
        line, _, body = current.partition(b"\n")
        head = json.loads(line)
        del head["crc32"]
        old_head = {
            "trace_entry": 1,
            **{key: head[key] for key in ("byteorder", "events", "columns")},
            "digest": hashlib.sha256(trace.dumps().encode("utf-8")).hexdigest(),
            **{key: head[key] for key in ("metadata", "module_spans", "phases", "modules", "tags")},
        }
        covered = json.dumps(old_head, separators=(",", ":")).encode("utf-8")[:-1]
        crc = zlib.crc32(body, zlib.crc32(covered))
        path.write_bytes(covered + b',"crc32":%d}\n' % crc + body)

        again = SweepCache(tmp_path)
        reread = again.get_trace(tiny_moe_config, seed=0, scale=0.25)
        assert (again.stats.trace_hits, again.stats.trace_misses) == (0, 1)
        assert path.read_bytes() == current
        assert reread.digest() == trace.digest()

    def test_a_jsonl_entry_written_by_save_is_a_hit(self, tmp_path, tiny_moe_config):
        """``Trace.save`` at ``trace_path`` (how some callers fill the cache) is read as is."""
        generated = TraceGenerator(tiny_moe_config, seed=0, scale=0.25).generate()
        cache = SweepCache(tmp_path)
        path = cache.trace_path(config_fingerprint(tiny_moe_config, seed=0, scale=0.25))
        generated.save(path)
        loaded = cache.get_trace(tiny_moe_config, seed=0, scale=0.25)
        assert (cache.stats.trace_hits, cache.stats.trace_misses) == (1, 0)
        for name in COLUMN_NAMES:
            assert getattr(loaded.columns, name) == getattr(generated.columns, name), name
        assert (loaded.columns.modules, loaded.columns.tags) == (
            generated.columns.modules, generated.columns.tags
        )
        assert loaded.digest() == generated.digest()
        assert path.read_bytes() == generated.dumps().encode("utf-8")  # left as it was
        assert cache.prune()["stale_removed"] == 0

    @pytest.mark.parametrize("damage", sorted(TRACE_DAMAGE))
    def test_damaged_entry_is_regenerated_and_swept_never_raised(
        self, damage, tmp_path, tiny_moe_config
    ):
        cache = SweepCache(tmp_path)
        first = cache.get_trace(tiny_moe_config, seed=0, scale=0.25)
        (path,) = cache.traces_dir.iterdir()
        good = path.read_bytes()
        damaged = TRACE_DAMAGE[damage](good)
        assert damaged != good

        # A lookup treats it as a miss and rewrites the entry ...
        path.write_bytes(damaged)
        again = SweepCache(tmp_path)
        regenerated = again.get_trace(tiny_moe_config, seed=0, scale=0.25)
        assert (again.stats.trace_hits, again.stats.trace_misses) == (0, 1)
        assert regenerated.digest() == first.digest()
        assert path.read_bytes() == good

        # ... and prune sweeps it as stale, next to a healthy entry it keeps.
        healthy = cache.traces_dir / "healthy.jsonl"
        healthy.write_bytes(good)
        path.write_bytes(damaged)
        report = SweepCache(tmp_path).prune()
        assert report["stale_removed"] == 1
        assert not path.exists() and healthy.exists()


# ---------------------------------------------------------------------- #
# Cache prune
# ---------------------------------------------------------------------- #
class TestCachePrune:
    def test_prune_removes_stale_version_entries(self, tmp_path, tiny_dense_config):
        cache = SweepCache(tmp_path)
        cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        key = cache.result_key("fp", {"allocator": "native"})
        cache.store_result(key, {"status": "ok"})
        # Forge entries written by older formats.
        old_trace = cache.traces_dir / "deadbeef.jsonl"
        header = {"metadata": {"tracegen_version": 1}, "module_spans": {}, "phases": []}
        old_trace.write_text(json.dumps(header) + "\n", encoding="utf-8")
        old_result = cache.results_dir / "cafebabe.json"
        old_result.write_text(json.dumps({"status": "ok"}), encoding="utf-8")  # no version key
        old_plan = cache.plans_dir / "0ldplan.json"
        old_plan.write_text(json.dumps({"format_version": 0}), encoding="utf-8")

        report = cache.prune()
        assert report["stale_removed"] == 3
        assert not old_trace.exists() and not old_result.exists() and not old_plan.exists()
        # Current-format entries survive and still load.
        assert cache.load_result(key) == {"status": "ok"}
        fingerprint = config_fingerprint(tiny_dense_config, seed=0, scale=0.25)
        assert cache.trace_path(fingerprint).exists()

    def test_stored_rows_embed_format_version(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = cache.result_key("fp", {"allocator": "native"})
        cache.store_result(key, {"status": "ok"})
        raw = json.loads(cache.result_path(key).read_text(encoding="utf-8"))
        assert raw[_RESULT_VERSION_KEY] == RESULT_FORMAT_VERSION
        # ... but the version key never leaks into served rows.
        assert cache.load_result(key) == {"status": "ok"}

    @pytest.mark.parametrize("payload", ["null", "[]", "3"])
    def test_non_object_result_entry_is_a_miss_and_stale(self, payload, tmp_path):
        """Valid JSON that is not a row (a foreign or rewritten file) never raises."""
        cache = SweepCache(tmp_path)
        healthy = cache.result_key("fp", {"allocator": "torch2.3"})
        cache.store_result(healthy, {"status": "ok"})
        key = cache.result_key("fp", {"allocator": "native"})
        path = cache.result_path(key)

        # A lookup treats it as a miss and drops the entry ...
        path.write_text(payload, encoding="utf-8")
        assert cache.load_result(key) is None
        assert (cache.stats.result_hits, cache.stats.result_misses) == (0, 1)
        assert not path.exists()

        # ... and prune sweeps it as stale, next to a healthy entry it keeps.
        path.write_text(payload, encoding="utf-8")
        assert cache.prune()["stale_removed"] == 1
        assert not path.exists()
        assert cache.load_result(healthy) == {"status": "ok"}

    def test_stores_are_accounted_in_encoded_bytes(self, tmp_path):
        """The cap compares against file sizes, so stores count bytes, not characters."""
        path = tmp_path / "entry.json"
        assert _atomic_write(path, [("\u00e9" * 10).encode("utf-8")]) == path.stat().st_size == 20

    def test_prune_lru_evicts_oldest_first(self, tmp_path):
        cache = SweepCache(tmp_path)
        keys = []
        for index in range(4):
            key = cache.result_key("fp", {"index": index})
            cache.store_result(key, {"status": "ok", "index": index})
            keys.append(key)
        now = time.time()
        for age, key in zip((400, 300, 200, 100), keys):
            os.utime(cache.result_path(key), (now - age, now - age))
        entry_size = cache.result_path(keys[0]).stat().st_size
        report = cache.prune(max_bytes=2 * entry_size)
        assert report["lru_removed"] == 2
        assert not cache.result_path(keys[0]).exists()
        assert not cache.result_path(keys[1]).exists()
        assert cache.result_path(keys[2]).exists()
        assert cache.result_path(keys[3]).exists()
        assert cache.size_bytes() <= 2 * entry_size

    def test_prune_zero_budget_clears_cache(self, tmp_path, tiny_dense_config):
        cache = SweepCache(tmp_path)
        cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        report = cache.prune(max_bytes=0)
        assert report["remaining_bytes"] == 0
        assert cache.size_bytes() == 0

    def test_inline_cap_enforced_on_store(self, tmp_path, tiny_dense_config):
        """A capped cache evicts inline: storing past max_bytes prunes back
        under the cap without an explicit prune call."""
        uncapped = SweepCache(tmp_path / "probe")
        uncapped.get_trace(tiny_dense_config, seed=0, scale=0.25)
        one_trace = uncapped.size_bytes()
        cap = int(one_trace * 1.5)
        cache = SweepCache(tmp_path / "capped", max_bytes=cap)
        for seed in range(4):
            cache.get_trace(tiny_dense_config, seed=seed, scale=0.25)
            assert cache.size_bytes() <= cap
        with pytest.raises(ValueError, match="max_bytes"):
            SweepCache(tmp_path / "bad", max_bytes=-1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_capped_sweep_never_exceeds_max_bytes(self, jobs, tmp_path):
        """Satellite acceptance: a sweep run under a cache cap finishes with
        the cache at or below the cap, serially and across workers."""
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec.from_dict(
            {
                "name": "capped",
                "model": "gpt2-345m",
                "parallelism": {"pipeline_parallel": 2},
                "base": {"num_microbatches": 2},
                "grid": {"micro_batch_size": [1, 2]},
                "allocators": ["torch2.3"],
                "scale": 0.25,
            }
        )
        cache_dir = tmp_path / "cache"
        probe = run_sweep(spec, jobs=jobs, cache_dir=cache_dir)
        assert probe.num_points == 2
        unbounded = SweepCache(cache_dir).size_bytes()
        assert unbounded > 0
        cap = max(1, unbounded // 2)

        capped_dir = tmp_path / "capped"
        result = run_sweep(spec, jobs=jobs, cache_dir=capped_dir, cache_max_bytes=cap)
        assert result.num_points == 2  # eviction never breaks execution
        assert SweepCache(capped_dir).size_bytes() <= cap

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            SweepCache(tmp_path).prune(max_bytes=-1)


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #
class TestCompareCli:
    def test_sweep_compare_zero_diff_and_regression_exit_codes(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        baseline = tmp_path / "baseline.json"
        argv = [
            "sweep", "smoke",
            "--jobs", "1",
            "--cache-dir", str(cache_dir),
            "--output", str(baseline),
        ]
        assert cli_main(argv) == 0
        # Second (fully cached) run against the baseline: zero diff, exit 0.
        assert cli_main(argv + ["--compare", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out

        # Tamper with the baseline so the current run looks like a regression.
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        for row in payload["rows"]:
            row["allocated_gib"] *= 0.5
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload), encoding="utf-8")
        assert cli_main(argv[:-2] + ["--compare", str(tampered)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_compare_with_missing_baseline_is_a_usage_error(self, tmp_path, capsys):
        code = cli_main(
            ["sweep", "smoke", "--no-cache", "--compare", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "cannot load --compare baseline" in capsys.readouterr().err

    def test_dual_file_compare_without_running(self, tmp_path, capsys):
        """sweep --compare old.json new.json diffs two saved files: no spec,
        no execution, exit code from the diff alone."""
        baseline = tmp_path / "old.json"
        _result([_row()]).write_json(baseline)
        identical = tmp_path / "new.json"
        _result([_row()]).write_json(identical)
        assert cli_main(["sweep", "--compare", str(baseline), str(identical)]) == 0
        assert "0 regressed" in capsys.readouterr().out

        regressed = tmp_path / "regressed.json"
        _result([_row(allocated_gib=4.0)]).write_json(regressed)
        assert cli_main(["sweep", "--compare", str(baseline), str(regressed)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # Tolerance rescues a small move (2.0 -> 2.0004 is < 1%).
        slight = tmp_path / "slight.json"
        _result([_row(allocated_gib=2.0004)]).write_json(slight)
        assert cli_main(
            ["sweep", "--compare", str(baseline), str(slight), "--tolerance-pct", "1"]
        ) == 0

    def test_dual_file_compare_usage_errors(self, tmp_path, capsys):
        baseline = tmp_path / "old.json"
        _result([_row()]).write_json(baseline)
        # A spec plus two files is ambiguous: refuse.
        code = cli_main(["sweep", "smoke", "--compare", str(baseline), str(baseline)])
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err
        # A missing file is a usage error, not a crash.
        code = cli_main(["sweep", "--compare", str(baseline), str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot compare" in capsys.readouterr().err
        # More than two files is a usage error.
        code = cli_main(
            ["sweep", "--compare", str(baseline), str(baseline), str(baseline)]
        )
        assert code == 2
        assert "one or two" in capsys.readouterr().err

    def test_cache_prune_cli(self, tmp_path, capsys, tiny_dense_config):
        cache = SweepCache(tmp_path / "cache")
        cache.get_trace(tiny_dense_config, seed=0, scale=0.25)
        assert cli_main(
            ["cache", "prune", "--cache-dir", str(tmp_path / "cache"), "--max-bytes", "0"]
        ) == 0
        assert "LRU-evicted" in capsys.readouterr().out
        assert cache.size_bytes() == 0

    def test_cache_prune_rejects_conflicting_limits(self, capsys, tmp_path):
        code = cli_main(
            ["cache", "prune", "--cache-dir", str(tmp_path), "--max-bytes", "1", "--max-gib", "1"]
        )
        assert code == 2
        assert "at most one" in capsys.readouterr().err

    def test_uppercase_output_extension_accepted_by_cli(self, tmp_path, capsys):
        out_path = tmp_path / "RESULTS.JSON"
        assert cli_main(
            ["sweep", "smoke", "--no-cache", "--output", str(out_path), "--max-rows", "0"]
        ) == 0
        capsys.readouterr()
        assert json.loads(out_path.read_text(encoding="utf-8"))["num_points"] > 0


def test_math_isfinite_guard():
    """compare handles rows whose floats are non-finite without crashing."""
    report = compare_results(
        _result([_row(tflops_per_gpu=float("nan"))]),
        _result([_row(tflops_per_gpu=float("nan"))]),
    )
    assert not report.changed
    report = compare_results(
        _result([_row(tflops_per_gpu=float("inf"))]),
        _result([_row(tflops_per_gpu=100.0)]),
    )
    assert report.changed
    assert math.isinf(report.comparisons[0].deltas["tflops_per_gpu"][0])
