"""Self-test of the end-to-end benchmark (collected by the tier-1 command).

Checks the benchmark's own arithmetic and contracts, and drives the whole
pipeline once on the sub-second ``smoke`` stand-in -- never on the four real
workloads, which take minutes.
"""

from __future__ import annotations

import copy
import json
import re

import check
import metrics
import run
import spans
from workloads import SMOKE, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ---------------------------------------------------------------------- #
# Span self-time arithmetic
# ---------------------------------------------------------------------- #
def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "parent": parent, "start": start, "end": end}


def test_self_time_nested_sibling_and_overlapping_children():
    recorded = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),  # sibling
        _span(2, "a", 5.0, 7.0, parent=0),  # sibling
        _span(3, "b", 1.5, 2.5, parent=1),  # nested
        _span(4, "c", 6.0, 9.0, parent=0),  # overlaps span 2 from 6 to 7
        _span(5, "d", 9.5, 12.0, parent=0),  # runs past its parent: clipped
    ]
    own = spans.self_seconds(recorded)
    assert own[3] == 1.0
    assert own[1] == 2.0  # 3 s minus the nested second
    # Children cover [1,4] + [5,9] + [9.5,10]: the overlap counts once.
    assert own[0] == 10.0 - (3.0 + 4.0 + 0.5)
    busy = spans.busy_by_name(recorded)
    assert busy["a"] == 2.0 + 2.0
    # Self times of a well-nested tree add up to the root's duration.
    nested = recorded[:4]
    assert sum(spans.self_seconds(nested).values()) == 10.0


def test_span_log_records_parent_and_shared_point():
    ticks = iter(range(100))
    log = spans.SpanLog(clock=lambda: float(next(ticks)))
    with log.span("point", point=7):
        with log.span("inner"):
            pass
    with log.span("other"):
        pass
    outer, inner, other = log.spans
    assert (inner["parent"], inner["point"]) == (outer["id"], 7)
    assert (other["parent"], other["point"]) == (None, None)
    assert outer["start"] < inner["start"] < inner["end"] < outer["end"]


# ---------------------------------------------------------------------- #
# Workload generation and naming contracts
# ---------------------------------------------------------------------- #
def test_spec_generation_is_a_function_of_the_seed(tmp_path):
    for workload in WORKLOADS.values():
        assert workload.spec_text(3) == workload.spec_text(3)
        assert workload.spec_text(3) != workload.spec_text(4)
        path = workload.write_spec(3, tmp_path)
        assert path.read_text(encoding="utf-8") == workload.spec_text(3)
        assert json.loads(workload.spec_text(3))["seed"] == 3


def test_names_units_and_counts_fit_the_contract():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for metric in metrics.END_TO_END:
        assert 0 < metric.bound <= 0.25
    assert max(m.bound for m in metrics.END_TO_END) == metrics.END_TO_END[0].bound
    assert metrics.END_TO_END[0].name == "setup_s"


def test_benchmark_json_states_the_same_tables():
    document = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert document["run_seconds"] == run.DEFAULT_SECONDS
    assert document["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


# ---------------------------------------------------------------------- #
# Checker
# ---------------------------------------------------------------------- #
def _row(point, config, allocator, **overrides):
    row = {
        "point": point,
        "config": config,
        "allocator": allocator,
        "status": "ok",
        "allocated_gib": 2.0,
        "reserved_gib": 2.5 if allocator == "torch2.3" else 2.1,
        "fragmentation_pct": 20.0 if allocator == "torch2.3" else 5.0,
        "memory_efficiency_pct": 80.0 if allocator == "torch2.3" else 95.0,
        "tokens_per_second": 1000.0,
        "events_replayed": 100,
        "elapsed_seconds": 0.1,
        "cached": False,
    }
    row.update(overrides)
    return row


def _smoke_document():
    rows = []
    for index in range(check.expected_rows(SMOKE)):
        allocator = SMOKE.spec["allocators"][index % 2]
        rows.append(_row(index, f"cfg{index // 2}", allocator))
    return {"rows": rows}


def test_checker_accepts_a_clean_result_and_flags_doctored_ones():
    clean = _smoke_document()
    assert check.expected_rows(SMOKE) == 8
    verdict = check.check_cold(SMOKE, clean)
    assert (verdict.attempted, verdict.failed) == (8, 0)

    dropped = copy.deepcopy(clean)
    del dropped["rows"][3]
    assert check.check_cold(SMOKE, dropped).failed == 1

    mismatched = copy.deepcopy(clean)
    mismatched["rows"][1]["allocated_gib"] = 2.25
    verdict = check.check_cold(SMOKE, mismatched)
    assert verdict.failed == 2  # both allocators of the config disagree
    assert "allocated_gib differs" in verdict.messages[0]

    under_reserved = copy.deepcopy(clean)
    under_reserved["rows"][0]["reserved_gib"] = 1.0
    assert check.check_cold(SMOKE, under_reserved).failed == 1

    worse_than_baseline = copy.deepcopy(clean)
    worse_than_baseline["rows"][1]["fragmentation_pct"] = 30.0
    assert check.check_cold(SMOKE, worse_than_baseline).failed == 1

    no_status = copy.deepcopy(clean)
    del no_status["rows"][2]["status"]
    assert check.check_cold(SMOKE, no_status).failed == 1


def test_an_oom_row_is_a_result_but_not_the_same_result():
    clean = _smoke_document()
    oom = copy.deepcopy(clean)
    oom["rows"][1]["status"] = "OOM"
    # A simulated verdict, so the cold check lets it stand ...
    assert check.check_cold(SMOKE, oom).failed == 0
    # ... it drops out of the simulated means ...
    assert check.simulated_stats(SMOKE, oom)["stalloc_mem_eff_pct"] == 95.0
    # ... and it is not the row the reference run produced.
    assert check.check_same_rows(SMOKE, clean, oom, what="jobs2").failed == 1
    assert check.rows_digest(oom) != check.rows_digest(clean)


def test_warm_rows_must_be_served_from_the_cache_and_equal_the_cold_rows():
    cold = _smoke_document()
    warm = copy.deepcopy(cold)
    for row in warm["rows"]:
        row.update(cached=True, elapsed_seconds=0.001)
    assert check.check_same_rows(SMOKE, cold, warm, what="warm").failed == 0
    assert check.rows_digest(warm) == check.rows_digest(cold)  # host columns excluded
    warm["rows"][0]["cached"] = False
    warm["rows"][1]["reserved_gib"] += 0.5
    assert check.check_same_rows(SMOKE, cold, warm, what="warm").failed == 2


def test_search_accounting_and_ranking():
    search = WORKLOADS["search-wide"]
    rows = [
        _row(4, "a", "stalloc", search_rank=1),
        _row(5, "a", "torch2.3", search_rank=2),
    ]
    document = {
        "rows": rows,
        "candidates_total": 10,
        "pruned_by_memory": 5,
        "pruned_by_bound": 3,
        "evaluated": 2,
    }
    assert check.check_cold(search, document).failed == 0
    assert check.simulated_stats(search, document)["sim_tokens_per_s"] == 1000.0
    broken = dict(document, pruned_by_bound=4)
    assert check.check_cold(search, broken).failed == 1
    unranked = copy.deepcopy(document)
    unranked["rows"][1]["search_rank"] = 3
    assert check.check_cold(search, unranked).failed == 1


# ---------------------------------------------------------------------- #
# --compare
# ---------------------------------------------------------------------- #
def _timing(value, metric):
    samples = [value, value * 1.01, value * 1.02, value * 1.03, value * 1.04]
    if metric.better == "higher":
        samples = [value / (1 + 0.01 * step) for step in range(5)]
    q1, median, q3 = run.quartiles(samples)
    gated = median if metric.stat == "median" else value
    return {
        "value": gated, "unit": metric.unit, "stat": metric.stat, "n": 5,
        "median": median, "q1": q1, "q3": q3, "samples": samples,
    }


def _result(scale=1.0, exact=1.0, seed=0):
    table = {}
    for metric in metrics.END_TO_END:
        if metric.stat == "exact":
            table[metric.name] = {"value": 50.0 * exact, "unit": metric.unit, "stat": "exact"}
        else:
            table[metric.name] = _timing(10.0 * scale, metric)
    return {
        "seed": seed,
        "env": {"versions": {"repro": "x"}},
        "workloads": {"w": {"end_to_end": table, "failed": 0, "rows_digest": "d"}},
    }


def _verdicts(old, new):
    same_seed = old["seed"] == new["seed"]
    before, after = old["workloads"]["w"]["end_to_end"], new["workloads"]["w"]["end_to_end"]
    return {
        metric.name: run.classify(metric, before[metric.name], after[metric.name], same_seed=same_seed)[0]
        for metric in metrics.END_TO_END
    }


def test_compare_classifies_drift(tmp_path, capsys):
    base = _result()
    assert set(_verdicts(base, _result()).values()) == {"unchanged"}

    # +-12% crosses the 10% memory bound but not the 25% timing bounds.
    slower = _verdicts(base, _result(scale=1.12))
    assert slower["peak_rss_mib"] == "regressed"
    assert slower["cold_wall_s"] == slower["setup_s"] == "unchanged"
    assert _verdicts(base, _result(scale=1 / 1.12))["peak_rss_mib"] == "improved"
    much_slower = _verdicts(base, _result(scale=1.4))
    assert much_slower["cold_wall_s"] == much_slower["setup_s"] == "regressed"
    assert much_slower["events_per_s"] == "improved"  # higher is better there
    much_faster = _verdicts(base, _result(scale=1 / 1.4))
    assert much_faster["cold_wall_s"] == "improved"
    assert much_faster["events_per_s"] == "regressed"

    # A simulated statistic may not drift at all under one seed ...
    drift = _verdicts(base, _result(exact=0.9999))
    assert drift["frag_reduction_pct"] == "regressed"
    assert _verdicts(base, _result(exact=1.0001))["frag_reduction_pct"] == "improved"
    # ... but across seeds only its bound applies.
    assert _verdicts(base, _result(exact=0.9999, seed=1))["frag_reduction_pct"] == "unchanged"

    # A value inside its bound on samples that scatter wider than the bound
    # is not known to be unchanged.
    noisy = _result()
    entry = noisy["workloads"]["w"]["end_to_end"]["cold_wall_s"]
    entry["samples"] = [10.0, 13.0, 13.5, 14.0, 15.0]
    assert _verdicts(base, noisy)["cold_wall_s"] == "unresolved"

    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(base), encoding="utf-8")
    new_path.write_text(json.dumps(_result(scale=1.4)), encoding="utf-8")
    assert run.main(["--compare", str(old_path), str(old_path)]) == 0
    assert run.main(["--compare", str(old_path), str(new_path)]) == 1
    printed = capsys.readouterr().out
    assert "regressed" in printed and "rows_digest" in printed


# ---------------------------------------------------------------------- #
# The whole pipeline, once, on the smoke stand-in
# ---------------------------------------------------------------------- #
def test_pipeline_end_to_end_on_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    assert run.main(["--workload", "smoke", "--reps", "1", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    summary = json.loads(printed.strip().splitlines()[-1])
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["failed"] == 0 and summary["attempted"] > 0

    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["claim"] is None
    assert result["reps"] == {"cold": 1, "warm": 2, "aux": 1}
    assert result["env"]["versions"]["repro"]
    entry = result["workloads"]["smoke"]
    assert entry["failed"] == 0, entry["failures"]
    assert list(entry["end_to_end"]) == [m.name for m in metrics.END_TO_END]
    assert list(entry["per_layer"]) == [m.name for m in metrics.PER_LAYER]
    for metric in list(metrics.END_TO_END) + ["fail_share", "rows_digest"]:
        name = getattr(metric, "name", metric)
        assert re.search(rf"^\s+{re.escape(name)}\s", printed, re.M), name
    assert all(item["value"] > 0 for item in entry["end_to_end"].values())

    # The staged pass did the work the program did.
    accounting = entry["accounting"]
    assert accounting["consistent"], accounting
    assert accounting["traces"][0] == 4 and accounting["replays"][0] == 8
    trace = json.loads((tmp_path / "trace" / "smoke.spans.json").read_text(encoding="utf-8"))
    names = {span["name"] for span in trace["stages"]}
    assert {"workloads.tracegen", "core.synthesize", "simulator.replay", "timeline.simulate"} <= names
    assert all(span["end"] >= span["start"] for span in trace["stages"] + trace["engine"])
    assert trace["obs_summary"]["spans"] == entry["per_layer"]["obs.spans"]["value"]

    # The scratch directory of the run is gone; only the output stays.
    assert not list(run.WORK.iterdir())
