"""Auto-parallelism search planner tests.

Covers the cluster/spec layer (parsing, validation, enumeration legality),
the admissibility of both pruning bounds (property-checked against real
traces and measured throughput), the planner's acceptance contract (same
best config as the exhaustive sweep while evaluating at most half the
grid), result serialization, the CLI subcommand, and regression tests for
the binding-rank / compare-gate bugfix sweep that rode along.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace as dataclass_replace

import pytest

from repro.gpu.device import GIB
from repro.gpu.specs import get_gpu
from repro.search import (
    ClusterSpec,
    SearchResult,
    SearchSpec,
    load_search_spec,
    memory_lower_bound,
    run_search,
    search_points,
    throughput_upper_bound,
)
from repro.search.planner import _rank_rows
from repro.simulator.ranks import split_classes_by_capacity
from repro.simulator.ranks import default_capacity_gib, resolve_job_ranks, validate_capacity_gib
from repro.simulator.replay import ReplayResult
from repro.simulator.runner import JobRun, _budget_utilization, run_workload
from repro.sweep.compare import _is_regression, _values_differ, compare_results
from repro.sweep.results import SweepResult
from repro.sweep.spec import load_spec
from repro.timeline.simulator import simulate_timeline
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig, normalize_rank
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.conftest import run_job
from tests.test_sweep import DECLARED_COLUMNS, assert_declared_row

SEARCH_PRESETS = ("gpt-tiny", "moe-tiny", "search-smoke")


# --------------------------------------------------------------------- #
# ClusterSpec
# --------------------------------------------------------------------- #
def test_cluster_parse():
    cluster = ClusterSpec.parse("8xA800-80GB@40")
    assert cluster.num_devices == 8
    assert cluster.device_name == "A800-80GB"
    assert cluster.device_capacity_gib == 40.0
    bare = ClusterSpec.parse("4xA800-80GB")
    assert bare.num_devices == 4
    assert bare.device_capacity_gib is None
    assert default_capacity_gib(bare.device_name, bare.device_capacity_gib) == 80


@pytest.mark.parametrize(
    "text",
    ["", "A800-80GB", "x A800", "0xA800-80GB", "8xNOT-A-GPU", "8xA800-80GB@0", "8xA800-80GB@-1"],
)
def test_cluster_parse_rejects(text):
    with pytest.raises(ValueError):
        ClusterSpec.parse(text)


def test_cluster_from_dict_roundtrip():
    cluster = ClusterSpec.from_dict(
        {"devices": "4xA800-80GB@40", "device_memory_by_rank": {"0": 30, "1.0": 20}}
    )
    assert dict(cluster.device_memory_by_rank) == {"0": 30.0, "1.0": 20.0}
    # A ClusterSpec passes through unchanged.
    assert ClusterSpec.from_dict(cluster) is cluster


# --------------------------------------------------------------------- #
# SearchSpec validation + enumeration
# --------------------------------------------------------------------- #
def _spec(**overrides) -> SearchSpec:
    data = dict(
        name="t",
        model="gpt-tiny",
        cluster="8xA800-80GB",
        global_batch=16,
        allocators=["torch2.3"],
    )
    data.update(overrides)
    return SearchSpec(**data)


@pytest.mark.parametrize(
    "overrides",
    [
        {"model": "no-such-model"},
        {"allocators": []},
        {"allocators": ["no-such-allocator"]},
        {"global_batch": 0},
        {"global_batch": True},
        {"micro_batch_sizes": []},
        {"base": {"no_such_field": 1}},
        {"base": {"micro_batch_size": 2}},  # search-owned axis
        {"stalloc_grid": {"no_such_knob": [1]}},
        {"stalloc_grid": {"pool_headroom": []}},
        {"cluster": "8xNOT-A-GPU"},
    ],
)
def test_spec_validation_errors(overrides):
    with pytest.raises(ValueError):
        _spec(**overrides)


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown search spec fields"):
        SearchSpec.from_dict({"name": "t", "model": "gpt-tiny", "cluster": "8xA800-80GB",
                              "global_batch": 8, "allocators": ["torch2.3"], "bogus": 1})


def test_enumeration_respects_divisibility():
    spec = _spec()
    model = get_model("gpt-tiny")
    points = spec.enumerate_candidates()
    assert points, "the auto grid on 8 devices must be non-empty"
    assert [p.index for p in points] == list(range(len(points)))
    for point in points:
        par = point.config.parallelism
        assert model.num_attention_heads % par.tensor_parallel == 0
        assert model.num_layers % par.pipeline_parallel == 0
        # Every device is used, exactly once.
        assert par.tensor_parallel * par.pipeline_parallel * par.data_parallel == 8
        # Dense model: expert parallelism never enters the space.
        assert par.expert_parallel == 1
        # The global batch is preserved exactly across every layout.
        assert (
            point.config.micro_batch_size
            * par.data_parallel
            * point.config.num_microbatches
            == spec.global_batch
        )


def test_moe_enumeration_constraints():
    spec = _spec(model="moe-tiny", global_batch=8, micro_batch_sizes=[1])
    model = get_model("moe-tiny")
    eps = set()
    for point in spec.enumerate_candidates():
        par = point.config.parallelism
        if par.expert_parallel > 1:
            assert model.num_experts % par.expert_parallel == 0
            assert par.data_parallel % par.expert_parallel == 0
        eps.add(par.expert_parallel)
    assert len(eps) > 1, "auto EP must explore more than one expert-parallel degree"


def test_budget_map_restricted_per_candidate():
    spec = _spec(
        cluster={"devices": "8xA800-80GB", "device_memory_by_rank": {"1": 40}},
    )
    for point in spec.enumerate_candidates():
        budgets = dict(point.device_memory_by_rank)
        if point.config.parallelism.pipeline_parallel > 1:
            assert budgets == {"1": 40.0}
        else:
            # Stage 1 does not exist under pp=1: the entry is dropped.
            assert budgets == {}


# --------------------------------------------------------------------- #
# Bound admissibility (pruning soundness)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("preset", ["job-smoke", "ep-smoke"])
def test_memory_lower_bound_is_admissible(preset):
    """The memory bound never exceeds a real trace's peak: pruning on it
    can only kill configurations that genuinely cannot fit."""
    seen = set()
    for point in load_spec(preset).expand():
        key = (point.config.label, point.seed, point.scale)
        if key in seen:
            continue
        seen.add(key)
        for cls in resolve_job_ranks(point.config, point.ranks):
            pp, ep = normalize_rank(cls[0])
            bound = memory_lower_bound(
                point.config, rank=pp, ep_rank=ep, scale=point.scale
            )
            trace = TraceGenerator(
                point.config, seed=point.seed, scale=point.scale, rank=pp, ep_rank=ep
            ).generate()
            assert bound <= trace.peak_allocated_bytes(), (
                f"{preset}: bound {bound} exceeds real peak "
                f"{trace.peak_allocated_bytes()} for {point.config.label} rank ({pp},{ep})"
            )


@pytest.mark.parametrize("preset", SEARCH_PRESETS)
def test_throughput_upper_bound_is_admissible(preset_pairs, preset):
    """No measured throughput ever beats the bound used to prune.

    The bound is asked the way the planner asks it: with the fabric the
    candidate was timed on.
    """
    _, exhaustive = preset_pairs[preset]
    candidates = {point.index: point for point in load_search_spec(preset).enumerate_candidates()}
    measured = [row for row in exhaustive.rows if row["status"] == "ok"]
    assert measured
    for row in measured:
        point = candidates[row["point"]]
        assert point.config.label == row["config"]
        gpu = dataclass_replace(get_gpu(row["device"]), **dict(point.fabric))
        bound = throughput_upper_bound(point.config, gpu, scale=row["scale"])
        assert row["tokens_per_second"] <= bound * (1.0 + 1e-9), (
            f"{preset}: measured {row['tokens_per_second']} beats bound {bound} "
            f"for {row['config']}"
        )


# --------------------------------------------------------------------- #
# Acceptance contract: search vs the exhaustive oracle
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def preset_pairs():
    """(search, exhaustive) SearchResults per preset, computed once."""
    pairs = {}
    for preset in SEARCH_PRESETS:
        spec = load_search_spec(preset)
        pairs[preset] = (
            run_search(spec, cache_dir=None),
            run_search(spec, cache_dir=None, exhaustive=True),
        )
    return pairs


@pytest.fixture(scope="module")
def search_smoke_pair(preset_pairs):
    return preset_pairs["search-smoke"]


@pytest.mark.parametrize("preset", SEARCH_PRESETS)
def test_search_matches_exhaustive_best(preset_pairs, preset):
    searched, exhaustive = preset_pairs[preset]
    assert exhaustive.evaluated == exhaustive.candidates_total
    assert searched.candidates_total == exhaustive.candidates_total
    best, oracle = searched.best, exhaustive.best
    assert best is not None and oracle is not None
    assert (best["config"], best["allocator"]) == (oracle["config"], oracle["allocator"])
    assert best["tokens_per_second"] == pytest.approx(oracle["tokens_per_second"])


@pytest.mark.parametrize("preset", SEARCH_PRESETS)
def test_search_evaluates_at_most_half_the_grid(preset_pairs, preset):
    searched, _ = preset_pairs[preset]
    assert searched.evaluated <= searched.candidates_total / 2, (
        f"{preset}: evaluated {searched.evaluated} of {searched.candidates_total}"
    )
    # Prune accounting is complete: every candidate is either pruned or priced.
    assert (
        searched.pruned_by_memory + searched.pruned_by_bound + searched.evaluated
        == searched.candidates_total
    )
    assert len(searched.pruned) == searched.pruned_by_memory + searched.pruned_by_bound
    assert searched.evaluated == len(searched.rows)


def test_every_search_row_follows_the_declaration(preset_pairs):
    rows = [row for pair in preset_pairs.values() for result in pair for row in result.rows]
    for row in rows:
        assert_declared_row(row)
    assert any(row["status"] != "ok" for row in rows)  # the OOM columns are exercised


def test_both_prune_kinds_fire_across_presets(preset_pairs):
    assert any(pair[0].pruned_by_memory > 0 for pair in preset_pairs.values())
    assert any(pair[0].pruned_by_bound > 0 for pair in preset_pairs.values())


@pytest.mark.parametrize("preset", SEARCH_PRESETS)
def test_memory_pruned_candidates_never_fit(preset_pairs, preset):
    """Pruning soundness end-to-end: every configuration the memory bound
    killed really OOMs when the exhaustive oracle prices it."""
    searched, exhaustive = preset_pairs[preset]
    pruned_configs = {
        record["config"] for record in searched.pruned if record["reason"] == "memory_bound"
    }
    exhaustive_by_config: dict[str, list[dict]] = {}
    for row in exhaustive.rows:
        exhaustive_by_config.setdefault(row["config"], []).append(row)
    for config in pruned_configs:
        rows = exhaustive_by_config[config]
        assert rows and all(row["status"] != "ok" for row in rows), (
            f"{preset}: memory-pruned {config} fit when evaluated exhaustively"
        )


@pytest.mark.parametrize("preset", ["job-smoke", "ep-smoke"])
def test_search_points_matches_sweep_argmin(preset):
    """On an existing sweep grid the planner returns the sweep's own best."""
    points = load_spec(preset).expand()
    searched = search_points(points, name=preset, cache_dir=None)
    oracle = search_points(points, name=preset, cache_dir=None, exhaustive=True)
    assert searched.best is not None
    assert (searched.best["config"], searched.best["allocator"]) == (
        oracle.best["config"],
        oracle.best["allocator"],
    )


# --------------------------------------------------------------------- #
# Ranking + serialization
# --------------------------------------------------------------------- #
def test_rank_rows_orders_and_stamps():
    rows = [
        {"status": "oom", "config": "c", "allocator": "a"},
        {"status": "ok", "config": "b", "allocator": "a",
         "tokens_per_second": 100.0, "allocated_gib": 2.0},
        {"status": "ok", "config": "a", "allocator": "a",
         "tokens_per_second": 200.0, "allocated_gib": 5.0},
        {"status": "ok", "config": "d", "allocator": "a",
         "tokens_per_second": 100.0, "allocated_gib": 1.0},
    ]
    ranked = _rank_rows(rows)
    assert [row["config"] for row in ranked] == ["a", "d", "b", "c"]
    assert [row["search_rank"] for row in ranked] == [1, 2, 3, 4]


def test_search_result_roundtrip(tmp_path, search_smoke_pair):
    searched, _ = search_smoke_pair
    path = tmp_path / "search.json"
    searched.write(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc == json.loads(json.dumps(searched.as_dict()))

    # The compare gate consumes the same file as a plain sweep result.
    as_sweep = SweepResult.load(path)
    assert as_sweep.rows == searched.rows
    report = compare_results(as_sweep, searched.as_sweep_result())
    assert report.exit_code == 0

    csv_path = tmp_path / "search.csv"
    searched.write(csv_path)
    assert csv_path.read_text(encoding="utf-8").count("\n") == len(searched.rows) + 1

    with pytest.raises(ValueError, match="unsupported output format"):
        searched.write(tmp_path / "search.txt")


def test_csv_and_table_columns_follow_the_declaration_past_a_fitting_first_row(
    tmp_path, preset_pairs
):
    """Rows that OOM carry ``oom_ranks`` / ``oom_at_event``; when the first
    row fits, those columns still take their declared place, before
    ``static_pool_gib`` and ``search_rank``, not the end of the header."""
    searched, _ = preset_pairs["moe-tiny"]
    statuses = [row["status"] for row in searched.rows]
    assert statuses[0] == "ok" and "OOM" in statuses[1:]
    assert "oom_ranks" not in searched.rows[0]
    path = tmp_path / "search.csv"
    searched.write(path)
    with path.open(encoding="utf-8", newline="") as handle:
        header = next(csv.reader(handle))
    assert header == [name for name in DECLARED_COLUMNS if name in header]
    assert header[-4:] == ["oom_ranks", "oom_at_event", "static_pool_gib", "search_rank"]
    table_header = searched.to_text().splitlines()[2].split()
    assert table_header == [name for name in header if name != "description"]


def test_search_json_rows_keep_the_declared_key_order(tmp_path, preset_pairs):
    searched, _ = preset_pairs["moe-tiny"]
    path = tmp_path / "search.json"
    searched.write(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc) == list(searched.as_dict())
    for row in doc["rows"]:
        assert list(row) == [name for name in DECLARED_COLUMNS if name in row]
    assert list(doc["rows"][0])[:4] == ["point", "model", "config", "allocator"]


def test_search_rank_regression_gates(search_smoke_pair):
    """A candidate slipping in the ranking is a compare-gate regression."""
    searched, _ = search_smoke_pair
    worse = dataclass_replace(searched)
    worse.rows = [dict(row) for row in searched.rows]
    worse.rows[0] = dict(worse.rows[0], search_rank=worse.rows[0]["search_rank"] + 1)
    report = compare_results(searched.as_sweep_result(), worse.as_sweep_result())
    assert report.exit_code == 1
    assert any("search_rank" in reason for c in report.regressions for reason in c.regressions)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_search(tmp_path, capsys):
    from repro.cli import main

    assert main(["search", "--list"]) == 0
    assert "search-smoke" in capsys.readouterr().out

    assert main(["search"]) == 2  # spec required
    assert main(["search", "no-such-preset"]) == 2
    assert main(["search", "search-smoke", "--output", str(tmp_path / "x.txt")]) == 2
    assert main(["search", "--compare", "a.json", "b.json", "c.json"]) == 2
    assert main(["search", "search-smoke", "--compare", "a.json", "b.json"]) == 2
    capsys.readouterr()

    out = tmp_path / "search.json"
    assert main(["search", "search-smoke", "--no-cache", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "== search search-smoke:" in text
    assert "best:" in text
    # Rerun against the file just written: identical results, gate passes.
    assert main(["search", "search-smoke", "--no-cache", "--compare", str(out)]) == 0
    assert "0 regressed" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Bugfix regressions: binding rank, compare gate, capacity split
# --------------------------------------------------------------------- #
def test_budget_utilization_distinguishes_zero_from_unbudgeted():
    assert _budget_utilization(1.0, None) == 0.0
    assert _budget_utilization(1.0, 0) == float("inf")
    assert _budget_utilization(30.0, 40.0) == pytest.approx(0.75)


def _fake_run(peak_gib: float) -> ReplayResult:
    peak = int(peak_gib * GIB)
    return ReplayResult("torch2.3", peak_allocated_bytes=peak, peak_reserved_bytes=peak)


def test_binding_rank_honors_zero_budget():
    """A zero-budget class is maximally binding, not invisible (the old
    truthiness check made ``binding_utilization`` return None for it and
    ``binding_class_index`` fall back to the raw-peak rank)."""
    config = TrainingConfig(
        model=get_model("gpt-tiny"), parallelism=ParallelismConfig(pipeline_parallel=2)
    )
    job = JobRun(
        config=config,
        allocator_name="torch2.3",
        device_name="A800-80GB",
        rank_classes=[(0,), (1,)],
        class_runs=[_fake_run(50.0), _fake_run(1.0)],
        timeline=simulate_timeline(config, gpu="A800-80GB"),
        class_capacities=[80.0, 0.0],
    )
    assert job.binding_class_index == 1
    assert job.binding_rank == 1
    assert job.binding_utilization == float("inf")


@pytest.mark.parametrize("bad", [0, -1, "forty", True])
def test_run_job_validates_budgets(bad):
    config = TrainingConfig(model=get_model("gpt-tiny"), parallelism=ParallelismConfig())
    with pytest.raises(ValueError, match="positive GiB value"):
        run_job(config, "torch2.3", device_capacity_gib=bad)
    with pytest.raises(ValueError, match="positive GiB value"):
        run_job(config, "torch2.3", device_memory_by_rank={"0": bad})
    with pytest.raises(ValueError, match="positive GiB value"):
        validate_capacity_gib(bad)


def test_is_regression_excludes_booleans():
    """Mirrors _values_differ: a boolean metric value must never be diffed
    as 0/1 arithmetic (the old check let ``True -> False`` regress ``mfu``)."""
    assert _is_regression("mfu", True, False, 0.0) is False
    assert _is_regression("mfu", 0.5, False, 0.0) is False
    assert _is_regression("mfu", 0.5, 0.4, 0.0) is True
    assert _is_regression("tokens_per_second", 100.0, 90.0, 0.0) is True
    assert _is_regression("search_rank", 1, 2, 0.0) is True
    # Sanity: _values_differ keeps treating bools as plain (in)equality.
    assert _values_differ(True, False, 0.0) is True
    assert _values_differ(True, True, 0.0) is False


def test_split_classes_by_capacity_int_ranks():
    """Int-ranked classes with a partial budget map used to hit a TypeError
    (the sort key compared a rank against the empty tuple); the fixed key
    orders budgeted groups first (ascending) with unbudgeted groups trailing."""
    refined = split_classes_by_capacity([(0, 1, 2)], {"1": 40.0}, None)
    assert refined == [((1,), 40.0), ((0, 2), None)]

    refined = split_classes_by_capacity([(0, 1, 2)], {"0": 40.0, "1": 20.0}, None)
    assert refined == [((1,), 20.0), ((0,), 40.0), ((2,), None)]

    # Tuple-ranked classes follow the same ordering contract.
    refined = split_classes_by_capacity(
        [((0, 0), (0, 1))], {"0.1": 30.0}, None
    )
    assert refined == [(((0, 1),), 30.0), (((0, 0),), None)]


def test_setup_oom_is_an_oom_result():
    """STAlloc's static-pool reservation exceeding the device budget is an
    OOM *measurement* (failed before any event replayed), not a crash."""
    config = TrainingConfig(model=get_model("gpt-tiny"), parallelism=ParallelismConfig())
    run = run_workload(config, "stalloc", device_capacity_gib=0.01)
    assert run.success is False
    assert run.oom_at_event == -1
    assert run.oom_request_bytes > 0
    assert run.events_replayed == 0
    # ...and the planner surfaces it as an ordinary OOM row, not an exception.
    job = run_job(config, "stalloc", device_capacity_gib=0.01)
    assert job.success is False
