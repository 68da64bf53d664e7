"""Smoke tests for every experiment harness and the CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import ExperimentResult, available_experiments, run_experiment

ALL_EXPERIMENTS = [
    "fig1b",
    "fig2",
    "fig3",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8_gmlake_fraglimit",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table1",
    "table2",
    "table3",
]

#: Every experiment's rows and notes, quick and full, recorded before the
#: figures moved onto ``run_jobs``; table2's wall-clock ``t_plan_s`` is
#: omitted (listed under ``omitted_columns``).
GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_experiment_rows.json").read_text()
)


def assert_matches_golden(result: ExperimentResult, mode: str) -> None:
    omitted = GOLDEN["omitted_columns"].get(result.experiment_id, [])
    rows = [{k: v for k, v in row.items() if k not in omitted} for row in result.rows]
    # A JSON round trip turns tuples into lists, as the fixture stores them.
    actual = json.loads(json.dumps({"rows": rows, "notes": result.notes}))
    assert actual == GOLDEN[mode][result.experiment_id]


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        registered = available_experiments()
        for experiment_id in ALL_EXPERIMENTS:
            assert experiment_id in registered

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")


def test_golden_covers_every_experiment():
    assert sorted(GOLDEN["quick"]) == sorted(GOLDEN["full"]) == available_experiments()


@pytest.mark.parametrize("experiment_id", available_experiments())
def test_experiment_quick_run(experiment_id):
    """Every experiment runs in quick mode, produces well-formed rows and
    reproduces its recorded table value for value."""
    result = run_experiment(experiment_id, quick=True)
    assert_matches_golden(result, "quick")
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.rows, f"{experiment_id} produced no rows"
    text = result.to_text()
    assert experiment_id in text
    # Every row shares the same schema family (no missing primary column).
    first_columns = set(result.rows[0])
    for row in result.rows:
        assert set(row) == first_columns


@pytest.mark.slow
@pytest.mark.parametrize("experiment_id", available_experiments())
def test_experiment_full_run_matches_golden(experiment_id):
    assert_matches_golden(run_experiment(experiment_id), "full")


class TestExperimentContent:
    def test_fig2_efficiency_within_bounds(self):
        result = run_experiment("fig2", quick=True)
        for row in result.rows:
            assert 0 < row["memory_efficiency_pct"] <= 100

    def test_fig3_spatial_regularity(self):
        result = run_experiment("fig3", quick=True)
        for row in result.rows:
            assert row["distinct_sizes"] < 64
            assert row["num_allocations"] > row["distinct_sizes"]

    def test_fig8a_stalloc_wins(self):
        result = run_experiment("fig8a", quick=True)
        by_allocator: dict[str, list[float]] = {}
        for row in result.rows:
            by_allocator.setdefault(row["allocator"], []).append(row["memory_efficiency_pct"])
        stalloc_avg = sum(by_allocator["stalloc"]) / len(by_allocator["stalloc"])
        torch_avg = sum(by_allocator["torch2.3"]) / len(by_allocator["torch2.3"])
        assert stalloc_avg >= torch_avg
        assert stalloc_avg > 95

    def test_fig13_breakdown_ordering(self):
        result = run_experiment("fig13", quick=True)
        by_config: dict[str, dict[str, float]] = {}
        for row in result.rows:
            by_config.setdefault(row["config"], {})[row["allocator"]] = row["memory_efficiency_pct"]
        for allocators in by_config.values():
            assert allocators["STAlloc"] >= allocators["STAlloc w/o reuse"] - 0.2
            assert allocators["STAlloc"] >= allocators["Caching Allocator"] - 0.2

    def test_table1_reports_throughput(self):
        result = run_experiment("table1", quick=True)
        assert all(row["throughput_tflops"] > 0 for row in result.rows)

    def test_table2_plan_time_positive(self):
        result = run_experiment("table2", quick=True)
        for row in result.rows:
            assert row["t_plan_s"] >= 0
            assert row["num_requests"] > 0

    def test_table3_static_below_total(self):
        result = run_experiment("table3", quick=True)
        for row in result.rows:
            assert row["static_gib"] <= row["total_gib"] + 1e-6

    def test_fig12_stalloc_overhead_negligible(self):
        result = run_experiment("fig12", quick=True)
        stalloc_rows = [row for row in result.rows if row["allocator"] == "stalloc"]
        assert stalloc_rows
        for row in stalloc_rows:
            assert row["normalized_throughput_pct"] > 99.0


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8a" in out and "table3" in out

    def test_run_single_quick(self, capsys):
        assert main(["run", "fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "GPT-2 memory efficiency" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(ValueError):
            main(["run", "fig99"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_timeline_summary(self, capsys):
        assert main(["timeline", "gpt-tiny", "--pp", "2", "--microbatches", "4"]) == 0
        out = capsys.readouterr().out
        assert "iteration_seconds" in out
        assert "binding_rank" in out

    def test_timeline_unknown_model(self, capsys):
        assert main(["timeline", "no-such-model"]) == 2
        assert "error" in capsys.readouterr().err

    def test_timeline_rejects_bad_parallelism(self, capsys):
        assert main(["timeline", "gpt-tiny", "--pp", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_timeline_chrome_trace_export(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "timeline.json"
        assert (
            main(
                [
                    "timeline", "moe-tiny", "--pp", "2", "--ep", "2",
                    "--microbatches", "2", "--comm-factor", "1.0",
                    "--trace-out", str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        events = payload["traceEvents"]
        names = {event["name"] for event in events if event["ph"] != "M"}
        assert {"forward", "backward", "a2a_dispatch", "a2a_combine"} <= names
        slices = [event for event in events if event["ph"] == "X"]
        assert slices and all(event["dur"] > 0 for event in slices)
        # One thread row per (pp, ep) coordinate, each labelled by metadata.
        thread_names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert thread_names == {"pp0/ep0", "pp0/ep1", "pp1/ep0", "pp1/ep1"}
        # Slice count matches the simulation's event count.
        instants = [event for event in events if event["ph"] == "i"]
        from repro.timeline import simulate_timeline
        from repro.workloads.models import get_model
        from repro.workloads.parallelism import ParallelismConfig
        from repro.workloads.training import TrainingConfig

        result = simulate_timeline(
            TrainingConfig(
                model=get_model("moe-tiny"),
                parallelism=ParallelismConfig(
                    pipeline_parallel=2, data_parallel=1, expert_parallel=2
                ),
                micro_batch_size=1,
                num_microbatches=2,
                moe_comm_factor=1.0,
            )
        )
        assert len(slices) + len(instants) == result.num_events
