"""Tests for repro.obs: tracer, sinks, metrics, progress, summarize, wiring.

The integration layer runs small real sweeps; the differential test pins the
headline guarantee of the observability PR -- enabling tracing must not
change a single result row.
"""

from __future__ import annotations

import io
import json
import pickle
import time
from dataclasses import replace

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs import (
    OBS_FORMAT_VERSION,
    BufferSink,
    ChromeTraceSink,
    HistogramStat,
    MetricsRegistry,
    NDJSONSink,
    ProgressReporter,
    Tracer,
    load_events,
    meta_event,
    summarize_events,
    summarize_file,
    validate_event,
)
from repro.obs.progress import _format_eta
from repro.obs.tracer import (
    _CONTEXT,
    absorb,
    counter,
    current_tracer,
    install,
    is_enabled,
    shutdown,
    span,
    worker_observation,
    worker_spec,
)
from repro.simulator import ExecutionContext
from repro.sweep import SweepCache, SweepPointError, SweepSpec, run_sweep
from repro.sweep.engine import execute_points
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.tracegen import TraceGenerator
from tests.conftest import run_job


@pytest.fixture(autouse=True)
def _obs_isolation():
    """No test leaves a tracer installed."""
    yield
    shutdown()


def _stat(summary, *path: str):
    """The summary's aggregate for one exact name-path (``None`` when absent)."""
    return next((entry for entry in summary.tree if entry.path == path), None)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _tiny_spec(**overrides) -> SweepSpec:
    data = {
        "name": "obs-tiny",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "base": {"num_microbatches": 2},
        "grid": {"micro_batch_size": [1, 2]},
        "allocators": ["torch2.3", "stalloc"],
        "scale": 0.25,
    }
    data.update(overrides)
    return SweepSpec.from_dict(data)


# ---------------------------------------------------------------------- #
# Spans (fake clock)
# ---------------------------------------------------------------------- #
class TestSpans:
    def test_nesting_parenting_and_timing(self):
        clock = FakeClock()
        buffer = BufferSink()
        install(Tracer(sinks=[buffer], clock=clock))
        with span("sweep.run", spec="tiny") as outer:
            clock.advance(1.0)
            with span("sweep.point", point=0):
                clock.advance(0.25)
            outer.set(points=1)
        events = buffer.events
        assert [event["name"] for event in events] == ["sweep.point", "sweep.run"]
        inner, outer_event = events
        assert inner["parent"] == outer_event["span"]
        assert inner["depth"] == 1 and outer_event["depth"] == 0
        assert outer_event["parent"] is None
        assert inner["dur"] == pytest.approx(0.25)
        assert outer_event["dur"] == pytest.approx(1.25)
        assert inner["attrs"] == {"point": 0}
        assert outer_event["attrs"] == {"spec": "tiny", "points": 1}

    def test_siblings_share_a_parent(self):
        buffer = BufferSink()
        install(Tracer(sinks=[buffer], clock=FakeClock()))
        with span("root"):
            with span("a"):
                pass
            with span("b"):
                pass
        by_name = {event["name"]: event for event in buffer.events}
        assert by_name["a"]["parent"] == by_name["b"]["parent"] == by_name["root"]["span"]
        assert by_name["a"]["span"] != by_name["b"]["span"]

    def test_exception_records_error_attr_and_propagates(self):
        buffer = BufferSink()
        install(Tracer(sinks=[buffer], clock=FakeClock()))
        with pytest.raises(ValueError, match="boom"):
            with span("job.run"):
                raise ValueError("boom")
        assert buffer.events[0]["attrs"]["error"] == "ValueError: boom"

    def test_disabled_span_is_shared_noop(self):
        assert not is_enabled()
        first, second = span("a", x=1), span("b")
        assert first is second  # one shared object, no allocation per call
        with first as entered:
            entered.set(anything=1)
        counter("nope")
        obs.observe("nope", 1.0)
        assert current_tracer() is None

    def test_metrics_helpers_reach_installed_registry(self):
        install(Tracer(sinks=[], clock=FakeClock()))
        counter("cache.hit")
        counter("cache.hit", 2)
        obs.observe("rate", 10.0)
        obs.observe("rate", 30.0)
        snapshot = current_tracer().metrics.snapshot()
        assert snapshot["counters"] == {"cache.hit": 3}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"]["rate"]["mean"] == pytest.approx(20.0)


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_histogram_stat_merge(self):
        left, right = HistogramStat(), HistogramStat()
        for value in (1.0, 3.0):
            left.observe(value)
        right.observe(10.0)
        left.merge(right.as_dict())
        assert left.count == 3
        assert left.min == 1.0 and left.max == 10.0
        assert left.mean == pytest.approx(14.0 / 3)

    def test_merge_is_additive_for_counters_last_write_for_gauges(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.count("rows", 2)
        parent.gauges["depth"] = 1
        worker.count("rows", 3)
        worker.gauges["depth"] = 9
        worker.observe("rate", 5.0)
        parent.merge(worker.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"]["rows"] == 5
        assert snapshot["gauges"]["depth"] == 9
        assert snapshot["histograms"]["rate"]["count"] == 1

    def test_empty_registry_is_falsy(self):
        registry = MetricsRegistry()
        assert not registry
        registry.count("x")
        assert registry


# ---------------------------------------------------------------------- #
# NDJSON schema: round-trip and version guard
# ---------------------------------------------------------------------- #
class TestNDJSONSchema:
    def _trace_to(self, path):
        tracer = Tracer(sinks=[NDJSONSink(path, pid=11, started=1000.0)], clock=FakeClock())
        install(tracer)
        with span("sweep.run"):
            with span("sweep.point", point=0):
                counter("sweep.rows_done")
        shutdown()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "obs.ndjson"
        self._trace_to(path)
        events = load_events(path)
        kinds = [event["type"] for event in events]
        assert kinds == ["meta", "span", "span", "metrics"]
        meta = events[0]
        assert meta["obs_format_version"] == OBS_FORMAT_VERSION
        assert meta["pid"] == 11 and meta["started"] == 1000.0
        # Every line is compact single-line JSON.
        for line in path.read_text().splitlines():
            assert json.loads(line)

    def test_validate_rejects_unknown_type_and_missing_fields(self):
        with pytest.raises(ValueError, match="unknown obs event type"):
            validate_event({"type": "nope"})
        with pytest.raises(ValueError, match="missing required field"):
            validate_event({"type": "span", "name": "x"})
        with pytest.raises(ValueError, match="wrong type"):
            validate_event(dict(meta_event(1, 0.0), pid="one"))
        with pytest.raises(ValueError, match="wrong type"):
            validate_event(dict(meta_event(1, 0.0), pid=True))  # bools are not ints here

    def test_version_guard(self, tmp_path):
        assert validate_event(meta_event(1, 0.0)) is not None
        stale = dict(meta_event(1, 0.0), obs_format_version=OBS_FORMAT_VERSION + 1)
        with pytest.raises(ValueError, match="unsupported obs_format_version"):
            validate_event(stale)
        path = tmp_path / "stale.ndjson"
        path.write_text(json.dumps(stale) + "\n")
        with pytest.raises(ValueError, match="stale.ndjson:1"):
            load_events(path)

    def test_file_without_meta_header_rejected(self, tmp_path):
        path = tmp_path / "headless.ndjson"
        path.write_text("")
        with pytest.raises(ValueError, match="no 'meta' header"):
            load_events(path)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(json.dumps(meta_event(1, 0.0)) + "\nnot json\n")
        with pytest.raises(ValueError, match="bad.ndjson:2"):
            load_events(path)

    def test_negative_duration_rejected(self):
        event = {
            "type": "span", "name": "x", "span": 1, "parent": None,
            "pid": 1, "depth": 0, "start": 0.0, "dur": -0.5, "attrs": {},
        }
        with pytest.raises(ValueError, match="'dur' must be >= 0"):
            validate_event(event)


# ---------------------------------------------------------------------- #
# Chrome trace sink
# ---------------------------------------------------------------------- #
class TestChromeTraceSink:
    def test_writes_perfetto_compatible_container(self, tmp_path):
        path = tmp_path / "trace.json"
        clock = FakeClock(500.0)
        install(Tracer(sinks=[ChromeTraceSink(path)], clock=clock))
        with span("sweep.run"):
            clock.advance(0.5)
            with span("replay.trace"):
                clock.advance(0.25)
        shutdown()
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["obs_format_version"] == OBS_FORMAT_VERSION
        assert payload["otherData"]["spans"] == 2
        slices = [event for event in payload["traceEvents"] if event["ph"] == "X"]
        by_name = {event["name"]: event for event in slices}
        assert by_name["sweep.run"]["cat"] == "sweep"
        assert by_name["replay.trace"]["cat"] == "replay"
        # Rebased onto the earliest span: the root starts at 0 us.
        assert by_name["sweep.run"]["ts"] == pytest.approx(0.0)
        assert by_name["replay.trace"]["ts"] == pytest.approx(0.5e6)
        assert by_name["sweep.run"]["dur"] == pytest.approx(0.75e6)
        thread_names = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert any(name.startswith("main (pid ") for name in thread_names)


# ---------------------------------------------------------------------- #
# Worker protocol: spec / observation / absorb
# ---------------------------------------------------------------------- #
class TestWorkerProtocol:
    def test_spec_none_when_disabled(self):
        assert worker_spec() is None
        install(Tracer(sinks=[], clock=FakeClock()))
        assert worker_spec() == {"obs_format_version": OBS_FORMAT_VERSION}

    def test_observation_with_none_spec_is_inert(self):
        with worker_observation(None) as observation:
            assert not is_enabled()
        assert observation.delta is None

    def test_absorb_reparents_worker_roots(self):
        clock = FakeClock()
        buffer = BufferSink()
        parent = Tracer(sinks=[buffer], clock=clock)
        install(parent)
        with span("sweep.run") as run_span:
            # Simulate the worker side in-process: its spans buffer into a
            # delta instead of reaching the parent's sinks directly.
            with worker_observation(worker_spec()) as observation:
                with span("sweep.point"):
                    with span("job.run"):
                        counter("cache.miss", 3)
            absorb(observation.delta)
        names = [event["name"] for event in buffer.events]
        assert names == ["job.run", "sweep.point", "sweep.run"]
        point = next(e for e in buffer.events if e["name"] == "sweep.point")
        job = next(e for e in buffer.events if e["name"] == "job.run")
        # The worker's root was re-parented under the parent's open span.
        assert point["parent"] == run_span.span_id
        assert point["parent_pid"] == parent.pid
        assert point["depth"] == 1 and job["depth"] == 2
        # The worker-internal edge is untouched (no cross-process parent).
        assert job["parent"] == point["span"] and "parent_pid" not in job
        assert parent.metrics.snapshot()["counters"] == {"cache.miss": 3}

    def test_observation_resets_inherited_span_context(self):
        """Fork-started workers inherit the parent's open-span context.

        Regression test: without the reset, the worker's first span adopts a
        parent id minted by another process -- possibly its own fresh id,
        yielding a self-referencing span that breaks summarize.
        """
        install(Tracer(sinks=[BufferSink()], clock=FakeClock()))
        with span("sweep.run"):
            assert _CONTEXT.get() is not None  # what a forked child would see
            with worker_observation(worker_spec()) as observation:
                with span("sweep.point"):
                    pass
            assert _CONTEXT.get() is not None  # restored after the block
        (event,) = observation.delta["events"]
        assert event["parent"] is None and event["depth"] == 0
        assert event["span"] != event.get("parent")

    def test_span_ids_survive_tracer_reinstall(self):
        """Reused pool workers install a fresh tracer per task; (pid, span)
        keys must stay unique across tasks in one process."""
        seen = set()
        for _ in range(2):
            with worker_observation({"obs_format_version": OBS_FORMAT_VERSION}) as observation:
                with span("sweep.point"):
                    pass
            seen.add(observation.delta["events"][0]["span"])
        assert len(seen) == 2

    def test_absorb_is_noop_when_disabled(self):
        absorb({"events": [{"type": "span"}], "metrics": {}})  # must not raise


# ---------------------------------------------------------------------- #
# Progress reporter
# ---------------------------------------------------------------------- #
class TestProgress:
    def test_pipe_mode_emits_full_lines_on_jumps(self):
        stream = io.StringIO()
        clock = FakeClock(0.0)
        progress = ProgressReporter(0, label="sweep", stream=stream, clock=clock)
        progress.total = 4  # deferred total, as the CLI wires it
        progress.update(cache="50% hit")
        clock.advance(10.0)
        progress.update()
        progress.finish()
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("sweep: 1/4 rows (25%)")
        assert "ETA" in lines[0] and "cache 50% hit" in lines[0]
        assert lines[-1].startswith("sweep: 2/4 rows (50%)")

    def test_final_line_reports_elapsed(self):
        stream = io.StringIO()
        clock = FakeClock(0.0)
        progress = ProgressReporter(2, stream=stream, clock=clock)
        progress.update()
        clock.advance(3.0)
        progress.update()
        progress.finish()
        assert "2/2 rows (100%)" in stream.getvalue().splitlines()[-1]
        assert "3.0s" in stream.getvalue().splitlines()[-1]

    def test_disabled_and_zero_total_write_nothing(self):
        stream = io.StringIO()
        progress = ProgressReporter(5, stream=stream, enabled=False)
        progress.update()
        progress.finish()
        assert stream.getvalue() == ""
        silent = ProgressReporter(0, stream=stream)
        silent.update()
        silent.finish()
        assert stream.getvalue() == ""

    def test_format_eta(self):
        assert _format_eta(0) == "0:00"
        assert _format_eta(75) == "1:15"
        assert _format_eta(3725) == "1:02:05"
        assert _format_eta(float("inf")) == "--:--"
        assert _format_eta(float("nan")) == "--:--"


# ---------------------------------------------------------------------- #
# Summarize
# ---------------------------------------------------------------------- #
class TestSummarize:
    def _span(self, span_id, name, *, parent=None, pid=1, depth=0, start=0.0, dur=1.0, **extra):
        return {
            "type": "span", "name": name, "span": span_id, "parent": parent,
            "pid": pid, "depth": depth, "start": start, "dur": dur, "attrs": {},
            **extra,
        }

    def test_paths_aggregate_by_chain_not_bare_name(self):
        events = [
            meta_event(1, 0.0),
            self._span(1, "sweep.run", start=0.0, dur=4.0),
            self._span(2, "replay.trace", parent=1, depth=1, start=0.5, dur=1.0),
            self._span(3, "search.run", start=10.0, dur=2.0),
            self._span(4, "replay.trace", parent=3, depth=1, start=10.5, dur=0.5),
        ]
        summary = summarize_events(events)
        assert summary.spans == 4
        under_sweep = _stat(summary, "sweep.run", "replay.trace")
        under_search = _stat(summary, "search.run", "replay.trace")
        assert under_sweep.total_seconds == pytest.approx(1.0)
        assert under_search.total_seconds == pytest.approx(0.5)
        # Two roots, disjoint intervals -> wall time is their sum.
        assert summary.wall_seconds == pytest.approx(6.0)
        assert _stat(summary, "sweep.run").self_seconds == pytest.approx(3.0)

    def test_cross_process_parent_resolution(self):
        events = [
            meta_event(1, 0.0),
            self._span(1, "sweep.run", pid=1, dur=3.0),
            self._span(1, "sweep.point", parent=1, parent_pid=1, pid=77, depth=1, dur=1.0),
        ]
        summary = summarize_events(events)
        assert _stat(summary, "sweep.run", "sweep.point").count == 1

    def test_parent_cycle_degrades_instead_of_recursing(self):
        events = [
            meta_event(1, 0.0),
            self._span(1, "a", parent=2, dur=1.0),
            self._span(2, "b", parent=1, dur=1.0),
        ]
        summary = summarize_events(events)  # must not RecursionError
        assert summary.spans == 2
        assert {stat.path[0] for stat in summary.tree} <= {"a", "b"}

    def test_self_referencing_span_is_a_root(self):
        events = [meta_event(1, 0.0), self._span(1, "loop", parent=1, dur=2.0)]
        summary = summarize_events(events)
        assert _stat(summary, "loop").count == 1
        assert summary.wall_seconds == pytest.approx(2.0)

    def test_wall_seconds_unions_overlapping_roots(self):
        events = [
            meta_event(1, 0.0),
            self._span(1, "a", start=0.0, dur=2.0),
            self._span(2, "b", start=1.0, dur=2.0),
        ]
        assert summarize_events(events).wall_seconds == pytest.approx(3.0)

    def test_metrics_lines_merge(self):
        events = [
            meta_event(1, 0.0),
            {"type": "metrics", "pid": 1, "time": 1.0,
             "counters": {"cache.hit": 2}, "gauges": {}, "histograms": {}},
            {"type": "metrics", "pid": 2, "time": 2.0,
             "counters": {"cache.hit": 3}, "gauges": {}, "histograms": {}},
        ]
        summary = summarize_events(events)
        assert summary.metrics.counters["cache.hit"] == 5

    def test_text_and_dict_renderings(self):
        events = [
            meta_event(1, 0.0),
            self._span(1, "sweep.run", dur=1.0),
            {"type": "metrics", "pid": 1, "time": 1.0,
             "counters": {"rows": 4}, "gauges": {"depth": 2},
             "histograms": {"rate": {"count": 1, "total": 5.0, "min": 5.0,
                                     "max": 5.0, "mean": 5.0}}},
        ]
        summary = summarize_events(events)
        text = summary.to_text()
        assert "sweep.run" in text and "counters:" in text and "rate" in text
        payload = summary.as_dict()
        assert payload["spans"] == 1
        assert payload["tree"][0]["path"] == ["sweep.run"]
        assert payload["metrics"]["counters"]["rows"] == 4
        assert json.loads(json.dumps(payload)) == payload  # JSON-safe


# ---------------------------------------------------------------------- #
# No-op overhead
# ---------------------------------------------------------------------- #
class TestOverhead:
    def test_disabled_spans_are_near_free(self):
        assert not is_enabled()
        iterations = 100_000
        started = time.perf_counter()
        for _ in range(iterations):
            with span("hot.loop"):
                pass
            counter("hot.counter")
        elapsed = time.perf_counter() - started
        # Generous bound (~30x observed) so slow CI never flakes: the point
        # is catching a regression to per-call allocation or I/O.
        assert elapsed < 2.0, f"{iterations} disabled spans took {elapsed:.3f}s"


# ---------------------------------------------------------------------- #
# Sweep integration: aggregation, wall time, differential
# ---------------------------------------------------------------------- #
class TestSweepIntegration:
    def test_parallel_sweep_aggregates_one_tree(self, tmp_path):
        spec = _tiny_spec()
        path = tmp_path / "obs.ndjson"
        obs.configure(ndjson_path=path)
        result = run_sweep(spec, jobs=2, cache_dir=str(tmp_path / "cache"))
        shutdown()
        summary = summarize_file(path)  # validates every line on load
        counters = summary.metrics.counters
        assert counters["sweep.rows_done"] == len(result.rows) == 4
        assert counters["cache.miss"] > 0
        run_stat = _stat(summary, "sweep.run")
        assert run_stat is not None and run_stat.count == 1
        points = _stat(summary, "sweep.run", "sweep.point")
        assert points is not None and points.count == 4
        # Worker spans were absorbed: some spans come from other pids but
        # every one of them resolved under the parent's root.
        events = load_events(path)
        pids = {event["pid"] for event in events if event["type"] == "span"}
        assert len(pids) > 1
        assert all(stat.path[0] == "sweep.run" for stat in summary.tree)
        # sweep.run is the only root, so observed wall time is its duration;
        # it must agree with the engine's own elapsed measurement.
        assert summary.wall_seconds == pytest.approx(
            result.elapsed_seconds, rel=0.05, abs=0.05
        )

    def test_fully_cached_rerun_counts_hits(self, tmp_path):
        spec = _tiny_spec()
        cache_dir = str(tmp_path / "cache")
        run_sweep(spec, jobs=1, cache_dir=cache_dir)
        path = tmp_path / "obs.ndjson"
        obs.configure(ndjson_path=path)
        result = run_sweep(spec, jobs=1, cache_dir=cache_dir)
        shutdown()
        assert all(row["cached"] for row in result.rows)
        summary = summarize_file(path)
        assert summary.metrics.counters["cache.hit"] == 4
        assert summary.metrics.counters["sweep.rows_done"] == 4
        assert "cache.miss" not in summary.metrics.counters

    @staticmethod
    def _comparable(rows):
        # elapsed_seconds is wall-clock and cached depends on run order;
        # everything else must match to the byte.
        cleaned = [
            {k: v for k, v in row.items() if k not in ("elapsed_seconds", "cached")}
            for row in rows
        ]
        return json.dumps(cleaned, sort_keys=True)

    def test_observability_does_not_change_results(self, tmp_path):
        spec = _tiny_spec()
        baseline = run_sweep(spec, jobs=2, cache_dir=str(tmp_path / "cache-off"))
        obs.configure(
            ndjson_path=tmp_path / "obs.ndjson", chrome_path=tmp_path / "trace.json"
        )
        traced = run_sweep(spec, jobs=2, cache_dir=str(tmp_path / "cache-on"))
        shutdown()
        assert self._comparable(traced.rows) == self._comparable(baseline.rows)

    def test_plan_validation_has_its_own_span(self, tmp_path):
        """Every synthesis reports its self-check as a ``plan.validate`` child."""
        path = tmp_path / "obs.ndjson"
        obs.configure(ndjson_path=path)
        run_sweep(_tiny_spec(), jobs=1, cache_dir=None)
        shutdown()
        summary = summarize_file(path)
        by_name: dict[str, list] = {}
        for stat in summary.tree:
            by_name.setdefault(stat.name, []).append(stat)
        synthesized = sum(stat.count for stat in by_name["plan.synthesize"])
        assert synthesized == sum(stat.count for stat in by_name["plan.validate"]) > 0
        # Only ever directly under the synthesis it belongs to.
        assert all(stat.path[-2] == "plan.synthesize" for stat in by_name["plan.validate"])
        spans = [e for e in load_events(path) if e["type"] == "span"]
        decisions = [e["attrs"]["decisions"] for e in spans if e["name"] == "plan.validate"]
        assert len(decisions) == synthesized and all(count > 0 for count in decisions)

    def test_replay_histogram_recorded(self, tmp_path):
        spec = _tiny_spec(grid={"micro_batch_size": [1]}, allocators=["torch2.3"])
        path = tmp_path / "obs.ndjson"
        obs.configure(ndjson_path=path)
        run_sweep(spec, jobs=1, cache_dir=None)
        shutdown()
        stat = summarize_file(path).metrics.histograms["replay.events_per_sec"]
        assert stat.count > 0 and stat.max > 0

    def test_tracegen_histogram_recorded(self, tmp_path):
        """One ``tracegen.events_per_sec`` sample per generated trace, same trace either way."""
        spec = _tiny_spec(grid={"micro_batch_size": [1]}, allocators=["torch2.3"])
        point = spec.expand()[0]
        untraced = TraceGenerator(point.config, scale=point.scale).generate()
        path = tmp_path / "obs.ndjson"
        obs.configure(ndjson_path=path)
        traced = TraceGenerator(point.config, scale=point.scale).generate()
        run_sweep(spec, jobs=1, cache_dir=None)
        shutdown()
        assert traced.digest() == untraced.digest()
        summary = summarize_file(path)
        generated = sum(stat.count for stat in summary.tree if stat.name == "tracegen.generate")
        stat = summary.metrics.histograms["tracegen.events_per_sec"]
        assert stat.count == generated > 1 and stat.max > 0


# ---------------------------------------------------------------------- #
# Runner fan-out: the package's one pool reports back
# ---------------------------------------------------------------------- #
class TestRunnerFanOut:
    def test_worker_spans_and_metrics_survive_the_pool(self, tmp_path):
        """Regression: only the sweep pool shipped worker observations back,
        so ``run --jobs N --obs-out`` dropped every worker span and sample."""
        config = _tiny_spec().expand()[0].config  # pp=4: four representatives
        recorded = {}
        for jobs in (1, 2):
            path = tmp_path / f"obs-{jobs}.ndjson"
            obs.configure(ndjson_path=path)
            run_job(config, "stalloc", ranks="all", scale=0.25, ctx=ExecutionContext(jobs=jobs))
            shutdown()
            spans = [event for event in load_events(path) if event["type"] == "span"]
            names = sorted(event["name"] for event in spans)
            samples = summarize_file(path).metrics.histograms["replay.events_per_sec"].count
            recorded[jobs] = (names, samples, {event["pid"] for event in spans})
        assert recorded[1][:2] == recorded[2][:2]
        assert "replay.trace" in recorded[1][0] and recorded[1][1] >= 3
        assert len(recorded[1][2]) == 1 and len(recorded[2][2]) > 1  # really fanned out


# ---------------------------------------------------------------------- #
# Cache stats
# ---------------------------------------------------------------------- #
class TestCacheStats:
    def test_hit_rate_and_eviction_accounting(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = cache.result_key("f" * 40, {"allocator": "stalloc"})
        assert cache.load_result(key) is None  # miss
        cache.store_result(key, {"status": "ok"})
        assert cache.load_result(key) == {"status": "ok"}  # hit
        report = cache.cache_stats()
        assert report["hits"] == 1 and report["misses"] == 1
        assert report["hit_rate"] == pytest.approx(0.5)
        assert report["evicted_entries"] == 0
        pruned = cache.prune(max_bytes=0)
        report = cache.cache_stats()
        assert report["evicted_entries"] == pruned["lru_removed"] + pruned["stale_removed"] > 0
        assert report["evicted_bytes"] > 0

    def test_cache_counters_emitted_when_tracing(self, tmp_path):
        install(Tracer(sinks=[], clock=FakeClock()))
        cache = SweepCache(str(tmp_path))
        key = cache.result_key("f" * 40, {"allocator": "stalloc"})
        cache.load_result(key)
        cache.store_result(key, {"status": "ok"})
        cache.load_result(key)
        counters = current_tracer().metrics.snapshot()["counters"]
        assert counters == {"cache.hit": 1, "cache.miss": 1}


# ---------------------------------------------------------------------- #
# Per-point failure reporting
# ---------------------------------------------------------------------- #
class _BadSpec:
    """Duck-typed spec whose points fail validation inside run_job."""

    name = "bad-spec"

    def __init__(self, points):
        self._points = points

    def expand(self):
        return self._points


def _bad_points(count=2):
    points = _tiny_spec().expand()[:count]
    return [replace(point, device_capacity_gib=-1.0) for point in points]


class TestSweepPointError:
    def test_message_names_point_and_trace(self):
        error = SweepPointError("pp=4/mbs=2", "abcdef0123456789", "ValueError: nope")
        assert "pp=4/mbs=2" in str(error)
        assert "abcdef012345" in str(error)  # 12-char fingerprint prefix
        assert error.cause == "ValueError: nope"

    def test_pickle_round_trip(self):
        error = SweepPointError("label", "f" * 40, "ValueError: boom")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SweepPointError)
        assert (clone.label, clone.fingerprint, clone.cause) == (
            error.label, error.fingerprint, error.cause,
        )
        assert str(clone) == str(error)

    def test_serial_path_wraps_run_job_failures(self):
        point = _bad_points(1)[0]
        fingerprint = config_fingerprint(point.config, seed=point.seed, scale=point.scale)
        with pytest.raises(SweepPointError) as excinfo:
            execute_points([point])
        assert excinfo.value.label == point.row_label
        assert excinfo.value.fingerprint == fingerprint
        assert "ValueError" in excinfo.value.cause
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_worker_path_ships_labeled_error_across_pool(self):
        with pytest.raises(SweepPointError, match="sweep point"):
            run_sweep(_BadSpec(_bad_points(2)), jobs=2, cache_dir=None)


# ---------------------------------------------------------------------- #
# configure() and the CLI wiring
# ---------------------------------------------------------------------- #
class TestCLIWiring:
    def test_configure_none_installs_nothing(self):
        assert obs.configure() is None
        assert not is_enabled()

    def test_configure_installs_and_shutdown_uninstalls(self, tmp_path):
        tracer = obs.configure(ndjson_path=tmp_path / "obs.ndjson")
        assert tracer is current_tracer()
        shutdown()
        assert not is_enabled()
        assert load_events(tmp_path / "obs.ndjson")[0]["type"] == "meta"

    def test_sweep_then_summarize_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-tiny",
            "model": "gpt2-345m",
            "parallelism": {"pipeline_parallel": 2, "data_parallel": 2},
            "base": {"num_microbatches": 2},
            "grid": {"micro_batch_size": [1]},
            "allocators": ["torch2.3"],
            "scale": 0.25,
        }))
        obs_path = tmp_path / "obs.ndjson"
        rc = cli_main([
            "sweep", str(spec_path),
            "--cache-dir", str(tmp_path / "cache"),
            "--obs-out", str(obs_path),
            "--no-progress",
        ])
        assert rc == 0
        assert not is_enabled()  # the CLI shut the tracer down
        capsys.readouterr()
        assert cli_main(["obs", "summarize", str(obs_path)]) == 0
        text = capsys.readouterr().out
        assert "obs summary" in text and "sweep.run" in text
        assert cli_main(["obs", "summarize", str(obs_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["sweep.rows_done"] == 1

    @pytest.mark.parametrize("preset, stalloc_batched", [("job-smoke", True), ("ep-smoke", False)])
    def test_replay_spans_say_which_path_ran(self, preset, stalloc_batched, tmp_path, capsys):
        """Dense STAlloc replays are a plan lookup; MoE ones and the baselines walk events."""
        obs_path = tmp_path / "obs.ndjson"
        rc = cli_main([
            "sweep", preset, "--no-cache", "--obs-out", str(obs_path), "--no-progress",
        ])
        assert rc == 0
        capsys.readouterr()
        batched: dict[str, set] = {}
        for event in load_events(obs_path):
            if event["type"] == "span" and event["name"] == "replay.trace":
                attrs = event["attrs"]
                batched.setdefault(attrs["allocator"], set()).add(attrs["batched"])
        assert batched == {"stalloc": {stalloc_batched}, "torch2.3": {False}}

    def test_summarize_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = cli_main(["obs", "summarize", str(tmp_path / "missing.ndjson")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
