"""Tests for STAlloc's runtime allocator, trace replay, metrics and throughput model."""

from __future__ import annotations

import json

import pytest

from repro.allocators.base import AllocationHints
from repro.core.profiler import AllocationProfiler
from repro.core.stalloc import STAlloc, STAllocConfig
from repro.gpu.device import Device, GIB
from repro.simulator.replay import ReplayResult, replay_trace
from repro.simulator.runner import (
    STALLOC,
    STALLOC_NO_REUSE,
    run_jobs,
    run_workload,
)
from repro.sweep.spec import SweepPoint
from repro.gpu.specs import GPU_SPECS
from repro.simulator.throughput import ThroughputModel
from repro.timeline import TimelineResult, simulate_timeline
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig
from tests import throughput_oracle
from tests.conftest import run_job
from tests.trace_oracle import events_of


def lineup_runs(config, allocators, **options) -> dict:
    """Rank (0, 0) of ``config`` under each allocator, through one ``run_jobs`` call."""
    jobs = [(name, SweepPoint.build(config, name, ranks=None, **options)) for name in allocators]
    return {name: job.class_runs[0] for name, job, _ in run_jobs(jobs)}


# ---------------------------------------------------------------------- #
# Profiler
# ---------------------------------------------------------------------- #
class TestProfiler:
    def test_profile_counts(self, dense_trace):
        profile = AllocationProfiler().profile(dense_trace)
        assert profile.num_requests == dense_trace.num_requests
        grouped = sum(len(group.req_ids) for group in profile.dynamic_groups)
        assert grouped == sum(event.dyn for event in events_of(dense_trace) if event.is_alloc())
        assert profile.summary()["peak_allocated_bytes"] == dense_trace.peak_allocated_bytes()

    def test_summary_fields(self, moe_trace):
        summary = AllocationProfiler().profile(moe_trace).summary()
        assert summary["num_dynamic_requests"] > 0
        assert summary["static_bytes"] > summary["dynamic_bytes"]

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            AllocationProfiler(iterations=0)


# ---------------------------------------------------------------------- #
# STAlloc runtime allocator
# ---------------------------------------------------------------------- #
class TestRuntimeAllocator:
    def test_replay_of_profiled_trace_has_no_mismatches(self, dense_trace):
        stalloc = STAlloc.from_trace(dense_trace)
        device = Device(name="test", capacity=80 * GIB)
        allocator = stalloc.build_runtime_allocator(device)
        result = replay_trace(dense_trace, allocator)
        assert result.success
        assert result.allocator_stats["plan_mismatches"] == 0
        assert result.allocator_stats["fallback_allocs"] == 0

    def test_reserved_equals_pool_for_static_trace(self, dense_trace):
        stalloc = STAlloc.from_trace(dense_trace)
        device = Device(name="test", capacity=80 * GIB)
        allocator = stalloc.build_runtime_allocator(device)
        replay_trace(dense_trace, allocator)
        assert allocator.reserved_bytes == stalloc.plan.pool_size

    def test_memory_efficiency_beats_caching(self, dense_trace, tiny_dense_config):
        runs = lineup_runs(tiny_dense_config, ["torch2.3", STALLOC], device_name="A800-80GB")
        assert runs[STALLOC].memory_efficiency >= runs["torch2.3"].memory_efficiency
        assert runs[STALLOC].memory_efficiency > 0.95

    def test_moe_dynamic_requests_are_served(self, moe_trace):
        stalloc = STAlloc.from_trace(moe_trace)
        device = Device(name="test", capacity=200 * GIB)
        allocator = stalloc.build_runtime_allocator(device)
        result = replay_trace(moe_trace, allocator)
        assert result.success
        stats = result.allocator_stats
        assert stats["dynamic_pool_bytes"] + stats["dynamic_fallback_bytes"] > 0

    def test_dynamic_reuse_reduces_fallback(self, moe_trace):
        device_a = Device(name="a", capacity=200 * GIB)
        device_b = Device(name="b", capacity=200 * GIB)
        with_reuse = STAlloc.from_trace(moe_trace).build_runtime_allocator(device_a)
        without_reuse = STAlloc.from_trace(
            moe_trace, STAllocConfig(enable_dynamic_reuse=False)
        ).build_runtime_allocator(device_b)
        result_with = replay_trace(moe_trace, with_reuse)
        result_without = replay_trace(moe_trace, without_reuse)
        assert (
            result_with.allocator_stats["fallback_bytes"]
            <= result_without.allocator_stats["fallback_bytes"]
        )
        assert result_with.peak_reserved_bytes <= result_without.peak_reserved_bytes

    def test_unexpected_request_falls_back(self, dense_trace):
        stalloc = STAlloc.from_trace(dense_trace)
        device = Device(name="test", capacity=80 * GIB)
        allocator = stalloc.build_runtime_allocator(device)
        allocator.allocate(10_000_000, 4096, AllocationHints())  # never profiled
        assert allocator.stats.plan_mismatches == 1
        assert allocator.stats.fallback_allocs == 1
        allocator.free(10_000_000)

    def test_size_mismatch_falls_back_without_stomping(self, dense_trace):
        stalloc = STAlloc.from_trace(dense_trace)
        device = Device(name="test", capacity=80 * GIB)
        allocator = stalloc.build_runtime_allocator(device)
        first_alloc = next(e for e in events_of(dense_trace) if e.is_alloc())
        allocator.allocate(first_alloc.req_id, first_alloc.size + 512, AllocationHints())
        assert allocator.stats.plan_mismatches == 1

    def test_planning_report(self, dense_trace):
        stalloc = STAlloc.from_trace(dense_trace)
        report = stalloc.planning_report()
        assert report["num_requests"] == dense_trace.num_requests
        assert report["static_pool_bytes"] == stalloc.plan.pool_size
        assert report["plan_overhead_ratio"] >= 1.0

    def test_planning_report_is_derived_once_per_instance(self, dense_trace, monkeypatch):
        """The cache write and the result row share one derivation and one count."""
        from repro.core.profiler import ProfileResult

        calls = {"summary": 0, "counts": 0}
        summary = ProfileResult.summary
        counts = ProfileResult._counts

        def counted_summary(self):
            calls["summary"] += 1
            return summary(self)

        def counted_counts(self):
            """A call that finds no memo walks the requests."""
            calls["counts"] += self._counted is None
            return counts(self)

        monkeypatch.setattr(ProfileResult, "summary", counted_summary)
        monkeypatch.setattr(ProfileResult, "_counts", counted_counts)
        stalloc = STAlloc.from_trace(dense_trace)
        document = json.loads(stalloc.dumps())
        report = stalloc.planning_report()
        # Total peak, counts and byte totals: one pass.
        assert calls == {"summary": 1, "counts": 1}
        assert dense_trace.peak_allocated_bytes() == report["peak_allocated_bytes"]
        assert stalloc.profile.peak_static_bytes() == report["peak_static_demand_bytes"]
        assert calls["counts"] == 1
        # Only the fresh instance knows how long synthesis took; it is not stored.
        assert report.pop("synthesis_seconds") == stalloc.plan.synthesis_seconds
        assert "synthesis_seconds" not in json.dumps(document)
        assert document["report"] == report and document["report"] is not report
        report["num_requests"] = -1  # callers own their copy
        assert stalloc.planning_report()["num_requests"] == dense_trace.num_requests
        # Key for key what a from-scratch derivation gives, in the same order.
        expected = dict(stalloc.plan.synthesis_info)
        expected.update(summary(stalloc.profile))
        expected["plan_overhead_ratio"] = stalloc.plan.pool_size / max(
            expected["peak_static_demand_bytes"], 1
        )
        assert list(document["report"].items()) == list(expected.items())
        assert STAlloc.from_json_dict(document).planning_report() == expected


# ---------------------------------------------------------------------- #
# Metrics / replay
# ---------------------------------------------------------------------- #
class TestReplayResult:
    def test_efficiency_and_fragmentation(self):
        result = ReplayResult("torch2.3", peak_allocated_bytes=80, peak_reserved_bytes=100)
        assert result.memory_efficiency == pytest.approx(0.8)
        assert result.fragmentation_ratio == pytest.approx(0.2)

    def test_zero_reserved_is_perfect(self):
        assert ReplayResult("torch2.3", 0, 0).memory_efficiency == 1.0

    def test_negative_rejected(self):
        for peaks in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                ReplayResult("torch2.3", *peaks)

    def test_success_is_no_oom_on_every_path(self, dense_trace):
        from repro.allocators.caching import CachingAllocator

        big = Device(name="big", capacity=200 * GIB)
        tiny = Device(name="tiny", capacity=1 * GIB)
        runtime = STAlloc.from_trace(dense_trace).build_runtime_allocator(big)
        answers = []
        batch_replay = runtime.batch_replay

        def spy(trace, stop_on_oom=True):
            answers.append(batch_replay(trace, stop_on_oom=stop_on_oom))
            return answers[-1]

        runtime.batch_replay = spy
        batched = replay_trace(dense_trace, runtime)
        assert answers == [dense_trace.num_events]
        results = {
            "batch": batched,
            "event loop": replay_trace(dense_trace, CachingAllocator(big)),
            "event loop OOM": replay_trace(dense_trace, CachingAllocator(tiny)),
            "stop_on_oom=False": replay_trace(
                dense_trace, CachingAllocator(tiny), stop_on_oom=False
            ),
        }
        config = TrainingConfig(model=get_model("gpt-tiny"), parallelism=ParallelismConfig())
        results["setup OOM"] = run_workload(config, STALLOC, device_capacity_gib=0.01)
        for path, result in results.items():
            assert result.success == (result.oom_at_event is None), path
        assert [result.success for result in results.values()] == [
            True, True, False, False, False
        ]
        setup = results["setup OOM"]
        assert setup.oom_at_event == -1
        assert setup.peak_allocated_bytes == setup.peak_reserved_bytes == 0
        assert setup.planning_report == {}

    @pytest.mark.parametrize("preset", ["ep-comm-smoke", "gen-smoke"])
    def test_trace_peaks_ride_on_every_class_run(self, preset):
        from repro.simulator import ExecutionContext
        from repro.sweep.spec import load_spec
        from repro.workloads.parallelism import normalize_rank

        ctx = ExecutionContext()
        peaks = {"comm": 0, "kv": 0}
        for point, job, _ in run_jobs([(p, p) for p in load_spec(preset).expand()], ctx=ctx):
            assert bool(job.class_runs[0].planning_report) == (point.allocator == STALLOC)
            for members, run in zip(job.rank_classes, job.class_runs):
                pp, ep = normalize_rank(members[0])
                trace = ctx.trace(
                    point.config, seed=point.seed, scale=point.scale, rank=pp, ep_rank=ep
                )
                assert run.comm_peak_bytes == trace.comm_peak_bytes()
                assert run.kv_peak_bytes == trace.kv_peak_bytes()
                peaks["comm"] = max(peaks["comm"], run.comm_peak_bytes)
                peaks["kv"] = max(peaks["kv"], run.kv_peak_bytes)
        assert peaks["comm" if preset == "ep-comm-smoke" else "kv"] > 0


class TestReplay:
    def test_replay_counts_events(self, dense_trace, device):
        from repro.allocators.caching import CachingAllocator

        allocator = CachingAllocator(Device(name="big", capacity=200 * GIB))
        result = replay_trace(dense_trace, allocator)
        assert result.success
        assert result.events_replayed == dense_trace.num_events
        assert result.peak_allocated_bytes == dense_trace.peak_allocated_bytes()

    def test_replay_detects_oom(self, dense_trace):
        from repro.allocators.caching import CachingAllocator

        tiny = Device(name="tiny", capacity=1 * GIB)
        allocator = CachingAllocator(tiny)
        result = replay_trace(dense_trace, allocator)
        assert not result.success
        assert result.oom_at_event is not None
        assert result.oom_request_bytes > 0

    def test_replay_continue_after_oom(self, dense_trace):
        from repro.allocators.caching import CachingAllocator

        tiny = Device(name="tiny", capacity=1 * GIB)
        allocator = CachingAllocator(tiny)
        result = replay_trace(dense_trace, allocator, stop_on_oom=False)
        assert not result.success
        assert result.events_replayed > 0


# ---------------------------------------------------------------------- #
# Throughput model
# ---------------------------------------------------------------------- #
class TestThroughputModel:
    def _config(self, **kwargs) -> TrainingConfig:
        defaults = dict(
            model=get_model("qwen2.5-14b"),
            parallelism=ParallelismConfig(tensor_parallel=2, pipeline_parallel=2, data_parallel=4,
                                          virtual_pipeline_chunks=kwargs.pop("vpp", 1)),
            micro_batch_size=1,
            num_microbatches=8,
        )
        defaults.update(kwargs)
        return TrainingConfig(**defaults)

    @staticmethod
    def _estimate(config, gpu="H200-141GB", overhead=0.0):
        return simulate_timeline(config, gpu=gpu, allocator_overhead_seconds=overhead)

    def _tflops(self, config, **kwargs) -> float:
        return self._estimate(config, **kwargs).tflops_per_gpu

    def test_recompute_lowers_reported_tflops(self):
        assert self._tflops(self._config(recompute=True)) < self._tflops(self._config())

    def test_vpp_raises_tflops(self):
        assert self._tflops(self._config(vpp=2)) > self._tflops(self._config())

    def test_larger_tp_lowers_tflops(self):
        tp4 = self._config()
        tp4 = tp4.with_(parallelism=ParallelismConfig(tensor_parallel=4, pipeline_parallel=2, data_parallel=2))
        assert self._tflops(tp4) < self._tflops(self._config())

    def test_table1_ordering(self):
        """Original (VPP) > disable VPP > TP=4 and recompute (Table 1)."""
        original = self._tflops(self._config(vpp=2))
        no_vpp = self._tflops(self._config())
        recompute = self._tflops(self._config(recompute=True))
        tp4 = self._tflops(
            self._config().with_(
                parallelism=ParallelismConfig(tensor_parallel=4, pipeline_parallel=2, data_parallel=2)
            )
        )
        assert original > no_vpp > recompute
        assert original > tp4 > recompute

    def test_allocator_overhead_reduces_throughput(self):
        config = self._config()
        assert self._tflops(config, gpu="A800-80GB", overhead=5.0) < self._tflops(
            config, gpu="A800-80GB"
        )

    def test_bubble_fraction_shrinks_with_vpp(self):
        assert (
            self._estimate(self._config(vpp=2), gpu="A800-80GB").bubble_fraction
            < self._estimate(self._config(), gpu="A800-80GB").bubble_fraction
        )

    def test_tflops_below_peak(self):
        assert self._tflops(self._config()) < GPU_SPECS["H200-141GB"].peak_tflops

    # ------------------------------------------------------------------ #
    # Edge cases
    # ------------------------------------------------------------------ #
    def test_pp1_has_zero_bubble(self):
        config = self._config().with_(
            parallelism=ParallelismConfig(tensor_parallel=2, data_parallel=4)
        )
        assert self._estimate(config, gpu="A800-80GB").bubble_fraction < 1e-12

    def test_tp1_has_no_communication_penalty(self):
        model = ThroughputModel()
        config = self._config().with_(
            parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=4)
        )
        assert model.communication_multiplier(config) == 1.0

    @staticmethod
    def _result(iteration_seconds: float, peak_tflops: float) -> TimelineResult:
        return TimelineResult(
            gpu_name="A800-80GB",
            description="",
            ranks=[],
            iteration_seconds=iteration_seconds,
            model_flops_per_iteration=1e12,
            num_gpus=8,
            tokens_per_iteration=1024,
            peak_tflops=peak_tflops,
        )

    def test_zero_time_guards(self):
        """A degenerate result (zero iteration time) must report zero
        throughput instead of dividing by zero."""
        result = self._result(0.0, peak_tflops=100.0)
        assert result.tflops_per_gpu == 0.0
        assert result.tokens_per_second == 0.0
        assert result.mfu == 0.0

    def test_mfu_requires_a_known_peak(self):
        assert self._result(1.0, peak_tflops=100.0).mfu == pytest.approx(1.25e-3)
        assert self._result(1.0, peak_tflops=0.0).mfu == 0.0

    @pytest.mark.parametrize("overhead", [0.0, 0.0123, 0.5])
    def test_row_mfu_is_tflops_over_peak_bit_for_bit(self, overhead):
        result = self._estimate(self._config(), gpu="A800-80GB", overhead=overhead)
        assert result.mfu == result.tflops_per_gpu / result.peak_tflops

    def test_estimate_records_bubble_and_peak(self):
        config = self._config()
        estimate = self._estimate(config, gpu="A800-80GB")
        assert estimate.comm_seconds == 0.0
        assert estimate.bubble_fraction == pytest.approx(
            throughput_oracle.pipeline_bubble_fraction(config)
        )
        assert estimate.peak_tflops == GPU_SPECS["A800-80GB"].peak_tflops


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
class TestRunner:
    def test_run_workload_baseline(self, tiny_dense_config):
        run = run_workload(tiny_dense_config, "torch2.3", device_name="A800-80GB")
        assert run.success
        assert 0.0 < run.memory_efficiency <= 1.0

    def test_run_workload_stalloc_has_planning_report(self, tiny_dense_config):
        run = run_workload(tiny_dense_config, STALLOC, device_name="A800-80GB")
        assert run.planning_report["static_pool_bytes"] > 0

    def test_run_job_with_throughput(self, tiny_dense_config):
        job = run_job(tiny_dense_config, "torch2.3", ranks=None)
        assert job.timeline.tflops_per_gpu > 0

    def test_lineup_shares_trace(self, tiny_dense_config):
        runs = lineup_runs(tiny_dense_config, ["torch2.0", "torch2.3"], device_name="A800-80GB")
        assert set(runs) == {"torch2.0", "torch2.3"}
        assert runs["torch2.0"].peak_allocated_bytes == runs[
            "torch2.3"
        ].peak_allocated_bytes

    def test_custom_capacity_forces_oom(self, tiny_dense_config):
        run = run_workload(tiny_dense_config, "torch2.3", device_name="A800-80GB", device_capacity_gib=1)
        assert not run.success

    def test_stalloc_no_reuse_variant(self, tiny_moe_config):
        run = run_workload(tiny_moe_config, STALLOC_NO_REUSE, device_name="A800-80GB")
        assert run.success
