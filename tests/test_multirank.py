"""Multi-rank job-level simulation: schedules, equivalence classes, run_job,
and the job-level sweep rows."""

from __future__ import annotations

import pytest

from repro.allocators.registry import create_allocator
from repro.core.events import PhaseKind
from repro.gpu.device import Device, GIB
from repro.simulator import ExecutionContext
from repro.simulator.ranks import resolve_job_ranks
from repro.simulator.replay import replay_trace
from repro.simulator.runner import run_workload
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.engine import point_result_key
from repro.sweep.cache import SweepCache
from repro.workloads.memory_model import MemoryModel
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.schedule import one_f_one_b
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig, preset_config
from tests.conftest import run_job
from tests.trace_oracle import events_of


def _pp4_config(preset: str = "Naive", *, num_microbatches: int = 4) -> TrainingConfig:
    return preset_config(
        get_model("gpt2-345m"),
        preset,
        parallelism=ParallelismConfig(pipeline_parallel=4, data_parallel=2),
        micro_batch_size=2,
        num_microbatches=num_microbatches,
    )


def _events_signature(config, rank, *, seed=0, scale=0.25):
    trace = TraceGenerator(config, seed=seed, scale=scale, rank=rank).generate()
    return tuple((e.kind, e.req_id, e.size, e.tag) for e in events_of(trace))


# ---------------------------------------------------------------------- #
# Rank-aware schedules
# ---------------------------------------------------------------------- #
class TestRankSchedules:
    def test_every_rank_runs_every_microbatch(self):
        for rank in range(4):
            phases = one_f_one_b(4, 8, rank)
            forwards = [p.microbatch for p in phases if p.kind is PhaseKind.FORWARD]
            backwards = [p.microbatch for p in phases if p.kind is PhaseKind.BACKWARD]
            assert sorted(forwards) == list(range(8))
            assert sorted(backwards) == list(range(8))

    def test_warmup_shrinks_with_rank(self):
        def warmup(rank):
            phases = one_f_one_b(4, 8, rank)
            count = 0
            for phase in phases:
                if phase.kind is not PhaseKind.FORWARD:
                    break
                count += 1
            return count

        assert [warmup(rank) for rank in range(4)] == [4, 3, 2, 1]

    def test_last_stage_alternates_immediately(self):
        phases = one_f_one_b(4, 8, 3)
        assert phases[0].kind is PhaseKind.FORWARD
        assert phases[1].kind is PhaseKind.BACKWARD

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            one_f_one_b(4, 8, 4)
        with pytest.raises(ValueError, match="rank"):
            one_f_one_b(4, 8, -1)


# ---------------------------------------------------------------------- #
# Rank equivalence classes
# ---------------------------------------------------------------------- #
class TestRankEquivalence:
    def test_classes_partition_all_ranks(self):
        par = ParallelismConfig(pipeline_parallel=8)
        classes = par.rank_equivalence_classes(2)
        flattened = sorted(rank for cls in classes for rank in cls)
        assert flattened == list(range(8))

    def test_few_microbatches_collapse_middle_stages(self):
        par = ParallelismConfig(pipeline_parallel=8)
        assert par.rank_equivalence_classes(2) == [(0,), (1, 2, 3, 4, 5, 6), (7,)]
        # With m >= p every stage holds a different number of in-flight
        # micro-batches, so every rank is its own class.
        assert par.rank_equivalence_classes(8) == [(r,) for r in range(8)]

    def test_class_members_generate_identical_event_streams(self):
        par = ParallelismConfig(pipeline_parallel=8)
        config = preset_config(
            get_model("gpt2-345m"), "Naive", parallelism=par,
            micro_batch_size=1, num_microbatches=2,
        )
        for cls in par.rank_equivalence_classes(2):
            signatures = {_events_signature(config, rank) for rank in cls}
            assert len(signatures) == 1, f"class {cls} not memory-equivalent"

    def test_distinct_classes_generate_distinct_streams(self):
        config = _pp4_config(num_microbatches=2)
        par = config.parallelism
        representatives = [cls[0] for cls in par.rank_equivalence_classes(2)]
        signatures = [_events_signature(config, rank) for rank in representatives]
        assert len(set(signatures)) == len(signatures)


# ---------------------------------------------------------------------- #
# Rank-aware memory model / fingerprints (the cache-collision bugfix)
# ---------------------------------------------------------------------- #
class TestRankPlumbing:
    def test_fingerprint_distinguishes_ranks(self):
        config = _pp4_config()
        prints = {config_fingerprint(config, seed=0, scale=0.25, rank=r) for r in range(4)}
        assert len(prints) == 4

    def test_trace_metadata_records_rank_and_version(self):
        config = _pp4_config()
        trace = TraceGenerator(config, scale=0.25, rank=2).generate()
        assert trace.metadata.rank == 2
        assert trace.metadata.tracegen_version >= 2

    def test_last_stage_holds_lm_head_and_logits(self):
        config = _pp4_config()
        last = MemoryModel(config, rank=3)
        tags = {spec.tag for spec in last.persistent_tensors()}
        assert "lm_head.weight" in tags and "lm_head.grad" in tags
        assert "embedding.weight" not in tags
        first = MemoryModel(config, rank=0)
        first_tags = {spec.tag for spec in first.persistent_tensors()}
        assert "embedding.weight" in first_tags and "lm_head.weight" not in first_tags
        assert last.logits_activation().size > last.pipeline_recv_buffer().size

    def test_cache_serves_per_rank_traces_separately(self, tmp_path):
        """Regression: a trace cached for rank 0 must not satisfy rank 3."""
        config = _pp4_config()
        cache = SweepCache(tmp_path)
        trace0 = cache.get_trace(config, seed=0, scale=0.25, rank=0)
        trace3 = cache.get_trace(config, seed=0, scale=0.25, rank=3)
        assert cache.stats.trace_misses == 2  # no collision: both generated
        assert trace0.digest() != trace3.digest()
        for rank in (0, 3):
            path = cache.trace_path(config_fingerprint(config, seed=0, scale=0.25, rank=rank))
            assert path.exists()

    def test_run_workload_plumbs_rank(self, tmp_path):
        """Regression: run_workload simulated rank 0 no matter the rank asked."""
        config = _pp4_config("R")
        ctx = ExecutionContext(cache_dir=tmp_path)
        rank0 = run_workload(config, "torch2.3", scale=0.25, rank=0, ctx=ctx)
        rank3 = run_workload(config, "torch2.3", scale=0.25, rank=3, ctx=ctx)
        for rank, run in ((0, rank0), (3, rank3)):
            device = Device(name="A800-80GB", capacity=80 * GIB, reserved_overhead=0)
            trace = ctx.trace(config, scale=0.25, rank=rank)
            assert run == replay_trace(trace, create_allocator("torch2.3", device))
        assert rank0.peak_allocated_gib != rank3.peak_allocated_gib


# ---------------------------------------------------------------------- #
# Job-level aggregation invariants
# ---------------------------------------------------------------------- #
class TestRunJob:
    def test_resolve_job_ranks(self):
        config = _pp4_config(num_microbatches=2)
        assert resolve_job_ranks(config, None) == [(0,)]
        assert resolve_job_ranks(config, "all") == [(0,), (1, 2), (3,)]
        assert resolve_job_ranks(config, [0, 2]) == [(0,), (2,)]
        with pytest.raises(ValueError, match="out of range"):
            resolve_job_ranks(config, [4])
        with pytest.raises(ValueError, match="not be empty"):
            resolve_job_ranks(config, [])
        with pytest.raises(ValueError, match="'all'"):
            resolve_job_ranks(config, "some")

    def test_job_peak_is_max_over_ranks(self):
        config = _pp4_config()
        job = run_job(config, "torch2.3", ranks="all", scale=0.25)
        per_rank = {
            rank: run_workload(config, "torch2.3", scale=0.25, rank=rank)
            for rank in range(4)
        }
        peaks = [r.peak_allocated_gib for r in per_rank.values()]
        assert job.peak_allocated_gib == pytest.approx(max(peaks))
        assert job.mean_peak_allocated_gib == pytest.approx(sum(peaks) / len(peaks))
        assert job.binding_rank == max(per_rank, key=lambda r: per_rank[r].peak_allocated_gib)

    def test_dedup_matches_exhaustive_ranks(self):
        """Deduplicated execution must report exactly what exhaustive would."""
        config = _pp4_config(num_microbatches=2)  # ranks 1 and 2 collapse
        job = run_job(config, "torch2.3", ranks="all", scale=0.25)
        assert job.num_ranks == 4
        assert len(job.class_runs) == 3  # fewer replays than ranks
        exhaustive = [
            run_workload(config, "torch2.3", scale=0.25, rank=rank) for rank in range(4)
        ]
        peaks = [r.peak_allocated_gib for r in exhaustive]
        assert job.peak_allocated_gib == pytest.approx(max(peaks))
        assert job.mean_peak_allocated_gib == pytest.approx(sum(peaks) / 4)
        expanded = job.runs_by_rank()
        assert sorted(expanded) == [0, 1, 2, 3]
        for rank, run in expanded.items():
            assert run.peak_allocated_gib == pytest.approx(peaks[rank])

    def test_binding_rank_differs_from_rank0_under_recompute(self):
        """Acceptance: with recomputation the last stage's logits bind the job."""
        job = run_job(_pp4_config("R"), "torch2.3", ranks="all", scale=0.25)
        assert job.binding_rank != 0

    def test_job_success_requires_every_rank(self):
        config = _pp4_config("R")
        # Probe with the fragmentation-free native allocator, then size the
        # device between rank 0's peak and the binding rank's peak: rank 0
        # alone fits, the whole job must not.
        probe = run_job(config, "native", ranks="all", scale=0.25)
        rank0_peak = probe.runs_by_rank()[0].peak_allocated_gib
        assert rank0_peak < probe.peak_allocated_gib
        capacity = (rank0_peak + probe.peak_allocated_gib) / 2
        job = run_job(
            config, "native", ranks="all", scale=0.25, device_capacity_gib=capacity
        )
        rank0 = run_job(
            config, "native", ranks=[0], scale=0.25, device_capacity_gib=capacity
        )
        assert rank0.success
        assert not job.success
        assert job.oom_ranks and all(rank != 0 for rank in job.oom_ranks)

    def test_parallel_rank_fanout_matches_serial(self, tmp_path):
        config = _pp4_config()
        serial = run_job(config, "torch2.3", ranks="all", scale=0.25)
        # A fresh directory, so every representative's trace is a disk miss
        # in some worker -- and the parent context must hear about each one
        # (an explicit cache used to force the fan-out back to serial, and
        # pool workers' cache statistics never reached the parent).
        ctx = ExecutionContext(cache_dir=tmp_path / "cache", jobs=4)
        parallel = run_job(config, "torch2.3", ranks="all", scale=0.25, ctx=ctx)
        assert serial.peak_allocated_gib == pytest.approx(parallel.peak_allocated_gib)
        assert serial.binding_rank == parallel.binding_rank
        for left, right in zip(serial.class_runs, parallel.class_runs):
            assert left == right
        assert len(parallel.class_runs) == 4
        assert ctx.cache.stats.trace_misses == 4
        assert ctx.cache.stats.trace_hits == 0

    def test_throughput_estimates_attached(self):
        job = run_job(_pp4_config(), "torch2.3", ranks="all", scale=0.25)
        assert job.timeline.tflops_per_gpu > 0
        assert job.timeline.tokens_per_second > 0
        assert job.num_ranks == 4


# ---------------------------------------------------------------------- #
# Job-level sweeps
# ---------------------------------------------------------------------- #
def _multirank_spec(**overrides) -> SweepSpec:
    data = {
        "name": "jobs",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "base": {"num_microbatches": 2},
        "grid": {"preset": ["Naive", "R"], "micro_batch_size": [2]},
        "allocators": ["torch2.3"],
        "ranks": "all",
        "scale": 0.25,
    }
    data.update(overrides)
    return SweepSpec.from_dict(data)


class TestMultiRankSweep:
    def test_spec_validates_ranks(self):
        with pytest.raises(ValueError, match="ranks"):
            _multirank_spec(ranks="some")
        with pytest.raises(ValueError, match="ranks"):
            _multirank_spec(ranks=[])
        with pytest.raises(ValueError, match="ranks"):
            _multirank_spec(ranks=[-1])
        with pytest.raises(ValueError, match="out of range"):
            _multirank_spec(ranks=[7]).expand()
        assert _multirank_spec(ranks=[0, 3]).expand()[0].ranks == (0, 3)
        assert _multirank_spec(ranks=None).expand()[0].ranks == (0,)

    def test_job_level_rows(self, tmp_path):
        result = run_sweep(_multirank_spec(), jobs=1, cache_dir=tmp_path / "cache")
        assert result.num_points == 2
        by_config = {row["config"]: row for row in result.rows}
        for row in result.rows:
            assert row["ranks"] == "0-3"
            assert row["num_ranks"] == 4
            assert row["unique_ranks"] == 3  # m=2 collapses the middle stages
            assert row["tflops_per_gpu"] > 0
            assert row["allocated_gib"] >= row["allocated_mean_gib"]
        # The binding rank is reported and moves off rank 0 under recompute.
        assert by_config["R/mbs=2"]["binding_rank"] != 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_rerun_identical(self, jobs, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_sweep(_multirank_spec(), jobs=jobs, cache_dir=cache_dir)
        warm = run_sweep(_multirank_spec(), jobs=jobs, cache_dir=cache_dir)
        assert warm.num_cached == warm.num_points == cold.num_points
        strip = lambda rows: [  # noqa: E731
            {k: v for k, v in row.items() if k not in ("elapsed_seconds", "cached")}
            for row in rows
        ]
        assert strip(warm.rows) == strip(cold.rows)

    def test_rank_selection_is_part_of_result_cache_key(self, tmp_path):
        """Regression: a rank-0 row must not satisfy a job-level sweep."""
        cache_dir = tmp_path / "cache"
        cache = SweepCache(cache_dir)
        single = _multirank_spec(ranks=None).expand()[0]
        full = _multirank_spec(ranks="all").expand()[0]
        assert point_result_key(cache, single) != point_result_key(cache, full)
        run_sweep(_multirank_spec(ranks=None), jobs=1, cache_dir=cache_dir)
        job_level = run_sweep(_multirank_spec(ranks="all"), jobs=1, cache_dir=cache_dir)
        assert job_level.num_cached == 0

    def test_parallel_matches_serial(self, tmp_path):
        # Two allocators share each config, so the cache-less parallel path
        # pre-warms and ships the per-rank traces to the workers.
        spec_kwargs = {"allocators": ["torch2.0", "torch2.3"]}
        serial = run_sweep(_multirank_spec(**spec_kwargs), jobs=1)
        parallel = run_sweep(_multirank_spec(**spec_kwargs), jobs=4)
        strip = lambda rows: [  # noqa: E731
            {k: v for k, v in row.items() if k not in ("elapsed_seconds", "cached")}
            for row in rows
        ]
        assert strip(serial.rows) == strip(parallel.rows)
