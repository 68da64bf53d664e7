"""Seeded fuzz/property suite for the expert-parallel all-to-all memory model.

The dispatch/combine transients are derived quantities: their sizes follow the
router's global gating draw, so a bug anywhere in the chain (router slicing,
origin-share computation, tracegen plumbing) breaks one of three invariants
this suite locks down across ~200 randomly drawn configurations:

* **token conservation** -- the recv-side loads of the EP group sum to the
  routed load (``tokens * top_k``) of every layer execution, and so do the
  origin-side send shares;
* **legacy equivalence** -- ``moe_comm_factor == 0`` produces the comm-free
  event stream byte-for-byte (no all-to-all events, and stripping the
  all-to-all events from a comm-enabled trace recovers the comm-free trace's
  exact event sequence);
* **monotonicity** -- peak memory never decreases in ``moe_comm_factor``, and
  with a skewed router plus a non-zero factor the binding EP rank's peak
  strictly exceeds the comm-free baseline.

Configurations are drawn from a fixed-seed RNG, so failures reproduce.
"""

from __future__ import annotations

import random

import pytest

from repro.workloads.memory_model import ACT_BYTES, MemoryModel
from repro.workloads.moe import ExpertRouter
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.trace_oracle import events_of

MOE_TINY = get_model("moe-tiny")  # 8 layers, 8 experts, top_k=2, hidden 512


def _moe_config(
    *,
    pipeline: int = 2,
    expert: int = 4,
    imbalance: float = 0.6,
    comm_factor: float = 1.0,
    num_microbatches: int = 2,
    micro_batch_size: int = 1,
) -> TrainingConfig:
    return TrainingConfig(
        model=MOE_TINY,
        parallelism=ParallelismConfig(
            pipeline_parallel=pipeline, data_parallel=4, expert_parallel=expert
        ),
        micro_batch_size=micro_batch_size,
        num_microbatches=num_microbatches,
        moe_imbalance=imbalance,
        moe_comm_factor=comm_factor,
    )


def _draw_configs(count: int, *, rng_seed: int) -> list[tuple]:
    """(pp, ep, imbalance, comm_factor, trace_seed) tuples, reproducibly."""
    rng = random.Random(rng_seed)
    draws = []
    for _ in range(count):
        draws.append(
            (
                rng.choice([1, 2, 4]),          # pipeline degrees dividing 8 layers
                rng.choice([1, 2, 4, 8]),       # EP degrees dividing 8 experts
                rng.choice([0.0, rng.random()]),  # half the draws exercise imbalance 0
                rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0.0, 2.0)]),
                rng.randrange(10_000),
            )
        )
    return draws


def _a2a_sizes(trace, tag: str) -> dict[tuple, int]:
    """Allocation size of every all-to-all buffer, keyed by its execution."""
    return {
        (event.phase.microbatch, event.phase.chunk, event.module): event.size
        for event in events_of(trace)
        if event.is_alloc() and event.tag == tag
    }


def _event_keys(trace, *, drop_a2a: bool) -> list[tuple]:
    """Time/req_id-free view of the event stream (stable under renumbering)."""
    return [
        (event.kind.value, event.size, event.tag, event.category.value,
         event.module, event.dyn)
        for event in events_of(trace)
        if not (drop_a2a and event.tag.startswith("a2a_"))
    ]


# ---------------------------------------------------------------------- #
# Router/memory-model level: the full ~200-configuration fuzz
# ---------------------------------------------------------------------- #
class TestTokenConservationFuzz:
    @pytest.mark.parametrize("case", _draw_configs(200, rng_seed=1234))
    def test_recv_and_send_conserve_routed_load(self, case):
        """Per layer execution: sum(recv over EP group) == tokens * top_k ==
        sum(send over EP group), for every fuzzed configuration."""
        pipeline, expert, imbalance, comm_factor, seed = case
        config = _moe_config(
            pipeline=pipeline, expert=expert, imbalance=imbalance, comm_factor=comm_factor
        )
        models = [
            MemoryModel(config, rank=0, ep_rank=ep_rank) for ep_rank in range(expert)
        ]
        tokens = models[0].tokens
        routed = tokens * MOE_TINY.moe_top_k
        routers = [
            ExpertRouter(
                num_experts=MOE_TINY.num_experts,
                num_local_experts=model.num_local_experts,
                top_k=MOE_TINY.moe_top_k,
                seed=seed,
                imbalance=imbalance,
                ep_rank=model.ep_rank,
            )
            for model in models
        ]
        for layer, microbatch in [(0, 0), (3, 1), (7, 0)]:
            recv_total = sum(
                sum(router.route(tokens, layer=layer, microbatch=microbatch))
                for router in routers
            )
            assert recv_total == routed, (case, layer, microbatch)
        send_total = sum(model.dispatch_send_tokens() for model in models)
        assert send_total == routed, case

    @pytest.mark.parametrize("case", _draw_configs(40, rng_seed=99)[:40])
    def test_buffer_sizes_follow_token_counts(self, case):
        """Memory-model buffer sizes invert back to the exact token counts
        (512-aligned sizes are exact for factor in {0.5, 1.0} at hidden 512)."""
        pipeline, expert, imbalance, _, seed = case
        factor = 1.0 if seed % 2 else 0.5
        config = _moe_config(
            pipeline=pipeline, expert=expert, imbalance=imbalance, comm_factor=factor
        )
        for ep_rank in range(expert):
            model = MemoryModel(config, rank=0, ep_rank=ep_rank)
            recv_tokens = 137 + ep_rank
            per_token = factor * MOE_TINY.hidden_size * ACT_BYTES
            dispatch = {spec.tag: spec.size for spec in model.moe_dispatch_tensors(recv_tokens)}
            combine = {spec.tag: spec.size for spec in model.moe_combine_tensors(recv_tokens)}
            assert dispatch["a2a_dispatch_recv"] == int(recv_tokens * per_token)
            assert dispatch["a2a_dispatch_send"] == int(
                model.dispatch_send_tokens() * per_token
            )
            # Combine mirrors dispatch with the directions swapped.
            assert combine["a2a_combine_send"] == dispatch["a2a_dispatch_recv"]
            assert combine["a2a_combine_recv"] == dispatch["a2a_dispatch_send"]

    def test_comm_factor_zero_produces_no_buffers(self):
        model = MemoryModel(_moe_config(comm_factor=0.0), rank=0, ep_rank=1)
        assert model.moe_dispatch_tensors(512) == []
        assert model.moe_combine_tensors(512) == []

    def test_dense_model_produces_no_buffers(self):
        config = TrainingConfig(
            model=get_model("gpt-tiny"),
            parallelism=ParallelismConfig(pipeline_parallel=2),
            moe_comm_factor=1.0,
        )
        model = MemoryModel(config)
        assert model.dispatch_send_tokens() == 0
        assert model.moe_dispatch_tensors(512) == []
        trace = TraceGenerator(config, seed=0).generate()
        assert not any(event.tag.startswith("a2a_") for event in events_of(trace))


# ---------------------------------------------------------------------- #
# Trace level: conservation of the emitted event stream
# ---------------------------------------------------------------------- #
class TestTraceConservation:
    @pytest.mark.parametrize("case", _draw_configs(12, rng_seed=7))
    def test_dispatch_sizes_conserve_across_ep_traces(self, case):
        """Generating every EP rank's trace of one stage and inverting the
        all-to-all buffer sizes recovers the conserved routed load."""
        pipeline, expert, imbalance, _, seed = case
        factor = 1.0  # exact size inversion at hidden 512
        config = _moe_config(
            pipeline=pipeline, expert=expert, imbalance=imbalance, comm_factor=factor
        )
        per_token = int(factor * MOE_TINY.hidden_size * ACT_BYTES)
        traces = [
            TraceGenerator(config, seed=seed, rank=0, ep_rank=ep_rank).generate()
            for ep_rank in range(expert)
        ]
        recv_by_rank = [_a2a_sizes(trace, "a2a_dispatch_recv") for trace in traces]
        send_by_rank = [_a2a_sizes(trace, "a2a_dispatch_send") for trace in traces]
        executions = config.num_microbatches * MOE_TINY.num_layers // pipeline
        routed = config.micro_batch_size * MOE_TINY.seq_length * MOE_TINY.moe_top_k
        total_recv = sum(sum(sizes.values()) for sizes in recv_by_rank) // per_token
        total_send = sum(sum(sizes.values()) for sizes in send_by_rank) // per_token
        assert total_recv == executions * routed, case
        assert total_send == executions * routed, case
        # The combine pair mirrors dispatch execution by execution.
        for trace, recv in zip(traces, recv_by_rank):
            combine_send = sum(_a2a_sizes(trace, "a2a_combine_send").values())
            assert combine_send == sum(recv.values())

    def test_same_execution_consistent_across_ep_ranks(self):
        """Every EP rank's dispatch_recv of one layer execution is a slice of
        the same global draw: summing the slices per execution (not just over
        the whole trace) recovers the routed load."""
        config = _moe_config(expert=4, imbalance=0.8, comm_factor=1.0)
        per_token = MOE_TINY.hidden_size * ACT_BYTES
        routed = config.micro_batch_size * MOE_TINY.seq_length * MOE_TINY.moe_top_k
        sizes = [
            _a2a_sizes(
                TraceGenerator(config, seed=3, rank=0, ep_rank=ep_rank).generate(),
                "a2a_dispatch_recv",
            )
            for ep_rank in range(4)
        ]
        executions = set().union(*(set(rank_sizes) for rank_sizes in sizes))
        assert executions  # the MoE trace must contain dispatch events
        for execution in executions:
            total = sum(rank_sizes.get(execution, 0) for rank_sizes in sizes)
            assert total == routed * per_token, execution


# ---------------------------------------------------------------------- #
# Legacy equivalence: moe_comm_factor == 0 is the comm-free baseline trace
# ---------------------------------------------------------------------- #
class TestLegacyEquivalence:
    @pytest.mark.parametrize("case", _draw_configs(10, rng_seed=42))
    def test_zero_factor_has_no_comm_events(self, case):
        pipeline, expert, imbalance, _, seed = case
        config = _moe_config(
            pipeline=pipeline, expert=expert, imbalance=imbalance, comm_factor=0.0
        )
        trace = TraceGenerator(config, seed=seed).generate()
        assert not any(event.tag.startswith("a2a_") for event in events_of(trace))

    @pytest.mark.parametrize("case", _draw_configs(10, rng_seed=43))
    def test_stripping_comm_events_recovers_the_zero_factor_trace(self, case):
        """The transients are purely additive: removing the all-to-all events
        from a comm-enabled trace leaves the comm-free event sequence, byte
        for byte (modulo req_id/time renumbering)."""
        pipeline, expert, imbalance, comm_factor, seed = case
        comm_factor = comm_factor or 1.0
        with_comm = TraceGenerator(
            _moe_config(
                pipeline=pipeline, expert=expert, imbalance=imbalance,
                comm_factor=comm_factor,
            ),
            seed=seed,
        ).generate()
        without_comm = TraceGenerator(
            _moe_config(
                pipeline=pipeline, expert=expert, imbalance=imbalance, comm_factor=0.0
            ),
            seed=seed,
        ).generate()
        assert _event_keys(with_comm, drop_a2a=True) == _event_keys(
            without_comm, drop_a2a=False
        )
        assert with_comm.metadata.moe_comm_factor == comm_factor
        assert without_comm.metadata.moe_comm_factor == 0.0

    def test_zero_factor_digest_matches_default_config(self):
        """``moe_comm_factor=0`` and an untouched config generate
        byte-identical traces (the knob's default is the legacy behaviour)."""
        explicit = _moe_config(comm_factor=0.0)
        legacy = TrainingConfig(
            model=MOE_TINY,
            parallelism=explicit.parallelism,
            micro_batch_size=explicit.micro_batch_size,
            num_microbatches=explicit.num_microbatches,
            moe_imbalance=explicit.moe_imbalance,
        )
        assert (
            TraceGenerator(explicit, seed=5).generate().digest()
            == TraceGenerator(legacy, seed=5).generate().digest()
        )


# ---------------------------------------------------------------------- #
# Monotonicity: peak memory never decreases in moe_comm_factor
# ---------------------------------------------------------------------- #
class TestPeakMonotonicity:
    @pytest.mark.parametrize("case", _draw_configs(15, rng_seed=77))
    def test_peak_monotone_in_comm_factor(self, case):
        pipeline, expert, imbalance, _, seed = case
        peaks = []
        comm_peaks = []
        for factor in (0.0, 0.5, 1.0, 2.0):
            trace = TraceGenerator(
                _moe_config(
                    pipeline=pipeline, expert=expert, imbalance=imbalance,
                    comm_factor=factor,
                ),
                seed=seed,
            ).generate()
            peaks.append(trace.peak_allocated_bytes())
            comm_peaks.append(trace.comm_peak_bytes())
        assert peaks == sorted(peaks), (case, peaks)
        assert comm_peaks == sorted(comm_peaks), (case, comm_peaks)
        # A non-zero factor really adds live communication bytes.
        assert comm_peaks[-1] > comm_peaks[0], case

    def test_binding_rank_peak_strictly_exceeds_comm_free_baseline(self):
        """The acceptance property: with a skewed router and a non-zero comm
        factor, the binding EP rank's peak strictly exceeds the comm-free
        baseline job peak."""
        from tests.conftest import run_job

        baseline = run_job(
            _moe_config(imbalance=0.6, comm_factor=0.0),
            "torch2.3",
            ranks="all",
        )
        with_comm = run_job(
            _moe_config(imbalance=0.6, comm_factor=1.0),
            "torch2.3",
            ranks="all",
        )
        assert with_comm.peak_allocated_gib > baseline.peak_allocated_gib
        assert with_comm.comm_peak_bytes > baseline.comm_peak_bytes
        binding = with_comm.binding_run
        baseline_same_rank = baseline.runs_by_rank()[with_comm.binding_rank]
        assert binding.peak_allocated_bytes > baseline_same_rank.peak_allocated_bytes


# ---------------------------------------------------------------------- #
# Surface: comm_peak_bytes reaches JobRun dicts and sweep rows
# ---------------------------------------------------------------------- #
class TestCommPeakSurfaces:
    def test_job_run_exposes_comm_peak(self):
        from tests.conftest import run_job

        job = run_job(
            _moe_config(imbalance=0.6, comm_factor=1.0),
            "torch2.3",
            ranks="all",
        )
        assert job.comm_peak_bytes > 0
        assert all(run.comm_peak_bytes >= 0 for run in job.class_runs)
        assert job.comm_peak_bytes == max(run.comm_peak_bytes for run in job.class_runs)

    def test_sweep_rows_carry_comm_peak_and_comm_axis_label(self):
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec.from_dict(
            {
                "name": "comm-fuzz",
                "model": "moe-tiny",
                "parallelism": {
                    "pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4,
                },
                "base": {
                    "num_microbatches": 2, "micro_batch_size": 1, "moe_imbalance": 0.6,
                },
                "grid": {"moe_comm_factor": [0.0, 1.0]},
                "allocators": ["torch2.3"],
                "ranks": "all",
            }
        )
        result = run_sweep(spec, jobs=1)
        assert [row["config"] for row in result.rows] == ["comm=0.0", "comm=1.0"]
        comm_free, comm_on = result.rows
        assert comm_on["comm_peak_bytes"] > comm_free["comm_peak_bytes"] >= 0
        assert comm_on["allocated_gib"] > comm_free["allocated_gib"]
