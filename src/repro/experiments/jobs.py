"""Job-level memory tables: every pipeline rank of a training job.

The paper evaluates STAlloc on whole distributed jobs, where a configuration
only works if *every* rank fits -- and the binding rank moves with the
optimization preset: without recomputation the first stage binds (it holds the
most in-flight micro-batches plus the embedding), with recomputation the last
stage usually does (its fp32 vocabulary logits dwarf the checkpointed
activations everyone else keeps).  This experiment reports that per-rank
asymmetry explicitly: per preset and allocator, the job peak (max over ranks),
the mean per-rank peak, the binding rank, job-level success, and the modelled
training throughput.
"""

from __future__ import annotations

from repro.experiments.common import (
    A800_WORKLOADS,
    ExperimentResult,
    PRESETS,
    register_experiment,
    run_lineups,
)
from repro.gpu.specs import get_gpu
from repro.search.bounds import kv_cache_bytes_floor, time_floor_seconds
from repro.simulator.execution import ExecutionContext
from repro.timeline import simulate_timeline
from repro.workloads.parallelism import rank_label


def _job_row(preset: str, job) -> dict:
    return {
        "config": preset,
        "allocator": job.allocator_name,
        "num_ranks": job.num_ranks,
        "unique_ranks": len(job.class_runs),
        "binding_rank": job.binding_rank,
        "job_peak_gib": round(job.peak_allocated_gib, 3),
        "mean_rank_peak_gib": round(job.mean_peak_allocated_gib, 3),
        "reserved_gib": round(job.peak_reserved_gib, 3),
        "tflops_per_gpu": job.timeline.tflops_per_gpu,
        "tokens_per_second": job.timeline.tokens_per_second,
        "status": "ok" if job.success else f"OOM@ranks{job.oom_ranks}",
    }


@register_experiment("job_table")
def run_job_table(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Per-rank memory asymmetry of the GPT-2 job across presets."""
    workload = A800_WORKLOADS["gpt2-345m"]
    presets = ["Naive", "R"] if quick else PRESETS
    lineup = ["torch2.3", "stalloc"]
    scale = 0.25 if quick else 1.0
    configs = {
        preset: workload.preset(preset, micro_batch_size=4 if quick else None) for preset in presets
    }
    jobs = run_lineups(
        configs, lineup, ranks="all", device_name=workload.device_name, scale=scale, ctx=ctx
    )
    rows = []
    binding_ranks = set()
    for (preset, _), job in jobs.items():
        rows.append(_job_row(preset, job))
        binding_ranks.add(job.binding_rank)
    return ExperimentResult(
        experiment_id="job_table",
        title="Job-level (all-rank) peaks of the GPT-2 job: binding rank per preset",
        rows=rows,
        notes=(
            f"Binding ranks observed: {sorted(binding_ranks)}. A job fits only if every "
            "rank fits; rank 0 binds while activations dominate, the last rank binds "
            "once recomputation shrinks them below the fp32 logits."
        ),
    )


@register_experiment("ep_table")
def run_ep_table(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Expert-parallel rank asymmetry of the MoE job across router imbalance.

    At ``moe_imbalance == 0`` the router splits tokens exactly evenly, every
    EP rank of a stage is memory-identical, and the job deduplicates to its
    pipeline classes.  With a skewed router every (pp, ep) coordinate routes a
    different token load, the per-EP-rank peaks spread out, and the binding
    rank becomes a coordinate -- the paper's "dynamicity" argument (§5.2/§6.2)
    at the whole-job level.
    """
    workload = A800_WORKLOADS["qwen1.5-moe-a2.7b"]
    scale = 0.25 if quick else 0.5
    imbalances = [0.0, 0.6]
    allocators = ["torch2.3"] if quick else ["torch2.3", "stalloc"]
    configs = {
        imbalance: workload.preset("Naive", micro_batch_size=1 if quick else None).with_(
            moe_imbalance=imbalance, num_microbatches=4
        )
        for imbalance in imbalances
    }
    jobs = run_lineups(
        configs, allocators, ranks="all", device_name=workload.device_name, scale=scale, ctx=ctx
    )
    rows = []
    for (imbalance, allocator), job in jobs.items():
        peaks = {
            rank_label(rank): round(run.peak_allocated_gib, 3)
            for rank, run in job.runs_by_rank().items()
        }
        rows.append(
            {
                "imbalance": imbalance,
                "allocator": allocator,
                "num_ranks": job.num_ranks,
                "unique_ranks": len(job.class_runs),
                "binding_rank": rank_label(job.binding_rank),
                "job_peak_gib": round(job.peak_allocated_gib, 3),
                "mean_rank_peak_gib": round(job.mean_peak_allocated_gib, 3),
                "peak_spread_gib": round(max(peaks.values()) - min(peaks.values()), 3),
                "status": "ok" if job.success else f"OOM@ranks{job.oom_ranks}",
            }
        )
    return ExperimentResult(
        experiment_id="ep_table",
        title="Expert-parallel asymmetry of the Qwen1.5-MoE job vs. router imbalance",
        rows=rows,
        notes=(
            "With imbalance 0 the EP ranks collapse into their pipeline stage's "
            "equivalence class (unique_ranks == pipeline classes); a skewed router "
            "splits every (pp, ep) coordinate into its own class and widens the "
            "per-rank peak spread the binding rank is chosen from."
        ),
    )


@register_experiment("comm_table")
def run_comm_table(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Peak memory vs. router imbalance, with and without all-to-all transients.

    The static planner must provision for the load-imbalance-driven memory
    spike of the MoE all-to-all: the dispatch/combine staging buffers scale
    with the tokens actually routed, so the binding EP rank's peak grows with
    ``moe_imbalance`` *through communication*, not just through the expert
    activations.  ``moe_comm_factor == 0`` is the comm-free baseline trace; the
    delta column isolates what communication adds to the provisioning target.
    """
    workload = A800_WORKLOADS["qwen1.5-moe-a2.7b"]
    scale = 0.25 if quick else 0.5
    imbalances = [0.0, 0.6] if quick else [0.0, 0.3, 0.6]
    comm_factors = [0.0, 1.0]
    configs = {
        (imbalance, comm_factor): workload.preset(
            "Naive", micro_batch_size=1 if quick else None
        ).with_(moe_imbalance=imbalance, moe_comm_factor=comm_factor, num_microbatches=4)
        for imbalance in imbalances
        for comm_factor in comm_factors
    }
    jobs = run_lineups(
        configs, ["torch2.3"], ranks="all", device_name=workload.device_name, scale=scale, ctx=ctx
    )
    rows = []
    for ((imbalance, comm_factor), _), job in jobs.items():
        comm_free = jobs[(imbalance, comm_factors[0]), "torch2.3"]
        rows.append(
            {
                "imbalance": imbalance,
                "comm_factor": comm_factor,
                "binding_rank": rank_label(job.binding_rank),
                "job_peak_gib": round(job.peak_allocated_gib, 3),
                "comm_peak_gib": round(job.comm_peak_bytes / (1 << 30), 3),
                "comm_delta_gib": round(
                    job.peak_allocated_gib - comm_free.peak_allocated_gib, 3
                ),
                "status": "ok" if job.success else f"OOM@ranks{job.oom_ranks}",
            }
        )
    return ExperimentResult(
        experiment_id="comm_table",
        title="All-to-all transients: job peak vs. router imbalance and comm factor",
        rows=rows,
        notes=(
            "comm_delta_gib is the peak growth over the comm-free trace of the same "
            "imbalance: the provisioning headroom the all-to-all staging buffers "
            "demand, which widens as routing skews toward hot experts."
        ),
    )


@register_experiment("gen_table")
def run_gen_table(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Generation workloads: KV-cache growth vs. decode steps, memory and time.

    A generation job is the paper's dynamic-allocation stress case turned up:
    every decode step re-allocates each layer's KV cache one token larger, so
    allocation sizes follow *sequence position* instead of a fixed per-phase
    inventory.  This table sweeps ``decode_steps`` for the GPT-2 job and
    reports, per step count, where the bytes go (job peak, live-KV peak, and
    the search planner's admissible KV floor) and where the time goes (the
    timeline's autoregressive decode tail next to the prefill-dominated
    iteration) -- the provisioning picture a static planner must get right.
    """
    workload = A800_WORKLOADS["gpt2-345m"]
    gpu = get_gpu(workload.device_name)
    scale = 0.25 if quick else 0.5
    step_counts = [0, 8] if quick else [0, 8, 32]
    configs = {
        steps: workload.preset("Naive", micro_batch_size=4 if quick else None).with_(
            workload_kind="generation", decode_steps=steps
        )
        for steps in step_counts
    }
    jobs = run_lineups(
        configs, ["torch2.3"], ranks="all", device_name=workload.device_name, scale=scale, ctx=ctx
    )
    baseline_peak = jobs[step_counts[0], "torch2.3"].peak_allocated_gib
    rows = []
    for (steps, _), job in jobs.items():
        config = configs[steps]
        timeline = simulate_timeline(config, gpu=gpu, scale=scale)
        rows.append(
            {
                "decode_steps": steps,
                "binding_rank": rank_label(job.binding_rank),
                "job_peak_gib": round(job.peak_allocated_gib, 3),
                "kv_peak_gib": round(job.kv_peak_bytes / (1 << 30), 3),
                "kv_floor_gib": round(
                    kv_cache_bytes_floor(config, scale=scale) / (1 << 30), 3
                ),
                "kv_delta_gib": round(job.peak_allocated_gib - baseline_peak, 3),
                "iteration_ms": round(timeline.iteration_seconds * 1e3, 3),
                "decode_ms": round(timeline.decode_seconds * 1e3, 3),
                "decode_pct": round(
                    100 * timeline.decode_seconds / timeline.iteration_seconds, 2
                ),
                "status": "ok" if job.success else f"OOM@ranks{job.oom_ranks}",
            }
        )
    return ExperimentResult(
        experiment_id="gen_table",
        title="Generation workloads: KV-cache growth and decode time vs. decode steps",
        rows=rows,
        notes=(
            "kv_peak_gib is the binding rank's live KV-cache high-water mark and "
            "kv_floor_gib the planner's admissible lower bound on it (floor <= peak "
            "always); kv_delta_gib is the job-peak growth over the prefill-only run. "
            "decode_ms is the autoregressive tail the timeline prices from per-step "
            "KV reads at HBM bandwidth."
        ),
    )


@register_experiment("timeline_table")
def run_timeline_table(*, quick: bool = False, ctx: ExecutionContext) -> ExperimentResult:
    """Discrete-event iteration time vs. router imbalance and comm factor.

    The memory tables above show *where the bytes go*; this table shows *where
    the time goes*.  The timeline simulator walks every (pp, ep) rank's real
    schedule: pipeline bubbles come out of the forward/backward send-recv
    dependencies and every MoE layer execution runs a synchronising all-to-all
    whose duration follows the maximum routed load across the EP group -- the
    same router draws that size the trace's COMM_BUFFER transients.  Imbalance
    therefore costs time twice, through hot-expert compute and through the
    collectives everyone must wait for.  The slowdown over
    :func:`~repro.search.bounds.time_floor_seconds` -- the admissible floor
    the search prunes with -- measures how much of the iteration is waiting.
    """
    workload = A800_WORKLOADS["qwen1.5-moe-a2.7b"]
    gpu = get_gpu(workload.device_name)
    scale = 0.25 if quick else 0.5
    imbalances = [0.0, 0.6] if quick else [0.0, 0.3, 0.6]
    comm_factors = [0.0, 1.0]
    rows = []
    for imbalance in imbalances:
        for comm_factor in comm_factors:
            config = workload.preset("Naive", micro_batch_size=1 if quick else None).with_(
                moe_imbalance=imbalance,
                moe_comm_factor=comm_factor,
                num_microbatches=4,
            )
            timeline = simulate_timeline(config, gpu=gpu, scale=scale)
            floor = time_floor_seconds(config, gpu, scale=scale)
            rows.append(
                {
                    "imbalance": imbalance,
                    "comm_factor": comm_factor,
                    "iteration_ms": round(timeline.iteration_seconds * 1e3, 3),
                    "comm_ms": round(timeline.comm_seconds * 1e3, 3),
                    "stall_ms": round(timeline.stall_seconds * 1e3, 3),
                    "bubble_pct": round(100 * timeline.bubble_fraction, 2),
                    "mfu_pct": round(100 * timeline.mfu, 2),
                    "binding_rank": rank_label(timeline.binding_rank),
                    "floor_ms": round(floor * 1e3, 3),
                    "slowdown_vs_floor": round(timeline.iteration_seconds / floor, 4),
                }
            )
    return ExperimentResult(
        experiment_id="timeline_table",
        title="Timeline simulation: iteration time vs. router imbalance and comm factor",
        rows=rows,
        notes=(
            "slowdown_vs_floor is the simulated iteration over the admissible floor "
            "the search prunes with (compute plus the all-to-all time no overlap "
            "hides, no bubbles or stalls), so it never drops below 1. A balanced "
            "job sits at the 1F1B bubble factor (m + pp - 1) / m; router imbalance "
            "raises it (hot-expert stragglers at every synchronising all-to-all), "
            "while the comm factor moves iteration_ms and floor_ms nearly together "
            "(the floor already charges the collectives)."
        ),
    )
