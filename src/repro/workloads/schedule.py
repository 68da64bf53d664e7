"""Pipeline-parallel execution schedules.

The allocation pattern of one rank is driven by the order in which it runs
forward and backward passes of micro-batches (and, under virtual pipelining,
of model chunks).  This module produces that order for:

* ``1F1B`` (PipeDream-flush) -- the default Megatron-LM schedule;
* the interleaved virtual-pipeline schedule, which keeps more micro-batch
  chunks in flight and interleaves their allocations much more aggressively
  (the paper's "V" optimization).

Schedules are produced per pipeline rank: stage ``r`` of a ``p``-stage 1F1B
pipeline runs ``min(p - r, m)`` warm-up forwards before entering the steady
state, so earlier stages hold more in-flight micro-batches (and therefore more
activation memory) while the last stage holds exactly one.  This per-stage
asymmetry is what makes job-level simulation (all ranks of a job, not just
rank 0) meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import PhaseKind
from repro.workloads.parallelism import ParallelismConfig, normalize_rank


@dataclass(frozen=True)
class PhaseSpec:
    """One computation phase to be executed by the simulated rank."""

    kind: PhaseKind
    microbatch: int = -1
    chunk: int = 0
    #: Decode-step ordinal for :attr:`PhaseKind.DECODE` phases (1-based; 0 for
    #: every other phase kind, so training schedules are unchanged).
    step: int = 0


def one_f_one_b(num_stages: int, num_microbatches: int, rank: int = 0) -> list[PhaseSpec]:
    """1F1B schedule for pipeline stage ``rank``.

    Stage ``r`` runs ``min(p - r, m)`` warm-up forwards, then alternates
    backward / forward in the steady state, then drains the remaining
    backwards.  The peak number of in-flight micro-batches is ``min(p - r, m)``
    -- largest on the first stage, exactly one on the last.
    """
    if num_stages < 1 or num_microbatches < 1:
        raise ValueError("num_stages and num_microbatches must be >= 1")
    if not 0 <= rank < num_stages:
        raise ValueError(f"rank must be in [0, {num_stages}), got {rank}")
    warmup = min(num_stages - rank, num_microbatches)
    phases: list[PhaseSpec] = []
    for microbatch in range(warmup):
        phases.append(PhaseSpec(PhaseKind.FORWARD, microbatch))
    for index in range(num_microbatches - warmup):
        phases.append(PhaseSpec(PhaseKind.BACKWARD, index))
        phases.append(PhaseSpec(PhaseKind.FORWARD, warmup + index))
    for microbatch in range(max(0, num_microbatches - warmup), num_microbatches):
        phases.append(PhaseSpec(PhaseKind.BACKWARD, microbatch))
    return phases


def interleaved_virtual_pipeline(
    num_stages: int, num_microbatches: int, num_chunks: int, rank: int = 0
) -> list[PhaseSpec]:
    """Interleaved (virtual pipeline) schedule for stage ``rank``.

    Micro-batches are processed in groups of ``num_stages``; within a group the
    schedule sweeps every virtual chunk before moving on, so activations of
    ``~ (num_stages - rank) * num_chunks`` (micro-batch, chunk) units are live
    at the warm-up peak and forward/backward phases of different chunks
    interleave -- exactly the behaviour that complicates memory reuse in the
    paper.
    """
    if num_chunks < 2:
        return one_f_one_b(num_stages, num_microbatches, rank)
    if not 0 <= rank < num_stages:
        raise ValueError(f"rank must be in [0, {num_stages}), got {rank}")
    units: list[tuple[int, int]] = []  # (microbatch, chunk) in forward order
    group = max(1, num_stages)
    for group_start in range(0, num_microbatches, group):
        group_mbs = range(group_start, min(group_start + group, num_microbatches))
        for chunk in range(num_chunks):
            for microbatch in group_mbs:
                units.append((microbatch, chunk))

    total_units = len(units)
    warmup = min(total_units, (num_stages - rank) * num_chunks)
    phases: list[PhaseSpec] = []
    for microbatch, chunk in units[:warmup]:
        phases.append(PhaseSpec(PhaseKind.FORWARD, microbatch, chunk))
    # Backwards retire units in the same order their forwards were issued
    # (chunk-major within a group), which matches the interleaved schedule's
    # first-in-first-out drain on stage 0.
    for index in range(total_units - warmup):
        microbatch, chunk = units[index]
        phases.append(PhaseSpec(PhaseKind.BACKWARD, microbatch, chunk))
        fwd_microbatch, fwd_chunk = units[warmup + index]
        phases.append(PhaseSpec(PhaseKind.FORWARD, fwd_microbatch, fwd_chunk))
    for microbatch, chunk in units[max(0, total_units - warmup):]:
        phases.append(PhaseSpec(PhaseKind.BACKWARD, microbatch, chunk))
    return phases


def inference_schedule(
    num_stages: int, num_microbatches: int, num_chunks: int = 1, rank: int = 0
) -> list[PhaseSpec]:
    """Forward-only pipeline schedule for stage ``rank`` (no backward phases).

    Every stage runs one forward per (micro-batch, chunk) unit, in the same
    forward issue order as the training schedules -- plain micro-batch order
    for a single chunk, the chunk-major grouped order of the interleaved
    schedule under virtual pipelining.  Nothing is retained for a backward
    pass, so there is no warm-up/steady-state/drain structure.
    """
    if num_stages < 1 or num_microbatches < 1:
        raise ValueError("num_stages and num_microbatches must be >= 1")
    if not 0 <= rank < num_stages:
        raise ValueError(f"rank must be in [0, {num_stages}), got {rank}")
    if num_chunks < 2:
        return [PhaseSpec(PhaseKind.FORWARD, mb) for mb in range(num_microbatches)]
    phases: list[PhaseSpec] = []
    group = max(1, num_stages)
    for group_start in range(0, num_microbatches, group):
        group_mbs = range(group_start, min(group_start + group, num_microbatches))
        for chunk in range(num_chunks):
            for microbatch in group_mbs:
                phases.append(PhaseSpec(PhaseKind.FORWARD, microbatch, chunk))
    return phases


def generation_schedule(
    num_stages: int,
    num_microbatches: int,
    num_chunks: int = 1,
    rank: int = 0,
    decode_steps: int = 0,
) -> list[PhaseSpec]:
    """Prefill + autoregressive decode schedule for stage ``rank``.

    One forward (prefill) pass per micro-batch -- exactly the inference
    schedule -- followed by ``decode_steps`` decode sweeps.  Decode runs
    step-major: step ``s`` processes every micro-batch (and chunk) before
    step ``s + 1`` begins, the in-flight batching order of generation servers.
    Every micro-batch's KV cache is therefore still live when the last one
    prefills, and stays live until its final decode step completes.
    """
    if decode_steps < 0:
        raise ValueError(f"decode_steps must be >= 0, got {decode_steps}")
    phases = inference_schedule(num_stages, num_microbatches, num_chunks, rank)
    for step in range(1, decode_steps + 1):
        for microbatch in range(num_microbatches):
            for chunk in range(max(1, num_chunks)):
                phases.append(
                    PhaseSpec(PhaseKind.DECODE, microbatch, chunk, step=step)
                )
    return phases


def build_schedule(
    parallelism: ParallelismConfig,
    num_microbatches: int,
    rank: int = 0,
    *,
    workload_kind: str = "training",
    decode_steps: int = 0,
) -> list[PhaseSpec]:
    """Phase schedule for stage ``rank``, with workload-appropriate bracketing.

    ``rank`` may be a plain pipeline rank or a ``(pp, ep)`` coordinate; the
    schedule depends only on the pipeline position -- expert-parallel peers of
    one stage execute the same phase order and differ only in the token loads
    routed to them within each forward/backward pass.

    Training schedules (the default) are bracketed ``INIT ... OPTIMIZER``
    exactly as before; the forward-only inference and generation schedules
    have no optimizer step, so they carry only the leading ``INIT``.
    """
    pipeline_rank, _ = normalize_rank(rank)
    stages = parallelism.pipeline_parallel
    chunks = parallelism.virtual_pipeline_chunks
    if workload_kind == "inference":
        body = inference_schedule(stages, num_microbatches, chunks, pipeline_rank)
        return [PhaseSpec(PhaseKind.INIT)] + body
    if workload_kind == "generation":
        body = generation_schedule(
            stages, num_microbatches, chunks, pipeline_rank, decode_steps=decode_steps
        )
        return [PhaseSpec(PhaseKind.INIT)] + body
    if chunks > 1:
        body = interleaved_virtual_pipeline(stages, num_microbatches, chunks, pipeline_rank)
    else:
        body = one_f_one_b(stages, num_microbatches, pipeline_rank)
    return [PhaseSpec(PhaseKind.INIT)] + body + [PhaseSpec(PhaseKind.OPTIMIZER)]
