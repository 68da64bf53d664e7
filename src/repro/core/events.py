"""Memory-request event model.

The Allocation Profiler (§4 of the paper) organises every allocation and its
matching free into a *memory request event*::

    m := (s, t_s, t_e, p_s, p_e, dyn)

where ``s`` is the size, ``t_s``/``t_e`` are the allocation and free logical
timestamps, ``p_s``/``p_e`` the computation phases in which the allocation and
free occur, and ``dyn`` flags requests originating from dynamic (MoE expert)
layers.  Dynamic requests additionally carry the originating module names
``l_s``/``l_e`` used to form HomoLayer groups (§5.2).

This module defines the vocabulary of that model -- phases, tensor categories
and the alloc/free event kinds.  The events and the requests themselves are
stored as typed columns (:mod:`repro.core.columns`): a trace's events in
:class:`~repro.core.columns.TraceColumns`, its paired requests in
:class:`~repro.core.columns.RequestColumns`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class PhaseKind(enum.Enum):
    """Coarse computation-phase categories within one training iteration."""

    INIT = "init"            # weight / optimizer-state materialisation
    FORWARD = "forward"      # forward pass of one micro-batch (per VPP chunk)
    BACKWARD = "backward"    # backward pass of one micro-batch (per VPP chunk)
    OPTIMIZER = "optimizer"  # optimizer step / gradient all-reduce
    OTHER = "other"          # anything outside the above (e.g. dataloader)
    DECODE = "decode"        # one autoregressive decode step over cached context


@dataclass(frozen=True, order=True)
class Phase:
    """One computation phase in a training iteration.

    Phases are totally ordered by ``index``, their position in the iteration's
    schedule.  Two requests belong to the same HomoPhase group exactly when
    their (allocation-phase, free-phase) pairs compare equal.
    """

    index: int
    kind: PhaseKind = field(compare=False)
    microbatch: int = field(default=-1, compare=False)
    chunk: int = field(default=0, compare=False)


def phase_to_dict(phase: Phase) -> dict:
    """JSON-safe encoding shared by trace files and serialized plans."""
    return {
        "index": phase.index,
        "kind": phase.kind.value,
        "microbatch": phase.microbatch,
        "chunk": phase.chunk,
    }


def phase_from_dict(data: dict) -> Phase:
    """Inverse of :func:`phase_to_dict`."""
    return Phase(
        index=data["index"],
        kind=PhaseKind(data["kind"]),
        microbatch=data["microbatch"],
        chunk=data["chunk"],
    )


class TensorCategory(enum.Enum):
    """What kind of tensor a request backs (used for analysis and Table 3)."""

    WEIGHT = "weight"
    GRADIENT = "gradient"
    OPTIMIZER_STATE = "optimizer_state"
    ACTIVATION = "activation"
    TEMPORARY = "temporary"
    COMM_BUFFER = "comm_buffer"
    EXPERT_ACTIVATION = "expert_activation"
    OTHER = "other"
    # Appended last: category codes are the declaration order (columns.py),
    # so new members must never reorder the existing ones.
    KV_CACHE = "kv_cache"


class EventKind(enum.Enum):
    """Raw trace event kinds."""

    ALLOC = "alloc"
    FREE = "free"
