"""Memory-request event model.

The Allocation Profiler (§4 of the paper) organises every allocation and its
matching free into a *memory request event*::

    m := (s, t_s, t_e, p_s, p_e, dyn)

where ``s`` is the size, ``t_s``/``t_e`` are the allocation and free logical
timestamps, ``p_s``/``p_e`` the computation phases in which the allocation and
free occur, and ``dyn`` flags requests originating from dynamic (MoE expert)
layers.  Dynamic requests additionally carry the originating module names
``l_s``/``l_e`` used to form HomoLayer groups (§5.2).

This module defines that event model plus the raw alloc/free trace events the
workload generator emits and the profiler consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable


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

    def label(self) -> str:
        """Human-readable label such as ``F(mb=3, chunk=0)``."""
        short = {
            PhaseKind.INIT: "INIT",
            PhaseKind.FORWARD: "F",
            PhaseKind.BACKWARD: "B",
            PhaseKind.OPTIMIZER: "OPT",
            PhaseKind.OTHER: "OTHER",
            PhaseKind.DECODE: "DEC",
        }[self.kind]
        if self.kind in (PhaseKind.FORWARD, PhaseKind.BACKWARD, PhaseKind.DECODE):
            return f"{short}(mb={self.microbatch}, chunk={self.chunk})"
        return short

    def __repr__(self) -> str:
        return f"Phase#{self.index}[{self.label()}]"


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


@dataclass(frozen=True)
class TraceEvent:
    """A single allocation or free observed at torch-allocator level.

    ``time`` is a logical timestamp: the trace generator increments it once
    per event, which preserves ordering (the only property the planning
    algorithms rely on) without modelling wall-clock durations.
    """

    kind: EventKind
    req_id: int
    size: int
    time: int
    phase: Phase
    module: str = ""
    dyn: bool = False
    category: TensorCategory = TensorCategory.OTHER
    tag: str = ""

    def is_alloc(self) -> bool:
        return self.kind is EventKind.ALLOC


@dataclass(frozen=True)
class MemoryRequest:
    """A paired allocation/free: the planner's unit of work (``m`` in §4)."""

    req_id: int
    size: int
    alloc_time: int
    free_time: int
    alloc_phase: Phase
    free_phase: Phase
    dyn: bool = False
    alloc_module: str = ""
    free_module: str = ""
    category: TensorCategory = TensorCategory.OTHER
    tag: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"request size must be positive, got {self.size}")
        if self.free_time <= self.alloc_time:
            raise ValueError(
                f"free_time ({self.free_time}) must come after alloc_time ({self.alloc_time})"
            )

    # ------------------------------------------------------------------ #
    # Temporal helpers
    # ------------------------------------------------------------------ #
    @property
    def lifespan(self) -> int:
        """Length of the request's live interval in logical time."""
        return self.free_time - self.alloc_time

    @property
    def phase_pair(self) -> tuple[Phase, Phase]:
        """The (allocation phase, free phase) pair that keys HomoPhase groups."""
        return (self.alloc_phase, self.free_phase)

    @property
    def layer_pair(self) -> tuple[str, str]:
        """The (l_s, l_e) module pair that keys HomoLayer groups (dynamic only)."""
        return (self.alloc_module, self.free_module)

    def overlaps(self, other: "MemoryRequest") -> bool:
        """True when the two requests are live at the same time."""
        return self.alloc_time < other.free_time and other.alloc_time < self.free_time

    def overlaps_interval(self, start: int, end: int) -> bool:
        """True when the request is live anywhere in ``[start, end)``."""
        return self.alloc_time < end and start < self.free_time

    def shifted(self, delta: int) -> "MemoryRequest":
        """Return a copy with both timestamps shifted by ``delta``."""
        return replace(self, alloc_time=self.alloc_time + delta, free_time=self.free_time + delta)

    def memory_time(self) -> int:
        """The request's contribution to the time-memory product numerator."""
        return self.size * self.lifespan


def pair_events(events: Iterable[TraceEvent], *, end_of_trace: int | None = None) -> list[MemoryRequest]:
    """Pair raw alloc/free events into :class:`MemoryRequest` objects.

    Allocations that are never freed within the trace (persistent tensors such
    as weights and optimizer states) are closed at ``end_of_trace`` (defaults
    to one tick past the last observed event) with their free phase set to the
    phase of the final event.

    Raises ``ValueError`` on malformed traces (free without a matching alloc,
    duplicate allocation of the same request id).
    """
    events = list(events)
    if not events:
        return []
    last_time = max(e.time for e in events)
    last_phase = max(events, key=lambda e: (e.time, e.phase.index)).phase
    if end_of_trace is None:
        end_of_trace = last_time + 1

    open_allocs: dict[int, TraceEvent] = {}
    requests: list[MemoryRequest] = []
    for event in events:
        if event.is_alloc():
            if event.req_id in open_allocs:
                raise ValueError(f"request {event.req_id} allocated twice without a free")
            open_allocs[event.req_id] = event
        else:
            alloc = open_allocs.pop(event.req_id, None)
            if alloc is None:
                raise ValueError(f"free of unknown request {event.req_id}")
            requests.append(
                MemoryRequest(
                    req_id=alloc.req_id,
                    size=alloc.size,
                    alloc_time=alloc.time,
                    free_time=event.time,
                    alloc_phase=alloc.phase,
                    free_phase=event.phase,
                    dyn=alloc.dyn,
                    alloc_module=alloc.module,
                    free_module=event.module or alloc.module,
                    category=alloc.category,
                    tag=alloc.tag,
                )
            )
    for alloc in open_allocs.values():
        requests.append(
            MemoryRequest(
                req_id=alloc.req_id,
                size=alloc.size,
                alloc_time=alloc.time,
                free_time=max(end_of_trace, alloc.time + 1),
                alloc_phase=alloc.phase,
                free_phase=last_phase,
                dyn=alloc.dyn,
                alloc_module=alloc.module,
                free_module=alloc.module,
                category=alloc.category,
                tag=alloc.tag,
            )
        )
    requests.sort(key=lambda m: (m.alloc_time, m.req_id))
    return requests
