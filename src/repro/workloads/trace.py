"""Allocation trace container and analysis helpers.

A :class:`Trace` is the ordered list of allocation/free events one rank issues
during a single training iteration, together with the metadata needed to
interpret it.  It is the common currency of the repository: the workload
generator produces traces, the profiler and plan synthesizer consume them, and
the replay simulator feeds them to allocators.

Storage is columnar (:class:`repro.core.columns.TraceColumns` -- nine
parallel int lists, the ones the generator or :meth:`Trace.load` appended
to).  The object API is a thin lazy view: ``trace.events`` materializes
:class:`TraceEvent` objects on first access.  Nothing on a run's hot path
asks for it: analytics and serialization are single passes over the columns,
:func:`repro.simulator.replay.replay_trace` walks them as they are, and the
profiler reads the paired requests
off the columns' memoised ``Pairing`` as int lists
(:meth:`TraceColumns.request_columns`; :meth:`Trace.to_requests` is the
object view of the same pairing).
Event objects remain for hand-built traces, tests, and the diagnostics of
:func:`repro.core.events.pair_events` on a trace that does not pair simply.
A trace may be constructed from either representation; whichever side is
missing is derived lazily and memoised.  Traces are treated as immutable once
constructed (the digest memo and the sweep cache rely on it).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

from repro.core.columns import (
    CATEGORIES,
    CATEGORY_CODES,
    ColumnBuilder,
    KINDS,
    TraceColumns,
)
from repro.core.events import (
    MemoryRequest,
    Phase,
    TraceEvent,
    pair_events,
    phase_from_dict,
    phase_to_dict,
)
from repro.digest import sha256

#: Lines of the serialization that are encoded, hashed and written as one chunk.
_CHUNK_LINES = 1024


@dataclass(frozen=True)
class TraceMetadata:
    """Descriptive information attached to a generated trace."""

    model_name: str = ""
    config_label: str = ""
    description: str = ""
    micro_batch_size: int = 0
    num_microbatches: int = 0
    parallelism: str = ""
    seed: int = 0
    scale: float = 1.0
    #: Pipeline rank the trace was generated for.
    rank: int = 0
    #: Expert-parallel rank the trace was generated for (0 unless the job
    #: simulates expert-parallel asymmetry).
    ep_rank: int = 0
    #: ``TrainingConfig.moe_comm_factor`` the trace was generated with: the
    #: scale of the expert-parallel all-to-all dispatch/combine transients
    #: (0 for dense models and for traces without the comm model).
    moe_comm_factor: float = 0.0
    #: TRACEGEN_VERSION of the generator that produced this trace (0 for
    #: traces serialized before the field existed); lets the persistent cache
    #: detect entries written by an older generator without re-hashing.
    tracegen_version: int = 0
    #: Workload class the trace models: ``"training"`` (the default, one
    #: forward+backward+optimizer iteration), ``"inference"`` (forward-only),
    #: or ``"generation"`` (prefill + autoregressive decode with KV caches).
    workload_kind: str = "training"
    #: Decode passes per micro-batch for generation traces (0 otherwise).
    decode_steps: int = 0
    #: Cap on generated tokens per sequence for generation traces (0 = no cap).
    max_new_tokens: int = 0


class Trace:
    """An ordered allocation/free event stream for one training iteration.

    Construct with ``events=`` (object view) or ``columns=`` (columnar view);
    the other representation is derived lazily on first access.
    """

    def __init__(
        self,
        events: Sequence[TraceEvent] | None = None,
        metadata: TraceMetadata | None = None,
        phases: Sequence[Phase] | None = None,
        module_spans: dict[str, tuple[int, int]] | None = None,
        *,
        columns: TraceColumns | None = None,
    ):
        if events is not None and columns is not None:
            raise ValueError("pass either events or columns, not both")
        self._events: list[TraceEvent] | None = (
            list(events) if events is not None else None
        )
        self._columns: TraceColumns | None = columns
        if self._events is None and self._columns is None:
            self._events = []
        self.metadata = metadata if metadata is not None else TraceMetadata()
        self.phases: list[Phase] = list(phases) if phases is not None else []
        self.module_spans: dict[str, tuple[int, int]] = (
            dict(module_spans) if module_spans is not None else {}
        )
        self._digest_cache: str | None = None

    # ------------------------------------------------------------------ #
    # The two views
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> list[TraceEvent]:
        """Object view of the event stream (materialized lazily, memoised)."""
        if self._events is None:
            self._events = self._columns.to_events(self.phases)
        return self._events

    @property
    def columns(self) -> TraceColumns:
        """Columnar view of the event stream (built lazily, memoised)."""
        if self._columns is None:
            self._columns = TraceColumns.from_events(self._events)
        return self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Trace(num_events={self.num_events}, "
            f"model={self.metadata.model_name!r}, "
            f"phases={len(self.phases)})"
        )

    # ------------------------------------------------------------------ #
    # Basic statistics (computed over the columns)
    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        if self._columns is not None:
            return self._columns.num_events
        return len(self._events)

    @property
    def num_requests(self) -> int:
        """Number of allocation requests (the paper's ``Num`` column in Table 2)."""
        return self.columns.num_requests

    @property
    def num_dynamic_requests(self) -> int:
        return self.columns.num_dynamic_requests

    def allocation_sizes(self, *, min_size: int = 0) -> list[int]:
        """Sizes of every allocation request at least ``min_size`` bytes."""
        return self.columns.allocation_sizes(min_size=min_size)

    def distinct_sizes(self, *, min_size: int = 512) -> int:
        """Number of distinct allocation sizes (the Figure 3 statistic)."""
        return self.columns.distinct_sizes(min_size=min_size)

    def size_histogram(self, *, min_size: int = 0) -> Counter:
        """size -> number of allocations of that size."""
        return Counter(dict(self.columns.size_histogram_items(min_size=min_size)))

    def peak_allocated_bytes(self) -> int:
        """Theoretical peak memory demand ``M_a`` of the trace."""
        return self.columns.peak_allocated_bytes()

    def total_allocated_bytes(self) -> int:
        """Sum of all allocation sizes over the iteration."""
        return self.columns.total_allocated_bytes()

    def comm_peak_bytes(self) -> int:
        """Peak concurrently-live communication-buffer bytes.

        Covers every :attr:`TensorCategory.COMM_BUFFER` tensor -- the
        expert-parallel all-to-all dispatch/combine transients, pipeline P2P
        buffers, ZeRO gather/reduce buckets -- so it quantifies how much of
        the memory peak a static planner must provision for communication
        alone.  Like :meth:`peak_allocated_bytes` it is trace-determined:
        every allocator replays the same curve.
        """
        return self.columns.comm_peak_bytes()

    def kv_peak_bytes(self) -> int:
        """Peak concurrently-live KV-cache bytes.

        Covers every :attr:`TensorCategory.KV_CACHE` tensor -- the per-layer
        key/value caches a generation workload allocates at prefill and grows
        per decode step.  Zero for training and inference traces.  Like
        :meth:`peak_allocated_bytes` it is trace-determined: every allocator
        replays the same curve.
        """
        return self.columns.kv_peak_bytes()

    def end_time(self) -> int:
        if self._columns is not None:
            return self._columns.end_time()
        return self._events[-1].time + 1 if self._events else 0

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def phase_table(self) -> dict[int, Phase]:
        """``Phase.index`` -> phase, for readers of the ``phase_index`` column.

        The declared :attr:`phases`, plus -- for a hand-built trace that was
        given events but no phase list -- the phases its events carry.
        """
        table = {phase.index: phase for phase in self.phases}
        if self._events is not None:
            for event in self._events:
                table[event.phase.index] = event.phase
        return table

    def to_requests(self) -> list[MemoryRequest]:
        """Pair alloc/free events into memory-request events (profiler view).

        Built from the columns' memoised alloc/free :class:`Pairing` when the
        trace pairs simply (every generated trace does), without materializing
        an event object; anything else -- id reuse, a free before its alloc --
        goes through :func:`pair_events`, which names what is malformed.
        """
        columns = self.columns
        if not columns.pairing().ok:
            return pair_events(self.events, end_of_trace=self.end_time())
        return columns.to_requests(self.phase_table(), end_of_trace=self.end_time())

    def static_dynamic_split(self) -> tuple[int, int]:
        """(static bytes, dynamic bytes) of the iteration's allocations."""
        return self.columns.static_dynamic_split()

    def category_bytes(self) -> dict[str, int]:
        """Total allocated bytes per tensor category."""
        return self.columns.category_bytes()

    # ------------------------------------------------------------------ #
    # Serialization (line-oriented JSON, mirroring the real profiler's logs)
    # ------------------------------------------------------------------ #
    def iter_jsonl(self) -> Iterator[str]:
        """Yield the canonical JSON-lines serialization, one line at a time.

        The encoding is canonical (sorted keys, fixed separators), so two
        traces serialize to the same bytes exactly when their contents are
        equal -- the property :meth:`digest` and the sweep cache rely on.
        Rows are rendered straight from the columns (objects are never
        materialized): every string a row can hold -- module, tag, kind,
        category -- is JSON-encoded once per distinct value and the integers
        are formatted in place, which yields the same bytes as
        ``json.dumps(row, sort_keys=True, separators=(",", ":"))`` per event.
        """
        header = {
            "metadata": asdict(self.metadata),
            "module_spans": self.module_spans,
            "phases": [phase_to_dict(p) for p in self.phases],
        }
        yield json.dumps(header, sort_keys=True, separators=(",", ":"))
        columns = self.columns
        modules = [json.dumps(module) for module in columns.modules]
        tags = [json.dumps(tag) for tag in columns.tags]
        kinds = [json.dumps(kind.value) for kind in KINDS]
        categories = [json.dumps(category.value) for category in CATEGORIES]
        for kind, req_id, size, time, phase_index, module_index, dyn, category, tag_index in zip(
            columns.kind,
            columns.req_id,
            columns.size,
            columns.time,
            columns.phase_index,
            columns.module_index,
            columns.dyn,
            columns.category,
            columns.tag_index,
        ):
            yield (
                f'{{"category":{categories[category]},"dyn":{"true" if dyn else "false"},'
                f'"kind":{kinds[kind]},"module":{modules[module_index]},'
                f'"phase":{phase_index},"req_id":{req_id},"size":{size},'
                f'"tag":{tags[tag_index]},"time":{time}}}'
            )

    def _hashed_chunks(self) -> Iterator[bytes]:
        """The serialization as UTF-8 chunks of whole lines, hashed on the way.

        Once exhausted, the SHA-256 of exactly the bytes yielded is the
        trace's :meth:`digest`; everything that serializes goes through here,
        so a trace is never rendered a second time only to be hashed.  Lines
        are joined ``_CHUNK_LINES`` at a time, so each is encoded once and
        the hash and the file see a few large buffers.
        """
        hasher = sha256()
        lines = self.iter_jsonl()
        while batch := list(islice(lines, _CHUNK_LINES)):
            batch.append("")  # the chunk's last line ends in a newline too
            chunk = "\n".join(batch).encode("utf-8")
            hasher.update(chunk)
            yield chunk
        self._digest_cache = hasher.hexdigest()

    def dumps(self) -> str:
        """Serialize to the JSON-lines format of :meth:`save` as one string."""
        return b"".join(self._hashed_chunks()).decode("utf-8")

    @classmethod
    def _from_lines(cls, lines) -> "Trace":
        """Build a trace from an iterable of JSON lines (streaming parse).

        Parses straight into columns; event objects stay unmaterialized until
        someone touches ``trace.events``.
        """
        lines = iter(lines)
        try:
            header = json.loads(next(lines))
        except StopIteration:
            raise ValueError("empty trace serialization") from None
        phases = [phase_from_dict(entry) for entry in header["phases"]]
        builder = ColumnBuilder()
        kind_codes = {kind.value: code for code, kind in enumerate(KINDS)}
        category_codes = {
            category.value: CATEGORY_CODES[category] for category in CATEGORIES
        }
        for line in lines:
            if not line.strip():
                continue
            record = json.loads(line)
            builder.append(
                kind_codes[record["kind"]],
                record["req_id"],
                record["size"],
                record["time"],
                record["phase"],
                record["module"],
                record["dyn"],
                category_codes[record["category"]],
                record["tag"],
            )
        metadata = TraceMetadata(**header["metadata"])
        module_spans = {name: tuple(span) for name, span in header["module_spans"].items()}
        return cls(
            metadata=metadata,
            phases=phases,
            module_spans=module_spans,
            columns=builder.build(),
        )

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse a trace from the string produced by :meth:`dumps`."""
        if not text:
            raise ValueError("empty trace serialization")
        return cls._from_lines(text.splitlines())

    def digest(self) -> str:
        """SHA-256 over the canonical serialization (content address of the trace).

        Memoised: traces are treated as immutable once generated, and the
        plan cache computes this once per (trace, knob-combination) pair.
        The memo is also set as a by-product of :meth:`dumps` / :meth:`save`
        (they hash the bytes they produce), so storing a trace and then
        keying a plan on it serializes once.  Anything that mutates the
        columns, phases, module spans or metadata of an existing trace must
        reset ``_digest_cache`` to ``None``.
        """
        if self._digest_cache is None:
            for _ in self._hashed_chunks():
                pass
        return self._digest_cache

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON-lines with a metadata header (streamed)."""
        with Path(path).open("wb") as handle:
            handle.writelines(self._hashed_chunks())

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save` (streamed)."""
        with Path(path).open("r", encoding="utf-8") as handle:
            return cls._from_lines(line.rstrip("\n") for line in handle)
