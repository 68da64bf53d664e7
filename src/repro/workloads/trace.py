"""Allocation trace container and analysis helpers.

A :class:`Trace` is the ordered list of allocation/free events one rank issues
during a single training iteration, together with the metadata needed to
interpret it.  It is the common currency of the repository: the workload
generator produces traces, the profiler and plan synthesizer consume them, and
the replay simulator feeds them to allocators.

Storage is columnar, and the columns are the trace: nine fixed-width stdlib
``array`` columns (:class:`repro.core.columns.TraceColumns`), filled by the
generator or by :meth:`Trace.load` through a ``ColumnBuilder``.  Analytics and
serialization are single passes over them,
:func:`repro.simulator.replay.replay_trace` walks them as they are, and the
profiler reads the paired requests off their memoised ``Pairing``
(:meth:`TraceColumns.request_columns`).  Traces are treated as immutable once
constructed (the digest memo and the sweep cache rely on it).

A trace's content address, :meth:`digest`, is a SHA-256 over its columns: a
canonical head (metadata, phases, module spans, the interned module and tag
tables, the event count, each column's typecode and item size) and then each
column's little-endian bytes.  A trace has two stored forms.  The canonical
JSON lines of :meth:`dumps` / :meth:`save` are the interchange format and
what the golden trace fixtures hash.  The binary entry of
:meth:`entry_chunks` is what the sweep cache stores: one JSON head line
(entry version, byte order, event count, each column's typecode, item size
and length, the metadata, phases, module spans, interned tables and a CRC-32
of the rest) followed by each column's raw bytes.  :meth:`load` reads either,
telling them apart by the head line.
"""

from __future__ import annotations

import io
import json
import os
import sys
import zlib
from array import array
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from repro.core.columns import (
    CATEGORIES,
    CATEGORY_CODES,
    COLUMN_NAMES,
    COLUMN_TYPES,
    ColumnBuilder,
    KINDS,
    TraceColumns,
)
from repro.core.events import Phase, phase_from_dict, phase_to_dict
from repro.digest import sha256
from repro.version import TRACE_ENTRY_VERSION

#: Lines of the JSON-lines serialization that are encoded and written as one chunk.
_CHUNK_LINES = 1024

#: The last field of a binary entry's head line; the CRC covers the bytes before it.
_CRC_FIELD = b',"crc32":'

#: ``[column, typecode, item size]`` of every column of a binary entry; the
#: head appends each column's length.
_ENTRY_COLUMNS = [[name, typecode, array(typecode).itemsize] for name, typecode in COLUMN_TYPES]


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

    ``columns`` holds the events (an empty trace without them); ``phases``
    declares every ``Phase.index`` the ``phase_index`` column refers to.
    """

    def __init__(
        self,
        metadata: TraceMetadata | None = None,
        phases: Sequence[Phase] | None = None,
        module_spans: dict[str, tuple[int, int]] | None = None,
        *,
        columns: TraceColumns | None = None,
    ):
        self.columns = columns if columns is not None else ColumnBuilder().build()
        self.metadata = metadata if metadata is not None else TraceMetadata()
        self.phases: list[Phase] = list(phases) if phases is not None else []
        self.module_spans: dict[str, tuple[int, int]] = (
            dict(module_spans) if module_spans is not None else {}
        )
        self._digest_cache: str | None = None

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
        return self.columns.num_events

    @property
    def num_requests(self) -> int:
        """Number of allocation requests (the paper's ``Num`` column in Table 2)."""
        return self.columns.num_requests

    def allocation_sizes(self, *, min_size: int = 0) -> list[int]:
        """Sizes of every allocation request at least ``min_size`` bytes."""
        return self.columns.allocation_sizes(min_size=min_size)

    def distinct_sizes(self, *, min_size: int = 512) -> int:
        """Number of distinct allocation sizes (the Figure 3 statistic)."""
        return self.columns.distinct_sizes(min_size=min_size)

    def peak_allocated_bytes(self) -> int:
        """Theoretical peak memory demand ``M_a`` of the trace."""
        return self.columns.peak_allocated_bytes()

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
        return self.columns.end_time()

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def phase_table(self) -> dict[int, Phase]:
        """``Phase.index`` -> phase, for readers of the ``phase_index`` column."""
        return {phase.index: phase for phase in self.phases}

    # ------------------------------------------------------------------ #
    # Serialization (line-oriented JSON, mirroring the real profiler's logs)
    # ------------------------------------------------------------------ #
    def _header(self) -> dict:
        return {
            "metadata": asdict(self.metadata),
            "module_spans": self.module_spans,
            "phases": [phase_to_dict(p) for p in self.phases],
        }

    def iter_jsonl(self) -> Iterator[str]:
        """Yield the canonical JSON-lines serialization, one line at a time.

        The encoding is canonical (sorted keys, fixed separators), so two
        traces serialize to the same bytes exactly when their contents are
        equal -- the property the golden trace fixtures rely on.
        Rows are rendered straight from the columns: every string a row can
        hold -- module, tag, kind, category -- is JSON-encoded once per
        distinct value and the integers are formatted in place, which yields
        the same bytes as ``json.dumps(row, sort_keys=True,
        separators=(",", ":"))`` per event.
        """
        yield json.dumps(self._header(), sort_keys=True, separators=(",", ":"))
        columns = self.columns
        modules = [json.dumps(module) for module in columns.modules]
        tags = [json.dumps(tag) for tag in columns.tags]
        kinds = [json.dumps(kind.value) for kind in KINDS]
        categories = [json.dumps(category.value) for category in CATEGORIES]
        for kind, req_id, size, time, phase_index, module_index, dyn, category, tag_index in zip(
            *(getattr(columns, name) for name in COLUMN_NAMES)
        ):
            yield (
                f'{{"category":{categories[category]},"dyn":{"true" if dyn else "false"},'
                f'"kind":{kinds[kind]},"module":{modules[module_index]},'
                f'"phase":{phase_index},"req_id":{req_id},"size":{size},'
                f'"tag":{tags[tag_index]},"time":{time}}}'
            )

    def _jsonl_chunks(self) -> Iterator[bytes]:
        """The serialization as UTF-8 chunks of whole lines.

        Lines are joined ``_CHUNK_LINES`` at a time, so each is encoded once
        and the file sees a few large buffers.
        """
        lines = self.iter_jsonl()
        while batch := list(islice(lines, _CHUNK_LINES)):
            batch.append("")  # the chunk's last line ends in a newline too
            yield "\n".join(batch).encode("utf-8")

    def dumps(self) -> str:
        """Serialize to the JSON-lines format of :meth:`save` as one string."""
        return b"".join(self._jsonl_chunks()).decode("utf-8")

    @classmethod
    def _from_lines(cls, header: dict, lines) -> "Trace":
        """Build a trace from its parsed header line and the event lines after it."""
        phases = [phase_from_dict(entry) for entry in header["phases"]]
        builder = ColumnBuilder()
        modules, tags = builder.modules, builder.tags
        kind_codes = {kind.value: code for code, kind in enumerate(KINDS)}
        category_codes = {
            category.value: CATEGORY_CODES[category] for category in CATEGORIES
        }
        rows = (
            (
                kind_codes[record["kind"]],
                record["req_id"],
                record["size"],
                record["time"],
                record["phase"],
                modules.setdefault(record["module"], len(modules)),
                1 if record["dyn"] else 0,
                category_codes[record["category"]],
                tags.setdefault(record["tag"], len(tags)),
            )
            for record in map(json.loads, filter(str.strip, lines))
        )
        while chunk := list(islice(rows, _CHUNK_LINES)):
            builder.extend(*zip(*chunk))
        return cls(
            metadata=TraceMetadata(**header["metadata"]),
            phases=phases,
            module_spans=_module_spans(header["module_spans"]),
            columns=builder.build(),
        )

    def digest(self) -> str:
        """SHA-256 over the trace's columns (its content address).

        Hashed: one canonical JSON head line -- metadata, phases, module
        spans, the interned module and tag tables, the event count and each
        column's ``[name, typecode, item size]`` -- then every column's
        bytes in little-endian order, whatever the host's byte order.  The
        head's event count and the fixed item sizes delimit the columns, so
        two traces share an address exactly when their contents are equal.

        Memoised: traces are treated as immutable once generated, and the
        plan cache computes this once per (trace, knob-combination) pair.
        Anything that mutates the columns, phases, module spans or metadata
        of an existing trace must reset ``_digest_cache`` to ``None``.
        """
        if self._digest_cache is None:
            columns = self.columns
            head = {
                **self._header(),
                "events": columns.num_events,
                "columns": _ENTRY_COLUMNS,
                "modules": columns.modules,
                "tags": columns.tags,
            }
            hasher = sha256(
                json.dumps(head, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
            )
            swap = sys.byteorder != "little"
            for name in COLUMN_NAMES:
                column = getattr(columns, name)
                if swap and column.itemsize > 1:
                    column = array(column.typecode, column)
                    column.byteswap()
                hasher.update(column)
            self._digest_cache = hasher.hexdigest()
        return self._digest_cache

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON-lines with a metadata header (streamed)."""
        with Path(path).open("wb") as handle:
            handle.writelines(self._jsonl_chunks())

    # ------------------------------------------------------------------ #
    # Binary entry (what the sweep cache stores)
    # ------------------------------------------------------------------ #
    def entry_chunks(self) -> Iterator[bytes | array]:
        """The binary entry: one JSON head line, then each column's raw bytes.

        The head's last field, ``crc32``, is a CRC-32 of the rest of the head
        line and of every column's bytes, so a flipped byte anywhere is
        caught on read.  The columns are yielded as the arrays themselves,
        which a binary file writes without a copy.  The entry stores no
        digest: a loaded trace hashes its columns in milliseconds.
        """
        columns = self.columns
        head = {
            "trace_entry": TRACE_ENTRY_VERSION,
            "byteorder": sys.byteorder,
            "events": columns.num_events,
            "columns": [[*layout, columns.num_events] for layout in _ENTRY_COLUMNS],
            **self._header(),
            "modules": columns.modules,
            "tags": columns.tags,
        }
        stored = [getattr(columns, name) for name in COLUMN_NAMES]
        covered = json.dumps(head, separators=(",", ":")).encode("utf-8")[:-1]  # open at the end
        yield covered + b'%s%d}\n' % (_CRC_FIELD, _entry_crc(covered, stored))
        yield from stored

    @classmethod
    def _from_entry(cls, head: dict, line: bytes, handle: IO[bytes]) -> "Trace":
        """The rest of a binary entry whose head ``line`` has been read and parsed.

        Anything but a whole entry of this version and byte order -- cut
        short anywhere, a head whose count disagrees with a column, trailing
        bytes, content that fails the head's CRC-32, an interned index out of
        its table -- raises ``ValueError``.
        """
        version = head.get("trace_entry")
        if version != TRACE_ENTRY_VERSION:
            raise ValueError(f"trace entry version {version!r} is not {TRACE_ENTRY_VERSION}")
        if head["byteorder"] != sys.byteorder:
            raise ValueError(f"trace entry written {head['byteorder']}-endian")
        count = head["events"]
        if head["columns"] != [[*layout, count] for layout in _ENTRY_COLUMNS]:
            raise ValueError("trace entry columns disagree with its event count")
        # Checked before reading, so a damaged count never sizes a buffer.
        body = os.fstat(handle.fileno()).st_size - handle.tell()
        if body != count * sum(itemsize for _, _, itemsize in _ENTRY_COLUMNS):
            raise ValueError(f"trace entry holds {body} column bytes, not {count} events' worth")
        stored = {}
        for name, typecode in COLUMN_TYPES:
            column = stored[name] = array(typecode)
            try:
                column.fromfile(handle, count)
            except EOFError:
                raise ValueError(f"trace entry cut short in column {name!r}") from None
        covered = line[: line.rindex(_CRC_FIELD)]  # no field: ValueError
        if head.get("crc32") != _entry_crc(covered, stored.values()):
            raise ValueError("trace entry fails its CRC-32")
        columns = TraceColumns(**stored, modules=tuple(head["modules"]), tags=tuple(head["tags"]))
        phases = [phase_from_dict(entry) for entry in head["phases"]]
        bounds = (
            ("kind", len(KINDS)), ("dyn", 2), ("category", len(CATEGORIES)),
            ("module_index", len(columns.modules)), ("tag_index", len(columns.tags)),
        )
        for name, bound in bounds:
            column = stored[name]
            if column and not 0 <= min(column) <= max(column) < bound:
                raise ValueError(f"trace entry column {name!r} holds an index out of range")
        if count and not set(columns.phase_index) <= {phase.index for phase in phases}:
            raise ValueError("trace entry refers to an undeclared phase")
        return cls(
            metadata=TraceMetadata(**head["metadata"]),
            phases=phases,
            module_spans=_module_spans(head["module_spans"]),
            columns=columns,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save` or stored by :meth:`entry_chunks`.

        The first line tells which: a binary entry's head has a
        ``trace_entry`` key, the JSON-lines header never does.  Either is
        read in one streamed pass.
        """
        with Path(path).open("rb") as handle:
            line = handle.readline()
            header = json.loads(line)
            if not isinstance(header, dict):
                raise ValueError("a trace begins with a JSON object")
            if "trace_entry" in header:
                return cls._from_entry(header, line, handle)
            lines = io.TextIOWrapper(handle, encoding="utf-8")
            return cls._from_lines(header, (line.rstrip("\n") for line in lines))


def _entry_crc(covered: bytes, columns: Iterable[array]) -> int:
    """CRC-32 of a binary entry's head line up to its ``crc32`` field, then its columns."""
    checksum = zlib.crc32(covered)
    for column in columns:
        checksum = zlib.crc32(column, checksum)
    return checksum


def _module_spans(stored: dict) -> dict[str, tuple[int, int]]:
    return {name: tuple(span) for name, span in stored.items()}
