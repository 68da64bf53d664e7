"""Event sinks: NDJSON file, Chrome trace, and in-memory buffer.

Every sink consumes the same flat event dicts the tracer emits.  Three event
types exist (see :func:`validate_event` for the authoritative field lists):

* ``meta``    -- one header line per producing process: schema version
  (:data:`~repro.obs.tracer.OBS_FORMAT_VERSION`), package version, pid, and
  the wall-clock start.  Always the first line an :class:`NDJSONSink` writes,
  so consumers can reject files from an incompatible writer before parsing
  anything else.
* ``span``    -- one finished span: name, per-process span/parent ids, pid,
  nesting depth, epoch ``start`` and ``dur`` seconds, and free-form
  ``attrs``.  Spans absorbed from worker processes may carry ``parent_pid``
  when their parent lives in a different process.
* ``metrics`` -- a :class:`~repro.obs.metrics.MetricsRegistry` snapshot
  (counters / gauges / histograms), flushed when the tracer closes.

The NDJSON sink writes one JSON object per line as events finish -- the
emit-events-as-they-happen form downstream ingestion needs -- while the
Chrome sink buffers until :meth:`~ChromeTraceSink.close` because the trace
container is a single JSON document.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from repro.timeline.chrome import (
    SECONDS_TO_US,
    process_name_event,
    slice_event,
    thread_name_event,
    trace_container,
)
from repro.version import OBS_FORMAT_VERSION, __version__

#: Required fields per event type (field name -> accepted types).  ``attrs``
#: values are free-form but must be JSON-representable, which the sinks
#: guarantee by construction and :func:`validate_event` re-checks on read.
_SPAN_FIELDS = {
    "name": str,
    "span": int,
    "pid": int,
    "depth": int,
    "start": (int, float),
    "dur": (int, float),
    "attrs": dict,
}
_META_FIELDS = {"obs_format_version": int, "version": str, "pid": int, "started": (int, float)}
_METRICS_FIELDS = {"pid": int, "counters": dict, "gauges": dict, "histograms": dict}


def validate_event(event: dict) -> dict:
    """Check one parsed NDJSON object against the version-1 schema.

    Returns the event unchanged; raises :class:`ValueError` naming the first
    offending field otherwise.  ``meta`` events from a different
    ``obs_format_version`` are rejected here -- the version guard every
    reader shares.
    """
    if not isinstance(event, dict):
        raise ValueError(f"obs event must be a JSON object, got {type(event).__name__}")
    kind = event.get("type")
    if kind == "span":
        required = _SPAN_FIELDS
    elif kind == "meta":
        required = _META_FIELDS
    elif kind == "metrics":
        required = _METRICS_FIELDS
    else:
        raise ValueError(f"unknown obs event type {kind!r}")
    for name, types in required.items():
        if name not in event:
            raise ValueError(f"{kind} event missing required field {name!r}")
        if not isinstance(event[name], types) or isinstance(event[name], bool):
            raise ValueError(
                f"{kind} field {name!r} has wrong type {type(event[name]).__name__}"
            )
    if kind == "meta" and event["obs_format_version"] != OBS_FORMAT_VERSION:
        raise ValueError(
            f"unsupported obs_format_version {event['obs_format_version']!r} "
            f"(this reader understands version {OBS_FORMAT_VERSION})"
        )
    if kind == "span":
        parent = event.get("parent")
        if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
            raise ValueError(f"span 'parent' must be an int or null, got {parent!r}")
        if event["dur"] < 0:
            raise ValueError(f"span 'dur' must be >= 0, got {event['dur']!r}")
    return event


def meta_event(pid: int, started: float) -> dict:
    return {
        "type": "meta",
        "obs_format_version": OBS_FORMAT_VERSION,
        "version": __version__,
        "pid": pid,
        "started": started,
    }


class BufferSink:
    """Collects events in memory (worker deltas and tests)."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class NDJSONSink:
    """Appends one JSON object per line, batching span flushes.

    The header ``meta`` line is written eagerly on construction so even an
    aborted run leaves a parseable, version-stamped file.  Span lines batch
    up to :data:`FLUSH_EVERY` events before one write+flush -- per-span
    ``flush`` syscalls are the dominant tracing cost on short sweeps --
    while ``meta``/``metrics`` lines (rare, and the last thing a run emits)
    flush immediately.  Every flush writes whole lines only, so a
    tail-reader (or a crash) never observes a partial JSON object.
    """

    #: Span lines buffered between flushes (a crash can lose at most these).
    FLUSH_EVERY = 64

    def __init__(self, destination: str | Path | IO[str], *, pid: int, started: float):
        if hasattr(destination, "write"):
            self._handle = destination
            self._owns_handle = False
        else:
            self._handle = Path(destination).open("w", encoding="utf-8")
            self._owns_handle = True
        self._pending: list[str] = []
        self.emit(meta_event(pid, started))

    def emit(self, event: dict) -> None:
        self._pending.append(json.dumps(event, separators=(",", ":")) + "\n")
        if event.get("type") != "span" or len(self._pending) >= self.FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            self._handle.write("".join(self._pending))
            self._pending.clear()
            self._handle.flush()

    def close(self) -> None:
        self.flush()
        if self._owns_handle:
            self._handle.close()


class ChromeTraceSink:
    """Buffers spans and writes one Chrome trace-event JSON document on close.

    Reuses the conventions of :mod:`repro.timeline.chrome` (the same dialect
    the simulated-timeline exporter emits), so the *toolchain's own* spans --
    trace generation, cache lookups, replay, plan synthesis, timeline
    pricing, search prunes -- open in Perfetto exactly like a simulated rank
    timeline: one thread row per process, complete ("X") slices, categories
    derived from the span-name prefix (``sweep.point`` -> ``sweep``).
    Timestamps rebase onto the earliest span so the trace starts at zero.
    """

    def __init__(self, destination: str | Path, *, description: str = "stalloc-repro obs"):
        self.destination = destination
        self.description = description
        self._spans: list[dict] = []

    def emit(self, event: dict) -> None:
        if event.get("type") == "span":
            self._spans.append(event)

    def close(self) -> None:
        events: list[dict] = [process_name_event(self.description)]
        pids = []
        for span in self._spans:
            if span["pid"] not in pids:
                pids.append(span["pid"])
        tids = {pid: tid for tid, pid in enumerate(sorted(pids))}
        for pid, tid in sorted(tids.items(), key=lambda item: item[1]):
            label = "main" if tid == 0 else f"worker-{pid}"
            events.append(thread_name_event(f"{label} (pid {pid})", tid=tid))
        base = min((span["start"] for span in self._spans), default=0.0)
        for span in self._spans:
            events.append(
                slice_event(
                    span["name"],
                    span["name"].split(".", 1)[0],
                    (span["start"] - base) * SECONDS_TO_US,
                    span["dur"] * SECONDS_TO_US,
                    tid=tids[span["pid"]],
                    args={**span["attrs"], "pid": span["pid"]},
                )
            )
        payload = trace_container(
            events,
            obs_format_version=OBS_FORMAT_VERSION,
            version=__version__,
            spans=len(self._spans),
        )
        with open(self.destination, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
