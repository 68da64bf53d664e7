"""Hierarchical span tracer with pluggable sinks.

The tracer is a process-wide singleton installed with :func:`install` (the
CLI does this from ``--obs-out`` / ``--obs-trace``) and queried on every
instrumentation site through module-level helpers:

* :func:`span` -- context manager timing one named unit of work.  Nesting is
  tracked through a :class:`contextvars.ContextVar`, so spans stay correctly
  parented across threads and ``asyncio`` tasks.  When no tracer is
  installed, :func:`span` returns a shared no-op object: the disabled cost is
  one global load, one ``is None`` test, and an attribute-free ``with`` --
  cheap enough to leave permanently in hot paths (guarded by the overhead
  test in ``tests/test_obs.py``).
* :func:`counter` / :func:`gauge` / :func:`observe` -- forward to the
  installed tracer's :class:`~repro.obs.metrics.MetricsRegistry`, no-ops when
  disabled.

Cross-process protocol: the one fan-out in the package
(:meth:`repro.simulator.execution.ExecutionContext.map`) calls
:func:`worker_spec` and ships the result to worker processes; each worker
wraps its unit of work in :func:`worker_observation`, which installs a
buffering tracer and returns a serializable delta (span events + metric
snapshot).  The parent folds deltas back with :func:`absorb` -- re-emitting
the worker's span events into its own sinks (re-parented under the parent's
current span, so ``obs summarize`` shows one tree) and merging the metrics.

Span timestamps use ``time.time`` (epoch seconds): unlike ``perf_counter``
it is guaranteed comparable across processes, which is what lets one NDJSON
file interleave parent and worker spans on a single timeline.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time

from repro.obs.metrics import MetricsRegistry
from repro.version import OBS_FORMAT_VERSION

#: (parent span id, depth) of the innermost open span in this context.
_CONTEXT: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "obs_span_context", default=None
)

#: The installed tracer (None = observability disabled, the default).
_ACTIVE: "Tracer | None" = None

#: Process-global span id source (thread-safe in CPython).  Module-level
#: rather than per-tracer so ids stay unique within one pid even when a
#: reused pool worker installs a fresh tracer per task -- summaries key
#: spans by (pid, span id).
_SPAN_IDS = itertools.count(1)


class Tracer:
    """Routes finished spans to sinks and metrics to a registry."""

    def __init__(self, sinks=(), *, clock=time.time, metrics: MetricsRegistry | None = None):
        self.sinks = list(sinks)
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pid = os.getpid()

    def next_span_id(self) -> int:
        return next(_SPAN_IDS)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def absorb(self, delta: dict | None) -> None:
        """Fold one worker's :func:`worker_observation` delta into this tracer.

        Span events re-emit into this tracer's sinks; parentless worker spans
        are re-parented under the caller's currently open span (recording the
        parent's pid alongside, since span ids are only unique per process)
        so summaries show a single tree instead of per-worker islands.
        """
        if not delta:
            return
        context = _CONTEXT.get()
        depth_offset = context[1] + 1 if context else 0
        for event in delta.get("events", ()):
            if event.get("type") == "span" and context:
                if event.get("parent") is None:
                    event = dict(event, parent=context[0], parent_pid=self.pid)
                else:
                    event = dict(event)
                # The whole worker tree nests under the parent's open span,
                # so every span shifts by the same depth offset.
                event["depth"] = event.get("depth", 0) + depth_offset
            self.emit(event)
        metrics = delta.get("metrics")
        if metrics:
            self.metrics.merge(metrics)

    def flush_metrics(self) -> None:
        """Emit the registry's current totals as one ``metrics`` event."""
        if self.metrics:
            self.emit(
                {"type": "metrics", "pid": self.pid, "time": self.clock(), **self.metrics.snapshot()}
            )

    def close(self) -> None:
        self.flush_metrics()
        for sink in self.sinks:
            sink.close()


class _NoopSpan:
    """Shared reentrant no-op: what :func:`span` returns when disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


_NOOP_SPAN = _NoopSpan()


class Span:
    """One live span: times its ``with`` block and emits a ``span`` event."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "depth", "start", "_token")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tracer = self.tracer
        context = _CONTEXT.get()
        self.parent_id, self.depth = (
            (context[0], context[1] + 1) if context else (None, 0)
        )
        self.span_id = tracer.next_span_id()
        self._token = _CONTEXT.set((self.span_id, self.depth))
        self.start = tracer.clock()
        return self

    def set(self, **attrs):
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb):
        end = self.tracer.clock()
        _CONTEXT.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.tracer.emit(
            {
                "type": "span",
                "name": self.name,
                "span": self.span_id,
                "parent": self.parent_id,
                "pid": self.tracer.pid,
                "depth": self.depth,
                "start": self.start,
                "dur": end - self.start,
                "attrs": self.attrs,
            }
        )
        return False


def span(name: str, **attrs):
    """Time one named unit of work (no-op unless a tracer is installed)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP_SPAN
    return Span(tracer, name, attrs)


def counter(name: str, value: float = 1) -> None:
    """Increment a named counter (no-op unless a tracer is installed)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.metrics.count(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample (no-op unless a tracer is installed)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.metrics.observe(name, value)


def is_enabled() -> bool:
    return _ACTIVE is not None


def current_tracer() -> Tracer | None:
    return _ACTIVE


def install(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` process-wide; returns the previously installed one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def shutdown() -> None:
    """Close and uninstall the active tracer (flushes sinks and metrics)."""
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    if tracer is not None:
        tracer.close()


def absorb(delta: dict | None) -> None:
    """Fold a worker delta into the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.absorb(delta)


def worker_spec() -> dict | None:
    """Serializable marker telling worker processes to observe their work.

    ``None`` when observability is disabled -- workers then skip all setup,
    keeping the disabled path identical to pre-obs behaviour.
    """
    return {"obs_format_version": OBS_FORMAT_VERSION} if _ACTIVE is not None else None


class worker_observation:
    """Context manager worker processes wrap one unit of work in.

    With a falsy ``spec`` it does nothing and :attr:`delta` stays ``None``.
    Otherwise it installs a buffering tracer for the duration of the block
    and leaves the serializable delta -- ``{"events": [...], "metrics"
    {...}}`` -- in :attr:`delta` for the worker to ship back with its result.

    The span context is reset for the block: fork-started pool workers
    inherit the parent's open-span :data:`_CONTEXT`, and without the reset
    the worker's first span would adopt a parent id from another process --
    possibly its own fresh id, producing a self-referencing span.
    """

    def __init__(self, spec: dict | None):
        self.spec = spec
        self.delta: dict | None = None
        self._previous: Tracer | None = None
        self._buffer = None
        self._token = None

    def __enter__(self):
        if self.spec:
            from repro.obs.sinks import BufferSink

            self._buffer = BufferSink()
            self._previous = install(Tracer(sinks=[self._buffer]))
            self._token = _CONTEXT.set(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._buffer is not None:
            _CONTEXT.reset(self._token)
            tracer = current_tracer()
            install(self._previous)
            self.delta = {
                "events": self._buffer.events,
                "metrics": tracer.metrics.snapshot() if tracer and tracer.metrics else {},
            }
        return False
