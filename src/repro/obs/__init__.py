"""repro.obs -- structured tracing, metrics, and progress telemetry.

Zero-dependency observability for the sweep / search / cache / timeline
orchestration layers.  Disabled by default: every instrumentation helper
(:func:`span`, :func:`counter`, ...) collapses to a near-free no-op until a
:class:`Tracer` is installed, so hot paths carry the hooks permanently.

Typical CLI wiring::

    tracer = configure(ndjson_path="obs.ndjson", chrome_path="trace.json")
    try:
        ...  # run sweep / search / timeline
    finally:
        shutdown()   # flush metrics, close sinks

and later ``stalloc-repro obs summarize obs.ndjson``.

Import layering: instrumented modules deep in the dependency graph (trace
generation, replay, the caches) import :mod:`repro.obs.tracer` directly, and
every export of this package loads on first attribute access, so a run that
records nothing never imports the sinks or the summarizer.
"""

from __future__ import annotations

import os
import time

from repro._lazy import attach
from repro.version import OBS_FORMAT_VERSION

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "metrics": ["HistogramStat", "MetricsRegistry"],
        "progress": ["ProgressReporter"],
        "tracer": [
            "Span",
            "Tracer",
            "absorb",
            "counter",
            "current_tracer",
            "install",
            "is_enabled",
            "observe",
            "shutdown",
            "span",
            "worker_observation",
            "worker_spec",
        ],
        "sinks": ["BufferSink", "ChromeTraceSink", "NDJSONSink", "meta_event", "validate_event"],
        "summarize": [
            "ObsSummary",
            "PathStat",
            "load_events",
            "summarize_events",
            "summarize_file",
        ],
    },
    eager=("OBS_FORMAT_VERSION", "configure"),
)


def configure(*, ndjson_path=None, chrome_path=None):
    """Build and install a tracer for the requested outputs.

    Returns the installed tracer, or ``None`` (and installs nothing) when
    neither path is given -- so CLI call sites can pass their ``--obs-out`` /
    ``--obs-trace`` values straight through.  Callers must pair this with
    :func:`shutdown` to flush sinks.
    """
    if not (ndjson_path or chrome_path):
        return None
    from repro.obs.sinks import ChromeTraceSink, NDJSONSink
    from repro.obs.tracer import Tracer, install

    sinks = []
    if ndjson_path:
        sinks.append(NDJSONSink(ndjson_path, pid=os.getpid(), started=time.time()))
    if chrome_path:
        sinks.append(ChromeTraceSink(chrome_path))
    tracer = Tracer(sinks=sinks)
    install(tracer)
    return tracer
