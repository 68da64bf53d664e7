"""Discrete-event iteration-time simulation (the timing twin of the traces).

Where :mod:`repro.workloads.tracegen` turns a configuration into the
*allocation* behaviour of every rank, this package turns the same
configuration -- same schedules, same router draws -- into its *timing*
behaviour: per-rank event streams whose pipeline bubbles and expert-parallel
straggler stalls emerge from dependencies instead of closed-form fractions.
See :mod:`repro.timeline.simulator` for the model.
"""

from repro._lazy import attach
from repro.version import TIMELINE_VERSION

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "export": ["chrome_trace_dict", "write_chrome_trace"],
        "simulator": [
            "RankTimeline",
            "TimelineEvent",
            "TimelineResult",
            "TimelineSimulator",
            "simulate_timeline",
        ],
    },
    eager=("TIMELINE_VERSION",),
)
