"""Trace replay, its memory metrics, and the closed-form throughput cost inputs."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "execution": ["ExecutionContext"],
        "replay": ["ReplayResult", "replay_trace"],
        "runner": [
            "JobRun",
            "run_jobs",
            "run_workload",
        ],
        "throughput": ["ThroughputModel"],
    },
)
