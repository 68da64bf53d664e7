"""Trace replay, memory metrics, and the closed-form throughput cost inputs."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "execution": ["ExecutionContext"],
        "metrics": ["MemoryMetrics"],
        "replay": ["ReplayResult", "replay_trace"],
        "runner": [
            "JobRun",
            "JobSpec",
            "WorkloadRun",
            "run_job",
            "run_jobs",
            "run_workload",
        ],
        "throughput": ["ThroughputModel"],
    },
)
