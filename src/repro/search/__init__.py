"""Auto-parallelism search: find the fastest configuration that fits.

The planner closes the loop the sweep subsystem leaves open: instead of
scoring a user-supplied grid, it derives the legal candidate space from the
model's divisibility constraints and a cluster description, kills candidates
whose admissible memory lower bound already exceeds their device budgets
before any trace is generated, and branch-and-bounds the survivors on an
admissible throughput bound while pricing them through the ordinary sweep
engine (same rows, same cache, same compare gate).
"""

from repro._lazy import attach
from repro.version import SEARCH_VERSION

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "bounds": [
            "memory_lower_bound",
            "persistent_bytes_floor",
            "scoped_layer_bytes_floor",
            "throughput_upper_bound",
            "time_floor_seconds",
        ],
        "cluster": ["ClusterSpec"],
        "planner": ["SearchResult", "run_search", "search_points"],
        "presets": ["SEARCH_PRESETS", "available_search_presets", "load_search_spec"],
        "space": ["SearchSpec"],
    },
    eager=("SEARCH_VERSION",),
)
