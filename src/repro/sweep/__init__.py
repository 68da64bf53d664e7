"""Parallel sweep engine with a persistent trace/plan/result cache.

Sweeps evaluate grids of (TrainingConfig x allocator x STAlloc knob)
combinations -- declaratively specified as JSON or picked from named presets
-- across worker processes, memoising generated per-rank traces, synthesized
STAlloc plans and finished result rows on disk so repeated sweeps skip
regeneration entirely.  A sweep point may cover every pipeline rank of its
job (``"ranks": "all"`` -- for MoE jobs with a non-zero router imbalance this
is the full (pipeline, expert-parallel) coordinate grid); its row then
reports job-level aggregates (binding rank, max/mean peak, throughput).
``compare_results`` diffs two results for CI regression gating and
``compare_files`` diffs two saved results files without re-running.  See
``README.md`` ("Sweeps") for the spec format and cache layout.
"""

from repro._lazy import attach
from repro.version import RESULT_FORMAT_VERSION

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "cache": ["CacheStats", "SweepCache"],
        "compare": ["CompareReport", "compare_files", "compare_results"],
        "engine": ["SweepPointError", "run_sweep"],
        "results": ["SweepResult"],
        "spec": ["SWEEP_PRESETS", "SweepPoint", "SweepSpec", "available_presets", "load_spec"],
    },
    eager=("RESULT_FORMAT_VERSION",),
)
