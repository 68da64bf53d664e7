"""STAlloc core: profiler, plan synthesizer and runtime allocator.

This package contains the paper's primary contribution:

* :mod:`repro.core.events` -- the vocabulary of the memory-request event model
  ``m := (s, t_s, t_e, p_s, p_e, dyn)`` (§4): phases and tensor categories.
* :mod:`repro.core.columns` -- traces and paired requests as typed columns.
* :mod:`repro.core.profiler` -- the Allocation Profiler that pairs alloc/free
  events from a trace into memory-request columns (§4).
* :mod:`repro.core.homophase` / :mod:`repro.core.homosize` /
  :mod:`repro.core.planner` -- the Plan Synthesizer's static allocation
  planning: HomoPhase grouping with TMP-guided fusion, HomoSize grouping with
  memory-layer construction (Algorithm 1), and descending-size global
  planning (§5.1).
* :mod:`repro.core.dynamic_space` -- Dynamic Reusable Space location through
  HomoLayer groups (§5.2).
* :mod:`repro.core.runtime` -- the Runtime Allocator with Static Allocator,
  Dynamic Allocator, Request Matcher and caching-allocator fallback (§6).
* :mod:`repro.core.stalloc` -- the :class:`STAlloc` facade tying the pipeline
  together (profile -> synthesize -> allocate).
"""

from repro._lazy import attach

# Lazy on purpose: repro.allocators.base imports repro.core.events, and the
# runtime allocator imports repro.allocators, so an eager import here would be
# circular -- and would load the execution layer for anyone who only wants the
# event model.
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "events": ["EventKind", "Phase", "PhaseKind", "TensorCategory"],
        "intervals": ["Interval", "IntervalSet"],
        "plan": ["StaticAllocationPlan", "SynthesizedPlan"],
        "profiler": ["AllocationProfiler", "ProfileResult"],
        "synthesizer": ["PlanSynthesizer"],
        "runtime": ["RuntimeAllocator"],
        "stalloc": ["STAlloc"],
        "config": ["STAllocConfig"],
    },
)
