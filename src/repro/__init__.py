"""STAlloc reproduction: spatio-temporal GPU memory planning for LLM training.

This package reproduces the system described in *"STAlloc: Enhancing Memory
Efficiency in Large-Scale Model Training with Spatio-Temporal Planning"*
(EuroSys '26) as a pure-Python simulation:

* :mod:`repro.gpu` -- simulated GPU memory device and virtual-memory API.
* :mod:`repro.allocators` -- baseline allocators (PyTorch caching allocator,
  expandable segments, GMLake-style stitching, native).
* :mod:`repro.workloads` -- LLM training workload models and allocation-trace
  generation (dense and MoE models, parallelism, recomputation, ZeRO, ...).
* :mod:`repro.core` -- the STAlloc contribution: allocation profiler, plan
  synthesizer, and hybrid static/dynamic runtime allocator.
* :mod:`repro.simulator` -- trace replay, memory metrics, and the whole-job
  runner.
* :mod:`repro.timeline` -- discrete-event iteration-time simulation over the
  per-rank schedules, with routed-load all-to-all communication costs: the
  one model every throughput number comes from.
* :mod:`repro.experiments` -- harnesses regenerating every table and figure of
  the paper's evaluation.
"""

from repro.version import __version__

__all__ = ["__version__"]
