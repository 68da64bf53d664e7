"""The execution context: where a unit of work finds its caches and workers.

Every orchestrator in the package -- the experiment runner, the sweep engine,
the search planner -- runs the same unit of work ("fetch this rank's trace
and replay it through the allocators that need it, taking the trace and the
plans from a cache if one exists") many times.  :class:`ExecutionContext` is
the one object that says where the on-disk cache is and owns the only
process pool in ``repro``; it is passed explicitly, so nothing about
execution lives in module state that a test or a second caller could leak
into.  It keeps no trace in memory: a caller that replays a trace several
times holds it for as long as it needs it, and no longer.  What it does keep
is the last *plan shape* it synthesized and that plan (a
:class:`~repro.core.synthesizer.LastPlan`): the EP ranks of one pipeline
stage differ only in routed-expert sizes, which the planner never reads, and
arrive back to back, so each shares the first one's synthesis.  One entry
gets every such repeat; a memo of every plan raised a search's peak RSS by
over a tenth.  Nor is the one entry kept past its stage: fetching a trace of
another stage, config, seed or scale forgets it, so a run whose traces never
repeat a shape holds no plan its replays no longer read.

Constructing a context imports nothing heavy: the trace generator, the
planner and the process pool are each imported by the method that first needs
them (:meth:`~ExecutionContext.trace`, :meth:`~ExecutionContext.stalloc`,
:meth:`~ExecutionContext.map`), so a run served from the result cache loads
none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import STAllocConfig
from repro.obs.tracer import absorb as _obs_absorb
from repro.obs.tracer import worker_observation, worker_spec
from repro.workloads.training import TrainingConfig

if TYPE_CHECKING:
    from repro.core.stalloc import STAlloc
    from repro.core.synthesizer import LastPlan
    from repro.workloads.trace import Trace


class ExecutionContext:
    """How work executes: the disk cache and the worker count.

    ``cache_dir`` names the persistent :class:`~repro.sweep.cache.SweepCache`
    directory (``None`` = no disk cache), ``cache_max_bytes`` caps it inline
    (see :meth:`SweepCache.prune`), and ``jobs`` is the number of worker
    processes :meth:`map` fans out over.  ``ExecutionContext()`` is serial
    with no disk cache.  :meth:`stalloc` plans through the context's one-entry
    memo of the last plan shape it synthesized (see the module docstring).
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        cache_max_bytes: int | None = None,
        jobs: int = 1,
    ):
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        if cache_max_bytes is not None and cache_max_bytes < 0:
            raise ValueError(f"cache_max_bytes must be >= 0, got {cache_max_bytes!r}")
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cache_max_bytes = cache_max_bytes
        self.jobs = jobs
        self._cache = None
        self._last_plan: LastPlan | None = None
        #: ``(config, seed, scale, rank)`` of the last trace fetched: its
        #: stage, whose EP ranks may share the last plan.
        self._stage: tuple | None = None

    @property
    def cache(self):
        """The context's :class:`SweepCache`, opened on first use (or None)."""
        if self._cache is None and self.cache_dir is not None:
            # Imported lazily: repro.sweep's engine is built on this module.
            from repro.sweep.cache import SweepCache

            self._cache = SweepCache(self.cache_dir, max_bytes=self.cache_max_bytes)
        return self._cache

    def trace(
        self,
        config: TrainingConfig,
        *,
        seed: int = 0,
        scale: float = 1.0,
        rank: int = 0,
        ep_rank: int = 0,
    ) -> Trace:
        """One rank's allocation trace: the disk cache, else the generator.

        With a disk cache the trace is read back from it (generated and
        stored on a miss, keyed on the full config fingerprint *including*
        both rank coordinates, so per-(pp, ep)-rank traces of one job never
        alias each other); without one it is generated.  Every call fetches
        anew: nothing is memoised here.  A trace of another stage than the
        last one's forgets the last plan (see the module docstring).
        """
        stage = (config, seed, scale, rank)
        if stage != self._stage:
            self._stage, self._last_plan = stage, None
        if self.cache is not None:
            return self.cache.get_trace(config, seed=seed, scale=scale, rank=rank, ep_rank=ep_rank)
        from repro.workloads.tracegen import TraceGenerator

        return TraceGenerator(config, seed=seed, scale=scale, rank=rank, ep_rank=ep_rank).generate()

    def stalloc(self, trace: Trace, stalloc_config: STAllocConfig) -> STAlloc:
        """A planned STAlloc for the trace: the plan cache, else the pipeline.

        The pipeline's synthesis goes through the context's last plan shape:
        a trace of that shape shares its plan and keeps its own profile.
        """
        from repro.core.stalloc import STAlloc
        from repro.core.synthesizer import LastPlan

        if self._last_plan is None:
            self._last_plan = LastPlan()
        if self.cache is not None:
            return self.cache.get_stalloc(trace, stalloc_config, last_plan=self._last_plan)
        return STAlloc.from_trace(trace, stalloc_config, last_plan=self._last_plan)

    def fans_out(self, count: int) -> bool:
        """Whether :meth:`map` runs ``count`` items in worker processes.

        It does with more than one worker and more than one item; otherwise
        every item runs in-process on this context.
        """
        return self.jobs > 1 and count > 1

    def map(self, fn, items):
        """Yield ``fn(ctx, item)`` for every item, in submission order.

        The only fan-out in the package.  Unless :meth:`fans_out` says so,
        ``fn`` runs in-process on this context.  Otherwise the items spread
        over worker processes; each worker calls ``fn`` on its own serial
        context for the same cache directory (so pools cannot nest), and
        every result's cache-statistics and observability deltas are folded
        back into this context before the result is yielded.  ``fn`` must be
        picklable (a module-level function).
        """
        items = list(items)
        if not self.fans_out(len(items)):
            for item in items:
                yield fn(self, item)
            return
        from concurrent.futures import ProcessPoolExecutor

        obs_spec = worker_spec()
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(items)),
            initializer=_open_worker_context,
            initargs=(self.cache_dir, self.cache_max_bytes),
        ) as pool:
            payloads = [(fn, item, obs_spec) for item in items]
            for result, stats, delta in pool.map(_call_in_worker, payloads):
                for name, value in stats.items():
                    setattr(self.cache.stats, name, getattr(self.cache.stats, name) + value)
                _obs_absorb(delta)
                yield result


#: The serial context of this pool worker process, opened once by the pool
#: initializer so the disk cache handle outlives one task.  None outside a
#: worker.
_WORKER_CONTEXT: ExecutionContext | None = None


def _open_worker_context(cache_dir: str | None, cache_max_bytes: int | None) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ExecutionContext(cache_dir, cache_max_bytes)


def _call_in_worker(payload: tuple) -> tuple:
    """Pool entry point: (result, cache-stats delta, obs delta) of one item."""
    fn, item, obs_spec = payload
    ctx = _WORKER_CONTEXT
    cache = ctx.cache
    before = cache.stats.as_dict() if cache is not None else {}
    with worker_observation(obs_spec) as observation:
        result = fn(ctx, item)
    after = cache.stats.as_dict() if cache is not None else {}
    stats = {name: after[name] - value for name, value in before.items()}
    return result, stats, observation.delta
