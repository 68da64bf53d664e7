"""Persistent content-addressed cache for traces, plans and sweep results.

Layout under the cache root::

    <root>/traces/<config-fingerprint>.jsonl   generated allocation traces
    <root>/plans/<trace+knobs-hash>.json       synthesized STAlloc plans
    <root>/results/<point-hash>.json           finished sweep-point rows

A trace entry is binary (``Trace.entry_chunks``): one JSON head line --
``trace_entry`` version, byte order, event count, each column's typecode, item
size and length, the metadata, phases, module spans, interned module and tag
tables and a CRC-32 of everything else -- followed by the raw bytes of the
nine typed columns, ~39 bytes an event.  A hit reads the columns back with
``array.fromfile`` and checks the CRC; the trace's digest, which keys its
plans, is a hash of those columns, not stored.  The reader tells the format
by the head line, not the file suffix (which predates the binary entry): a
JSON-lines trace written there by ``Trace.save`` is a hit too.  An entry cut short, of another entry version or
byte order, whose head disagrees with its columns or whose bytes fail the
CRC is a miss, regenerated and rewritten.

A plan entry is one compact JSON document that opens with its
``format_version`` (so staleness is read off the head of the file) and holds
the static plan as five parallel int columns -- ``req_id``, ``size``,
``alloc_time``, ``free_time``, ``address`` -- plus the pool size, the dynamic
reusable spaces, the dynamic request ids grouped by HomoLayer group, the
synthesis statistics and the planning report; no wall-clock is stored.

Traces are keyed by :func:`repro.workloads.fingerprint.config_fingerprint` (a
hash of everything that determines generation, which is deterministic), plans
by the SHA-256 of the trace content plus the STAlloc pipeline configuration,
and results by the trace fingerprint plus the sweep point's identity.  Because
keys are content addresses and trace and plan entries are functions of their
key alone, concurrent writers racing on such an entry write identical bytes;
writes go through a temp file + :func:`os.replace` so readers never observe a
partial entry.

The cache is safe to delete at any time -- every entry can be regenerated.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.core.config import STAllocConfig
from repro.digest import sha256
from repro.obs.tracer import counter as _obs_counter
from repro.version import (
    PLAN_ENTRY_HEAD,
    PLAN_FORMAT_VERSION,
    RESULT_FORMAT_VERSION,
    TIMELINE_VERSION,
    TRACEGEN_VERSION,
    __version__,
)
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.training import TrainingConfig

if TYPE_CHECKING:
    from array import array

    from repro.core.stalloc import STAlloc
    from repro.workloads.trace import Trace

#: Key under which :meth:`SweepCache.store_result` embeds the writer's result
#: format version inside each stored row (stripped again on load); lets
#: :meth:`SweepCache.prune` identify rows written by an older format even
#: though the file name is an opaque content hash.
_RESULT_VERSION_KEY = "_result_format_version"

#: Minimum age (seconds) before :meth:`SweepCache.prune` reaps a ``.tmp``
#: file.  A young temp file is very likely another worker's *in-flight*
#: atomic write -- deleting it makes that worker's ``os.replace`` fail -- so
#: only temp files old enough to be abandoned leftovers are removed.
_TMP_REAP_SECONDS = 60.0


@dataclass
class CacheStats:
    """Hit/miss counters, per layer, for one :class:`SweepCache` instance."""

    trace_hits: int = 0
    trace_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    evicted_entries: int = 0
    evicted_bytes: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def hits(self) -> int:
        return self.trace_hits + self.plan_hits + self.result_hits

    @property
    def misses(self) -> int:
        return self.trace_misses + self.plan_misses + self.result_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk, across all three layers."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def _atomic_write(path: Path, chunks: Iterable[bytes | array]) -> int:
    """Write the concatenated ``chunks`` to ``path``; readers never see partial content.

    The chunks are streamed into a temp file in the entry's directory, which
    replaces the entry only once the last one is written; if producing or
    writing a chunk raises, the temp file is removed and the entry is left
    as it was.  Returns the number of bytes the entry occupies.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
            handle.flush()
            size = os.fstat(handle.fileno()).st_size
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return size


class SweepCache:
    """On-disk cache shared by the sweep engine and the experiment runner.

    ``max_bytes`` optionally caps the cache size: whenever a store pushes the
    total past the cap, the least-recently-written entries are evicted inline
    (the same LRU policy as :meth:`prune`, minus the stale-version content
    scan) until the cache fits again.  Without it the cache only shrinks when
    ``prune`` is called explicitly.
    """

    def __init__(self, root: str | Path, *, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.traces_dir = self.root / "traces"
        self.plans_dir = self.root / "plans"
        self.results_dir = self.root / "results"
        for directory in (self.traces_dir, self.plans_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        #: Running size estimate (full scan + bytes written since), so the
        #: per-store cap check does not re-stat every entry; ``None`` until
        #: the first capped store forces a scan.
        self._size_estimate: int | None = None

    def enforce_cap(self) -> None:
        """LRU-evict down to the cap from the *actual* on-disk size.

        Rescans the cache; the hot store path goes through :meth:`_note_store`
        instead, which only rescans when its running estimate crosses the cap.
        """
        if self.max_bytes is None:
            return
        self._size_estimate = self.size_bytes()
        if self._size_estimate > self.max_bytes:
            report = self.prune(self.max_bytes, sweep_stale=False)
            self._size_estimate = report["remaining_bytes"]

    def _note_store(self, nbytes: int) -> None:
        """Account one store against the cap using the running estimate.

        The estimate only ever errs high for this process's own writes
        (overwrites of identical content-addressed entries are counted
        twice), which at worst triggers a harmless early prune; writes from
        concurrent workers are invisible until the next real scan, which the
        sweep engine forces once at the end of every capped sweep.
        """
        if self.max_bytes is None:
            return
        if self._size_estimate is None:
            self._size_estimate = self.size_bytes()
        else:
            self._size_estimate += nbytes
        if self._size_estimate > self.max_bytes:
            report = self.prune(self.max_bytes, sweep_stale=False)
            self._size_estimate = report["remaining_bytes"]

    # ------------------------------------------------------------------ #
    # Traces
    # ------------------------------------------------------------------ #
    def trace_path(self, fingerprint: str) -> Path:
        return self.traces_dir / f"{fingerprint}.jsonl"

    def get_trace(
        self,
        config: TrainingConfig,
        *,
        seed: int = 0,
        scale: float = 1.0,
        rank: int = 0,
        ep_rank: int = 0,
    ) -> Trace:
        """Load one rank's trace from disk, generating and storing on miss.

        The fingerprint includes both rank coordinates, so per-(pp, ep)-rank
        traces of one job are cached (and looked up) independently -- a trace
        generated for one coordinate can never satisfy a request for another.
        """
        from repro.workloads.trace import Trace

        fingerprint = config_fingerprint(
            config, seed=seed, scale=scale, rank=rank, ep_rank=ep_rank
        )
        path = self.trace_path(fingerprint)
        if path.exists():
            try:
                trace = Trace.load(path)
                self.stats.trace_hits += 1
                _obs_counter("cache.hit")
                return trace
            except (ValueError, KeyError, TypeError):
                path.unlink(missing_ok=True)  # corrupt entry: fall through to regenerate
        self.stats.trace_misses += 1
        _obs_counter("cache.miss")
        from repro.workloads.tracegen import TraceGenerator

        trace = TraceGenerator(
            config, seed=seed, scale=scale, rank=rank, ep_rank=ep_rank
        ).generate()
        self._note_store(_atomic_write(path, trace.entry_chunks()))
        return trace

    # ------------------------------------------------------------------ #
    # STAlloc plans
    # ------------------------------------------------------------------ #
    def plan_key(self, trace: Trace, stalloc_config: STAllocConfig) -> str:
        """Content address: hash of the trace's digest + the pipeline config."""
        payload = json.dumps(
            {
                "format_version": PLAN_FORMAT_VERSION,
                # Plans depend on synthesizer code, and result rows on
                # allocator code; keying on the release version keeps a
                # long-lived cache from serving metrics computed by an older
                # implementation.
                "version": __version__,
                "trace": trace.digest(),
                "config": asdict(stalloc_config),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return sha256(payload.encode("utf-8")).hexdigest()

    def plan_path(self, key: str) -> Path:
        return self.plans_dir / f"{key}.json"

    def get_stalloc(self, trace: Trace, stalloc_config: STAllocConfig | None = None) -> STAlloc:
        """Load a planned STAlloc for the trace, running the pipeline on miss."""
        from repro.core.stalloc import STAlloc

        stalloc_config = stalloc_config or STAllocConfig()
        path = self.plan_path(self.plan_key(trace, stalloc_config))
        if path.exists():
            try:
                stalloc = STAlloc.load_plan(path)
                self.stats.plan_hits += 1
                _obs_counter("cache.hit")
                return stalloc
            except (ValueError, KeyError, TypeError):
                path.unlink(missing_ok=True)  # corrupt or older format: regenerate
        self.stats.plan_misses += 1
        _obs_counter("cache.miss")
        stalloc = STAlloc.from_trace(trace, stalloc_config)
        self._note_store(_atomic_write(path, (stalloc.dumps().encode(),)))
        return stalloc

    # ------------------------------------------------------------------ #
    # Sweep-point results
    # ------------------------------------------------------------------ #
    def result_key(self, trace_fingerprint: str, point_payload: dict) -> str:
        # Rows carry throughput columns computed by the discrete-event
        # simulator; a TIMELINE_VERSION bump (changed event model) must
        # invalidate them just like TRACEGEN_VERSION -- which rides inside
        # the trace fingerprint -- invalidates traces.
        payload = json.dumps(
            {
                "format_version": RESULT_FORMAT_VERSION,
                "version": __version__,
                "timeline_version": TIMELINE_VERSION,
                "trace": trace_fingerprint,
                "point": point_payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return sha256(payload.encode("utf-8")).hexdigest()

    def result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def load_result(self, key: str) -> dict | None:
        path = self.result_path(key)
        if not path.exists():
            self.stats.result_misses += 1
            _obs_counter("cache.miss")
            return None
        try:
            row = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(row, dict):
                raise ValueError(f"result entry is not an object: {type(row).__name__}")
        except ValueError:
            path.unlink(missing_ok=True)  # corrupt or foreign entry: recompute
            self.stats.result_misses += 1
            _obs_counter("cache.miss")
            return None
        row.pop(_RESULT_VERSION_KEY, None)
        self.stats.result_hits += 1
        _obs_counter("cache.hit")
        return row

    def store_result(self, key: str, row: dict) -> None:
        stored = dict(row)
        stored[_RESULT_VERSION_KEY] = RESULT_FORMAT_VERSION
        self._note_store(_atomic_write(self.result_path(key), (json.dumps(stored).encode(),)))

    def cache_stats(self) -> dict:
        """This instance's lookup and eviction statistics, as a flat dict.

        Extends :attr:`stats` (per-layer hit/miss counters, eviction totals)
        with the derived overall ``hits`` / ``misses`` / ``hit_rate``, which
        is what the CLI prints and what sweeps report back per worker.
        """
        report = self.stats.as_dict()
        report["hits"] = self.stats.hits
        report["misses"] = self.stats.misses
        report["hit_rate"] = self.stats.hit_rate
        return report

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def size_bytes(self) -> int:
        """Total bytes currently held by the cache (all layers).

        Tolerant of concurrent eviction: entries removed between the
        directory listing and the ``stat`` call simply stop counting.
        """
        total = 0
        for directory in (self.traces_dir, self.plans_dir, self.results_dir):
            for entry in directory.glob("*"):
                try:
                    total += entry.stat().st_size
                except OSError:
                    continue
        return total

    def _is_stale(self, path: Path) -> bool:
        """Whether a cache entry was written by an older format version.

        Keys are opaque content hashes, so staleness is decided from each
        entry's *content*: traces carry the generator version in their
        metadata header (a current binary entry is then loaded, to prove it
        whole; a JSON-lines one is kept on its header), plans open with their
        ``format_version`` (an entry of another version is recognised by its
        first bytes; a current one is loaded, to prove it readable), and
        result rows carry the version :meth:`store_result` embeds.
        Unreadable entries count as stale.
        Entries keyed by an older version can never be served again (the
        current keys hash the current versions), so sweeping them only
        reclaims dead bytes.
        """
        try:
            if path.parent == self.traces_dir:
                with path.open("rb") as handle:
                    header = json.loads(handle.readline())
                if header["metadata"].get("tracegen_version", 0) != TRACEGEN_VERSION:
                    return True
                if "trace_entry" in header:
                    from repro.workloads.trace import Trace

                    Trace.load(path)  # cut short, another version or byte order: raises
                return False
            if path.parent == self.plans_dir:
                with path.open("r", encoding="utf-8") as handle:
                    if handle.read(len(PLAN_ENTRY_HEAD)) != PLAN_ENTRY_HEAD:
                        return True  # another format: nothing more to read
                from repro.core.stalloc import STAlloc

                STAlloc.load_plan(path)  # cut short, ragged columns, ...: raises
                return False
            payload = json.loads(path.read_text(encoding="utf-8"))
            return (
                not isinstance(payload, dict)
                or payload.get(_RESULT_VERSION_KEY) != RESULT_FORMAT_VERSION
            )
        except (OSError, ValueError, KeyError, TypeError):
            return True

    def prune(self, max_bytes: int | None = None, *, sweep_stale: bool = True) -> dict:
        """Evict stale-version entries, then LRU-evict down to ``max_bytes``.

        The cache otherwise grows without bound: every new configuration,
        rank, knob combination or format bump adds entries and nothing ever
        removes them.  ``prune`` first drops entries written by an older
        trace/plan/result format (unreachable garbage after a version bump),
        then -- when ``max_bytes`` is given -- removes the least recently
        *used* entries (by mtime; readers are served via ``os.replace`` so a
        hit refreshes nothing, making mtime the write/refresh time, which is
        the best available recency signal) until the cache fits.  Returns a
        report dict with the removal counts and byte totals.

        ``sweep_stale=False`` skips the stale-version content scan (which
        reads every entry) and only LRU-evicts -- the cheap mode the inline
        size cap uses on the hot store path.  Half-written ``.tmp`` leftovers
        are still removed.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        stale_removed = 0
        stale_bytes = 0
        now = time.time()
        entries: list[tuple[float, int, Path]] = []  # (mtime, size, path)
        for directory in (self.traces_dir, self.plans_dir, self.results_dir):
            for path in directory.glob("*"):
                if not path.is_file():
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if path.suffix == ".tmp":
                    # Likely a concurrent worker's in-flight atomic write:
                    # reap only once old enough to be an abandoned leftover,
                    # and never LRU-account it either way.
                    if now - stat.st_mtime >= _TMP_REAP_SECONDS:
                        path.unlink(missing_ok=True)
                        stale_removed += 1
                        stale_bytes += stat.st_size
                    continue
                if sweep_stale and self._is_stale(path):
                    path.unlink(missing_ok=True)
                    stale_removed += 1
                    stale_bytes += stat.st_size
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        lru_removed = 0
        lru_bytes = 0
        remaining = sum(size for _, size, _ in entries)
        if max_bytes is not None:
            entries.sort()  # oldest first
            for _, size, path in entries:
                if remaining <= max_bytes:
                    break
                path.unlink(missing_ok=True)
                remaining -= size
                lru_removed += 1
                lru_bytes += size
        self.stats.evicted_entries += stale_removed + lru_removed
        self.stats.evicted_bytes += stale_bytes + lru_bytes
        if stale_bytes + lru_bytes:
            _obs_counter("cache.evicted_bytes", stale_bytes + lru_bytes)
        return {
            "stale_removed": stale_removed,
            "stale_bytes": stale_bytes,
            "lru_removed": lru_removed,
            "lru_bytes": lru_bytes,
            "remaining_files": len(entries) - lru_removed,
            "remaining_bytes": remaining,
        }
