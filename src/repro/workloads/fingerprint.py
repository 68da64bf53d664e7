"""The content address of a generated trace, computable without generating it.

:func:`config_fingerprint` hashes everything that determines a trace -- the
configuration, the rank coordinate, the generator version and the generation
defaults below -- so cache keys, sweep points and search groups are derived
without importing the generator.
"""

from __future__ import annotations

import json
from dataclasses import fields

from repro.digest import sha256
from repro.version import TRACEGEN_VERSION
from repro.workloads.training import TrainingConfig

#: Per-micro-batch size variation applied to activation and temporary
#: tensors.  Real traces show small size differences between micro-batches
#: (sample-dependent padding, fused-kernel workspace choices, alignment of
#: intermediate reductions); this is what prevents an online best-fit
#: allocator from perfectly recycling freed blocks and is the proximate
#: cause of the fragmentation the paper measures.  The jitter cycles over a
#: small set of factors so the number of distinct sizes stays in the few
#: dozen range the paper reports (Figure 3).
DEFAULT_SIZE_JITTER: tuple[float, ...] = (1.0, 0.9, 0.95, 0.85)

#: Number of layers by which transient frees lag their allocation.  Real
#: eager-mode training overlaps kernels, peer-to-peer transfers and
#: gradient reduction, so workspace tensors are released a little later
#: than strict nesting would suggest; this skew produces the interleaved
#: allocate/free pattern of Figure 1(a) that online allocators fragment on.
DEFAULT_ASYNC_FREE_SKEW = 2


def config_fingerprint(
    config: TrainingConfig,
    *,
    seed: int = 0,
    scale: float = 1.0,
    rank: int = 0,
    ep_rank: int = 0,
    size_jitter: tuple[float, ...] | None = None,
    async_free_skew: int | None = None,
) -> str:
    """Stable content hash of everything that determines a generated trace.

    Trace generation is deterministic (covered by the determinism regression
    tests), so this fingerprint is a valid content address for the trace a
    ``TraceGenerator`` built from the same inputs would produce.  The sweep
    cache uses it as the on-disk key for generated traces.  Both rank
    coordinates are part of the payload, so per-(pp, ep)-rank traces of one
    job can never alias each other.
    """
    jitter = DEFAULT_SIZE_JITTER if size_jitter is None else tuple(size_jitter)
    skew = DEFAULT_ASYNC_FREE_SKEW if async_free_skew is None else int(async_free_skew)
    payload = {
        "tracegen_version": TRACEGEN_VERSION,
        "config": config,
        "seed": int(seed),
        "scale": float(scale),
        "rank": int(rank),
        "ep_rank": int(ep_rank),
        "size_jitter": [float(f) for f in jitter],
        "async_free_skew": skew,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_fields)
    return sha256(canonical.encode("utf-8")).hexdigest()


def _fields(config) -> dict:
    """A (nested) config dataclass as ``json`` writes it: its fields by name,
    the text ``asdict`` gives without its deep copy."""
    return {spec.name: getattr(config, spec.name) for spec in fields(config)}
