"""Which ranks a job simulates, and against which device budget each runs.

Pure configuration logic shared by the job runner (what to replay), the sweep
engine (which rank traces a point's replays read) and the search planner
(which bound to compare with which budget): rank selections resolve to
memory-equivalence classes, and heterogeneous per-rank budgets refine those
classes until each is capacity-homogeneous.  Nothing here generates, plans or
replays anything.
"""

from __future__ import annotations

import math

from repro.gpu.specs import GPU_SPECS
from repro.workloads.parallelism import normalize_rank, rank_label
from repro.workloads.training import TrainingConfig


def default_capacity_gib(device_name: str, device_capacity_gib: float | None) -> float:
    """Device budget in GiB: explicit override, the GPU spec, or 80 GiB."""
    if device_capacity_gib is not None:
        return device_capacity_gib
    gpu = GPU_SPECS.get(device_name)
    return gpu.memory_gib if gpu else 80


def validate_capacity_gib(value, context: str = "device_capacity_gib") -> float | None:
    """Reject non-positive / non-numeric device budgets (None passes through).

    The sweep-spec loader already enforces this for budgets arriving through
    JSON specs (``spec.py``); this guards the direct-API entry points so
    ``run_job(device_capacity_gib=0)`` fails loudly instead of producing a
    zero-byte device that every allocator trivially OOMs against.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value < math.inf:
        raise ValueError(f"{context} must be a positive GiB value, got {value!r}")
    return float(value)


def _valid_rank_key(key) -> bool:
    """A device_memory_by_rank key: int, '2' (stage) or '2.1' (coordinate)."""
    if isinstance(key, bool):
        return False
    if isinstance(key, int):
        return key >= 0
    if not isinstance(key, str):
        return False
    parts = key.split(".")
    if len(parts) not in (1, 2):
        return False
    return all(part.isdigit() for part in parts)


def validate_budget_map(budgets, context: str) -> None:
    """Validate one ``{rank label: GiB}`` device-budget mapping."""
    if not isinstance(budgets, dict):
        raise ValueError(f"{context} must map rank labels to GiB, got {budgets!r}")
    for key, value in budgets.items():
        if not _valid_rank_key(key):
            raise ValueError(
                f"{context} key {key!r} is not a rank (expected an int, '2', or '2.1')"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 < value < math.inf:
            raise ValueError(
                f"{context}[{key!r}] must be a positive GiB value, got {value!r}"
            )


def requested_ranks(config: TrainingConfig, ranks=None) -> tuple:
    """The sorted ranks a selection requests: the ``ranks`` of a point.

    ``ranks`` is ``None`` (rank (0, 0) only -- the single-rank behaviour of
    earlier releases), the string ``"all"`` (every rank of the job), or an
    iterable whose entries are pipeline ranks (ints) or explicit ``(pp, ep)``
    pairs.

    For a job with expert-parallel asymmetry (see
    :attr:`TrainingConfig.expert_asymmetry`) the ranks are ``(pp, ep)``
    coordinate pairs: every EP rank routes a different token load, so EP
    peers stop being interchangeable, and a plain int entry selects *all* EP
    ranks of that pipeline stage.  Without asymmetry they stay plain
    pipeline-rank ints and an explicit coordinate collapses onto its stage.
    """
    pipeline = config.parallelism.pipeline_parallel
    asymmetric = config.expert_asymmetry
    expert = config.parallelism.expert_parallel if asymmetric else 1
    if ranks is None:
        return ((0, 0),) if asymmetric else (0,)
    if isinstance(ranks, str):
        if ranks != "all":
            raise ValueError(f"ranks must be 'all' or a list of ints, got {ranks!r}")
        if asymmetric:
            return tuple((pp, ep) for pp in range(pipeline) for ep in range(expert))
        return tuple(range(pipeline))
    entries = list(ranks)
    if not entries:
        raise ValueError("ranks must not be empty")
    requested: set = set()
    for entry in entries:
        pp, ep = normalize_rank(entry)
        if not 0 <= pp < pipeline:
            raise ValueError(
                f"rank {pp} out of range for pipeline_parallel={pipeline} "
                f"(config {config.describe()!r})"
            )
        # Bounds come from the parallelism layout, not the asymmetry flag: a
        # typo'd ep must fail whether or not the router is currently skewed.
        if not 0 <= ep < config.parallelism.expert_parallel:
            raise ValueError(
                f"ep_rank {ep} out of range for expert_parallel="
                f"{config.parallelism.expert_parallel} (config {config.describe()!r})"
            )
        if not asymmetric:
            requested.add(pp)  # EP peers are memory-identical: the stage
        elif isinstance(entry, int):
            requested.update((pp, ep) for ep in range(expert))  # the whole stage
        else:
            requested.add((pp, ep))
    return tuple(sorted(requested))


def partition_ranks(config: TrainingConfig, ranks: tuple) -> list[tuple]:
    """Partition requested ranks into the memory-equivalence classes to simulate.

    ``ranks`` is :func:`requested_ranks`' output.  Simulating one
    representative per class (its first member) covers every requested rank:
    class members generate event-identical traces, so a PP=8 job needs at
    most 8 -- and with few micro-batches far fewer -- trace generations and
    replays.
    """
    requested = set(ranks)
    classes = config.parallelism.rank_equivalence_classes(
        config.num_microbatches, expert_asymmetry=config.expert_asymmetry
    )
    restricted = [tuple(rank for rank in cls if rank in requested) for cls in classes]
    return [cls for cls in restricted if cls]


def resolve_job_ranks(config: TrainingConfig, ranks=None) -> list[tuple]:
    """Resolve a rank selection into memory-equivalence classes to simulate."""
    return partition_ranks(config, requested_ranks(config, ranks))


def normalize_capacity_map(
    device_memory_by_rank: dict | None, config: TrainingConfig
) -> dict[str, float]:
    """Canonicalize heterogeneous device budgets to ``rank label -> GiB``.

    Keys may be ints (pipeline ranks), ``(pp, ep)`` tuples, or their string
    labels (``"2"``, ``"2.1"`` -- the JSON spelling sweep specs use).  A
    pipeline-rank key applies to every EP coordinate of that stage unless an
    exact ``pp.ep`` key overrides it.  Every key is validated against the
    job's rank grid, so a typo'd budget fails loudly instead of silently
    applying to nothing.
    """
    if not device_memory_by_rank:
        return {}
    pipeline = config.parallelism.pipeline_parallel
    expert = config.parallelism.expert_parallel
    normalized: dict[str, float] = {}
    for key, value in device_memory_by_rank.items():
        capacity = validate_capacity_gib(value, context=f"device memory for rank {key!r}")
        label = key if isinstance(key, str) else rank_label(key)
        parts = label.split(".")
        if len(parts) not in (1, 2) or not all(part.isdigit() for part in parts):
            raise ValueError(
                f"device_memory_by_rank key {key!r} is not a rank "
                f"(expected an int, '2', or '2.1')"
            )
        pp = int(parts[0])
        if pp >= pipeline:
            raise ValueError(
                f"device_memory_by_rank key {key!r}: rank {pp} out of range for "
                f"pipeline_parallel={pipeline}"
            )
        if len(parts) == 2 and int(parts[1]) >= expert:
            raise ValueError(
                f"device_memory_by_rank key {key!r}: ep_rank {parts[1]} out of "
                f"range for expert_parallel={expert}"
            )
        normalized[label] = capacity
    return normalized


def expand_classes_to_coordinates(
    classes: list[tuple], expert_parallel: int
) -> list[tuple]:
    """Rewrite pipeline-int classes as ``(pp, ep)`` coordinate classes.

    Used when per-coordinate device budgets address EP ranks of a job whose
    *traces* are EP-symmetric: the coordinates are still distinct physical
    devices, so the budget split below needs them as individual members.
    Class structure is preserved -- EP peers of one stage stay together until
    a budget difference splits them.
    """
    if not classes or not isinstance(classes[0][0], int):
        return classes
    return [
        tuple((pp, ep) for pp in cls for ep in range(expert_parallel))
        for cls in classes
    ]


def _rank_capacity(rank, capacity_map: dict[str, float], default: float | None) -> float | None:
    """Device budget of one rank: exact coordinate, then stage, then default."""
    if capacity_map:
        label = rank_label(rank)
        if label in capacity_map:
            return capacity_map[label]
        if not isinstance(rank, int):
            stage = str(normalize_rank(rank)[0])
            if stage in capacity_map:
                return capacity_map[stage]
    return default


def split_classes_by_capacity(
    classes: list[tuple], capacity_map: dict[str, float], default: float | None
) -> list[tuple[tuple, float | None]]:
    """Refine memory-equivalence classes so each is capacity-homogeneous.

    Class members generate identical traces, but with heterogeneous device
    budgets their *replays* can still differ (an allocator behaves differently
    against a smaller device, and success itself is per-budget), so a class
    spanning two budgets must be simulated once per budget.
    """
    refined: list[tuple[tuple, float | None]] = []
    for cls in classes:
        by_capacity: dict[float | None, list] = {}
        for rank in cls:
            by_capacity.setdefault(_rank_capacity(rank, capacity_map, default), []).append(rank)
        # Sort on (has-no-budget, budget, first member): capacities first so
        # that budget-less groups (capacity None) always trail, never mixing
        # None into a numeric comparison, and the first member breaks ties
        # deterministically.  The previous key compared a rank (int or tuple)
        # against the empty tuple -- a latent TypeError for int-ranked classes.
        for capacity, members in sorted(
            by_capacity.items(),
            key=lambda item: (
                item[0] is None,
                item[0] if item[0] is not None else 0.0,
                item[1][0],
            ),
        ):
            refined.append((tuple(members), capacity))
    return refined


def job_rank_classes(
    config: TrainingConfig,
    ranks: tuple,
    capacity_map: dict[str, float],
    device_capacity_gib: float | None,
) -> list[tuple[tuple, float | None]]:
    """The ``(members, budget GiB or None)`` classes one job replays.

    ``ranks`` and ``capacity_map`` are a point's :func:`requested_ranks` and
    :func:`normalize_capacity_map` output.  The ranks' :func:`partition_ranks`
    classes are refined by the per-rank budgets: a budget that addresses an
    individual ``(pp, ep)`` coordinate exposes the coordinates even when the
    traces are EP-symmetric (they are distinct devices), and every class is
    then split until it is capacity-homogeneous.
    """
    classes = partition_ranks(config, ranks)
    if any("." in label for label in capacity_map):
        classes = expand_classes_to_coordinates(classes, config.parallelism.expert_parallel)
    return split_classes_by_capacity(classes, capacity_map, device_capacity_gib)
