"""Search-space definition and candidate enumeration.

A :class:`SearchSpec` is the search-planner counterpart of
:class:`~repro.sweep.spec.SweepSpec`: instead of a user-supplied grid it
derives the parallelism layouts itself from the model's divisibility
constraints and the cluster size.  ``"auto"`` axes enumerate every legal
degree; explicit lists restrict the space.  Enumeration produces ordinary
:class:`~repro.sweep.spec.SweepPoint` objects so the whole sweep machinery
(engine, cache, result rows, compare gate) prices candidates unchanged.

The legality rules, in the order they prune:

* ``num_attention_heads % tp == 0`` -- attention heads shard evenly;
* ``num_layers % pp == 0`` -- pipeline stages get equal layer blocks;
* ``tp * pp <= N`` and ``N % (tp * pp) == 0`` -- the remaining factor of the
  cluster is the data-parallel degree (every device is used);
* ``vpp == 1`` or (``pp > 1`` and ``layers_per_rank % vpp == 0``) -- virtual
  pipeline chunks split a stage's block evenly;
* dense models force ``ep == 1``; MoE models need ``num_experts % ep == 0``
  and ``ep`` dividing the data-parallel degree (EP groups nest inside DP);
* ``global_batch % (mbs * dp) == 0`` with at least one micro-batch -- the
  fixed global batch is what makes throughput comparable across layouts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path

from repro.search.cluster import ClusterSpec
from repro.sweep.spec import (
    CONFIG_AXES,
    STALLOC_ALLOCATORS,
    SweepPoint,
    spec_document,
    validate_allocators,
    validate_mappings,
    validate_scale,
    validate_stalloc_grid,
)
from repro.workloads.models import MODEL_REGISTRY, get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig, validate_seed

#: TrainingConfig fields the search owns; they cannot appear in ``base``.
_SEARCH_OWNED = frozenset({"micro_batch_size", "num_microbatches", "recompute", "zero_stage"})


def _divisors(value: int, limit: int | None = None) -> list[int]:
    limit = value if limit is None else min(value, limit)
    return [d for d in range(1, limit + 1) if value % d == 0]


def _axis(values, name: str, *, degrees: bool = False) -> list:
    """Validate one explicit (non-auto) axis list; a ``degrees`` axis holds positive ints."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"search axis {name!r} must be a non-empty list, got {values!r}")
    for value in values if degrees else ():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"search axis {name!r} must hold positive ints, got {value!r}")
    return list(values)


@dataclass
class SearchSpec:
    """What to search: a model, a cluster, and the axes of the config space."""

    name: str
    model: str
    cluster: ClusterSpec
    #: Sequences consumed per optimizer step across the whole job -- held
    #: fixed so every candidate does the same work and throughput ranks them.
    global_batch: int
    allocators: list[str]
    micro_batch_sizes: list[int] = field(default_factory=lambda: [1, 2])
    #: ``"auto"`` = every legal degree, or an explicit list to restrict.
    tensor_parallel: object = "auto"
    pipeline_parallel: object = "auto"
    expert_parallel: object = "auto"
    virtual_pipeline_chunks: list[int] = field(default_factory=lambda: [1])
    recompute: list[bool] = field(default_factory=lambda: [False, True])
    zero_stage: list[int] = field(default_factory=lambda: [0])
    #: Fixed TrainingConfig fields applied to every candidate (same contract
    #: as SweepSpec.base, minus the axes the search owns).
    base: dict = field(default_factory=dict)
    #: STAllocConfig ablation knobs crossed into stalloc-family candidates.
    stalloc_grid: dict = field(default_factory=dict)
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        self.cluster = ClusterSpec.from_dict(self.cluster)
        if self.model not in MODEL_REGISTRY:
            raise ValueError(
                f"unknown model {self.model!r}; available: "
                f"{', '.join(sorted(MODEL_REGISTRY))}"
            )
        if not isinstance(self.global_batch, int) or isinstance(self.global_batch, bool) \
                or self.global_batch < 1:
            raise ValueError(f"global_batch must be a positive int, got {self.global_batch!r}")
        validate_allocators(self.allocators, "search")
        validate_mappings(self, ("base", "stalloc_grid"))
        validate_seed(self.seed)
        validate_scale(self.scale)
        for name in ("tensor_parallel", "pipeline_parallel", "expert_parallel"):
            values = getattr(self, name)
            if values != "auto":
                setattr(self, name, _axis(values, name, degrees=True))
        self.micro_batch_sizes = _axis(self.micro_batch_sizes, "micro_batch_sizes", degrees=True)
        self.virtual_pipeline_chunks = _axis(
            self.virtual_pipeline_chunks, "virtual_pipeline_chunks", degrees=True
        )
        self.recompute = _axis(self.recompute, "recompute")
        self.zero_stage = _axis(self.zero_stage, "zero_stage")
        for key in self.base:
            if key not in CONFIG_AXES:
                raise ValueError(f"unknown base field {key!r}")
            if key in _SEARCH_OWNED:
                raise ValueError(
                    f"base field {key!r} is a search axis; set it through the axis lists"
                )
        validate_stalloc_grid(self.stalloc_grid)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpec":
        data = spec_document(data, "search")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown search spec fields: {', '.join(sorted(unknown))}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "SearchSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #
    def _layouts(self) -> list[ParallelismConfig]:
        """Every legal (tp, pp, dp, ep, vpp) layout on the cluster."""
        model = get_model(self.model)
        devices = self.cluster.num_devices
        tp_axis = (
            _divisors(model.num_attention_heads, devices)
            if self.tensor_parallel == "auto"
            else self.tensor_parallel
        )
        pp_axis = (
            _divisors(model.num_layers, devices)
            if self.pipeline_parallel == "auto"
            else self.pipeline_parallel
        )
        if model.is_moe:
            ep_axis = (
                _divisors(model.num_experts)
                if self.expert_parallel == "auto"
                else self.expert_parallel
            )
        else:
            ep_axis = [1]

        layouts: list[ParallelismConfig] = []
        for tp, pp in itertools.product(tp_axis, pp_axis):
            if model.num_attention_heads % tp or model.num_layers % pp:
                continue
            slice_size = tp * pp
            if slice_size > devices or devices % slice_size:
                continue
            dp = devices // slice_size
            for ep in ep_axis:
                if ep > 1 and (not model.is_moe or model.num_experts % ep or dp % ep):
                    continue
                layers_per_stage = model.num_layers // pp
                for vpp in self.virtual_pipeline_chunks:
                    if vpp != 1 and (pp <= 1 or layers_per_stage % vpp):
                        continue
                    layouts.append(
                        ParallelismConfig(
                            tensor_parallel=tp,
                            pipeline_parallel=pp,
                            data_parallel=dp,
                            expert_parallel=ep,
                            virtual_pipeline_chunks=vpp,
                        )
                    )
        return layouts

    def _candidate_label(
        self, parallelism: ParallelismConfig, mbs: int, recompute: bool, zero: int
    ) -> str:
        bits = [
            f"tp={parallelism.tensor_parallel}",
            f"pp={parallelism.pipeline_parallel}",
            f"dp={parallelism.data_parallel}",
        ]
        if parallelism.expert_parallel > 1:
            bits.append(f"ep={parallelism.expert_parallel}")
        if parallelism.virtual_pipeline_chunks > 1:
            bits.append(f"vpp={parallelism.virtual_pipeline_chunks}")
        bits.append(f"mbs={mbs}")
        if recompute:
            bits.append("R")
        if zero:
            bits.append(f"zero={zero}")
        return "/".join(bits)

    def _resolve_ranks(self, config: TrainingConfig) -> tuple:
        """Job-level rank coverage, mirroring ``SweepSpec._resolve_ranks("all")``."""
        pipeline = config.parallelism.pipeline_parallel
        if config.expert_asymmetry:
            expert = config.parallelism.expert_parallel
            return tuple((pp, ep) for pp in range(pipeline) for ep in range(expert))
        return tuple(range(pipeline))

    def _candidate_budgets(
        self, parallelism: ParallelismConfig
    ) -> tuple[tuple[str, float], ...]:
        """The cluster budget map restricted to ranks this layout has.

        Budget-map keys address logical ``pp[.ep]`` slots; an entry whose
        stage or EP coordinate does not exist under this candidate's degrees
        is dropped for the candidate (see the cluster module docstring).
        """
        kept = []
        for label, gib in self.cluster.device_memory_by_rank:
            parts = label.split(".")
            pp = int(parts[0])
            if pp >= parallelism.pipeline_parallel:
                continue
            if len(parts) == 2 and int(parts[1]) >= parallelism.expert_parallel:
                continue
            kept.append((label, gib))
        return tuple(kept)

    def enumerate_candidates(self) -> list[SweepPoint]:
        """The full candidate grid as ordered, ready-to-execute sweep points."""
        model = get_model(self.model)
        stalloc_axes = sorted(self.stalloc_grid)
        stalloc_combos: list[tuple[tuple[str, object], ...]] = [
            tuple(zip(stalloc_axes, combo))
            for combo in itertools.product(
                *(self.stalloc_grid[axis] for axis in stalloc_axes)
            )
        ] or [()]

        points: list[SweepPoint] = []
        # Every candidate is timed on the cluster's network fabric: multi-node
        # clusters set gpus_per_node (plus any tier-bandwidth overrides), so
        # tiered all-to-all pricing flows into the throughput ranking.
        fabric = tuple(sorted(self.cluster.fabric.items()))
        for parallelism in self._layouts():
            dp = parallelism.data_parallel
            budgets = self._candidate_budgets(parallelism)
            for mbs, recompute, zero in itertools.product(
                self.micro_batch_sizes, self.recompute, self.zero_stage
            ):
                sequences = mbs * dp
                if self.global_batch % sequences:
                    continue
                num_microbatches = self.global_batch // sequences
                config = TrainingConfig(
                    model=model,
                    parallelism=parallelism,
                    label=self._candidate_label(parallelism, mbs, recompute, zero),
                    micro_batch_size=mbs,
                    num_microbatches=num_microbatches,
                    recompute=recompute,
                    zero_stage=zero,
                    **self.base,
                )
                ranks = self._resolve_ranks(config)
                for allocator in self.allocators:
                    for overrides in (
                        stalloc_combos if allocator in STALLOC_ALLOCATORS else [()]
                    ):
                        points.append(
                            SweepPoint(
                                index=len(points),
                                config=config,
                                allocator=allocator,
                                seed=self.seed,
                                scale=self.scale,
                                device_name=self.cluster.device_name,
                                device_capacity_gib=self.cluster.device_capacity_gib,
                                ranks=ranks,
                                stalloc_overrides=overrides,
                                device_memory_by_rank=budgets,
                                fabric=fabric,
                            )
                        )
        return points
