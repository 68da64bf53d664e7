"""Declarative sweep specifications.

A :class:`SweepSpec` describes a grid of workloads to evaluate: a cartesian
product over :class:`~repro.workloads.training.TrainingConfig` fields (plus
parallelism degrees, model names, optimization presets, seeds and trace
scales), crossed with a list of allocators and -- for the STAlloc variants --
an optional grid of :class:`~repro.core.config.STAllocConfig` ablation knobs.

Specs are plain JSON documents so sweeps can be version-controlled and shared::

    {
      "name": "mbs-vs-recompute",
      "model": "gpt2-345m",
      "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
      "base": {"num_microbatches": 4},
      "grid": {"micro_batch_size": [1, 2, 4], "recompute": [false, true]},
      "allocators": ["torch2.0", "torch2.3", "stalloc"],
      "stalloc_grid": {"enable_fusion": [true, false]},
      "scale": 0.5
    }

:func:`SweepSpec.expand` turns the spec into the ordered list of
:class:`SweepPoint` objects the engine executes.  A few named presets are
registered in :data:`SWEEP_PRESETS` for smoke tests and common studies.
"""

from __future__ import annotations

import itertools
import json
from contextlib import suppress
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path

from repro.allocators.registry import STALLOC, STALLOC_NO_REUSE, available_allocators
from repro.core.config import STAllocConfig
from repro.gpu.specs import FABRIC_FIELDS, FABRIC_LABELS, GPU_SPECS, GPUSpec, get_gpu
from repro.simulator.ranks import (
    normalize_capacity_map,
    requested_ranks,
    validate_budget_map,
    validate_capacity_gib,
)
from repro.workloads.models import MODEL_REGISTRY, get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import (
    OPTIMIZATION_PRESETS,
    TrainingConfig,
    preset_config,
    validate_seed,
)

#: Grid axes that map onto ParallelismConfig fields.
PARALLELISM_AXES = frozenset(f.name for f in dataclass_fields(ParallelismConfig))

#: Grid axes that map onto TrainingConfig fields (model/parallelism/label are
#: built separately; the remaining fields can all be swept directly).
CONFIG_AXES = frozenset(
    f.name for f in dataclass_fields(TrainingConfig)
) - {"model", "parallelism", "label"}

#: Grid axes with special handling during expansion.  ``device_memory_by_rank``
#: sweeps heterogeneous per-rank budget *maps* (each grid value is one
#: ``{rank label: GiB}`` mapping, or null for the uniform device);  ``fabric``
#: sweeps network-fabric override maps (each grid value is one
#: ``{GPUSpec fabric field: value}`` mapping, or null for the device's flat
#: single-tier fabric).
SPECIAL_AXES = frozenset(
    {"model", "preset", "seed", "scale", "device_memory_by_rank", "fabric"}
)

#: Row-label abbreviation of each labelled config axis (the rest show by
#: name), declared in the TrainingConfig / ParallelismConfig field metadata.
AXIS_LABELS = {
    spec.name: spec.metadata["label"]
    for cls in (TrainingConfig, ParallelismConfig)
    for spec in dataclass_fields(cls)
    if "label" in spec.metadata
}

#: STAlloc ablation knobs accepted in ``stalloc_grid``.
STALLOC_AXES = frozenset(f.name for f in dataclass_fields(STAllocConfig))

#: Allocator names the stalloc knob grid applies to (the runner's variants).
STALLOC_ALLOCATORS = frozenset({STALLOC, STALLOC_NO_REUSE})


def _mapping(value, name: str) -> dict:
    """Field ``name``'s mapping (or its ``(key, value)`` pairs, or ``None``) as a dict."""
    if not isinstance(value, str):
        with suppress(TypeError, ValueError):
            return dict(() if value is None else value)
    raise ValueError(f"{name} must be a mapping or (key, value) pairs, got {value!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved (configuration, allocator) job: what ``run_jobs`` runs.

    Build points with :meth:`build`, which normalizes every field; sweeps,
    searches, experiments and :func:`~repro.simulator.runner.run_job` all do.
    """

    index: int
    config: TrainingConfig
    allocator: str
    seed: int = 0
    scale: float = 1.0
    device_name: str = "A800-80GB"
    device_capacity_gib: float | None = None
    #: Ranks this point simulates (job-level aggregation over all of them):
    #: pipeline-rank ints, or ``(pp, ep)`` coordinate pairs for jobs with
    #: expert-parallel asymmetry; ``(0,)`` reproduces the single-rank
    #: behaviour of earlier specs.
    ranks: tuple = (0,)
    #: STAllocConfig overrides, sorted by knob name (hashable + picklable).
    stalloc_overrides: tuple[tuple[str, object], ...] = ()
    #: Heterogeneous per-rank device budgets: ``(rank label, GiB)`` pairs
    #: sorted by label (hashable + picklable); empty means a uniform device.
    device_memory_by_rank: tuple[tuple[str, float], ...] = ()
    #: Network-fabric overrides applied onto the device's GPUSpec when timing
    #: this point: sorted ``(field, value)`` pairs over
    #: :data:`FABRIC_FIELDS` (hashable + picklable); empty keeps the device's
    #: flat single-tier fabric.
    fabric: tuple[tuple[str, object], ...] = ()
    #: Row-label bit for a swept ``device_memory_by_rank`` axis (e.g.
    #: ``"mem=0:40"``); empty when budgets were not a grid axis.  Kept off
    #: the config's own label on purpose: the label feeds the trace
    #: fingerprint, and budgets never change trace content -- only the
    #: capacity each replay runs against.
    budget_label: str = ""
    #: Row-label bit for a swept ``fabric`` axis (e.g. ``"fabric=gpn4"``);
    #: empty when the fabric was not a grid axis.  Off the config label for
    #: the same reason as ``budget_label``: fabric shapes timing, never trace
    #: content.
    fabric_label: str = ""
    # Read by benchmarks/e2e/stages.py, which passes it to
    # ``throughput_upper_bound``; unannotated, so a constant and not a field.
    timing = "timeline"

    @classmethod
    def build(
        cls,
        config: TrainingConfig,
        allocator: str,
        *,
        index: int = 0,
        ranks="all",
        seed: int = 0,
        scale: float = 1.0,
        device_name: str = "A800-80GB",
        device_capacity_gib: float | None = None,
        device_memory_by_rank=None,
        stalloc_overrides=None,
        fabric=None,
        **fields,
    ) -> "SweepPoint":
        """The point of one job, every field normalized.

        ``ranks`` is a selection :func:`~repro.simulator.ranks.requested_ranks`
        resolves (``None``, ``"all"``, or a list of ints and ``(pp, ep)``
        pairs).  ``device_memory_by_rank`` maps ranks to GiB budgets -- keys
        are pipeline ranks (``2``/``"2"``, applying to every EP coordinate of
        the stage) or exact coordinates (``"2.1"``/``(2, 1)``), canonicalized
        by :func:`~repro.simulator.ranks.normalize_capacity_map`.
        ``stalloc_overrides`` (STAllocConfig knobs) and ``fabric`` (GPUSpec
        fabric fields) are mappings or their pairs.  ``fields`` are the
        remaining point fields (the row-label bits).  An unknown
        ``allocator`` or ``device_name``, a malformed ``seed``, ``scale``,
        ``device_capacity_gib``, ``fabric``, ``device_memory_by_rank`` or
        ``stalloc_overrides``, raises ``ValueError`` here, before anything is
        generated or replayed.
        """
        validate_allocators([allocator], "point")
        validate_seed(seed)
        validate_scale(scale)
        validate_capacity_gib(device_capacity_gib)
        get_gpu(device_name)
        fabric = _mapping(fabric, "fabric")
        _validate_fabric(fabric, "fabric", device_name)
        budgets = normalize_capacity_map(
            _mapping(device_memory_by_rank, "device_memory_by_rank"), config
        )
        overrides = _mapping(stalloc_overrides, "stalloc_overrides")
        try:
            STAllocConfig(**overrides)
        except (TypeError, ValueError) as error:
            raise ValueError(f"stalloc_overrides: {error}") from None
        return cls(
            index=index,
            config=config,
            allocator=allocator,
            ranks=requested_ranks(config, ranks),
            seed=seed,
            scale=scale,
            device_name=device_name,
            device_capacity_gib=device_capacity_gib,
            device_memory_by_rank=tuple(sorted(budgets.items())),
            stalloc_overrides=tuple(sorted(overrides.items())),
            fabric=tuple(sorted(fabric.items())),
            **fields,
        )

    @property
    def gpu(self) -> GPUSpec:
        """The device's spec with this point's fabric overrides applied."""
        return get_gpu(self.device_name, self.fabric)

    @property
    def row_label(self) -> str:
        """The ``config`` column of this point's result row."""
        bits = [
            bit
            for bit in (self.config.label, self.budget_label, self.fabric_label)
            if bit
        ]
        return "/".join(bits) or self.config.describe()

    @property
    def allocator_label(self) -> str:
        """Allocator name decorated with any ablation knobs, e.g. ``stalloc[enable_fusion=False]``."""
        if not self.stalloc_overrides:
            return self.allocator
        knobs = ",".join(f"{name}={value}" for name, value in self.stalloc_overrides)
        return f"{self.allocator}[{knobs}]"

    def cache_payload(self) -> dict:
        """JSON-safe identity of this point, used to key the result cache."""
        return {
            "allocator": self.allocator,
            "stalloc_overrides": {name: value for name, value in self.stalloc_overrides},
            "seed": self.seed,
            "scale": self.scale,
            "device_name": self.device_name,
            "device_capacity_gib": self.device_capacity_gib,
            # Part of the key on purpose: a row aggregated over rank 0 only
            # must never satisfy a job-level (all-ranks) sweep or vice versa,
            # and expert-parallel coordinates must never alias pipeline ranks.
            "ranks": [
                rank if isinstance(rank, int) else list(rank) for rank in self.ranks
            ],
            "device_memory_by_rank": {
                label: gib for label, gib in self.device_memory_by_rank
            },
            "fabric": {name: value for name, value in self.fabric},
        }


def _valid_rank_entry(rank) -> bool:
    """A ranks-list entry: a non-negative int or a [pp, ep] pair of them."""
    if isinstance(rank, bool):
        return False
    if isinstance(rank, int):
        return rank >= 0
    if isinstance(rank, (list, tuple)) and len(rank) == 2:
        return all(
            isinstance(part, int) and not isinstance(part, bool) and part >= 0
            for part in rank
        )
    return False


def _budget_label(budgets: dict | None) -> str:
    """Compact row label of one swept budget map, e.g. ``mem=0:40,1.1:96``."""
    if not budgets:
        return "mem=uniform"
    parts = ",".join(
        f"{key}:{float(value):g}"
        for key, value in sorted(budgets.items(), key=lambda item: str(item[0]))
    )
    return f"mem={parts}"


def validate_allocators(allocators, kind: str) -> None:
    """A ``kind`` spec's allocators: a non-empty list of known allocator names."""
    if isinstance(allocators, str) or not isinstance(allocators, (list, tuple)):
        raise ValueError(f"allocators must be a list of allocator names, got {allocators!r}")
    if not allocators:
        raise ValueError(f"a {kind} needs at least one allocator")
    known = set(available_allocators()) | STALLOC_ALLOCATORS
    for allocator in allocators:
        if allocator not in known:
            raise ValueError(
                f"unknown allocator {allocator!r}; available: {', '.join(sorted(known))}"
            )


def validate_scale(scale, name: str = "scale") -> None:
    """A layer-count scale: a number in (0, 1]."""
    if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not 0 < scale <= 1:
        raise ValueError(f"{name} must be a number in (0, 1], got {scale!r}")


def validate_stalloc_grid(stalloc_grid: dict) -> None:
    """Every ``stalloc_grid`` axis is an STAllocConfig knob with legal values."""
    for axis, values in stalloc_grid.items():
        if axis not in STALLOC_AXES:
            raise ValueError(
                f"unknown stalloc_grid axis {axis!r}; expected one of {sorted(STALLOC_AXES)}"
            )
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"stalloc_grid axis {axis!r} must map to a non-empty list")
        for index, value in enumerate(values):
            try:
                STAllocConfig(**{axis: value})
            except ValueError as error:
                raise ValueError(f"stalloc_grid {axis}[{index}]: {error}") from None


def validate_mappings(spec, names: tuple[str, ...]) -> None:
    """Each named field of ``spec`` must be a JSON object (a dict)."""
    for name in names:
        value = getattr(spec, name)
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object, got {value!r}")


class JsonSpec:
    """``from_dict``/``from_file`` of a dataclass spec read from JSON.

    Subclasses set ``kind`` (the noun of error messages) and may map
    document ``aliases`` onto field names.
    """

    kind: str
    aliases: dict = {}

    @classmethod
    def from_dict(cls, data):
        """Build a spec from a parsed JSON document."""
        if not isinstance(data, dict):
            raise ValueError(
                f"a {cls.kind} spec must be a JSON object, got {type(data).__name__}"
            )
        data = dict(data)
        for alias, name in cls.aliases.items():
            if alias in data:
                data[name] = data.pop(alias)
        unknown = set(data) - {f.name for f in dataclass_fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.kind} spec fields: {', '.join(sorted(unknown))}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path):
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def grid_points(
    points: list[SweepPoint],
    config: TrainingConfig,
    allocators: list[str],
    stalloc_grid: dict,
    **fields,
) -> None:
    """Append one grid cell's points to ``points``, indexed in order.

    One point per allocator; the STAlloc variants are crossed with every
    ``stalloc_grid`` knob combination.  ``fields`` are :meth:`SweepPoint.build`
    keywords shared by the cell.
    """
    axes = sorted(stalloc_grid)
    combos = [
        tuple(zip(axes, combo))
        for combo in itertools.product(*(stalloc_grid[axis] for axis in axes))
    ]
    for allocator in allocators:
        for overrides in combos if allocator in STALLOC_ALLOCATORS else [()]:
            points.append(
                SweepPoint.build(
                    config, allocator, index=len(points), stalloc_overrides=overrides, **fields
                )
            )


def _validate_fabric(fabric, context: str, device_name: str) -> None:
    """One ``{GPUSpec fabric field: value}`` override mapping: fabric fields only,
    with values the device's spec accepts (its ``__post_init__`` checks them)."""
    if not isinstance(fabric, dict):
        raise ValueError(f"{context} must map fabric fields to values, got {fabric!r}")
    for key in fabric:
        if key not in FABRIC_FIELDS:
            raise ValueError(
                f"{context} key {key!r} is not a fabric field; expected one of "
                f"{sorted(FABRIC_FIELDS)}"
            )
    try:
        get_gpu(device_name, fabric)
    except ValueError as error:
        raise ValueError(f"{context}: {error}") from None


def _fabric_label(fabric: dict | None) -> str:
    """Compact row label of one swept fabric map, e.g. ``fabric=gpn4,intra160``."""
    if not fabric:
        return "fabric=flat"
    parts = ",".join(
        f"{FABRIC_LABELS[key]}{fabric[key]:g}"
        for key in sorted(fabric, key=FABRIC_LABELS.__getitem__)
    )
    return f"fabric={parts}"


@dataclass
class SweepSpec(JsonSpec):
    """A declarative grid of TrainingConfig fields x allocators x STAlloc knobs."""

    kind = "sweep"
    aliases = {"device": "device_name"}

    name: str
    allocators: list[str]
    model: str = "gpt2-345m"
    parallelism: dict = field(default_factory=dict)
    base: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    stalloc_grid: dict = field(default_factory=dict)
    device_name: str = "A800-80GB"
    device_capacity_gib: float | None = None
    seed: int = 0
    scale: float = 1.0
    #: ``None`` (rank 0 only), ``"all"`` (every rank -- job-level simulation;
    #: for MoE configs with expert asymmetry this is the full deduplicated
    #: (pp, ep) coordinate grid), or an explicit list whose entries are
    #: pipeline ranks (ints) or ``[pp, ep]`` coordinate pairs.
    ranks: object = None
    #: Heterogeneous per-rank device budgets in GiB, e.g.
    #: ``{"0": 40, "3": 96, "1.2": 80}`` -- keys are pipeline ranks (applying
    #: to every EP coordinate of the stage) or exact ``pp.ep`` coordinates;
    #: unlisted ranks use ``device_capacity_gib``/the device default.  Also
    #: available as a *grid axis*: ``"grid": {"device_memory_by_rank":
    #: [{"0": 40}, {"0": 80}]}`` sweeps over whole budget maps (null = the
    #: uniform device), overriding this spec-level value per cell.
    device_memory_by_rank: dict | None = None
    #: Network-fabric overrides applied onto the device spec when timing every
    #: point, e.g. ``{"gpus_per_node": 8, "inter_node_gbytes_per_sec": 25}``;
    #: ``None`` keeps the device's flat single-tier fabric.  Also available
    #: as a *grid axis*: ``"grid": {"fabric": [null, {...}]}`` sweeps whole
    #: override maps (null = the flat fabric), overriding this spec-level
    #: value per cell.
    fabric: dict | None = None

    def __post_init__(self) -> None:
        validate_allocators(self.allocators, "sweep")
        validate_mappings(self, ("parallelism", "base", "grid", "stalloc_grid"))
        validate_seed(self.seed)
        validate_scale(self.scale)
        if self.device_name not in GPU_SPECS:
            raise ValueError(
                f"device {self.device_name!r} is not a known GPU; available: "
                f"{', '.join(sorted(GPU_SPECS))}"
            )
        validate_capacity_gib(self.device_capacity_gib)
        if self.ranks is not None:
            if isinstance(self.ranks, str):
                if self.ranks != "all":
                    raise ValueError(
                        f"ranks must be 'all' or a list of ints, got {self.ranks!r}"
                    )
            elif isinstance(self.ranks, (list, tuple)):
                if not self.ranks or not all(_valid_rank_entry(rank) for rank in self.ranks):
                    raise ValueError(
                        "ranks must be a non-empty list of ints >= 0 or [pp, ep] pairs"
                    )
            else:
                raise ValueError(
                    f"ranks must be 'all' or a list of ints, got {self.ranks!r}"
                )
        if self.device_memory_by_rank is not None:
            validate_budget_map(self.device_memory_by_rank, "device_memory_by_rank")
        if self.fabric is not None:
            _validate_fabric(self.fabric, "fabric", self.device_name)
        for axis, values in self.grid.items():
            if axis not in CONFIG_AXES and axis not in PARALLELISM_AXES and axis not in SPECIAL_AXES:
                raise ValueError(
                    f"unknown grid axis {axis!r}; expected a TrainingConfig field, a "
                    f"parallelism degree, or one of {sorted(SPECIAL_AXES)}"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid axis {axis!r} must map to a non-empty list")
            if axis == "seed":
                for index, seed in enumerate(values):
                    validate_seed(seed, f"grid seed[{index}]")
            if axis == "scale":
                for index, scale in enumerate(values):
                    validate_scale(scale, f"grid scale[{index}]")
            if axis == "device_memory_by_rank":
                for index, budgets in enumerate(values):
                    if budgets is None:
                        continue  # null = the uniform device for this cell
                    validate_budget_map(
                        budgets, f"grid device_memory_by_rank[{index}]"
                    )
            if axis == "fabric":
                for index, fabric in enumerate(values):
                    if fabric is None:
                        continue  # null = the flat fabric for this cell
                    _validate_fabric(fabric, f"grid fabric[{index}]", self.device_name)
        validate_stalloc_grid(self.stalloc_grid)
        for key in self.base:
            if key not in CONFIG_AXES:
                raise ValueError(f"unknown base field {key!r}")
        for key in self.parallelism:
            if key not in PARALLELISM_AXES:
                raise ValueError(f"unknown parallelism field {key!r}")
        if "preset" in self.grid:
            for preset in self.grid["preset"]:
                if preset not in OPTIMIZATION_PRESETS:
                    raise ValueError(
                        f"unknown preset {preset!r}; available: {', '.join(OPTIMIZATION_PRESETS)}"
                    )
        for model_name in self.grid.get("model", [self.model]):
            if model_name not in MODEL_REGISTRY:
                raise ValueError(
                    f"unknown model {model_name!r}; available: "
                    f"{', '.join(sorted(MODEL_REGISTRY))}"
                )

    def expand(self) -> list[SweepPoint]:
        """Materialise the grid into the ordered list of sweep points."""
        axes = list(self.grid)
        points: list[SweepPoint] = []
        budget_axis = "device_memory_by_rank" in self.grid
        fabric_axis = "fabric" in self.grid
        for combo in itertools.product(*(self.grid[axis] for axis in axes)):
            assignment = dict(zip(axes, combo))
            seed = assignment.pop("seed", self.seed)
            scale = assignment.pop("scale", self.scale)
            cell_budgets = (
                assignment.pop("device_memory_by_rank")
                if budget_axis
                else self.device_memory_by_rank
            )
            cell_fabric = assignment.pop("fabric") if fabric_axis else self.fabric
            grid_points(
                points,
                self._build_config(assignment),
                self.allocators,
                self.stalloc_grid,
                ranks=self.ranks,
                seed=seed,
                scale=scale,
                device_name=self.device_name,
                device_capacity_gib=self.device_capacity_gib,
                device_memory_by_rank=cell_budgets,
                fabric=cell_fabric,
                # Swept budget/fabric maps label the row, not the config: the
                # config label feeds the trace fingerprint and neither shapes
                # trace content.
                budget_label=_budget_label(cell_budgets) if budget_axis else "",
                fabric_label=_fabric_label(cell_fabric) if fabric_axis else "",
            )
        return points

    def _build_config(self, assignment: dict) -> TrainingConfig:
        """Resolve one grid assignment into a TrainingConfig."""
        assignment = dict(assignment)
        model = get_model(assignment.pop("model", self.model))
        preset = assignment.pop("preset", None)
        # Label every swept axis (parallelism included) so rows stay
        # distinguishable even when only a parallelism degree varies.
        label = _grid_label(preset, assignment)
        parallelism_fields = dict(self.parallelism)
        for axis in list(assignment):
            if axis in PARALLELISM_AXES:
                parallelism_fields[axis] = assignment.pop(axis)
        parallelism = ParallelismConfig(**parallelism_fields)

        config_fields = dict(self.base)
        config_fields.update(assignment)
        if preset is not None:
            config = preset_config(
                model,
                preset,
                parallelism=parallelism,
                micro_batch_size=config_fields.pop("micro_batch_size", 1),
                num_microbatches=config_fields.pop("num_microbatches", 8),
                framework=config_fields.pop("framework", "megatron"),
            )
            if config_fields:
                config = config.with_(**config_fields)
            return config.with_(label=label)
        return TrainingConfig(model=model, parallelism=parallelism, label=label, **config_fields)


def label_bits(assignment: dict) -> list[str]:
    """Row-label bits of config axis values, in order: ``mbs=2`` for a value,
    the bare name for a true bool, nothing for a false one."""
    bits = []
    for axis, value in assignment.items():
        name = AXIS_LABELS.get(axis, axis)
        if not isinstance(value, bool):
            bits.append(f"{name}={value}")
        elif value:
            bits.append(name)
    return bits


def _grid_label(preset: str | None, assignment: dict) -> str:
    """Compact per-point label like ``R/mbs=2`` used in result rows."""
    return "/".join(([] if preset is None else [preset]) + label_bits(assignment))


# ---------------------------------------------------------------------- #
# Named presets
# ---------------------------------------------------------------------- #
#: Ready-made sweep specs: CI smoke tests, the paper's optimization grid, and
#: the STAlloc ablation study.  ``stalloc-repro sweep <name>`` resolves here.
SWEEP_PRESETS: dict[str, dict] = {
    # Tiny grid for smoke tests: 2 x 2 configs x 2 allocators = 8 points.
    "smoke": {
        "name": "smoke",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "base": {"num_microbatches": 2},
        "grid": {"micro_batch_size": [1, 2], "recompute": [False, True]},
        "allocators": ["torch2.3", "stalloc"],
        "scale": 0.25,
    },
    # 8 configs x 3 allocators = 24 points; the acceptance-test grid.
    "quick-grid": {
        "name": "quick-grid",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "base": {"num_microbatches": 4},
        "grid": {
            "micro_batch_size": [1, 2],
            "recompute": [False, True],
            "zero_stage": [0, 1],
        },
        "allocators": ["torch2.0", "torch2.3", "stalloc"],
        "scale": 0.25,
    },
    # The Figure 8 GPT-2 study as a sweep: 6 presets x 5 allocators = 30 points.
    "fig8-gpt2": {
        "name": "fig8-gpt2",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "base": {"num_microbatches": 16},
        "grid": {"preset": ["Naive", "R", "V", "VR", "ZR", "ZOR"], "micro_batch_size": [32]},
        "allocators": ["torch2.0", "gmlake", "torch2.3", "torch_es", "stalloc"],
    },
    # Job-level smoke: every pipeline rank of a PP=4 job is simulated and
    # aggregated into one row per point (binding rank, job peak, throughput).
    "job-smoke": {
        "name": "job-smoke",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "base": {"num_microbatches": 4},
        "grid": {"preset": ["Naive", "R"], "micro_batch_size": [4]},
        "allocators": ["torch2.3", "stalloc"],
        "ranks": "all",
        "scale": 0.5,
    },
    # Expert-parallel smoke: a tiny MoE job whose full (pp, ep) grid is
    # simulated at two router-imbalance settings.  At imbalance 0 the EP
    # ranks collapse into their stage's class (2 replays per point); at 0.6
    # every (pp, ep) coordinate routes a different token load and the rows
    # report a coordinate-valued binding rank.  Runs in the CI compare gate.
    "ep-smoke": {
        "name": "ep-smoke",
        "model": "moe-tiny",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
        "base": {"num_microbatches": 2, "micro_batch_size": 1},
        "grid": {"moe_imbalance": [0.0, 0.6]},
        "allocators": ["torch2.3", "stalloc"],
        "ranks": "all",
    },
    # All-to-all communication smoke: the skewed ep-smoke job with the comm
    # transients toggled on.  At comm=0 the trace is the legacy (comm-free)
    # stream; at comm=1 every layer execution stages a dispatch/combine
    # send+recv pair sized by the routed load, so the binding EP coordinate's
    # peak -- and the comm_peak_bytes column -- must strictly grow.  Runs in
    # the CI compare gate next to ep-smoke.
    "ep-comm-smoke": {
        "name": "ep-comm-smoke",
        "model": "moe-tiny",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
        "base": {"num_microbatches": 2, "micro_batch_size": 1, "moe_imbalance": 0.6},
        "grid": {"moe_comm_factor": [0.0, 1.0]},
        "allocators": ["torch2.3", "stalloc"],
        "ranks": "all",
    },
    # Timeline smoke: the skewed MoE job, timed by the discrete-event
    # simulator, swept over the all-to-all comm factor.  The a2a
    # collectives sit on every rank's critical path, so iteration_seconds and
    # comm_seconds must grow monotonically with the factor while the router
    # skew keeps a coordinate-valued binding rank; runs in the CI compare
    # gate next to ep-comm-smoke.
    "timeline-smoke": {
        "name": "timeline-smoke",
        "model": "moe-tiny",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
        "base": {"num_microbatches": 2, "micro_batch_size": 1, "moe_imbalance": 0.6},
        "grid": {"moe_comm_factor": [0.0, 0.5, 1.0]},
        "allocators": ["torch2.3"],
        "ranks": "all",
    },
    # Hierarchical-fabric smoke: the skewed MoE job timed on a flat device
    # versus a tiered 2-node cluster (4 GPUs/node, NVLink-class intra at 160
    # GB/s, IB-class inter at 25 GB/s), crossed with the comm/compute overlap
    # factor.  The EP groups span nodes under the tiered fabric, so its rows
    # must show strictly larger comm_seconds than the flat rows, while
    # raising the overlap factor must shrink iteration_seconds without
    # touching comm_seconds (overlap hides communication, it does not erase
    # it).  Runs in the CI compare gate next to timeline-smoke.
    "fabric-smoke": {
        "name": "fabric-smoke",
        "model": "moe-tiny",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
        "base": {
            "num_microbatches": 2,
            "micro_batch_size": 1,
            "moe_imbalance": 0.6,
            "moe_comm_factor": 1.0,
        },
        "grid": {
            "fabric": [
                None,
                {
                    "gpus_per_node": 4,
                    "intra_node_gbytes_per_sec": 160,
                    "inter_node_gbytes_per_sec": 25,
                },
            ],
            "comm_overlap_factor": [0.0, 0.5],
        },
        "allocators": ["torch2.3"],
        "ranks": "all",
    },
    # Generation smoke: a forward-only prefill/decode job swept over the
    # decode-step count.  Each decode step re-allocates every micro-batch's
    # per-layer KV cache one token larger, so kv_peak_bytes and the decode
    # share of iteration_seconds must grow strictly with decode_steps while
    # the dec=0 rows stay byte-identical to a pure-inference trace.  This is
    # the sweep that stresses static planning on dynamic allocation; runs in
    # the CI compare gate next to the training smokes.
    "gen-smoke": {
        "name": "gen-smoke",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 2},
        "base": {
            "num_microbatches": 2,
            "micro_batch_size": 2,
            "workload_kind": "generation",
        },
        "grid": {"decode_steps": [0, 8, 16]},
        "allocators": ["torch2.3", "stalloc"],
        "ranks": "all",
        "scale": 0.25,
    },
    # STAlloc ablations (the §9.4 knobs) on a dense and a recompute config.
    "stalloc-ablation": {
        "name": "stalloc-ablation",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "base": {"micro_batch_size": 4, "num_microbatches": 4},
        "grid": {"recompute": [False, True]},
        "allocators": ["stalloc"],
        "stalloc_grid": {
            "enable_fusion": [True, False],
            "enable_gap_insertion": [True, False],
            "descending_size_order": [True, False],
        },
        "scale": 0.5,
    },
}


def available_presets() -> list[str]:
    """Names accepted by :func:`load_spec` (besides paths to JSON files)."""
    return sorted(SWEEP_PRESETS)


def load_spec(name_or_path: str | Path) -> SweepSpec:
    """Resolve a preset name or a path to a JSON spec file into a SweepSpec."""
    name = str(name_or_path)
    if name in SWEEP_PRESETS:
        return SweepSpec.from_dict(SWEEP_PRESETS[name])
    path = Path(name_or_path)
    if path.suffix == ".json" or path.exists():
        if not path.exists():
            raise FileNotFoundError(f"sweep spec file not found: {path}")
        return SweepSpec.from_file(path)
    raise ValueError(
        f"unknown sweep preset {name!r} (and no such file); available presets: "
        f"{', '.join(available_presets())}"
    )
