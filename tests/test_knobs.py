"""Knob declarations: every label, flag, domain and identity derived from one field.

A knob's row-label abbreviation, ``timeline`` flag and help text are
declared once, as metadata on its dataclass field (``TrainingConfig``,
``ParallelismConfig`` and the fabric fields of ``GPUSpec``); the grid and
candidate labels, the fabric labels and the ``timeline`` command read them
from there.  So is every config field's domain (its annotation's type and
a ``min`` / ``max`` / ``above`` / ``choices`` in its metadata), which one
loop, :func:`repro.domain.check_fields`, enforces for every config
class; the domain tests below are derived from the declarations.

``tests/fixtures/golden_point_identity.json`` pins what must never move:
for every sweep-preset point and search-preset candidate, its row label,
config description, trace fingerprint and result-cache payload, plus one
grid label that names every labelled axis.  When a move
is intentional, regenerate it with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_knobs.py

and commit the fixture with the change (a cache-key move also needs a
``RESULT_FORMAT_VERSION`` or ``TRACEGEN_VERSION`` bump).
"""

from __future__ import annotations

import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import repro.timeline
from repro.cli import build_parser, main
from repro.core.config import STAllocConfig
from repro.domain import KINDS
from repro.gpu.specs import (
    FABRIC_FIELDS,
    FABRIC_LABELS,
    GPU_SPECS,
    GPUSpec,
    NodeTopology,
    get_gpu,
)
from repro.search.presets import SEARCH_PRESETS, load_search_spec
from repro.sweep.spec import (
    AXIS_LABELS,
    SWEEP_PRESETS,
    _fabric_label,
    _grid_label,
    load_spec,
)
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.model_config import ModelConfig
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_point_identity.json"

#: One assignment naming every labelled grid axis, in a fixed order, with
#: two unlabelled ones (a bool that shows by name, an int that shows as
#: ``name=value``) and a false bool that does not show.
EVERY_AXIS = {
    "tensor_parallel": 2,
    "pipeline_parallel": 4,
    "data_parallel": 2,
    "expert_parallel": 2,
    "virtual_pipeline_chunks": 2,
    "micro_batch_size": 2,
    "num_microbatches": 8,
    "zero_stage": 1,
    "moe_imbalance": 0.6,
    "moe_comm_factor": 1.0,
    "comm_overlap_factor": 0.5,
    "workload_kind": "generation",
    "decode_steps": 16,
    "max_new_tokens": 4,
    "recompute": True,
    "offload_activations": False,
    "seq_length": 512,
}
EVERY_FABRIC = {
    "gpus_per_node": 4, "intra_node_gbytes_per_sec": 160, "inter_node_gbytes_per_sec": 25,
}


def _identity(point) -> dict:
    return {
        "row_label": point.row_label,
        "describe": point.config.describe(),
        "config_fingerprint": config_fingerprint(
            point.config, seed=point.seed, scale=point.scale
        ),
        "cache_payload": point.cache_payload(),
    }


def _generate() -> dict:
    points = {}
    for name in sorted(SWEEP_PRESETS):
        for point in load_spec(name).expand():
            points[f"sweep/{name}/{point.index}"] = _identity(point)
    for name in sorted(SEARCH_PRESETS):
        for point in load_search_spec(name).enumerate_candidates():
            points[f"search/{name}/{point.index}"] = _identity(point)
    return {
        "points": points,
        "grid_label": _grid_label("ZR", EVERY_AXIS),
        "fabric_label": _fabric_label(EVERY_FABRIC),
    }


def test_regenerate_fixture_when_requested():
    """With REGEN_GOLDEN=1, rewrite the identity fixture (and always pass)."""
    if not os.environ.get("REGEN_GOLDEN"):
        pytest.skip(f"set REGEN_GOLDEN=1 to rewrite {FIXTURE_PATH.name}")
    FIXTURE_PATH.write_text(
        json.dumps(_generate(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_every_label_and_cache_key_is_pinned():
    expected = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(_generate()))
    assert len(expected["points"]) == 229  # 103 sweep points + 126 candidates
    assert actual["grid_label"] == expected["grid_label"]
    assert actual["fabric_label"] == expected["fabric_label"]
    assert actual["points"].keys() == expected["points"].keys()
    moved = [key for key, pinned in expected["points"].items() if actual["points"][key] != pinned]
    assert not moved, f"{len(moved)} points moved, first {moved[0]}: {actual['points'][moved[0]]}"


# ---------------------------------------------------------------------- #
# Completeness: every config field decides whether it has a label
# ---------------------------------------------------------------------- #
#: Config fields that declare no label: a grid label shows them by name.
UNLABELLED = {
    TrainingConfig: {
        "seq_length",
        "recompute",
        "offload_activations",
        "framework",
        "param_dtype_bytes",
        "grad_dtype_bytes",
        "optimizer_bytes_per_param",
    },
    ParallelismConfig: {"sequence_parallel"},
}


@pytest.mark.parametrize("owner", list(UNLABELLED), ids=lambda owner: owner.__name__)
def test_every_config_field_declares_a_label_or_is_named_unlabelled(owner):
    knobs = {spec.name for spec in fields(owner)} - {"model", "parallelism", "label"}
    labelled = {spec.name for spec in fields(owner) if "label" in spec.metadata}
    assert knobs - labelled == UNLABELLED[owner]
    assert labelled <= knobs and labelled <= set(AXIS_LABELS)


def test_labels_are_distinct_and_fabric_fields_are_the_labelled_gpu_fields():
    labels = [*AXIS_LABELS.values(), *FABRIC_LABELS.values()]
    assert len(set(labels)) == len(labels)
    assert FABRIC_FIELDS == set(FABRIC_LABELS) == {
        "gpus_per_node", "intra_node_gbytes_per_sec", "inter_node_gbytes_per_sec",
    }


# ---------------------------------------------------------------------- #
# The timeline flags: one per flagged field, parsed into exactly that field
# ---------------------------------------------------------------------- #
FLAGGED = [
    (owner, spec)
    for owner in (ParallelismConfig, TrainingConfig, GPUSpec)
    for spec in fields(owner)
    if "flag" in spec.metadata
]
#: A parseable non-default value per field type.
SAMPLE = {"int": 3, "float": 0.25, "float | None": 0.25, "str": "generation"}


def _parse(*argv: str) -> dict:
    return vars(build_parser().parse_args(["timeline", "gpt-tiny", *argv]))


def test_the_timeline_flags_are_the_flagged_fields():
    assert sorted(spec.metadata["flag"] for _, spec in FLAGGED) == sorted([
        "--pp", "--dp", "--ep", "--chunks", "--microbatches", "--micro-batch-size",
        "--comm-factor", "--overlap", "--workload", "--decode-steps", "--max-new-tokens",
        "--gpus-per-node", "--intra-bw", "--inter-bw",
    ])
    defaults = _parse()
    for owner, spec in FLAGGED:
        # A fabric flag left out keeps the --gpu spec's own value.
        assert defaults[spec.name] == (None if owner is GPUSpec else spec.default)


@pytest.mark.parametrize(
    "owner, spec", FLAGGED, ids=[spec.metadata["flag"] for _, spec in FLAGGED]
)
def test_a_flag_parses_into_exactly_its_field(owner, spec):
    value = SAMPLE[spec.type]
    parsed = _parse(spec.metadata["flag"], str(value))
    changed = {name for name, old in _parse().items() if parsed[name] != old}
    assert changed == {spec.name}
    assert parsed[spec.name] == value and type(parsed[spec.name]) is type(value)


def test_every_flag_reaches_the_priced_config_and_gpu(monkeypatch, capsys):
    priced = []
    simulate = repro.timeline.simulate_timeline

    def spy(config, *, gpu, **options):
        priced.append((config, gpu))
        return simulate(config, gpu=gpu, **options)

    monkeypatch.setattr(repro.timeline, "simulate_timeline", spy)
    values = {
        "pipeline_parallel": 2, "data_parallel": 2, "expert_parallel": 2,
        "virtual_pipeline_chunks": 2, "num_microbatches": 3, "micro_batch_size": 2,
        "moe_comm_factor": 0.5, "comm_overlap_factor": 0.25, "workload_kind": "generation",
        "decode_steps": 4, "max_new_tokens": 2, "gpus_per_node": 2,
        "intra_node_gbytes_per_sec": 160.0, "inter_node_gbytes_per_sec": 25.0,
    }
    argv = ["timeline", "moe-tiny", "--scale", "0.5"]
    for _, spec in FLAGGED:
        argv += [spec.metadata["flag"], str(values[spec.name])]
    assert main(argv) == 0
    ((config, gpu),) = priced
    for owner, spec in FLAGGED:
        target = {TrainingConfig: config, ParallelismConfig: config.parallelism}.get(owner, gpu)
        assert getattr(target, spec.name) == values[spec.name], spec.name
    fabric = {name: values[name] for name in FABRIC_FIELDS}
    assert gpu == get_gpu("A800-80GB", fabric) and gpu.is_tiered


#: ``timeline`` stdout recorded before the flags were derived from the fields.
TIMELINE_STDOUT = {
    "timeline moe-tiny --pp 2 --ep 2 --dp 2 --comm-factor 1 --overlap 0.5 "
    "--gpus-per-node 2 --intra-bw 160 --inter-bw 25": """\
timeline: moe-tiny TP1 PP2 DP2 EP2 mbs=1 m=8 comm=1 ovl=0.5 on A800-80GB
  iteration_seconds  0.003060
  compute_seconds    0.002260
  comm_seconds       0.000830
  stall_seconds      0.000447
  bubble_fraction    0.2615
  mfu                0.3785
  events             921
  binding_rank       pp0/ep1
""",
    "timeline gpt-tiny --pp 2 --chunks 2 --microbatches 4 --micro-batch-size 2 "
    "--workload generation --decode-steps 4 --max-new-tokens 2": """\
timeline: gpt-tiny TP1 PP2 DP1 VPP2 mbs=2 m=4 generation dec=4 tok=2 on A800-80GB
  iteration_seconds  0.000081
  compute_seconds    0.000069
  comm_seconds       0.000000
  stall_seconds      0.000012
  decode_seconds     0.000009
  bubble_fraction    0.1489
  mfu                0.3837
  events             116
  binding_rank       pp1/ep0
""",
}


@pytest.mark.parametrize("command", sorted(TIMELINE_STDOUT))
def test_timeline_stdout_is_pinned(command, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == TIMELINE_STDOUT[command]


# ---------------------------------------------------------------------- #
# Domains: every config field's type and range, checked by one loop
# ---------------------------------------------------------------------- #
#: One instance per config class from which every declared edge value of
#: every field builds alone (one attention head, so any hidden size divides).
DOMAIN_BASES = {
    TrainingConfig: TrainingConfig(model=get_model("gpt-tiny")),
    ParallelismConfig: ParallelismConfig(),
    ModelConfig: replace(get_model("gpt-tiny"), num_attention_heads=1),
    GPUSpec: GPU_SPECS["A800-80GB"],
    NodeTopology: NodeTopology(pipeline_parallel=1, expert_parallel=1),
    STAllocConfig: STAllocConfig(),
}
#: Fields that declare no domain: nested configs check themselves, a name or
#: label may be any string, and any node size up to 0 means one node.
DOMAIN_FREE = {
    TrainingConfig: {"model", "parallelism", "label"},
    ParallelismConfig: set(),
    ModelConfig: {"name"},
    GPUSpec: {"name"},
    NodeTopology: {"gpus_per_node"},
    STAllocConfig: set(),
}
BOUNDS = ("min", "max", "above", "choices")


def _kind(spec) -> str | None:
    kind = spec.type.removesuffix(" | None")
    return kind if kind in KINDS else None


def _declares_a_domain(spec) -> bool:
    return _kind(spec) == "bool" or (
        _kind(spec) is not None and any(key in spec.metadata for key in BOUNDS)
    )


@pytest.mark.parametrize("owner", list(DOMAIN_FREE), ids=lambda owner: owner.__name__)
def test_every_config_field_declares_a_domain_or_is_named_free(owner):
    undeclared = {spec.name for spec in fields(owner) if not _declares_a_domain(spec)}
    assert undeclared == DOMAIN_FREE[owner]


def _step(kind: str, value, direction: int):
    """The next value of ``kind`` past ``value`` in ``direction`` (+1 or -1)."""
    return math.nextafter(value, direction * math.inf) if kind == "float" else value + direction


def _edges():
    """``(owner, field, value, builds)`` at and one step past every declared bound,
    plus one value of the wrong type per typed field (a bool is not an int,
    and an int is no bool)."""
    for owner in DOMAIN_BASES:
        for spec in fields(owner):
            kind, meta = _kind(spec), spec.metadata
            if kind is None:
                continue
            if "min" in meta:
                yield owner, spec.name, meta["min"], True
                yield owner, spec.name, _step(kind, meta["min"], -1), False
            if "above" in meta:
                yield owner, spec.name, meta["above"], False
                yield owner, spec.name, _step(kind, meta["above"], +1), True
            if "max" in meta:
                yield owner, spec.name, meta["max"], True
                yield owner, spec.name, _step(kind, meta["max"], +1), False
            for choice in meta.get("choices", ()):
                yield owner, spec.name, choice, True
            if "choices" in meta:
                yield owner, spec.name, "no-such", False
            yield owner, spec.name, 1 if kind == "bool" else True, False
            if kind == "float":
                yield owner, spec.name, math.inf, False
                yield owner, spec.name, math.nan, False


EDGES = list(_edges())


@pytest.mark.parametrize(
    "owner, name, value, builds", EDGES,
    ids=[f"{owner.__name__}.{name}={value!r}" for owner, name, value, _ in EDGES],
)
def test_a_value_at_a_declared_edge_builds_and_one_past_it_names_the_field(
    owner, name, value, builds
):
    base = DOMAIN_BASES[owner]
    if builds:
        assert getattr(replace(base, **{name: value}), name) == value
        return
    with pytest.raises(ValueError, match=f"^{name} must be .*, got ") as error:
        replace(base, **{name: value})
    assert "\n" not in str(error.value)


def test_an_int_given_for_a_float_is_stored_as_a_float():
    config = TrainingConfig(model=get_model("moe-tiny"), moe_comm_factor=1, moe_imbalance=0)
    assert type(config.moe_comm_factor) is float and type(config.moe_imbalance) is float
    gpu = get_gpu("A800-80GB", {"intra_node_gbytes_per_sec": 160})
    assert type(gpu.intra_node_gbytes_per_sec) is float


@pytest.mark.parametrize(
    "name, message",
    [
        ("num_attention_heads", "num_attention_heads must be an int >= 1, got 0"),
        ("seq_length", "seq_length must be an int >= 1, got 0"),
    ],
)
def test_a_model_with_a_zero_field_names_it(name, message):
    # Models are picked by name, so no spec reaches ModelConfig: this is the
    # library's refusal, before a zero head count divides by zero.
    with pytest.raises(ValueError) as error:
        replace(get_model("gpt-tiny"), **{name: 0})
    assert str(error.value) == message


def test_a_model_routing_to_more_experts_than_it_has_names_both():
    with pytest.raises(ValueError) as error:
        replace(get_model("moe-tiny"), moe_top_k=100)
    assert str(error.value) == "moe_top_k (100) must not exceed num_experts (8)"
    # Every expert may be picked, and a dense model never reads its top-k.
    assert replace(get_model("moe-tiny"), moe_top_k=8).moe_top_k == 8
    assert replace(get_model("gpt-tiny"), moe_top_k=100).moe_top_k == 100


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("model", "gpt-tiny", "model must be a ModelConfig, got 'gpt-tiny'"),
        (
            "parallelism",
            {"pipeline_parallel": 2},
            "parallelism must be a ParallelismConfig, got {'pipeline_parallel': 2}",
        ),
    ],
)
def test_a_training_config_names_a_nested_config_of_another_type(name, value, message):
    # The library's refusal at construction, not an AttributeError at first use.
    with pytest.raises(ValueError) as error:
        TrainingConfig(**{"model": get_model("gpt-tiny"), name: value})
    assert str(error.value) == message


#: Fingerprints a config and its float-given twin in the order argv names.
FINGERPRINT_CHILD = """
import json, sys
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.models import get_model
from repro.workloads.training import TrainingConfig
configs = {
    "int": TrainingConfig(model=get_model("moe-tiny"), moe_comm_factor=1),
    "float": TrainingConfig(model=get_model("moe-tiny"), moe_comm_factor=1.0),
}
print(json.dumps({name: config_fingerprint(configs[name]) for name in sys.argv[1:]}))
"""


def test_a_fingerprint_does_not_depend_on_call_order():
    def fingerprints(*order: str) -> dict:
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", FINGERPRINT_CHILD, *order],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return json.loads(done.stdout)

    int_first, float_first = fingerprints("int", "float"), fingerprints("float", "int")
    assert int_first == float_first
    # An int given for a float field is stored as a float: one address.
    assert int_first["int"] == int_first["float"]
