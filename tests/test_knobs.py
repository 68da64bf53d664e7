"""Knob declarations: every label, flag and identity derived from one field.

A knob's row-label abbreviation, ``timeline`` flag and help text are
declared once, as metadata on its dataclass field (``TrainingConfig``,
``ParallelismConfig`` and the fabric fields of ``GPUSpec``); the grid and
candidate labels, the fabric labels and the ``timeline`` command read them
from there.  ``tests/fixtures/golden_point_identity.json`` pins what that
must never move: for every sweep-preset point and search-preset candidate,
its row label, config description, trace fingerprint and result-cache
payload, plus one grid label that names every labelled axis.  When a move
is intentional, regenerate it with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_knobs.py

and commit the fixture with the change (a cache-key move also needs a
``RESULT_FORMAT_VERSION`` or ``TRACEGEN_VERSION`` bump).
"""

from __future__ import annotations

import json
import os
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import repro.timeline
from repro.cli import build_parser, main
from repro.gpu.specs import FABRIC_FIELDS, FABRIC_LABELS, GPUSpec, get_gpu
from repro.search.presets import SEARCH_PRESETS, load_search_spec
from repro.sweep.spec import (
    AXIS_LABELS,
    SWEEP_PRESETS,
    _fabric_label,
    _grid_label,
    load_spec,
)
from repro.workloads.fingerprint import config_fingerprint
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
