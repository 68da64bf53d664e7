"""Planner decisions, pinned independently of the code that makes them.

``tests/fixtures/plan_digests.json`` records, for the golden dense, MoE-comm
and generation traces under every :class:`STAllocConfig` ablation -- fusion by
repack and by insertion, fusion off, gap insertion off, ascending size order,
dynamic reuse off -- and for one rank of each of the four end-to-end benchmark
shapes at reduced scale: the SHA-256 of the sorted ``(req_id, address)`` pairs,
the pool size, the memory-layer sizes and occupancy, the fusion and group
counts, and the SHA-256 of the dynamic reusable spaces.

The fixture was recorded on the commit *before* the planner moved onto int
columns (1.10.0, where the pairs were read as ``decision.request.req_id`` /
``decision.address``); a change to how plans are represented must leave every
entry as it is.  A change that moves a decision on purpose regenerates the
file::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_plan_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.stalloc import STAlloc, STAllocConfig
from repro.search.space import SearchSpec
from repro.simulator.ranks import resolve_job_ranks
from repro.sweep.spec import SweepSpec
from repro.workloads.parallelism import normalize_rank
from repro.workloads.tracegen import TraceGenerator
from tests.test_golden_traces import _case_configs

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "plan_digests.json"

GOLDEN_CASES = ("gpt-tiny", "moe-tiny-comm", "gpt-tiny-generation")
ABLATIONS = {
    "repack": STAllocConfig(),
    "insertion": STAllocConfig(fusion_strategy="insertion"),
    "no-fusion": STAllocConfig(enable_fusion=False),
    "no-gap-insertion": STAllocConfig(enable_gap_insertion=False),
    "ascending-order": STAllocConfig(descending_size_order=False),
    "no-dynamic-reuse": STAllocConfig(enable_dynamic_reuse=False),
}

#: The shapes of benchmarks/e2e/workloads.py (model, parallelism, grid) as
#: ``(kind, tensor scale, spec)``: a quarter of the tensor scale and fewer
#: micro-batches, except ``gen-decode``, which stays whole -- it is the one
#: shape where repack fusions are accepted, and only at full scale.
E2E_SHAPES = {
    "dense-plan": (
        "sweep",
        0.25,
        {
            "name": "dense-plan",
            "model": "llama2-7b",
            "parallelism": {"tensor_parallel": 2, "pipeline_parallel": 4, "data_parallel": 1},
            "base": {"num_microbatches": 4, "micro_batch_size": 2},
            "grid": {"preset": ["R", "VR"]},
            "allocators": ["stalloc"],
            "ranks": "all",
        },
    ),
    "moe-replay": (
        "sweep",
        0.25,
        {
            "name": "moe-replay",
            "model": "qwen1.5-moe-a2.7b",
            "parallelism": {"pipeline_parallel": 4, "data_parallel": 2, "expert_parallel": 2},
            "base": {"num_microbatches": 4, "micro_batch_size": 4, "moe_comm_factor": 1.0},
            "grid": {"preset": ["R"]},
            "allocators": ["stalloc"],
            "ranks": [[0, 0], [3, 1]],
        },
    ),
    "gen-decode": (
        "sweep",
        1.0,
        {
            "name": "gen-decode",
            "model": "gpt2-345m",
            "parallelism": {"pipeline_parallel": 2, "data_parallel": 2},
            "base": {
                "num_microbatches": 4,
                "micro_batch_size": 4,
                "workload_kind": "generation",
            },
            "grid": {"decode_steps": [8, 16]},
            "allocators": ["stalloc"],
            "ranks": "all",
        },
    ),
    "search-wide": (
        "search",
        0.25,
        {
            "name": "search-wide",
            "model": "moe-tiny",
            "cluster": "2x4xA800-80GB@0.30",
            "global_batch": 16,
            "allocators": ["stalloc"],
            "micro_batch_sizes": [1],
            "recompute": [True],
            "zero_stage": [0, 1],
            "tensor_parallel": [1],
            "virtual_pipeline_chunks": [1],
            "base": {"moe_imbalance": 0.6, "moe_comm_factor": 1.0},
        },
    ),
}


def _sha(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _entry(trace, config: STAllocConfig) -> dict:
    plan = STAlloc.from_trace(trace, config).plan
    static = plan.static_plan
    info = plan.synthesis_info
    pairs = sorted(zip(static.req_id, static.address))
    spaces = sorted(
        (key, [(interval.start, interval.end) for interval in space])
        for key, space in plan.dynamic_reusable_spaces.items()
    )
    return {
        "decisions": len(pairs),
        "placements_sha256": _sha(f"{req_id},{address}\n" for req_id, address in pairs),
        "pool_size": static.pool_size,
        "layer_sizes": info["layers"]["layer_sizes"],
        "items_per_layer": info["layers"]["items_per_layer"],
        "num_fusions": info["num_fusions"],
        "num_homophase_groups": info["num_homophase_groups"],
        "num_groups_after_fusion": info["num_groups_after_fusion"],
        "peak_static_demand_bytes": info["peak_static_demand_bytes"],
        "dynamic_groups": len(plan.dynamic_request_groups),
        "dynamic_spaces_sha256": _sha(f"{key}:{intervals}\n" for key, intervals in spaces),
    }


def _golden_entries(case_name: str) -> dict:
    case = _case_configs()[case_name]
    trace = TraceGenerator(
        case["config"], seed=case["seed"], rank=case["rank"], ep_rank=case["ep_rank"]
    ).generate()
    return {name: _entry(trace, config) for name, config in ABLATIONS.items()}


def _e2e_entries(shape: str) -> dict:
    """The last rank of the first and of the last point of the shape.

    Where the default pipeline fuses groups, the first point is also planned
    under every ablation.
    """
    kind, scale, document = E2E_SHAPES[shape]
    document = dict(document, seed=0, scale=scale)
    if kind == "sweep":
        points = SweepSpec.from_dict(document).expand()
    else:
        points = SearchSpec.from_dict(document).enumerate_candidates()
    entries = {}
    for point in (points[0], points[-1]):
        members = resolve_job_ranks(point.config, point.ranks)[-1]
        pp, ep = normalize_rank(members[0])
        trace = TraceGenerator(
            point.config, seed=point.seed, scale=point.scale, rank=pp, ep_rank=ep
        ).generate()
        label = f"point{point.index}/rank{pp}.{ep}"
        entries[label] = _entry(trace, STAllocConfig(**dict(point.stalloc_overrides)))
        if entries[label]["num_fusions"] and point is points[0]:
            for name, config in ABLATIONS.items():
                entries[f"{label}/{name}"] = _entry(trace, config)
    return entries


def _generate(case_name: str) -> dict:
    if case_name in E2E_SHAPES:
        return _e2e_entries(case_name)
    return _golden_entries(case_name)


ALL_CASES = (*GOLDEN_CASES, *E2E_SHAPES)


@pytest.fixture(scope="module")
def fixtures() -> dict:
    if os.environ.get("REGEN_GOLDEN"):
        document = {case: _generate(case) for case in ALL_CASES}
        FIXTURE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if not FIXTURE_PATH.exists():
        pytest.fail(f"{FIXTURE_PATH} is missing; see this module's docstring")
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_name", ALL_CASES)
def test_plans_match_recorded_digests(fixtures, case_name):
    recorded = fixtures[case_name]
    measured = json.loads(json.dumps(_generate(case_name)))
    assert sorted(measured) == sorted(recorded)
    for key in sorted(recorded):
        assert measured[key] == recorded[key], f"{case_name}/{key} moved"


def test_fixture_exercises_the_planner_paths(fixtures):
    """The ablations are only worth pinning if they change the plan."""
    entries = [entry for case in ALL_CASES for entry in fixtures[case].values()]
    assert fixtures["gen-decode"]["point0/rank1.0/repack"]["num_fusions"]
    assert fixtures["gen-decode"]["point0/rank1.0/insertion"]["num_fusions"]
    assert not fixtures["gen-decode"]["point0/rank1.0/no-fusion"]["num_fusions"]
    assert any(entry["dynamic_groups"] for entry in entries)
    assert any(
        sum(entry["items_per_layer"]) > len(entry["items_per_layer"]) for entry in entries
    )
    for case in GOLDEN_CASES:
        by_ablation = fixtures[case]
        assert by_ablation["no-fusion"]["num_fusions"] == 0
        assert by_ablation["no-gap-insertion"]["pool_size"] >= by_ablation["repack"]["pool_size"]
    moved = {
        name
        for case in GOLDEN_CASES
        for name, entry in fixtures[case].items()
        if entry["placements_sha256"] != fixtures[case]["repack"]["placements_sha256"]
        or entry["dynamic_spaces_sha256"] != fixtures[case]["repack"]["dynamic_spaces_sha256"]
    }
    assert moved >= {"no-gap-insertion", "ascending-order", "no-dynamic-reuse"}
