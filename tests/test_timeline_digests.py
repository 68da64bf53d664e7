"""Timeline event streams, pinned independently of the loop that emits them.

``tests/fixtures/timeline_digests.json`` records, for 60 seeded configurations,
``TimelineResult.digest()`` plus every rank's compute / comm / stall / finish
seconds and the result's decode seconds.  The draws cover dense and MoE
models, training / inference / generation workloads, flat and tiered fabrics,
``comm_overlap_factor`` 0 and 0.5, allocator overhead 0 and 0.003 s, one or
two virtual-pipeline chunks and expert parallelism 1 / 2 / 4;
:func:`test_cases_reach_every_branch` checks that they exercise pipeline
stalls, all-to-all collectives, MoE decode, expert compute hidden under a
collective and tier-mix pricing.

The fixture was recorded before the simulator's run loops were folded into
one; a change to how the loop is written must leave every entry as it is.  A
change that moves the event stream on purpose bumps ``TIMELINE_VERSION`` and
regenerates the file::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_timeline_digests.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from pathlib import Path

import pytest

from repro.gpu.specs import GPU_SPECS, NodeTopology
from repro.timeline.simulator import TimelineSimulator
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "timeline_digests.json"
NUM_CASES = 60
WORKLOADS = ("training", "inference", "generation")


def _case(index: int) -> dict:
    """Case ``index``: the swept axes cycle with the index, the rest is drawn."""
    rng = random.Random(9100 + index)
    moe = index % 2 == 1
    workload = WORKLOADS[(index // 2) % 3]
    tiered = (index // 6) % 2 == 1
    overlap = (0.0, 0.5)[(index // 12) % 2]
    overhead = (0.0, 0.003)[(index // 24) % 2]
    chunks = rng.choice((1, 2))
    # gpt-tiny has 4 layers, so an interleaved dense pipeline needs pp=2;
    # pp=1 is drawn only without virtual chunks.
    pipeline = rng.choice((2, 4)) if moe or chunks == 1 else 2
    if chunks == 1:
        pipeline = rng.choice((1, pipeline))
    expert = rng.choice((1, 2, 4)) if moe else 1
    config = TrainingConfig(
        model=get_model("moe-tiny" if moe else "gpt-tiny"),
        parallelism=ParallelismConfig(
            pipeline_parallel=pipeline,
            data_parallel=expert,
            expert_parallel=expert,
            virtual_pipeline_chunks=chunks,
        ),
        micro_batch_size=rng.choice((1, 2)),
        num_microbatches=rng.choice((1, 2, 4)),
        recompute=workload == "training" and rng.random() < 0.3,
        moe_imbalance=rng.choice((0.0, 0.6)),
        moe_comm_factor=rng.choice((0.5, 1.0, 1.0)) if moe else 0.0,
        comm_overlap_factor=overlap,
        workload_kind=workload,
        decode_steps=rng.choice((1, 3, 6)) if workload == "generation" else 0,
    )
    gpu = GPU_SPECS["A800-80GB"]
    if tiered:
        gpu = dataclasses.replace(
            gpu,
            gpus_per_node=rng.choice((1, 2, 4)),
            intra_node_gbytes_per_sec=160.0,
            inter_node_gbytes_per_sec=25.0,
        )
    return {
        "config": config,
        "gpu": gpu,
        "seed": rng.randrange(1000),
        "overhead": overhead,
    }


CASES = {f"case{index:02d}": _case(index) for index in range(NUM_CASES)}


def _simulate(case: dict):
    return TimelineSimulator(
        case["config"],
        gpu=case["gpu"],
        seed=case["seed"],
        allocator_overhead_seconds=case["overhead"],
    ).run()


def _entry(result) -> dict:
    return {
        "digest": result.digest(),
        "iteration_seconds": result.iteration_seconds,
        "decode_seconds": result.decode_seconds,
        "ranks": {
            f"{rank.rank[0]}.{rank.rank[1]}": [
                rank.compute_seconds,
                rank.comm_seconds,
                rank.stall_seconds,
                rank.finish_seconds,
            ]
            for rank in result.ranks
        },
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    if os.environ.get("REGEN_GOLDEN"):
        document = {name: _entry(_simulate(case)) for name, case in CASES.items()}
        FIXTURE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if not FIXTURE_PATH.exists():
        pytest.fail(f"{FIXTURE_PATH} is missing; see this module's docstring")
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_cases_in_sync_with_code(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_timeline_matches_recorded_digest(recorded, name):
    measured = _entry(_simulate(CASES[name]))
    assert measured == recorded[name], f"{name} ({CASES[name]['config'].describe()}) moved"


def _hides_expert_under_a2a(result) -> bool:
    for rank in result.ranks:
        a2a_end = 0.0
        for kind, start, duration, _, _, _ in rank.iter_records():
            if kind.startswith("a2a"):
                a2a_end = start + duration
            elif kind.startswith("expert") and start < a2a_end:
                return True
    return False


def _prices_tier_mix(case: dict, result) -> bool:
    config, gpu = case["config"], case["gpu"]
    if not gpu.is_tiered or result.comm_seconds <= 0.0:
        return False
    parallelism = config.parallelism
    topology = NodeTopology(
        pipeline_parallel=parallelism.pipeline_parallel,
        expert_parallel=parallelism.expert_parallel,
        gpus_per_node=gpu.gpus_per_node,
    )
    return any(
        topology.ep_group_spans_nodes(stage)
        for stage in range(parallelism.pipeline_parallel)
    )


def test_cases_reach_every_branch():
    """The contract only pins what the seeds exercise; make sure they do."""
    reached = {
        "stall": False,
        "a2a": False,
        "moe_decode": False,
        "overlap_hidden_expert": False,
        "tiered_pricing": False,
        "vpp": False,
        "ep4": False,
    }
    for case in CASES.values():
        config = case["config"]
        result = _simulate(case)
        reached["stall"] |= result.stall_seconds > 0.0
        reached["a2a"] |= result.comm_seconds > 0.0
        reached["moe_decode"] |= config.model.is_moe and result.decode_seconds > 0.0
        reached["overlap_hidden_expert"] |= _hides_expert_under_a2a(result)
        reached["tiered_pricing"] |= _prices_tier_mix(case, result)
        reached["vpp"] |= config.parallelism.virtual_pipeline_chunks > 1
        reached["ep4"] |= config.parallelism.expert_parallel == 4
    assert all(reached.values()), reached
