"""The MoE trace generator, pinned by content address.

``tests/fixtures/moe_generator_digests.json`` holds the ``Trace.digest()`` of
the two moe-replay coordinates of the end-to-end benchmark (Qwen1.5-MoE-A2.7B
under preset R, pipeline/expert ranks (0, 0) and (3, 1)) at seeds 0 and 5,
and of moe-tiny at ZeRO stages 0 and 1, with and without recomputation.
These are the routed-expert paths the generator builds a layer at a time:
the forward experts kept for backward or rematerialised, the backward
expert gradients and the all-to-all staging buffers.  The digests were
recorded before the generator stopped emitting events one call at a time;
a change to the stream must leave every entry as it is, or bump
``TRACEGEN_VERSION`` and regenerate on purpose::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_moe_generator_pins.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.version import TRACEGEN_VERSION
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig, preset_config

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "moe_generator_digests.json"


def _cases() -> dict[str, tuple[TrainingConfig, int, int, int]]:
    """``name -> (config, seed, pipeline rank, expert rank)``."""
    qwen = preset_config(
        get_model("qwen1.5-moe-a2.7b"),
        "R",
        parallelism=ParallelismConfig(pipeline_parallel=4, data_parallel=2, expert_parallel=2),
        micro_batch_size=4,
        num_microbatches=8,
    ).with_(moe_comm_factor=1.0)
    tiny = TrainingConfig(
        model=get_model("moe-tiny"),
        parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=4, expert_parallel=4),
        micro_batch_size=1,
        num_microbatches=4,
        moe_imbalance=0.6,
        moe_comm_factor=1.0,
    )
    cases = {
        f"qwen1.5-moe-R/r{pp}.{ep}/seed{seed}": (qwen, seed, pp, ep)
        for seed in (0, 5)
        for pp, ep in ((0, 0), (3, 1))
    }
    for zero in (0, 1):
        for recompute in (False, True):
            config = tiny.with_(zero_stage=zero, recompute=recompute)
            name = f"moe-tiny/zero{zero}/{'recompute' if recompute else 'kept'}"
            cases[name] = (config, 0, 1, 2)
    return cases


def _digest(case: tuple[TrainingConfig, int, int, int]) -> str:
    config, seed, pp, ep = case
    return TraceGenerator(config, seed=seed, rank=pp, ep_rank=ep).generate().digest()


def _fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_regenerate_when_requested():
    """With REGEN_GOLDEN=1, rewrite the fixture (and always pass)."""
    if not os.environ.get("REGEN_GOLDEN"):
        pytest.skip(f"set REGEN_GOLDEN=1 to rewrite {FIXTURE_PATH.name}")
    digests = {name: _digest(case) for name, case in _cases().items()}
    FIXTURE_PATH.write_text(
        json.dumps({"tracegen_version": TRACEGEN_VERSION, "digests": digests}, indent=2,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )


def test_fixture_matches_the_generator():
    fixture = _fixture()
    assert fixture["tracegen_version"] == TRACEGEN_VERSION
    digests = {name: _digest(case) for name, case in _cases().items()}
    assert digests == fixture["digests"]
