"""Golden-trace regression fixtures.

``tests/fixtures/golden_traces.json`` pins the SHA-256 of the canonical
JSON-lines text (``Trace.dumps``), plus a few readable statistics, of small
canonical traces at fixed seeds.  Any change to
the generator's event stream -- intentional or not -- flips a digest and fails
these tests with a diff of what moved, so the memory model cannot silently
shift underneath the planner.

When a change is intentional, bump ``TRACEGEN_VERSION`` (the cache layers key
on it) and regenerate the fixtures::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

then commit the updated ``golden_traces.json`` together with the generator
change.  The fixture file records the generator version it was built with, so
a version bump without regenerated fixtures fails loudly too.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.tracegen import TRACEGEN_VERSION, TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.trace_oracle import events_of

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_traces.json"

REGEN_HINT = (
    "If this change to the trace stream is intentional: bump TRACEGEN_VERSION in "
    "src/repro/workloads/tracegen.py (persistent caches key on it), regenerate the "
    "fixtures with `REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest "
    "tests/test_golden_traces.py`, and commit tests/fixtures/golden_traces.json "
    "with the generator change."
)


def _case_configs() -> dict[str, dict]:
    """The canonical fixture cases: tiny models, full scale, pinned seeds."""
    gpt_tiny = get_model("gpt-tiny")
    moe_tiny = get_model("moe-tiny")
    dense_parallelism = ParallelismConfig(pipeline_parallel=2, data_parallel=2)
    moe_parallelism = ParallelismConfig(
        pipeline_parallel=2, data_parallel=4, expert_parallel=4
    )
    dense = TrainingConfig(
        model=gpt_tiny, parallelism=dense_parallelism,
        micro_batch_size=2, num_microbatches=2,
    )
    moe = TrainingConfig(
        model=moe_tiny, parallelism=moe_parallelism,
        micro_batch_size=1, num_microbatches=2, moe_imbalance=0.6,
    )
    return {
        "gpt-tiny": {"config": dense, "seed": 0, "rank": 0, "ep_rank": 0},
        "gpt-tiny-recompute-last-stage": {
            "config": dense.with_(recompute=True), "seed": 1, "rank": 1, "ep_rank": 0,
        },
        # The comm-free baseline (skewed router, no communication
        # transients): moe_comm_factor == 0 must keep reproducing exactly
        # this stream, so comm-free sweep baselines stay comparable.
        "moe-tiny-comm-free": {"config": moe, "seed": 0, "rank": 0, "ep_rank": 1},
        "moe-tiny-balanced": {
            "config": moe.with_(moe_imbalance=0.0), "seed": 0, "rank": 0, "ep_rank": 0,
        },
        "moe-tiny-comm": {
            "config": moe.with_(moe_comm_factor=1.0), "seed": 0, "rank": 0, "ep_rank": 1,
        },
        # Generation workloads: prefill + autoregressive decode with per-step
        # KV-cache growth.  These pin the dynamic-allocation stream a static
        # planner has to survive, including the capped-context variant where
        # the cache stops growing at max_new_tokens.
        "gpt-tiny-generation": {
            "config": dense.with_(workload_kind="generation", decode_steps=8),
            "seed": 0, "rank": 0, "ep_rank": 0,
        },
        "gpt-tiny-generation-capped": {
            "config": dense.with_(
                workload_kind="generation", decode_steps=8, max_new_tokens=4
            ),
            "seed": 0, "rank": 1, "ep_rank": 0,
        },
        "moe-tiny-generation-comm": {
            "config": moe.with_(
                moe_comm_factor=1.0, workload_kind="generation", decode_steps=4
            ),
            "seed": 0, "rank": 0, "ep_rank": 1,
        },
    }


def _generate_entry(case: dict) -> dict:
    trace = TraceGenerator(
        case["config"], seed=case["seed"], rank=case["rank"], ep_rank=case["ep_rank"]
    ).generate()
    return {
        "digest": hashlib.sha256(trace.dumps().encode("utf-8")).hexdigest(),
        "tracegen_version": TRACEGEN_VERSION,
        "num_events": trace.num_events,
        "peak_allocated_bytes": trace.peak_allocated_bytes(),
        "comm_peak_bytes": trace.comm_peak_bytes(),
        "kv_peak_bytes": trace.kv_peak_bytes(),
    }


def _load_fixtures() -> dict:
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"golden fixture file {FIXTURE_PATH} is missing. Generate it with "
            "`REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py` "
            "and commit it."
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_regenerate_fixtures_when_requested():
    """With REGEN_GOLDEN=1, rewrite the fixture file (and always pass)."""
    if not os.environ.get("REGEN_GOLDEN"):
        pytest.skip("set REGEN_GOLDEN=1 to rewrite tests/fixtures/golden_traces.json")
    entries = {name: _generate_entry(case) for name, case in _case_configs().items()}
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_fixture_version_matches_generator():
    """TRACEGEN_VERSION moved but the fixtures were not regenerated."""
    fixtures = _load_fixtures()
    stale = {
        name: entry["tracegen_version"]
        for name, entry in fixtures.items()
        if entry["tracegen_version"] != TRACEGEN_VERSION
    }
    if stale:
        pytest.fail(
            f"TRACEGEN_VERSION is {TRACEGEN_VERSION} but these fixtures were "
            f"recorded at other versions: {stale}. {REGEN_HINT}"
        )


def test_fixture_cases_in_sync_with_code():
    fixtures = _load_fixtures()
    assert sorted(fixtures) == sorted(_case_configs()), (
        "fixture file and _case_configs() disagree on the case list. " + REGEN_HINT
    )


@pytest.mark.parametrize("name", sorted(_case_configs()))
def test_golden_digest(name):
    fixtures = _load_fixtures()
    case = _case_configs()[name]
    expected = fixtures[name]
    actual = _generate_entry(case)
    if actual == expected:
        return
    diff = "\n".join(
        f"  {key}: recorded {expected.get(key)!r} -> generated {actual.get(key)!r}"
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    )
    pytest.fail(
        f"golden trace {name!r} drifted from its recorded fixture "
        f"({case['config'].describe()}, seed={case['seed']}, "
        f"rank=({case['rank']}, {case['ep_rank']})):\n{diff}\n{REGEN_HINT}"
    )


def test_generation_fixtures_hold_kv_cache():
    """Generation fixtures must record live KV-cache bytes (the dynamic
    allocation the tests exist to pin), the capped variant must hold less
    than the uncapped one, and training fixtures must hold none."""
    fixtures = _load_fixtures()
    assert fixtures["gpt-tiny-generation"]["kv_peak_bytes"] > 0
    assert fixtures["moe-tiny-generation-comm"]["kv_peak_bytes"] > 0
    assert (
        fixtures["gpt-tiny-generation-capped"]["kv_peak_bytes"]
        < fixtures["gpt-tiny-generation"]["kv_peak_bytes"]
    )
    assert fixtures["gpt-tiny"]["kv_peak_bytes"] == 0
    assert fixtures["moe-tiny-comm"]["kv_peak_bytes"] == 0


def test_comm_free_case_really_is_comm_free():
    """The comm-free baseline fixture must contain no all-to-all events --
    otherwise it no longer pins the comm-free memory model."""
    case = _case_configs()["moe-tiny-comm-free"]
    trace = TraceGenerator(
        case["config"], seed=case["seed"], rank=case["rank"], ep_rank=case["ep_rank"]
    ).generate()
    assert case["config"].moe_comm_factor == 0.0
    assert not any(event.tag.startswith("a2a_") for event in events_of(trace))
    fixtures = _load_fixtures()
    assert fixtures["moe-tiny-comm-free"]["comm_peak_bytes"] == 0
    assert fixtures["moe-tiny-comm"]["comm_peak_bytes"] > 0
