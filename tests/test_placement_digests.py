"""Allocator decisions, pinned independently of the code that makes them.

``tests/fixtures/placement_digests.json`` records, for every stateful
allocator on the golden dense, MoE-comm and generation traces, the SHA-256 of
the ``(req_id, pool, address, size)`` placement sequence together with the
final ``stats.snapshot()``, the device's driver-call counters and the replay
outcome.  Each trace is replayed four ways: on a roomy device; on a budget 4%
above the trace's peak demand, where expandable segments must reclaim granules
and the caching allocators OOM; and with ``stop_on_oom=False`` on budgets of
exactly the peak and of 80% of it, where failed requests are skipped, cached
segments are released and STAlloc's fallback runs dry next to a full pool.  A generator-free random stream drives the four allocator classes
directly (GMLake with a stitch threshold low enough to fire).

The fixture was recorded on the commit *before* the replay path was rewritten
for speed (1.9.0); a change to bookkeeping must leave every entry as it is.
A change that moves a decision on purpose regenerates the file::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_placement_digests.py
"""

from __future__ import annotations


import hashlib
import json
import os
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.allocators.base import Allocator
from repro.allocators.caching import CachingAllocator, torch23_config
from repro.allocators.expandable import ExpandableSegmentsAllocator
from repro.allocators.gmlake import GMLakeAllocator, GMLakeConfig
from repro.allocators.registry import create_allocator
from repro.core.stalloc import STAlloc, STAllocConfig
from repro.gpu.device import Device, KIB, MIB, align_up
from repro.gpu.errors import OutOfMemoryError
from repro.simulator.replay import replay_trace
from repro.workloads.tracegen import TraceGenerator
from tests.test_golden_traces import _case_configs

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "placement_digests.json"

TRACE_CASES = ("gpt-tiny", "moe-tiny-comm", "gpt-tiny-generation")
ALLOCATORS = ("torch2.0", "torch2.3", "torch_es", "gmlake", "stalloc", "stalloc-noreuse")
#: scenario -> (device budget as a share of the trace's peak demand, stop_on_oom)
SCENARIOS = {
    "roomy": (64.0, True),
    "tight": (1.04, True),
    "snug": (1.0, False),
    "skip": (0.8, False),
}


class _Recorder:
    """Hashes every placement an allocator hands out, in order.

    It hooks the placement step, ``_do_allocate``: a trace replay binds it
    directly when the trace pairs simply and stops on the first OOM, and the
    checked ``allocate`` (every other replay, and the synthetic stream) calls
    it too.  Each placement is read back through ``placement(req_id)``.
    """

    def __init__(self, allocator: Allocator):
        self.hasher = hashlib.sha256()
        self.count = 0
        inner = allocator._do_allocate

        def do_allocate(req_id, size, hints):
            inner(req_id, size, hints)
            placement = allocator.placement(req_id)
            self.hasher.update(
                f"{req_id},{placement.pool},{placement.address},{placement.size}\n".encode()
            )
            self.count += 1

        allocator._do_allocate = do_allocate  # the replay binds it off the instance
        # A batched replay places nothing: record every event through the loop.
        allocator.batch_replay = lambda trace, stop_on_oom=True: None


def _entry(allocator: Allocator, device: Device, recorder: _Recorder, outcome: dict) -> dict:
    assert recorder.count == allocator.stats.alloc_calls, "a placement went unrecorded"
    entry = {
        "placements": recorder.count,
        "placements_sha256": recorder.hasher.hexdigest(),
        "stats": allocator.stats.snapshot(),
        "device": asdict(device.stats),
        "outcome": outcome,
    }
    if isinstance(allocator, ExpandableSegmentsAllocator):
        entry["vmm"] = asdict(allocator.vmm.stats)
    return entry


def _golden_trace(case_name: str):
    case = _case_configs()[case_name]
    return TraceGenerator(
        case["config"], seed=case["seed"], rank=case["rank"], ep_rank=case["ep_rank"]
    ).generate()


def _build(name: str, device: Device, trace) -> Allocator:
    if name.startswith("stalloc"):
        config = STAllocConfig(enable_dynamic_reuse=name == "stalloc")
        return STAlloc.from_trace(trace, config).build_runtime_allocator(device)
    return create_allocator(name, device)


def _trace_entries(case_name: str) -> dict:
    trace = _golden_trace(case_name)
    peak = trace.peak_allocated_bytes()
    entries = {}
    for scenario, (share, stop_on_oom) in SCENARIOS.items():
        capacity = align_up(int(peak * share), 2 * MIB)
        for name in ALLOCATORS:
            device = Device(name="digest", capacity=capacity)
            try:
                allocator = _build(name, device, trace)
            except OutOfMemoryError as oom:  # the static pool alone exceeds the budget
                entries[f"{scenario}/{name}"] = {"setup_oom_bytes": oom.requested}
                continue
            recorder = _Recorder(allocator)
            result = replay_trace(trace, allocator, stop_on_oom=stop_on_oom)
            outcome = {
                "success": result.success,
                "events_replayed": result.events_replayed,
                "failed_allocs": result.failed_allocs,
                "skipped_frees": result.skipped_frees,
                "oom_at_event": result.oom_at_event,
                "oom_request_bytes": result.oom_request_bytes,
            }
            assert result.allocator_stats == allocator.stats.snapshot()
            entries[f"{scenario}/{name}"] = _entry(allocator, device, recorder, outcome)
    return entries


def _synthetic_allocators(device_factory) -> dict[str, tuple[Allocator, Device]]:
    built = {}
    for name, make in {
        "torch2.3": lambda d: CachingAllocator(d, torch23_config()),
        "torch_es": ExpandableSegmentsAllocator,
        "gmlake": GMLakeAllocator,
        # Stitching only fires for blocks >= frag_limit; the shipped 512 MiB
        # never does on streams this small.
        "gmlake-stitch": lambda d: GMLakeAllocator(
            d, GMLakeConfig(frag_limit=4 * MIB, min_stitch_request=8 * MIB)
        ),
    }.items():
        device = device_factory()
        built[name] = (make(device), device)
    return built


def _synthetic_entries() -> dict:
    """A seeded alloc/free stream drawn directly, not from ``tracegen``."""
    entries = {}
    built = _synthetic_allocators(lambda: Device(name="digest", capacity=1024 * MIB))
    for name, (allocator, device) in built.items():
        rng = random.Random(20260929)
        recorder = _Recorder(allocator)
        live: list[int] = []
        failed = 0
        for req_id in range(3000):
            if live and rng.random() < 0.5:
                allocator.free(live.pop(rng.randrange(len(live))))
                continue
            bucket = rng.random()
            if bucket < 0.5:
                size = rng.randrange(1, 1 * MIB)
            elif bucket < 0.85:
                size = rng.randrange(1 * MIB, 24 * MIB)
            else:
                size = rng.randrange(24 * MIB, 96 * MIB) // KIB * KIB
            try:
                allocator.allocate(req_id, size)
            except OutOfMemoryError:
                failed += 1
            else:
                live.append(req_id)
        outcome = {"failed_allocs": failed, "live_at_end": len(live)}
        entries[f"synthetic/{name}"] = _entry(allocator, device, recorder, outcome)
    return entries


def _generate(case_name: str) -> dict:
    return _synthetic_entries() if case_name == "synthetic" else _trace_entries(case_name)


ALL_CASES = (*TRACE_CASES, "synthetic")


@pytest.fixture(scope="module")
def fixtures() -> dict:
    if os.environ.get("REGEN_GOLDEN"):
        document = {case: _generate(case) for case in ALL_CASES}
        FIXTURE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if not FIXTURE_PATH.exists():
        pytest.fail(f"{FIXTURE_PATH} is missing; see this module's docstring")
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_name", ALL_CASES)
def test_decisions_match_recorded_digests(fixtures, case_name):
    recorded = fixtures[case_name]
    measured = json.loads(json.dumps(_generate(case_name)))  # tuples -> lists, like the file
    assert sorted(measured) == sorted(recorded)
    for key in sorted(recorded):
        assert measured[key] == recorded[key], f"{case_name}/{key} moved"


def test_fixture_exercises_the_pressure_paths(fixtures):
    """The budgeted scenarios are only worth pinning if they bite."""

    def entries(scenario, name):
        found = [fixtures[case][f"{scenario}/{name}"] for case in TRACE_CASES]
        return [entry for entry in found if "stats" in entry]

    assert any(e["vmm"]["handles_released"] for e in entries("tight", "torch_es"))
    assert any(not e["outcome"]["success"] for e in entries("tight", "torch2.3"))
    assert any(e["stats"]["device_free_calls"] for e in entries("skip", "torch2.3"))
    for name in ("torch2.3", "torch_es", "gmlake"):
        assert all(e["outcome"]["failed_allocs"] for e in entries("skip", name))
        assert any(e["outcome"]["skipped_frees"] for e in entries("skip", name))
    assert any(e["outcome"]["skipped_frees"] for e in entries("snug", "stalloc"))
    assert any(e["stats"]["merges"] for e in entries("roomy", "torch2.0"))
    assert any(e["stats"]["dynamic_pool_bytes"] for e in entries("roomy", "stalloc"))
    synthetic = fixtures["synthetic"]
    assert synthetic["synthetic/gmlake-stitch"]["stats"]["stitches"] > 0
    assert synthetic["synthetic/torch2.3"]["stats"]["device_free_calls"] > 0
    assert synthetic["synthetic/torch_es"]["vmm"]["handles_released"] > 0
