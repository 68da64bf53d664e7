"""The replay loop's two bindings give one result, and the free index's int keys sort like tuples.

``replay_trace`` calls an allocator's placement step (``_do_allocate`` /
``_do_free``) directly when the replay stops on the first OOM and the trace
pairs simply, and takes the counts, peak allocated bytes and live requests
from the trace; otherwise the same loop calls the checked ``allocate`` /
``free``.  Here every trace of every sweep and search preset, and every
golden trace, goes through every allocator both ways, on a roomy device, on
1.04x the trace's peak demand and on 0.8x of it (the last two run the direct
path into an OOM).  The checked run sees the same trace with its pairing
marked not simple.  Each pair must agree on every ``ReplayResult`` field, the
stats snapshot, ``_live_sizes`` (in order), ``_allocated_bytes``, the device
counters and where every surviving request resides.

The golden traces run in tier 1; the 225 preset traces are a slow test.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.caching import OFFSET_BITS, SEGMENT_BITS, free_key, free_key_fields
from repro.allocators.registry import create_allocator
from repro.core.columns import NOT_SIMPLE
from repro.core.stalloc import STAlloc, STAllocConfig
from repro.gpu.device import MIB, Device, align_up
from repro.gpu.errors import OutOfMemoryError
from repro.search.presets import available_search_presets, load_search_spec
from repro.simulator.ranks import job_rank_classes
from repro.simulator.replay import replay_trace
from repro.sweep.spec import available_presets, load_spec
from repro.workloads.parallelism import normalize_rank
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceGenerator
from tests.test_golden_traces import _case_configs
from tests.test_placement_digests import _golden_trace

ALLOCATORS = ("native", "torch2.0", "torch2.3", "torch_es", "gmlake", "stalloc", "stalloc_no_reuse")
#: Device budget as a share of the trace's peak demand.
BUDGETS = {"roomy": 64.0, "tight": 1.04, "short": 0.8}


def _preset_traces() -> dict[str, tuple]:
    """``label -> (config, seed, scale, pp, ep)``, one per distinct trace the presets replay."""
    points = [
        (name, point) for name in available_presets() for point in load_spec(name).expand()
    ] + [
        (name, point)
        for name in available_search_presets()
        for point in load_search_spec(name).enumerate_candidates()
    ]
    cases: dict[tuple, str] = {}
    for name, point in points:
        budgets = dict(point.device_memory_by_rank)
        for members, _ in job_rank_classes(
            point.config, point.ranks, budgets, point.device_capacity_gib
        ):
            pp, ep = normalize_rank(members[0])
            key = (point.config, point.seed, point.scale, pp, ep)
            cases.setdefault(key, f"{name}/{point.config.label or point.index}/r{pp}.{ep}")
    return {label: key for key, label in cases.items()}


PRESET_TRACES = _preset_traces()


def _build(name: str, device: Device, stalloc: dict, trace: Trace):
    if name.startswith("stalloc"):
        if name not in stalloc:
            config = STAllocConfig(enable_dynamic_reuse=name == "stalloc")
            stalloc[name] = STAlloc.from_trace(trace, config)
        return stalloc[name].build_runtime_allocator(device)
    return create_allocator(name, device)


def _replay(trace: Trace, name: str, capacity: int, stalloc: dict, *, checked: bool):
    """One replay through the event loop, and everything it left behind."""
    device = Device(name="bindings", capacity=capacity)
    try:
        allocator = _build(name, device, stalloc, trace)
    except OutOfMemoryError as oom:  # the static pool alone exceeds the budget
        return {"setup_oom_bytes": oom.requested}
    allocator.batch_replay = lambda trace, stop_on_oom=True: None  # exercise the loop
    columns = trace.columns
    pairing = columns.pairing()
    if checked:
        columns._pairing_cache = NOT_SIMPLE
    try:
        result = replay_trace(trace, allocator)
    finally:
        columns._pairing_cache = pairing
    return {
        "result": asdict(result),
        "stats": allocator.stats.snapshot(),
        "live_sizes": list(allocator._live_sizes.items()),
        "allocated_bytes": allocator._allocated_bytes,
        "device": asdict(device.stats),
        "placements": [tuple(allocator.placement(req_id)) for req_id in allocator._live_sizes],
    }


def _assert_bindings_agree(trace: Trace) -> dict[str, int]:
    """Replay ``trace`` both ways everywhere; returns how many replays hit an OOM, by budget."""
    assert trace.columns.pairing().ok and trace.columns.pairing().min_alloc_size > 0
    peak = trace.peak_allocated_bytes()
    stalloc: dict = {}
    ooms = dict.fromkeys(BUDGETS, 0)
    for budget, share in BUDGETS.items():
        capacity = align_up(int(peak * share), 2 * MIB)
        for name in ALLOCATORS:
            direct = _replay(trace, name, capacity, stalloc, checked=False)
            checked = _replay(trace, name, capacity, stalloc, checked=True)
            assert direct == checked, f"{budget}/{name}"
            if "result" in direct and direct["result"]["oom_at_event"] is not None:
                ooms[budget] += 1
    return ooms


@pytest.mark.parametrize("case_name", sorted(_case_configs()))
def test_golden_traces_replay_alike_either_way(case_name):
    ooms = _assert_bindings_agree(_golden_trace(case_name))
    assert ooms["roomy"] == 0
    assert ooms["short"] > 0, "the short budget must run the direct path into an OOM"


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(PRESET_TRACES))
def test_preset_traces_replay_alike_either_way(label):
    config, seed, scale, pp, ep = PRESET_TRACES[label]
    trace = TraceGenerator(config, seed=seed, scale=scale, rank=pp, ep_rank=ep).generate()
    ooms = _assert_bindings_agree(trace)
    assert ooms["roomy"] == 0 and ooms["short"] > 0


def test_the_direct_binding_is_the_one_taken():
    """A trace that pairs simply never reaches the checked ``allocate``."""
    trace = _golden_trace("moe-tiny-comm")
    allocator = create_allocator("torch2.3", Device(name="bindings", capacity=64 << 30))

    def refuse(*args):
        raise AssertionError("the checked path ran")

    allocator.allocate = allocator.free = refuse
    result = replay_trace(trace, allocator)
    assert result.success and result.events_replayed == trace.num_events
    assert result.peak_allocated_bytes == trace.peak_allocated_bytes()


# ---------------------------------------------------------------------- #
# The free index's int key
# ---------------------------------------------------------------------- #
SEGMENT_LIMIT = (1 << SEGMENT_BITS) - 1
OFFSET_LIMIT = (1 << OFFSET_BITS) - 1


def _near(limit: int, *edges: int) -> st.SearchStrategy[int]:
    """Ints in ``[0, limit]``: at and beside each boundary in ``edges``, or anywhere."""
    points = {edge + delta for edge in (0, limit, *edges) for delta in (-1, 0, 1)}
    return st.one_of(
        st.sampled_from(sorted(point for point in points if 0 <= point <= limit)),
        st.integers(0, limit),
    )


SIZES = _near(1 << 70, 512, 1 << 20, 1 << OFFSET_BITS, 1 << 63, 1 << 64)
SEGMENTS = _near(SEGMENT_LIMIT, 1, 1 << 20)
OFFSETS = _near(OFFSET_LIMIT, 512, 1 << 32)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SIZES, SEGMENTS, OFFSETS), min_size=2, max_size=12))
def test_free_keys_sort_like_their_tuples(fields):
    keys = [free_key(*field) for field in fields]
    assert [free_key_fields(key) for key in keys] == fields
    assert [free_key_fields(key) for key in sorted(keys)] == sorted(fields)


@pytest.mark.parametrize(
    "size, segment_id, offset",
    [
        (512, SEGMENT_LIMIT + 1, 0),
        (512, 0, OFFSET_LIMIT + 1),
        (512, -1, 0),
        (512, 0, -1),
    ],
)
def test_a_field_beyond_its_width_raises(size, segment_id, offset):
    with pytest.raises(ValueError, match="does not fit the free index"):
        free_key(size, segment_id, offset)


def test_a_segment_beyond_the_offset_width_is_refused_before_it_is_reserved():
    allocator = create_allocator("torch2.3", Device(name="huge", capacity=4 << OFFSET_BITS))
    with pytest.raises(ValueError, match="does not fit the free index"):
        allocator.allocate(1, 2 << OFFSET_BITS)
    assert allocator.reserved_bytes == 0 and allocator.device.in_use == 0
