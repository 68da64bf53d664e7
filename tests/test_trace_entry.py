"""Typed trace columns and the binary trace entry the sweep cache stores.

Three contracts:

* **Round trip.**  A seeded fuzz of hand-built ``ColumnBuilder`` traces --
  empty traces, never-freed requests, shared ticks, unicode module and tag
  names, sizes near 2**63 -- comes back from the binary entry with equal
  columns, interned tables, metadata, phases, module spans and digest, and
  renders the same canonical JSON lines.
* **Width.**  A value a column cannot hold raises a one-line ``ValueError``
  naming the column and the event index, whichever way the columns are built.
* **Structure.**  What a run keeps per event or per request -- the trace
  columns, the pairing's positions, the request columns, the HomoLayer member
  ids -- is a typed array, and a plan routes its dynamic requests without a
  dict per request.  This is the memory guard: it is checked by type and byte
  count, not by timing.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.core.columns import ALLOC, COLUMN_NAMES, COLUMN_TYPES, FREE, ColumnBuilder, TraceColumns
from repro.core.events import Phase, PhaseKind, phase_to_dict
from repro.core.plan import DynamicRouting
from repro.core.stalloc import STAlloc
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.trace import Trace, TraceMetadata
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.trace_oracle import reload

NAMES = ["", "layers.0.mlp", "ünïcödé-模块", "emoji-\U0001f600", 'quote"back\\slash', "tab\tnl\n"]
HUGE = 2**63 - 1


def _random_trace(rng: random.Random) -> Trace:
    """A hand-built trace: shared ticks, never-freed requests, extreme sizes."""
    phases = [
        Phase(index=index, kind=rng.choice(list(PhaseKind)), microbatch=rng.randrange(-1, 4),
              chunk=rng.randrange(2))
        for index in range(rng.randrange(1, 5))
    ]
    builder = ColumnBuilder()
    rows = []
    live: list[tuple[int, int, bool, int]] = []
    time = rng.randrange(0, 2**40) if rng.random() < 0.2 else 0
    req_id = rng.randrange(0, 2**50) if rng.random() < 0.2 else 0
    for _ in range(rng.choice([0, 1, 5, 300, 5000])):
        if live and rng.random() < 0.45:
            freed, size, dyn, category = live.pop(rng.randrange(len(live)))
            kind = FREE
        else:
            freed, size = req_id, rng.choice([1, 512, rng.randrange(1, 2**20), HUGE - rng.randrange(4)])
            dyn, category = rng.random() < 0.3, rng.randrange(8)
            live.append((freed, size, dyn, category))
            req_id += rng.randrange(1, 3)
            kind = ALLOC
        phase, module, tag = rng.choice(phases).index, rng.choice(NAMES), rng.choice(NAMES)
        rows.append((
            kind, freed, size, time, phase,
            builder.modules.setdefault(module, len(builder.modules)), 1 if dyn else 0, category,
            builder.tags.setdefault(tag, len(builder.tags)),
        ))
        time += rng.choice([0, 0, 1, 7])  # shared ticks
    if rows:
        builder.extend(*zip(*rows))
    metadata = TraceMetadata(model_name=rng.choice(NAMES), seed=rng.randrange(100), scale=0.5)
    spans = {name: (rng.randrange(9), rng.randrange(9, 99)) for name in rng.sample(NAMES, 3)}
    return Trace(metadata=metadata, phases=phases, module_spans=spans, columns=builder.build())


def _entry_bytes(trace: Trace) -> bytes:
    return b"".join(bytes(chunk) for chunk in trace.entry_chunks())


@pytest.mark.parametrize("seed", range(25))
def test_hand_built_traces_round_trip_through_the_binary_entry(seed, tmp_path):
    trace = _random_trace(random.Random(seed))
    path = tmp_path / "entry"
    path.write_bytes(_entry_bytes(trace))
    loaded = Trace.load(path)
    for name, typecode in COLUMN_TYPES:
        column = getattr(loaded.columns, name)
        assert column.typecode == typecode and column == getattr(trace.columns, name), name
    assert (loaded.columns.modules, loaded.columns.tags) == (trace.columns.modules, trace.columns.tags)
    assert loaded.metadata == trace.metadata
    assert [phase_to_dict(p) for p in loaded.phases] == [phase_to_dict(p) for p in trace.phases]
    assert loaded.module_spans == trace.module_spans
    canonical = trace.dumps().encode("utf-8")
    assert loaded.digest() == trace.digest()
    assert loaded.dumps().encode("utf-8") == canonical
    assert reload(canonical.decode("utf-8"), tmp_path).digest() == trace.digest()


def test_the_empty_trace_round_trips(tmp_path):
    trace = Trace(columns=ColumnBuilder().build())
    path = tmp_path / "entry"
    path.write_bytes(_entry_bytes(trace))
    loaded = Trace.load(path)
    assert loaded.num_events == 0 and loaded.digest() == trace.digest()


@pytest.mark.parametrize(
    "column, value",
    [("kind", 128), ("size", 2**63), ("req_id", -(2**63) - 1), ("phase_index", 2**31),
     ("category", -129), ("time", 1.5)],
)
def test_a_value_wider_than_its_column_names_the_column_and_the_event(column, value):
    row = {"kind": ALLOC, "req_id": 1, "size": 512, "time": 0, "phase_index": 0, "category": 0}
    builder = ColumnBuilder()
    for index in range(5000):  # past one flush of the builder's buffers
        values = dict(row, req_id=index, time=index)
        if index == 4321:
            values[column] = value
        builder.extend(
            (values["kind"],), (values["req_id"],), (values["size"],), (values["time"],),
            (values["phase_index"],), (0,), (0,), (values["category"],), (0,),
        )
    with pytest.raises(ValueError, match=rf"^trace column '{column}' .* at event 4321$") as raised:
        builder.build()
    assert "\n" not in str(raised.value)

    lists = {name: [0] * 3 for name in COLUMN_NAMES}
    lists[column][2] = value
    with pytest.raises(ValueError, match=rf"^trace column '{column}' .* at event 2$"):
        TraceColumns(**lists, modules=("",), tags=("",))


def test_trace_entry_read_by_fromfile_never_parses_a_row(tmp_path, monkeypatch):
    """A hit is the head line plus ``array.fromfile`` per column: no JSON row parse."""
    trace = _random_trace(random.Random(99))
    path = tmp_path / "entry"
    path.write_bytes(_entry_bytes(trace))
    parsed = []
    monkeypatch.setattr(Trace, "_from_lines", classmethod(lambda cls, *a: parsed.append(a)))
    monkeypatch.setattr(Trace, "iter_jsonl", lambda self: pytest.fail("rendered"))
    assert Trace.load(path).digest() == trace.digest()
    assert parsed == []


def _moe_tiny_trace() -> Trace:
    config = TrainingConfig(
        model=get_model("moe-tiny"),
        parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=4, expert_parallel=4),
        micro_batch_size=2,
        num_microbatches=8,
        moe_imbalance=0.6,
        moe_comm_factor=1.0,
    )
    return TraceGenerator(config, seed=0).generate()


def test_what_a_run_keeps_per_event_and_per_request_is_typed():
    trace = _moe_tiny_trace()
    columns = trace.columns
    assert any(columns.dyn)  # the MoE path is exercised
    stored = [getattr(columns, name) for name in COLUMN_NAMES]
    assert all(type(column) is array for column in stored)
    assert sum(column.itemsize * len(column) for column in stored) <= 40 * trace.num_events

    pairing = columns.pairing()
    assert type(pairing.alloc_pos) is array and type(pairing.free_pos) is array

    stalloc = STAlloc.from_trace(trace)
    profile = stalloc.profile
    assert all(type(column) is array for column in profile.columns)
    assert profile.dynamic_groups
    assert all(type(group.req_ids) is array for group in profile.dynamic_groups)

    routing = stalloc.plan.dynamic_request_groups
    assert type(routing) is DynamicRouting and not isinstance(routing, dict)
    # The plan shares the profile's member arrays instead of copying them.
    assert len(routing.groups) == len(profile.dynamic_groups) and all(
        members is group.req_ids
        for (_, members), group in zip(routing.groups, profile.dynamic_groups)
    )
    # Routing answers exactly what the per-request dict did.
    expected = {
        req_id: group.key for group in profile.dynamic_groups for req_id in group.req_ids
    }
    assert routing == expected and len(routing) == len(expected)
    assert routing.get(-1) is None and routing.get(max(expected) + 1, "x") == "x"


@pytest.mark.parametrize("ids", [[10, 11, 13], [5, 2**40, 7]], ids=["dense", "sparse"])
def test_routing_answers_as_the_dict_it_replaces(ids):
    groups = [(("a", "b"), ids[:2]), (("c", "c"), ids[2:])]
    routing = DynamicRouting(groups)
    expected = {req_id: key for key, members in groups for req_id in members}
    assert routing == expected and len(routing) == 3 and sorted(routing) == sorted(expected)
    assert routing.get(12) is None and routing.get(-1, "x") == "x" and routing.get(2**41) is None
    with pytest.raises(KeyError):
        routing[12]


def test_plan_entry_bytes_keep_the_grouped_routing_order(tmp_path):
    """The entry stores the groups as synthesized; a reload writes the same bytes."""
    stalloc = STAlloc.from_trace(_moe_tiny_trace())
    path = tmp_path / "plan.json"
    stalloc.save_plan(path)
    assert STAlloc.load_plan(path).dumps() == path.read_text(encoding="utf-8")
