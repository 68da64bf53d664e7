"""Determinism regression tests for trace generation.

The sweep cache's content addressing is only sound if generating a trace from
the same :class:`TrainingConfig` always yields a byte-identical event stream;
these tests pin that property across model families and training options, and
cover the stability/sensitivity of :func:`config_fingerprint`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from array import array

import pytest

from repro.core.columns import COLUMN_NAMES, TraceColumns
from repro.core.events import EventKind, Phase, PhaseKind, TensorCategory
from repro.core.stalloc import STAllocConfig
from repro.sweep.cache import SweepCache
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.trace import Trace
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.trace_oracle import TraceEvent, events_of, make_trace, reload


def _dense(**overrides) -> TrainingConfig:
    defaults = dict(
        model=get_model("gpt2-345m"),
        parallelism=ParallelismConfig(tensor_parallel=1, pipeline_parallel=4, data_parallel=2),
        micro_batch_size=2,
        num_microbatches=2,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def _moe(**overrides) -> TrainingConfig:
    defaults = dict(
        model=get_model("qwen1.5-moe-a2.7b"),
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, expert_parallel=4
        ),
        micro_batch_size=1,
        num_microbatches=2,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


CONFIG_CASES: dict[str, TrainingConfig] = {
    "dense": _dense(),
    "dense-recompute": _dense(recompute=True),
    "dense-zero3": _dense(zero_stage=3),
    "dense-vpp": _dense(
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, virtual_pipeline_chunks=2
        )
    ),
    "moe": _moe(),
    "moe-recompute": _moe(recompute=True),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
class TestByteIdenticalRegeneration:
    def test_two_generators_emit_identical_bytes(self, case):
        config = CONFIG_CASES[case]
        first = TraceGenerator(config, seed=3, scale=0.5).generate()
        second = TraceGenerator(config, seed=3, scale=0.5).generate()
        assert first.dumps() == second.dumps()
        assert first.digest() == second.digest()

    def test_reusing_one_generator_is_deterministic(self, case):
        generator = TraceGenerator(CONFIG_CASES[case], seed=7, scale=0.5)
        assert generator.generate().dumps() == generator.generate().dumps()


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("case", ["dense", "moe"])
    def test_save_load_preserves_digest(self, case, tmp_path):
        trace = TraceGenerator(CONFIG_CASES[case], seed=5, scale=0.5).generate()
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.digest() == trace.digest()
        assert loaded.num_events == trace.num_events
        assert loaded.metadata == trace.metadata
        assert loaded.module_spans == trace.module_spans

    def test_load_rejects_empty_input(self, tmp_path):
        with pytest.raises(ValueError):
            reload("", tmp_path)


#: Module and tag names that exercise every JSON string escape: quotes,
#: backslashes, control characters, non-ASCII (BMP and astral), empty.
HOSTILE_NAMES = [
    'layer."0".attn',
    "back\\slash\\path",
    "tab\there\nnewline\rreturn\x00nul\x1funit",
    "ünïcödé-模块-\u2028-\U0001f600",
    "</script>&amp;\x7f",
    "",
]


def _hostile_trace() -> Trace:
    phases = [
        Phase(index=0, kind=PhaseKind.FORWARD, microbatch=0),
        Phase(index=1, kind=PhaseKind.BACKWARD, microbatch=0),
    ]
    categories = list(TensorCategory)
    events = []
    time = 0
    for req_id, module in enumerate(HOSTILE_NAMES * 2):
        tag = HOSTILE_NAMES[(req_id + 1) % len(HOSTILE_NAMES)]
        common = dict(
            req_id=req_id,
            size=512 * (req_id + 1),
            module=module,
            dyn=req_id % 2 == 1,
            category=categories[req_id % len(categories)],
            tag=tag,
        )
        events.append(TraceEvent(kind=EventKind.ALLOC, time=time, phase=phases[0], **common))
        events.append(TraceEvent(kind=EventKind.FREE, time=time + 1, phase=phases[1], **common))
        time += 2
    return make_trace(events, phases=phases, module_spans={HOSTILE_NAMES[0]: (0, time)})


def _reference_lines(trace: Trace) -> list[str]:
    """One ``json.dumps`` per event: the rendering the bytes are defined by."""
    return [
        json.dumps(
            {
                "kind": event.kind.value,
                "req_id": event.req_id,
                "size": event.size,
                "time": event.time,
                "phase": event.phase.index,
                "module": event.module,
                "dyn": event.dyn,
                "category": event.category.value,
                "tag": event.tag,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for event in events_of(trace)
    ]


def _generated(case: str) -> Trace:
    return TraceGenerator(CONFIG_CASES[case], seed=5, scale=0.5).generate()


class TestCanonicalBytes:
    @pytest.mark.parametrize("build", [_hostile_trace, lambda: _generated("moe")])
    def test_rows_equal_reference_rendering_line_for_line(self, build):
        trace = build()
        lines = trace.dumps().split("\n")
        assert lines[-1] == ""  # the text ends with a newline
        assert lines[1:-1] == _reference_lines(trace)
        assert json.loads(lines[0]).keys() == {"metadata", "module_spans", "phases"}

    def test_hostile_names_survive_a_round_trip(self, tmp_path):
        trace = _hostile_trace()
        loaded = reload(trace.dumps(), tmp_path)
        assert [(e.module, e.tag) for e in events_of(loaded)] == [
            (e.module, e.tag) for e in events_of(trace)
        ]
        assert loaded.dumps() == trace.dumps()

    @pytest.mark.parametrize("build", [_hostile_trace, lambda: _generated("dense")])
    def test_every_route_to_the_digest_agrees(self, build, tmp_path):
        """A fresh trace, a JSON-lines reload and a binary-entry reload share one address."""
        expected = build().digest()
        build().save(tmp_path / "t.jsonl")
        entry = tmp_path / "entry"
        entry.write_bytes(b"".join(bytes(chunk) for chunk in build().entry_chunks()))
        assert Trace.load(tmp_path / "t.jsonl").digest() == expected
        assert reload(build().dumps(), tmp_path).digest() == expected
        assert Trace.load(entry).digest() == expected
        assert len(expected) == 64 and int(expected, 16) >= 0


def _rebuilt(trace: Trace, **columns) -> Trace:
    """``trace`` with some columns (or the module / tag tables) replaced."""
    stored = {name: getattr(trace.columns, name) for name in COLUMN_NAMES}
    stored.update(modules=trace.columns.modules, tags=trace.columns.tags)
    stored.update(columns)
    return Trace(
        metadata=trace.metadata,
        phases=trace.phases,
        module_spans=trace.module_spans,
        columns=TraceColumns(**stored),
    )


def _one_value_changed(trace: Trace, name: str) -> Trace:
    column = array(getattr(trace.columns, name).typecode, getattr(trace.columns, name))
    column[len(column) // 2] ^= 1
    return _rebuilt(trace, **{name: column})


HEADER_CHANGES = {
    "metadata": lambda t: Trace(
        dataclasses.replace(t.metadata, description="other"), t.phases, t.module_spans,
        columns=t.columns,
    ),
    "phases": lambda t: Trace(
        t.metadata, [*t.phases[:-1], dataclasses.replace(t.phases[-1], microbatch=99)],
        t.module_spans, columns=t.columns,
    ),
    "module-spans": lambda t: Trace(
        t.metadata, t.phases, {**t.module_spans, "extra": (0, 1)}, columns=t.columns
    ),
    "modules-table": lambda t: _rebuilt(t, modules=(*t.columns.modules[:-1], "renamed")),
    "tags-table": lambda t: _rebuilt(t, tags=(*t.columns.tags[:-1], "renamed")),
    "one-event-fewer": lambda t: _rebuilt(
        t, **{name: getattr(t.columns, name)[:-1] for name in COLUMN_NAMES}
    ),
}


class TestContentAddress:
    """``Trace.digest`` hashes the columns, not the JSON-lines text."""

    @pytest.mark.parametrize("name", COLUMN_NAMES)
    def test_one_column_value_changes_the_address(self, name):
        trace = _generated("moe")
        assert _one_value_changed(trace, name).digest() != trace.digest()

    @pytest.mark.parametrize("change", sorted(HEADER_CHANGES))
    def test_one_header_field_changes_the_address(self, change):
        trace = _generated("moe")
        assert HEADER_CHANGES[change](trace).digest() != trace.digest()

    def test_the_address_does_not_depend_on_the_host_byte_order(self, monkeypatch):
        """A big-endian host holds each column byte-swapped; it hashes the same bytes."""
        trace = _generated("moe")
        expected = trace.digest()
        swapped = {}
        for name in COLUMN_NAMES:
            column = array(getattr(trace.columns, name).typecode, getattr(trace.columns, name))
            column.byteswap()
            swapped[name] = column
        foreign = _rebuilt(trace, **swapped) if sys.byteorder == "little" else trace
        native = trace if sys.byteorder == "little" else _rebuilt(trace, **swapped)
        monkeypatch.setattr(sys, "byteorder", "big")
        assert foreign.digest() == expected
        monkeypatch.setattr(sys, "byteorder", "little")
        assert native.digest() == expected

    def test_the_address_is_not_the_jsonl_text_hash(self):
        trace = _generated("dense")
        assert trace.digest() != hashlib.sha256(trace.dumps().encode("utf-8")).hexdigest()


def test_cold_trace_and_plan_key_never_render_json_lines(tmp_path, monkeypatch):
    """Storing a trace, loading it and keying plans on it render no JSON line."""
    monkeypatch.setattr(Trace, "iter_jsonl", lambda self: pytest.fail("rendered"))
    cache = SweepCache(tmp_path)
    trace = cache.get_trace(CONFIG_CASES["dense"], seed=5, scale=0.5)
    key = cache.plan_key(trace, STAllocConfig())
    assert cache.plan_key(trace, STAllocConfig(enable_fusion=False)) != key
    assert cache.stats.trace_misses == 1
    loaded = SweepCache(tmp_path).get_trace(CONFIG_CASES["dense"], seed=5, scale=0.5)
    assert loaded._digest_cache is None  # the entry stores no digest
    assert cache.plan_key(loaded, STAllocConfig()) == key


class TestSeedSensitivity:
    def test_moe_routing_depends_on_seed(self):
        config = CONFIG_CASES["moe"]
        sizes_a = sorted(
            e.size for e in events_of(TraceGenerator(config, seed=0, scale=0.5).generate())
            if e.dyn and e.is_alloc()
        )
        sizes_b = sorted(
            e.size for e in events_of(TraceGenerator(config, seed=1, scale=0.5).generate())
            if e.dyn and e.is_alloc()
        )
        assert sizes_a != sizes_b

    def test_dense_event_stream_ignores_seed_but_metadata_keeps_it(self):
        config = CONFIG_CASES["dense"]
        a = TraceGenerator(config, seed=0, scale=0.5).generate()
        b = TraceGenerator(config, seed=1, scale=0.5).generate()
        assert [e.size for e in events_of(a)] == [e.size for e in events_of(b)]
        assert a.metadata.seed != b.metadata.seed
        assert a.digest() != b.digest()  # seed is part of the content address


class TestConfigFingerprint:
    def test_fingerprint_is_stable_for_equal_configs(self):
        a = config_fingerprint(_dense(), seed=2, scale=0.5)
        b = config_fingerprint(_dense(), seed=2, scale=0.5)
        assert a == b

    @pytest.mark.parametrize(
        "variant",
        [
            {"micro_batch_size": 4},
            {"recompute": True},
            {"zero_stage": 1},
            {"num_microbatches": 4},
            {"label": "other"},
        ],
    )
    def test_fingerprint_changes_with_config(self, variant):
        base = config_fingerprint(_dense(), seed=0, scale=0.5)
        assert config_fingerprint(_dense(**variant), seed=0, scale=0.5) != base

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 1},
            {"scale": 0.25},
            {"rank": 1},
            {"async_free_skew": 0},
            {"size_jitter": (1.0,)},
        ],
    )
    def test_fingerprint_changes_with_generator_knobs(self, kwargs):
        base = config_fingerprint(_dense())
        assert config_fingerprint(_dense(), **kwargs) != base

    def test_fingerprint_matches_generation_inputs_not_outputs(self):
        """Dense streams ignore the seed, but the fingerprint must not: cache
        keys follow the generation inputs (conservative over-segmentation)."""
        assert config_fingerprint(_dense(), seed=0) != config_fingerprint(_dense(), seed=1)
