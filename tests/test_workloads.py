"""Tests for the workload substrate: models, parallelism, memory model, schedules, traces."""

from __future__ import annotations

import re

import pytest

from repro.core.events import PhaseKind, TensorCategory
from repro.core.profiler import AllocationProfiler
from repro.workloads.memory_model import MemoryModel, TensorSpec
from repro.workloads.models import MODEL_REGISTRY, get_model
from repro.workloads.moe import ExpertRouter
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.schedule import (
    build_schedule,
    interleaved_virtual_pipeline,
    one_f_one_b,
)
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import OPTIMIZATION_PRESETS, TrainingConfig, preset_config
from tests.trace_oracle import events_of


class TestModelConfigs:
    def test_registry_contains_paper_models(self):
        for name in (
            "gpt2-345m",
            "llama2-7b",
            "qwen2.5-7b",
            "qwen2.5-14b",
            "qwen2.5-32b",
            "qwen2.5-72b",
            "qwen1.5-moe-a2.7b",
        ):
            assert name in MODEL_REGISTRY

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            get_model("gpt-5")

    @pytest.mark.parametrize(
        "name, low, high",
        [
            ("gpt2-345m", 0.3e9, 0.5e9),
            ("llama2-7b", 6e9, 8e9),
            ("qwen2.5-14b", 12e9, 17e9),
            ("qwen2.5-72b", 65e9, 85e9),
            ("qwen1.5-moe-a2.7b", 12e9, 20e9),
        ],
    )
    def test_parameter_counts_in_expected_range(self, name, low, high):
        assert low <= get_model(name).total_params() <= high

    def test_moe_active_params_below_total(self):
        moe = get_model("qwen1.5-moe-a2.7b")
        assert moe.is_moe
        assert moe.active_params() < moe.total_params()

    def test_dense_active_equals_total(self):
        dense = get_model("llama2-7b")
        assert dense.active_params() == dense.total_params()

    def test_moe_active_params_match_the_published_size(self):
        # Qwen1.5-MoE-A2.7B activates ~2.7B of its ~14.3B parameters a token.
        assert 2.6e9 <= get_model("qwen1.5-moe-a2.7b").active_params() <= 2.8e9

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_active_params_count_each_part_a_token_uses(self, name):
        model = get_model(name)
        h = model.hidden_size
        mlp = model.mlp_params()
        if model.is_moe:
            # The router, the top-k routed experts and the shared expert.
            mlp = h * model.num_experts + model.moe_top_k * model.expert_params()
            if model.moe_shared_expert_ffn:
                f = model.moe_shared_expert_ffn
                mlp += (2 if model.gated_mlp else 1) * h * f + f * h
        per_layer = model.attention_params() + mlp + 2 * h
        expected = model.embedding_params() + model.num_layers * per_layer + h
        assert model.active_params() == expected
        assert (model.active_params() == model.total_params()) == (not model.is_moe)

    def test_invalid_head_divisibility(self):
        with pytest.raises(ValueError):
            get_model("llama2-7b").__class__(
                name="bad", hidden_size=100, num_layers=2, num_attention_heads=3,
                ffn_hidden_size=400, vocab_size=1000,
            )


class TestParallelism:
    def test_num_gpus(self):
        assert ParallelismConfig(2, 4, 2).num_gpus == 16

    def test_layers_per_rank(self):
        assert ParallelismConfig(1, 4, 1).layers_per_rank(32) == 8

    def test_layers_per_chunk(self):
        par = ParallelismConfig(1, 4, 1, virtual_pipeline_chunks=2)
        assert par.layers_per_chunk(32) == 4

    def test_indivisible_layers_rejected(self):
        with pytest.raises(ValueError):
            ParallelismConfig(1, 3, 1).layers_per_rank(32)

    def test_vpp_requires_pipeline(self):
        with pytest.raises(ValueError):
            ParallelismConfig(1, 1, 1, virtual_pipeline_chunks=2)

    def test_degrees_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelismConfig(0, 1, 1)

    def test_describe(self):
        par = ParallelismConfig(2, 4, 2, expert_parallel=2, virtual_pipeline_chunks=2)
        label = par.describe()
        assert "TP2" in label and "PP4" in label and "EP2" in label and "VPP2" in label


class TestTrainingConfig:
    def test_tokens_accounting(self, tiny_dense_config):
        config = tiny_dense_config
        assert config.tokens_per_microbatch == config.micro_batch_size * config.sequence_length
        assert config.tokens_per_iteration == (
            config.tokens_per_microbatch
            * config.num_microbatches
            * config.parallelism.data_parallel
        )

    def test_invalid_zero_stage(self):
        with pytest.raises(ValueError):
            TrainingConfig(model=get_model("gpt2-345m"), zero_stage=5)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("micro_batch_size", 2.5, "micro_batch_size must be an int >= 1, got 2.5"),
            ("num_microbatches", "4", "num_microbatches must be an int >= 1, got '4'"),
            ("zero_stage", True, "zero_stage must be an int in [0, 3], got True"),
            ("decode_steps", 1.0, "decode_steps must be an int >= 0, got 1.0"),
            ("max_new_tokens", None, "max_new_tokens must be an int >= 0, got None"),
            ("recompute", 1, "recompute must be true or false, got 1"),
            ("offload_activations", "no", "offload_activations must be true or false, got 'no'"),
        ],
        ids=["micro_batch_size", "num_microbatches", "zero_stage", "decode_steps",
             "max_new_tokens", "recompute", "offload_activations"],
    )
    def test_typed_fields_reject_other_types(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainingConfig(model=get_model("gpt2-345m"), **{name: value})

    def test_invalid_framework(self):
        with pytest.raises(ValueError):
            TrainingConfig(model=get_model("gpt2-345m"), framework="jax")

    def test_presets_exist(self):
        assert set(OPTIMIZATION_PRESETS) == {"Naive", "R", "V", "VR", "ZR", "ZOR"}

    def test_preset_config_recompute(self):
        config = preset_config(
            get_model("gpt2-345m"),
            "R",
            parallelism=ParallelismConfig(1, 4, 2),
            micro_batch_size=2,
        )
        assert config.recompute and config.label == "R"

    def test_preset_config_virtual_pipeline(self):
        config = preset_config(
            get_model("gpt2-345m"),
            "VR",
            parallelism=ParallelismConfig(1, 4, 2),
            micro_batch_size=2,
        )
        assert config.parallelism.virtual_pipeline_chunks == 2
        assert config.recompute

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config(get_model("gpt2-345m"), "X", parallelism=ParallelismConfig(), micro_batch_size=1)

    def test_with_override(self, tiny_dense_config):
        changed = tiny_dense_config.with_(recompute=True)
        assert changed.recompute and not tiny_dense_config.recompute


class TestMemoryModel:
    def test_tensor_spec_rejects_non_positive(self):
        with pytest.raises(ValueError):
            TensorSpec("x", 0, TensorCategory.ACTIVATION)

    def test_persistent_inventory_covers_all_layers(self, tiny_dense_config):
        memory = MemoryModel(tiny_dense_config)
        layers = tiny_dense_config.parallelism.layers_per_rank(tiny_dense_config.model.num_layers)
        specs = memory.persistent_tensors()
        weight_specs = [s for s in specs if s.category is TensorCategory.WEIGHT and s.tag.startswith("layer")]
        assert len(weight_specs) == layers

    def test_sizes_are_512_aligned(self, tiny_dense_config):
        memory = MemoryModel(tiny_dense_config)
        for spec in memory.persistent_tensors() + memory.saved_activation_tensors():
            assert spec.size % 512 == 0

    def test_tensor_parallel_shrinks_activations(self):
        base = TrainingConfig(model=get_model("llama2-7b"), micro_batch_size=1)
        tp2 = TrainingConfig(
            model=get_model("llama2-7b"),
            parallelism=ParallelismConfig(tensor_parallel=2, pipeline_parallel=1, data_parallel=1),
            micro_batch_size=1,
        )
        size_base = sum(s.size for s in MemoryModel(base).saved_activation_tensors())
        size_tp2 = sum(s.size for s in MemoryModel(tp2).saved_activation_tensors())
        assert size_tp2 < size_base

    def test_distributed_optimizer_shards_states(self, tiny_dense_config):
        plain = MemoryModel(tiny_dense_config)
        sharded = MemoryModel(tiny_dense_config.with_(zero_stage=1))
        assert sharded.layer_optimizer_bytes() < plain.layer_optimizer_bytes()

    def test_recompute_checkpoint_smaller_than_full(self, tiny_dense_config):
        memory = MemoryModel(tiny_dense_config)
        full = sum(s.size for s in memory.saved_activation_tensors())
        checkpoint = sum(s.size for s in memory.recompute_checkpoint_tensors())
        assert checkpoint < full / 4

    def test_expert_tensors_scale_with_tokens(self, tiny_moe_config):
        memory = MemoryModel(tiny_moe_config)
        small = memory.expert_activation_sizes([128])
        large = memory.expert_activation_sizes([1024])
        assert len(small) == len(large) == 4
        assert sum(large) > sum(small)

    def test_expert_tensors_empty_for_zero_tokens(self, tiny_moe_config):
        memory = MemoryModel(tiny_moe_config)
        assert memory.expert_activation_sizes([0]) == []
        # One routed layer's vector is its experts' vectors, idle experts left out.
        assert memory.expert_activation_sizes([128, 0, 64]) == (
            memory.expert_activation_sizes([128]) + memory.expert_activation_sizes([64])
        )


class TestSchedules:
    def test_1f1b_phase_counts(self):
        phases = one_f_one_b(4, 8)
        forwards = [p for p in phases if p.kind is PhaseKind.FORWARD]
        backwards = [p for p in phases if p.kind is PhaseKind.BACKWARD]
        assert len(forwards) == len(backwards) == 8

    def test_1f1b_backward_follows_forward(self):
        phases = one_f_one_b(2, 6)
        seen_forward: set[int] = set()
        for phase in phases:
            if phase.kind is PhaseKind.FORWARD:
                seen_forward.add(phase.microbatch)
            else:
                assert phase.microbatch in seen_forward

    def test_1f1b_in_flight_bound(self):
        phases = one_f_one_b(4, 16)
        in_flight = peak = 0
        for phase in phases:
            in_flight += 1 if phase.kind is PhaseKind.FORWARD else -1
            peak = max(peak, in_flight)
        assert peak == 4

    def test_interleaved_covers_all_units(self):
        phases = interleaved_virtual_pipeline(2, 8, 2)
        forwards = {(p.microbatch, p.chunk) for p in phases if p.kind is PhaseKind.FORWARD}
        backwards = {(p.microbatch, p.chunk) for p in phases if p.kind is PhaseKind.BACKWARD}
        assert forwards == backwards
        assert len(forwards) == 16

    def test_interleaved_holds_more_in_flight(self):
        plain = one_f_one_b(2, 8)
        interleaved = interleaved_virtual_pipeline(2, 8, 2)

        def peak(phases):
            live = best = 0
            for phase in phases:
                live += 1 if phase.kind is PhaseKind.FORWARD else -1
                best = max(best, live)
            return best

        assert peak(interleaved) > peak(plain)

    def test_build_schedule_brackets(self):
        schedule = build_schedule(ParallelismConfig(1, 2, 1), 4)
        assert schedule[0].kind is PhaseKind.INIT
        assert schedule[-1].kind is PhaseKind.OPTIMIZER

    def test_invalid_schedule_args(self):
        with pytest.raises(ValueError):
            one_f_one_b(0, 4)


class TestExpertRouter:
    def test_route_conserves_nothing_negative(self):
        router = ExpertRouter(num_experts=8, num_local_experts=4, top_k=2, seed=0)
        counts = router.route(1024)
        assert len(counts) == 4
        assert all(count >= 0 for count in counts)

    def test_route_total_bounded_by_assignments(self):
        router = ExpertRouter(num_experts=8, num_local_experts=8, top_k=2, seed=0)
        counts = router.route(1024)
        assert sum(counts) == 1024 * 2  # all experts are local

    def test_route_zero_tokens(self):
        router = ExpertRouter(num_experts=4, num_local_experts=2, top_k=2)
        assert router.route(0) == [0, 0]

    def test_determinism_with_seed(self):
        a = ExpertRouter(num_experts=16, num_local_experts=4, top_k=2, seed=7).route(2048)
        b = ExpertRouter(num_experts=16, num_local_experts=4, top_k=2, seed=7).route(2048)
        assert a == b

    def test_different_seeds_differ(self):
        a = ExpertRouter(num_experts=16, num_local_experts=4, top_k=2, seed=1).route(2048)
        b = ExpertRouter(num_experts=16, num_local_experts=4, top_k=2, seed=2).route(2048)
        assert a != b

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ExpertRouter(num_experts=4, num_local_experts=8, top_k=2)
        with pytest.raises(ValueError):
            ExpertRouter(num_experts=4, num_local_experts=2, top_k=2, imbalance=2.0)


class TestTraceGeneration:
    def test_trace_is_balanced(self, dense_trace):
        """Every free matches an alloc; nothing is freed twice."""
        live: set[int] = set()
        for event in events_of(dense_trace):
            if event.is_alloc():
                assert event.req_id not in live
                live.add(event.req_id)
            else:
                assert event.req_id in live
                live.remove(event.req_id)
        # Only persistent tensors stay live at the end of the iteration.
        persistent = {
            e.req_id
            for e in events_of(dense_trace)
            if e.is_alloc() and e.category in (
                TensorCategory.WEIGHT, TensorCategory.GRADIENT, TensorCategory.OPTIMIZER_STATE
            )
        }
        assert live == persistent

    def test_times_strictly_increasing(self, dense_trace):
        times = [event.time for event in events_of(dense_trace)]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_spatial_regularity(self, dense_trace):
        """Thousands of allocations but only a few dozen distinct sizes (Fig. 3)."""
        assert dense_trace.num_requests > 500
        assert dense_trace.distinct_sizes() < 64

    def test_deterministic_generation(self, tiny_dense_config):
        a = TraceGenerator(tiny_dense_config, seed=3).generate()
        b = TraceGenerator(tiny_dense_config, seed=3).generate()
        assert [(e.kind, e.req_id, e.size) for e in events_of(a)] == [
            (e.kind, e.req_id, e.size) for e in events_of(b)
        ]

    def test_recompute_reduces_peak_memory(self, tiny_dense_config):
        plain = TraceGenerator(tiny_dense_config, seed=0).generate()
        recompute = TraceGenerator(tiny_dense_config.with_(recompute=True), seed=0).generate()
        assert recompute.peak_allocated_bytes() < plain.peak_allocated_bytes()
        assert recompute.num_requests > plain.num_requests  # more (transient) requests

    def test_moe_trace_has_dynamic_requests(self, moe_trace):
        assert any(moe_trace.columns.dyn)
        dynamic_events = [e for e in events_of(moe_trace) if e.dyn]
        assert all(e.module for e in dynamic_events)

    def test_dense_trace_has_no_dynamic_requests(self, dense_trace):
        assert not any(dense_trace.columns.dyn)

    def test_module_spans_cover_dynamic_modules(self, moe_trace):
        dynamic_modules = {e.module for e in events_of(moe_trace) if e.dyn}
        assert dynamic_modules
        for module in dynamic_modules:
            assert module in moe_trace.module_spans
            start, end = moe_trace.module_spans[module]
            assert start <= end

    def test_scale_reduces_trace_size(self, tiny_dense_config):
        full = TraceGenerator(tiny_dense_config, seed=0).generate()
        scaled = TraceGenerator(tiny_dense_config, seed=0, scale=0.5).generate()
        assert scaled.num_requests < full.num_requests

    def test_invalid_scale_rejected(self, tiny_dense_config):
        with pytest.raises(ValueError):
            TraceGenerator(tiny_dense_config, scale=0.0)

    def test_zero_stage3_shards_weights(self, tiny_dense_config):
        plain = TraceGenerator(tiny_dense_config, seed=0).generate()
        zero3 = TraceGenerator(tiny_dense_config.with_(zero_stage=3), seed=0).generate()
        weight_bytes = lambda trace: sum(  # noqa: E731
            e.size for e in events_of(trace)
            if e.is_alloc() and e.category is TensorCategory.WEIGHT
        )
        assert weight_bytes(zero3) < weight_bytes(plain)

    def test_requests_pairable(self, dense_trace):
        profile = AllocationProfiler().profile(dense_trace)
        assert profile.num_requests == dense_trace.num_requests

    def test_save_and_load_roundtrip(self, tmp_path, dense_trace):
        path = tmp_path / "trace.jsonl"
        dense_trace.save(path)
        loaded = dense_trace.load(path)
        assert loaded.num_events == dense_trace.num_events
        assert loaded.metadata.model_name == dense_trace.metadata.model_name
        assert loaded.peak_allocated_bytes() == dense_trace.peak_allocated_bytes()
        assert loaded.module_spans == dense_trace.module_spans
