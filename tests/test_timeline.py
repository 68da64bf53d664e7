"""Tests for the discrete-event timeline simulator and its plumbing.

Covers the subsystem's defining properties -- convergence to the closed-form
reference (``tests/throughput_oracle.py``) when nothing dynamic is happening,
emergent pipeline bubbles, strictly worse iterations under router imbalance
and communication (monotone in the comm factor), determinism -- plus the
integration surface: the runner's pricing, the sweep columns and their
``--compare`` regression directions, the ``device_memory_by_rank`` grid axis, and the GPU-spec
single-source-of-truth satellite.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main as cli_main
from repro.gpu.device import GIB, device_from_spec
from repro.gpu.specs import GPU_SPECS, get_gpu
from repro.simulator.runner import run_job
from repro.obs import BufferSink, Tracer
from repro.obs.tracer import install, shutdown
from repro.search.cluster import ClusterSpec
from repro.simulator.ranks import validate_budget_map
from repro.sweep.compare import compare_results
from repro.sweep.engine import execute_points, run_sweep
from repro.sweep.spec import SWEEP_PRESETS, SweepSpec, load_spec
from repro.timeline import TimelineSimulator, simulate_timeline
from repro.workloads.moe import ExpertRouter
from repro.workloads.models import get_model
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig
from tests import throughput_oracle
from tests.test_sweep import assert_declared_row

GPU = GPU_SPECS["A800-80GB"]


def dense_config(**overrides) -> TrainingConfig:
    defaults = dict(
        model=get_model("gpt-tiny"),
        parallelism=ParallelismConfig(pipeline_parallel=4, data_parallel=2),
        micro_batch_size=2,
        num_microbatches=8,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def moe_config(**overrides) -> TrainingConfig:
    defaults = dict(
        model=get_model("moe-tiny"),
        parallelism=ParallelismConfig(
            pipeline_parallel=2, data_parallel=4, expert_parallel=4
        ),
        micro_batch_size=1,
        num_microbatches=2,
        moe_imbalance=0.6,
        moe_comm_factor=1.0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


# ---------------------------------------------------------------------- #
# Differential: timeline vs the closed-form reference
# ---------------------------------------------------------------------- #
class TestAnalyticalConvergence:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"recompute": True},
            {"zero_stage": 1},
            {"offload_activations": True, "recompute": True},
            {
                "parallelism": ParallelismConfig(
                    tensor_parallel=2, pipeline_parallel=2, data_parallel=2
                )
            },
            {"num_microbatches": 1},  # m < p: the degenerate pipeline
        ],
    )
    def test_dense_iteration_matches_closed_form(self, overrides):
        """With nothing dynamic, the emergent schedule reproduces the classical
        ``(m + p - 1) / m`` pipeline stretch exactly -- same iteration time and
        same bubble fraction as the closed form, to float precision."""
        config = dense_config(**overrides)
        timeline = simulate_timeline(config, gpu=GPU)
        closed_form = throughput_oracle.estimate(config, GPU)
        assert rel_diff(timeline.iteration_seconds, closed_form.iteration_seconds) < 1e-9
        assert abs(timeline.bubble_fraction - closed_form.bubble_fraction) < 1e-9

    def test_moe_balanced_comm_free_converges(self):
        """The acceptance-criteria differential: a balanced router and zero
        comm factor make every EP rank identical, so the simulated iteration
        lands on the closed form (within balanced-split rounding)."""
        config = moe_config(moe_imbalance=0.0, moe_comm_factor=0.0)
        timeline = simulate_timeline(config, gpu=GPU)
        closed_form = throughput_oracle.estimate(config, GPU)
        assert rel_diff(timeline.iteration_seconds, closed_form.iteration_seconds) < 0.01
        assert timeline.comm_seconds == 0.0

    def test_pp1_has_no_bubble(self):
        config = dense_config(parallelism=ParallelismConfig(data_parallel=2))
        timeline = simulate_timeline(config, gpu=GPU)
        assert timeline.bubble_fraction < 1e-12

    def test_vpp_reduces_bubble(self):
        base = ParallelismConfig(pipeline_parallel=2, data_parallel=2)
        vpp = ParallelismConfig(
            pipeline_parallel=2, data_parallel=2, virtual_pipeline_chunks=2
        )
        plain = simulate_timeline(dense_config(parallelism=base, num_microbatches=4), gpu=GPU)
        chunked = simulate_timeline(dense_config(parallelism=vpp, num_microbatches=4), gpu=GPU)
        assert chunked.bubble_fraction < plain.bubble_fraction

    def test_mfu_positive_and_below_one(self):
        timeline = simulate_timeline(dense_config(), gpu=GPU)
        assert 0.0 < timeline.mfu < 1.0
        # MFU can never exceed the tuned achievable ceiling.
        assert timeline.mfu <= GPU.achievable_mfu + 1e-9


# ---------------------------------------------------------------------- #
# Imbalance, communication, stragglers
# ---------------------------------------------------------------------- #
class TestRoutedLoadTiming:
    def test_imbalance_and_comm_strictly_slower_than_baseline(self):
        """The acceptance criterion: skewed routing plus communication costs
        must make the binding rank strictly slower than the balanced,
        comm-free twin."""
        slow = simulate_timeline(moe_config(), gpu=GPU)
        baseline = simulate_timeline(
            moe_config(moe_imbalance=0.0, moe_comm_factor=0.0), gpu=GPU
        )
        assert slow.iteration_seconds > baseline.iteration_seconds
        # ... and each effect alone already hurts.
        imbalance_only = simulate_timeline(moe_config(moe_comm_factor=0.0), gpu=GPU)
        comm_only = simulate_timeline(moe_config(moe_imbalance=0.0), gpu=GPU)
        assert imbalance_only.iteration_seconds > baseline.iteration_seconds
        assert comm_only.iteration_seconds > baseline.iteration_seconds

    def test_iteration_monotone_in_comm_factor(self):
        previous = None
        for factor in [0.0, 0.25, 0.5, 1.0, 2.0]:
            timeline = simulate_timeline(moe_config(moe_comm_factor=factor), gpu=GPU)
            if previous is not None:
                assert timeline.iteration_seconds > previous
            previous = timeline.iteration_seconds

    def test_comm_seconds_scale_linearly_with_factor(self):
        one = simulate_timeline(moe_config(moe_comm_factor=1.0), gpu=GPU)
        two = simulate_timeline(moe_config(moe_comm_factor=2.0), gpu=GPU)
        assert rel_diff(two.comm_seconds, 2 * one.comm_seconds) < 1e-9

    def test_imbalance_creates_straggler_stalls_without_comm_bytes(self):
        """Even with zero-duration collectives the synchronisation is real:
        hot-expert ranks make their EP peers wait at every all-to-all."""
        timeline = simulate_timeline(moe_config(moe_comm_factor=0.0), gpu=GPU)
        assert timeline.stall_seconds > 0
        stalls = [rank.stall_seconds for rank in timeline.ranks]
        assert max(stalls) > min(stalls)

    def test_binding_rank_is_a_coordinate_under_skew(self):
        timeline = simulate_timeline(moe_config(), gpu=GPU)
        assert timeline.binding_rank in {rank.rank for rank in timeline.ranks}
        assert len(timeline.binding_rank) == 2

    def test_timing_loads_match_the_trace_router(self):
        """The timeline must derive its loads from the *same* gating decisions
        that size the trace's COMM_BUFFER transients: the per-EP-rank slices
        of one globally-seeded draw."""
        config = moe_config()
        simulator = TimelineSimulator(config, gpu=GPU, seed=3)
        model = config.model
        ep = config.parallelism.expert_parallel
        loads = simulator._routed_loads(5, 1)
        for ep_rank in range(ep):
            router = ExpertRouter(
                num_experts=model.num_experts,
                num_local_experts=model.num_experts // ep,
                top_k=model.moe_top_k,
                seed=3,
                imbalance=config.moe_imbalance,
                ep_rank=ep_rank,
            )
            assert loads[ep_rank] == sum(
                router.route(simulator.tokens, layer=5, microbatch=1)
            )

    def test_ep_must_divide_experts(self):
        config = moe_config(
            parallelism=ParallelismConfig(
                pipeline_parallel=2, data_parallel=4, expert_parallel=3
            )
        )
        with pytest.raises(ValueError, match="divisible"):
            TimelineSimulator(config, gpu=GPU)


# ---------------------------------------------------------------------- #
# Determinism and event-stream invariants
# ---------------------------------------------------------------------- #
class TestEventStream:
    def test_repeated_simulation_is_byte_identical(self):
        config = moe_config()
        first = TimelineSimulator(config, gpu=GPU, seed=7).run()
        second = TimelineSimulator(config, gpu=GPU, seed=7).run()
        assert first.digest() == second.digest()
        assert [e for r in first.ranks for e in r.events] == [
            e for r in second.ranks for e in r.events
        ]

    def test_different_seeds_differ_under_skew(self):
        config = moe_config()
        assert (
            TimelineSimulator(config, gpu=GPU, seed=0).run().digest()
            != TimelineSimulator(config, gpu=GPU, seed=1).run().digest()
        )

    def test_events_are_ordered_and_non_overlapping_per_rank(self):
        timeline = simulate_timeline(moe_config(), gpu=GPU)
        for rank in timeline.ranks:
            cursor = 0.0
            for event in rank.events:
                assert event.duration >= 0.0
                assert event.start >= cursor - 1e-12
                cursor = max(cursor, event.start + event.duration)
            assert cursor <= timeline.iteration_seconds + 1e-12
            assert rank.finish_seconds <= timeline.iteration_seconds + 1e-12

    def test_time_accounting_is_consistent(self):
        timeline = simulate_timeline(moe_config(), gpu=GPU)
        for rank in timeline.ranks:
            busy = rank.compute_seconds + rank.comm_seconds + rank.stall_seconds
            assert busy <= rank.finish_seconds + 1e-12
            by_kind = {"compute": 0.0, "comm": 0.0, "stall": 0.0}
            for event in rank.events:
                if event.kind in ("forward", "backward", "expert_forward", "expert_backward"):
                    by_kind["compute"] += event.duration
                elif event.kind in ("a2a_dispatch", "a2a_combine"):
                    by_kind["comm"] += event.duration
                elif event.kind == "stall":
                    by_kind["stall"] += event.duration
            assert by_kind["compute"] == pytest.approx(rank.compute_seconds)
            assert by_kind["comm"] == pytest.approx(rank.comm_seconds)
            assert by_kind["stall"] == pytest.approx(rank.stall_seconds)

    def test_collectives_are_synchronised_across_the_ep_group(self):
        """Every (phase, layer) collective must start at the same instant on
        every EP peer of its stage -- the synchronising-collective semantics
        stragglers emerge from."""
        timeline = simulate_timeline(moe_config(), gpu=GPU)
        collectives: dict[tuple, set] = {}
        for rank in timeline.ranks:
            stage = rank.rank[0]
            for event in rank.events:
                if event.kind in ("a2a_dispatch", "a2a_combine"):
                    key = (stage, event.kind, event.microbatch, event.chunk, event.layer)
                    collectives.setdefault(key, set()).add(event.start)
        assert collectives
        for key, starts in collectives.items():
            assert len(starts) == 1, f"collective {key} not synchronised: {starts}"

    def test_every_call_emits_one_span(self):
        """Span counts equal call counts, which the e2e accounting assumes:
        two identical calls simulate twice and emit two spans."""
        buffer = BufferSink()
        install(Tracer(sinks=[buffer]))
        try:
            config = moe_config()
            first = simulate_timeline(config, gpu=GPU)
            second = simulate_timeline(config, gpu=GPU)
        finally:
            shutdown()
        names = [event["name"] for event in buffer.events]
        assert names.count("timeline.simulate") == 2
        assert first is not second
        assert first.digest() == second.digest()

    def test_memo_keys_on_spec_contents_not_name(self):
        """A customised GPUSpec under a stock name must never be served a
        result computed for different hardware constants."""
        config = moe_config()
        stock = simulate_timeline(config, gpu=GPU)
        slow_a2a = dataclasses.replace(GPU, a2a_gbytes_per_sec=GPU.a2a_gbytes_per_sec / 10)
        custom = simulate_timeline(config, gpu=slow_a2a)
        assert custom is not stock
        assert custom.comm_seconds > stock.comm_seconds

    def test_result_summary_surface(self):
        timeline = simulate_timeline(moe_config(), gpu=GPU)
        summary = timeline.as_dict()
        assert summary["iteration_seconds"] == timeline.iteration_seconds
        assert summary["binding_rank"] == list(timeline.binding_rank)
        assert summary["num_events"] == timeline.num_events
        lines = list(timeline.iter_jsonl())
        assert len(lines) == timeline.num_events + 1  # header + one per event


# ---------------------------------------------------------------------- #
# Non-finite inputs
# ---------------------------------------------------------------------- #
NAN = float("nan")
INF = float("inf")
MOE_TIMELINE = ["timeline", "moe-tiny", "--pp", "2", "--ep", "2", "--dp", "2"]
#: A JSON sweep spec whose base carries a ``NaN`` literal (``json`` accepts it).
NAN_SPEC = """{"name": "nan", "allocators": ["torch2.3"], "model": "moe-tiny",
 "parallelism": {"pipeline_parallel": 2, "data_parallel": 2, "expert_parallel": 2},
 "base": {"num_microbatches": 2, "moe_comm_factor": NaN}}"""

#: case -> (API call that must raise, or CLI argv that must exit 2; message).
#: A NaN passes every ``x < 0`` / ``x <= 0`` check, so before these were
#: rejected a NaN comm factor printed ``iteration_seconds nan`` and a NaN
#: bandwidth made a communicating job report ``comm_seconds 0``.
NON_FINITE = {
    "config-comm-nan": (lambda: moe_config(moe_comm_factor=NAN), "moe_comm_factor"),
    "config-comm-inf": (lambda: moe_config(moe_comm_factor=INF), "moe_comm_factor"),
    "spec-a2a-nan": (
        lambda: dataclasses.replace(GPU, a2a_gbytes_per_sec=NAN), "a2a_gbytes_per_sec"
    ),
    "spec-hbm-inf": (
        lambda: dataclasses.replace(GPU, hbm_gbytes_per_sec=INF), "hbm_gbytes_per_sec"
    ),
    "spec-intra-nan": (
        lambda: dataclasses.replace(GPU, intra_node_gbytes_per_sec=NAN),
        "intra_node_gbytes_per_sec",
    ),
    "spec-inter-inf": (
        lambda: dataclasses.replace(GPU, inter_node_gbytes_per_sec=INF),
        "inter_node_gbytes_per_sec",
    ),
    # A bool is an int to Python but no bandwidth.
    "spec-inter-bool": (
        lambda: dataclasses.replace(GPU, inter_node_gbytes_per_sec=True),
        "inter_node_gbytes_per_sec must be a number > 0 or None, got True",
    ),
    "overhead-nan": (
        lambda: TimelineSimulator(dense_config(), allocator_overhead_seconds=NAN),
        "allocator_overhead_seconds",
    ),
    "cluster-inter-inf": (
        lambda: ClusterSpec.from_dict(
            {"devices": "2x4xA800-80GB", "inter_node_gbytes_per_sec": INF}
        ),
        "inter_node_gbytes_per_sec",
    ),
    "sweep-fabric-nan": (
        lambda: tiny_sweep_spec(fabric={"intra_node_gbytes_per_sec": NAN}),
        "intra_node_gbytes_per_sec",
    ),
    "budget-nan": (lambda: validate_budget_map({"0": NAN}, "budgets"), "positive GiB"),
    "cli-comm-nan": ([*MOE_TIMELINE, "--comm-factor", "nan"], "moe_comm_factor"),
    "cli-comm-inf": ([*MOE_TIMELINE, "--comm-factor", "inf"], "moe_comm_factor"),
    "cli-intra-nan": (
        [*MOE_TIMELINE, "--intra-bw", "nan", "--gpus-per-node", "1", "--comm-factor", "1"],
        "intra_node_gbytes_per_sec",
    ),
    "cli-sweep-json-nan": (["sweep", "{spec}", "--no-cache"], "moe_comm_factor"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_inputs_are_rejected(case, tmp_path, capsys):
    target, message = NON_FINITE[case]
    if callable(target):
        with pytest.raises(ValueError, match=message):
            target()
        return
    spec_path = tmp_path / "nan.json"
    spec_path.write_text(NAN_SPEC)
    argv = [str(spec_path) if arg == "{spec}" else arg for arg in target]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


#: A generation sweep spec and a tiered-cluster search spec, as the
#: benchmark's gen-decode and search-wide workloads write them (seed 0).
GEN_DECODE = {
    "name": "gen-decode",
    "model": "gpt2-345m",
    "parallelism": {"pipeline_parallel": 2, "data_parallel": 2},
    "base": {"num_microbatches": 4, "micro_batch_size": 4, "workload_kind": "generation"},
    "grid": {"decode_steps": [8, 16]},
    "allocators": ["torch2.3", "torch_es", "stalloc"],
    "ranks": "all",
    "seed": 0,
}
SEARCH_WIDE = {
    "name": "search-wide",
    "model": "moe-tiny",
    "cluster": "2x4xA800-80GB@0.30",
    "global_batch": 16,
    "allocators": ["torch2.3", "stalloc"],
    "micro_batch_sizes": [1],
    "recompute": [True],
    "zero_stage": [0, 1],
    "tensor_parallel": [1],
    "virtual_pipeline_chunks": [1],
    "base": {"moe_imbalance": 0.6, "moe_comm_factor": 1.0},
    "seed": 0,
}


#: A training sweep over the gen-decode model and layout, where the
#: training-only fields (recompute, offload, ZeRO) are legal.
TRAIN_SWEEP = dict(
    GEN_DECODE,
    name="train-recompute",
    base={"num_microbatches": 4, "micro_batch_size": 2},
    grid={"recompute": [False, True]},
)


#: The job-smoke preset (PP=4): the base of the parallelism, stalloc_grid and
#: budget-map cases.
JOB_SMOKE = SWEEP_PRESETS["job-smoke"]


def _with(spec: dict, **changes) -> dict:
    """``spec`` with top-level fields replaced; ``base__X`` replaces ``base["X"]``."""
    spec = dict(spec, base=dict(spec["base"]))
    for key, value in changes.items():
        if key.startswith("base__"):
            spec["base"][key[len("base__"):]] = value
        else:
            spec[key] = value
    return spec


#: Malformed spec -> (command, document, what the one-line error must name).
#: Each used to run anyway, crash with a traceback, fail one point at run
#: time, or print an error that named no field or the wrong one.
MALFORMED_SPECS = {
    "sweep-mbs-float": (
        "sweep", _with(GEN_DECODE, base__micro_batch_size=2.5), "micro_batch_size"
    ),
    "sweep-mbs-string": (
        "sweep", _with(GEN_DECODE, base__micro_batch_size="2"), "micro_batch_size"
    ),
    "sweep-unknown-device": ("sweep", _with(GEN_DECODE, device="H100-xx"), "device 'H100-xx'"),
    "sweep-negative-scale": ("sweep", _with(GEN_DECODE, scale=-1), "scale"),
    "sweep-grid-list": ("sweep", _with(GEN_DECODE, grid=[1]), "grid"),
    "sweep-allocators-string": ("sweep", _with(GEN_DECODE, allocators="stalloc"), "allocators"),
    "sweep-top-level-list": ("sweep", [GEN_DECODE], "sweep spec must be a JSON object"),
    "sweep-negative-capacity": (
        "sweep", _with(GEN_DECODE, device_capacity_gib=-5), "device_capacity_gib"
    ),
    "search-zero-stage": ("search", _with(SEARCH_WIDE, zero_stage=[5]), "zero_stage"),
    "search-recompute-string": ("search", _with(SEARCH_WIDE, recompute=["yes"]), "recompute"),
    "search-allocators-string": (
        "search", _with(SEARCH_WIDE, allocators="stalloc"), "allocators"
    ),
    "sweep-nmb-string": (
        "sweep", _with(GEN_DECODE, base__num_microbatches="4"), "num_microbatches"
    ),
    "sweep-mbs-bool": ("sweep", _with(GEN_DECODE, base__micro_batch_size=True), "micro_batch_size"),
    "sweep-decode-float": (
        "sweep", _with(GEN_DECODE, grid={"decode_steps": [8, 16.0]}), "decode_steps"
    ),
    "sweep-max-new-string": (
        "sweep", _with(GEN_DECODE, base__max_new_tokens="8"), "max_new_tokens"
    ),
    "sweep-zero-scale": ("sweep", _with(GEN_DECODE, scale=0), "scale"),
    "sweep-bool-scale": ("sweep", _with(GEN_DECODE, scale=True), "scale"),
    "sweep-grid-scale": (
        "sweep", _with(GEN_DECODE, grid={"scale": [0.5, 1.5]}), "grid scale[1]"
    ),
    "sweep-base-list": (
        "sweep", dict(GEN_DECODE, base=[1]), "base must be a JSON object"
    ),
    "sweep-parallelism-int": (
        "sweep", _with(GEN_DECODE, parallelism=4), "parallelism must be a JSON object"
    ),
    "sweep-stalloc-grid-list": (
        "sweep", _with(GEN_DECODE, stalloc_grid=[1]), "stalloc_grid must be a JSON object"
    ),
    "sweep-zero-capacity": (
        "sweep", _with(GEN_DECODE, device_capacity_gib=0), "device_capacity_gib"
    ),
    "sweep-string-capacity": (
        "sweep", _with(GEN_DECODE, device_capacity_gib="80"), "device_capacity_gib"
    ),
    "train-recompute-string": (
        "sweep", _with(TRAIN_SWEEP, grid={"recompute": ["yes"]}), "recompute"
    ),
    "train-offload-int": (
        "sweep", _with(TRAIN_SWEEP, base__offload_activations=1), "offload_activations"
    ),
    "train-zero-stage-float": ("sweep", _with(TRAIN_SWEEP, base__zero_stage=1.0), "zero_stage"),
    "search-scale": ("search", _with(SEARCH_WIDE, scale=2), "scale"),
    "search-top-level-list": ("search", [SEARCH_WIDE], "search spec must be a JSON object"),
    "search-base-list": ("search", dict(SEARCH_WIDE, base=[1]), "base must be a JSON object"),
    "search-stalloc-grid-list": (
        "search", _with(SEARCH_WIDE, stalloc_grid=[1]), "stalloc_grid must be a JSON object"
    ),
    "search-zero-stage-string": ("search", _with(SEARCH_WIDE, zero_stage=["1"]), "zero_stage"),
    "search-recompute-int": ("search", _with(SEARCH_WIDE, recompute=[1]), "recompute"),
    "search-mbs-bool": (
        "search", _with(SEARCH_WIDE, micro_batch_sizes=[True]), "micro_batch_sizes"
    ),
    "search-mbs-float": (
        "search", _with(SEARCH_WIDE, micro_batch_sizes=[1.5]), "micro_batch_sizes"
    ),
    "search-mbs-zero": ("search", _with(SEARCH_WIDE, micro_batch_sizes=[0]), "micro_batch_sizes"),
    "search-vpp-zero": (
        "search", _with(SEARCH_WIDE, virtual_pipeline_chunks=[0]), "virtual_pipeline_chunks"
    ),
    "search-vpp-string": (
        "search", _with(SEARCH_WIDE, virtual_pipeline_chunks=["1"]), "virtual_pipeline_chunks"
    ),
    "search-tp-float": ("search", _with(SEARCH_WIDE, tensor_parallel=[1.0]), "tensor_parallel"),
    "search-ep-string": ("search", _with(SEARCH_WIDE, expert_parallel=["2"]), "expert_parallel"),
    "sweep-pp-string": (
        "sweep",
        _with(JOB_SMOKE, parallelism={"pipeline_parallel": "4", "data_parallel": 2}),
        "pipeline_parallel",
    ),
    "sweep-tp-string": (
        "sweep",
        _with(JOB_SMOKE, parallelism={"pipeline_parallel": 4, "tensor_parallel": "2"}),
        "tensor_parallel",
    ),
    "sweep-pp-float": (
        "sweep",
        _with(JOB_SMOKE, parallelism={"pipeline_parallel": 4.0, "data_parallel": 2}),
        "pipeline_parallel",
    ),
    "sweep-fusion-int": (
        "sweep", _with(JOB_SMOKE, stalloc_grid={"enable_fusion": [2]}), "enable_fusion"
    ),
    "sweep-reuse-string": (
        "sweep",
        _with(JOB_SMOKE, stalloc_grid={"enable_dynamic_reuse": ["yes"]}),
        "enable_dynamic_reuse",
    ),
    "sweep-profiler-iterations-zero": (
        "sweep", _with(JOB_SMOKE, stalloc_grid={"profiler_iterations": [0]}), "profiler_iterations"
    ),
    "sweep-profiler-iterations-string": (
        "sweep",
        _with(JOB_SMOKE, stalloc_grid={"profiler_iterations": ["3"]}),
        "profiler_iterations",
    ),
    "sweep-fusion-strategy-unknown": (
        "sweep", _with(JOB_SMOKE, stalloc_grid={"fusion_strategy": ["bogus"]}), "fusion_strategy"
    ),
    "sweep-budget-rank-out-of-range": (
        "sweep", _with(JOB_SMOKE, device_memory_by_rank={"9": 40}), "device_memory_by_rank"
    ),
    "sweep-grid-budget-rank-out-of-range": (
        "sweep",
        _with(JOB_SMOKE, grid=dict(JOB_SMOKE["grid"], device_memory_by_rank=[{"9": 40}])),
        "device_memory_by_rank",
    ),
    "search-cluster-budget-list": (
        "search",
        _with(SEARCH_WIDE, cluster={"num_devices": 8, "device_memory_by_rank": [1]}),
        "cluster device_memory_by_rank",
    ),
    "search-cluster-devices-int": (
        "search", _with(SEARCH_WIDE, cluster={"devices": 8}), "cluster devices"
    ),
    "search-cluster-budget-string": (
        "search",
        _with(SEARCH_WIDE, cluster={"num_devices": 8, "device_memory_by_rank": {"0": "x"}}),
        "cluster device_memory_by_rank['0']",
    ),
    "search-cluster-zero-nodes": (
        "search", _with(SEARCH_WIDE, cluster="0x4xA800-80GB"), "num_nodes"
    ),
    "search-cluster-bool-bandwidth": (
        "search",
        _with(
            SEARCH_WIDE,
            cluster={"devices": "2x4xA800-80GB@0.30", "inter_node_gbytes_per_sec": True},
        ),
        "cluster inter_node_gbytes_per_sec",
    ),
    # Each ran before a knob's domain lived on its field: a negative
    # sequence priced negative tokens/s, a zero one priced no tokens, a float
    # dtype width gave one config two trace addresses, a bool router skew
    # routed as 1.0.
    "sweep-seq-length-negative": (
        "sweep", _with(GEN_DECODE, base__seq_length=-8), "seq_length must be an int >= 1"
    ),
    "sweep-seq-length-zero": (
        "sweep", _with(GEN_DECODE, base__seq_length=0), "seq_length must be an int >= 1"
    ),
    "sweep-param-dtype-float": (
        "sweep", _with(GEN_DECODE, base__param_dtype_bytes=2.0), "param_dtype_bytes"
    ),
    "sweep-moe-imbalance-bool": (
        "sweep", _with(GEN_DECODE, base__moe_imbalance=True), "moe_imbalance"
    ),
    # The closed-form pricing backend is gone; a spec that still selects it
    # must not run priced by the timeline as if it had asked for that.
    "sweep-timing-analytical": ("sweep", _with(GEN_DECODE, timing="analytical"), "timing"),
    "search-timing-analytical": ("search", _with(SEARCH_WIDE, timing="analytical"), "timing"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_specs_exit_2_at_load_naming_the_field(case, tmp_path, capsys):
    command, document, field = MALFORMED_SPECS[case]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(document), encoding="utf-8")
    assert cli_main([command, str(spec_path), "--no-cache", "--no-progress"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err


# ---------------------------------------------------------------------- #
# Runner integration (timeline pricing)
# ---------------------------------------------------------------------- #
class TestRunnerTiming:
    def test_run_job_timeline_backend(self):
        job = run_job(moe_config(), "torch2.3", ranks="all", scale=0.5)
        timeline = job.timeline
        assert timeline.iteration_seconds > 0
        assert timeline.comm_seconds > 0
        assert 0 < timeline.bubble_fraction < 1
        assert 0 < timeline.mfu < 1

    def test_timeline_slower_than_analytical_under_skew(self):
        """The closed form cannot see stragglers, so the timeline's iteration
        must be the longer one for an imbalanced communicating job.  Both
        sides carry the job's allocator overhead, so the TFLOPS comparison is
        like for like."""
        timeline_job = run_job(moe_config(), "torch2.3", ranks="all", scale=0.5)
        overhead = max(run.overhead_seconds for run in timeline_job.class_runs)
        closed_form = throughput_oracle.estimate(
            moe_config(), GPU, allocator_overhead_seconds=overhead
        )
        timeline_seconds = timeline_job.timeline.iteration_seconds
        assert timeline_seconds > closed_form.iteration_seconds
        assert timeline_job.timeline.tflops_per_gpu < closed_form.tflops_per_gpu

    def test_run_job_accepts_timing_for_one_rank(self, tiny_dense_config):
        job = run_job(tiny_dense_config, "torch2.3", ranks=None, scale=0.25)
        assert job.timeline.tflops_per_gpu > 0


# ---------------------------------------------------------------------- #
# Sweep integration: spec, rows, compare
# ---------------------------------------------------------------------- #
def tiny_sweep_spec(**overrides) -> SweepSpec:
    fields = dict(
        name="tl-test",
        model="moe-tiny",
        parallelism={"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
        base={"num_microbatches": 2, "micro_batch_size": 1, "moe_imbalance": 0.6},
        grid={"moe_comm_factor": [0.0, 1.0]},
        allocators=["torch2.3"],
        ranks="all",
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestSweepTiming:
    def test_points_keep_timing_only_as_a_constant(self):
        """``SweepPoint.timing`` survives for the benchmark's stage walker; it
        is no field, so it can neither be set nor reach a cache key."""
        for point in tiny_sweep_spec().expand():
            assert point.timing == "timeline"
            assert "timing" not in point.cache_payload()
            assert "timing" not in {field.name for field in dataclasses.fields(point)}

    @pytest.mark.parametrize("command, spec", [("sweep", "quick-grid"), ("search", "gpt-tiny")])
    def test_timing_flag_is_gone(self, command, spec, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main([command, spec, "--timing", "analytical", "--no-cache"])
        assert exited.value.code == 2
        assert "--timing" in capsys.readouterr().err

    def test_rows_have_timing_columns_and_monotone_comm(self):
        result = run_sweep(tiny_sweep_spec())
        assert result.num_points == 2
        by_factor = {row["config"]: row for row in result.rows}
        for row in result.rows:
            assert "timing" not in row
            for key in ("iteration_seconds", "comm_seconds", "bubble_fraction", "mfu"):
                assert key in row
        assert (
            by_factor["comm=1.0"]["iteration_seconds"]
            > by_factor["comm=0.0"]["iteration_seconds"]
        )
        assert by_factor["comm=1.0"]["comm_seconds"] > 0
        assert by_factor["comm=0.0"]["comm_seconds"] == 0.0

    def test_timeline_smoke_preset_loads(self):
        spec = load_spec("timeline-smoke")
        assert len(spec.expand()) == 3

    def test_compare_flags_timing_regressions(self):
        result = run_sweep(tiny_sweep_spec())
        baseline = result.as_dict()
        regressed = result.as_dict()
        import copy

        regressed = copy.deepcopy(regressed)
        regressed["rows"][0]["iteration_seconds"] *= 1.5
        report = compare_results(baseline, regressed)
        assert report.has_regressions
        assert report.exit_code == 1
        assert any("iteration_seconds" in reason
                   for comparison in report.regressions
                   for reason in comparison.regressions)
        # mfu moves the other way: shrinking it is the regression.
        worse_mfu = copy.deepcopy(baseline)
        worse_mfu["rows"][1]["mfu"] *= 0.5
        report = compare_results(baseline, worse_mfu)
        assert report.has_regressions

    def test_compare_never_matches_across_timing_backends(self):
        """A 1.24.0 baseline priced by the removed closed form must not be
        silently diffed against a current run: its rows name their backend,
        current rows name none, so the gate reports the schema mismatch
        instead of bogus metric regressions."""
        current = run_sweep(tiny_sweep_spec()).as_dict()
        baseline = _closed_form_baseline(current)
        report = compare_results(baseline, current)
        assert report.num_matched == 0
        assert report.baseline_unmatched
        assert report.exit_code == 1

    def test_cli_compare_reports_closed_form_baseline_unmatched(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(dict(SWEEP_PRESETS["timeline-smoke"], grid={"moe_comm_factor": [0.0]})),
            encoding="utf-8",
        )
        current = tmp_path / "current.json"
        args = [str(spec_path), "--no-cache", "--no-progress"]
        assert cli_main(["sweep", *args, "--output", str(current)]) == 0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_closed_form_baseline(json.loads(current.read_text(encoding="utf-8")))),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert cli_main(["sweep", *args, "--compare", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "0 matched points" in out and "no baseline point matched" in out
        assert "[REGRESSION]" not in out and "[changed]" not in out
        assert cli_main(["sweep", "--compare", str(baseline), str(current)]) == 1

    def test_cli_compare_matches_timeline_baseline_from_before_the_column_left(
        self, tmp_path, capsys
    ):
        """A 1.24.0 baseline the timeline priced carries ``"timing":
        "timeline"``; its numbers are still current, so it must match a
        current run point for point, not be reported unmatched."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(dict(SWEEP_PRESETS["timeline-smoke"], grid={"moe_comm_factor": [0.0]})),
            encoding="utf-8",
        )
        current = tmp_path / "current.json"
        args = [str(spec_path), "--no-cache", "--no-progress"]
        assert cli_main(["sweep", *args, "--output", str(current)]) == 0
        result = json.loads(current.read_text(encoding="utf-8"))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_tagged_baseline(result, "timeline")), encoding="utf-8"
        )
        capsys.readouterr()
        assert cli_main(["sweep", "--compare", str(baseline), str(current)]) == 0
        out = capsys.readouterr().out
        assert f"{len(result['rows'])} matched points" in out
        assert "no baseline point matched" not in out and "[REGRESSION]" not in out


def _tagged_baseline(result: dict, timing: str) -> dict:
    """``result`` as a 1.24.0 results file: the same measurements, each row
    tagged with the ``timing`` backend that priced it."""
    rows = []
    for row in result["rows"]:
        row = dict(row)
        row["timing"] = timing
        rows.append(row)
    return dict(result, rows=rows)


def _closed_form_baseline(result: dict) -> dict:
    """``result`` as a 1.24.0 results file whose rows the closed form priced."""
    return _tagged_baseline(result, "analytical")


# ---------------------------------------------------------------------- #
# device_memory_by_rank as a grid axis
# ---------------------------------------------------------------------- #
class TestBudgetAxis:
    def budget_spec(self, values) -> SweepSpec:
        return SweepSpec(
            name="budget-test",
            model="gpt-tiny",
            parallelism={"pipeline_parallel": 2, "data_parallel": 2},
            base={"num_microbatches": 2, "micro_batch_size": 1},
            grid={"device_memory_by_rank": values},
            allocators=["torch2.3"],
            ranks="all",
        )

    def test_axis_expands_to_labelled_points(self):
        spec = self.budget_spec([None, {"0": 40}, {"0": 40, "1": 96}])
        points = spec.expand()
        assert len(points) == 3
        labels = [point.row_label for point in points]
        assert labels == ["mem=uniform", "mem=0:40", "mem=0:40,1:96"]
        assert points[0].device_memory_by_rank == ()
        assert points[1].device_memory_by_rank == (("0", 40.0),)
        assert points[2].device_memory_by_rank == (("0", 40.0), ("1", 96.0))
        # Distinct budgets must key the result cache differently.
        payloads = [point.cache_payload() for point in points]
        assert len({str(sorted(p.items())) for p in payloads}) == 3
        # ... but budgets never shape traces, so every cell must share one
        # trace fingerprint (one generation, one cache entry for the axis).
        fingerprints = {
            config_fingerprint(point.config, seed=point.seed, scale=point.scale)
            for point in points
        }
        assert len(fingerprints) == 1

    def test_axis_rejects_bad_maps(self):
        with pytest.raises(ValueError, match="not a rank"):
            self.budget_spec([{"zero": 40}])
        with pytest.raises(ValueError, match="positive GiB"):
            self.budget_spec([{"0": -1}])
        with pytest.raises(ValueError, match="map rank labels"):
            self.budget_spec([40])

    def test_axis_rows_report_their_budget(self):
        spec = self.budget_spec([None, {"0": 40}])
        rows = execute_points(spec.expand())
        assert rows[0]["config"] == "mem=uniform"
        assert rows[1]["config"] == "mem=0:40"
        # The capped rank 0 binds at 40 GiB: utilization is only reported
        # under heterogeneous budgets.
        assert "binding_utilization" in rows[1]
        assert "binding_utilization" not in rows[0]
        assert_declared_row(rows[0])
        assert_declared_row(rows[1], heterogeneous=True)

    def test_cached_rows_relabel_for_the_current_point(self, tmp_path):
        """A spec-level budget map and the same map swept as a grid axis share
        one measurement (equal cache payloads, equal fingerprints) but not one
        label -- a warm cache hit must re-label the row for the point asking."""
        axis_spec = self.budget_spec([{"0": 40}])
        level_spec = SweepSpec(
            name="budget-level",
            model="gpt-tiny",
            parallelism={"pipeline_parallel": 2, "data_parallel": 2},
            base={"num_microbatches": 2, "micro_batch_size": 1},
            allocators=["torch2.3"],
            ranks="all",
            device_memory_by_rank={"0": 40},
        )
        assert (
            axis_spec.expand()[0].cache_payload()
            == level_spec.expand()[0].cache_payload()
        )
        first = run_sweep(axis_spec, cache_dir=tmp_path / "cache")
        second = run_sweep(level_spec, cache_dir=tmp_path / "cache")
        assert first.rows[0]["config"] == "mem=0:40"
        assert second.rows[0]["cached"] is True  # the measurement was shared
        assert second.rows[0]["config"] == level_spec.expand()[0].row_label
        assert second.rows[0]["config"] != "mem=0:40"

    def test_axis_coexists_with_other_axes(self):
        spec = self.budget_spec([None, {"0": 40}])
        spec.grid["micro_batch_size"] = [1, 2]
        points = spec.expand()
        assert len(points) == 4
        labels = {point.row_label for point in points}
        assert "mbs=2/mem=0:40" in labels
        # The budget half of the label lives on the point, not the config.
        assert all("mem=" not in point.config.label for point in points)


# ---------------------------------------------------------------------- #
# Result-cache invalidation
# ---------------------------------------------------------------------- #
def test_result_key_invalidates_on_timeline_version(tmp_path, monkeypatch):
    """Cached rows carry simulator-computed timing columns, so a
    TIMELINE_VERSION bump must rotate every result key (the same contract
    TRACEGEN_VERSION has through the trace fingerprint)."""
    from repro.sweep import cache as cache_module

    cache = cache_module.SweepCache(tmp_path)
    payload = {"allocator": "torch2.3"}
    before = cache.result_key("fingerprint", payload)
    monkeypatch.setattr(
        cache_module, "TIMELINE_VERSION", cache_module.TIMELINE_VERSION + 1
    )
    assert cache.result_key("fingerprint", payload) != before


# ---------------------------------------------------------------------- #
# GPU spec single source of truth
# ---------------------------------------------------------------------- #
class TestGpuSpecs:
    def test_device_presets_match_specs(self):
        for name in ("A800-80GB", "H200-141GB", "MI210-64GB"):
            device = device_from_spec(name)
            assert device.name == name
            assert device.capacity == GPU_SPECS[name].memory_gib * GIB

    def test_device_from_spec_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown GPU"):
            device_from_spec("TPU-v9")
        with pytest.raises(ValueError, match="unknown GPU"):
            get_gpu("TPU-v9")

    def test_get_gpu_passes_specs_through(self):
        spec = GPU_SPECS["A800-80GB"]
        assert get_gpu(spec) is spec
