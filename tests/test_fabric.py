"""Properties of the hierarchical network fabric (TIMELINE_VERSION=2).

Three families of guarantees:

* **Degeneracy** -- a single-node or equal-tier topology with
  ``comm_overlap_factor=0`` and zero per-phase allocator overhead reproduces
  the TIMELINE_VERSION=1 durations *exactly* (the values hardcoded below are
  the version-1 golden fixture entries), and the multi-node equal-tier
  topology collapses onto the flat formula bit-for-bit.
* **Monotonicity** -- iteration time is monotone non-increasing in
  ``comm_overlap_factor`` and in ``intra_node_gbytes_per_sec``, while
  ``comm_seconds`` is invariant under overlap (hiding communication must not
  erase it from the accounting).
* **Per-phase overhead** -- on a bubble-free schedule the injected per-phase
  driver costs degenerate to the old additive term; on pipelined schedules
  two allocators with different per-event overheads produce different
  ``iteration_seconds`` on the same config (the acceptance criterion: the
  allocator sits inside the critical path now).
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.gpu.specs import GPU_SPECS, GPUSpec, NodeTopology
from repro.search.bounds import throughput_upper_bound
from repro.search.cluster import ClusterSpec
from repro.sweep.spec import SweepPoint
from repro.timeline.simulator import TimelineSimulator, simulate_timeline
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.training import TrainingConfig

GPU = GPU_SPECS["A800-80GB"]

#: The same 2-node tiered fabric the ``fabric-smoke`` sweep preset prices:
#: 4 ranks per node, NVLink-class intra tier, IB-class inter tier.
TIERED = dataclasses.replace(
    GPU,
    gpus_per_node=4,
    intra_node_gbytes_per_sec=160.0,
    inter_node_gbytes_per_sec=25.0,
)

#: TIMELINE_VERSION=1 golden iteration/comm durations (the recorded fixture
#: values before the fabric landed), keyed by the golden-case name.  The
#: degenerate fabric must reproduce them to float precision -- not "close".
V1_DURATIONS = {
    "gpt-tiny": (0.00013408462011834318, 0.0),
    "gpt-tiny-recompute-vpp": (0.00014898291124260354, 0.0),
    "moe-tiny-comm-free": (0.000976787198781569, 0.0),
    "moe-tiny-comm": (0.0011455219187815689, 0.00011620352),
}


def _dense_config(**changes) -> TrainingConfig:
    config = TrainingConfig(
        model=get_model("gpt-tiny"),
        parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=2),
        micro_batch_size=2,
        num_microbatches=2,
    )
    return config.with_(**changes) if changes else config


def _moe_config(**changes) -> TrainingConfig:
    config = TrainingConfig(
        model=get_model("moe-tiny"),
        parallelism=ParallelismConfig(
            pipeline_parallel=2, data_parallel=4, expert_parallel=4
        ),
        micro_batch_size=1,
        num_microbatches=2,
        moe_imbalance=0.6,
    )
    return config.with_(**changes) if changes else config


def _v1_cases() -> dict[str, dict]:
    dense = _dense_config()
    return {
        "gpt-tiny": {"config": dense, "seed": 0},
        "gpt-tiny-recompute-vpp": {
            "config": dense.with_(
                recompute=True,
                parallelism=ParallelismConfig(
                    pipeline_parallel=2, data_parallel=2, virtual_pipeline_chunks=2
                ),
            ),
            "seed": 1,
        },
        "moe-tiny-comm-free": {"config": _moe_config(), "seed": 0},
        "moe-tiny-comm": {"config": _moe_config(moe_comm_factor=1.0), "seed": 0},
    }


# ---------------------------------------------------------------------- #
# NodeTopology
# ---------------------------------------------------------------------- #
def _num_nodes(topology: NodeTopology) -> int:
    """Distinct nodes the topology places its ``(stage, ep)`` coordinates on."""
    return len({
        topology.node_of(stage, ep)
        for stage in range(topology.pipeline_parallel)
        for ep in range(topology.expert_parallel)
    })


class TestNodeTopology:
    def test_single_node_degenerate(self):
        topo = NodeTopology(pipeline_parallel=2, expert_parallel=4, gpus_per_node=0)
        assert _num_nodes(topo) == 1
        assert topo.node_of(1, 3) == 0
        assert topo.intra_fraction(0, 0) == 1.0
        assert not topo.ep_group_spans_nodes(0)

    def test_two_node_layout_spans_ep_groups(self):
        # Expert-major linearisation: rank index = ep * pp + stage.  With
        # pp=2, ep=4 and 4 slots per node, ep 0-1 land on node 0 and ep 2-3
        # on node 1 for every stage -- EP groups straddle the node boundary.
        topo = NodeTopology(pipeline_parallel=2, expert_parallel=4, gpus_per_node=4)
        assert _num_nodes(topo) == 2
        assert [topo.node_of(0, ep) for ep in range(4)] == [0, 0, 1, 1]
        assert [topo.node_of(1, ep) for ep in range(4)] == [0, 0, 1, 1]
        assert topo.ep_group_spans_nodes(0)
        assert topo.ep_group_spans_nodes(1)
        # Each rank shares its node with exactly half of its EP peers.
        assert topo.intra_fraction(0, 0) == 0.5
        assert topo.intra_fraction(1, 3) == 0.5

    def test_whole_group_on_one_node_stays_intra(self):
        topo = NodeTopology(pipeline_parallel=1, expert_parallel=4, gpus_per_node=8)
        assert _num_nodes(topo) == 1
        assert not topo.ep_group_spans_nodes(0)
        assert topo.intra_fraction(0, 2) == 1.0

    def test_num_nodes_rounds_up(self):
        topo = NodeTopology(pipeline_parallel=3, expert_parallel=2, gpus_per_node=4)
        assert _num_nodes(topo) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeTopology(pipeline_parallel=0, expert_parallel=1)


# ---------------------------------------------------------------------- #
# GPUSpec tier accessors
# ---------------------------------------------------------------------- #
class TestGPUSpecTiers:
    def test_stock_specs_are_flat(self):
        for spec in GPU_SPECS.values():
            assert not spec.is_tiered
            assert spec.intra_tier_gbytes_per_sec == spec.a2a_gbytes_per_sec
            assert spec.inter_tier_gbytes_per_sec == spec.a2a_gbytes_per_sec
            assert spec.fastest_tier_gbytes_per_sec == spec.a2a_gbytes_per_sec

    def test_tiered_spec_accessors(self):
        assert TIERED.is_tiered
        assert TIERED.intra_tier_gbytes_per_sec == 160.0
        assert TIERED.inter_tier_gbytes_per_sec == 25.0
        assert TIERED.fastest_tier_gbytes_per_sec == 160.0

    def test_equal_tiers_are_not_tiered(self):
        equal = dataclasses.replace(
            GPU,
            gpus_per_node=4,
            intra_node_gbytes_per_sec=50.0,
            inter_node_gbytes_per_sec=50.0,
        )
        assert not equal.is_tiered

    def test_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(GPU, intra_node_gbytes_per_sec=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(GPU, gpus_per_node=-1)


# ---------------------------------------------------------------------- #
# Degeneracy: version-1 reproduction to float precision
# ---------------------------------------------------------------------- #
class TestV1Reproduction:
    @pytest.mark.parametrize("name", sorted(V1_DURATIONS))
    def test_flat_default_reproduces_v1_exactly(self, name):
        case = _v1_cases()[name]
        result = TimelineSimulator(case["config"], seed=case["seed"]).run()
        iteration, comm = V1_DURATIONS[name]
        assert result.iteration_seconds == iteration
        assert result.comm_seconds == comm

    @pytest.mark.parametrize("name", sorted(V1_DURATIONS))
    def test_equal_tier_multinode_reproduces_v1_exactly(self, name):
        # Multi-node but every byte moves at the same rate: the hierarchical
        # mix is pointless and the simulator must take the flat (bit-exact)
        # path, even though EP groups span nodes.
        case = _v1_cases()[name]
        equal = dataclasses.replace(
            GPU,
            gpus_per_node=4,
            intra_node_gbytes_per_sec=GPU.a2a_gbytes_per_sec,
            inter_node_gbytes_per_sec=GPU.a2a_gbytes_per_sec,
        )
        result = TimelineSimulator(case["config"], gpu=equal, seed=case["seed"]).run()
        iteration, comm = V1_DURATIONS[name]
        assert result.iteration_seconds == iteration
        assert result.comm_seconds == comm

    def test_tiered_two_node_strictly_changes_comm(self):
        config = _moe_config(moe_comm_factor=1.0)
        flat = TimelineSimulator(config, gpu=GPU, seed=0).run()
        tiered = TimelineSimulator(config, gpu=TIERED, seed=0).run()
        assert tiered.comm_seconds != flat.comm_seconds
        # This fabric's inter tier is slower than the flat rate and the EP
        # groups span nodes, so communication strictly slows down.
        assert tiered.comm_seconds > flat.comm_seconds
        assert tiered.iteration_seconds > flat.iteration_seconds

    def test_tiered_comm_free_is_unaffected(self):
        # Without collectives there is nothing to price on any tier.
        config = _moe_config()
        flat = TimelineSimulator(config, gpu=GPU, seed=0).run()
        tiered = TimelineSimulator(config, gpu=TIERED, seed=0).run()
        assert tiered.iteration_seconds == flat.iteration_seconds
        assert tiered.comm_seconds == flat.comm_seconds == 0.0


# ---------------------------------------------------------------------- #
# Monotonicity
# ---------------------------------------------------------------------- #
class TestMonotonicity:
    def test_iteration_monotone_in_overlap(self):
        config = _moe_config(moe_comm_factor=1.0)
        previous = float("inf")
        for overlap in (0.0, 0.25, 0.5, 0.75, 1.0):
            result = TimelineSimulator(
                config.with_(comm_overlap_factor=overlap), gpu=TIERED, seed=0
            ).run()
            assert result.iteration_seconds <= previous
            previous = result.iteration_seconds

    def test_overlap_zero_is_bit_exact_v1(self):
        config = _moe_config(moe_comm_factor=1.0)
        base = TimelineSimulator(config, gpu=GPU, seed=0).run()
        explicit = TimelineSimulator(
            config.with_(comm_overlap_factor=0.0), gpu=GPU, seed=0
        ).run()
        assert explicit.iteration_seconds == base.iteration_seconds
        assert explicit.digest() == base.digest()

    def test_overlap_does_not_change_comm_seconds(self):
        # Overlap hides communication under compute; the collective still
        # happens and its full duration must stay on the books.
        config = _moe_config(moe_comm_factor=1.0)
        base = TimelineSimulator(config, gpu=TIERED, seed=0).run()
        for overlap in (0.25, 0.5, 1.0):
            result = TimelineSimulator(
                config.with_(comm_overlap_factor=overlap), gpu=TIERED, seed=0
            ).run()
            assert result.comm_seconds == base.comm_seconds

    def test_full_overlap_still_pays_unhidden_remainder(self):
        # overlap=1 hides at most the expert duration of each layer; the
        # iteration can shrink to the comm-free time but never below it.
        config = _moe_config(moe_comm_factor=1.0, comm_overlap_factor=1.0)
        comm_free = TimelineSimulator(_moe_config(), gpu=TIERED, seed=0).run()
        result = TimelineSimulator(config, gpu=TIERED, seed=0).run()
        assert result.iteration_seconds >= comm_free.iteration_seconds

    def test_iteration_monotone_in_intra_bandwidth(self):
        config = _moe_config(moe_comm_factor=1.0)
        previous = float("inf")
        for intra in (25.0, 50.0, 100.0, 200.0, 400.0):
            gpu = dataclasses.replace(
                GPU,
                gpus_per_node=4,
                intra_node_gbytes_per_sec=intra,
                inter_node_gbytes_per_sec=25.0,
            )
            result = TimelineSimulator(config, gpu=gpu, seed=0).run()
            assert result.iteration_seconds <= previous
            previous = result.iteration_seconds


# ---------------------------------------------------------------------- #
# Per-phase allocator overhead
# ---------------------------------------------------------------------- #
class TestPerPhaseOverhead:
    def test_bubble_free_schedule_degenerates_to_additive(self):
        # pp=1, no virtual chunks: the schedule has no bubbles, so spreading
        # the overhead across phases must sum back to the old additive term
        # exactly.
        config = TrainingConfig(
            model=get_model("gpt-tiny"),
            parallelism=ParallelismConfig(data_parallel=2),
            micro_batch_size=2,
            num_microbatches=8,
        )
        overhead = 0.0123
        base = TimelineSimulator(config, gpu=GPU, seed=0).run()
        injected = TimelineSimulator(
            config, gpu=GPU, seed=0, allocator_overhead_seconds=overhead
        ).run()
        assert injected.iteration_seconds == pytest.approx(
            base.iteration_seconds + overhead, abs=1e-15
        )
        assert injected.allocator_overhead_seconds == overhead

    def test_zero_overhead_is_bit_exact(self):
        config = _dense_config()
        base = TimelineSimulator(config, gpu=GPU, seed=0).run()
        explicit = TimelineSimulator(
            config, gpu=GPU, seed=0, allocator_overhead_seconds=0.0
        ).run()
        assert explicit.digest() == base.digest()

    def test_pipelined_schedule_amplifies_overhead(self):
        # With pipeline stages the per-phase costs ride through the
        # dependency structure: the iteration grows by *more* than the raw
        # additive term (stalls downstream of slower phases stretch too).
        config = _dense_config()
        overhead = 0.001
        base = TimelineSimulator(config, gpu=GPU, seed=0).run()
        injected = TimelineSimulator(
            config, gpu=GPU, seed=0, allocator_overhead_seconds=overhead
        ).run()
        assert injected.iteration_seconds > base.iteration_seconds + overhead

    def test_different_overheads_move_iteration(self):
        config = _dense_config()
        small = TimelineSimulator(
            config, gpu=GPU, seed=0, allocator_overhead_seconds=0.001
        ).run()
        large = TimelineSimulator(
            config, gpu=GPU, seed=0, allocator_overhead_seconds=0.002
        ).run()
        assert small.iteration_seconds < large.iteration_seconds

    def test_memo_keys_on_overhead(self):
        config = _dense_config()
        a = simulate_timeline(config, gpu=GPU, allocator_overhead_seconds=0.001)
        b = simulate_timeline(config, gpu=GPU, allocator_overhead_seconds=0.002)
        assert a.iteration_seconds != b.iteration_seconds

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            TimelineSimulator(
                _dense_config(), gpu=GPU, seed=0, allocator_overhead_seconds=-1.0
            )

    def test_allocator_choice_moves_iteration_end_to_end(self):
        # The acceptance criterion: two allocators with different per-event
        # overheads produce different iteration_seconds on the same config,
        # through the ordinary run_job path.
        from tests.conftest import run_job

        config = _dense_config()
        runs = {
            name: run_job(config, name, scale=0.5)
            for name in ("torch2.0", "stalloc")
        }
        iterations = {
            name: job.timeline.iteration_seconds for name, job in runs.items()
        }
        overheads = {
            name: job.timeline.allocator_overhead_seconds
            for name, job in runs.items()
        }
        assert overheads["torch2.0"] != overheads["stalloc"]
        assert iterations["torch2.0"] != iterations["stalloc"]
        # The job's throughput comes straight from the injected simulation --
        # the overhead must not be added a second time downstream.
        for name, job in runs.items():
            timeline = job.timeline
            assert timeline.tflops_per_gpu == (
                timeline.model_flops_per_iteration / timeline.num_gpus / iterations[name] / 1e12
            )
            assert timeline.tokens_per_second == timeline.tokens_per_iteration / iterations[name]


# ---------------------------------------------------------------------- #
# Bounds stay admissible on tiered fabrics
# ---------------------------------------------------------------------- #
class TestBoundAdmissibility:
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gpu", [GPU, TIERED], ids=["flat", "tiered"])
    def test_upper_bound_dominates_timeline_throughput(self, gpu, overlap):
        config = _moe_config(moe_comm_factor=1.0, comm_overlap_factor=overlap)
        result = TimelineSimulator(config, gpu=gpu, seed=0).run()
        measured = config.tokens_per_iteration / result.iteration_seconds
        bound = throughput_upper_bound(config, gpu)
        assert bound >= measured

    def test_bound_accepts_only_the_timeline(self):
        # The keyword survives for one caller; anything but "timeline" is an
        # error, raised before the unknown-device fail-open could hide it.
        config = _moe_config(moe_comm_factor=1.0)
        assert throughput_upper_bound(config, TIERED, timing="timeline") == (
            throughput_upper_bound(config, TIERED)
        )
        assert throughput_upper_bound(config, "NOT-A-GPU") == float("inf")
        with pytest.raises(ValueError, match="timing"):
            throughput_upper_bound(config, "NOT-A-GPU", timing="analytical")

    def test_bound_prices_fastest_tier(self):
        # A faster intra tier raises the bound even while the slow inter tier
        # dominates the measured time -- that is what keeps it admissible.
        config = _moe_config(moe_comm_factor=1.0)
        slow = dataclasses.replace(
            GPU, gpus_per_node=4,
            intra_node_gbytes_per_sec=50.0, inter_node_gbytes_per_sec=25.0,
        )
        fast = dataclasses.replace(
            GPU, gpus_per_node=4,
            intra_node_gbytes_per_sec=400.0, inter_node_gbytes_per_sec=25.0,
        )
        assert throughput_upper_bound(config, fast) >= throughput_upper_bound(config, slow)


# ---------------------------------------------------------------------- #
# ClusterSpec node form + fabric plumbing
# ---------------------------------------------------------------------- #
class TestClusterFabric:
    def test_parse_node_form(self):
        cluster = ClusterSpec.parse("2x8xA800-80GB@40")
        assert cluster.num_nodes == 2
        assert cluster.num_devices == 16
        assert cluster.gpus_per_node == 8
        assert cluster.device_capacity_gib == 40.0
        assert cluster.device_name == "A800-80GB"
        assert cluster.fabric == {"gpus_per_node": 8}

    def test_parse_flat_form_unchanged(self):
        cluster = ClusterSpec.parse("8xA800-80GB")
        assert cluster.num_nodes == 1
        assert cluster.num_devices == 8
        assert cluster.gpus_per_node == 0
        assert cluster.fabric == {}
        point = SweepPoint.build(_dense_config(), "torch2.3", fabric=cluster.fabric)
        assert point.gpu == GPU_SPECS[cluster.device_name]

    def test_malformed_capacity_gets_documented_message(self):
        with pytest.raises(ValueError, match="cannot parse cluster"):
            ClusterSpec.parse("8xA800-80GB@1.2.3")

    def test_devices_must_divide_into_nodes(self):
        with pytest.raises(ValueError, match="divide evenly"):
            ClusterSpec(device_name="A800-80GB", num_devices=9, num_nodes=2)

    def test_dict_form_with_bandwidths_roundtrips(self):
        cluster = ClusterSpec.from_dict(
            {
                "devices": "2x4xA800-80GB",
                "intra_node_gbytes_per_sec": 160,
                "inter_node_gbytes_per_sec": 25,
            }
        )
        assert cluster.fabric == {
            "gpus_per_node": 4,
            "intra_node_gbytes_per_sec": 160,
            "inter_node_gbytes_per_sec": 25,
        }
        point = SweepPoint.build(
            _dense_config(), "torch2.3", device_name=cluster.device_name, fabric=cluster.fabric
        )
        assert point.gpu.is_tiered and point.gpu.gpus_per_node == 4

    def test_search_candidates_carry_cluster_fabric(self):
        from repro.search.space import SearchSpec

        spec = SearchSpec(
            name="fabric-probe",
            model="moe-tiny",
            cluster=ClusterSpec.from_dict(
                {
                    "devices": "2x4xA800-80GB",
                    "intra_node_gbytes_per_sec": 160,
                    "inter_node_gbytes_per_sec": 25,
                }
            ),
            global_batch=8,
            allocators=["torch2.3"],
        )
        points = spec.enumerate_candidates()
        assert points
        for point in points:
            assert dict(point.fabric) == spec.cluster.fabric


# ---------------------------------------------------------------------- #
# A point's device is resolved when the point is built
# ---------------------------------------------------------------------- #
class TestPointDevice:
    @pytest.fixture
    def no_traces(self, monkeypatch):
        """Fail the test if anything fetches or generates a trace."""
        from repro.simulator.execution import ExecutionContext

        def fetch(*args, **kwargs):
            raise AssertionError("a trace was fetched for an invalid point")

        monkeypatch.setattr(ExecutionContext, "trace", fetch)

    def test_unknown_device_fails_at_build(self, no_traces):
        from tests.conftest import run_job

        for build in (
            lambda: SweepPoint.build(_dense_config(), "torch2.3", device_name="B200-999GB"),
            lambda: run_job(_dense_config(), "torch2.3", device_name="B200-999GB"),
        ):
            with pytest.raises(ValueError, match="B200-999GB") as excinfo:
                build()
            message = str(excinfo.value)
            assert "\n" not in message
            assert all(name in message for name in GPU_SPECS)

    @pytest.mark.parametrize(
        "fabric, named",
        [
            ({"nvlink_gbytes_per_sec": 300}, "'nvlink_gbytes_per_sec'"),
            ({"intra_node_gbytes_per_sec": "fast"}, "fabric: intra_node_gbytes_per_sec"),
            ({"gpus_per_node": -4}, "fabric: gpus_per_node"),
        ],
    )
    def test_malformed_fabric_fails_at_build(self, no_traces, fabric, named):
        from tests.conftest import run_job

        with pytest.raises(ValueError) as excinfo:
            SweepPoint.build(_dense_config(), "torch2.3", fabric=fabric)
        assert named in str(excinfo.value) and "\n" not in str(excinfo.value)
        with pytest.raises(ValueError, match=re.escape(named)):
            run_job(_dense_config(), "torch2.3", fabric=fabric)

    def test_gpu_applies_the_fabric(self):
        fabric = {"gpus_per_node": 2, "intra_node_gbytes_per_sec": 160}
        point = SweepPoint.build(_dense_config(), "torch2.3", fabric=fabric)
        assert point.gpu == dataclasses.replace(GPU_SPECS["A800-80GB"], **fabric)
        assert SweepPoint.build(_dense_config(), "torch2.3").gpu == GPU_SPECS["A800-80GB"]

    def test_every_returned_job_is_priced(self):
        from tests.conftest import run_job

        job = run_job(_dense_config(), "torch2.3", device_name="H200-141GB", scale=0.5)
        assert job.timeline.gpu_name == "H200-141GB"
        assert job.timeline.tflops_per_gpu > 0


# ---------------------------------------------------------------------- #
# Sweep fabric axis
# ---------------------------------------------------------------------- #
class TestSweepFabricAxis:
    def test_fabric_smoke_preset_expands(self):
        from repro.sweep.spec import load_spec

        spec = load_spec("fabric-smoke")
        points = spec.expand()
        assert len(points) == 4
        labels = {point.fabric_label for point in points}
        assert "fabric=flat" in labels
        assert any(label.startswith("fabric=gpn4") for label in labels)
        flat = [point for point in points if not point.fabric]
        tiered = [point for point in points if point.fabric]
        assert len(flat) == len(tiered) == 2
        for point in tiered:
            assert dict(point.fabric) == {
                "gpus_per_node": 4,
                "intra_node_gbytes_per_sec": 160,
                "inter_node_gbytes_per_sec": 25,
            }
        # The fabric is part of the cache identity and the row label, but
        # never part of the config label (it does not shape traces).
        for point in points:
            assert point.cache_payload()["fabric"] == dict(point.fabric)
            assert "fabric" not in point.config.label
            assert point.fabric_label in point.row_label

    def test_unknown_fabric_field_rejected(self):
        from repro.sweep.spec import SweepSpec

        with pytest.raises(ValueError, match="fabric"):
            SweepSpec(
                name="bad",
                allocators=["torch2.3"],
                model="moe-tiny",
                grid={"fabric": [{"nvlink": 300}]},
            )

    def test_overlap_axis_gets_short_label(self):
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            name="ovl",
            allocators=["torch2.3"],
            model="moe-tiny",
            parallelism={"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
            base={"num_microbatches": 2, "micro_batch_size": 1},
            grid={"comm_overlap_factor": [0.0, 0.5]},
        )
        labels = [point.config.label for point in spec.expand()]
        assert labels == ["ovl=0.0", "ovl=0.5"]

    def test_fabric_sweep_moves_comm_seconds(self):
        # End-to-end: the engine threads the fabric into run_job, so tiered
        # rows must report more comm time and overlap rows less iteration.
        from repro.sweep.engine import run_sweep
        from repro.sweep.spec import load_spec

        spec = load_spec("fabric-smoke")
        spec.scale = 0.5
        result = run_sweep(spec)
        rows = {
            (row["config"], row["allocator"]): row for row in result.rows
        }
        assert len(rows) == 4

        def pick(fabric: str, overlap: float) -> dict:
            for (config, _), row in rows.items():
                if fabric in config and f"ovl={overlap}" in config:
                    return row
            raise AssertionError(f"no row for {fabric} ovl={overlap}")

        flat = pick("fabric=flat", 0.0)
        tiered = pick("fabric=gpn4", 0.0)
        assert tiered["comm_seconds"] > flat["comm_seconds"]
        assert tiered["iteration_seconds"] > flat["iteration_seconds"]
        overlapped = pick("fabric=gpn4", 0.5)
        assert overlapped["iteration_seconds"] < tiered["iteration_seconds"]
        assert overlapped["comm_seconds"] == tiered["comm_seconds"]


# ---------------------------------------------------------------------- #
# Accounting precision (the bugfix sweep)
# ---------------------------------------------------------------------- #
class TestAccountingPrecision:
    def test_fmt_shows_small_floats(self):
        from repro.sweep.results import _fmt

        assert _fmt(5.4321e-5) == "5.432e-05"
        assert _fmt(-5.4321e-5) == "-5.432e-05"
        assert _fmt(0.0) == "0.000"
        assert _fmt(1.2345) == "1.234"


# ---------------------------------------------------------------------- #
# Export tier annotation
# ---------------------------------------------------------------------- #
class TestExportTierAnnotation:
    def _trace(self, gpu: GPUSpec) -> dict:
        from repro.timeline.export import chrome_trace_dict

        config = _moe_config(moe_comm_factor=1.0)
        result = TimelineSimulator(config, gpu=gpu, seed=0).run()
        return chrome_trace_dict(result)

    def test_flat_fabric_marks_comm_intra(self):
        trace = self._trace(GPU)
        assert trace["otherData"]["gpus_per_node"] == 0
        comm = [
            event
            for event in trace["traceEvents"]
            if event.get("name") in ("a2a_dispatch", "a2a_combine")
        ]
        assert comm
        assert all(event["args"]["tier"] == "intra" for event in comm)

    def test_spanning_fabric_marks_comm_mixed(self):
        trace = self._trace(TIERED)
        assert trace["otherData"]["gpus_per_node"] == 4
        comm = [
            event
            for event in trace["traceEvents"]
            if event.get("name") in ("a2a_dispatch", "a2a_combine")
        ]
        assert comm
        assert all(event["args"]["tier"] == "mixed" for event in comm)

    def test_compute_events_not_annotated(self):
        trace = self._trace(TIERED)
        for event in trace["traceEvents"]:
            if event.get("name") in ("forward", "backward"):
                assert "tier" not in event["args"]
