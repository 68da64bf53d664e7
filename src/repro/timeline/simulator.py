"""Discrete-event iteration-time simulator with routed-load all-to-all costs.

A closed-form step-time model collapses an iteration into one expression: a
pipeline-bubble *fraction*, a tensor-parallel *multiplier*, and no notion of
which rank binds.  This module instead *executes* the iteration, and is the
one model every throughput number in the package comes from: every ``(pp, ep)`` rank coordinate walks its
real 1F1B/interleaved schedule (:func:`repro.workloads.schedule.build_schedule`
-- the exact phase order the allocation traces are generated from) and emits
timestamped compute and communication events.  Three things then *emerge*
instead of being assumed:

* **pipeline bubbles** -- a stage's forward waits for the upstream stage's
  forward (and its backward for the downstream backward), so warm-up/drain
  idle time falls out of the send/recv dependency graph;
* **all-to-all stalls** -- each MoE layer execution runs a dispatch (forward)
  and combine (backward) collective across the expert-parallel group.  The
  collective is *synchronising*: it starts when the last EP peer arrives and
  its duration scales with the **maximum** routed bytes across the group, so
  router imbalance turns directly into straggler time.  The routed loads come
  from the same process-wide memoised :class:`~repro.workloads.moe.ExpertRouter`
  draws that size the COMM_BUFFER transients in the allocation trace -- one
  gating decision drives both the memory and the timing model;
* **straggler ranks** -- each EP rank's expert FFN time scales with its local
  routed load, so the binding rank of an imbalanced job is the coordinate
  whose experts attract the most tokens.

Compute durations are calibrated against the closed-form cost inputs of
:class:`~repro.simulator.throughput.ThroughputModel` (the forward/backward of
one (micro-batch, chunk) unit gets its share of ``model_flops / num_gpus``,
with the recomputation and tensor-parallel multipliers), so with a balanced
router and no communication the simulated iteration converges to the
closed-form step time -- the differential property the test suite pins
against a reference kept in the tests.  INIT and OPTIMIZER phases are
zero-duration markers.

Three cluster-shaped refinements (TIMELINE_VERSION 2):

* **tiered fabric** -- when the :class:`~repro.gpu.specs.GPUSpec` carries
  distinct intra-/inter-node bandwidths and a node size, each all-to-all
  participant's duration prices its routed bytes at its *tier mix* (the
  share of EP peers on its node moves at the fast tier, the rest at the slow
  tier, per :class:`~repro.gpu.specs.NodeTopology`); the synchronising
  collective still completes with its slowest participant.  A single-node or
  equal-tier spec takes the flat single-tier path, bit-identical to the
  version-1 simulator;
* **communication/compute overlap** -- ``TrainingConfig.comm_overlap_factor``
  hides up to that fraction of each collective under the expert compute that
  consumes it: the expert FFN starts ``min(factor * a2a, expert)`` seconds
  before the collective retires.  The a2a event keeps its full duration (so
  ``comm_seconds`` and stall accounting stay honest); only the critical path
  shortens;
* **per-phase allocator overhead** -- ``allocator_overhead_seconds`` (the
  replay's measured per-iteration driver-call cost) is split evenly over the
  ``2 * num_microbatches * chunks`` forward/backward phase units and added to
  each phase's duration *inside* the schedule, so allocator choice moves
  ``iteration_seconds`` through the dependency structure (a slower allocator
  deepens pipeline bubbles downstream) instead of shifting a constant.  With
  no bubbles (pp == 1, dense) the injection degenerates to the old additive
  ``iteration + overhead`` exactly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

from repro.core.events import PhaseKind
from repro.digest import sha256
from repro.gpu.specs import GPUSpec, NodeTopology, get_gpu
from repro.obs.tracer import span as _obs_span
from repro.simulator.throughput import ThroughputModel
from repro.version import TIMELINE_VERSION
from repro.workloads.memory_model import ACT_BYTES
from repro.workloads.moe import ExpertRouter
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.schedule import PhaseSpec, build_schedule
from repro.workloads.training import TrainingConfig

#: Event kinds in code order (the ``kind`` column of the record buffers).
KIND_NAMES = (
    "init",
    "optimizer",
    "forward",
    "backward",
    "expert_forward",
    "expert_backward",
    "a2a_dispatch",
    "a2a_combine",
    "stall",
    "decode",
)
K_INIT = 0
K_OPTIMIZER = 1
K_FORWARD = 2
K_BACKWARD = 3
K_EXPERT_FORWARD = 4
K_EXPERT_BACKWARD = 5
K_A2A_DISPATCH = 6
K_A2A_COMBINE = 7
K_STALL = 8
K_DECODE = 9


@dataclass(frozen=True)
class TimelineEvent:
    """One timestamped activity of one ``(pp, ep)`` rank coordinate.

    ``kind`` is one of:

    * ``init`` / ``optimizer`` -- zero-duration phase markers;
    * ``forward`` / ``backward`` -- dense compute (per layer for MoE phases,
      per (micro-batch, chunk) unit for dense models);
    * ``expert_forward`` / ``expert_backward`` -- the routed expert FFN work,
      whose duration scales with this rank's local token load;
    * ``a2a_dispatch`` / ``a2a_combine`` -- the synchronising all-to-all
      collective of one layer execution (duration from the max routed bytes
      across the EP group);
    * ``stall`` -- time spent waiting: for an upstream/downstream pipeline
      stage, or for slower EP peers to reach a collective.
    """

    rank: tuple
    kind: str
    start: float
    duration: float
    microbatch: int = -1
    chunk: int = 0
    #: Model-global layer id for per-layer events (-1 for phase-level ones);
    #: matches the layer ids the trace generator keys router draws on.
    layer: int = -1


class RankTimeline:
    """Event stream and time accounting of one simulated rank coordinate.

    The simulator emits events as plain ``(kind_code, start, duration,
    microbatch, chunk, layer)`` records; :class:`TimelineEvent` objects are
    materialized lazily, only when a consumer actually asks for them.
    """

    __slots__ = (
        "rank", "compute_seconds", "comm_seconds", "stall_seconds",
        "decode_seconds", "finish_seconds", "_events", "_records",
    )

    def __init__(
        self,
        rank: tuple,
        records: list[tuple],
        *,
        compute_seconds: float = 0.0,
        comm_seconds: float = 0.0,
        stall_seconds: float = 0.0,
        decode_seconds: float = 0.0,
        finish_seconds: float = 0.0,
    ):
        self.rank = rank
        self.compute_seconds = compute_seconds
        self.comm_seconds = comm_seconds
        self.stall_seconds = stall_seconds
        #: Autoregressive decode time (a subset of :attr:`compute_seconds`).
        self.decode_seconds = decode_seconds
        self.finish_seconds = finish_seconds
        self._records = records
        self._events: list[TimelineEvent] | None = None

    @property
    def num_events(self) -> int:
        return len(self._records)

    def iter_records(self):
        """Yield ``(kind_name, start, duration, microbatch, chunk, layer)``."""
        names = KIND_NAMES
        for kind, start, duration, microbatch, chunk, layer in self._records:
            yield names[kind], start, duration, microbatch, chunk, layer

    @property
    def events(self) -> list[TimelineEvent]:
        """Object view of the event stream (materialized lazily, memoised)."""
        if self._events is None:
            self._events = [TimelineEvent(self.rank, *record) for record in self.iter_records()]
        return self._events


@dataclass
class TimelineResult:
    """The simulated iteration: per-rank event streams plus derived metrics."""

    gpu_name: str
    description: str
    ranks: list[RankTimeline]
    iteration_seconds: float
    model_flops_per_iteration: float
    num_gpus: int
    tokens_per_iteration: int
    peak_tflops: float
    #: Node size of the simulated fabric (0 = single node); lets consumers
    #: (Chrome-trace export) rebuild the NodeTopology for tier annotations.
    gpus_per_node: int = 0
    #: Allocator overhead injected into the phase durations (0 when the
    #: simulation ran overhead-free); already part of
    #: :attr:`iteration_seconds`, recorded so downstream accounting never
    #: charges it twice.
    allocator_overhead_seconds: float = 0.0
    timeline_version: int = TIMELINE_VERSION

    @property
    def num_events(self) -> int:
        return sum(rank.num_events for rank in self.ranks)

    @property
    def compute_seconds(self) -> float:
        """Busy (compute) time of the busiest rank."""
        return max(rank.compute_seconds for rank in self.ranks)

    @property
    def comm_seconds(self) -> float:
        """All-to-all time of the most communication-bound rank."""
        return max(rank.comm_seconds for rank in self.ranks)

    @property
    def stall_seconds(self) -> float:
        """Explicit wait time (pipeline + straggler) of the most stalled rank."""
        return max(rank.stall_seconds for rank in self.ranks)

    @property
    def decode_seconds(self) -> float:
        """Autoregressive decode time of the most decode-bound rank.

        A subset of each rank's compute time; 0.0 for training and inference
        simulations, whose event streams contain no decode steps.
        """
        return max(rank.decode_seconds for rank in self.ranks)

    @property
    def bubble_fraction(self) -> float:
        """Fraction of the iteration the busiest rank is *not* computing.

        For a dense balanced pipeline this reduces to the classical
        ``(p - 1) / (chunks * m + p - 1)`` bubble fraction; with all-to-all
        collectives it additionally counts communication and straggler time,
        i.e. everything that keeps the binding rank's SMs idle.
        """
        if self.iteration_seconds <= 0:
            return 0.0
        return max(0.0, 1.0 - self.compute_seconds / self.iteration_seconds)

    @property
    def tflops_per_gpu(self) -> float:
        """Model-FLOPs throughput per GPU (the number frameworks report).

        Charges the allocator overhead the simulation injected into its
        phases (see :attr:`allocator_overhead_seconds`), as every number here.
        """
        if self.iteration_seconds <= 0:
            return 0.0
        return self.model_flops_per_iteration / self.num_gpus / self.iteration_seconds / 1e12

    @property
    def tokens_per_second(self) -> float:
        """Training tokens consumed per second across the whole job."""
        if self.iteration_seconds <= 0:
            return 0.0
        return self.tokens_per_iteration / self.iteration_seconds

    @property
    def mfu(self) -> float:
        """Model-FLOPs utilisation: achieved TFLOPS over the device peak (0 without one)."""
        if self.peak_tflops <= 0:
            return 0.0
        return self.tflops_per_gpu / self.peak_tflops

    @property
    def binding_rank(self) -> tuple:
        """The coordinate that finishes last (ties break to the lowest coord)."""
        return min(
            (rank for rank in self.ranks),
            key=lambda r: (-r.finish_seconds, r.rank),
        ).rank

    # ------------------------------------------------------------------ #
    # Canonical serialization (golden-fixture digests)
    # ------------------------------------------------------------------ #
    def iter_jsonl(self):
        """Canonical JSON-lines rendering of the simulation (sorted keys).

        Two results serialize identically exactly when their event streams
        are equal, which is what :meth:`digest` and the golden timeline
        fixtures rely on.  Floats serialize through ``repr`` (shortest exact
        form), so equality is bit-exact, not approximate.
        """
        header = {
            "timeline_version": self.timeline_version,
            "gpu": self.gpu_name,
            "description": self.description,
            "num_gpus": self.num_gpus,
            "gpus_per_node": self.gpus_per_node,
            "iteration_seconds": self.iteration_seconds,
        }
        yield json.dumps(header, sort_keys=True, separators=(",", ":"))
        for rank in self.ranks:
            coord = list(rank.rank)
            for kind, start, duration, microbatch, chunk, layer in rank.iter_records():
                yield json.dumps(
                    {
                        "rank": coord,
                        "kind": kind,
                        "start": start,
                        "duration": duration,
                        "mb": microbatch,
                        "chunk": chunk,
                        "layer": layer,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )

    def digest(self) -> str:
        """SHA-256 over the canonical serialization (content address)."""
        hasher = sha256()
        for line in self.iter_jsonl():
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()

    def as_dict(self) -> dict:
        return {
            "gpu": self.gpu_name,
            "description": self.description,
            "iteration_seconds": self.iteration_seconds,
            "comm_seconds": self.comm_seconds,
            "stall_seconds": self.stall_seconds,
            "decode_seconds": self.decode_seconds,
            "bubble_fraction": self.bubble_fraction,
            "mfu": self.mfu,
            "num_events": self.num_events,
            "binding_rank": list(self.binding_rank),
            "timeline_version": self.timeline_version,
        }


class TimelineSimulator:
    """Simulates one training iteration of every ``(pp, ep)`` rank coordinate.

    Each ``(pp, ep)`` coordinate is one *lane* with its own clock.
    Expert-parallel peers of one pipeline stage execute the identical
    schedule (only their routed loads differ), so :meth:`run` makes one pass
    over every stage's phases in dataflow order (:func:`_phase_order`), and
    each phase advances the ``ep`` lanes of its stage; the synchronising
    collectives of MoE layers pull those lanes back into lockstep.
    Cross-stage dependencies (activation sends between consecutive layer
    blocks, gradient sends on the way back) gate when a phase may start: a
    lane stalls until the phase it depends on has ended on the same EP lane
    of the producing stage.  The dataflow order depends only on the schedule
    geometry, never on durations, so one pass in that order is exactly a
    discrete-event execution of the schedule.

    One modelling note on interleaved (virtual-pipeline) schedules: the
    memory-oriented schedule in :mod:`repro.workloads.schedule` drains
    backward units in FIFO order, while true dataflow retires them in reverse
    block order.  The timeline therefore models backward dependencies within
    a chunk's pipeline chain (stage ``r`` waits for stage ``r + 1``) and cuts
    the last-stage wrap edge between chunks -- keeping the simulation
    deadlock-free for every schedule the generator can produce while still
    letting warm-up/drain bubbles emerge from the chains that exist.
    """

    def __init__(
        self,
        config: TrainingConfig,
        *,
        gpu: GPUSpec | str = "A800-80GB",
        seed: int = 0,
        scale: float = 1.0,
        allocator_overhead_seconds: float = 0.0,
    ):
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        if not 0.0 <= allocator_overhead_seconds < math.inf:
            raise ValueError(
                "allocator_overhead_seconds must be >= 0, "
                f"got {allocator_overhead_seconds}"
            )
        self.config = config
        self.gpu = get_gpu(gpu)
        self.seed = seed
        self.scale = scale
        self.allocator_overhead_seconds = allocator_overhead_seconds
        parallelism = config.parallelism
        model = config.model
        self.pp = parallelism.pipeline_parallel
        self.ep = parallelism.expert_parallel if model.is_moe else 1
        self.chunks = parallelism.virtual_pipeline_chunks
        self.num_microbatches = config.num_microbatches
        if model.is_moe and self.ep > 1 and model.num_experts % self.ep:
            raise ValueError(
                f"num_experts ({model.num_experts}) must be divisible by "
                f"expert_parallel ({self.ep}) so the expert-parallel slices "
                f"cover every expert exactly once"
            )
        full_layers = parallelism.layers_per_chunk(model.num_layers)
        #: Simulated layers per chunk, matching TraceGenerator.layers_per_chunk
        #: so router draws key on the same model-global layer ids the
        #: allocation trace uses.
        self.layers = max(1, round(full_layers * scale))
        self.tokens = config.micro_batch_size * config.sequence_length

        # -------------------------------------------------------------- #
        # Durations, calibrated against the closed-form FLOPs accounting
        # -------------------------------------------------------------- #
        costs = ThroughputModel()
        #: Workload-executed model FLOPs: the full train-step accounting for
        #: training (fraction 1.0 -- multiplying is a bit-exact no-op), its
        #: forward third for inference/generation.
        self.model_flops = costs.model_flops_per_iteration(
            config
        ) * costs.workload_flops_fraction(config)
        per_gpu_flops = self.model_flops / parallelism.num_gpus
        seconds_per_flop = (
            costs.communication_multiplier(config) / self.gpu.achievable_flops
        )
        unit_flops = per_gpu_flops / (self.num_microbatches * self.chunks)
        #: Forward / backward seconds of one (micro-batch, chunk) unit.  The
        #: classical 1:2 forward:backward split, plus one extra forward in
        #: the backward under recomputation -- summed over all units this
        #: reproduces the closed-form compute_multiplier exactly.  Forward-only
        #: workloads spend the whole (already workload-scaled) unit in the
        #: forward and never schedule a backward.
        if config.is_training:
            self.forward_unit_seconds = unit_flops / 3.0 * seconds_per_flop
            self.backward_unit_seconds = unit_flops * 2.0 / 3.0 * seconds_per_flop
            if config.recompute:
                self.backward_unit_seconds += unit_flops / 3.0 * seconds_per_flop
        else:
            self.forward_unit_seconds = unit_flops * seconds_per_flop
            self.backward_unit_seconds = 0.0

        #: Allocator driver-call cost injected into every compute phase unit:
        #: the replay-measured per-iteration overhead split evenly over the
        #: phase units one rank executes -- ``2 * m * chunks``
        #: forward/backward units for training, ``(1 + decode_steps) * m *
        #: chunks`` forward/decode units for the forward-only workloads.
        #: Summed back over a bubble-free schedule this reproduces the old
        #: additive ``iteration + overhead`` exactly (adding 0.0 is a
        #: bit-exact no-op, so an overhead-free simulation stays
        #: byte-identical).
        if config.is_training:
            phase_units = 2.0 * self.num_microbatches * self.chunks
        else:
            phase_units = (1.0 + config.decode_steps) * self.num_microbatches * self.chunks
        self.unit_overhead_seconds = allocator_overhead_seconds / phase_units
        self.dense_forward_seconds = self.forward_unit_seconds + self.unit_overhead_seconds
        self.dense_backward_seconds = (
            self.backward_unit_seconds + self.unit_overhead_seconds
        )

        #: Decode-step durations by step ordinal (index ``s - 1`` for step
        #: ``s``): each step computes one token per sequence -- a
        #: ``1 / sequence_length`` share of the prefill unit -- and re-reads
        #: the whole cached context through the attention kernels, priced at
        #: the device's HBM bandwidth.  The KV sizing mirrors
        #: ``MemoryModel.kv_bytes_per_token`` (2 * hidden * ACT_BYTES / tp)
        #: so the timing and memory models grow together.
        if config.workload_kind == "generation" and config.decode_steps > 0:
            per_token_compute = self.forward_unit_seconds / config.sequence_length
            kv_per_token = (
                2.0 * model.hidden_size * ACT_BYTES
                / parallelism.tensor_parallel
                * config.micro_batch_size
            )
            hbm_bytes_per_sec = self.gpu.hbm_gbytes_per_sec * 1e9
            self.decode_unit_durations = tuple(
                per_token_compute
                + self.layers * kv_per_token * config.context_tokens_at(step)
                / hbm_bytes_per_sec
                + self.unit_overhead_seconds
                for step in range(1, config.decode_steps + 1)
            )
        else:
            self.decode_unit_durations = ()

        # -------------------------------------------------------------- #
        # Fabric: node topology and per-(stage, ep) fast-tier fractions
        # -------------------------------------------------------------- #
        #: Whether the hierarchical pricing path is active.  Single-node or
        #: equal-tier specs use the flat formula -- bit-identical to the
        #: single-tier simulator -- at the effective fast-tier rate (which
        #: falls back to the stock ``a2a_gbytes_per_sec``).
        self._tiered = self.gpu.is_tiered
        self._flat_rate = self.gpu.intra_tier_gbytes_per_sec
        #: Per-(stage, ep) fast-tier fractions, read only by a routed layer's
        #: all-to-all: a dense model never builds the topology.
        if self._tiered and model.is_moe:
            topology = NodeTopology(
                pipeline_parallel=self.pp,
                expert_parallel=self.ep,
                gpus_per_node=self.gpu.gpus_per_node,
            )
            self._intra_fracs = [
                [topology.intra_fraction(stage, ep) for ep in range(self.ep)]
                for stage in range(self.pp)
            ]
        else:
            self._intra_fracs = None

        #: Fraction of one layer's compute that lives in the routed experts
        #: (scales with each EP rank's local load); 0 for dense models.
        self.expert_share = self._expert_flops_share()

        if model.is_moe:
            self.num_local_experts = max(1, model.num_experts // self.ep)
            self._router = ExpertRouter(
                num_experts=model.num_experts,
                num_local_experts=self.num_local_experts,
                top_k=model.moe_top_k,
                seed=seed,
                imbalance=config.moe_imbalance,
                ep_rank=0,
            )
        else:
            self.num_local_experts = 0
            self._router = None
        #: Per-simulation memo of (loads, balanced, a2a_duration) keyed by
        #: (global_layer, microbatch); see :meth:`_layer_exec`.
        self._layer_exec_cache: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------ #
    # Duration helpers
    # ------------------------------------------------------------------ #
    def _expert_flops_share(self) -> float:
        """Share of one layer's per-token FLOPs spent in routed experts."""
        model = self.config.model
        if not model.is_moe:
            return 0.0
        expert = 6.0 * model.moe_top_k * model.expert_params()
        dense = 6.0 * (
            model.attention_params()
            + 2 * model.hidden_size
            + model.hidden_size * model.num_experts
        )
        if model.moe_shared_expert_ffn:
            h, f = model.hidden_size, model.moe_shared_expert_ffn
            dense += 6.0 * ((2 if model.gated_mlp else 1) * h * f + f * h)
        dense += 12.0 * model.hidden_size * self.config.sequence_length
        total = dense + expert
        return expert / total if total > 0 else 0.0

    def _a2a_seconds(self, stage: int, loads: list[int]) -> float:
        """Duration of one all-to-all collective of stage ``stage``.

        A synchronising collective completes when its slowest participant has
        moved its data.  On a flat (single-node or equal-tier) fabric that is
        the **maximum** routed bytes across the EP group over the one rate --
        the same ``moe_comm_factor``-scaled activation bytes the trace stages
        as COMM_BUFFER transients.  On a tiered fabric each participant's
        transfer prices its bytes at its *tier mix*: the fraction of EP peers
        on its node moves at the intra-node rate, the remainder crosses at
        the inter-node rate, and the collective takes as long as the slowest
        participant's mix.
        """
        factor = self.config.moe_comm_factor
        if factor <= 0 or not loads:
            return 0.0
        hidden = self.config.model.hidden_size
        if not self._tiered:
            max_tokens = max(loads)
            if max_tokens <= 0:
                return 0.0
            bytes_moved = factor * max_tokens * hidden * ACT_BYTES
            return bytes_moved / (self._flat_rate * 1e9)
        intra = self.gpu.intra_tier_gbytes_per_sec * 1e9
        inter = self.gpu.inter_tier_gbytes_per_sec * 1e9
        fracs = self._intra_fracs[stage]
        duration = 0.0
        for ep, tokens in enumerate(loads):
            if tokens <= 0:
                continue
            bytes_moved = factor * tokens * hidden * ACT_BYTES
            fraction = fracs[ep]
            seconds = (
                bytes_moved * fraction / intra
                + bytes_moved * (1.0 - fraction) / inter
            )
            if seconds > duration:
                duration = seconds
        return duration

    def _routed_loads(self, global_layer: int, microbatch: int) -> list[int]:
        """Per-EP-rank routed token assignments of one layer execution."""
        counts = self._router.route_global(
            self.tokens, layer=global_layer, microbatch=microbatch
        )
        local = self.num_local_experts
        return [
            sum(counts[ep * local:(ep + 1) * local]) for ep in range(self.ep)
        ]

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(self) -> TimelineResult:
        """Simulate the iteration: one pass over the schedule's dataflow order.

        Lane ``stage * ep + e`` is coordinate ``(stage, e)``.  A phase first
        stalls each of its stage's lanes until the phase it depends on has
        ended on that lane.  INIT / OPTIMIZER markers, dense forward/backward
        units and decode steps then emit one event per lane; an MoE
        forward/backward runs its layers through :meth:`_moe_layers`.
        """
        ep = self.ep
        config = self.config
        order, num_ends = _phase_order(
            config.parallelism, ep, self.num_microbatches,
            config.workload_kind, config.decode_steps,
        )
        num_lanes = self.pp * ep
        clocks = [0.0] * num_lanes
        ends = [0.0] * num_ends
        records: list[list[tuple]] = [[] for _ in range(num_lanes)]
        # Per-lane totals, accumulated in emission order (a float sum's bits
        # depend on its order, and the golden digests pin them).
        compute = [0.0] * num_lanes
        comm = [0.0] * num_lanes
        stall = [0.0] * num_lanes
        decode = [0.0] * num_lanes
        # Seconds of one phase by duration selector: markers take none, and
        # an MoE model's forward/backward has no single duration (None) --
        # its layers run through _moe_layers.  Decode steps re-read the cached
        # context with dense single-token kernels and no routed dispatch, so
        # EP peers neither synchronise nor diverge.
        if self._router is None:
            durations = (0.0, self.dense_forward_seconds, self.dense_backward_seconds)
        else:
            durations = (0.0, None, None)
        durations += self.decode_unit_durations
        for stage, lanes, code, selector, dep, end, microbatch, chunk in order:
            duration = durations[selector]
            moe = duration is None
            for lane in lanes:
                clock = clocks[lane]
                if dep is not None and ends[dep + lane] > clock:
                    ready = ends[dep + lane]
                    records[lane].append((K_STALL, clock, ready - clock, microbatch, chunk, -1))
                    stall[lane] += ready - clock
                    clock = ready
                if not moe:
                    records[lane].append((code, clock, duration, microbatch, chunk, -1))
                    if selector:
                        compute[lane] += duration
                        clock += duration
                        if selector > 2:  # a decode step
                            decode[lane] += duration
                    if end is not None:
                        ends[end + lane] = clock
                clocks[lane] = clock
            if moe:
                self._moe_layers(
                    stage, lanes, code == K_FORWARD, microbatch, chunk,
                    clocks, records, compute, comm, stall,
                )
                for lane in lanes:
                    ends[end + lane] = clocks[lane]

        rank_timelines = [
            RankTimeline(
                (lane // ep, lane % ep),
                records[lane],
                compute_seconds=compute[lane],
                comm_seconds=comm[lane],
                stall_seconds=stall[lane],
                decode_seconds=decode[lane],
                finish_seconds=clocks[lane],
            )
            for lane in range(num_lanes)
        ]
        return TimelineResult(
            gpu_name=self.gpu.name,
            description=config.describe(),
            ranks=rank_timelines,
            iteration_seconds=max(clocks),
            model_flops_per_iteration=self.model_flops,
            num_gpus=config.parallelism.num_gpus,
            tokens_per_iteration=config.tokens_per_iteration,
            peak_tflops=self.gpu.peak_tflops,
            gpus_per_node=self.gpu.gpus_per_node,
            allocator_overhead_seconds=self.allocator_overhead_seconds,
        )

    def _layer_exec(self, stage: int, global_layer: int, microbatch: int):
        """Memoised ``(loads, balanced, a2a_duration)`` of one layer execution.

        The forward dispatch and backward combine of the same (layer,
        micro-batch) execution reuse one gating decision, so the routed
        loads -- and everything derived from them -- are computed once.
        ``stage`` selects the tier mix of the collective on a hierarchical
        fabric; the memo key stays ``(global_layer, microbatch)`` because the
        global layer id already encodes the stage uniquely.
        """
        key = (global_layer, microbatch)
        cached = self._layer_exec_cache.get(key)
        if cached is None:
            loads = self._routed_loads(global_layer, microbatch)
            balanced = sum(loads) / self.ep if self.ep else 0.0
            a2a_duration = self._a2a_seconds(stage, loads)
            cached = (loads, balanced, a2a_duration)
            self._layer_exec_cache[key] = cached
        return cached

    def _moe_layers(
        self, stage, lanes, forward, microbatch, chunk, clocks, records, compute, comm, stall
    ):
        """Run the layers of one MoE forward/backward phase on ``lanes``.

        Each layer runs its dense compute (forward), the synchronising
        all-to-all, the expert FFN scaled by each lane's routed load, then
        its dense gradient work (backward).
        """
        unit = self.forward_unit_seconds if forward else self.backward_unit_seconds
        per_layer = unit / self.layers
        expert_base = per_layer * self.expert_share
        # The phase's allocator-overhead share rides on the dense part (the
        # framework's Python/driver work brackets the dense kernels), never
        # on the load-scaled expert compute.
        dense_part = per_layer - expert_base + self.unit_overhead_seconds / self.layers
        overlap = self.config.comm_overlap_factor
        dense_kind = K_FORWARD if forward else K_BACKWARD
        expert_kind = K_EXPERT_FORWARD if forward else K_EXPERT_BACKWARD
        a2a_kind = K_A2A_DISPATCH if forward else K_A2A_COMBINE
        layer_order = range(self.layers) if forward else reversed(range(self.layers))
        # Model-global layer ids: the mapping tracegen keys router draws on.
        first_layer = (chunk * self.pp + stage) * self.layers
        base = lanes.start

        for layer in layer_order:
            global_layer = first_layer + layer
            loads, balanced, a2a_duration = self._layer_exec(
                stage, global_layer, microbatch
            )
            if forward:
                # Dense compute produces the tokens the dispatch will route.
                for lane in lanes:
                    records[lane].append(
                        (dense_kind, clocks[lane], dense_part, microbatch, chunk, global_layer)
                    )
                    compute[lane] += dense_part
                    clocks[lane] += dense_part
            # The collective synchronises the EP group: it begins when the
            # last peer arrives, and everyone resumes together when it ends.
            # With a zero comm factor the synchronisation (and its stalls)
            # still happens, but no zero-duration event is emitted -- the
            # comm-free event stream stays free of no-op markers.
            begin = max(clocks[base:lanes.stop])
            for lane in lanes:
                append = records[lane].append
                clock = clocks[lane]
                if begin > clock:
                    append((K_STALL, clock, begin - clock, microbatch, chunk, global_layer))
                    stall[lane] += begin - clock
                clock = begin + a2a_duration
                if a2a_duration > 0:
                    append((a2a_kind, begin, a2a_duration, microbatch, chunk, global_layer))
                    comm[lane] += a2a_duration
                # Expert FFN (or its gradients): scales with the local load.
                # ``comm_overlap_factor`` hides up to that fraction of the
                # collective under the expert compute consuming its tokens:
                # the expert starts early by ``min(factor * a2a, expert)``
                # seconds.  The a2a event keeps its full duration --
                # comm_seconds and the stall accounting stay honest -- only
                # the clock (the critical path) shortens.
                expert_duration = (
                    expert_base * (loads[lane - base] / balanced) if balanced > 0 else 0.0
                )
                if expert_duration > 0:
                    if overlap > 0.0 and a2a_duration > 0.0:
                        clock -= min(overlap * a2a_duration, expert_duration)
                    append((expert_kind, clock, expert_duration, microbatch, chunk, global_layer))
                    compute[lane] += expert_duration
                    clock += expert_duration
                if not forward:
                    # Dense gradient work follows the combine + expert gradients.
                    append((dense_kind, clock, dense_part, microbatch, chunk, global_layer))
                    compute[lane] += dense_part
                    clock += dense_part
                clocks[lane] = clock


# ---------------------------------------------------------------------- #
# Dataflow order
# ---------------------------------------------------------------------- #
def _dependency(pp: int, chunks: int, stage: int, spec: PhaseSpec):
    """Cross-stage phase this phase must wait for (None when unconstrained).

    Layer blocks are numbered ``b = chunk * pp + stage`` (the Megatron
    interleaving assignment).  A forward consumes the activations of block
    ``b - 1``; a backward consumes the gradients of block ``b + 1`` along the
    within-chunk pipeline chain (see :class:`TimelineSimulator` for why the
    interleaved wrap edge is cut).
    """
    if spec.kind is PhaseKind.FORWARD:
        block = spec.chunk * pp + stage
        if block == 0:
            return None
        src_stage = (block - 1) % pp
        src_chunk = (block - 1) // pp
        return (src_stage, "F", spec.microbatch, src_chunk)
    if spec.kind is PhaseKind.BACKWARD:
        block = spec.chunk * pp + stage
        if block == chunks * pp - 1:
            return None  # the loss block: its own forward precedes it in-schedule
        if stage == pp - 1:
            return None  # interleaved wrap edge (cut, see the simulator docstring)
        return (stage + 1, "B", spec.microbatch, spec.chunk)
    if spec.kind is PhaseKind.DECODE:
        # A decode step flows through the same block chain as a forward;
        # block 0 additionally waits for the token the *previous* step (or
        # the prefill, for step 1) sampled on the last block -- the
        # autoregressive feedback edge.
        block = spec.chunk * pp + stage
        if block > 0:
            src_stage = (block - 1) % pp
            src_chunk = (block - 1) // pp
            return (src_stage, "D", spec.microbatch, src_chunk, spec.step)
        last_block = chunks * pp - 1
        last_stage = last_block % pp
        last_chunk = last_block // pp
        if spec.step == 1:
            return (last_stage, "F", spec.microbatch, last_chunk)
        return (last_stage, "D", spec.microbatch, last_chunk, spec.step - 1)
    return None


#: Bounded: one entry per schedule geometry, a tuple of a few hundred to a
#: few thousand phase entries (a sweep or search touches a few dozen).
@functools.lru_cache(maxsize=64)
def _phase_order(
    parallelism: ParallelismConfig,
    ep: int,
    num_microbatches: int,
    workload_kind: str,
    decode_steps: int,
) -> tuple[tuple[tuple, ...], int]:
    """Every stage's phases in one dataflow order, plus the end-time list size.

    Stages take turns (round-robin); a stage's next phase is taken once the
    phase it depends on has been taken.  The order depends only on the
    schedule geometry -- never on durations, because each phase starts when
    its own lanes are free *and* its dependency has ended -- so it is built
    once per geometry and every run binds its own durations.  The memo is
    process-wide: its key is five canonical values, a hit is exactly what a
    rebuild returns, and the build (the stage schedules and the round-robin
    walk) costs several times the run that reads it.

    Each entry is ``(stage, lanes, kind_code, duration_selector, dep, end,
    microbatch, chunk)``.  ``lanes`` is the stage's ``range(stage * ep,
    (stage + 1) * ep)``.  A phase owns ``ep`` consecutive slots of the flat
    end-time list; ``dep + lane`` / ``end + lane`` index the slot of the
    phase waited for / of this phase on that lane (None when absent).  The
    selector picks 0.0 / forward / backward seconds at run time (``2 + s``
    picks decode step ``s``).
    """
    pp = parallelism.pipeline_parallel
    chunks = parallelism.virtual_pipeline_chunks
    schedules = [
        build_schedule(
            parallelism, num_microbatches, stage,
            workload_kind=workload_kind, decode_steps=decode_steps,
        )
        for stage in range(pp)
    ]
    order: list[tuple] = []
    slots: dict[tuple, int] = {}
    next_index = [0] * pp
    remaining = sum(len(schedule) for schedule in schedules)
    while remaining:
        progressed = False
        for stage, schedule in enumerate(schedules):
            index = next_index[stage]
            if index >= len(schedule):
                continue
            spec = schedule[index]
            dependency = _dependency(pp, chunks, stage, spec)
            if dependency is not None and dependency not in slots:
                continue
            base = stage * ep
            lanes = range(base, base + ep)
            if spec.kind is PhaseKind.INIT or spec.kind is PhaseKind.OPTIMIZER:
                code = K_INIT if spec.kind is PhaseKind.INIT else K_OPTIMIZER
                order.append((stage, lanes, code, 0, None, None, -1, 0))
            else:
                if spec.kind is PhaseKind.DECODE:
                    code, selector = K_DECODE, 2 + spec.step
                    key = (stage, "D", spec.microbatch, spec.chunk, spec.step)
                elif spec.kind is PhaseKind.FORWARD:
                    code, selector = K_FORWARD, 1
                    key = (stage, "F", spec.microbatch, spec.chunk)
                else:
                    code, selector = K_BACKWARD, 2
                    key = (stage, "B", spec.microbatch, spec.chunk)
                slots[key] = len(slots) * ep
                # Lane ``base + e`` uses slot ``s + e`` of a phase owning
                # ``[s, s + ep)``, so the offset stored is ``s - base``.
                dep = slots[dependency] - base if dependency is not None else None
                order.append((
                    stage, lanes, code, selector, dep, slots[key] - base,
                    spec.microbatch, spec.chunk,
                ))
            next_index[stage] += 1
            remaining -= 1
            progressed = True
        if not progressed:  # pragma: no cover - guards future schedule changes
            raise RuntimeError(
                "timeline deadlock: no executable phase left "
                f"(next indices {next_index})"
            )
    return tuple(order), len(slots) * ep


def simulate_timeline(
    config: TrainingConfig,
    *,
    gpu: GPUSpec | str = "A800-80GB",
    seed: int = 0,
    scale: float = 1.0,
    allocator_overhead_seconds: float = 0.0,
) -> TimelineResult:
    """Simulate one iteration of ``config`` on ``gpu`` under a ``timeline.simulate`` span.

    Returns the full :class:`TimelineResult`, which is also the job's
    throughput.
    ``allocator_overhead_seconds`` injects the replay-measured allocator
    overhead into the phase durations (see :class:`TimelineSimulator`).
    """
    with _obs_span("timeline.simulate", model=config.model.name):
        return TimelineSimulator(
            config,
            gpu=gpu,
            seed=seed,
            scale=scale,
            allocator_overhead_seconds=allocator_overhead_seconds,
        ).run()
