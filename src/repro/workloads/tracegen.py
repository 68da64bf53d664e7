"""Allocation-trace generation for one training iteration.

:class:`TraceGenerator` walks the pipeline schedule of one rank and emits the
allocation/free events its tensors would cause, reproducing the temporal
classes the paper identifies (§2.3):

* *persistent* tensors (weights, gradients, optimizer states) allocated during
  initialisation and never freed within the iteration;
* *scoped* tensors (saved activations) allocated in a micro-batch's forward
  pass and freed, in reverse order, during its backward pass;
* *transient* tensors (operator workspaces, recomputed activations, offloaded
  activations, ZeRO communication buckets) freed inside the phase that
  created them;
* *dynamic* tensors (MoE expert activations) whose sizes depend on runtime
  token routing and are tagged with their originating module so STAlloc can
  form HomoLayer groups.

The resulting event stream is what every allocator in this repository is
evaluated on.

Cost: what does not depend on the event is computed once per generator, and
what does is paid a phase at a time.  The memory model's tensor lists are pure
functions of the config and the rank, so each is turned into *entries* up
front: a list's sizes at every jitter slot (the micro-batch's index into
``size_jitter``), its category codes and its tags.  A routed layer's expert
activations are sized as one vector from its token counts
(:meth:`MemoryModel.expert_activation_sizes`), and nothing of them is kept
past the layer.  A tensor's event is one tuple appended to the phase's event
list (the allocation's tuple is also the tensor's handle until its free); at
the end of the phase the list is transposed into columns, its module paths
and tags are interned in first-seen order, and :meth:`ColumnBuilder.extend`
takes the phase in one call.  An event's time is its position in the trace,
so a module's span, the time of its first event and of its last, is read off
the module column once the trace is complete.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Iterable, Sequence

from repro.core.columns import ALLOC, CATEGORY_CODES, FREE, KV_CACHE_CODE, ColumnBuilder
from repro.core.events import Phase, PhaseKind, TensorCategory
from repro.obs.tracer import is_enabled as _obs_enabled
from repro.obs.tracer import observe as _obs_observe
from repro.obs.tracer import span as _obs_span
from repro.version import TRACEGEN_VERSION
from repro.workloads.fingerprint import DEFAULT_ASYNC_FREE_SKEW, DEFAULT_SIZE_JITTER

# Read from here by benchmarks/e2e/stages.py (its home is workloads.fingerprint).
from repro.workloads.fingerprint import config_fingerprint  # noqa: F401
from repro.workloads.memory_model import EXPERT_ACTIVATIONS, MemoryModel, TensorSpec, round512
from repro.workloads.moe import ExpertRouter
from repro.workloads.schedule import PhaseSpec, build_schedule
from repro.workloads.trace import Trace, TraceMetadata
from repro.workloads.training import TrainingConfig

#: Categories whose sizes vary with the micro-batch (``size_jitter``).
_JITTERED = frozenset(
    (TensorCategory.ACTIVATION, TensorCategory.TEMPORARY, TensorCategory.EXPERT_ACTIVATION)
)

_JITTERED_CODES = frozenset(CATEGORY_CODES[category] for category in _JITTERED)
_EXPERT_CODE = CATEGORY_CODES[TensorCategory.EXPERT_ACTIVATION]
_COMM_CODE = CATEGORY_CODES[TensorCategory.COMM_BUFFER]


def _jitter(size: int, factor: float) -> int:
    """``size`` at a jitter factor, rounded as the allocator sees it (1.0: unchanged)."""
    return size if factor == 1.0 else round512(size * factor)


#: A list of tensors as the generator emits them: ``(sizes by jitter slot,
#: category codes, tags)``.  ``sizes[slot]`` holds every tensor's size at one
#: jitter slot; slot ``len(size_jitter)`` holds the unjittered sizes, used by
#: phases outside any micro-batch (initialisation, the optimizer step).
_Entries = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[str, ...]]

#: One event of the current phase: ``(kind, req_id, size, module, dyn,
#: category code, tag, free module)``.  An allocation's event is also the
#: tensor's handle until its free: an empty free module means the free names
#: the alloc module.  A free's own free module is empty.
_Event = tuple[int, int, int, str, int, int, str, str]


@dataclass
class _ScopedSet:
    """Scoped tensors of one (micro-batch, chunk), grouped by layer."""

    by_layer: dict[int, list[_Event]] = field(default_factory=dict)
    boundary: list[_Event] = field(default_factory=list)  # embedding / pp buffers


class TraceGenerator:
    """Generates the allocation trace of one rank for one training iteration."""

    def __init__(
        self,
        config: TrainingConfig,
        *,
        seed: int = 0,
        scale: float = 1.0,
        rank: int = 0,
        ep_rank: int = 0,
        size_jitter: tuple[float, ...] | None = None,
        async_free_skew: int | None = None,
    ):
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        self.config = config
        self.memory = MemoryModel(config, rank=rank, ep_rank=ep_rank)
        self.seed = seed
        self.scale = scale
        self.rank = rank
        self.ep_rank = ep_rank
        self.size_jitter = DEFAULT_SIZE_JITTER if size_jitter is None else tuple(size_jitter)
        if not self.size_jitter or any(factor <= 0 for factor in self.size_jitter):
            raise ValueError("size_jitter must contain positive factors")
        self.async_free_skew = (
            DEFAULT_ASYNC_FREE_SKEW if async_free_skew is None else int(async_free_skew)
        )
        if self.async_free_skew < 0:
            raise ValueError("async_free_skew must be non-negative")
        self._build_entries()
        # Mutable generation state (re-initialised on every generate() call).
        self._reset()

    def _build_entries(self) -> None:
        """The entries of every tensor whose size is fixed for the whole trace."""
        memory, entries = self.memory, self._entries
        dense_saved = memory.saved_activation_tensors()
        if self.config.model.is_moe:
            dense_saved = [s for s in dense_saved if not s.tag.startswith("mlp")]
        #: What one forward layer saves: the dense activations, then MoE's static ones.
        self._saved = entries(dense_saved + memory.moe_static_tensors())
        self._checkpoint = entries(memory.recompute_checkpoint_tensors())
        self._forward_workspaces = entries(memory.forward_transient_tensors())
        self._backward_workspaces = entries(memory.backward_transient_tensors())
        self._decode_workspaces = entries(memory.decode_transient_tensors())
        self._zero3_gathered = entries(
            [TensorSpec("zero3_gathered_params", memory.layer_weight_bytes(),
                        TensorCategory.COMM_BUFFER)]
        )
        self._boundary = entries(
            [memory.embedding_activation() if memory.is_first_stage
             else memory.pipeline_recv_buffer()]
        )
        self._logits = entries([memory.logits_activation()])
        self._decode_logits = entries([memory.decode_logits_tensor()])
        self._optimizer_scratch = entries(
            [TensorSpec("optimizer_scratch", 4 * 1024 * 1024, TensorCategory.TEMPORARY)]
        )
        if self.config.uses_distributed_optimizer:
            self._grad_bucket = entries(
                [TensorSpec("grad_rs_bucket", memory.grad_bucket_bytes(),
                            TensorCategory.COMM_BUFFER)]
            )
            self._param_gather = entries(
                [TensorSpec("param_allgather", memory.param_gather_bytes(),
                            TensorCategory.COMM_BUFFER)]
            )
        #: Each direction's all-to-all buffers, ``(tag, size)`` in allocation
        #: order; routing sizes the one whose size is ``None``, per layer.
        self._dispatch = memory.a2a_buffers("dispatch")
        self._combine = memory.a2a_buffers("combine")
        #: Each local expert's activation tags and its gradient tag, by expert index.
        self._expert_tags = [
            tuple(f"expert{index}_{name}" for name in EXPERT_ACTIVATIONS)
            for index in range(memory.num_local_experts)
        ]
        self._dgrad_tags = [f"expert{index}_dgrad" for index in range(memory.num_local_experts)]

    def _sizes(self, size: int, code: int) -> tuple[int, ...]:
        """A tensor of category ``code`` at every jitter slot, then unjittered."""
        if code in _JITTERED_CODES:
            sizes = tuple(_jitter(size, factor) for factor in self.size_jitter)
        else:
            sizes = (size,) * len(self.size_jitter)
        return sizes + (size,)

    def _entries(self, specs: list[TensorSpec]) -> _Entries:
        """``specs`` at every jitter slot, with their category codes and tags."""
        codes = tuple(CATEGORY_CODES[spec.category] for spec in specs)
        by_spec = [self._sizes(spec.size, code) for spec, code in zip(specs, codes)]
        return (
            tuple(zip(*by_spec)) if by_spec else ((),) * (len(self.size_jitter) + 1),
            codes,
            tuple(spec.tag for spec in specs),
        )

    def _jittered(self, sizes: list[int]) -> list[int]:
        """Dynamic sizes at the current phase's jitter slot."""
        factor = self._factor
        if factor == 1.0:
            return sizes
        return [_jitter(size, factor) for size in sizes]

    # ------------------------------------------------------------------ #
    # Derived geometry
    # ------------------------------------------------------------------ #
    @property
    def layers_per_chunk(self) -> int:
        full = self.config.parallelism.layers_per_chunk(self.config.model.num_layers)
        return max(1, round(full * self.scale))

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self) -> Trace:
        """Produce the allocation trace of one full training iteration."""
        if not _obs_enabled():
            return self._generate()
        started = _time.perf_counter()
        with _obs_span(
            "tracegen.generate",
            model=self.config.model.name,
            rank=self.rank,
            ep=self.ep_rank,
        ):
            trace = self._generate()
        elapsed = _time.perf_counter() - started
        if elapsed > 0:
            _obs_observe("tracegen.events_per_sec", trace.num_events / elapsed)
        return trace

    def _generate(self) -> Trace:
        self._reset()
        schedule = build_schedule(
            self.config.parallelism,
            self.config.num_microbatches,
            self.rank,
            workload_kind=self.config.workload_kind,
            decode_steps=self.config.decode_steps,
        )
        slots = len(self.size_jitter)
        for spec in schedule:
            phase = self._new_phase(spec)
            self._slot = spec.microbatch % slots if spec.microbatch >= 0 else slots
            self._factor = self.size_jitter[self._slot] if self._slot < slots else 1.0
            if spec.kind is PhaseKind.INIT:
                self._emit_init()
            elif spec.kind is PhaseKind.FORWARD:
                self._emit_forward(spec)
            elif spec.kind is PhaseKind.BACKWARD:
                self._emit_backward(spec)
            elif spec.kind is PhaseKind.DECODE:
                self._emit_decode(spec)
            elif spec.kind is PhaseKind.OPTIMIZER:
                self._emit_optimizer()
            self._end_phase(phase.index)
        metadata = TraceMetadata(
            model_name=self.config.model.name,
            config_label=self.config.label or "custom",
            description=self.config.describe(),
            micro_batch_size=self.config.micro_batch_size,
            num_microbatches=self.config.num_microbatches,
            parallelism=self.config.parallelism.describe(),
            seed=self.seed,
            scale=self.scale,
            rank=self.rank,
            ep_rank=self.ep_rank,
            moe_comm_factor=self.config.moe_comm_factor,
            tracegen_version=TRACEGEN_VERSION,
            workload_kind=self.config.workload_kind,
            decode_steps=self.config.decode_steps,
            max_new_tokens=self.config.max_new_tokens,
        )
        builder = self._columns
        columns = builder.build()
        # An event's time is its position: a module's last event is the last
        # position holding its index, its first the last one reading backwards.
        modules = columns.module_index
        last = dict(zip(modules, range(len(modules))))
        first = dict(zip(reversed(modules), range(len(modules) - 1, -1, -1)))
        module_spans = {
            module: (first[index], last[index])
            for module, index in builder.modules.items()
            if module
        }
        return Trace(
            metadata=metadata,
            phases=self._phases,
            module_spans=module_spans,
            columns=columns,
        )

    # ------------------------------------------------------------------ #
    # Low-level emission helpers
    # ------------------------------------------------------------------ #
    def _make_router(self) -> ExpertRouter | None:
        if not self.config.model.is_moe:
            return None
        # Every EP rank of the job derives the same router seed: the gating
        # decision is global, and each rank observes the slice of it landing
        # on its local experts (so token counts are conserved across the
        # expert-parallel group).  The pipeline rank still shapes the routed
        # sequence through the order of its schedule's forward passes.
        return ExpertRouter(
            num_experts=self.config.model.num_experts,
            num_local_experts=self.memory.num_local_experts,
            top_k=self.config.model.moe_top_k,
            seed=self.seed,
            imbalance=self.config.moe_imbalance,
            ep_rank=self.ep_rank,
        )

    def _reset(self) -> None:
        # Fresh router per generate() call.  Its draws are keyed by layer
        # execution and memoised process-wide (routing_draw.routed_counts), so
        # a regenerated trace and every timeline of the job reuse them.
        self._router: ExpertRouter | None = self._make_router()
        # Each phase's events are collected here, then moved into the trace's
        # typed columns at the end of the phase.
        self._columns: ColumnBuilder = ColumnBuilder()
        self._events: list[_Event] = []
        self._phases: list[Phase] = []
        self._slot = len(self.size_jitter)
        self._factor = 1.0
        self._next_req_id = 0
        self._scoped: dict[tuple[int, int], _ScopedSet] = {}
        self._expert_routing: dict[tuple[int, int, int], list[int]] = {}
        #: ``(release step, tensors)`` per deferred batch, in deferral order.
        self._deferred: list[tuple[int, list[_Event]]] = []
        self._phase_step = 0
        # Live KV caches of generation workloads, keyed (microbatch, chunk,
        # layer); re-bound on every decode-step re-allocation, popped when the
        # micro-batch's sequence completes.
        self._kv: dict[tuple[int, int, int], _Event] = {}

    # ------------------------------------------------------------------ #
    # Deferred (asynchronously skewed) transient frees
    # ------------------------------------------------------------------ #
    def _defer_frees(self, tensors: list[_Event]) -> None:
        """Queue transient frees to be issued ``async_free_skew`` layers later."""
        self._deferred.append((self._phase_step + self.async_free_skew, tensors[::-1]))

    def _flush_deferred(self, *, everything: bool = False) -> None:
        """Issue queued frees whose release step has been reached."""
        remaining: list[tuple[int, list[_Event]]] = []
        free_all = self._free_all
        for release_step, tensors in self._deferred:
            if everything or release_step <= self._phase_step:
                free_all(tensors)
            else:
                remaining.append((release_step, tensors))
        self._deferred = remaining

    def _new_phase(self, spec: PhaseSpec) -> Phase:
        phase = Phase(
            index=len(self._phases),
            kind=spec.kind,
            microbatch=spec.microbatch,
            chunk=spec.chunk,
        )
        self._phases.append(phase)
        return phase

    def _end_phase(self, phase_index: int) -> None:
        """Move the phase's events into the trace's columns, in one call.

        Module paths and tags are interned in the order the phase first names
        them, so the tables keep the trace's first-seen order.
        """
        events = self._events
        if not events:
            return
        kinds, req_ids, sizes, modules, dyns, categories, tags, _ = zip(*events)
        builder = self._columns
        module_table, tag_table = builder.modules, builder.tags
        for name in dict.fromkeys(modules):
            module_table.setdefault(name, len(module_table))
        for name in dict.fromkeys(tags):
            tag_table.setdefault(name, len(tag_table))
        start, count_ = len(builder), len(events)
        builder.extend(
            kinds, req_ids, sizes, range(start, start + count_), repeat(phase_index, count_),
            map(module_table.__getitem__, modules), dyns, categories,
            map(tag_table.__getitem__, tags),
        )
        events.clear()

    def _allocs(
        self,
        sizes: Iterable[int],
        categories: Iterable[int],
        tags: Iterable[str],
        module: str = "",
        dyn: int = 0,
        free_module: str = "",
    ) -> list[_Event]:
        """Allocate one tensor per ``(size, category, tag)``, in order; their handles."""
        first = self._next_req_id
        tensors = [
            (ALLOC, req_id, size, module, dyn, category, tag, free_module)
            for req_id, size, category, tag in zip(count(first), sizes, categories, tags)
        ]
        self._next_req_id = first + len(tensors)
        self._events += tensors
        return tensors

    def _alloc(self, entries: _Entries, module: str = "", dyn: int = 0,
               free_module: str = "") -> list[_Event]:
        """Allocate ``entries`` at the current jitter slot; their handles."""
        sizes, categories, tags = entries
        return self._allocs(sizes[self._slot], categories, tags, module, dyn, free_module)

    def _alloc_one(self, size: int, category: int, tag: str, module: str, dyn: int = 0) -> _Event:
        """Allocate one tensor sized where it is emitted; its handle."""
        req_id = self._next_req_id
        self._next_req_id = req_id + 1
        tensor = (ALLOC, req_id, size, module, dyn, category, tag, "")
        self._events.append(tensor)
        return tensor

    def _a2a(
        self, buffers: tuple[tuple[str, int | None], ...], token_count: int, module: str
    ) -> list[_Event]:
        """Allocate one direction's all-to-all buffers; their handles.

        The origin side has its fixed size; the side routing sizes is the
        buffer ``token_count`` local tokens need (dynamic), if any.
        """
        tensors = []
        for tag, size in buffers:
            if size is not None:
                tensors.append(self._alloc_one(size, _COMM_CODE, tag, module))
            elif routed := self.memory.a2a_bytes(token_count):
                tensors.append(self._alloc_one(routed, _COMM_CODE, tag, module, 1))
        return tensors

    def _kv_cache(self, spec: PhaseSpec, layer: int, context_tokens: int) -> _Event:
        """Allocate one layer's KV cache for ``context_tokens`` (a KV cache is never jittered)."""
        kv = self.memory.kv_cache_tensor(layer, context_tokens)
        module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
        return self._alloc_one(kv.size, KV_CACHE_CODE, kv.tag, module)

    def _free(self, tensor: _Event, module: str | None = None) -> None:
        _, req_id, size, alloc_module, dyn, category, tag, free_module = tensor
        if module is None:
            module = free_module or alloc_module
        self._events.append((FREE, req_id, size, module, dyn, category, tag, ""))

    def _free_all(self, tensors: Iterable[_Event]) -> None:
        """Free ``tensors`` in order, each naming its free module (else its alloc module)."""
        self._events += [
            (FREE, req_id, size, free_module or alloc_module, dyn, category, tag, "")
            for _, req_id, size, alloc_module, dyn, category, tag, free_module in tensors
        ]

    def _free_scoped(self, tensors: Sequence[_Event]) -> None:
        """Free saved activations in reverse order, each naming its free module (maybe none)."""
        self._events += [
            (FREE, req_id, size, free_module, dyn, category, tag, "")
            for _, req_id, size, _, dyn, category, tag, free_module in reversed(tensors)
        ]

    def _routed_experts(
        self, routing: list[int], module: str, free_module: str = ""
    ) -> list[_Event]:
        """Allocate one routed layer's expert activations (dynamic); their handles."""
        sizes = self._jittered(self.memory.expert_activation_sizes(routing))
        names = self._expert_tags
        tags = [tag for index, tokens in enumerate(routing) if tokens > 0 for tag in names[index]]
        return self._allocs(sizes, repeat(_EXPERT_CODE), tags, module, 1, free_module)

    # ------------------------------------------------------------------ #
    # Phase bodies
    # ------------------------------------------------------------------ #
    def _emit_init(self) -> None:
        """Persistent tensors: weights, gradients, optimizer states.

        Forward-only workloads (inference, generation) materialise weights
        only: no backward pass means no gradients, and no optimizer step means
        no optimizer state.
        """
        scale_layers = self.layers_per_chunk * self.config.parallelism.virtual_pipeline_chunks
        full_layers = self.config.parallelism.layers_per_rank(self.config.model.num_layers)
        forward_only = self.config.workload_kind != "training"
        specs = []
        for spec in self.memory.persistent_tensors():
            if forward_only and spec.category in (
                TensorCategory.GRADIENT,
                TensorCategory.OPTIMIZER_STATE,
            ):
                continue
            # Respect the layer down-scaling knob: drop specs of layers that
            # were scaled away so the persistent footprint shrinks alongside
            # the activation footprint.
            if spec.tag.startswith("layer"):
                layer_index = int(spec.tag.split(".")[0][len("layer"):])
                if layer_index >= scale_layers and full_layers > scale_layers:
                    continue
            if self.config.zero_stage >= 3 and spec.category is TensorCategory.WEIGHT:
                spec = TensorSpec(
                    spec.tag,
                    max(512, spec.size // self.memory.dp),
                    spec.category,
                )
            specs.append(spec)
        self._alloc(self._entries(specs))

    def _global_layer(self, spec: PhaseSpec, layer: int) -> int:
        """Model-global layer id of one (chunk, layer) execution on this rank.

        The router keys its gating draw on this id, so any two executions
        holding *different* model layers -- other chunks of this stage, and
        the layer slices of other pipeline stages (Megatron interleaving
        assigns chunk ``c`` of stage ``r`` the ``(c * pp + r)``-th layer
        block) -- route independently, while every EP rank of one stage
        (same schedule geometry, same ids) derives the identical draw for
        the identical execution.
        """
        pipeline = self.config.parallelism.pipeline_parallel
        return (spec.chunk * pipeline + self.rank) * self.layers_per_chunk + layer

    def _forward_layer(self, spec: PhaseSpec, layer: int, scoped: _ScopedSet) -> None:
        module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
        alloc = self._alloc
        transients: list[_Event] = []

        # ZeRO-3 gathers the layer's full parameters just-in-time.
        if self.config.zero_stage >= 3:
            transients += alloc(self._zero3_gathered)

        # Operator workspaces.
        transients += alloc(self._forward_workspaces)

        # Saved activations (their fate depends on recomputation / offload).
        kept = scoped.by_layer.setdefault(layer, [])
        rematerialise = self.config.recompute or self.config.offload_activations
        if rematerialise:
            kept += alloc(self._checkpoint, module)
            # The full activations still materialise during the forward pass,
            # but are released (recompute) or offloaded before it ends.
            transients += alloc(self._saved, module)
        else:
            kept += alloc(self._saved, module)

        # MoE expert activations: dynamic sizes decided by token routing.
        if self.config.model.is_moe and self._router is not None:
            routing = self._router.route(
                self.memory.tokens,
                layer=self._global_layer(spec, layer),
                microbatch=spec.microbatch,
            )
            self._expert_routing[(spec.microbatch, spec.chunk, layer)] = routing
            expert_module = f"{module}.experts"
            # All-to-all dispatch: tokens travel to their experts before the
            # expert FFN runs, so the staging buffers allocate first and stay
            # live across it (their skewed transient frees land layers later,
            # overlapping the expert activations -- which is what makes peak
            # memory imbalance-sensitive through communication, not just
            # through the expert activations themselves).
            transients += self._a2a(self._dispatch, sum(routing), expert_module)
            if rematerialise:
                transients += self._routed_experts(routing, expert_module)
            else:
                kept += self._routed_experts(routing, expert_module, f"{module}.experts.grad")

        # Transients die shortly after the layer finishes; the skewed release
        # models asynchronous kernel / communication overlap.
        self._defer_frees(transients)

    def _emit_forward(self, spec: PhaseSpec) -> None:
        key = (spec.microbatch, spec.chunk)
        scoped = self._scoped.setdefault(key, _ScopedSet())
        self._phase_step = 0

        # Pipeline-boundary activations only exist on chunk 0 of the stage.
        if spec.chunk == 0:
            scoped.boundary += self._alloc(self._boundary)

        generation_kv = (
            self.config.workload_kind == "generation" and self.config.decode_steps > 0
        )
        for layer in range(self.layers_per_chunk):
            self._phase_step = layer
            self._flush_deferred()
            self._forward_layer(spec, layer, scoped)
            if generation_kv:
                # Prefill fills the KV cache of the prompt context; the cache
                # outlives the forward pass (it is what decode steps read),
                # so it is tracked separately from the scoped activations.
                self._kv[(spec.microbatch, spec.chunk, layer)] = self._kv_cache(
                    spec, layer, self.config.context_tokens_at(0)
                )
        self._flush_deferred(everything=True)

        # The last stage projects to the (sharded) vocabulary at the end of
        # its final chunk; the fp32 logits live until the micro-batch's
        # backward pass finishes, like the other boundary activations.
        if (
            self.memory.is_last_stage
            and spec.chunk == self.config.parallelism.virtual_pipeline_chunks - 1
        ):
            scoped.boundary += self._alloc(self._logits)

        # Forward-only workloads retain nothing for a backward pass: the
        # micro-batch's scoped activations (and boundary tensors, logits
        # included) die at the end of its forward.  Only the KV caches above
        # survive into the decode steps.
        if self.config.workload_kind != "training":
            for layer in reversed(range(self.layers_per_chunk)):
                self._free_scoped(scoped.by_layer.pop(layer, []))
            self._free_all(reversed(scoped.boundary))
            scoped.boundary.clear()

    def _emit_decode(self, spec: PhaseSpec) -> None:
        """One autoregressive decode step of one (micro-batch, chunk).

        Each step processes one new token per sequence over the cached
        context: per layer, the KV cache is re-allocated at its grown size
        (allocate-new-then-free-old, the copy-into-larger-buffer realloc
        pattern, so live KV bytes never dip), followed by the step's short
        operator workspaces.  Growth stops at the ``max_new_tokens`` cap; the
        caches are freed only when the micro-batch's final decode step
        completes -- the sequence-position-dependent lifetime no training
        phase produces.  Expert routing is prefill-only: decode steps run the
        dense path even for MoE models.
        """
        config = self.config
        alloc, free = self._alloc, self._free
        old_context = config.context_tokens_at(spec.step - 1)
        new_context = config.context_tokens_at(spec.step)
        for layer in range(self.layers_per_chunk):
            key = (spec.microbatch, spec.chunk, layer)
            live = self._kv.get(key)
            if live is not None and new_context > old_context:
                self._kv[key] = grown = self._kv_cache(spec, layer, new_context)
                free(live, grown[3])
            self._free_all(alloc(self._decode_workspaces)[::-1])

        # The last stage samples the next token from one vocabulary row per
        # sequence; the logits die within the step.
        if (
            self.memory.is_last_stage
            and spec.chunk == config.parallelism.virtual_pipeline_chunks - 1
        ):
            self._free_all(alloc(self._decode_logits))

        # Sequence complete: release the micro-batch's KV caches.
        if spec.step == config.decode_steps:
            for layer in reversed(range(self.layers_per_chunk)):
                tensor = self._kv.pop((spec.microbatch, spec.chunk, layer), None)
                if tensor is not None:
                    free(tensor)

    def _backward_layer(self, spec: PhaseSpec, layer: int, scoped: _ScopedSet) -> None:
        module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
        grad_module = f"{module}.experts.grad"
        alloc = self._alloc
        is_moe = self.config.model.is_moe
        rematerialise = self.config.recompute or self.config.offload_activations
        routing = self._expert_routing.get((spec.microbatch, spec.chunk, layer), []) if is_moe else []
        transients: list[_Event] = []

        # All-to-all combine: the backward-facing mirror of the forward
        # dispatch.  Expert output gradients of the locally-processed tokens
        # are sent back to their origin ranks and this rank's share returns;
        # the staging buffers allocate before the expert gradient work and
        # overlap it through the skewed transient frees, exactly like the
        # dispatch pair overlaps the forward expert FFN.
        if is_moe:
            transients += self._a2a(self._combine, sum(routing), grad_module)

        # ZeRO-3 re-gathers parameters for the backward pass.
        if self.config.zero_stage >= 3:
            transients += alloc(self._zero3_gathered)

        # Recomputation / offload re-materialises the layer's activations:
        # the dense ones, MoE's static ones, then the routed experts.
        if rematerialise:
            transients += alloc(self._saved, module)
            if is_moe:
                transients += self._routed_experts(routing, grad_module)

        # Gradient temporaries.
        transients += alloc(self._backward_workspaces)

        # Dynamic gradient temporaries of expert layers (sizes follow routing).
        if is_moe and not rematerialise:
            h2 = self.config.model.hidden_size * 2
            names = self._dgrad_tags
            transients += self._allocs(
                self._jittered([max(512, tokens * h2) for tokens in routing if tokens > 0]),
                repeat(_EXPERT_CODE),
                [names[index] for index, tokens in enumerate(routing) if tokens > 0],
                grad_module,
                1,
            )

        self._defer_frees(transients)

        # Finally release the scoped activations this layer saved in forward.
        self._free_scoped(scoped.by_layer.pop(layer, []))

    def _emit_backward(self, spec: PhaseSpec) -> None:
        key = (spec.microbatch, spec.chunk)
        scoped = self._scoped.get(key, _ScopedSet())
        self._phase_step = 0

        for step, layer in enumerate(reversed(range(self.layers_per_chunk))):
            self._phase_step = step
            self._flush_deferred()
            self._backward_layer(spec, layer, scoped)
        self._flush_deferred(everything=True)

        # Pipeline-boundary activations die once the whole chunk is done.
        self._free_all(reversed(scoped.boundary))
        scoped.boundary.clear()

        # ZeRO overlaps gradient reduce-scatter buckets with the last
        # micro-batch's backward pass.
        if self.config.uses_distributed_optimizer and spec.microbatch == self.config.num_microbatches - 1:
            for _ in range(4):
                self._free_all(self._alloc(self._grad_bucket))

    def _emit_optimizer(self) -> None:
        if self.config.uses_distributed_optimizer:
            for _ in range(4):
                self._free_all(self._alloc(self._param_gather))
        # Small step temporaries (grad-norm scalars, LR state, ...).
        for _ in range(2):
            self._free_all(self._alloc(self._optimizer_scratch))
