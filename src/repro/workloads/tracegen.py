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

Cost: what does not depend on the event is computed once per generator.  The
memory model's tensor lists are pure functions of the config and the rank, so
each is turned into *entries* up front: an entry holds the tensor's size at
every jitter slot (the micro-batch's index into ``size_jitter``), its category
code and its tag.  An event then costs a tuple index, two interning-table
probes and one :meth:`ColumnBuilder.append` of plain ints.  Routed expert
tensors and KV caches, whose sizes change from layer to layer, become entries
where they are emitted.  A module's span is the time of its first event and of
its last, since the clock only rises.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.core.columns import ALLOC, CATEGORY_CODES, FREE, ColumnBuilder
from repro.core.events import Phase, PhaseKind, TensorCategory
from repro.obs.tracer import is_enabled as _obs_enabled
from repro.obs.tracer import observe as _obs_observe
from repro.obs.tracer import span as _obs_span
from repro.version import TRACEGEN_VERSION
from repro.workloads.fingerprint import DEFAULT_ASYNC_FREE_SKEW, DEFAULT_SIZE_JITTER

# Read from here by benchmarks/e2e/stages.py (its home is workloads.fingerprint).
from repro.workloads.fingerprint import config_fingerprint  # noqa: F401
from repro.workloads.memory_model import MemoryModel, TensorSpec
from repro.workloads.moe import ExpertRouter
from repro.workloads.schedule import PhaseSpec, build_schedule
from repro.workloads.trace import Trace, TraceMetadata
from repro.workloads.training import TrainingConfig

#: Categories whose sizes vary with the micro-batch (``size_jitter``).
_JITTERED = frozenset(
    (TensorCategory.ACTIVATION, TensorCategory.TEMPORARY, TensorCategory.EXPERT_ACTIVATION)
)

#: One tensor as the generator emits it: ``(size by jitter slot, category code,
#: tag)``.  Slot ``len(size_jitter)`` holds the unjittered size, used by phases
#: outside any micro-batch (initialisation, the optimizer step).
_Entry = tuple[tuple[int, ...], int, str]

#: An allocation waiting to be freed: ``(req_id, size, category code, tag
#: index, dyn, alloc module, free module)``; an empty free module means the
#: free names the alloc module.
_Live = tuple[int, int, int, int, int, str, str]


@dataclass
class _ScopedSet:
    """Scoped tensors of one (micro-batch, chunk), grouped by layer."""

    by_layer: dict[int, list[_Live]] = field(default_factory=dict)
    boundary: list[_Live] = field(default_factory=list)  # embedding / pp buffers


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
        memory, entry = self.memory, self._entry
        dense_saved = memory.saved_activation_tensors()
        if self.config.model.is_moe:
            dense_saved = [s for s in dense_saved if not s.tag.startswith("mlp")]
        self._dense_saved = [entry(s) for s in dense_saved]
        self._moe_static = [entry(s) for s in memory.moe_static_tensors()]
        #: What one forward layer saves: the dense activations, then MoE's static ones.
        self._saved = self._dense_saved + self._moe_static
        self._checkpoint = [entry(s) for s in memory.recompute_checkpoint_tensors()]
        self._forward_workspaces = [entry(s) for s in memory.forward_transient_tensors()]
        self._backward_workspaces = [entry(s) for s in memory.backward_transient_tensors()]
        self._decode_workspaces = [entry(s) for s in memory.decode_transient_tensors()]
        self._zero3_gathered = entry(
            TensorSpec("zero3_gathered_params", memory.layer_weight_bytes(),
                       TensorCategory.COMM_BUFFER)
        )
        self._boundary = entry(
            memory.embedding_activation() if memory.is_first_stage
            else memory.pipeline_recv_buffer()
        )
        self._logits = entry(memory.logits_activation())
        self._decode_logits = entry(memory.decode_logits_tensor())
        self._optimizer_scratch = entry(
            TensorSpec("optimizer_scratch", 4 * 1024 * 1024, TensorCategory.TEMPORARY)
        )
        if self.config.uses_distributed_optimizer:
            self._grad_bucket = entry(
                TensorSpec("grad_rs_bucket", memory.grad_bucket_bytes(),
                           TensorCategory.COMM_BUFFER)
            )
            self._param_gather = entry(
                TensorSpec("param_allgather", memory.param_gather_bytes(),
                           TensorCategory.COMM_BUFFER)
            )

    def _entry(self, spec: TensorSpec) -> _Entry:
        """``spec`` at every jitter slot, with its category code and tag."""
        size = spec.size
        if spec.category in _JITTERED:
            sizes = tuple(
                size if factor == 1.0 else max(512, ((int(size * factor) + 511) // 512) * 512)
                for factor in self.size_jitter
            )
        else:
            sizes = (size,) * len(self.size_jitter)
        return sizes + (size,), CATEGORY_CODES[spec.category], spec.tag

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
            self._phase_index = phase.index
            self._slot = spec.microbatch % slots if spec.microbatch >= 0 else slots
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
        module_spans = {
            module: tuple(self._module_spans[index])
            for module, index in self._columns.modules.items()
            if module
        }
        return Trace(
            metadata=metadata,
            phases=self._phases,
            module_spans=module_spans,
            columns=self._columns.build(),
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
        # Events are emitted straight into the trace's typed columns.
        self._columns: ColumnBuilder = ColumnBuilder()
        self._phases: list[Phase] = []
        self._phase_index = 0
        self._slot = len(self.size_jitter)
        self._clock = 0
        self._next_req_id = 0
        self._scoped: dict[tuple[int, int], _ScopedSet] = {}
        self._expert_routing: dict[tuple[int, int, int], list[int]] = {}
        #: ``[first, last]`` event time of each module, by module index.
        self._module_spans: list[list[int]] = []
        #: ``(release step, tensors)`` per deferred batch, in deferral order.
        self._deferred: list[tuple[int, list[_Live]]] = []
        self._phase_step = 0
        # Live KV caches of generation workloads, keyed (microbatch, chunk,
        # layer); re-bound on every decode-step re-allocation, popped when the
        # micro-batch's sequence completes.
        self._kv: dict[tuple[int, int, int], _Live] = {}

    # ------------------------------------------------------------------ #
    # Deferred (asynchronously skewed) transient frees
    # ------------------------------------------------------------------ #
    def _defer_frees(self, tensors: list[_Live]) -> None:
        """Queue transient frees to be issued ``async_free_skew`` layers later."""
        self._deferred.append((self._phase_step + self.async_free_skew, tensors[::-1]))

    def _flush_deferred(self, *, everything: bool = False) -> None:
        """Issue queued frees whose release step has been reached."""
        remaining: list[tuple[int, list[_Live]]] = []
        free = self._free
        for release_step, tensors in self._deferred:
            if everything or release_step <= self._phase_step:
                for tensor in tensors:
                    free(tensor)
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

    def _emit(
        self, kind: int, req_id: int, size: int, module: str, dyn: int, category: int, tag: int
    ) -> None:
        """Append one event at the next tick of the current phase."""
        time = self._clock
        self._clock = time + 1
        columns = self._columns
        modules = columns.modules
        module_index = modules.setdefault(module, len(modules))
        spans = self._module_spans
        if module_index < len(spans):
            spans[module_index][1] = time
        else:
            spans.append([time, time])
        columns.append(kind, req_id, size, time, self._phase_index, module_index, dyn, category, tag)

    def _alloc(self, entry: _Entry, module: str = "", dyn: int = 0, free_module: str = "") -> _Live:
        sizes, category, tag = entry
        size = sizes[self._slot]
        tags = self._columns.tags
        tag_index = tags.setdefault(tag, len(tags))
        req_id = self._next_req_id
        self._next_req_id = req_id + 1
        self._emit(ALLOC, req_id, size, module, dyn, category, tag_index)
        return req_id, size, category, tag_index, dyn, module, free_module

    def _free(self, tensor: _Live, module: str | None = None) -> None:
        req_id, size, category, tag_index, dyn, alloc_module, free_module = tensor
        if module is None:
            module = free_module or alloc_module
        self._emit(FREE, req_id, size, module, dyn, category, tag_index)

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
            self._alloc(self._entry(spec))

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
        transients: list[_Live] = []

        # ZeRO-3 gathers the layer's full parameters just-in-time.
        if self.config.zero_stage >= 3:
            transients.append(alloc(self._zero3_gathered))

        # Operator workspaces.
        transients += map(alloc, self._forward_workspaces)

        # Saved activations (their fate depends on recomputation / offload).
        kept = scoped.by_layer.setdefault(layer, [])
        if self.config.recompute or self.config.offload_activations:
            kept += [alloc(ckpt, module) for ckpt in self._checkpoint]
            # The full activations still materialise during the forward pass,
            # but are released (recompute) or offloaded before it ends.
            transients += [alloc(act, module) for act in self._saved]
        else:
            kept += [alloc(act, module) for act in self._saved]

        # MoE expert activations: dynamic sizes decided by token routing.
        if self.config.model.is_moe and self._router is not None:
            entry = self._entry
            routing = self._router.route(
                self.memory.tokens,
                layer=self._global_layer(spec, layer),
                microbatch=spec.microbatch,
            )
            self._expert_routing[(spec.microbatch, spec.chunk, layer)] = routing
            expert_module = f"{module}.experts"
            grad_module = f"{module}.experts.grad"
            # All-to-all dispatch: tokens travel to their experts before the
            # expert FFN runs, so the staging buffers allocate first and stay
            # live across it (their skewed transient frees land layers later,
            # overlapping the expert activations -- which is what makes peak
            # memory imbalance-sensitive through communication, not just
            # through the expert activations themselves).
            for comm_spec in self.memory.moe_dispatch_tensors(sum(routing)):
                dyn = 1 if comm_spec.tag == "a2a_dispatch_recv" else 0
                transients.append(alloc(entry(comm_spec), expert_module, dyn))
            for expert_index, expert_tokens in enumerate(routing):
                experts = map(entry, self.memory.expert_tensors(expert_index, expert_tokens))
                if self.config.recompute or self.config.offload_activations:
                    transients += [alloc(expert, expert_module, 1) for expert in experts]
                else:
                    kept += [alloc(expert, expert_module, 1, grad_module) for expert in experts]

        # Transients die shortly after the layer finishes; the skewed release
        # models asynchronous kernel / communication overlap.
        self._defer_frees(transients)

    def _emit_forward(self, spec: PhaseSpec) -> None:
        key = (spec.microbatch, spec.chunk)
        scoped = self._scoped.setdefault(key, _ScopedSet())
        self._phase_step = 0

        # Pipeline-boundary activations only exist on chunk 0 of the stage.
        if spec.chunk == 0:
            scoped.boundary.append(self._alloc(self._boundary))

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
                kv_spec = self.memory.kv_cache_tensor(
                    layer, self.config.context_tokens_at(0)
                )
                module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
                self._kv[(spec.microbatch, spec.chunk, layer)] = self._alloc(
                    self._entry(kv_spec), module
                )
        self._flush_deferred(everything=True)

        # The last stage projects to the (sharded) vocabulary at the end of
        # its final chunk; the fp32 logits live until the micro-batch's
        # backward pass finishes, like the other boundary activations.
        if (
            self.memory.is_last_stage
            and spec.chunk == self.config.parallelism.virtual_pipeline_chunks - 1
        ):
            scoped.boundary.append(self._alloc(self._logits))

        # Forward-only workloads retain nothing for a backward pass: the
        # micro-batch's scoped activations (and boundary tensors, logits
        # included) die at the end of its forward.  Only the KV caches above
        # survive into the decode steps.
        if self.config.workload_kind != "training":
            for layer in reversed(range(self.layers_per_chunk)):
                for tensor in reversed(scoped.by_layer.pop(layer, [])):
                    self._free(tensor, tensor[6])
            for tensor in reversed(scoped.boundary):
                self._free(tensor)
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
                module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
                grown = self.memory.kv_cache_tensor(layer, new_context)
                self._kv[key] = alloc(self._entry(grown), module)
                free(live, module)
            transients = [alloc(workspace) for workspace in self._decode_workspaces]
            for tensor in reversed(transients):
                free(tensor)

        # The last stage samples the next token from one vocabulary row per
        # sequence; the logits die within the step.
        if (
            self.memory.is_last_stage
            and spec.chunk == config.parallelism.virtual_pipeline_chunks - 1
        ):
            free(alloc(self._decode_logits))

        # Sequence complete: release the micro-batch's KV caches.
        if spec.step == config.decode_steps:
            for layer in reversed(range(self.layers_per_chunk)):
                tensor = self._kv.pop((spec.microbatch, spec.chunk, layer), None)
                if tensor is not None:
                    free(tensor)

    def _backward_layer(self, spec: PhaseSpec, layer: int, scoped: _ScopedSet) -> None:
        module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
        grad_module = f"{module}.experts.grad"
        alloc, entry = self._alloc, self._entry
        is_moe = self.config.model.is_moe
        rematerialise = self.config.recompute or self.config.offload_activations
        routing = self._expert_routing.get((spec.microbatch, spec.chunk, layer), []) if is_moe else []
        transients: list[_Live] = []

        # All-to-all combine: the backward-facing mirror of the forward
        # dispatch.  Expert output gradients of the locally-processed tokens
        # are sent back to their origin ranks and this rank's share returns;
        # the staging buffers allocate before the expert gradient work and
        # overlap it through the skewed transient frees, exactly like the
        # dispatch pair overlaps the forward expert FFN.
        if is_moe:
            for comm_spec in self.memory.moe_combine_tensors(sum(routing)):
                dyn = 1 if comm_spec.tag == "a2a_combine_send" else 0
                transients.append(alloc(entry(comm_spec), grad_module, dyn))

        # ZeRO-3 re-gathers parameters for the backward pass.
        if self.config.zero_stage >= 3:
            transients.append(alloc(self._zero3_gathered))

        # Recomputation / offload re-materialises the layer's activations.
        if rematerialise:
            transients += [alloc(act, module) for act in self._dense_saved]
            if is_moe:
                transients += [alloc(static, module) for static in self._moe_static]
                for expert_index, expert_tokens in enumerate(routing):
                    experts = map(entry, self.memory.expert_tensors(expert_index, expert_tokens))
                    transients += [alloc(expert, grad_module, 1) for expert in experts]

        # Gradient temporaries.
        transients += map(alloc, self._backward_workspaces)

        # Dynamic gradient temporaries of expert layers (sizes follow routing).
        if is_moe and not rematerialise:
            for expert_index, expert_tokens in enumerate(routing):
                if expert_tokens <= 0:
                    continue
                grad_spec = TensorSpec(
                    f"expert{expert_index}_dgrad",
                    max(512, expert_tokens * self.config.model.hidden_size * 2),
                    TensorCategory.EXPERT_ACTIVATION,
                )
                transients.append(alloc(entry(grad_spec), grad_module, 1))

        self._defer_frees(transients)

        # Finally release the scoped activations this layer saved in forward.
        for tensor in reversed(scoped.by_layer.pop(layer, [])):
            self._free(tensor, tensor[6])

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
        for tensor in reversed(scoped.boundary):
            self._free(tensor)
        scoped.boundary.clear()

        # ZeRO overlaps gradient reduce-scatter buckets with the last
        # micro-batch's backward pass.
        if self.config.uses_distributed_optimizer and spec.microbatch == self.config.num_microbatches - 1:
            for _ in range(4):
                self._free(self._alloc(self._grad_bucket))

    def _emit_optimizer(self) -> None:
        if self.config.uses_distributed_optimizer:
            for _ in range(4):
                self._free(self._alloc(self._param_gather))
        # Small step temporaries (grad-norm scalars, LR state, ...).
        for _ in range(2):
            self._free(self._alloc(self._optimizer_scratch))
