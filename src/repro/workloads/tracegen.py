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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.columns import ALLOC, CATEGORY_CODES, FREE, ColumnBuilder
from repro.core.events import Phase, PhaseKind, TensorCategory
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


@dataclass
class _LiveTensor:
    """Book-keeping for an allocation that is waiting to be freed."""

    req_id: int
    spec: TensorSpec
    module: str = ""
    dyn: bool = False
    free_module: str = ""


@dataclass
class _ScopedSet:
    """Scoped tensors of one (micro-batch, chunk), grouped by layer."""

    by_layer: dict[int, list[_LiveTensor]] = field(default_factory=dict)
    boundary: list[_LiveTensor] = field(default_factory=list)  # embedding / pp buffers

    def add(self, layer: int, tensor: _LiveTensor) -> None:
        self.by_layer.setdefault(layer, []).append(tensor)


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
        # Mutable generation state (re-initialised on every generate() call).
        self._reset()

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
        with _obs_span(
            "tracegen.generate",
            model=self.config.model.name,
            rank=self.rank,
            ep=self.ep_rank,
        ):
            return self._generate()

    def _generate(self) -> Trace:
        self._reset()
        schedule = build_schedule(
            self.config.parallelism,
            self.config.num_microbatches,
            self.rank,
            workload_kind=self.config.workload_kind,
            decode_steps=self.config.decode_steps,
        )
        for spec in schedule:
            phase = self._new_phase(spec)
            if spec.kind is PhaseKind.INIT:
                self._emit_init(phase)
            elif spec.kind is PhaseKind.FORWARD:
                self._emit_forward(phase, spec)
            elif spec.kind is PhaseKind.BACKWARD:
                self._emit_backward(phase, spec)
            elif spec.kind is PhaseKind.DECODE:
                self._emit_decode(phase, spec)
            elif spec.kind is PhaseKind.OPTIMIZER:
                self._emit_optimizer(phase)
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
        module_spans = {name: (span[0], span[1]) for name, span in self._module_spans.items()}
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
        self._clock = 0
        self._next_req_id = 0
        self._scoped: dict[tuple[int, int], _ScopedSet] = {}
        self._offloaded: dict[tuple[int, int], dict[int, list[TensorSpec]]] = {}
        self._expert_routing: dict[tuple[int, int, int], list[int]] = {}
        self._module_spans: dict[str, list[int]] = {}
        self._deferred: list[tuple[int, _LiveTensor]] = []
        self._phase_step = 0
        # Live KV caches of generation workloads, keyed (microbatch, chunk,
        # layer); re-bound on every decode-step re-allocation, popped when the
        # micro-batch's sequence completes.
        self._kv: dict[tuple[int, int, int], _LiveTensor] = {}

    # ------------------------------------------------------------------ #
    # Deferred (asynchronously skewed) transient frees
    # ------------------------------------------------------------------ #
    def _defer_frees(self, tensors: list[_LiveTensor]) -> None:
        """Queue transient frees to be issued ``async_free_skew`` layers later."""
        release_step = self._phase_step + self.async_free_skew
        for tensor in reversed(tensors):
            self._deferred.append((release_step, tensor))

    def _flush_deferred(self, phase: Phase, *, everything: bool = False) -> None:
        """Issue queued frees whose release step has been reached."""
        remaining: list[tuple[int, _LiveTensor]] = []
        for release_step, tensor in self._deferred:
            if everything or release_step <= self._phase_step:
                self._free(tensor, phase)
            else:
                remaining.append((release_step, tensor))
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

    def _tick(self) -> int:
        time = self._clock
        self._clock += 1
        return time

    def _touch_module(self, module: str, time: int) -> None:
        if not module:
            return
        span = self._module_spans.setdefault(module, [time, time])
        span[0] = min(span[0], time)
        span[1] = max(span[1], time)

    def _jitter(self, spec: TensorSpec, microbatch: int) -> TensorSpec:
        """Apply the per-micro-batch size variation to activation-like tensors."""
        if spec.category not in (
            TensorCategory.ACTIVATION,
            TensorCategory.TEMPORARY,
            TensorCategory.EXPERT_ACTIVATION,
        ):
            return spec
        factor = self.size_jitter[microbatch % len(self.size_jitter)]
        if factor == 1.0:
            return spec
        size = max(512, ((int(spec.size * factor) + 511) // 512) * 512)
        return TensorSpec(spec.tag, size, spec.category, spec.saved_for_backward)

    def _alloc(
        self,
        spec: TensorSpec,
        phase: Phase,
        *,
        module: str = "",
        dyn: bool = False,
        free_module: str = "",
    ) -> _LiveTensor:
        if phase.microbatch >= 0:
            spec = self._jitter(spec, phase.microbatch)
        req_id = self._next_req_id
        self._next_req_id += 1
        time = self._tick()
        self._columns.append(
            ALLOC,
            req_id,
            spec.size,
            time,
            phase.index,
            module,
            dyn,
            CATEGORY_CODES[spec.category],
            spec.tag,
        )
        self._touch_module(module, time)
        return _LiveTensor(req_id=req_id, spec=spec, module=module, dyn=dyn, free_module=free_module)

    def _free(self, tensor: _LiveTensor, phase: Phase, *, module: str | None = None) -> None:
        free_module = module if module is not None else (tensor.free_module or tensor.module)
        time = self._tick()
        self._columns.append(
            FREE,
            tensor.req_id,
            tensor.spec.size,
            time,
            phase.index,
            free_module,
            tensor.dyn,
            CATEGORY_CODES[tensor.spec.category],
            tensor.spec.tag,
        )
        self._touch_module(free_module, time)

    # ------------------------------------------------------------------ #
    # Phase bodies
    # ------------------------------------------------------------------ #
    def _emit_init(self, phase: Phase) -> None:
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
                sharded = TensorSpec(
                    spec.tag,
                    max(512, spec.size // self.memory.dp),
                    spec.category,
                )
                self._alloc(sharded, phase)
                continue
            self._alloc(spec, phase)

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

    def _dense_saved_specs(self) -> list[TensorSpec]:
        """Saved activations of the non-expert part of one layer."""
        specs = self.memory.saved_activation_tensors()
        if self.config.model.is_moe:
            specs = [s for s in specs if not s.tag.startswith("mlp")]
        return specs

    def _forward_layer(
        self,
        phase: Phase,
        spec: PhaseSpec,
        layer: int,
        scoped: _ScopedSet,
    ) -> None:
        key = (spec.microbatch, spec.chunk)
        module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
        transients: list[_LiveTensor] = []

        # ZeRO-3 gathers the layer's full parameters just-in-time.
        if self.config.zero_stage >= 3:
            gathered = TensorSpec("zero3_gathered_params", self.memory.layer_weight_bytes(),
                                  TensorCategory.COMM_BUFFER)
            transients.append(self._alloc(gathered, phase))

        # Operator workspaces.
        for workspace in self.memory.forward_transient_tensors():
            transients.append(self._alloc(workspace, phase))

        # Saved activations (their fate depends on recomputation / offload).
        saved_specs = self._dense_saved_specs()
        if self.config.model.is_moe:
            saved_specs = saved_specs + self.memory.moe_static_tensors()
        if self.config.recompute or self.config.offload_activations:
            checkpoint = self.memory.recompute_checkpoint_tensors()
            for ckpt in checkpoint:
                scoped.add(layer, self._alloc(ckpt, phase, module=module))
            # The full activations still materialise during the forward pass,
            # but are released (recompute) or offloaded before it ends.
            for act in saved_specs:
                transients.append(self._alloc(act, phase, module=module))
        else:
            for act in saved_specs:
                scoped.add(layer, self._alloc(act, phase, module=module))

        # MoE expert activations: dynamic sizes decided by token routing.
        if self.config.model.is_moe and self._router is not None:
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
                transients.append(
                    self._alloc(
                        comm_spec,
                        phase,
                        module=expert_module,
                        dyn=comm_spec.tag == "a2a_dispatch_recv",
                    )
                )
            for expert_index, expert_tokens in enumerate(routing):
                for expert_spec in self.memory.expert_tensors(expert_index, expert_tokens):
                    if self.config.recompute or self.config.offload_activations:
                        transients.append(
                            self._alloc(expert_spec, phase, module=expert_module, dyn=True)
                        )
                    else:
                        scoped.add(
                            layer,
                            self._alloc(
                                expert_spec,
                                phase,
                                module=expert_module,
                                dyn=True,
                                free_module=grad_module,
                            ),
                        )

        # Transients die shortly after the layer finishes; the skewed release
        # models asynchronous kernel / communication overlap.
        self._defer_frees(transients)

    def _emit_forward(self, phase: Phase, spec: PhaseSpec) -> None:
        key = (spec.microbatch, spec.chunk)
        scoped = self._scoped.setdefault(key, _ScopedSet())
        self._phase_step = 0

        # Pipeline-boundary activations only exist on chunk 0 of the stage.
        if spec.chunk == 0:
            boundary_spec = (
                self.memory.embedding_activation()
                if self.memory.is_first_stage
                else self.memory.pipeline_recv_buffer()
            )
            scoped.boundary.append(self._alloc(boundary_spec, phase))

        generation_kv = (
            self.config.workload_kind == "generation" and self.config.decode_steps > 0
        )
        for layer in range(self.layers_per_chunk):
            self._phase_step = layer
            self._flush_deferred(phase)
            self._forward_layer(phase, spec, layer, scoped)
            if generation_kv:
                # Prefill fills the KV cache of the prompt context; the cache
                # outlives the forward pass (it is what decode steps read),
                # so it is tracked separately from the scoped activations.
                kv_spec = self.memory.kv_cache_tensor(
                    layer, self.config.context_tokens_at(0)
                )
                module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
                self._kv[(spec.microbatch, spec.chunk, layer)] = self._alloc(
                    kv_spec, phase, module=module
                )
        self._flush_deferred(phase, everything=True)

        # The last stage projects to the (sharded) vocabulary at the end of
        # its final chunk; the fp32 logits live until the micro-batch's
        # backward pass finishes, like the other boundary activations.
        if (
            self.memory.is_last_stage
            and spec.chunk == self.config.parallelism.virtual_pipeline_chunks - 1
        ):
            scoped.boundary.append(self._alloc(self.memory.logits_activation(), phase))

        # Forward-only workloads retain nothing for a backward pass: the
        # micro-batch's scoped activations (and boundary tensors, logits
        # included) die at the end of its forward.  Only the KV caches above
        # survive into the decode steps.
        if self.config.workload_kind != "training":
            for layer in reversed(range(self.layers_per_chunk)):
                for tensor in reversed(scoped.by_layer.pop(layer, [])):
                    self._free(tensor, phase, module=tensor.free_module or "")
            for tensor in reversed(scoped.boundary):
                self._free(tensor, phase)
            scoped.boundary.clear()

    def _emit_decode(self, phase: Phase, spec: PhaseSpec) -> None:
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
        old_context = config.context_tokens_at(spec.step - 1)
        new_context = config.context_tokens_at(spec.step)
        for layer in range(self.layers_per_chunk):
            key = (spec.microbatch, spec.chunk, layer)
            module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
            live = self._kv.get(key)
            if live is not None and new_context > old_context:
                grown = self.memory.kv_cache_tensor(layer, new_context)
                self._kv[key] = self._alloc(grown, phase, module=module)
                self._free(live, phase, module=module)
            transients = [
                self._alloc(workspace, phase)
                for workspace in self.memory.decode_transient_tensors()
            ]
            for tensor in reversed(transients):
                self._free(tensor, phase)

        # The last stage samples the next token from one vocabulary row per
        # sequence; the logits die within the step.
        if (
            self.memory.is_last_stage
            and spec.chunk == config.parallelism.virtual_pipeline_chunks - 1
        ):
            logits = self._alloc(self.memory.decode_logits_tensor(), phase)
            self._free(logits, phase)

        # Sequence complete: release the micro-batch's KV caches.
        if spec.step == config.decode_steps:
            for layer in reversed(range(self.layers_per_chunk)):
                tensor = self._kv.pop((spec.microbatch, spec.chunk, layer), None)
                if tensor is not None:
                    self._free(tensor, phase)

    def _backward_layer(
        self,
        phase: Phase,
        spec: PhaseSpec,
        layer: int,
        scoped: _ScopedSet,
    ) -> None:
        module = f"mb{spec.microbatch}.c{spec.chunk}.layer{layer}"
        grad_module = f"{module}.experts.grad"
        transients: list[_LiveTensor] = []

        # All-to-all combine: the backward-facing mirror of the forward
        # dispatch.  Expert output gradients of the locally-processed tokens
        # are sent back to their origin ranks and this rank's share returns;
        # the staging buffers allocate before the expert gradient work and
        # overlap it through the skewed transient frees, exactly like the
        # dispatch pair overlaps the forward expert FFN.
        if self.config.model.is_moe:
            routing = self._expert_routing.get((spec.microbatch, spec.chunk, layer), [])
            for comm_spec in self.memory.moe_combine_tensors(sum(routing)):
                transients.append(
                    self._alloc(
                        comm_spec,
                        phase,
                        module=grad_module,
                        dyn=comm_spec.tag == "a2a_combine_send",
                    )
                )

        # ZeRO-3 re-gathers parameters for the backward pass.
        if self.config.zero_stage >= 3:
            gathered = TensorSpec("zero3_gathered_params", self.memory.layer_weight_bytes(),
                                  TensorCategory.COMM_BUFFER)
            transients.append(self._alloc(gathered, phase))

        # Recomputation / offload re-materialises the layer's activations.
        if self.config.recompute or self.config.offload_activations:
            for act in self._dense_saved_specs():
                transients.append(self._alloc(act, phase, module=module))
            if self.config.model.is_moe:
                for static_spec in self.memory.moe_static_tensors():
                    transients.append(self._alloc(static_spec, phase, module=module))
                routing = self._expert_routing.get((spec.microbatch, spec.chunk, layer), [])
                for expert_index, expert_tokens in enumerate(routing):
                    for expert_spec in self.memory.expert_tensors(expert_index, expert_tokens):
                        transients.append(
                            self._alloc(expert_spec, phase, module=grad_module, dyn=True)
                        )

        # Gradient temporaries.
        for workspace in self.memory.backward_transient_tensors():
            transients.append(self._alloc(workspace, phase))

        # Dynamic gradient temporaries of expert layers (sizes follow routing).
        if self.config.model.is_moe and not (self.config.recompute or self.config.offload_activations):
            routing = self._expert_routing.get((spec.microbatch, spec.chunk, layer), [])
            for expert_index, expert_tokens in enumerate(routing):
                if expert_tokens <= 0:
                    continue
                grad_spec = TensorSpec(
                    f"expert{expert_index}_dgrad",
                    max(512, expert_tokens * self.config.model.hidden_size * 2),
                    TensorCategory.EXPERT_ACTIVATION,
                )
                transients.append(self._alloc(grad_spec, phase, module=grad_module, dyn=True))

        self._defer_frees(transients)

        # Finally release the scoped activations this layer saved in forward.
        for tensor in reversed(scoped.by_layer.pop(layer, [])):
            free_module = tensor.free_module or ""
            self._free(tensor, phase, module=free_module)

    def _emit_backward(self, phase: Phase, spec: PhaseSpec) -> None:
        key = (spec.microbatch, spec.chunk)
        scoped = self._scoped.get(key, _ScopedSet())
        self._phase_step = 0

        for step, layer in enumerate(reversed(range(self.layers_per_chunk))):
            self._phase_step = step
            self._flush_deferred(phase)
            self._backward_layer(phase, spec, layer, scoped)
        self._flush_deferred(phase, everything=True)

        # Pipeline-boundary activations die once the whole chunk is done.
        for tensor in reversed(scoped.boundary):
            self._free(tensor, phase)
        scoped.boundary.clear()

        # ZeRO overlaps gradient reduce-scatter buckets with the last
        # micro-batch's backward pass.
        if self.config.uses_distributed_optimizer and spec.microbatch == self.config.num_microbatches - 1:
            bucket = TensorSpec("grad_rs_bucket", self.memory.grad_bucket_bytes(),
                                TensorCategory.COMM_BUFFER)
            for _ in range(4):
                tensor = self._alloc(bucket, phase)
                self._free(tensor, phase)

    def _emit_optimizer(self, phase: Phase) -> None:
        if self.config.uses_distributed_optimizer:
            gather = TensorSpec("param_allgather", self.memory.param_gather_bytes(),
                                TensorCategory.COMM_BUFFER)
            for _ in range(4):
                tensor = self._alloc(gather, phase)
                self._free(tensor, phase)
        # Small step temporaries (grad-norm scalars, LR state, ...).
        for _ in range(2):
            scratch = TensorSpec("optimizer_scratch", 4 * 1024 * 1024, TensorCategory.TEMPORARY)
            tensor = self._alloc(scratch, phase)
            self._free(tensor, phase)
