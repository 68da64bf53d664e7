"""Distributed-training parallelism configuration.

Only the dimensions that affect a single rank's memory behaviour are modelled:
tensor parallelism shrinks per-rank weights and partitionable activations,
pipeline parallelism assigns a layer slice per stage and determines how many
micro-batches are in flight, virtual pipelining multiplies the in-flight
chunks, expert parallelism splits MoE experts, and data parallelism only
matters through ZeRO-style optimizer-state sharding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.domain import check_fields
#: A simulated rank coordinate: ``(pipeline rank, expert-parallel rank)``.
RankCoord = tuple[int, int]


def normalize_rank(rank) -> RankCoord:
    """Coerce a rank selector into a ``(pp_rank, ep_rank)`` coordinate.

    Plain integers are pipeline ranks (expert-parallel rank 0) -- the
    single-axis form every pre-EP API accepted; 2-sequences are taken as
    ``(pp, ep)`` verbatim.
    """
    if isinstance(rank, bool):
        raise ValueError(f"rank must be an int or (pp, ep) pair, got {rank!r}")
    if isinstance(rank, int):
        return (rank, 0)
    if isinstance(rank, (tuple, list)) and len(rank) == 2:
        pp, ep = rank
        if isinstance(pp, int) and isinstance(ep, int) \
                and not isinstance(pp, bool) and not isinstance(ep, bool):
            return (pp, ep)
    raise ValueError(f"rank must be an int or (pp, ep) pair, got {rank!r}")


def rank_label(rank) -> str:
    """Human/JSON-friendly name of one rank: ``"2"`` or ``"2.1"`` (pp.ep).

    Integer ranks keep their plain rendering so result rows of non-EP jobs
    are byte-identical to earlier releases (``--compare`` baselines keep
    matching); coordinates render as ``pp.ep``.
    """
    if isinstance(rank, int):
        return str(rank)
    pp, ep = normalize_rank(rank)
    return f"{pp}.{ep}"


def balanced_split(total: int, bins: int) -> list[int]:
    """Deterministic balanced partition of ``total`` items into ``bins``.

    Bresenham-style: bin ``i`` receives ``round(total*(i+1)/bins) -
    round(total*i/bins)`` items, so every bin gets ``total // bins`` or one
    more, the remainder is spread evenly across the range (not piled onto the
    first bins, which would skew the first EP rank's slice), and the counts
    sum to ``total`` exactly.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edges = [(total * i) // bins for i in range(bins + 1)]
    return [edges[i + 1] - edges[i] for i in range(bins)]


@dataclass(frozen=True)
class ParallelismConfig:
    """Parallelism degrees for one training job."""

    # Field metadata declares a knob once: ``label`` abbreviates it in row
    # labels, ``flag`` and ``help`` (with optional ``metavar`` / ``choices``)
    # make it a ``timeline`` option typed and defaulted by the field, and
    # ``min`` / ``max`` / ``above`` / ``choices`` bound the values
    # :func:`~repro.domain.check_fields` admits.
    tensor_parallel: int = field(default=1, metadata={"label": "tp", "min": 1})
    pipeline_parallel: int = field(default=1, metadata={
        "label": "pp", "flag": "--pp", "min": 1,
        "help": "pipeline-parallel degree (default: %(default)s)",
    })
    data_parallel: int = field(default=1, metadata={
        "label": "dp", "flag": "--dp", "min": 1,
        "help": "data-parallel degree (default: %(default)s)",
    })
    expert_parallel: int = field(default=1, metadata={
        "label": "ep", "flag": "--ep", "min": 1,
        "help": "expert-parallel degree (default: %(default)s)",
    })
    virtual_pipeline_chunks: int = field(default=1, metadata={
        "label": "vpp", "flag": "--chunks", "min": 1,
        "help": "virtual-pipeline chunks (default: %(default)s)",
    })
    sequence_parallel: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.virtual_pipeline_chunks > 1 and self.pipeline_parallel == 1:
            raise ValueError("virtual pipeline requires pipeline_parallel > 1")

    @property
    def num_gpus(self) -> int:
        """World size implied by the parallelism degrees."""
        return self.tensor_parallel * self.pipeline_parallel * self.data_parallel

    @property
    def uses_virtual_pipeline(self) -> bool:
        return self.virtual_pipeline_chunks > 1

    def layers_per_rank(self, num_layers: int) -> int:
        """Transformer layers held by one pipeline rank."""
        if num_layers % self.pipeline_parallel:
            raise ValueError(
                f"num_layers ({num_layers}) must be divisible by pipeline_parallel "
                f"({self.pipeline_parallel})"
            )
        return num_layers // self.pipeline_parallel

    def layers_per_chunk(self, num_layers: int) -> int:
        """Transformer layers in one virtual-pipeline model chunk on one rank."""
        per_rank = self.layers_per_rank(num_layers)
        if per_rank % self.virtual_pipeline_chunks:
            raise ValueError(
                f"layers per rank ({per_rank}) must be divisible by "
                f"virtual_pipeline_chunks ({self.virtual_pipeline_chunks})"
            )
        return per_rank // self.virtual_pipeline_chunks

    # ------------------------------------------------------------------ #
    # Per-rank memory equivalence
    # ------------------------------------------------------------------ #
    def in_flight_microbatches(self, rank: int, num_microbatches: int) -> int:
        """Peak concurrently-live (micro-batch, chunk) units on pipeline ``rank``.

        Under 1F1B (and its interleaved variant) stage ``r`` warms up with
        ``min(p - r, m)`` micro-batches, so earlier stages pin more activation
        memory -- the per-stage asymmetry job-level simulation has to model.
        """
        if not 0 <= rank < self.pipeline_parallel:
            raise ValueError(
                f"rank must be in [0, {self.pipeline_parallel}), got {rank}"
            )
        chunks = self.virtual_pipeline_chunks
        return min(num_microbatches * chunks, (self.pipeline_parallel - rank) * chunks)

    def rank_memory_key(
        self, rank: int, num_microbatches: int, *, ep_rank: int = 0,
        expert_asymmetry: bool = False,
    ) -> tuple:
        """Hashable key identifying the memory behaviour of one rank.

        Two ranks with equal keys generate byte-identical allocation traces:
        the trace depends on the pipeline rank only through (a) whether it is
        the first stage (embedding + embedding activations), (b) whether it is
        the last stage (LM head + logits), and (c) how many micro-batches its
        1F1B position keeps in flight.  With ``expert_asymmetry`` (an MoE job
        whose router imbalance skews per-expert token loads at runtime) the
        expert-parallel rank becomes part of the key as well: each EP rank
        observes a different slice of the routed load, so EP peers stop being
        interchangeable.  Without it every EP rank sees the same (balanced)
        load and the key deliberately ignores ``ep_rank``.
        """
        key = (
            rank == 0,
            rank == self.pipeline_parallel - 1,
            self.in_flight_microbatches(rank, num_microbatches),
        )
        if expert_asymmetry:
            if not 0 <= ep_rank < self.expert_parallel:
                raise ValueError(
                    f"ep_rank must be in [0, {self.expert_parallel}), got {ep_rank}"
                )
            key += (ep_rank,)
        return key

    def rank_equivalence_classes(
        self, num_microbatches: int, *, expert_asymmetry: bool = False
    ) -> list[tuple]:
        """Group ranks into memory-equivalent classes.

        Returns the classes in ascending order of their representative (first)
        rank; simulating one representative per class is enough to know every
        rank's memory behaviour, so a PP=8 job needs at most 8 -- and often
        fewer -- trace generations.  Tensor/data-parallel peers are already
        implicitly deduplicated: they do not appear as distinct ranks because
        their memory behaviour is identical within a pipeline stage.

        Without ``expert_asymmetry`` the classes partition the pipeline ranks
        (plain ints, the historical behaviour) and expert-parallel peers
        collapse into their stage's class.  With it they partition the full
        ``(pp, ep)`` grid: every coordinate appears in exactly one class, and
        EP peers land in distinct classes because their routed token loads
        differ at runtime.
        """
        if not expert_asymmetry or self.expert_parallel == 1:
            classes: dict[tuple, list[int]] = {}
            for rank in range(self.pipeline_parallel):
                classes.setdefault(
                    self.rank_memory_key(rank, num_microbatches), []
                ).append(rank)
            return sorted((tuple(members) for members in classes.values()), key=lambda c: c[0])
        coord_classes: dict[tuple, list[RankCoord]] = {}
        for rank in range(self.pipeline_parallel):
            for ep_rank in range(self.expert_parallel):
                key = self.rank_memory_key(
                    rank, num_microbatches, ep_rank=ep_rank, expert_asymmetry=True
                )
                coord_classes.setdefault(key, []).append((rank, ep_rank))
        return sorted((tuple(members) for members in coord_classes.values()), key=lambda c: c[0])

    def describe(self) -> str:
        """Compact label like ``TP2 PP4 DP2 VPP2``."""
        parts = [f"TP{self.tensor_parallel}", f"PP{self.pipeline_parallel}", f"DP{self.data_parallel}"]
        if self.expert_parallel > 1:
            parts.append(f"EP{self.expert_parallel}")
        if self.uses_virtual_pipeline:
            parts.append(f"VPP{self.virtual_pipeline_chunks}")
        if self.sequence_parallel:
            parts.append("SP")
        return " ".join(parts)
