"""Workload generation: the seed goes in, spec files come out.

The program under test only ever sees the generated ``<name>.json`` spec
files; nothing else of the benchmark reaches it.  The seed becomes the spec's
``seed`` field, which keys every trace fingerprint (so no cache entry is
shared between seeds) and draws the MoE router's token routing -- dense
traces are otherwise seed-independent by construction of the generator.

Sizes are the issue's paper-scale configurations cut to three to five seconds
of cold CLI time each, so that five cold and ten warm reps of one workload
fit in one contract run (see README.md, "Rep sizing").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI subcommand that consumes the spec: ``sweep`` or ``search``.
    kind: str
    why: str
    spec: dict

    def spec_text(self, seed: int) -> str:
        """The spec document for ``seed``; equal seeds give equal bytes."""
        return json.dumps(dict(self.spec, seed=int(seed)), indent=1, sort_keys=True) + "\n"

    def write_spec(self, seed: int, directory: Path) -> Path:
        path = Path(directory) / f"{self.name}.json"
        path.write_text(self.spec_text(seed), encoding="utf-8")
        return path


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "dense-plan",
            "sweep",
            "paper's dense testbed (llama2-7b tp2 pp4, presets R and VR, all ranks): "
            "plan synthesis does most of the work and stateful replay little",
            {
                "name": "dense-plan",
                "model": "llama2-7b",
                "parallelism": {
                    "tensor_parallel": 2,
                    "pipeline_parallel": 4,
                    "data_parallel": 1,
                },
                "base": {"num_microbatches": 12, "micro_batch_size": 2},
                "grid": {"preset": ["R", "VR"]},
                "allocators": ["torch2.3", "stalloc"],
                "ranks": "all",
            },
        ),
        Workload(
            "moe-replay",
            "sweep",
            "26k-event dynamic MoE traces through all four allocator classes: the per-event "
            "replay loop dominates, so it bypasses plan-synthesis changes and exercises replay",
            {
                "name": "moe-replay",
                "model": "qwen1.5-moe-a2.7b",
                "parallelism": {
                    "pipeline_parallel": 4,
                    "data_parallel": 2,
                    "expert_parallel": 2,
                },
                "base": {
                    "num_microbatches": 8,
                    "micro_batch_size": 4,
                    "moe_comm_factor": 1.0,
                },
                "grid": {"preset": ["R"]},
                "allocators": ["torch2.3", "torch_es", "gmlake", "stalloc"],
                # First and last stage, one EP coordinate each (the issue's
                # [0, 3] expands to four coordinates and twice the time).
                "ranks": [[0, 0], [3, 1]],
            },
        ),
        Workload(
            "gen-decode",
            "sweep",
            "generation: each decode step re-allocates every KV cache one token larger, so sizes "
            "never repeat, the planner leaves its homophase fast case and plan quality is weakest",
            {
                "name": "gen-decode",
                "model": "gpt2-345m",
                "parallelism": {"pipeline_parallel": 2, "data_parallel": 2},
                "base": {
                    "num_microbatches": 4,
                    "micro_batch_size": 4,
                    "workload_kind": "generation",
                },
                "grid": {"decode_steps": [8, 16]},
                "allocators": ["torch2.3", "torch_es", "stalloc"],
                "ranks": "all",
            },
        ),
        Workload(
            "search-wide",
            "search",
            "40-candidate search on a tiered 2x4 cluster where both prunes fire: per-point costs "
            "(tracegen, cache writes, bounds, row assembly) carry weight, core layers do little",
            {
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
            },
        ),
    )
}

#: Sub-second stand-in used only by the self-test: it drives the same
#: pipeline end to end without paying for a real workload.
SMOKE = Workload(
    "smoke",
    "sweep",
    "self-test stand-in, never part of a measured run",
    {
        "name": "smoke",
        "model": "gpt2-345m",
        "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
        "base": {"num_microbatches": 2},
        "grid": {"micro_batch_size": [1, 2], "recompute": [False, True]},
        "allocators": ["torch2.3", "stalloc"],
        "scale": 0.25,
    },
)


def get_workload(name: str) -> Workload:
    if name == SMOKE.name:
        return SMOKE
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}"
        ) from None
