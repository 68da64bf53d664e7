#!/usr/bin/env python3
"""Scenario: Llama2-7B with recomputation across micro-batch sizes.

Recomputation is the classic memory-saving technique, yet the paper shows it
is also the configuration where online allocators fragment the most.  This
example sweeps the micro-batch size (as in Figure 10) and compares every
baseline allocator against STAlloc on a simulated 8x A800 node.

Run with:  python examples/llama_recompute_sweep.py
"""

from repro.experiments.common import run_lineups
from repro.workloads import ParallelismConfig, get_model, preset_config


def main() -> None:
    model = get_model("llama2-7b")
    parallelism = ParallelismConfig(tensor_parallel=2, pipeline_parallel=4, data_parallel=1)
    lineup = ["torch2.0", "gmlake", "torch2.3", "torch_es", "stalloc"]  # Figure 8 order

    header = f"{'mbs':>4s} | " + " | ".join(f"{name:>9s}" for name in lineup)
    print("Memory efficiency (%) of Llama2-7B + recomputation on 8x A800")
    print(header)
    print("-" * len(header))
    sizes = (1, 2, 4, 8)
    configs = {
        size: preset_config(
            model, "R", parallelism=parallelism, micro_batch_size=size, num_microbatches=16
        )
        for size in sizes
    }
    # One run_jobs call: each size's trace is generated once and replayed on
    # rank 0 through the whole lineup.
    jobs = run_lineups(configs, lineup, device_name="A800-80GB")
    for micro_batch_size in sizes:
        cells = []
        for name in lineup:
            run = jobs[micro_batch_size, name].class_runs[0]
            cell = f"{100 * run.memory_efficiency:8.1f}" + ("!" if not run.success else " ")
            cells.append(cell)
        print(f"{micro_batch_size:>4d} | " + " | ".join(cells))
    print("('!' marks an out-of-memory failure on the 80 GB device)")


if __name__ == "__main__":
    main()
