#!/usr/bin/env python3
"""Scenario: rescuing a high-throughput configuration from OOM.

The paper's Table 1 story: the fastest training configuration of Qwen2.5-14B
on 16 GPUs (virtual pipeline, TP=2) OOMs under PyTorch because fragmentation
inflates reserved memory, forcing developers onto slower configurations.
STAlloc's defragmentation makes the original configuration fit, recovering the
throughput gap.  This example evaluates each candidate configuration's
feasibility per allocator and reports the throughput cost of every fallback.

Run with:  python examples/config_rescue.py
"""

from repro.experiments.common import run_lineups
from repro.experiments.tables import _table1_configs
from repro.timeline import simulate_timeline


def main() -> None:
    lineup = ["torch2.6", "torch_es", "stalloc"]
    configs = dict(_table1_configs(micro_batch_size=2, num_microbatches=8))
    # One run_jobs call replays every (configuration, allocator) pair on rank 0.
    jobs = run_lineups(configs, lineup, device_name="H200-141GB")
    rows = [
        (label, config, {name: jobs[label, name] for name in lineup})
        for label, config in configs.items()
    ]

    # Each configuration's own throughput: its timeline, priced overhead-free.
    throughput = {
        label: simulate_timeline(config, gpu="H200-141GB").tflops_per_gpu
        for label, config in configs.items()
    }
    best_tflops = max(throughput.values())
    print(f"{'configuration':<24s} {'PyTorch':>8s} {'ES':>8s} {'STAlloc':>8s} {'TFLOPS':>8s} {'slowdown':>9s}")
    for label, config, runs in rows:
        tflops = throughput[label]
        slowdown = 100.0 * (1.0 - tflops / best_tflops)
        print(
            f"{label:<24s} "
            f"{'OK' if runs['torch2.6'].success else 'OOM':>8s} "
            f"{'OK' if runs['torch_es'].success else 'OOM':>8s} "
            f"{'OK' if runs['stalloc'].success else 'OOM':>8s} "
            f"{tflops:8.1f} {slowdown:8.1f}%"
        )
    print("\nPick the fastest configuration whose allocator column says OK; with STAlloc that is")
    print("the original virtual-pipeline configuration, avoiding the fallback slowdowns.")


if __name__ == "__main__":
    main()
