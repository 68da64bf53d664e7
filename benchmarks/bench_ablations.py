"""Ablation benchmarks for the design choices called out in DESIGN.md.

These compare the static-plan quality (reserved pool size) and planning cost
of STAlloc's design against the ablated variants:

* HomoPhase fusion on vs off (the TMP acceptance test of Figure 7);
* descending vs ascending HomoSize planning order;
* gap insertion of smaller groups into larger layers on vs off, on the dense
  profile and on a generation profile (gpt2-345m, 16 decode steps), where the
  concurrent KV plans share the idle prefill layer side by side;
* the paper's insertion-based fusion greedy vs the repack-based fusion.
"""

from __future__ import annotations

import pytest

from repro.core.profiler import AllocationProfiler
from repro.core.synthesizer import PlanSynthesizer, SynthesizerConfig
from repro.gpu.device import GIB
from repro.simulator import ExecutionContext
from repro.experiments.common import A800_WORKLOADS

from bench_plan_synthesis import PRESETS


@pytest.fixture(scope="module")
def llama_profile():
    config = A800_WORKLOADS["llama2-7b"].preset("R")
    return AllocationProfiler().profile(ExecutionContext().trace(config))


@pytest.fixture(scope="module")
def generation_profile():
    config = PRESETS["gpt2-345m-gen16"]()
    return AllocationProfiler().profile(ExecutionContext().trace(config))


def _report(capsys, label: str, pool_size: int, baseline: int) -> None:
    with capsys.disabled():
        delta = 100.0 * (pool_size - baseline) / baseline if baseline else 0.0
        print(f"\n[ablation] {label}: static pool {pool_size / GIB:.2f} GiB ({delta:+.2f}% vs default)")


@pytest.fixture(scope="module")
def default_pool_size(llama_profile):
    return PlanSynthesizer().synthesize(llama_profile).pool_size


def test_default_design(benchmark, llama_profile, capsys, default_pool_size):
    plan = benchmark(lambda: PlanSynthesizer().synthesize(llama_profile))
    _report(capsys, "default (fusion + descending + gap insertion)", plan.pool_size, default_pool_size)


def test_without_fusion(benchmark, llama_profile, capsys, default_pool_size):
    synthesizer = PlanSynthesizer(SynthesizerConfig(enable_fusion=False))
    plan = benchmark(lambda: synthesizer.synthesize(llama_profile))
    _report(capsys, "no HomoPhase fusion", plan.pool_size, default_pool_size)
    assert plan.pool_size >= default_pool_size * 0.999


def test_ascending_size_order(benchmark, llama_profile, capsys, default_pool_size):
    synthesizer = PlanSynthesizer(SynthesizerConfig(descending_size_order=False))
    plan = benchmark(lambda: synthesizer.synthesize(llama_profile))
    _report(capsys, "ascending HomoSize order", plan.pool_size, default_pool_size)
    assert plan.pool_size >= default_pool_size * 0.999


def test_without_gap_insertion(benchmark, llama_profile, capsys, default_pool_size):
    synthesizer = PlanSynthesizer(SynthesizerConfig(enable_gap_insertion=False))
    plan = benchmark(lambda: synthesizer.synthesize(llama_profile))
    _report(capsys, "no gap insertion", plan.pool_size, default_pool_size)
    assert plan.pool_size >= default_pool_size * 0.999


def test_generation_gap_insertion_pair(benchmark, generation_profile, capsys):
    default = PlanSynthesizer().synthesize(generation_profile)
    synthesizer = PlanSynthesizer(SynthesizerConfig(enable_gap_insertion=False))
    plan = benchmark(lambda: synthesizer.synthesize(generation_profile))
    _report(capsys, "generation, no gap insertion", plan.pool_size, default.pool_size)
    assert default.synthesis_info["subrange_insertions"] > 0
    assert plan.synthesis_info["subrange_insertions"] == 0
    assert plan.pool_size >= default.pool_size


def test_insertion_fusion_strategy(benchmark, llama_profile, capsys, default_pool_size):
    synthesizer = PlanSynthesizer(SynthesizerConfig(fusion_strategy="insertion"))
    plan = benchmark(lambda: synthesizer.synthesize(llama_profile))
    _report(capsys, "paper insertion-greedy fusion", plan.pool_size, default_pool_size)
