"""Micro-benchmarks of the offline pipeline's building blocks.

Plan synthesis must stay cheap (Table 2 reports seconds to a few minutes even
for 280k-request MoE traces), so these benchmarks time the profiler pairing,
the static plan synthesis, and the dynamic-reusable-space sweep separately on
a mid-size trace, plus the runtime replay throughput of the finished plan.

Run as a script it measures what a *cold plan* costs layer by layer -- the
``trace -> profile -> synthesize -> verify -> store`` path of ROADMAP item
1(a) -- and keeps the ``BENCH_plan_synthesis.json`` trajectory::

    PYTHONPATH=src python benchmarks/bench_plan_synthesis.py            # print
    PYTHONPATH=src python benchmarks/bench_plan_synthesis.py \
        --record benchmarks/BENCH_plan_synthesis.json --note "what changed"
    PYTHONPATH=src python benchmarks/bench_plan_synthesis.py \
        --check benchmarks/BENCH_plan_synthesis.json                    # CI

It plans three shapes: the paper's dense testbed, a generation shape and an
MoE shape, whose dynamic half (HomoLayer groups, reusable spaces, the grouped
request routing) lands in ``synthesize_s`` and ``plan_bytes``.

Inside ``synthesize_s`` it times the three planning stages on their own --
``pack_s`` (HomoPhase grouping + one sweep per group), ``fuse_s`` (TMP-guided
fusion) and ``global_plan_s`` (HomoSize layering + address assignment) -- and
after it ``store_s`` (serialise + write the plan entry, ``plan_bytes`` long).

Next to the timings it records what the plan is worth -- ``pool_overhead_ratio``
(static pool / peak static demand), ``layers``, ``subrange_insertions``
(plans placed beside another occupant of a layer) and ``placement_order``
(``size``: the paper's layered plan; ``lifetime``: the longest-lifetime-first
candidate reserved strictly less).

``--check`` gates what does not depend on the machine -- the plan self-check
may cost at most ``CHECK_MAX_VALIDATE_SHARE`` of the cold plan it guards
(``profile_s + synthesize_s + store_s``, all timed in this process, so load
moves them together), a cold ``get_trace`` + ``plan_key`` must render no
JSON line of the trace (a trace's content address hashes its columns, and its
cache entry is binary), and the four quality values must equal the latest
entry's -- and what does, the way ``bench_trace_core.py`` gates ``replay_*``:
the best ``synthesize_s`` and ``global_plan_s`` reps may not fall below
``SYNTHESIZE_RATIO`` of the latest entry's rates.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.dynamic_space import locate_dynamic_reusable_spaces
from repro.core.homophase import build_homophase_groups, fuse_adjacent_groups
from repro.core.planner import build_global_plan
from repro.core.profiler import AllocationProfiler
from repro.core.stalloc import STAlloc, STAllocConfig
from repro.core.synthesizer import PlanSynthesizer
from repro.experiments.common import A800_WORKLOADS
from repro.gpu.device import Device, GIB
from repro.simulator.replay import replay_trace
from repro.simulator import ExecutionContext
from repro.sweep.cache import SweepCache
from repro.version import __version__
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.trace import Trace
from repro.workloads.training import TrainingConfig


@pytest.fixture(scope="module")
def dense_trace():
    return ExecutionContext().trace(A800_WORKLOADS["llama2-7b"].preset("R"))


@pytest.fixture(scope="module")
def moe_trace():
    return ExecutionContext().trace(A800_WORKLOADS["qwen1.5-moe-a2.7b"].preset("R"))


def test_profiler_pairing(benchmark, dense_trace):
    profile = benchmark(lambda: AllocationProfiler().profile(dense_trace))
    assert profile.num_requests == dense_trace.num_requests


def test_static_plan_synthesis(benchmark, dense_trace):
    profile = AllocationProfiler().profile(dense_trace)
    plan = benchmark(lambda: PlanSynthesizer().synthesize(profile))
    assert plan.pool_size > 0


def test_dynamic_space_location(benchmark, moe_trace):
    profile = AllocationProfiler().profile(moe_trace)
    static_plan = PlanSynthesizer().synthesize(profile).static_plan
    spaces = benchmark(
        lambda: locate_dynamic_reusable_spaces(
            profile.dynamic_groups, static_plan, profile.module_spans
        )
    )
    assert spaces


def test_runtime_replay(benchmark, dense_trace):
    stalloc = STAlloc.from_trace(dense_trace)

    def replay():
        device = Device(name="bench", capacity=200 * GIB)
        allocator = stalloc.build_runtime_allocator(device)
        return replay_trace(dense_trace, allocator)

    result = benchmark(replay)
    assert result.success


# ---------------------------------------------------------------------- #
# Script mode: the cold-plan cost trajectory (--record / --check)
# ---------------------------------------------------------------------- #
#: ``--check`` fails when ``validate_s / (profile_s + synthesize_s + store_s)``
#: exceeds this.  Measured at 1.11.0: 0.19-0.20 (llama2-7b-R) and 0.11-0.14
#: (gpt2-345m-gen16) over three runs; the gate is the larger share plus half.
CHECK_MAX_VALIDATE_SHARE = 0.30
#: ``--check`` fails when the best ``synthesize_s`` (or ``global_plan_s``) rep
#: plans fewer than this share of the requests per second the latest
#: trajectory entry did.
SYNTHESIZE_RATIO = 0.8
GATED_RATES = ("synthesize_s", "global_plan_s")
#: Machine-independent plan quality: ``--check`` compares these exactly.
QUALITY = ("pool_overhead_ratio", "layers", "subrange_insertions", "placement_order")
#: The timed layers of one cold plan, in pipeline order.
LAYERS = (
    "profile_s", "synthesize_s", "pack_s", "fuse_s", "global_plan_s",
    "validate_s", "store_s", "dumps_digest_s",
)


def _generation_config() -> TrainingConfig:
    """The ``gen-decode`` shape: sizes never repeat, fusion is retried often."""
    return TrainingConfig(
        model=get_model("gpt2-345m"),
        parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=2),
        micro_batch_size=4,
        num_microbatches=4,
        workload_kind="generation",
        decode_steps=16,
    )


PRESETS = {
    "llama2-7b-R": lambda: A800_WORKLOADS["llama2-7b"].preset("R"),
    "gpt2-345m-gen16": _generation_config,
    # The dynamic half: HomoLayer grouping, the §5.2 reusable spaces and the
    # grouped request routing in the stored entry.
    "qwen1.5-moe-R": lambda: A800_WORKLOADS["qwen1.5-moe-a2.7b"].preset("R"),
}


def _best_seconds(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _iter_jsonl_calls_per_cold_trace(config: TrainingConfig) -> int:
    """JSON-lines renders of the trace one cold ``get_trace`` + ``plan_key`` performs."""
    calls = 0
    real_iter_jsonl = Trace.iter_jsonl

    def counting_iter_jsonl(self):
        nonlocal calls
        calls += 1
        return real_iter_jsonl(self)

    Trace.iter_jsonl = counting_iter_jsonl
    try:
        with tempfile.TemporaryDirectory() as root:
            cache = SweepCache(root)
            cache.plan_key(cache.get_trace(config), STAllocConfig())
    finally:
        Trace.iter_jsonl = real_iter_jsonl
    return calls


def measure_preset(name: str, *, reps: int = 5) -> dict:
    """Best-of-``reps`` seconds of each layer of one cold plan."""
    config = PRESETS[name]()
    trace = ExecutionContext().trace(config)
    profile = AllocationProfiler().profile(trace)
    plan = PlanSynthesizer().synthesize(profile)
    groups = build_homophase_groups(profile.columns)
    fused, _ = fuse_adjacent_groups(groups)
    store_dir = tempfile.TemporaryDirectory()
    entry = Path(store_dir.name) / "plan.json"

    def store():  # a fresh facade each time: the planning report is derived cold
        STAlloc(profile=profile, plan=plan).save_plan(entry)

    def serialize():  # a fresh view each time: the digest memo starts empty
        view = Trace(
            columns=trace.columns,
            metadata=trace.metadata,
            phases=trace.phases,
            module_spans=trace.module_spans,
        )
        view.dumps()
        view.digest()

    info = plan.synthesis_info
    with store_dir:
        return {
            "events": trace.num_events,
            "decisions": len(plan.static_plan),
            "fusions": info["num_fusions"],
            "pool_overhead_ratio": round(
                info["static_pool_bytes"] / info["peak_static_demand_bytes"], 4
            ),
            "layers": info["layers"]["num_layers"],
            "subrange_insertions": info["subrange_insertions"],
            "placement_order": info["placement_order"],
            "profile_s": round(
                _best_seconds(lambda: AllocationProfiler().profile(trace), reps), 4
            ),
            "synthesize_s": round(
                _best_seconds(lambda: PlanSynthesizer().synthesize(profile), reps), 4
            ),
            "pack_s": round(
                _best_seconds(lambda: build_homophase_groups(profile.columns), reps), 4
            ),
            "fuse_s": round(_best_seconds(lambda: fuse_adjacent_groups(groups), reps), 4),
            # About a millisecond: more reps and one more digit, or the gate reads noise.
            "global_plan_s": round(
                _best_seconds(lambda: build_global_plan(fused), 10 * reps), 5
            ),
            "validate_s": round(_best_seconds(plan.static_plan.validate, reps), 4),
            "store_s": round(_best_seconds(store, reps), 4),
            "plan_bytes": entry.stat().st_size,
            "dumps_digest_s": round(_best_seconds(serialize, reps), 4),
            "iter_jsonl_calls_per_cold_trace": _iter_jsonl_calls_per_cold_trace(config),
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Cold-plan cost, layer by layer.")
    parser.add_argument("--preset", choices=[*PRESETS, "all"], default="all")
    parser.add_argument("--reps", type=int, default=5, help="best-of-N per layer")
    parser.add_argument("--record", type=Path, help="append an entry to this trajectory file")
    parser.add_argument("--note", default="", help="what changed (stored with --record)")
    parser.add_argument(
        "--check",
        type=Path,
        help="gate validate_s / (profile_s + synthesize_s + store_s) <= "
        f"{CHECK_MAX_VALIDATE_SHARE:g}, one serialisation per cold trace, the latest "
        f"entry's {' / '.join(QUALITY)} exactly, and best {' / '.join(GATED_RATES)} reps "
        f">= {SYNTHESIZE_RATIO:g}x the latest entry's requests/s",
    )
    args = parser.parse_args(argv)

    presets = list(PRESETS) if args.preset == "all" else [args.preset]
    results = {name: measure_preset(name, reps=args.reps) for name in presets}
    for name, row in results.items():
        print(f"== {name}: {row['events']} events, {row['decisions']} decisions ==")
        for metric in LAYERS:
            print(f"  {metric:16s} {row[metric]:9.5f} s")
        print(f"  plan entry: {row['plan_bytes']} bytes")
        print("  " + ", ".join(f"{name} {row[name]}" for name in QUALITY))
        print(f"  iter_jsonl calls per cold trace: {row['iter_jsonl_calls_per_cold_trace']}")

    if args.record:
        data = json.loads(args.record.read_text())
        data["trajectory"].append(
            {
                "version": __version__,
                "recorded": datetime.date.today().isoformat(),
                "note": args.note,
                "results": results,
            }
        )
        args.record.write_text(json.dumps(data, indent=1) + "\n")
        print(f"recorded {__version__} in {args.record}")

    if args.check:
        latest = json.loads(args.check.read_text())["trajectory"][-1]
        failed = False
        for name, row in results.items():
            share = row["validate_s"] / (row["profile_s"] + row["synthesize_s"] + row["store_s"])
            recorded = latest["results"][name]
            rates = {
                layer: (
                    row["decisions"] / row[layer],
                    SYNTHESIZE_RATIO * recorded["decisions"] / recorded[layer],
                )
                for layer in GATED_RATES
            }
            moved = {
                key: (recorded[key], row[key]) for key in QUALITY if row[key] != recorded[key]
            }
            ok = (
                share <= CHECK_MAX_VALIDATE_SHARE
                and row["iter_jsonl_calls_per_cold_trace"] == 0
                and all(rate >= floor for rate, floor in rates.values())
                and not moved
            )
            failed = failed or not ok
            print(
                f"check {name}: validate share of the cold plan {share:.3f} "
                f"(gate {CHECK_MAX_VALIDATE_SHARE:g}), "
                f"{row['iter_jsonl_calls_per_cold_trace']} JSON-lines render(s) per cold trace "
                f"(gate == 0), "
                + ", ".join(
                    f"{layer} {rate:,.0f} requests/s vs {latest['version']}'s best "
                    f"x {SYNTHESIZE_RATIO:g} = {floor:,.0f}"
                    for layer, (rate, floor) in rates.items()
                )
                + f", plan quality {'moved ' + str(moved) if moved else 'as recorded'} "
                f"[{'ok' if ok else 'FAIL'}]"
            )
        if failed:
            print("cold-plan check FAILED")
            return 1
        print("cold-plan check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
