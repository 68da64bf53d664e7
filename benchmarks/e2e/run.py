#!/usr/bin/env python3
"""End-to-end benchmark of the stalloc-repro CLI: four workloads, one command.

    python3 benchmarks/e2e/run.py [--seed S] [--workload NAME ...]
                                  [--reps N | --seconds T] [--trace 0|1] [--out DIR]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every timed rep is a fresh ``python -m repro.cli sweep|search`` child over a
generated spec file and an empty cache directory, timed from outside with
``os.wait4``; each cold rep is followed by warm reruns on the cache it filled.
The traced run (stages.py, plus the program's own ``--obs-out``) gives the
per-layer numbers and never mixes with the timed reps.  README.md explains
the workloads, every metric, and how to read the span files.

The benchmark reads and writes only below the checkout it lives in
(``.bench_e2e/``), and needs ``src/repro`` there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check
from metrics import (
    END_TO_END,
    PER_LAYER,
    derive_per_layer,
    layer_busy_seconds,
    layer_shares,
)
from workloads import WORKLOADS, Workload, get_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_e2e"

#: Fewest cold reps a gated timing may rest on (never cut; see README).
MIN_COLD_REPS = 5
WARM_PER_COLD = 2
SETUP_REPS = 5
#: Reps of the un-gated ``--obs-out`` and ``--jobs 2`` commands.
AUX_REPS = 2
DEFAULT_SECONDS = 20


class ChildFailed(RuntimeError):
    """A helper child (import probe, stages.py) the benchmark cannot run without."""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mib: float
    returncode: int
    log: Path

    def tail(self, lines: int = 15) -> str:
        text = self.log.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    return env


def run_child(argv: list[str], log: Path) -> Child:
    """Run one child to completion; wall, CPU and peak RSS are its own.

    Output goes to ``log`` (shown only on failure).  ``os.wait4`` reports the
    resource usage of exactly this child, which ``getrusage(RUSAGE_CHILDREN)``
    cannot (its max RSS is the maximum over every child so far).
    """
    with log.open("wb") as sink:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, stdout=sink, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,  # Linux reports KiB
        returncode=process.returncode,
        log=log,
    )


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class WorkloadBench:
    """Everything measured for one workload under one seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.dir = workdir / workload.name
        self.dir.mkdir()
        self.samples: dict[str, list[float]] = {
            name: []
            for name in (
                "setup_s",
                "import_s",
                "cold_wall_s",
                "cold_cpu_s",
                "warm_wall_s",
                "peak_rss_mib",
            )
        }
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.spec: Path | None = None
        #: The first good cold rep: its rows are the reference every other
        #: rep (cold, warm, traced, fanned out) must reproduce.
        self.cold_doc: dict | None = None
        self.cold_rows: Path | None = None
        self.warm_doc: dict | None = None
        self.digest: str | None = None
        self._serial = 0

    # ------------------------------------------------------------------ #
    # Set-up and timed reps
    # ------------------------------------------------------------------ #
    def setup(self, reps: int) -> None:
        """Spec generation, scratch directories and an import probe, ``reps`` times.

        The probe also compiles ``__pycache__`` on a fresh checkout, so no
        timed rep pays for byte-compilation.
        """
        for _ in range(reps):
            started = time.perf_counter()
            scratch = Path(tempfile.mkdtemp(prefix="setup-", dir=self.dir))
            self.spec = self.workload.write_spec(self.seed, scratch)
            probe = run_child([sys.executable, "-c", "import repro.cli"], scratch / "log.txt")
            if probe.returncode:
                raise ChildFailed(f"cannot import repro.cli:\n{probe.tail()}")
            self.samples["setup_s"].append(time.perf_counter() - started)
            self.samples["import_s"].append(probe.wall)

    def cli(self, label: str, cache_dir: Path, *, jobs: int = 1, obs: bool = False):
        """One fresh CLI child; returns (child, its --output document or None, rep dir)."""
        rep = self.dir / f"{label}-{self._serial}"
        self._serial += 1
        rep.mkdir()
        rows = rep / "rows.json"
        argv = [sys.executable, "-m", "repro.cli", self.workload.kind, str(self.spec)]
        if self.workload.kind == "sweep":  # the search command is serial only
            argv += ["--jobs", str(jobs)]
        argv += ["--cache-dir", str(cache_dir), "--no-progress", "--output", str(rows)]
        if obs:
            argv += ["--obs-out", str(rep / "obs.ndjson")]
        child = run_child(argv, rep / "log.txt")
        if child.returncode == 0 and rows.exists():
            return child, json.loads(rows.read_text(encoding="utf-8")), rep
        self.messages.append(
            f"{self.workload.name}: {label} rep exited {child.returncode}:\n{child.tail()}"
        )
        return child, None, rep

    def account(self, verdict: check.Verdict) -> None:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.messages.extend(verdict.messages)

    def account_twin(self, document: dict | None, what: str) -> None:
        """Account a rep whose rows must equal the reference cold rows."""
        expected = check.expected_rows(self.workload, self.cold_doc)
        if document is None or self.cold_doc is None:
            self.account(check.Verdict.all_failed(expected, f"no rows from the {what} rep"))
        else:
            self.account(check.check_same_rows(self.workload, self.cold_doc, document, what=what))

    def twin_rep(self, label: str, **options):
        """A cold rep of a variant command, whose rows must equal the reference rows.

        Returns (wall or None on failure, rep directory, bytes the cache held).
        """
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.dir))
        try:
            child, document, rep = self.cli(label, cache_dir, **options)
            self.account_twin(document, label)
            if document is None:
                return None, rep, 0
            return child.wall, rep, directory_bytes(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def cycle(self, warm_reps: int) -> None:
        """One cold rep on an empty cache, then warm reruns on what it stored."""
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.dir))
        try:
            child, document, rep = self.cli("cold", cache_dir)
            if document is None:
                expected = check.expected_rows(self.workload, self.cold_doc)
                self.account(check.Verdict.all_failed(expected, "cold rep produced no rows"))
            else:
                self.account(check.check_cold(self.workload, document))
                if self.cold_doc is None:
                    self.cold_doc, self.cold_rows = document, rep / "rows.json"
                    self.digest = check.rows_digest(document)
                elif check.rows_digest(document) != self.digest:
                    self.account(
                        check.Verdict.all_failed(
                            len(document["rows"]), "cold rows differ between reps of one seed"
                        )
                    )
                self.samples["cold_wall_s"].append(child.wall)
                self.samples["cold_cpu_s"].append(child.cpu)
                self.samples["peak_rss_mib"].append(child.rss_mib)
            for _ in range(warm_reps):
                warm, warm_document, _ = self.cli("warm", cache_dir)
                self.account_twin(warm_document, "warm")
                if warm_document is not None:
                    self.warm_doc = self.warm_doc or warm_document
                    self.samples["warm_wall_s"].append(warm.wall)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # End-to-end metrics
    # ------------------------------------------------------------------ #
    def end_to_end(self) -> dict[str, dict]:
        if self.cold_doc is None or not self.samples["warm_wall_s"]:
            raise ChildFailed(
                f"{self.workload.name}: no successful rep to measure\n" + "\n".join(self.messages)
            )
        simulated = check.simulated_stats(self.workload, self.cold_doc)
        samples = dict(self.samples)
        samples["events_per_s"] = [simulated["events"] / wall for wall in samples["cold_wall_s"]]
        report = {}
        for metric in END_TO_END:
            if metric.stat == "exact":
                report[metric.name] = {
                    "value": simulated[metric.name],
                    "unit": metric.unit,
                    "stat": "exact",
                }
                continue
            values = samples[metric.name]
            q1, median, q3 = quartiles(values)
            if metric.stat == "median":
                value = median
            else:
                value = min(values) if metric.better == "lower" else max(values)
            report[metric.name] = {
                "value": value,
                "unit": metric.unit,
                "stat": metric.stat,
                "n": len(values),
                "median": median,
                "q1": q1,
                "q3": q3,
                "samples": values,
            }
        return report

    # ------------------------------------------------------------------ #
    # Traced run
    # ------------------------------------------------------------------ #
    def stage_child(self, mode: str, extra: list[str]) -> dict:
        out = self.dir / f"{mode}.json"
        cache_dir = tempfile.mkdtemp(prefix=f"{mode}-cache-", dir=self.dir)
        argv = [sys.executable, str(HERE / "stages.py"), mode, self.workload.kind, str(self.spec)]
        argv += ["--cache-dir", cache_dir, "--out", str(out), *extra]
        child = run_child(argv, self.dir / f"{mode}.log")
        shutil.rmtree(cache_dir, ignore_errors=True)
        if child.returncode:
            raise ChildFailed(f"stages.py {mode} failed on {self.workload.name}:\n{child.tail()}")
        return json.loads(out.read_text(encoding="utf-8"))

    def traced(self, aux_reps: int, out_dir: Path) -> dict:
        """Per-layer metrics: staged pass, the program's own run, obs and fan-out reps."""
        # The --obs-out and --jobs 2 commands are set against plain cold reps
        # run right beside them: this machine's speed drifts by tens of
        # percent over minutes, far more than the 2% the obs budget allows.
        first = len(self.samples["cold_wall_s"])
        obs_walls, jobs2_walls, obs_file, cache_bytes = [], [], None, 0
        for _ in range(aux_reps):
            self.cycle(warm_reps=0 if self.warm_doc else 1)
            wall, rep, size = self.twin_rep("obs", obs=True)
            if wall is not None:
                obs_walls.append(wall)
                obs_file, cache_bytes = rep / "obs.ndjson", size
            if self.workload.kind == "sweep":
                wall, _, _ = self.twin_rep("jobs2", jobs=2)
                if wall is not None:
                    jobs2_walls.append(wall)
        paired_cold = self.samples["cold_wall_s"][first:]
        if not paired_cold or obs_file is None:
            raise ChildFailed(
                f"{self.workload.name}: no cold/--obs-out pair succeeded\n"
                + "\n".join(self.messages)
            )
        best_cold = min(paired_cold)

        stage = self.stage_child(
            "stages", ["--cold-rows", str(self.cold_rows), "--obs", str(obs_file)]
        )
        engine = self.stage_child("engine", [])

        cold = self.cold_doc
        engine_wall = sum(span["end"] - span["start"] for span in engine["spans"])
        warm_stats = (self.warm_doc or {}).get("cache_stats", {})
        hits = sum(warm_stats.get(f"{layer}_hits", 0) for layer in ("trace", "plan", "result"))
        misses = sum(warm_stats.get(f"{layer}_misses", 0) for layer in ("trace", "plan", "result"))
        jobs2 = min(jobs2_walls) if jobs2_walls else 0.0
        search = self.workload.kind == "search"
        per_layer = derive_per_layer(
            stage,
            engine_wall,
            {
                "sweep.cache_bytes": cache_bytes,
                "sweep.cache_hit_ratio_warm": hits / (hits + misses) if hits + misses else 0.0,
                "sweep.point_max_s": max(row["elapsed_seconds"] for row in cold["rows"]),
                "sweep.jobs2_wall_s": jobs2,
                "sweep.jobs2_speedup": best_cold / jobs2 if jobs2 else 0.0,
                "search.pruned_memory": cold["pruned_by_memory"] if search else 0,
                "search.pruned_bound": cold["pruned_by_bound"] if search else 0,
                "search.evaluated_share": (
                    cold["evaluated"] / cold["candidates_total"] if search else 0.0
                ),
                "obs.overhead_pct": 100 * (min(obs_walls) - best_cold) / best_cold,
                "cli.import_s": min(self.samples["import_s"]),
                "cli.cold_cpu_s": min(self.samples["cold_cpu_s"][first:]),
            },
        )

        # The staged pass must have done the work the program did: equal call
        # counts at the three boundaries both of them span, and about the
        # same time as the program's own in-process run.
        obs_counts = {"tracegen.generate": 0, "plan.synthesize": 0, "replay.trace": 0}
        for entry in stage["obs_summary"]["tree"]:
            if entry["path"][-1] in obs_counts:
                obs_counts[entry["path"][-1]] += entry["count"]
        accounting = {
            "traces": [per_layer["workloads.traces"], obs_counts["tracegen.generate"]],
            "plans": [per_layer["core.plans"], obs_counts["plan.synthesize"]],
            "replays": [per_layer["simulator.replays"], obs_counts["replay.trace"]],
            "engine_wall_s": engine_wall,
            "busy_over_engine_wall": sum(layer_busy_seconds(stage["spans"]).values())
            / engine_wall,
            "layer_share": layer_shares(stage["spans"], engine_wall),
        }
        accounting["consistent"] = all(
            accounting[key][0] == accounting[key][1] for key in ("traces", "plans", "replays")
        )

        trace_dir = out_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{self.workload.name}.spans.json").write_text(
            json.dumps(
                {
                    "workload": self.workload.name,
                    "seed": self.seed,
                    "stages": stage["spans"],
                    "engine": engine["spans"],
                    "counts": stage["counts"],
                    "by_allocator": stage["by_allocator"],
                    "obs_summary": stage["obs_summary"],
                },
                indent=1,
            ),
            encoding="utf-8",
        )
        return {
            "per_layer": {
                metric.name: {"value": per_layer[metric.name], "unit": metric.unit}
                for metric in PER_LAYER
            },
            "accounting": accounting,
            "versions": stage["env"],
        }


# ---------------------------------------------------------------------- #
# Orchestration
# ---------------------------------------------------------------------- #
def run(workloads, *, seed, reps, seconds, trace, workdir: Path, out_dir: Path) -> dict:
    """Measure ``workloads``; ``trace`` is 0 (timed reps), 1 (traced run) or None (both)."""
    benches = [WorkloadBench(workload, seed, workdir) for workload in workloads]
    environment = {
        "nproc": os.cpu_count(),
        "loadavg_1m_before": os.getloadavg()[0],
        "versions": None,
    }
    for bench in benches:
        bench.setup(SETUP_REPS if reps is None else min(reps, SETUP_REPS))

    # Round-robin over the workloads, so that drift in the machine's speed
    # lands on all of them alike.  The traced run brings its own cold reps.
    aux_reps = AUX_REPS if reps is None else min(reps, AUX_REPS)
    if trace == 1:
        reps = 0
    rounds = 0
    deadline = time.perf_counter() + seconds * len(benches)
    while (
        rounds < reps
        if reps is not None
        else rounds < MIN_COLD_REPS or time.perf_counter() < deadline
    ):
        for bench in benches:
            bench.cycle(WARM_PER_COLD)
        rounds += 1

    result = {
        "schema": 1,
        "seed": seed,
        "reps": {"cold": rounds, "warm": rounds * WARM_PER_COLD, "aux": aux_reps},
        "env": environment,
        "workloads": {},
    }
    for bench in benches:
        entry = {
            "why": bench.workload.why,
            "kind": bench.workload.kind,
            "spec": json.loads(bench.workload.spec_text(seed)),
        }
        if trace != 1:
            entry["end_to_end"] = bench.end_to_end()
        if trace != 0:
            entry.update(bench.traced(aux_reps, out_dir))
            environment["versions"] = entry.pop("versions")
        entry.update(
            rows_digest=bench.digest,
            attempted=bench.attempted,
            failed=bench.failed,
            fail_share=bench.failed / bench.attempted,
            failures=bench.messages,
        )
        result["workloads"][bench.workload.name] = entry
    environment["loadavg_1m_after"] = os.getloadavg()[0]
    # This benchmark is a measuring instrument; a result file states numbers
    # and never a gain.
    result["claim"] = None
    return result


def contract_line(entry: dict, trace: int) -> dict:
    """The driver's result object for one workload (see BENCHMARK.json)."""
    table = entry["per_layer"] if trace == 1 else entry["end_to_end"]
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": item["value"], "unit": item["unit"]} for name, item in table.items()
        },
    }


def print_report(result: dict) -> None:
    reps = result["reps"]
    for name, entry in result["workloads"].items():
        print(
            f"== {name} (seed {result['seed']}): {reps['cold']} cold + {reps['warm']} warm reps, "
            f"{entry['attempted']} operations, {entry['failed']} failed =="
        )
        for metric, item in entry.get("end_to_end", {}).items():
            detail = (
                f"{item['stat']} of {item['n']}; median {item['median']:.6g}, "
                f"q1 {item['q1']:.6g}, q3 {item['q3']:.6g}"
                if "n" in item
                else "simulated, exact per seed"
            )
            print(f"  {metric:34s} {item['value']:>16.6g} {item['unit']:9s} ({detail})")
        print(f"  {'fail_share':34s} {entry['fail_share']:>16.6g} {'ratio':9s}")
        print(f"  {'rows_digest':34s} {entry['rows_digest']}")
        for metric, item in entry.get("per_layer", {}).items():
            print(f"  {metric:34s} {item['value']:>16.6g} {item['unit']}")
        if "accounting" in entry:
            accounting = entry["accounting"]
            print(
                "  staged vs program call counts (traces, plans, replays): "
                f"{accounting['traces']}, {accounting['plans']}, {accounting['replays']}; "
                f"layer busy / in-process wall = {accounting['busy_over_engine_wall']:.3f}"
            )
            shares = ", ".join(
                f"{layer} {100 * share:.1f}%" for layer, share in accounting["layer_share"].items()
            )
            print(f"  layer shares of the in-process run: {shares}")
        for message in entry["failures"]:
            print(f"  FAILED: {message}")


# ---------------------------------------------------------------------- #
# --compare
# ---------------------------------------------------------------------- #
def spread(metric, item: dict) -> float:
    """Run-to-run spread of a gated value, as a share of it.

    For a median it is the usual distance between the quartiles.  For a
    best-of-reps value it is how far the second-best rep sits from the best:
    a floor that two reps reached is resolved, one that a single rep touched
    is not.
    """
    if item["stat"] == "exact" or item["n"] < 2:
        return 0.0
    if item["stat"] == "median":
        return (item["q3"] - item["q1"]) / item["median"]
    ordered = sorted(item["samples"], reverse=metric.better == "higher")
    return abs(ordered[1] - ordered[0]) / ordered[0]


def classify(metric, old: dict, new: dict, *, same_seed: bool) -> tuple[str, float]:
    """(verdict, relative worsening of ``new`` against ``old``; negative = better)."""
    base, value = old["value"], new["value"]
    worse = (value - base) / abs(base) if base else 0.0
    if metric.better == "higher":
        worse = -worse
    # A simulated statistic repeats exactly under one seed: any drift is a
    # change of behaviour, however small.
    bound = 0.0 if metric.stat == "exact" and same_seed else metric.bound
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    if max(spread(metric, old), spread(metric, new)) > bound:
        return "unresolved", worse
    return "unchanged", worse


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    same_seed = old["seed"] == new["seed"]
    if not same_seed:
        print(f"note: seeds differ ({old['seed']} vs {new['seed']}); simulated metrics use bounds")
    if old["env"]["versions"] != new["env"]["versions"]:
        print(f"note: versions differ: {old['env']['versions']} vs {new['env']['versions']}")
    regressions = 0
    print(f"{'workload':12s} {'metric':20s} {'verdict':10s} {'new/old':>9s}  base -> new")
    for name in old["workloads"]:
        if name not in new["workloads"]:
            continue
        before, after = old["workloads"][name], new["workloads"][name]
        for metric in END_TO_END:
            a, b = before["end_to_end"][metric.name], after["end_to_end"][metric.name]
            verdict, _ = classify(metric, a, b, same_seed=same_seed)
            regressions += verdict == "regressed"
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(
                f"{name:12s} {metric.name:20s} {verdict:10s} {ratio:9.4f}  "
                f"{a['value']:.6g} -> {b['value']:.6g} {metric.unit}"
            )
        if after["failed"] > before["failed"]:
            regressions += 1
            print(f"{name:12s} {'fail_share':20s} regressed   {before['failed']} -> {after['failed']} failed")
        same = "identical" if before["rows_digest"] == after["rows_digest"] else "changed"
        print(f"{name:12s} {'rows_digest':20s} {same}")
    return 1 if regressions else 0


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME", help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="measure each workload for this long (never fewer than %d cold reps)" % MIN_COLD_REPS,
    )
    parser.add_argument("--reps", type=int, help="exactly N cold reps instead of --seconds")
    parser.add_argument(
        "--trace", type=int, choices=[0, 1], help="0: timed reps only, 1: traced run only"
    )
    parser.add_argument("--out", type=Path, help="result directory (default: .bench_e2e/out)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if not (ROOT / "src" / "repro" / "cli.py").exists():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        workloads = [get_workload(name) for name in args.workload or WORKLOADS]
    except ValueError as error:
        parser.error(str(error))

    WORK.mkdir(exist_ok=True)
    out_dir = args.out or WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = run(
            workloads,
            seed=args.seed,
            reps=args.reps,
            seconds=args.seconds,
            trace=args.trace,
            workdir=workdir,
            out_dir=out_dir,
        )
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result_path = out_dir / "result.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result)
    entries = result["workloads"]
    if args.trace is not None and len(entries) == 1:
        (entry,) = entries.values()
        print(json.dumps(contract_line(entry, args.trace)))
    else:
        attempted = sum(entry["attempted"] for entry in entries.values())
        failed = sum(entry["failed"] for entry in entries.values())
        print(
            json.dumps(
                {
                    "result": str(result_path),
                    "attempted": attempted,
                    "failed": failed,
                    "fail_share": failed / attempted,
                    "claim": None,
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
