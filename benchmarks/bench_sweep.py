"""Benchmarks for the sweep engine: cold, cached, parallel, and obs overhead.

The cold/warm pair quantifies what the persistent trace/plan/result cache
buys (warm reruns should be orders of magnitude faster); the parallel case
measures the process fan-out on the same grid.

Run directly, the module measures the observability tax -- the same sweep
with and without an ``--obs-out`` NDJSON tracer installed -- and records it
in the ``BENCH_sweep.json`` perf trajectory::

    PYTHONPATH=src python benchmarks/bench_sweep.py                # print
    PYTHONPATH=src python benchmarks/bench_sweep.py --json out.json
    PYTHONPATH=src python benchmarks/bench_sweep.py \
        --check benchmarks/BENCH_sweep.json   # fail if overhead > 10%

Tracing must stay near-free: the recorded entries measure the overhead on
the ``job-smoke`` spec at well under 2%; ``--check`` gates at a deliberately
loose 10% so shared-runner timing noise cannot flake CI while a regression
to per-span I/O or allocation on the hot path still fails loudly.

The ``cli_startup`` section measures what every command pays before it does
any work, in fresh children of whichever ``repro`` is on ``PYTHONPATH`` (point
it at another checkout's ``src/`` to record a "before" entry): the wall of
``import repro.cli``, of a fully warm ``sweep job-smoke`` and ``search
search-smoke``, ``import numpy`` for scale, and -- machine-independent -- how
many ``repro`` modules a warm sweep loaded, whether numpy was among them, and
whether it was loaded by the cold ``job-smoke`` sweep that filled the cache or
by a cold routed MoE sweep (``ep-comm-smoke``, whose router draws are a stdlib
port of numpy's).  The cold probes also record their peak RSS, whether they
loaded OpenSSL (``_hashlib``; content addresses take the interpreter's own
SHA-256) and the most traces alive at any replay (every ``Trace`` is
registered in a ``weakref.WeakSet`` that is counted as each replay starts).
``--check`` fails when numpy appears on the warm, the cold dense or the cold
routed path, a cold probe loaded OpenSSL, more than one trace was alive at
once, the module count exceeds the latest entry by more than 5, or the cold
routed MoE probe's peak RSS exceeds the latest entry's by more than 5%; the
walls and the cold dense RSS are recorded, not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro import obs
from repro.obs.tracer import shutdown as obs_shutdown
from repro.sweep import load_spec, run_sweep

#: Regression gate for --check: fail when measured overhead exceeds this.
CHECK_MAX_OVERHEAD_PCT = 10.0
#: ... or when a warm sweep loads this many more ``repro`` modules than the
#: latest recorded entry (a definition-layer module or two may be added; an
#: execution-layer import drags in a dozen).
CHECK_MAX_EXTRA_MODULES = 5
#: ... or when the cold routed MoE sweep's peak RSS exceeds the latest entry's
#: by this share (the probe sits near the import floor, so a new import or a
#: larger per-event footprint shows).
CHECK_MAX_RSS_GROWTH = 0.05


def test_sweep_quick_grid_cold(benchmark, tmp_path):
    """24-point grid, serial, empty cache: every trace/plan is synthesized."""
    spec = load_spec("quick-grid")
    result = benchmark.pedantic(
        lambda: run_sweep(spec, jobs=1, cache_dir=tmp_path / "cold", reuse_results=False),
        rounds=1,
        iterations=1,
    )
    assert result.num_points >= 24
    assert all(row["status"] == "ok" for row in result.rows)


def test_sweep_quick_grid_cached(benchmark, tmp_path):
    """Same grid served entirely from the persistent result cache."""
    spec = load_spec("quick-grid")
    cache_dir = tmp_path / "cache"
    run_sweep(spec, jobs=1, cache_dir=cache_dir)  # prime every cache layer
    result = benchmark.pedantic(
        lambda: run_sweep(spec, jobs=1, cache_dir=cache_dir), rounds=3, iterations=1
    )
    assert result.num_cached == result.num_points


def test_sweep_quick_grid_parallel(benchmark, tmp_path):
    """Same grid fanned out over 4 worker processes (cache only for traces)."""
    spec = load_spec("quick-grid")
    result = benchmark.pedantic(
        lambda: run_sweep(spec, jobs=4, cache_dir=tmp_path / "par", reuse_results=False),
        rounds=1,
        iterations=1,
    )
    assert result.num_points >= 24


# ---------------------------------------------------------------------- #
# Observability overhead (the BENCH_sweep.json trajectory)
# ---------------------------------------------------------------------- #
def _run_once(spec, obs_path: Path | None = None) -> tuple[float, int]:
    """One cache-less serial sweep; returns (wall seconds, rows).

    The traced variant times the whole tracer lifecycle -- configure, the
    sweep, and the final flush+close -- since that is what a user's
    ``--obs-out`` run pays.
    """
    started = time.perf_counter()
    if obs_path is not None:
        obs.configure(ndjson_path=obs_path)
    try:
        result = run_sweep(spec, jobs=1, cache_dir=None)
    finally:
        if obs_path is not None:
            obs_shutdown()
    return time.perf_counter() - started, len(result.rows)


def measure_obs_overhead(
    spec_name: str = "job-smoke", *, rounds: int = 15, scratch: Path | None = None
) -> dict:
    """Paired wall-time comparison of ``spec_name`` with tracing off vs on.

    Serial and cache-less so the measurement is pure compute (no pool
    startup or disk-cache variance).  Each round runs an untraced sweep and
    a traced sweep back to back and records the *paired* difference; the
    overhead estimate is the median of those differences.  Pairing is what
    makes sub-100ms walls measurable: machine-load drift moves both runs of
    a pair together and cancels, where independent medians (or even
    min-of-N) still swing by several percent between invocations.
    """
    spec = load_spec(spec_name)
    scratch = Path(scratch) if scratch is not None else Path(tempfile.mkdtemp(prefix="bench-obs-"))
    _run_once(spec)  # warm-up: imports and in-process caches
    off: list[float] = []
    deltas: list[float] = []
    rows = spans = 0
    for index in range(rounds):
        # Best-of-2 per arm: scheduler hiccups are one-sided (they only ever
        # add time), so the min of two back-to-back runs sheds most of the
        # per-run tail noise before the pair is differenced.
        elapsed_off, rows = _run_once(spec)
        elapsed_off = min(elapsed_off, _run_once(spec)[0])
        off.append(elapsed_off)
        path = scratch / f"obs-{index}.ndjson"
        elapsed_on, _ = _run_once(spec, obs_path=path)
        elapsed_on = min(elapsed_on, _run_once(spec, obs_path=path)[0])
        deltas.append(elapsed_on - elapsed_off)
        spans = sum(
            1 for line in path.read_text().splitlines() if '"type":"span"' in line
        )
    base = statistics.median(off)
    overhead = statistics.median(deltas)
    return {
        "spec": spec_name,
        "rows": rows,
        "rounds": rounds,
        "spans_per_run": spans,
        "wall_seconds_off": round(base, 4),
        "wall_seconds_on": round(base + overhead, 4),
        "overhead_seconds": round(overhead, 5),
        "overhead_pct": round(100.0 * overhead / base, 2),
    }


# ---------------------------------------------------------------------- #
# CLI start-up (fresh children of the ``repro`` on PYTHONPATH)
# ---------------------------------------------------------------------- #
#: Runs a cold ``main(argv)`` silently with every trace counted, then reports
#: ``[peak RSS KiB, most traces alive at one replay, numpy loaded, OpenSSL loaded]``.
_COLD_CHILD = """
import contextlib, io, json, resource, sys, weakref
from repro.simulator import replay
from repro.workloads.trace import Trace
live, most = weakref.WeakSet(), [0]
init, run = Trace.__init__, replay._replay_trace
def counted_init(self, *args, **kwargs):
    init(self, *args, **kwargs)
    live.add(self)
def counted_replay(*args, **kwargs):
    most[0] = max(most[0], len(live))
    return run(*args, **kwargs)
Trace.__init__, replay._replay_trace = counted_init, counted_replay
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(json.loads(sys.argv[1]))
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, most[0],
                  "numpy" in sys.modules, "_hashlib" in sys.modules]))
"""

#: Runs ``main(argv)`` silently, then reports what the process had imported.
_MODULES_CHILD = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(json.loads(sys.argv[1]))
print(json.dumps([sum(name.split(".")[0] == "repro" for name in sys.modules),
                  "numpy" in sys.modules]))
"""


def measure_cli_startup(*, reps: int = 5, scratch: Path | None = None) -> dict:
    """Best-of-``reps`` walls of fresh CLI children, plus what a warm sweep imports."""
    scratch = Path(scratch) if scratch is not None else Path(tempfile.mkdtemp(prefix="bench-cli-"))
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))

    def best_wall(*argv: str) -> float:
        walls = []
        for _ in range(reps):
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, *argv], check=True, env=env, cwd=scratch, capture_output=True
            )
            walls.append(time.perf_counter() - started)
        return round(min(walls), 4)

    def probe(child: str, argv: list[str]) -> list:
        """The JSON list the last line of one CLI child prints."""
        done = subprocess.run(
            [sys.executable, "-c", child, json.dumps(argv)],
            check=True, env=env, cwd=scratch, capture_output=True, text=True,
        )
        return json.loads(done.stdout.splitlines()[-1])

    sweep = ["sweep", "job-smoke", "--cache-dir", "cache", "--no-progress"]
    search = ["search", "search-smoke", "--cache-dir", "cache", "--no-progress"]
    routed = ["sweep", "ep-comm-smoke", "--cache-dir", "cache", "--no-progress"]
    # Cold runs fill the cache (and __pycache__); job-smoke is a dense model.
    cold_rss_kib, cold_max_live, cold_numpy_loaded, cold_openssl = probe(_COLD_CHILD, sweep)
    moe_rss_kib, moe_max_live, moe_numpy_loaded, moe_openssl = probe(_COLD_CHILD, routed)
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *search],
        check=True, env=env, cwd=scratch, capture_output=True,
    )
    modules, numpy_loaded = probe(_MODULES_CHILD, sweep)
    return {
        "reps": reps,
        "import_cli_s": best_wall("-c", "import repro.cli"),
        "warm_sweep_cli_s": best_wall("-m", "repro.cli", *sweep),
        "warm_search_cli_s": best_wall("-m", "repro.cli", *search),
        "numpy_import_s": best_wall("-c", "import numpy"),
        "warm_modules_loaded": modules,
        "warm_numpy_loaded": numpy_loaded,
        "cold_dense_numpy_loaded": cold_numpy_loaded,
        "cold_moe_numpy_loaded": moe_numpy_loaded,
        "cold_dense_openssl_loaded": cold_openssl,
        "cold_moe_openssl_loaded": moe_openssl,
        "cold_sweep_maxrss_mib": round(cold_rss_kib / 1024, 2),  # Linux reports KiB
        "cold_moe_sweep_maxrss_mib": round(moe_rss_kib / 1024, 2),
        "cold_sweep_max_live_traces": max(cold_max_live, moe_max_live),
    }


def _loaded(flag: bool) -> str:
    return "loaded" if flag else "absent"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default="job-smoke", help="sweep preset to measure")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--json", type=Path, help="write the measurement as JSON")
    parser.add_argument(
        "--check",
        type=Path,
        help="print the latest BENCH_sweep.json entry next to the measurement; "
        f"fail if measured overhead exceeds {CHECK_MAX_OVERHEAD_PCT:g}%%, numpy loads "
        "on the warm, the cold dense or the cold routed MoE path, a cold sweep loads "
        "OpenSSL, a cold sweep holds two traces at once, or the cold routed MoE sweep's "
        f"peak RSS exceeds the recorded one by more than {CHECK_MAX_RSS_GROWTH:.0%}",
    )
    args = parser.parse_args(argv)

    measured = measure_obs_overhead(args.spec, rounds=args.rounds)
    print(f"== obs overhead on {measured['spec']} ==")
    print(
        f"  off {measured['wall_seconds_off']:.3f}s | on {measured['wall_seconds_on']:.3f}s"
        f" | overhead {measured['overhead_pct']:+.2f}%"
        f" ({measured['spans_per_run']} spans/run, median of {measured['rounds']})"
    )

    startup = measure_cli_startup()
    print(f"== cli start-up (best of {startup['reps']} fresh children) ==")
    print(
        f"  import repro.cli {startup['import_cli_s']:.3f}s | warm sweep "
        f"{startup['warm_sweep_cli_s']:.3f}s | warm search {startup['warm_search_cli_s']:.3f}s"
        f" | import numpy {startup['numpy_import_s']:.3f}s | warm sweep loaded "
        f"{startup['warm_modules_loaded']} repro modules, numpy "
        f"{_loaded(startup['warm_numpy_loaded'])}, cold dense sweep numpy "
        f"{_loaded(startup['cold_dense_numpy_loaded'])}, cold routed MoE sweep numpy "
        f"{_loaded(startup['cold_moe_numpy_loaded'])}, OpenSSL cold dense "
        f"{_loaded(startup['cold_dense_openssl_loaded'])} / cold routed MoE "
        f"{_loaded(startup['cold_moe_openssl_loaded'])}"
    )
    print(
        f"  cold sweep peak RSS {startup['cold_sweep_maxrss_mib']:.2f} MiB (routed MoE "
        f"{startup['cold_moe_sweep_maxrss_mib']:.2f} MiB), at most "
        f"{startup['cold_sweep_max_live_traces']} trace(s) alive at one replay"
    )

    if args.json:
        results = {measured["spec"]: measured, "cli_startup": startup}
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    if args.check:
        data = json.loads(args.check.read_text())
        latest = data["trajectory"][-1]["results"]
        limit = latest["cli_startup"]["warm_modules_loaded"] + CHECK_MAX_EXTRA_MODULES
        print(
            f"check cli_startup: warm sweep loaded {startup['warm_modules_loaded']} repro "
            f"modules (limit {limit}), numpy {_loaded(startup['warm_numpy_loaded'])}"
            f"; cold dense sweep numpy {_loaded(startup['cold_dense_numpy_loaded'])}"
            f"; cold routed MoE sweep numpy {_loaded(startup['cold_moe_numpy_loaded'])}"
        )
        if startup["warm_numpy_loaded"] or startup["warm_modules_loaded"] > limit:
            print("cli start-up smoke FAILED: the warm path imports the execution layer")
            return 1
        if startup["cold_dense_numpy_loaded"]:
            print("cli start-up smoke FAILED: a cold dense sweep imports numpy")
            return 1
        if startup["cold_moe_numpy_loaded"]:
            print("cli start-up smoke FAILED: a cold routed MoE sweep imports numpy")
            return 1
        if startup["cold_dense_openssl_loaded"] or startup["cold_moe_openssl_loaded"]:
            print("cli start-up smoke FAILED: a cold sweep loads OpenSSL (_hashlib)")
            return 1
        if startup["cold_sweep_max_live_traces"] > 1:
            print(
                f"cli start-up smoke FAILED: {startup['cold_sweep_max_live_traces']} traces "
                "were alive at once in the cold sweep (one is the unit of work)"
            )
            return 1
        rss_limit = latest["cli_startup"]["cold_moe_sweep_maxrss_mib"] * (1 + CHECK_MAX_RSS_GROWTH)
        print(
            f"check cli_startup: cold routed MoE sweep peak RSS "
            f"{startup['cold_moe_sweep_maxrss_mib']:.2f} MiB (limit {rss_limit:.2f})"
        )
        if startup["cold_moe_sweep_maxrss_mib"] > rss_limit:
            print(
                "cli start-up smoke FAILED: the cold routed MoE sweep's peak RSS grew more "
                f"than {CHECK_MAX_RSS_GROWTH:.0%} over the recorded entry"
            )
            return 1
        recorded = latest.get(measured["spec"])
        if recorded is not None:
            print(
                f"check {measured['spec']}: measured {measured['overhead_pct']:+.2f}% vs "
                f"recorded {recorded['overhead_pct']:+.2f}% "
                f"(gate {CHECK_MAX_OVERHEAD_PCT:g}%)"
            )
        if measured["overhead_pct"] > CHECK_MAX_OVERHEAD_PCT:
            print(
                f"obs overhead smoke FAILED: {measured['overhead_pct']:+.2f}% exceeds "
                f"the {CHECK_MAX_OVERHEAD_PCT:g}% gate"
            )
            return 1
        print("obs overhead smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
