"""Reachability census: which functions of ``src/repro`` no product command calls.

Runs the CLI's product commands in one fresh process under a
``sys.setprofile`` hook, installed before the CLI is imported so that
import-time calls count too, and compares the code objects it saw start with
every non-dunder ``def`` in the package source.  ``tests/test_census.py``
checks the result against ``tests/fixtures/census_allowlist.json``.  Run it
directly to print the census of the working tree::

    PYTHONPATH=src python tests/census.py [--json]

The commands are ``list``, every experiment as ``run X --quick``, every sweep
preset cold with ``--obs-out`` / ``--obs-trace`` and then again with
``--compare`` against its own rows, one sweep at ``--jobs 2`` (with
``--obs-out``, so worker spans are folded back) and a two-file ``--compare``
of its rows against the serial run's, a warm sweep written ``--output`` to
CSV, every search preset (then ``--compare``), two ``timeline --trace-out``
exports, two sweeps and a search read from JSON spec files (one sweep with
``--cache-max-gib``, one replaying cached MoE plans at (pp, ep)
coordinates), ``sweep --list`` and ``search --list``, a model plus
tiered-cluster search, ``obs summarize`` and ``cache prune``.  Pool workers
are other processes, so what runs only there counts as never called.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The reasons an allowlist entry may give for a function no command calls.
REASONS = {
    "oracle": "a reference implementation that a test compares product output against",
    "user-path": "a user-selectable path no preset runs",
    "input-error": "a validation or error path for outside input",
    "worker-or-stages": "called only in pool workers or by benchmarks/e2e/stages.py",
}


def defined_functions(root: Path = PACKAGE_ROOT) -> dict[str, tuple[str, int]]:
    """``"path::qualname"`` -> ``(file, first line)`` of every non-dunder ``def``.

    Abstract methods are left out: their bodies never run by design.  The
    first line is the code object's ``co_firstlineno``: the first decorator's
    line for a decorated function.  A qualname defined twice in one file (a
    property setter) keeps one key per definition.
    """
    found: dict[str, tuple[str, int]] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root.parent).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    dunder = child.name.startswith("__") and child.name.endswith("__")
                    abstract = any(
                        ast.unparse(decorator).endswith("abstractmethod")
                        for decorator in child.decorator_list
                    )
                    if not (dunder or abstract):
                        first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                        key = f"{relative}::{qualname}"
                        if key in found:
                            key = f"{key}@{first}"
                        found[key] = (str(path), first)
                    visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def product_commands(workdir: Path) -> list[list[str]]:
    """The CLI invocations the census runs, in order, writing under ``workdir``."""
    from repro.experiments import available_experiments
    from repro.search.presets import SEARCH_PRESETS
    from repro.sweep.spec import SWEEP_PRESETS

    cache = str(workdir / "cache")
    commands: list[list[str]] = [["list"]]
    commands += [["run", name, "--quick"] for name in available_experiments()]
    for name in sorted(SWEEP_PRESETS):
        rows = str(workdir / f"{name}.json")
        common = ["sweep", name, "--cache-dir", cache]
        commands.append(common + [
            "--output", rows,
            "--obs-out", str(workdir / f"{name}.ndjson"),
            "--obs-trace", str(workdir / f"{name}.trace.json"),
        ])
        commands.append(common + ["--compare", rows])
    commands.append([
        "sweep", "job-smoke", "--jobs", "2", "--no-cache",
        "--obs-out", str(workdir / "jobs2.ndjson"), "--output", str(workdir / "jobs2.json"),
    ])
    commands.append(
        ["sweep", "smoke", "--cache-dir", cache, "--output", str(workdir / "rows.csv")]
    )
    commands.append([
        "sweep", "--compare", str(workdir / "job-smoke.json"), str(workdir / "jobs2.json"),
    ])
    for name in sorted(SEARCH_PRESETS):
        rows = str(workdir / f"search-{name}.json")
        common = ["search", name, "--cache-dir", cache]
        commands.append(common + ["--output", rows])
        commands.append(common + ["--compare", rows])
    commands.append(["timeline", "gpt-tiny", "--pp", "2", "--trace-out", str(workdir / "t1.json")])
    commands.append([
        "timeline", "moe-tiny", "--pp", "2", "--ep", "2", "--comm-factor", "1",
        "--trace-out", str(workdir / "t2.json"),
    ])
    # The shapes the README and the end-to-end benchmark use beyond presets:
    # spec files (warm: the presets ran above; the sweep names its ranks as a
    # list, the MoE one as (pp, ep) coordinates, so its rows are new while
    # its traces and plans come from the cache), a capped cache, the preset
    # lists and a model + tiered-cluster search.
    sweep_file, search_file = workdir / "sweep-spec.json", workdir / "search-spec.json"
    moe_file = workdir / "moe-spec.json"
    sweep_file.write_text(json.dumps(dict(SWEEP_PRESETS["smoke"], ranks=[0])), encoding="utf-8")
    search_file.write_text(json.dumps(SEARCH_PRESETS["gpt-tiny"]), encoding="utf-8")
    moe_file.write_text(
        json.dumps(dict(SWEEP_PRESETS["ep-comm-smoke"], ranks=[[0, 1], [1, 3]])), encoding="utf-8"
    )
    commands.append(["sweep", str(sweep_file), "--cache-dir", cache, "--cache-max-gib", "1"])
    commands.append(["sweep", str(moe_file), "--cache-dir", cache])
    commands.append(["search", str(search_file), "--cache-dir", cache])
    commands += [["sweep", "--list"], ["search", "--list"]]
    commands.append(["search", "moe-tiny", "2x2xA800-80GB@0.3", "--no-cache"])
    commands.append(["obs", "summarize", str(workdir / "job-smoke.ndjson")])
    commands.append(["cache", "prune", "--cache-dir", cache, "--max-bytes", "100000"])
    return commands


def census(workdir: Path) -> dict:
    """Run the commands under the hook; the never-called defs, def count and failures.

    Meant for a fresh interpreter: a module imported before the call ran its
    import-time calls unobserved.
    """
    prefix = str(PACKAGE_ROOT)
    started: set = set()

    def hook(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    statuses = []
    cwd = os.getcwd()
    os.chdir(workdir)  # anything a command writes by default lands there
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        from repro.cli import main

        for argv in product_commands(workdir):
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                statuses.append((argv, main(argv)))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        os.chdir(cwd)
    called = {
        (filename, code.co_firstlineno)
        for code in started
        if (filename := os.path.abspath(code.co_filename)).startswith(prefix)
    }
    defined = defined_functions()
    return {
        "defined": len(defined),
        "never_called": sorted(key for key, site in defined.items() if site not in called),
        "failed": [argv for argv, status in statuses if status],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print the census as one JSON document")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        result = census(Path(workdir))
    if args.json:
        print(json.dumps(result))
    else:
        print("\n".join(result["never_called"]))
        print(
            f"{len(result['never_called'])} of {result['defined']} non-dunder defs never called; "
            f"failed commands: {result['failed']}",
            file=sys.stderr,
        )
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
