"""Import hygiene: a run imports what it executes.

``repro`` is split into a *definition layer* (configs, tables, versions,
cache keys, spec expansion, bounds, rows, compare, obs) whose modules import
only the stdlib and each other, and an *execution layer* (the trace
generator, the planner, the allocators, replay, the timeline simulator, the
experiments, the process pool) imported at the first cache miss or fan-out.
Nothing imports numpy: the MoE router's draw is a stdlib port, so no run
loads it, cold or warm, routed or not.  Nor does a cold run load OpenSSL
(``_hashlib``): content addresses take the interpreter's built-in SHA-256.
Every case here runs in a fresh interpreter and inspects ``sys.modules``, so
the checks are structural and machine-independent: no timing is asserted.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "golden_job_smoke_rows.json"
NO_NUMPY_FIXTURE = ROOT / "tests" / "fixtures" / "golden_no_numpy_rows.json"

#: What a warm or run-nothing command must never load.
EXECUTION_LAYER = (
    "numpy",
    "concurrent.futures.process",
    "repro.experiments",
    "repro.allocators.base",
    "repro.allocators.caching",
    "repro.allocators.expandable",
    "repro.allocators.gmlake",
    "repro.allocators.native",
    "repro.core.columns",
    "repro.core.homophase",
    "repro.core.profiler",
    "repro.core.runtime",
    "repro.core.stalloc",
    "repro.core.synthesizer",
    "repro.simulator.replay",
    "repro.simulator.runner",
    "repro.timeline.simulator",
    "repro.workloads.moe",
    "repro.workloads.routing_draw",
    "repro.workloads.trace",
    "repro.workloads.tracegen",
)

#: Modules whose top-level imports must stay inside the definition layer.
DEFINITION_LAYER = (
    "repro.cli",
    "repro.allocators.registry",
    "repro.core.config",
    "repro.core.events",
    "repro.core.intervals",
    "repro.core.plan",
    "repro.domain",
    "repro.gpu.device",
    "repro.gpu.specs",
    "repro.obs.progress",
    "repro.obs.sinks",
    "repro.obs.summarize",
    "repro.obs.tracer",
    "repro.search.bounds",
    "repro.search.cluster",
    "repro.search.planner",
    "repro.search.presets",
    "repro.search.space",
    "repro.simulator.execution",
    "repro.simulator.ranks",
    "repro.simulator.throughput",
    "repro.sweep.cache",
    "repro.sweep.compare",
    "repro.sweep.engine",
    "repro.sweep.results",
    "repro.sweep.spec",
    "repro.timeline.chrome",
    "repro.workloads.fingerprint",
    "repro.workloads.memory_model",
    "repro.workloads.models",
    "repro.workloads.parallelism",
    "repro.workloads.schedule",
    "repro.workloads.training",
)

PACKAGES = (
    "repro.allocators",
    "repro.core",
    "repro.gpu",
    "repro.obs",
    "repro.search",
    "repro.simulator",
    "repro.sweep",
    "repro.timeline",
    "repro.workloads",
)

#: Names that moved to a leaf module and must stay importable from the module
#: they describe (benchmarks/e2e/stages.py and the tests import them there).
LEGACY_NAMES = {
    "repro.workloads.tracegen": ["TRACEGEN_VERSION", "config_fingerprint"],
    "repro.workloads.moe": ["balanced_split"],
    "repro.timeline": ["TIMELINE_VERSION"],
    "repro.timeline.simulator": ["TIMELINE_VERSION"],
    "repro.core.stalloc": ["STAllocConfig", "PLAN_FORMAT_VERSION"],
    "repro.simulator.runner": ["resolve_job_ranks"],
    "repro.search.planner": ["SEARCH_VERSION"],
    "repro.search": ["SEARCH_VERSION"],
    "repro.sweep.cache": ["RESULT_FORMAT_VERSION"],
    "repro.sweep": ["RESULT_FORMAT_VERSION"],
    "repro.obs.tracer": ["OBS_FORMAT_VERSION"],
    "repro.obs": ["OBS_FORMAT_VERSION"],
}

#: Names deleted from the package: re-exports nothing reads any more, the
#: event-object view of a trace (its oracle lives in tests/trace_oracle.py),
#: the second job type and rank resolvers a ``SweepPoint`` replaced, the
#: second pricing result a ``TimelineResult`` replaced, the per-stage configs
#: ``STAllocConfig`` replaced, ``ClusterSpec``'s test-only accessors, the
#: two wrappers of one rank's replay a ``ReplayResult`` absorbed and the
#: process-wide memo of fingerprints.  A dotted name is an
#: attribute of a class (or function) of the module.
REMOVED_NAMES = {
    "repro.simulator.runner": [
        "VALID_TIMINGS", "validate_timing", "JobSpec", "JobRun.throughput", "WorkloadRun",
        "run_job",
    ],
    "repro.simulator.replay": ["ReplayResult.metrics"],
    "repro.simulator.throughput": [
        "GPU_SPECS", "VALID_TIMINGS", "validate_timing", "ThroughputEstimate",
    ],
    "repro.timeline.simulator": ["TimelineResult.to_estimate"],
    "repro.workloads.fingerprint": ["_FINGERPRINT_MEMO", "_FINGERPRINT_MEMO_MAX"],
    "repro.search.cluster": [
        "ClusterSpec.gpu",
        "ClusterSpec.capacity_gib",
        "ClusterSpec.budget_map",
        "ClusterSpec.fabric_gpu",
        "ClusterSpec.label",
        "ClusterSpec.from_file",
    ],
    "repro.core.config": [
        "SynthesizerConfig", "GlobalPlannerConfig", "FUSION_STRATEGIES",
        "STAllocConfig.fusion_strategy",
    ],
    "repro.core.homophase": ["fuse_plans_by_insertion", "_conflicts", "LocalPlan.from_placement"],
    "repro.allocators.registry": ["register_allocator"],
    "repro.gpu.device": ["a800_80gb", "device_from_spec"],
    "repro.gpu": ["a800_80gb", "device_from_spec"],
    "repro.workloads.model_config": ["ModelConfig.moe_layer_params"],
    "repro.core.synthesizer": ["SynthesizerConfig"],
    "repro.core.planner": ["GlobalPlannerConfig"],
    "repro.simulator": [
        "GPU_SPECS", "GPUSpec", "VALID_TIMINGS", "validate_timing", "JobSpec", "WorkloadRun",
        "MemoryMetrics", "run_job",
    ],
    "repro.sweep.spec": ["validate_timing", "spec_document", "SweepSpec._resolve_ranks"],
    "repro.search.space": ["validate_timing", "SearchSpec._resolve_ranks"],
    "repro.workloads.tracegen": ["TraceEvent", "EventKind"],
    "repro.core": ["TraceEvent", "MemoryRequest"],
    "repro.core.events": ["TraceEvent", "MemoryRequest", "pair_events"],
    "repro.core.columns": [
        "KIND_CODES", "MemoryRequest", "TraceEvent", "TraceColumns.num_dynamic_requests", "_take",
    ],
    "repro.core.profiler": ["MemoryRequest"],
    "repro.workloads.trace": [
        "TraceEvent", "MemoryRequest", "pair_events", "Trace.num_dynamic_requests",
    ],
}

#: Identifiers of the event-object view, the second job type, the second
#: pricing result, the per-stage configs, the replay wrappers, the second
#: fusion strategy, the allocator extension point and the one-job and device
#: wrappers that no source file may mention.
REMOVED_IDENTIFIERS = (
    "TraceEvent", "MemoryRequest", "pair_events", "from_events", "to_events", "to_requests",
    "JobSpec", "_resolve_ranks", "ThroughputEstimate", "to_estimate", "SynthesizerConfig",
    "GlobalPlannerConfig", "WorkloadRun", "MemoryMetrics", "run_job", "fuse_plans_by_insertion",
    "FUSION_STRATEGIES", "from_placement", "register_allocator", "a800_80gb", "device_from_spec",
    "moe_layer_params",
)

#: Runs ``main(argv)`` silently and reports the exit code and ``sys.modules``.
CLI_CHILD = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(json.loads(sys.argv[1]))
    except SystemExit as exit:
        code = exit.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def child(script: str, *args: str, cwd: Path | None = None) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def cli(argv: list[str], cwd: Path) -> dict:
    report = child(CLI_CHILD, json.dumps(argv), cwd=cwd)
    report["repro"] = [name for name in report["modules"] if name.split(".")[0] == "repro"]
    return report


def loaded(report: dict) -> list[str]:
    return [name for name in EXECUTION_LAYER if name in report["modules"]]


def simulated(rows: list[dict]) -> list[dict]:
    return [
        {key: value for key, value in row.items() if key not in ("cached", "elapsed_seconds")}
        for row in rows
    ]


@pytest.fixture(scope="module")
def filled(tmp_path_factory) -> dict:
    """A cache directory filled by cold children, plus what they reported."""
    work = tmp_path_factory.mktemp("layers")
    sweep = ["sweep", "job-smoke", "--cache-dir", "cache", "--no-progress"]
    search = ["search", "search-smoke", "--cache-dir", "cache", "--no-progress"]
    cold = cli(sweep + ["--output", "a.json", "--obs-out", "obs.ndjson"], work)
    cold_search = cli(search + ["--output", "s.json"], work)
    assert cold_search["code"] == 0
    return {
        "work": work, "sweep": sweep, "search": search, "cold": cold, "cold_search": cold_search,
    }


def test_importing_the_cli_loads_three_modules_and_no_execution_layer():
    report = child(
        "import json, sys, repro.cli; print(json.dumps({'modules': sorted(sys.modules)}))"
    )
    assert loaded(report) == []
    assert [name for name in report["modules"] if name.startswith("repro")] == [
        "repro",
        "repro.cli",
        "repro.version",
    ]


def test_definition_layer_modules_import_no_execution_layer():
    script = (
        "import importlib, json, sys\n"
        f"for name in {DEFINITION_LAYER!r}: importlib.import_module(name)\n"
        "print(json.dumps({'modules': sorted(sys.modules)}))"
    )
    assert loaded(child(script)) == []


def test_cold_sweep_loads_the_execution_layer_and_reproduces_the_golden_rows(filled):
    cold = filled["cold"]
    assert cold["code"] == 0
    expected = {"repro.simulator.runner", "repro.workloads.tracegen", "repro.core.stalloc"}
    assert expected <= set(cold["modules"])
    assert "numpy" not in cold["modules"]  # a dense run draws no routing
    assert "concurrent.futures.process" not in cold["modules"]  # serial: no pool
    rows = json.loads((filled["work"] / "a.json").read_text(encoding="utf-8"))["rows"]
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))["rows"]
    assert simulated(rows) == golden


MOE_TINY = {"pipeline_parallel": 2, "data_parallel": 2, "expert_parallel": 2}


@pytest.mark.parametrize(
    "model, parallelism, base, routed",
    [
        ("moe-tiny", MOE_TINY, {"moe_imbalance": 0.6}, True),
        ("moe-tiny", MOE_TINY, {"moe_imbalance": 0.0}, False),
        ("gpt-tiny", {"pipeline_parallel": 2}, {"workload_kind": "generation", "decode_steps": 4}, False),
    ],
    ids=["moe-routed", "moe-balanced", "generation"],
)
def test_cold_sweep_never_loads_numpy(tmp_path, model, parallelism, base, routed):
    spec = {
        "name": "numpy-probe",
        "model": model,
        "parallelism": parallelism,
        "base": {"num_microbatches": 2, "micro_batch_size": 1, **base},
        "allocators": ["torch2.3", "stalloc"],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    report = cli(["sweep", "spec.json", "--cache-dir", "cache", "--no-progress"], tmp_path)
    assert report["code"] == 0
    assert "repro.core.stalloc" in report["modules"]
    assert "numpy" not in report["modules"]
    assert "_hashlib" not in report["modules"]  # content addresses hash without OpenSSL
    # The stdlib draw loads at the first routed draw and only then.
    assert ("repro.workloads.routing_draw" in report["modules"]) is routed


@pytest.mark.parametrize("command", ["cold", "cold_search"])
def test_cold_dense_sweep_and_search_never_load_openssl(filled, command):
    """Trace digests, fingerprints and cache keys take the interpreter's own SHA-256."""
    report = filled[command]
    assert report["code"] == 0 and "repro.workloads.trace" in report["modules"]
    assert "_hashlib" not in report["modules"]


#: Runs each argv of a JSON list with ``import numpy`` made to fail.
NO_NUMPY_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every later `import numpy` raises ImportError
from repro.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        try:
            codes.append(main(argv))
        except SystemExit as exit:
            codes.append(exit.code)
print(json.dumps({"codes": codes}))
"""


def test_routed_sweep_and_search_run_without_numpy(tmp_path):
    """A cold routed MoE sweep and a search reproduce the numpy-era rows with numpy blocked."""
    commands = {
        "sweep ep-comm-smoke": ["sweep", "ep-comm-smoke", "--output", "sweep.json"],
        "search search-smoke": ["search", "search-smoke", "--output", "search.json"],
    }
    argvs = [argv + ["--no-cache", "--no-progress"] for argv in commands.values()]
    report = child(NO_NUMPY_CHILD, json.dumps(argvs), cwd=tmp_path)
    assert report["codes"] == [0, 0]
    golden = json.loads(NO_NUMPY_FIXTURE.read_text(encoding="utf-8"))
    for name, argv in commands.items():
        rows = json.loads((tmp_path / argv[-1]).read_text(encoding="utf-8"))["rows"]
        assert simulated(rows) == golden[name], name


@pytest.mark.parametrize("command", ["sweep", "search"])
def test_fully_warm_run_loads_no_execution_layer(filled, command):
    out = f"warm-{command}.json"
    report = cli(filled[command] + ["--output", out], filled["work"])
    assert report["code"] == 0
    assert loaded(report) == []
    assert len(report["repro"]) <= (40 if command == "sweep" else 50), report["repro"]
    document = json.loads((filled["work"] / out).read_text(encoding="utf-8"))
    assert document["rows"] and all(row["cached"] for row in document["rows"])
    if command == "sweep":
        cold_rows = json.loads((filled["work"] / "a.json").read_text(encoding="utf-8"))["rows"]
        assert simulated(document["rows"]) == simulated(cold_rows)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["sweep", "--list"], 0),
        (["search", "--list"], 0),
        (["sweep", "--compare", "a.json", "a.json"], 0),
        (["obs", "summarize", "obs.ndjson"], 0),
        (["cache", "prune", "--cache-dir", "empty-cache"], 0),
    ],
    ids=lambda value: " ".join(value[:2]) if isinstance(value, list) else None,
)
def test_commands_that_run_nothing_load_no_execution_layer(filled, argv, code):
    report = cli(argv, filled["work"])
    assert report["code"] == code
    assert loaded(report) == []


def test_jobs_two_spawns_no_pool_when_warm_and_changes_no_row_when_cold(filled, tmp_path):
    warm = cli(filled["sweep"] + ["--jobs", "2"], filled["work"])
    assert warm["code"] == 0 and loaded(warm) == []
    assert "multiprocessing" not in warm["modules"]

    argv = ["sweep", "job-smoke", "--cache-dir", "c2", "--no-progress", "--jobs", "2"]
    cold = cli(argv + ["--output", "jobs2.json"], tmp_path)
    assert cold["code"] == 0 and "concurrent.futures.process" in cold["modules"]
    fanned = json.loads((tmp_path / "jobs2.json").read_text(encoding="utf-8"))["rows"]
    serial = json.loads((filled["work"] / "a.json").read_text(encoding="utf-8"))["rows"]
    assert json.dumps(simulated(fanned), sort_keys=True) == json.dumps(
        simulated(serial), sort_keys=True
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve_lazily_from_a_fresh_interpreter(package):
    script = f"""
import importlib, json, sys
package = importlib.import_module({package!r})
before = sorted(name for name in sys.modules if name.startswith({package!r} + "."))
names = list(package.__all__)
listed = set(dir(package))
namespace = {{}}
exec("from {package} import *", namespace)
try:
    package.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({{
    "submodules_at_import": before,
    "names": names,
    "unlisted": [name for name in names if name not in listed],
    "unresolved": [name for name in names if name not in namespace],
    "error": error,
}}))
"""
    report = child(script)
    # Only repro._lazy and repro.version may load with the package itself.
    assert report["submodules_at_import"] == []
    assert report["names"] == sorted(set(report["names"])) and report["names"]
    assert report["unlisted"] == [] and report["unresolved"] == []
    assert package in report["error"] and "no_such_name" in report["error"]


def test_moved_names_stay_importable_from_the_modules_they_describe():
    script = f"""
import importlib, inspect, json
missing = [
    module + "." + name
    for module, names in {LEGACY_NAMES!r}.items()
    for name in names
    if not hasattr(importlib.import_module(module), name)
]
def defined(owner, dotted):
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True
present = [
    module + "." + name
    for module, names in {REMOVED_NAMES!r}.items()
    for name in names
    if defined(importlib.import_module(module), name)
]
from repro.workloads.trace import Trace
from repro.core.profiler import ProfileResult
parameters = [
    owner.__name__ + "(" + name + "=)"
    for owner in (Trace, ProfileResult)
    for name in inspect.signature(owner).parameters
    if name in ("events", "requests")
]
print(json.dumps({{"missing": missing, "present": present, "parameters": parameters}}))
"""
    report = child(script)
    assert report == {"missing": [], "present": [], "parameters": []}
    pattern = re.compile(r"\b(" + "|".join(REMOVED_IDENTIFIERS) + r")\b")
    mentions = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert mentions == []


#: The process-wide memos ``src/repro`` keeps, with why each stays.
MEMO_ALLOWLIST = {
    "repro/workloads/routing_draw.py::routed_counts": (
        "a pure function of canonical scalars whose draws are slow and repeat "
        "across a routed job's forward/backward, dispatch/combine, traces and "
        "timelines; on the context it would thread through three classes"
    ),
    "repro/timeline/simulator.py::_phase_order": (
        "a pure function of five canonical values whose build costs several "
        "times the timeline run that reads it, repeated by every point of one "
        "geometry; on the context it would thread through every caller of "
        "simulate_timeline, the benchmarks included"
    ),
}


def test_no_module_memo_but_the_allowlisted_one():
    """No ``functools.lru_cache`` / ``cache`` decorator and no module-level
    ``*_MEMO`` dict: a result must not depend on what the process ran before."""
    package = ROOT / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(
                        target, "id", ""
                    )
                    if name in ("lru_cache", "cache"):
                        found.append(f"{relative}::{node.name}")
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            found += [
                f"{relative}::{target.id}"
                for target in targets
                if isinstance(target, ast.Name) and target.id.endswith("_MEMO")
            ]
    assert sorted(found) == sorted(MEMO_ALLOWLIST)
