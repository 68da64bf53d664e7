"""``repro.digest.sha256`` is SHA-256, wherever it comes from.

Every content address in the package -- trace digests, config fingerprints,
plan and result cache keys, timeline digests -- is hashed by
:mod:`repro.digest`, which takes the interpreter's built-in SHA-256 so no
run loads OpenSSL.  These checks pin that it is the same function as
``hashlib.sha256``: byte for byte on random input, at every call site on
fixed input, and end to end through the ``hashlib`` fallback on an
interpreter where the built-in module is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import digest
from repro.cli import main as cli_main
from repro.core.config import STAllocConfig
from repro.gpu.specs import GPU_SPECS
from repro.sweep import cache as cache_module
from repro.sweep.cache import SweepCache
from repro.timeline import simulator as timeline_module
from repro.timeline.simulator import TimelineSimulator
from repro.workloads import fingerprint as fingerprint_module
from repro.workloads import trace as trace_module
from repro.workloads.fingerprint import config_fingerprint
from repro.workloads.tracegen import TraceGenerator

ROOT = Path(__file__).resolve().parents[1]
NO_NUMPY_FIXTURE = ROOT / "tests" / "fixtures" / "golden_no_numpy_rows.json"


def test_the_builtin_module_is_used_when_the_interpreter_has_one():
    for name in ("_sha2", "_sha256"):
        try:
            module = __import__(name)
        except ImportError:
            continue
        assert digest.sha256 is module.sha256
        return
    assert digest.sha256 is hashlib.sha256


@pytest.mark.parametrize("seed", range(8))
def test_sha256_equals_hashlib_at_random_chunk_boundaries(seed):
    rng = random.Random(seed)
    data = rng.randbytes(rng.randrange(0, 300_000))
    ours, theirs = digest.sha256(), hashlib.sha256()
    start = 0
    while start < len(data):
        end = min(len(data), start + rng.choice((1, 63, 64, 65, rng.randrange(1, 70_000))))
        ours.update(data[start:end])
        theirs.update(data[start:end])
        start = end
    assert ours.hexdigest() == theirs.hexdigest()
    assert ours.digest() == theirs.digest()
    assert digest.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def _content_addresses(config, tmp_path) -> dict:
    """Every call site's address of fixed inputs."""
    cache = SweepCache(tmp_path)
    trace = TraceGenerator(config, seed=3).generate()
    fingerprint = config_fingerprint(config, seed=3, rank=1)
    timeline = TimelineSimulator(config, gpu=GPU_SPECS["A800-80GB"], seed=0).run()
    return {
        "config_fingerprint": fingerprint,
        "trace_digest": trace.digest(),
        "plan_key": cache.plan_key(trace, STAllocConfig()),
        "result_key": cache.result_key(fingerprint, {"allocator": "stalloc"}),
        "timeline_digest": timeline.digest(),
    }


def test_every_call_site_hashes_to_its_hashlib_value(tiny_dense_config, tmp_path, monkeypatch):
    ours = _content_addresses(tiny_dense_config, tmp_path / "a")
    for module in (fingerprint_module, trace_module, cache_module, timeline_module):
        monkeypatch.setattr(module, "sha256", hashlib.sha256)
    theirs = _content_addresses(tiny_dense_config, tmp_path / "b")
    assert ours == theirs


#: Runs each argv of a JSON list with the built-in SHA-256 modules blocked.
FALLBACK_CHILD = """
import contextlib, io, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # `import` of either raises
from repro.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        try:
            codes.append(main(argv))
        except SystemExit as exit:
            codes.append(exit.code)
import hashlib
from repro import digest
print(json.dumps({"codes": codes, "fallback": digest.sha256 is hashlib.sha256}))
"""


def test_the_hashlib_fallback_reproduces_the_golden_rows(tmp_path):
    commands = {
        "sweep ep-comm-smoke": ["sweep", "ep-comm-smoke", "--output", "sweep.json"],
        "search search-smoke": ["search", "search-smoke", "--output", "search.json"],
    }
    argvs = [argv + ["--cache-dir", "cache", "--no-progress"] for argv in commands.values()]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", FALLBACK_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0], "fallback": True}
    golden = json.loads(NO_NUMPY_FIXTURE.read_text(encoding="utf-8"))
    for name, argv in commands.items():
        rows = json.loads((tmp_path / argv[-1]).read_text(encoding="utf-8"))["rows"]
        simulated = [
            {key: value for key, value in row.items() if key not in ("cached", "elapsed_seconds")}
            for row in rows
        ]
        assert simulated == golden[name], name
    # The keys the fallback wrote are the ones this interpreter looks up.
    warm = ["sweep", "ep-comm-smoke", "--cache-dir", str(tmp_path / "cache"), "--no-progress"]
    assert cli_main(warm + ["--output", str(tmp_path / "warm.json")]) == 0
    rows = json.loads((tmp_path / "warm.json").read_text(encoding="utf-8"))["rows"]
    assert rows and all(row["cached"] for row in rows)
