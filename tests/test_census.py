"""The reachability census: no code in ``src/repro`` that no product command runs.

``tests/census.py`` runs the CLI's product commands under a profile hook and
lists every non-dunder ``def`` of the package that never started.  Each one
must appear in ``tests/fixtures/census_allowlist.json`` with one of the
reasons in :data:`tests.census.REASONS`; a new function that nothing runs
fails the slow test until it is called, deleted or allowlisted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.census import REASONS, defined_functions

ROOT = Path(__file__).resolve().parents[1]
ALLOWLIST = ROOT / "tests" / "fixtures" / "census_allowlist.json"


def _allowlist() -> dict:
    return json.loads(ALLOWLIST.read_text(encoding="utf-8"))["allowlist"]


def test_allowlist_entries_name_defs_and_give_one_reason():
    allowlist = _allowlist()
    assert sorted(set(allowlist) - set(defined_functions())) == []
    for key, entry in allowlist.items():
        assert entry["reason"] in REASONS, key
        assert entry["why"].strip(), key


@pytest.mark.slow
def test_every_never_called_def_is_allowlisted():
    # A fresh interpreter: import-time calls must happen under the hook.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "census.py"), "--json"],
        capture_output=True, text=True, env=env, timeout=900,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    never = set(result["never_called"])
    allowlisted = set(_allowlist())
    assert sorted(never - allowlisted) == [], "never called: call it, delete it, or allowlist it"
    assert sorted(allowlisted - never) == [], "allowlisted but called now: drop the entry"
