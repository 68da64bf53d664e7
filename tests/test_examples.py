"""Every script under ``examples/`` runs to completion.

Each example is loaded as a module and its ``main()`` run in-process with
stdout captured, so an API an example calls cannot change or disappear
without a test failing.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_exist():
    assert [path.name for path in EXAMPLES] == [
        "config_rescue.py",
        "llama_recompute_sweep.py",
        "moe_dynamic_allocation.py",
        "quickstart.py",
    ]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
