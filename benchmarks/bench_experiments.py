"""Benchmark regenerating every table and figure of the paper via its harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py``;
``-k fig8a`` selects one experiment.
"""

import pytest

from repro.experiments import available_experiments

#: Experiments timed on their ``--quick`` variant, as the paper-scale run is slow.
QUICK = {"fig8b", "fig8c", "fig9b", "fig9c", "fig10", "fig13", "table2", "table3"}


@pytest.mark.parametrize("experiment_id", available_experiments())
def test_experiment(regenerate, experiment_id):
    result = regenerate(experiment_id, quick=experiment_id in QUICK)
    assert result.experiment_id == experiment_id
