"""The package surface the benchmark calls: every workload of
``bench/workloads.py`` runs at its tiny sizes, so a package change that
breaks a call the benchmark makes fails here, and not only in a
benchmark run. The module is loaded from its file and left unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    name = "prenet_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_sizes(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.TINY, 1, tmp_path)
    workload.setup()
    outcome = workload.finish(workload.run())
    assert outcome.scores.size > 0 and np.isfinite(outcome.scores).all()
    assert 0.0 <= outcome.auc_roc <= 1.0 and 0.0 <= outcome.auc_pr <= 1.0
    assert all(code == 0 for code in outcome.exit_codes)
    assert workload.work_items(outcome) > 0
