"""The benchmark workloads, shrunk to their warm-up size, run and verify.

A change that breaks a workload fails here, before the benchmark runs it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from thermovisc.cli import EXIT_OK, main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_warmup_size(tmp_path, name):
    cfg = workloads.warmup_config(workloads.generate(name, 1))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["passed"] is True
    assert summary["monitor"]["satisfied"] is True
    lines = (out / "diagnostics.csv").read_text().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == cfg["discretization"]["n_steps"] + 1
