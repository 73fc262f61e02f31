"""The benchmark workloads, shrunk to their warm-up size, run and verify.

A change that breaks a workload fails here, before the benchmark runs it.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from thermovisc.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "bench"

#: spans the benchmark's tracer must record; it skips a patch point it cannot
#: find, so a rename in the package would zero a per-layer metric silently
TRACED_SPANS = (
    "cli.main",
    "cli.on_step",
    "evolution.run",
    "diagnostics.collect_row",
    "diagnostics.monitor_update",
    "runio.diag_write",
    "constitutive.evaluate_many",
    "lifting.solve_heat_lift",
    "basis.displacement_eigenbasis",
    "basis.temperature_eigenbasis",
    "basis.complement_strain_basis",
    "basis.basis_fields",
    "lifting.build_lift",
    "lifting.solve_elastic_lift",
)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")


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


def test_traced_child_records_every_layer(tmp_path):
    # the tracer patches the package in place, so it runs in a child
    # interpreter, never in this one
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(workloads.warmup_config(workloads.generate("ramp_lift", 1))))
    result = tmp_path / "result.json"
    child = [sys.executable, "bench/child.py", str(cfg_path), str(tmp_path / "out"), str(result)]
    proc = subprocess.run(
        child + ["--trace"], cwd=REPO, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] == EXIT_OK
    recorded = {span[0] for span in record["spans"]}
    assert set(TRACED_SPANS) <= recorded, set(TRACED_SPANS) - recorded
    assert record["counters"]["evolution.fp_iters"] > 0


def test_every_patch_point_resolves():
    # loading the tracer's tables patches nothing; every function, method
    # and cli hook it wraps must exist under the name it looks up
    spans = _bench_module("spans")
    targets = [(module, attr) for module, attr, _ in spans.FUNCTIONS]
    targets += [(module, f"{cls}.{attr}") for module, cls, attr, _ in spans.METHODS]
    targets += [("thermovisc.cli", attr) for attr in ("run", "make_law", "main")]
    missing = []
    for module, path in targets:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert not missing, missing
