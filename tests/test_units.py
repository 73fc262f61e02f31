"""The basis contract does not depend on the units of the elasticity or of the box.

Scaling D by s scales the displacement eigenvalues by s and leaves the
complement eigenvalues alone, since both products of the complement pencil
scale with D.  Every check of the contract is relative to its own scale, so
``basis`` passes on every rung of a moduli ladder from 1e-6 to steel, and a
Norton-Hoff run whose rate constant keeps the dissipation invariant
(c = s^(-p/2)) writes the same invariant diagnostics columns on every rung.
"""

import csv
import json

import numpy as np
import pytest

from thermovisc.cli import EXIT_OK, main
from thermovisc.evolution import EvolutionConfig

SCALES = [1e-6, 1e-3, 1.0, 1e6, 1e11]


def _payload(dim, lam, mu, extent=1.0, c=1.0, n_steps=5):
    return {
        "mesh": {"dim": dim, "extents": [extent] * dim, "cells": [8, 8] if dim == 2 else [4] * 3},
        "material": {
            "elasticity": {"model": "isotropic", "lam": lam, "mu": mu},
            "law": {"type": "norton_hoff", "c": c, "p": 3.0},
        },
        # the data of configs/isolated.json: a relaxing complement mode
        "data": {
            "theta0": {"preset": "constant", "value": 2.0},
            "epsp0": {"preset": "complement_mode", "index": 0, "amplitude": 0.05},
        },
        "discretization": {"k": 4, "l": 4, "dt": 1e-3, "n_steps": n_steps},
        "output": {"cadence": 50, "formats": ["csv"]},
    }


def _main(tmp_path, command, payload, name):
    path, out = tmp_path / f"{name}.json", tmp_path / name
    path.write_text(json.dumps(payload))
    return main([command, "--config", str(path), "--out", str(out), "--quiet"]), out


def _basis(tmp_path, payload, name):
    code, out = _main(tmp_path, "basis", payload, name)
    return code, json.loads((out / "basis_report.json").read_text())


@pytest.mark.parametrize("dim", [2, 3])
def test_basis_contract_holds_on_a_moduli_ladder(tmp_path, dim):
    _, unit = _basis(tmp_path, _payload(dim, 1.0, 1.0), "unit")
    for s in SCALES:
        code, rep = _basis(tmp_path, _payload(dim, s, s), f"s{s:g}")
        assert code == EXIT_OK, (s, rep.get("invariants", rep.get("failure")))
        assert np.abs(np.subtract(rep["lam_z"], unit["lam_z"])).max() <= 1e-12, s
        lam_w = np.divide(rep["lam_w"], s)
        assert np.abs(lam_w - unit["lam_w"]).max() <= 1e-12 * lam_w.max(), s
    # steel, and lam/mu far from 1
    for lam, mu in [(120e9, 80e9), (1e2, 1.0), (1e4, 1.0)]:
        code, rep = _basis(tmp_path, _payload(dim, lam, mu), f"lam{lam:g}mu{mu:g}")
        assert code == EXIT_OK, (lam, mu, rep.get("invariants", rep.get("failure")))
        assert np.abs(np.subtract(rep["lam_z"], unit["lam_z"])).max() <= 1e-12, (lam, mu)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("extent", [1e-3, 1e3])
def test_basis_contract_holds_on_an_extents_ladder(tmp_path, dim, extent):
    code, rep = _basis(tmp_path, _payload(dim, 1.0, 1.0, extent=extent), "box")
    assert code == EXIT_OK, rep.get("invariants", rep.get("failure"))


#: the columns that do not depend on the moduli when c = s^(-p/2); the stress
#: and strain round-off columns scale with s^(1/2) and s^(-1/2)
INVARIANT_COLUMNS = [
    "t", "e_pot", "e_thermal", "e_total", "theta_min", "entropy", "dissipation",
    "solver_residual", "solver_iters", "substeps", "source_integral",
]


def _columns(out):
    lines = [ln for ln in (out / "diagnostics.csv").read_text().splitlines()
             if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    return {name: np.array([float(r[name]) for r in rows]) for name in INVARIANT_COLUMNS}


def test_scaled_norton_hoff_run_reproduces_the_unit_run(tmp_path):
    # D -> s D and c -> s^(-p/2) c keep the modal coefficients, the
    # dissipation and the temperature of an isolated run
    code, out = _main(tmp_path, "run", _payload(2, 1.0, 1.0, n_steps=20), "unit")
    assert code == EXIT_OK
    unit = _columns(out)
    for s in SCALES:
        code, out = _main(tmp_path, "run", _payload(2, s, s, c=s**-1.5, n_steps=20), f"s{s:g}")
        summary = json.loads((out / "summary.json").read_text())
        # the thermodynamic checks pass on every rung
        assert summary["checks"]["passed"] is True, (s, code, summary.get("failure"))
        got = _columns(out)
        assert np.array_equal(got["solver_iters"], unit["solver_iters"]), s
        for name, ref in unit.items():
            scale = np.abs(ref).max() or 1.0
            diff = np.abs(got[name] - ref)
            if name == "solver_residual":
                # a Newton step can land the residual on the round-off floor,
                # where the scalings differ; such rows need only stay there
                floor = 1e-6 * EvolutionConfig.solver_tol
                diff = diff[(got[name] > floor) | (ref > floor)]
            assert diff.max(initial=0.0) <= 1e-12 * scale, (s, name)
