import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from thermovisc import basis, evolution, lifting, mesh_fem
from thermovisc.basis import basis_invariant_report
from thermovisc.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SOLVER,
    build_operators,
    main,
    prepare_run,
)
from thermovisc.config import (
    config_hash,
    is_isolated,
    load_config,
    make_elasticity,
    make_law,
    validate_config,
)
from thermovisc.diagnostics import RowTables
from thermovisc.errors import BadData, ParseError, SolverFailure, ValidationError
from thermovisc.evolution import ModalSystem, step
from thermovisc.mesh_fem import AssembledOperators, assemble, build_mesh
from thermovisc.tensor import ElasticityTensor

from helpers import mode_strains

REPO = Path(__file__).resolve().parents[1]

MINIMAL = {
    "mesh": {"cells": [4, 4]},
    "discretization": {"k": 2, "l": 2, "dt": 1e-3, "n_steps": 5},
    "data": {
        "theta0": {"preset": "constant", "value": 1.5},
        "epsp0": {"preset": "complement_mode", "index": 0, "amplitude": 0.1},
    },
    "output": {"cadence": 5},
}


def write_cfg(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_config_fills_defaults():
    cfg = validate_config(MINIMAL)
    assert cfg["mesh"]["dim"] == 2
    assert cfg["mesh"]["extents"] == [1.0, 1.0]
    assert cfg["material"]["law"]["type"] == "norton_hoff"
    assert cfg["discretization"]["solver_tol"] == 1e-12
    assert cfg["seed"] == 0
    assert is_isolated(cfg)


def test_negative_dt_names_field():
    bad = {"discretization": {"dt": -1.0}}
    with pytest.raises(ValidationError) as err:
        validate_config(bad)
    assert any("discretization.dt" in v for v in err.value.violations)


def test_unknown_key_rejected():
    with pytest.raises(ValidationError) as err:
        validate_config({"meshh": {}})
    assert any("meshh" in v for v in err.value.violations)


def test_all_violations_collected():
    bad = {
        "mesh": {"dim": 5, "bogus": 1},
        "discretization": {"dt": 0, "k": 0},
    }
    with pytest.raises(ValidationError) as err:
        validate_config(bad)
    paths = "\n".join(err.value.violations)
    for frag in ("mesh.dim", "mesh.bogus", "discretization.dt", "discretization.k"):
        assert frag in paths
    assert len(err.value.violations) >= 4


def test_horizon_translates_to_steps():
    cfg = validate_config({"discretization": {"dt": 1e-2, "horizon": 0.1}})
    assert cfg["discretization"]["n_steps"] == 10
    with pytest.raises(ValidationError):
        validate_config({"discretization": {"dt": 3e-3, "horizon": 0.01}})


def test_horizon_and_n_steps_together_are_a_config_error(tmp_path, capsys):
    # neither key silently overrides the other
    payload = copy.deepcopy(MINIMAL)
    payload["discretization"].update(dt=0.1, n_steps=7, horizon=1.0)
    out = tmp_path / "o"
    code = main(["run", "--config", write_cfg(tmp_path, payload), "--out", str(out), "--quiet"])
    assert code == EXIT_CONFIG
    assert "discretization: n_steps and horizon both given" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_config_hash_stable_under_key_order():
    a = validate_config({"mesh": {"cells": [4, 4], "dim": 2}})
    b = validate_config({"mesh": {"dim": 2, "cells": [4, 4]}})
    assert config_hash(a) == config_hash(b)


def test_builders():
    cfg = validate_config(MINIMAL)
    D = make_elasticity(cfg)
    assert D.c0 > 0
    law = make_law(cfg)
    assert law.p == 3.0
    mroz = validate_config(
        {"material": {"law": {"type": "mroz", "g": {"kind": "lorentz", "amplitude": 1.0, "offset": 0.5}}}}
    )
    law2 = make_law(mroz)
    assert law2.beta_coercivity == 0.5


def test_load_config_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(path)


# -- CLI ----------------------------------------------------------------------

def test_cli_run_and_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg_path, "--out", str(out1), "--quiet"]) == EXIT_OK
    assert main(["run", "--config", cfg_path, "--out", str(out2), "--quiet"]) == EXIT_OK
    d1 = (out1 / "diagnostics.csv").read_bytes()
    d2 = (out2 / "diagnostics.csv").read_bytes()
    assert d1 == d2
    assert (out1 / "effective_config.json").exists()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["checks"]["passed"] is True
    assert summary["isolated"] is True
    assert (out1 / "snapshot_000000_nodes.csv").exists()
    assert (out1 / "snapshot_000005_cells.csv").exists()


def test_cli_diagnostics_report_substeps(tmp_path):
    # a sustained force keeps every step stiff, and an iteration cap below
    # what a full step needs forces dt halving, which diagnostics.csv shows
    # in its substeps column
    payload = copy.deepcopy(MINIMAL)
    payload["discretization"].update(dt=1e-2, solver_max_iter=3)
    payload["data"]["f"] = {"preset": "polynomial", "value": [2.0, 2.0]}
    cfg_path = write_cfg(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    lines = [
        ln for ln in (out / "diagnostics.csv").read_text().splitlines() if not ln.startswith("#")
    ]
    header = lines[0].split(",")
    substeps = [int(ln.split(",")[header.index("substeps")]) for ln in lines[1:]]
    assert substeps[0] == 0  # the initial row has no step behind it
    assert all(n > 1 for n in substeps[1:])


@pytest.mark.parametrize("n_steps", [3, 12, 48])
def test_full_fields_only_at_snapshot_cadence(tmp_path, monkeypatch, n_steps):
    # rows and the monitor come from the coefficients and run-wide tables;
    # physical fields are rebuilt only for the two snapshots (first, last)
    from thermovisc import cli, diagnostics, evolution

    calls = {"reconstruct": 0, "tables": 0}
    real_reconstruct = evolution.reconstruct_fields
    real_build = diagnostics.RowTables.build.__func__

    def reconstruct(*args, **kwargs):
        calls["reconstruct"] += 1
        return real_reconstruct(*args, **kwargs)

    def build(cls, *args, **kwargs):
        calls["tables"] += 1
        return real_build(cls, *args, **kwargs)

    monkeypatch.setattr(evolution, "reconstruct_fields", reconstruct)
    monkeypatch.setattr(cli, "reconstruct_fields", reconstruct)
    monkeypatch.setattr(diagnostics.RowTables, "build", classmethod(build))
    payload = copy.deepcopy(MINIMAL)
    payload["discretization"]["n_steps"] = n_steps
    payload["data"]["f"] = {
        "preset": "polynomial",
        "value": [0.4, 0.6],
        "time": {"kind": "ramp", "slope": 5.0},
    }
    payload["output"] = {"cadence": 1000, "formats": ["csv", "vtk"]}
    cfg_path = write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
    assert calls == {"reconstruct": 2, "tables": 1}


def test_cli_vtk_output(tmp_path):
    payload = dict(MINIMAL)
    payload["output"] = {"cadence": 5, "formats": ["csv", "vtk"]}
    cfg_path = write_cfg(tmp_path, payload)
    out = tmp_path / "ovtk"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    vtk = (out / "snapshot_000005.vtk").read_text()
    assert vtk.startswith("# vtk DataFile Version 3.0")
    assert "DATASET STRUCTURED_GRID" in vtk
    assert "SCALARS theta" in vtk
    assert "TENSORS epsp" in vtk


def test_cli_config_error_exit(tmp_path):
    cfg_path = write_cfg(tmp_path, {"discretization": {"dt": -1}})
    assert main(["run", "--config", cfg_path, "--quiet"]) == EXIT_CONFIG
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--quiet"]) == EXIT_CONFIG


def test_cli_certify_pass_and_fail(tmp_path):
    ok = {"material": {"law": {"type": "mroz", "g": {"kind": "constant", "value": 1.0}}},
          "certify": {"samples": 2000}}
    cfg_path = write_cfg(tmp_path, ok)
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    rep = json.loads((out / "certification.json").read_text())
    assert rep["passed"] is True

    bad = {"material": {"law": {"type": "mroz", "g": {"kind": "constant", "value": -1.0}}},
           "certify": {"samples": 500}}
    cfg_path = write_cfg(tmp_path, bad, name="bad.json")
    out2 = tmp_path / "cert2"
    assert main(["certify", "--config", cfg_path, "--out", str(out2), "--quiet"]) == EXIT_INVARIANT
    rep = json.loads((out2 / "certification.json").read_text())
    assert rep["passed"] is False


def test_cli_basis_artifact(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "basisout"
    assert main(["basis", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "basis.npz").exists()
    rep = json.loads((out / "basis_report.json").read_text())
    assert rep["invariants"]["passed"] is True
    assert rep["projection"]["non_expansive"] is True
    dense, closed_form = {"branch": "dense"}, {"branch": "closed_form"}
    solves = rep["eigensolves"]
    assert solves["displacement"] == dense and solves["temperature"] == closed_form
    # the complement reports the count at the gap after its last kept group
    # (the two lambda = 1 modes of a 3-fold group) and the kept pairs
    complement = {"branch": "closed_form", "inertia": 3, "kept": 2}
    assert solves["complement"] == complement
    # the sparse branch reports its shift, the inertia count and the kept pairs
    monkeypatch.setattr(basis, "DENSE_CUTOFF", 0)
    assert main(["basis", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    rep = json.loads((out / "basis_report.json").read_text())
    assert rep["invariants"]["passed"] is True
    solve = rep["eigensolves"]["displacement"]
    assert solve["branch"] == "sparse" and solve["kept"] == 2
    assert solve["inertia"] >= 2 and solve["sigma"] > rep["lam_w"][-1]
    assert rep["eigensolves"]["complement"] == complement
    # with more extra pairs than dofs W takes the dense solve
    monkeypatch.setattr(basis, "_EXTRA_PAIRS", 10**6)
    assert main(["basis", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    rep = json.loads((out / "basis_report.json").read_text())
    assert rep["invariants"]["passed"] is True
    assert rep["eigensolves"] == {
        "displacement": dense, "temperature": closed_form, "complement": complement
    }


def test_cli_env_override(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, MINIMAL)
    envdir = tmp_path / "envout"
    monkeypatch.setenv("THERMOVISC_OUT", str(envdir))
    assert main(["run", "--config", cfg_path, "--quiet"]) == EXIT_OK
    assert (envdir / "summary.json").exists()


def test_data_value_shapes_validated():
    with pytest.raises(ValidationError) as err:
        validate_config({"data": {"f": {"preset": "constant", "value": [1.0]}}})
    assert any("data.f.value" in v for v in err.value.violations)
    with pytest.raises(ValidationError):
        validate_config({"data": {"epsp0": {"preset": "constant_deviatoric", "value": [1.0, 2.0]}}})
    with pytest.raises(ValidationError):
        validate_config({"data": {"g": {"preset": "affine", "matrix": [[1.0]]}}})


@pytest.mark.parametrize(
    "name, digest",
    [("isolated", "0135f4313303be15"), ("forced", "ffc6125b30c45e27"),
     ("converge", "73fbc78f3a8ba98d")],
)
def test_shipped_config_hash_pinned(name, digest):
    # the hash heads every CSV; a drift in the canonical form shows up here
    assert config_hash(load_config(REPO / "configs" / f"{name}.json")) == digest


_COSINE = {"preset": "cosine"}
_RAMPED_F = {"preset": "polynomial", "value": [0.4, 0.6], "time": {"kind": "ramp"}}

_LORENTZ_HUGE = {"type": "mroz", "g": {"kind": "lorentz", "amplitude": 1e308, "offset": 1e308}}


def _mroz(g):
    return {"type": "mroz", "g": g}


# (where in configs/isolated.json, the value put there, what stderr must name);
# the shipped config has k = l = 10
_CONFIG_HOLES = {
    "modes_short": (("data", "theta0"), {**_COSINE, "modes": [1]}, "data.theta0.modes"),
    "modes_not_list": (("data", "theta0"), {**_COSINE, "modes": "ab"}, "data.theta0.modes"),
    "mean": (("data", "theta0"), {**_COSINE, "mean": "m"}, "data.theta0.mean"),
    "amplitude": (("data", "theta0"), {**_COSINE, "amplitude": "x"}, "data.theta0.amplitude"),
    "ramp_slope": (("data", "f", "time", "slope"), "a", "data.f.time.slope"),
    "sinusoid_omega": (("data", "f", "time"), {"kind": "sinusoid", "omega": [1]},
                       "data.f.time.omega"),
    "index_negative": (("data", "epsp0", "index"), -1, "data.epsp0.index"),
    "index_l": (("data", "epsp0", "index"), 10, "data.epsp0.index"),
    "key_foreign_to_preset": (("data", "f"), {"preset": "zero", "matrix": [[1.0]]},
                              "data.f.matrix"),
    "key_foreign_to_kind": (("data", "f", "time", "omega"), 2.0, "data.f.time.omega"),
    "time_on_theta0": (("data", "theta0", "time"), {"kind": "ramp"}, "data.theta0.time"),
    "section_not_object": (("mesh",), 5, "mesh: expected an object"),
    "tag_not_string": (("material", "law", "type"), ["mroz"], "material.law.type"),
    "integer_as_float": (("discretization", "k"), 2.0, "discretization.k"),
    "negative_seed": (("seed",), -1, "seed"),
    "law_constants_overflow": (("material", "law"), {"type": "bodner_partom", "m": 2000},
                               "material.law"),
    "bound_constants_overflow": (("material", "law", "p"), 50, "a-priori bound constants"),
    "mroz_negative": (("material", "law"), _mroz({"kind": "constant", "value": -1}),
                      "coercive law"),
    "mroz_table_negative": (("material", "law"),
                            _mroz({"kind": "table", "thetas": [0, 1], "values": [1, -0.5]}),
                            "coercive law"),
}


@pytest.mark.parametrize("where, value, named", _CONFIG_HOLES.values(), ids=_CONFIG_HOLES)
def test_config_holes_exit_2(tmp_path, capsys, where, value, named):
    # every key a builder reads is checked against the config table, so each
    # case exits 2, names its key and prints no traceback
    payload = json.loads((REPO / "configs" / "isolated.json").read_text())
    payload["discretization"]["n_steps"] = 2
    payload["data"]["f"] = copy.deepcopy(_RAMPED_F)
    node = payload
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    cfg_path = write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_gradient_mode_preset_is_unknown(tmp_path, capsys):
    # eps(w_n) carries trace and the initial inelastic strain may not, so no
    # such preset exists: the config fails validation and leaves no artifact
    payload = copy.deepcopy(MINIMAL)
    payload["data"]["epsp0"] = {"preset": "gradient_mode", "index": 0}
    cfg_path, out = write_cfg(tmp_path, payload), tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "data.epsp0.preset" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "law",
    [
        {"type": "norton_hoff", "c": 1.0, "p": 1000},
        {"type": "bodner_partom", "m": 1000},
        _LORENTZ_HUGE,
        _mroz({"kind": "constant", "value": 0}),
    ],
    ids=["norton_hoff_p1000", "bodner_partom_m1000", "lorentz_1e308", "mroz_zero"],
)
@pytest.mark.parametrize(
    "command, artifact", [("run", "summary.json"), ("certify", "certification.json")]
)
def test_cli_law_without_bound_exit_2(tmp_path, capsys, command, artifact, law):
    # run and certify both refuse a law whose a-priori bound cannot be
    # formed (certify before its sweep), and leave a failure record
    payload = {**MINIMAL, "material": {"law": law}, "certify": {"samples": 100}}
    cfg_path = write_cfg(tmp_path, payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "a-priori bound" in capsys.readouterr().err
    rep = json.loads((out / artifact).read_text())
    assert rep["failed"] is True and rep["checks"]["passed"] is False
    assert rep["config_hash"] == config_hash(load_config(cfg_path))


@pytest.mark.parametrize(
    "key, spec",
    [
        ("epsp0", {"preset": "complement_mode", "amplitude": 1e300}),
        ("f", {"preset": "constant", "value": [1e300, 1]}),
    ],
)
def test_cli_huge_data_fails_without_overflow_warning(tmp_path, capsys, key, spec):
    # energies of data near the float limit leave the float range; the run
    # fails with a record, and no RuntimeWarning (an error under pytest) leaks
    payload = copy.deepcopy(MINIMAL)
    payload["data"][key] = spec
    out = tmp_path / "o"
    code = main(["run", "--config", write_cfg(tmp_path, payload), "--out", str(out), "--quiet"])
    assert code in (EXIT_CONFIG, EXIT_SOLVER)
    assert "float range" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] is True and summary["checks"]["passed"] is False


def test_cli_failed_run_replaces_a_stale_summary(tmp_path):
    # a run that fails after set-up began overwrites the summary an earlier
    # run left in the same directory
    out = tmp_path / "o"
    first = write_cfg(tmp_path, MINIMAL)
    assert main(["run", "--config", first, "--out", str(out), "--quiet"]) == EXIT_OK
    payload = copy.deepcopy(MINIMAL)
    payload["material"] = {"law": {"type": "norton_hoff", "c": 1.0, "p": 50}}
    cfg_path = write_cfg(tmp_path, payload, name="p50.json")
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] is True and summary["checks"]["passed"] is False
    assert summary["config_hash"] == config_hash(load_config(cfg_path))


@pytest.mark.parametrize(
    "command, artifact", [("basis", "basis_report.json"), ("converge", "converge.json")]
)
def test_cli_solver_failure_record(tmp_path, dropping_eigsh, command, artifact):
    # an uncertified displacement eigenbasis leaves a record from basis and
    # converge, as a failure of run does; 2D 20^2 has 722 interior dofs, so
    # W takes the sparse branch
    payload = json.loads((REPO / "configs" / "isolated.json").read_text())
    payload["mesh"]["cells"] = [20, 20]
    payload["discretization"].update(k=4, l=4)
    cfg_path = write_cfg(tmp_path, payload)
    out = tmp_path / "o"
    dropping_eigsh(calls_that_drop=10**6)
    assert main([command, "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_SOLVER
    rep = json.loads((out / artifact).read_text())
    assert rep["failed"] is True and rep["checks"]["passed"] is False
    assert "displacement eigensolve incomplete" in rep["failure"]
    assert rep["command"] == command
    assert rep["config_hash"] == config_hash(load_config(cfg_path))


def test_cli_voigt_elasticity_and_full_complement(tmp_path):
    # anisotropic 6x6 elasticity with the full (trace-carrying) strain space
    m = np.diag([3.0, 3.1, 3.2, 2.0, 2.1, 2.2])
    m[0, 1] = m[1, 0] = 0.5
    payload = {
        "mesh": {"cells": [4, 4]},
        "material": {"elasticity": {"model": "voigt", "matrix": m.tolist()}},
        "data": {
            "theta0": {"preset": "constant", "value": 1.0},
            # full-complement modes carry trace, so seed with a deviatoric
            # constant instead of a raw mode
            "epsp0": {
                "preset": "constant_deviatoric",
                "value": [0.05, -0.05, 0.0, 0.03, 0.0, 0.0],
            },
        },
        "discretization": {"k": 2, "l": 2, "dt": 1e-3, "n_steps": 5,
                           "complement_space": "full"},
        "output": {"cadence": 10},
    }
    cfg_path = write_cfg(tmp_path, payload, name="voigt.json")
    out = tmp_path / "voigt_out"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    s = json.loads((out / "summary.json").read_text())
    assert s["checks"]["passed"] is True


def test_csv_time_trajectory(tmp_path):
    traj = tmp_path / "flux.csv"
    traj.write_text("0.0,0.0\n0.5,1.0\n1.0,0.5\n")
    cfg = validate_config(
        {
            "data": {
                "g_theta": {
                    "preset": "constant",
                    "value": 2.0,
                    "time": {"kind": "csv", "path": str(traj)},
                }
            }
        }
    )
    from thermovisc.config import make_boundary_flux
    from thermovisc.mesh_fem import build_mesh

    mesh = build_mesh(2, (1.0, 1.0), (2, 2))
    factor, base = make_boundary_flux(cfg, mesh)
    assert np.array_equal(base, np.full(mesh.n_nodes, 2.0))
    assert factor(0.25) == pytest.approx(0.5)
    assert factor(0.75) == pytest.approx(0.75)
    # a non-numeric row (a header) is a config error naming the file (exit 2)
    traj.write_text("t,f\n0.0,0.0\n1.0,1.0\n")
    with pytest.raises(BadData, match=f"cannot read trajectory {traj}"):
        make_boundary_flux(cfg, mesh)
    # missing path is a validation error
    with pytest.raises(ValidationError):
        validate_config(
            {"data": {"g_theta": {"preset": "constant", "value": 1.0, "time": {"kind": "csv"}}}}
        )


def test_cli_solver_failure_exit(tmp_path):
    payload = {
        "mesh": {"cells": [4, 4]},
        "material": {"law": {"type": "norton_hoff", "c": 1.0, "p": 4.0}},
        "data": {"epsp0": {"preset": "complement_mode", "index": 0, "amplitude": 2.0}},
        "discretization": {
            "k": 2,
            "l": 2,
            "dt": 0.5,
            "n_steps": 2,
            "solver_max_iter": 1,
            "solver_tol": 1e-15,
        },
    }
    cfg_path = write_cfg(tmp_path, payload, name="stiff.json")
    out = tmp_path / "s"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_SOLVER
    # the failed run still leaves a machine-readable record
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] is True
    assert summary["checks"]["passed"] is False
    assert "did not converge" in summary["failure"]
    assert 0.0 < summary["t_failed"] <= 0.5
    assert len(summary["residual_history"]) == 1
    assert summary["residual_history"][0] > 1e-15


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_cli_non_finite_number_exit(tmp_path, capsys, literal):
    # JSON NaN/Infinity parse as floats; every numeric key refuses them
    path = tmp_path / "config.json"
    path.write_text('{"discretization": {"dt": %s}}' % literal)
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert any("discretization.dt" in v for v in err.value.violations)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("thetas", ["[0.0, Infinity]", "[NaN]", "[]", "[1.0, \"hot\"]", "5.0"])
def test_cli_certify_thetas_validated(tmp_path, capsys, thetas):
    path = tmp_path / "config.json"
    path.write_text('{"certify": {"samples": 10, "thetas": %s}}' % thetas)
    out = tmp_path / "o"
    assert main(["certify", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "certify.thetas" in capsys.readouterr().err
    assert not (out / "certification.json").exists()


def test_cli_complement_certificate_refusal_exit(tmp_path, monkeypatch, capsys):
    # a complement pencil off the closed form's premise fails its residual
    # guard, a SolverFailure that the CLI maps to exit 3
    real = AssembledOperators.strain_gram

    def off_premise(self, comp_basis):
        gram_D, gram_s = real(self, comp_basis)
        bump = sp.csr_matrix(([0.01], ([0], [0])), shape=gram_s.shape)
        return gram_D, gram_s + bump

    monkeypatch.setattr(AssembledOperators, "strain_gram", off_premise)
    cfg_path = write_cfg(tmp_path, MINIMAL)
    code = main(["basis", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "complement eigensolve residual" in err and "Traceback" not in err


@pytest.mark.parametrize("mu, code", [(1e-4, EXIT_OK), (1e-6, EXIT_OK)])
def test_cli_soft_shear_complement_same_exit(tmp_path, capsys, mu, code):
    # basis and run agree on a soft shear modulus, and neither ends in a
    # traceback; at mu = 1e-6 the lambda = 1 modes are exact, so the absolute
    # lam_z >= 1 bound holds
    payload = json.loads((REPO / "configs" / "isolated.json").read_text())
    payload["material"]["elasticity"]["mu"] = mu
    payload["discretization"].update(k=4, l=4, n_steps=5)
    cfg_path = write_cfg(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["basis", "--config", cfg_path, "--out", str(out), "--quiet"]) == code
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == code
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["passed"] is (code == EXIT_OK)


def _raises(error):
    def fail(*args, **kwargs):
        raise error

    return fail


def _unit_square(cells):
    return assemble(build_mesh(2, (1.0, 1.0), (cells, cells)), ElasticityTensor.isotropic(1.0, 1.0))


def _temperature_off_premise(ops):
    # one perturbed lumped-mass entry breaks the closed form's premise
    ops.M_lumped[4] *= 1.01
    return basis.temperature_eigenbasis(ops, 2)


def _complement_off_premise(ops):
    # one perturbed stiffness entry breaks the Kronecker pencil's premise
    W, _ = basis.displacement_eigenbasis(ops, 2)
    ops.K_theta[4, 4] *= 1.01
    return basis.complement_strain_basis(ops, mode_strains(ops, W), 2)


def _heat_lift_off_premise(ops):
    # one perturbed stiffness entry takes the heat operator off its cosine modes
    ops.K_theta[4, 4] *= 1.01
    return lifting.solve_heat_lift(ops, np.zeros((2, 16)), np.ones(16), [0.0, 0.1])


_SINGULAR = RuntimeError("Factor is exactly singular")
_NOT_DEFINITE = np.linalg.LinAlgError("not positive definite")
_NO_CONVERGENCE = ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), None)


@pytest.mark.parametrize(
    "target, error, solve, message",
    [
        ("basis.eigh", _NOT_DEFINITE, lambda ops: basis.displacement_eigenbasis(ops, 2),
         "displacement eigensolve failed"),
        (None, None, _temperature_off_premise, "temperature eigensolve residual"),
        # the 3x3 mesh has 8 interior dofs, too few for the sparse branch
        ("basis.eigsh", _NO_CONVERGENCE,
         lambda ops: basis.displacement_eigenbasis(_unit_square(4), 2),
         "displacement eigensolve failed"),
        ("mesh_fem.splu", _SINGULAR,
         lambda ops: basis.displacement_eigenbasis(_unit_square(4), 2),
         "displacement shift-invert factorization failed"),
        (None, None, _complement_off_premise, "complement eigensolve residual"),
        # a zero datum needs no factorization, so the lift gets a force
        ("mesh_fem.splu", _SINGULAR,
         lambda ops: lifting.solve_elastic_lift(ops, np.ones((16, 2))),
         "elastic lift factorization failed"),
        (None, None, _heat_lift_off_premise, r"heat lift residual \S+ at step 1$"),
    ],
    ids=[
        "displacement",
        "temperature",
        "displacement_arpack",
        "displacement_shift_invert",
        "complement",
        "elastic_lift",
        "heat_lift",
    ],
)
def test_setup_solver_failure_names_stage(monkeypatch, target, error, solve, message):
    # a failing set-up factorization or eigensolve is a SolverFailure naming
    # the stage (exit 3), never a library exception
    ops = _unit_square(3)
    if target in ("basis.eigsh", "mesh_fem.splu"):
        monkeypatch.setattr(basis, "DENSE_CUTOFF", 0)  # take the ARPACK path (the lift has none)
    if target is not None:
        monkeypatch.setattr(f"thermovisc.{target}", _raises(error))
    with pytest.raises(SolverFailure, match=message):
        solve(ops)


def test_cli_run_lift_factorization_failure_exit(tmp_path, monkeypatch, capsys):
    # W is dense here, so the lift is the first reader of the shared factor
    monkeypatch.setattr(mesh_fem, "splu", _raises(_SINGULAR))
    # a zero datum needs no factorization, so the run gets a force
    payload = copy.deepcopy(MINIMAL)
    payload["data"]["f"] = {"preset": "polynomial", "value": [2.0, 2.0]}
    out = tmp_path / "o"
    code = main(["run", "--config", write_cfg(tmp_path, payload), "--out", str(out), "--quiet"])
    assert code == EXIT_SOLVER
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] is True
    assert "elastic lift factorization failed" in summary["failure"]


def test_cli_run_heat_lift_off_premise_exit(tmp_path, monkeypatch, capsys):
    # the heat lift's residual test guards its closed form: a heat operator
    # perturbed after the basis is built is a solver failure (exit 3)
    import thermovisc.cli as cli

    real = cli.build_lift

    def off_premise(ops, *args, **kwargs):
        ops.K_theta[4, 4] *= 1.01
        return real(ops, *args, **kwargs)

    monkeypatch.setattr(cli, "build_lift", off_premise)
    payload = copy.deepcopy(MINIMAL)
    payload["data"]["g_theta"] = {"preset": "constant", "value": 0.5}
    out = tmp_path / "o"
    code = main(["run", "--config", write_cfg(tmp_path, payload), "--out", str(out), "--quiet"])
    assert code == EXIT_SOLVER
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] is True
    assert summary["checks"]["passed"] is False
    assert "heat lift residual" in summary["failure"]
    assert summary["failure"].endswith("at step 1")


@pytest.mark.parametrize("k, l", [(50, 2), (1, 50)])
def test_cli_basis_size_out_of_range_exit(tmp_path, capsys, k, l):
    # more modes than the mesh has dofs is a config error, not a traceback
    payload = {"mesh": {"cells": [2, 2]}, "discretization": {"k": k, "l": l, "n_steps": 1}}
    cfg_path = write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_hardening_domain_exit(tmp_path):
    # a hardening gain so large that the explicit y update overflows
    payload = {
        "mesh": {"cells": [3, 3]},
        "material": {
            "law": {
                "type": "bodner_partom",
                "g0": 1.0,
                "m": 2.0,
                "gamma0": 1e308,
                "y0": 1.0,
                "y_min": 0.5,
                "y_max": 2.0,
            }
        },
        "data": {"epsp0": {"preset": "complement_mode", "index": 0, "amplitude": 2.0}},
        "discretization": {"k": 2, "l": 2, "dt": 1e-3, "n_steps": 2},
    }
    cfg_path = write_cfg(tmp_path, payload)
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == EXIT_SOLVER
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["failed"] is True
    assert summary["checks"]["passed"] is False
    assert "hardening update" in summary["failure"]


def test_cli_non_finite_law_input_exit(tmp_path, monkeypatch):
    # a corrupted initial state reaches the law's finiteness check
    import thermovisc.cli as cli

    initialize = cli.initialize

    def corrupted(*args, **kwargs):
        state = initialize(*args, **kwargs)
        state.delta[0] = np.nan
        return state

    monkeypatch.setattr(cli, "initialize", corrupted)
    cfg_path = write_cfg(tmp_path, MINIMAL)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_SOLVER
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["failed"] is True
    assert summary["checks"]["passed"] is False
    assert "NaN or infinite" in summary["failure"]
    # not a nonlinear solve failure, so no step time or residual history
    assert "t_failed" not in summary and "residual_history" not in summary


def test_cli_state_corrupt_leaves_failure_record(tmp_path, monkeypatch):
    # a state found corrupt mid-run is an invariant violation (exit 4) with
    # a failure record
    import thermovisc.cli as cli

    collect_row = cli.collect_row

    def corrupt_at_step_3(tables, state, step_index, report, theta):
        if step_index == 3:
            state.delta[0] = np.nan
            state.validate()
        return collect_row(tables, state, step_index, report, theta)

    monkeypatch.setattr(cli, "collect_row", corrupt_at_step_3)
    cfg_path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_INVARIANT
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] is True and summary["checks"]["passed"] is False
    assert "non-finite coefficients in delta" in summary["failure"]
    assert summary["config_hash"] == config_hash(load_config(cfg_path))
    assert "t_failed" not in summary and "residual_history" not in summary


def test_bodner_partom_config_roundtrip():
    cfg = validate_config(
        {
            "material": {
                "law": {
                    "type": "bodner_partom",
                    "g0": 1.0,
                    "m": 2.0,
                    "gamma0": 0.5,
                    "y0": 1.0,
                    "y_min": 0.5,
                    "y_max": 2.0,
                }
            }
        }
    )
    law = make_law(cfg)
    assert law.p == 3.0
    assert law.gamma0 == 0.5


def test_cli_forced_run_with_ramped_flux(tmp_path):
    payload = {
        "mesh": {"cells": [6, 6]},
        "material": {
            "law": {"type": "mroz", "g": {"kind": "lorentz", "amplitude": 1.0, "offset": 0.5}}
        },
        "data": {
            "f": {"preset": "polynomial", "value": [0.4, 0.6]},
            "g_theta": {
                "preset": "constant",
                "value": 0.2,
                "time": {"kind": "ramp", "slope": 1.0, "intercept": 0.5},
            },
            "theta0": {"preset": "cosine", "mean": 1.0, "amplitude": 0.2, "modes": [1, 1]},
        },
        "discretization": {"k": 4, "l": 4, "dt": 1e-3, "n_steps": 40},
        "output": {"cadence": 40},
    }
    cfg_path = write_cfg(tmp_path, payload, name="forced.json")
    out = tmp_path / "forced"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    s = json.loads((out / "summary.json").read_text())
    assert s["isolated"] is False
    assert s["checks"]["passed"] is True
    assert s["monitor"]["satisfied"] is True
    assert s["monitor"]["lift_lp_sum"] > 0


def test_cli_three_dimensional_run(tmp_path):
    payload = {
        "mesh": {"dim": 3, "extents": [1.0, 1.0, 1.0], "cells": [2, 2, 2]},
        "data": {
            "theta0": {"preset": "constant", "value": 1.0},
            "epsp0": {"preset": "complement_mode", "index": 0, "amplitude": 0.1},
        },
        "discretization": {"k": 2, "l": 2, "dt": 1e-3, "n_steps": 10},
        "output": {"cadence": 10, "formats": ["csv", "vtk"]},
    }
    cfg_path = write_cfg(tmp_path, payload, name="run3d.json")
    out = tmp_path / "o3d"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    vtk = (out / "snapshot_000010.vtk").read_text()
    assert "DIMENSIONS 3 3 3" in vtk


def test_cli_converge_small(tmp_path):
    payload = {
        "mesh": {"cells": [6, 6]},
        "material": {"law": {"type": "norton_hoff", "c": 1.0, "p": 3.0}},
        "data": {
            "f": {"preset": "polynomial", "value": [0.3, 0.5]},
            "theta0": {"preset": "constant", "value": 1.0},
        },
        "discretization": {"k": 2, "l": 2, "dt": 2e-3, "n_steps": 10},
        "converge": {"ladder": [[2, 2], [4, 4], [8, 8]]},
        "output": {"cadence": 100},
    }
    cfg_path = write_cfg(tmp_path, payload)
    out = tmp_path / "conv"
    code = main(["converge", "--config", cfg_path, "--out", str(out), "--quiet"])
    rep = json.loads((out / "converge.json").read_text())
    totals = [r["delta_total"] for r in rep["rows"]]
    assert len(totals) == 2
    assert code == EXIT_OK, rep
    assert totals[0] > totals[1]


def test_zeta_is_paired_under_D_once_per_run_setup(monkeypatch):
    # build_basis's basis_fields forms the weighted D zeta once; the step's E,
    # the rows' Gram matrix and the invariant report all read its products
    seen = []
    real = ElasticityTensor.apply6
    monkeypatch.setattr(ElasticityTensor, "apply6", lambda D, v: seen.append(v) or real(D, v))
    cfg = validate_config(MINIMAL)
    ops = build_operators(cfg)
    system, _, lifted, _ = prepare_run(cfg, ops)
    RowTables.build(system, lifted)
    assert sum(v is system.basis.zeta for v in seen) == 1


def test_run_and_invariant_report_read_the_fields_pairings():
    cfg = validate_config(MINIMAL)
    ops = build_operators(cfg)
    system, evo, lifted, state0 = prepare_run(cfg, ops)
    tables = RowTables.build(system, lifted)
    assert basis_invariant_report(ops, system.basis)["passed"]
    # the report checks the arrays the run reads, not a re-computation
    perturbed = {}
    for name, check in (("gram_zeta", "gram_Z_D_err"), ("E", "cross_orth_err")):
        perturbed[name] = getattr(system.basis, name).copy()
        perturbed[name][0, 0] += 1e-6
        changed = dataclasses.replace(system.basis, **{name: perturbed[name]})
        assert basis_invariant_report(ops, changed)["failed"] == [check]
    # and the rows' potential energy and the step's equilibrium residual read
    # the basis's own arrays
    system.basis = dataclasses.replace(system.basis, **perturbed)
    delta, c = np.ones(system.l), np.zeros(lifted.factors.shape[1])
    gram = system.basis.gram_zeta
    assert tables.potential_energy(delta, c) == 0.5 * float(delta @ gram @ delta)
    new, rep = step(system, state0, lifted, 1, evo)
    assert rep.equilibrium_residual == float(np.abs(system.basis.E @ new.delta).max())


def test_basis_tables_are_formed_once_by_build_basis(tmp_path, monkeypatch):
    # basis_fields has one caller, build_basis: once per run set-up and per
    # basis command, and never when a ModalSystem binds a basis to a law
    calls = []
    real = basis.basis_fields
    monkeypatch.setattr(basis, "basis_fields", lambda *args: calls.append(args) or real(*args))
    cfg = validate_config(MINIMAL)
    ops = build_operators(cfg)
    system, *_ = prepare_run(cfg, ops)
    assert len(calls) == 1
    ModalSystem(ops, system.basis, system.law)
    assert len(calls) == 1
    out = tmp_path / "out"
    assert main(["basis", "--config", write_cfg(tmp_path, MINIMAL), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    assert len(calls) == 2


def test_mode_strains_are_formed_once_per_run_setup(monkeypatch):
    # build_basis forms eps(w_n) once for the complement's constraint rows and
    # the basis fields; every other strain_quad of the set-up is a lift solve's
    strains, lifts = [], []
    real_quad, real_lift = AssembledOperators.strain_quad, lifting.solve_elastic_lift
    monkeypatch.setattr(AssembledOperators, "strain_quad",
                        lambda ops, u: strains.append(u) or real_quad(ops, u))
    monkeypatch.setattr(lifting, "solve_elastic_lift",
                        lambda *a, **kw: lifts.append(a) or real_lift(*a, **kw))
    cfg = load_config(REPO / "configs" / "forced.json")
    system, *_ = prepare_run(cfg, build_operators(cfg))
    assert len(lifts) == 1
    assert len(strains) == system.basis.k + len(lifts)
    assert not {"fields", "E"} & vars(system).keys()  # no second owner of a basis table


def test_run_setup_factors_the_interior_stiffness_once(monkeypatch):
    # W's shift-invert solve and the elastic lift discretize the same operator
    # and share one factor of the interior K_D; every other factorization of
    # the set-up is an inertia count of a shifted matrix
    cfg = load_config(REPO / "configs" / "forced.json")
    ops = build_operators(cfg)
    free = ops.interior_dofs
    kff = ops.K_D[free][:, free]
    monkeypatch.setattr(basis, "DENSE_CUTOFF", 0)
    factored = []
    for module in (basis, lifting, mesh_fem):
        if hasattr(module, "splu"):
            real = module.splu
            monkeypatch.setattr(module, "splu", lambda S, *a, real=real, **kw: (
                factored.append(S) or real(S, *a, **kw)))
    system, _, lifted, _ = prepare_run(cfg, ops)
    assert system.basis.eigensolves["displacement"]["branch"] == "sparse"
    assert lifted.u_tilde.any()  # the lift solved a force
    assert sum(abs(S - kff).max() == 0.0 for S in factored) == 1


def test_node_to_gauss_matrix_is_formed_once(monkeypatch):
    # the basis, the lift slices and the snapshots all read one (NQ, n) matrix
    shapes = []
    real = sp.coo_matrix
    monkeypatch.setattr(sp, "coo_matrix", lambda *a, **kw: (
        shapes.append(kw.get("shape")) or real(*a, **kw)))
    cfg = load_config(REPO / "configs" / "forced.json")
    cfg["discretization"]["n_steps"] = 3
    ops = build_operators(cfg)
    system, evo, lifted, state0 = prepare_run(cfg, ops)
    assert lifted.theta_tilde.any()  # the steps interpolate the heat lift
    result = evolution.run(system, state0, lifted, evo)
    evolution.reconstruct_fields(system, result.final_state, lifted, evo.n_steps)
    assert shapes.count((ops.wq.size, ops.n_nodes)) == 1
