"""Seeded property tests of the exit-code contract of ``run``, ``basis`` and ``certify``.

Random data, law and time specs on a 3x3 mesh with 2 steps, and random set-ups
(2D/3D meshes of 1-4 cells a side with extents 1e-3-1e3, isotropic moduli on
a units ladder, basis sizes, time grids of 0-3 steps), must end in one of the
documented exit codes (0 ok, 2 config, 3 solver, 4 invariant), and never in a
traceback.  Once the config has loaded (the output directory exists), the
command's artifact is this config's record: a raised failure leaves a failure
record, and ``run``'s ``summary.json`` passes exactly when the exit code is 0.
Where ``basis`` fails on a set-up, ``run`` fails with the same code and line.
``certify`` gets random laws and sweeps: thetas and radii up to the ends of
the float range and 1-64 samples.  It runs no solver, so it exits 0, 2 or 4,
and a certificate that passes holds no NaN or infinite number.  The data,
law and sweep draws mix valid keys and values with malformed ones.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from thermovisc.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_SOLVER, main
from thermovisc.config import config_hash, validate_config

NUM = st.one_of(st.integers(-2, 4), st.floats(-3.0, 3.0))
POS = st.floats(0.1, 4.0)
NOISE = st.sampled_from([1e300, "a", None, True, {}, [], [1.0, "x"]])


def _maybe(good):
    """Mostly ``good`` values, sometimes a malformed one."""
    return st.one_of(good, good, good, NOISE)


def _vec(lo, hi):
    return st.lists(NUM, min_size=lo, max_size=hi)


def _log10(lo, hi):
    """Magnitudes spread evenly over the decades 10**lo ... 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _node(tag, name, required=None, **optional):
    fixed = {tag: st.just(name)}
    fixed.update({k: _maybe(v) for k, v in (required or {}).items()})
    return st.fixed_dictionaries(fixed, optional={k: _maybe(v) for k, v in optional.items()})


TIME = st.one_of(
    _node("kind", "constant"),
    _node("kind", "ramp", slope=NUM, intercept=NUM),
    _node("kind", "sinusoid", amplitude=NUM, omega=NUM, phase=NUM),
)

# each preset with its own keys, plus a few keys foreign to it
DATA = st.fixed_dictionaries(
    {},
    optional={
        "f": st.one_of(
            _node("preset", "zero", time=TIME, value=_vec(2, 2)),
            _node("preset", "constant", {"value": _vec(1, 3)}, time=TIME),
            _node("preset", "polynomial", {"value": _vec(1, 3)}, time=TIME),
        ),
        "g": st.one_of(
            _node("preset", "zero", time=TIME),
            _node("preset", "affine", {"matrix": st.lists(_vec(1, 3), min_size=1, max_size=3)},
                  time=TIME),
        ),
        "g_theta": st.one_of(
            _node("preset", "zero", time=TIME),
            _node("preset", "constant", {"value": NUM}, time=TIME),
        ),
        "theta0": st.one_of(
            _node("preset", "constant", {"value": POS}, time=TIME),
            _node("preset", "cosine", mean=NUM, amplitude=NUM, modes=_vec(0, 3)),
        ),
        "epsp0": st.one_of(
            _node("preset", "zero", index=st.integers(0, 1)),
            _node("preset", "complement_mode", index=st.integers(-1, 3), amplitude=NUM),
            _node("preset", "constant_deviatoric", {"value": _vec(5, 7)}),
        ),
        "theta_tilde0": st.one_of(
            _node("preset", "zero"), _node("preset", "constant", {"value": NUM})
        ),
    },
)

LAW = st.one_of(
    _node("type", "norton_hoff", {"c": POS, "p": st.floats(2.0, 6.0)}),
    _node(
        "type",
        "mroz",
        {
            "g": st.one_of(
                _node("kind", "constant", {"value": NUM}),
                _node("kind", "lorentz", {"amplitude": POS, "offset": POS}, width=POS),
                _node("kind", "table", {"thetas": _vec(1, 3), "values": _vec(1, 3)}),
            )
        },
    ),
    _node(
        "type",
        "bodner_partom",
        **{k: POS for k in ("g0", "m", "A", "gamma0", "delta0", "y0", "y_min", "y_max")},
    ),
)


MESH = st.integers(2, 3).flatmap(
    lambda dim: st.fixed_dictionaries(
        {
            "dim": st.just(dim),
            "cells": st.lists(st.integers(1, 4), min_size=dim, max_size=dim),
            "extents": st.lists(_log10(-3, 3), min_size=dim, max_size=dim),
        }
    )
)

# mu from 1e-8 to 1e12 and lam/mu from 1e-3 to 1e5, or lam = 0
ELASTICITY = st.builds(
    lambda mu, ratio: {"model": "isotropic", "lam": ratio * mu, "mu": mu},
    _log10(-8, 12),
    st.one_of(st.just(0.0), _log10(-3, 5)),
)

DISCRETIZATION = st.fixed_dictionaries(
    {
        "k": st.integers(1, 8),
        "l": st.integers(1, 8),
        "dt": _log10(-4, 0),
        "n_steps": st.integers(0, 3),
    }
)

#: thetas from the unit range to the ends of the float range, with their signs
EXTREME = st.one_of(NUM, _log10(-300, 308), _log10(-300, 308).map(lambda x: -x),
                    st.sampled_from([-1.7e308, 1.7e308, -1e308, 1e308, 5e-324]))

CERTIFY = st.fixed_dictionaries(
    {
        "thetas": _maybe(st.lists(EXTREME, min_size=1, max_size=4)),
        "radius": st.one_of(POS, _log10(-300, 308)),
        "samples": st.integers(1, 64),
    },
)

#: the artifact each command writes
ARTIFACTS = {"run": "summary.json", "basis": "basis_report.json",
             "certify": "certification.json"}


def _refuse_non_finite(constant):
    raise AssertionError(f"{constant} in the artifact of a command that exited 0")


def _exit_and_stderr(command, payload, parse_ok=None):
    """Exit code, stderr and artifact of ``command``; ``parse_ok`` is the
    ``parse_constant`` hook that reads the artifact of an exit 0."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "o"
        path.write_text(json.dumps(payload))
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
        hook = parse_ok if code == EXIT_OK else None
        record = (json.loads((out / ARTIFACTS[command]).read_text(), parse_constant=hook)
                  if out.exists() else None)
    return code, err.getvalue(), record


def _check_exit_code_contract(command, payload, parse_ok=None):
    code, err, record = _exit_and_stderr(command, payload, parse_ok)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if record is not None:
        assert record["config_hash"] == config_hash(validate_config(payload))
        if code in (EXIT_CONFIG, EXIT_SOLVER):
            assert record["failed"] is True
        if code == EXIT_OK:
            assert "failed" not in record
        if command == "run":
            assert record["checks"]["passed"] is (code == 0)
    return code, record


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=DATA, law=LAW)
def test_run_exit_code_contract(data, law):
    payload = {
        "mesh": {"cells": [3, 3]},
        "material": {"law": law},
        "data": data,
        "discretization": {"k": 2, "l": 2, "dt": 1e-2, "n_steps": 2},
        "output": {"cadence": 10},
    }
    _check_exit_code_contract("run", payload)


def _setup_payload(mesh, elasticity, disc):
    return {
        "mesh": mesh,
        "material": {"elasticity": elasticity},
        # the data of configs/isolated.json: a relaxing complement mode
        "data": {
            "theta0": {"preset": "constant", "value": 2.0},
            "epsp0": {"preset": "complement_mode", "index": 0, "amplitude": 0.05},
        },
        "discretization": disc,
        "output": {"cadence": 10},
    }


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(command=st.sampled_from(["basis", "run"]), mesh=MESH, elasticity=ELASTICITY,
       disc=DISCRETIZATION)
def test_setup_exit_code_contract(command, mesh, elasticity, disc):
    _check_exit_code_contract(command, _setup_payload(mesh, elasticity, disc))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(mesh=MESH, elasticity=ELASTICITY, disc=DISCRETIZATION)
def test_run_refuses_every_basis_that_basis_refuses(mesh, elasticity, disc):
    # run and basis share one set-up and one basis contract: where basis
    # fails, run fails with the same exit code and the same stderr line; a
    # basis whose invariant report fails makes run name the failed invariants
    payload = _setup_payload(mesh, elasticity, disc)
    code, err, record = _exit_and_stderr("basis", payload)
    event(f"basis exit {code}")
    if code == EXIT_OK:
        return
    run_code, run_err, _ = _exit_and_stderr("run", payload)
    assert run_code == code
    if code == EXIT_INVARIANT and "failed" not in record:  # basis wrote its report
        failed = ", ".join(record["invariants"]["failed"])
        assert run_err == f"invariant violation: basis invariants failed: {failed}\n"
    else:
        assert run_err == err


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(law=LAW, certify=CERTIFY)
# a theta range wider than the float range
@example(law={"type": "norton_hoff", "c": 1.0, "p": 3.0},
         certify={"thetas": [-1.7e308, 1.7e308], "samples": 8})
# radii whose sweeps leave the float range
@example(law={"type": "norton_hoff", "c": 1.0, "p": 6.0}, certify={"radius": 1e100, "samples": 8})
@example(law={"type": "norton_hoff", "c": 1.0, "p": 3.0}, certify={"radius": 1e200, "samples": 8})
# a radius so small that no sample can test coercivity
@example(law={"type": "mroz", "g": {"kind": "constant", "value": 1}},
         certify={"thetas": [0], "radius": 1e-12, "samples": 1})
def test_certify_exit_code_contract(law, certify):
    # certify runs no solver; every certify failure is raised, so its artifact
    # is a failure record, and a passing certificate holds only finite statistics
    code, record = _check_exit_code_contract(
        "certify", {"material": {"law": law}, "certify": certify}, _refuse_non_finite)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT)
    if record is not None:
        assert record.get("failed", False) is (code != EXIT_OK)
