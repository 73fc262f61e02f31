"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and timings.
"""

import json
import time

import numpy as np
import pytest

from thermovisc.basis import (
    basis_fields,
    build_basis,
    projection_norm_check,
    temperature_eigenbasis,
)
from thermovisc.cli import EXIT_OK, main
from thermovisc.constitutive import Mroz, NortonHoff, certify_assumption1
from thermovisc.diagnostics import EnergyReport, RowTables, collect_row
from thermovisc.evolution import (
    EvolutionConfig,
    ModalSystem,
    initialize,
    run,
)
from thermovisc.lifting import solve_elastic_lift, solve_heat_lift, zero_lift
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor

D_UNIT = ElasticityTensor.isotropic(lam=1.0, mu=1.0)


def _verdict(num, ok, desc, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {tag} - {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


# -- criterion 1: constitutive certification ---------------------------------

def test_criterion_1_certification():
    t0 = time.perf_counter()
    laws = [NortonHoff(c=1.0, p=p) for p in (2.0, 3.0, 4.0)]
    laws.append(Mroz.lorentz(amplitude=1.0, offset=0.5, width=1.0))
    worst_mono, worst_coer = 0.0, np.inf
    for law in laws:
        rep = certify_assumption1(law, sample_count=10_000, radius=10.0, seed=7)
        assert rep.passed
        worst_mono = min(worst_mono, rep.monotonicity_min)
        worst_coer = min(worst_coer, rep.coercivity_ratio_min / rep.beta_coercivity)
    elapsed = time.perf_counter() - t0
    ok = worst_mono >= -1e-12 and worst_coer >= 1.0 - 1e-9 and elapsed < 5.0
    _verdict(
        1,
        ok,
        "Norton-Hoff p in {2,3,4} and Mroz certify at 1e4 samples",
        f"mono_min={worst_mono:.2e}, coer/beta={worst_coer:.12f}, {elapsed:.2f}s",
    )


# -- criterion 2: basis suite -------------------------------------------------

def test_criterion_2_basis_suite():
    t0 = time.perf_counter()
    ops = assemble(build_mesh(2, (1.0, 1.0), (16, 16)), D_UNIT)
    basis = build_basis(ops, k=12, l=12)
    f = basis_fields(ops, basis)

    gram_l2 = basis.W @ (ops.M_u @ basis.W.T)
    err_l2 = np.abs(gram_l2 - np.eye(12)).max()
    gram_d = np.einsum("q,nqi,mqi->nm", ops.wq, f.D_eps_w, f.eps_w)
    err_d = np.abs(gram_d - np.diag(basis.lam_w)).max()
    mu1 = abs(basis.mu_v[0])
    v1_err = np.abs(basis.V[0] - basis.V[0].mean()).max()
    cross = np.abs(np.einsum("q,mqi,nqi->mn", ops.wq, f.D_zeta, f.eps_w)).max()
    norm_rep = projection_norm_check(basis, n_fields=1000, seed=3)
    elapsed = time.perf_counter() - t0

    ok = (
        err_l2 <= 1e-10
        and err_d <= 1e-9
        and mu1 <= 1e-11
        and v1_err <= 1e-10
        and cross <= 1e-10
        and norm_rep["non_expansive"]
        and elapsed < 30.0
    )
    _verdict(
        2,
        ok,
        "16x16 basis: Gram identities, Neumann kernel, complement orthogonality",
        f"L2={err_l2:.1e}, D={err_d:.1e}, mu1={mu1:.1e}, cross={cross:.1e}, "
        f"ratio={norm_rep['max_ratio']:.12f}, {elapsed:.2f}s",
    )


# -- criterion 3: Laplace eigenvalue accuracy ---------------------------------

def test_criterion_3_laplace_eigenvalue():
    t0 = time.perf_counter()
    ops = assemble(build_mesh(2, (1.0, 1.0), (64, 64)), D_UNIT)
    _, mu = temperature_eigenbasis(ops, 4)
    rel = abs(mu[1] - np.pi**2) / np.pi**2
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.02 and elapsed < 60.0
    _verdict(
        3,
        ok,
        "unit square 64x64: second Neumann eigenvalue matches pi^2",
        f"mu2={mu[1]:.6f}, rel_err={rel:.2e}, {elapsed:.2f}s",
    )


# -- criteria 4 & 5: isolated-system conservation and energy identity ---------

@pytest.fixture(scope="module")
def isolated_run():
    ops = assemble(build_mesh(2, (1.0, 1.0), (8, 8)), D_UNIT)
    basis = build_basis(ops, k=10, l=10)
    system = ModalSystem(ops, basis, NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-3, 200
    cfg = EvolutionConfig(dt=dt, n_steps=n)
    lift = zero_lift(ops, dt * np.arange(n + 1))
    epsp0 = 0.04 * system.fields.zeta[0] + 0.025 * system.fields.zeta[3]
    state0 = initialize(system, np.full(ops.n_nodes, 2.0), epsp0, cfg)

    report = EnergyReport()
    t0 = time.perf_counter()
    tables = RowTables.build(system, lift)

    def on_step(i, state, rep):
        theta = system.theta_nodal(state.beta) + lift.theta_tilde[i]
        report.append(collect_row(tables, state, i, rep, theta))

    run(system, state0, lift, cfg, on_step=on_step)
    elapsed = time.perf_counter() - t0
    return report, cfg, elapsed


def test_criterion_4_isolated_conservation(isolated_run):
    report, cfg, elapsed = isolated_run
    checks = report.evaluate(isolated=True, solver_tol=cfg.solver_tol)
    e_pot = report.series("e_pot")
    diss = report.series("dissipation")
    ok = (
        checks["energy_drift_rel"] <= 1e-6
        and (np.max(np.diff(e_pot)) <= 1e-10)
        and np.min(diss) >= 0.0
        and checks["theta_min"] >= -1e-12
        and checks["entropy_nondecreasing"]
        and elapsed < 120.0
    )
    _verdict(
        4,
        ok,
        "isolated NH p=3 run conserves energy, heats monotonically",
        f"drift={checks['energy_drift_rel']:.2e}, theta_min={checks['theta_min']:.3f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_energy_identity(isolated_run):
    report, cfg, _ = isolated_run
    defects = report.series("energy_defect")
    worst = float(np.abs(defects).max())
    ok = worst <= 10.0 * cfg.solver_tol
    _verdict(
        5,
        ok,
        "per-step discrete energy identity holds at solver precision",
        f"max_defect={worst:.2e} vs {10 * cfg.solver_tol:.0e}",
    )


# -- criterion 6: manufactured single-mode decay ------------------------------

def test_criterion_6_single_mode_decay():
    t0 = time.perf_counter()
    mu_shear = 1.0
    ops = assemble(build_mesh(2, (1.0, 1.0), (6, 6)), ElasticityTensor.isotropic(1.0, mu_shear))
    basis = build_basis(ops, k=1, l=1)
    system = ModalSystem(ops, basis, Mroz.constant(1.0))
    rate = 2.0 * mu_shear  # closed-form oracle: delta' = -2 mu g delta
    horizon = 0.4
    amp = 0.2
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        n = round(horizon / dt)
        cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
        lift = zero_lift(ops, dt * np.arange(n + 1))
        st = initialize(system, np.ones(ops.n_nodes), amp * system.fields.zeta[0], cfg)
        res = run(system, st, lift, cfg)
        errors.append(abs(res.delta[-1, 0] - amp * np.exp(-rate * horizon)))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = all(0.8 <= o <= 1.2 for o in orders) and elapsed < 30.0
    _verdict(
        6,
        ok,
        "implicit Euler converges at first order to the exact exponential",
        f"orders={[f'{o:.3f}' for o in orders]}, {elapsed:.2f}s",
    )


# -- criterion 7: two-level refinement ----------------------------------------

def test_criterion_7_two_level_refinement(tmp_path):
    t0 = time.perf_counter()
    payload = {
        "mesh": {"cells": [12, 12]},
        "material": {"law": {"type": "norton_hoff", "c": 1.0, "p": 3.0}},
        "data": {
            "f": {"preset": "polynomial", "value": [0.4, 0.6]},
            "theta0": {"preset": "constant", "value": 1.0},
        },
        "discretization": {"k": 4, "l": 4, "dt": 2e-3, "n_steps": 50},
        "converge": {"ladder": [[4, 4], [8, 8], [16, 16]]},
        "output": {"cadence": 1000},
    }
    cfg_path = tmp_path / "converge.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "conv"
    code = main(["converge", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    rep = json.loads((out / "converge.json").read_text())
    totals = [r["delta_total"] for r in rep["rows"]]
    elapsed = time.perf_counter() - t0
    ok = code == EXIT_OK and rep["strictly_decreasing"] and elapsed < 300.0
    _verdict(
        7,
        ok,
        "terminal-field deltas decrease strictly along the (k,l) ladder",
        f"deltas={[f'{t:.3e}' for t in totals]}, {elapsed:.2f}s",
    )


# -- criterion 8: lifting correctness -----------------------------------------

def test_criterion_8_lifting():
    t0 = time.perf_counter()
    ops = assemble(build_mesh(2, (1.0, 1.0), (16, 16)), D_UNIT)
    # uniform-strain patch test
    A = np.array([[0.25, 0.06], [0.06, -0.18]])
    g = ops.mesh.nodes @ A.T
    _, eq, _ = solve_elastic_lift(ops, g_boundary=g)
    expect = np.array([0.25, -0.18, 0.0, 0.12 / np.sqrt(2.0), 0.0, 0.0])
    patch_err = float(np.abs(eq - expect).max())

    # zero-flux conservation
    rng = np.random.default_rng(11)
    theta0 = rng.uniform(0.5, 1.5, ops.n_nodes)
    times = np.linspace(0.0, 0.2, 41)
    traj = solve_heat_lift(ops, np.zeros((41, ops.n_nodes)), theta0, times)
    heat = traj @ ops.M_lumped
    drift = float(np.abs(heat - heat[0]).max() / abs(heat[0]))

    # constant-flux heating rate
    q = 0.9
    traj = solve_heat_lift(ops, np.full((41, ops.n_nodes), q), np.zeros(ops.n_nodes), times)
    heat = traj @ ops.M_lumped
    rates = np.diff(heat) / np.diff(times)
    rate_err = float(np.abs(rates - q * ops.mesh.boundary_measure).max())
    elapsed = time.perf_counter() - t0

    ok = patch_err <= 1e-12 and drift <= 1e-12 and rate_err <= 1e-10
    _verdict(
        8,
        ok,
        "patch test exact, heat lift conserves and meters the boundary flux",
        f"patch={patch_err:.1e}, drift={drift:.1e}, rate_err={rate_err:.1e}, {elapsed:.2f}s",
    )


# -- criterion 9: truncation consistency --------------------------------------

def test_criterion_9_truncation():
    t0 = time.perf_counter()
    ops = assemble(build_mesh(2, (1.0, 1.0), (6, 6)), D_UNIT)
    basis = build_basis(ops, k=6, l=6)
    system = ModalSystem(ops, basis, NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-3, 50
    lift = zero_lift(ops, dt * np.arange(n + 1))
    epsp0 = 0.1 * system.fields.zeta[0] + 0.05 * system.fields.zeta[2]
    # keep theta0 below every tested level so only the dissipation source is
    # truncated, not the initial data
    theta0 = np.full(ops.n_nodes, 0.01)

    def run_level(level):
        cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=level)
        st = initialize(system, theta0, epsp0, cfg)
        res = run(system, st, lift, cfg)
        dmax = max(
            np.max(np.abs(r.dissipation)) for r in res.reports
        )  # integral; pointwise checked below
        return res, dmax

    # level = Galerkin index k: inactive because dissipation stays below it
    res_k, _ = run_level(6.0)
    res_inf, _ = run_level(1e30)
    same = float(
        max(
            np.abs(res_k.gamma - res_inf.gamma).max(),
            np.abs(res_k.delta - res_inf.delta).max(),
            np.abs(res_k.beta - res_inf.beta).max(),
        )
    )
    assert all(r.trunc_fraction == 0.0 for r in res_k.reports)

    # pointwise dissipation ceiling of the untruncated run
    td0 = -np.einsum("m,mqi->qi", res_inf.delta[0], system.fields.D_zeta)
    d_max = float((np.linalg.norm(td0, axis=1) ** 3).max())
    deltas = []
    for frac in (0.2, 0.4, 0.8):
        res_l, _ = run_level(frac * d_max)
        deltas.append(float(np.abs(res_l.beta - res_inf.beta).max()))
    monotone = all(a > b for a, b in zip(deltas, deltas[1:]))
    elapsed = time.perf_counter() - t0

    ok = same <= 1e-12 and monotone
    _verdict(
        9,
        ok,
        "inactive truncation is exact; deeper levels deviate monotonically",
        f"inactive_diff={same:.1e}, deltas={[f'{d:.2e}' for d in deltas]}, {elapsed:.2f}s",
    )


# -- criterion 10: determinism -------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    payload = {
        "mesh": {"cells": [6, 6]},
        "material": {"law": {"type": "norton_hoff", "c": 1.0, "p": 3.0}},
        "data": {
            "theta0": {"preset": "constant", "value": 1.0},
            "epsp0": {"preset": "complement_mode", "index": 0, "amplitude": 0.1},
        },
        "discretization": {"k": 4, "l": 4, "dt": 1e-3, "n_steps": 50},
        "output": {"cadence": 25},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(payload))
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        blobs.append((out / "diagnostics.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _verdict(10, ok, "repeated cmd_run produces byte-identical diagnostics CSV")
