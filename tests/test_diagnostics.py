import dataclasses
import math

import numpy as np
import pytest

from thermovisc.basis import basis_fields, build_basis
from thermovisc.constitutive import NortonHoff
from thermovisc.diagnostics import (
    AprioriMonitor,
    DiagnosticsRow,
    RowTables,
    collect_row,
    energy_checks,
    entropy,
    entropy_rate_check,
    potential_energy,
    thermal_energy,
)
from thermovisc.evolution import (
    EvolutionConfig,
    ModalSystem,
    initial_report,
    initialize,
    reconstruct_fields,
    run,
    step,
)
from thermovisc.lifting import build_lift
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor, dev6, norm6

D_HALF = ElasticityTensor.isotropic(lam=0.0, mu=0.5)


@pytest.fixture(scope="module")
def ops():
    return assemble(build_mesh(2, (1.0, 1.0), (4, 4)), D_HALF)


def test_potential_energy_basics(ops):
    nq = ops.wq.size
    z = np.zeros((nq, 6))
    assert potential_energy(ops, z, z) == 0.0
    rng = np.random.default_rng(0)
    e = rng.standard_normal((nq, 6))
    assert potential_energy(ops, e, e) == 0.0  # eps(u) == eps_p
    assert potential_energy(ops, e, z) >= 0.0


def test_potential_energy_constant_field_oracle(ops):
    # D = identity (lam=0, mu=1/2); unit-norm constant field on the unit box
    nq = ops.wq.size
    e = np.zeros((nq, 6))
    e[:, 3] = 1.0
    assert potential_energy(ops, e, np.zeros((nq, 6))) == pytest.approx(0.5, rel=1e-12)


def test_total_and_thermal_energy(ops):
    nq = ops.wq.size
    z = np.zeros((nq, 6))
    zero_theta = np.zeros(ops.n_nodes)
    assert thermal_energy(ops, zero_theta) + potential_energy(ops, z, z) == 0.0
    const = np.full(ops.n_nodes, 2.5)
    assert thermal_energy(ops, const) == pytest.approx(2.5, rel=1e-12)
    assert thermal_energy(ops, const) + potential_energy(ops, z, z) == pytest.approx(2.5, rel=1e-12)


def test_entropy_values(ops):
    assert entropy(ops, np.ones(ops.n_nodes)) == pytest.approx(0.0, abs=1e-14)
    assert entropy(ops, np.full(ops.n_nodes, math.e)) == pytest.approx(1.0, rel=1e-12)
    assert math.isnan(entropy(ops, np.zeros(ops.n_nodes)))
    neg = np.ones(ops.n_nodes)
    neg[0] = -1.0
    assert math.isnan(entropy(ops, neg))


def test_entropy_rate_check():
    assert entropy_rate_check([0.0, 0.1, 0.1, 0.2])
    assert entropy_rate_check([0.0, math.nan, 0.1])
    assert not entropy_rate_check([0.0, 0.2, 0.1])
    assert entropy_rate_check([0.0, 0.2, 0.2 - 5e-9], tol=1e-8)


def theta_l1(ops, theta):
    return float(ops.M_lumped @ np.abs(theta))


def test_apriori_monitor_isolated_run():
    law = NortonHoff(c=1.0, p=3.0)
    ops = assemble(build_mesh(2, (1.0, 1.0), (4, 4)), ElasticityTensor.isotropic(1.0, 1.0))
    basis = build_basis(ops, k=2, l=3)
    system = ModalSystem(ops, basis, law)
    dt, n = 1e-3, 40
    cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
    lift = build_lift(ops, np.linspace(0, dt * n, n + 1))
    st = initialize(system, np.ones(ops.n_nodes), 0.3 * system.basis.zeta[0], cfg)

    mon = AprioriMonitor(beta=law.beta_coercivity, C=law.C_growth, p=law.p, volume=ops.mesh.volume)
    f0 = reconstruct_fields(system, st, lift, 0)
    l1_series = [theta_l1(ops, f0["theta"])]
    mon.start(potential_energy(ops, f0["eps_u"], f0["epsp"]), l1_series[0])
    tables = RowTables.build(system, lift)
    state = st
    for i in range(1, n + 1):
        state, rep = step(system, state, lift, i, cfg)
        f = reconstruct_fields(system, state, lift, i)
        l1_series.append(theta_l1(ops, f["theta"]))
        mon.update(
            dt,
            state.t,
            potential_energy(ops, f["eps_u"], f["epsp"]),
            ops.integrate(norm6(dev6(f["T"])) ** law.p),
            tables.lift_lp[i],
            l1_series[-1],
        )
    assert mon.satisfied()
    s = mon.summary()
    assert s["sup_e_pot"] >= 0
    assert np.all(np.diff(mon.values) >= -1e-15)  # monitor value nondecreasing
    assert np.all(np.diff(l1_series) >= -1e-12)  # heating only
    assert s["sup_theta_l1"] == max(l1_series)


def test_apriori_monitor_constant_under_zero_dynamics():
    mon = AprioriMonitor(beta=1.0, C=1.0, p=2.0, volume=1.0)
    mon.start(0.0, 1.0)
    for i in range(1, 4):
        mon.update(0.1, 0.1 * i, 0.0, 0.0, 0.0, 1.0)
    assert np.allclose(mon.values, mon.values[0])
    assert mon.satisfied()


def test_lift_integrated_once_per_factor_direction(monkeypatch):
    # |s T~^d|^p = |s|^p |T~^d|^p: a row s c of the lift's factors reuses the
    # integral of the first row c of its direction, and a zero row needs none;
    # a row that integrates itself keeps the direct integral's bits
    ops = assemble(build_mesh(2, (1.0, 1.0), (3, 3)), ElasticityTensor.isotropic(1.0, 1.0))
    system = ModalSystem(ops, build_basis(ops, k=1, l=1), NortonHoff(c=1.0, p=3.0))
    times = np.linspace(0.0, 0.1, 6)
    f = np.ones((ops.n_nodes, 2))
    g = 0.1 * ops.mesh.nodes
    calls = []
    real = ops.integrate
    monkeypatch.setattr(ops, "integrate", lambda fq: calls.append(1) or real(fq))
    cases = [
        ({"f": (lambda t: 1.0, f)}, 1, 0.0),  # static
        ({"f": (lambda t: min(t, 0.05), f)}, 1, 1e-14),
        ({"f": (lambda t: -t, f), "g": (lambda t: 2.0 * t, g)}, 1, 1e-14),
        ({"f": (lambda t: t, f), "g": (lambda t: t * t, g)}, 5, 0.0),  # no shared direction
    ]
    for data, directions, rtol in cases:
        lift = build_lift(ops, times, **data)
        calls.clear()
        tables = RowTables.build(system, lift)
        assert len(calls) == directions
        assert tables.lift_lp.shape == times.shape
        for i in range(times.size):
            direct = real(norm6(lift.combine(lift.T_tilde_dev, i)) ** 3.0)
            assert abs(tables.lift_lp[i] - direct) <= rtol * direct


def test_collect_row_and_report_isolated():
    law = NortonHoff(c=1.0, p=3.0)
    ops = assemble(build_mesh(2, (1.0, 1.0), (4, 4)), ElasticityTensor.isotropic(1.0, 1.0))
    basis = build_basis(ops, k=2, l=3)
    system = ModalSystem(ops, basis, law)
    dt, n = 1e-3, 30
    cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
    lift = build_lift(ops, np.linspace(0, dt * n, n + 1))
    st = initialize(system, np.full(ops.n_nodes, 2.0), 0.2 * system.basis.zeta[1], cfg)

    rows = []
    tables = RowTables.build(system, lift)

    def sink(i, state, rep):
        theta = system.theta_nodal(state.beta) + lift.theta_tilde[i]
        rows.append(collect_row(tables, state, i, rep, theta))

    run(system, st, lift, cfg, on_step=sink)
    checks = energy_checks(rows, isolated=True, solver_tol=cfg.solver_tol)
    assert checks["passed"], checks
    assert checks["energy_drift_rel"] <= 1e-6
    assert checks["theta_min"] >= 1.9  # started at 2, heating only
    # row serialization covers every declared field
    assert len(rows[0].values()) == len(DiagnosticsRow.FIELDS)
    assert np.isfinite([r.e_total for r in rows]).all()


# -- coefficient rows against the full-field oracle ---------------------------

def _parity_case(name, zeta0_scale=1.0):
    """(system, initial state, lift, config) of one parity scenario; the first
    complement mode is scaled by ``zeta0_scale`` and the basis's Gauss-point
    tables are formed again from it."""
    ops = assemble(build_mesh(2, (1.0, 1.0), (5, 4)), ElasticityTensor.isotropic(1.0, 1.0))
    n = 12
    if name == "isolated":
        law, dt, max_iter = NortonHoff(c=1.0, p=3.0), 1e-3, 200
    elif name == "forced":
        law, dt, max_iter = NortonHoff(c=1.0, p=3.0), 2e-3, 200
    else:  # halving: an iteration cap below what a full step needs
        law, dt, max_iter = NortonHoff(c=1.0, p=4.0), 0.05, 4
    basis = build_basis(ops, k=3, l=4)
    basis.Z[0] *= zeta0_scale
    tables = basis_fields(ops, basis.eps_w, basis.V, basis.Z, basis.comp.comp_basis)
    basis = dataclasses.replace(basis, **dict(zip(("zeta", "v_quad", "E", "gram_zeta"), tables)))
    system = ModalSystem(ops, basis, law)
    cfg = EvolutionConfig(
        dt=dt, n_steps=n, truncation_level=1e30, solver_max_iter=max_iter
    )
    times = dt * np.arange(n + 1)
    if name == "isolated":
        lift = build_lift(ops, times)
    else:
        # a ramped force and a pulsing boundary displacement (two lift
        # bases) plus a pulsing heat flux
        x = ops.mesh.nodes
        lift = build_lift(
            ops,
            times,
            f=(lambda t: 5.0 * t, np.column_stack([0.4 * (1.0 + x[:, 0]), np.full(len(x), 0.6)])),
            g=(lambda t: np.sin(40.0 * t), x @ np.array([[0.02, 0.01], [0.0, -0.03]]).T),
            g_theta=(lambda t: 0.2 * np.sin(30.0 * t), np.ones(ops.n_nodes)),
            theta_tilde0=np.full(ops.n_nodes, 0.1),
        )
        assert lift.factors.shape[1] == 2
    epsp0 = 0.3 * system.basis.zeta[0] - 0.2 * system.basis.zeta[2]
    theta0 = np.full(ops.n_nodes, 1.5) - lift.theta_tilde[0]
    return system, initialize(system, theta0, epsp0, cfg), lift, cfg


@pytest.mark.parametrize("name", ["isolated", "forced", "halving"])
def test_coefficient_rows_match_full_fields(name):
    system, state0, lift, cfg = _parity_case(name)
    ops = system.ops
    law = system.law

    def monitor():
        return AprioriMonitor(
            beta=law.beta_coercivity, C=law.C_growth, p=law.p, volume=ops.mesh.volume
        )

    coef_mon, field_mon = monitor(), monitor()
    tables = RowTables.build(system, lift)
    substeps = []

    def on_step(i, state, rep):
        theta = system.theta_nodal(state.beta) + lift.theta_tilde[i]
        row = collect_row(tables, state, i, rep, theta)
        f = reconstruct_fields(system, state, lift, i)
        assert theta_l1(ops, theta) == theta_l1(ops, f["theta"])
        e_pot = potential_energy(ops, f["eps_u"], f["epsp"])
        e_thermal = thermal_energy(ops, f["theta"])
        assert row.e_pot == pytest.approx(e_pot, rel=1e-12, abs=0.0)
        assert row.e_thermal == pytest.approx(e_thermal, rel=1e-12, abs=0.0)
        assert row.e_total == pytest.approx(e_pot + e_thermal, rel=1e-12, abs=0.0)
        assert row.theta_min == float(f["theta"].min())
        assert row.entropy == entropy(ops, f["theta"])
        trace_sup = float(np.abs(f["epsp"][:, :3].sum(axis=1)).max())
        assert row.epsp_trace_sup == pytest.approx(trace_sup, rel=1e-12, abs=1e-15)
        td_lift = lift.combine(lift.T_tilde_dev, i)
        td = system.stress_dev(state.delta, td_lift)
        # the step's own stress integral is the one formed from the state, with
        # |Td|^2 reduced over the frame columns as the step reduces it
        r2 = np.square(td) @ np.ones(td.shape[1])
        assert rep.stress_lp == ops.integrate(r2 ** (0.5 * law.p))
        if i == 0:
            # the law evaluated on the initial state and the lift's level 0
            theta_q = system.theta_quad(state.beta) + ops.scalar_quad(lift.theta_tilde[0])
            phi = law.evaluate_many(theta_q, r2, y=state.y_quad)
            assert rep.dissipation == float(ops.wq @ (phi * r2))
            coef_mon.start(e_pot, theta_l1(ops, theta))
            field_mon.start(e_pot, theta_l1(ops, f["theta"]))
        else:
            substeps.append(rep.substeps)
            field_lp = ops.integrate(norm6(dev6(f["T"])) ** law.p)
            lift_lp = tables.lift_lp[i]
            coef_mon.update(cfg.dt, state.t, e_pot, rep.stress_lp, lift_lp, theta_l1(ops, theta))
            field_mon.update(cfg.dt, state.t, e_pot, field_lp, lift_lp, theta_l1(ops, f["theta"]))
            assert coef_mon.stress_lp_sum == pytest.approx(field_mon.stress_lp_sum, rel=1e-12)
            assert coef_mon.lift_lp_sum == field_mon.lift_lp_sum
            assert coef_mon.sup_theta_l1 == field_mon.sup_theta_l1
            assert lift_lp == ops.integrate(norm6(td_lift) ** law.p)

    run(system, state0, lift, cfg, on_step=on_step)
    assert len(substeps) == cfg.n_steps
    assert (max(substeps) > 1) == (name == "halving")
    assert coef_mon.stress_lp_sum > 0.0


def test_energy_uses_the_gram_matrix():
    # a zeta family that is not D-orthonormal: the row must still equal the
    # full-field energy, where |delta|^2/2 would not
    system, state0, lift, _ = _parity_case("isolated", zeta0_scale=2.0)
    theta = system.theta_nodal(state0.beta) + lift.theta_tilde[0]
    row = collect_row(
        RowTables.build(system, lift), state0, 0, initial_report(system, state0, lift), theta
    )
    f = reconstruct_fields(system, state0, lift, 0)
    e_pot = potential_energy(system.ops, f["eps_u"], f["epsp"])
    assert row.e_pot == pytest.approx(e_pot, rel=1e-12)
    assert abs(0.5 * float(state0.delta @ state0.delta) - e_pot) > 1e-3 * e_pot
