import math

import numpy as np
import pytest

from thermovisc.basis import build_basis
from thermovisc.constitutive import NortonHoff
from thermovisc.diagnostics import (
    AprioriMonitor,
    DiagnosticsRow,
    EnergyReport,
    collect_row,
    entropy,
    entropy_rate_check,
    potential_energy,
    thermal_energy,
    total_energy,
)
from thermovisc.evolution import EvolutionConfig, ModalSystem, initialize, run, step
from thermovisc.lifting import zero_lift
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor

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
    assert total_energy(ops, z, z, zero_theta) == 0.0
    const = np.full(ops.n_nodes, 2.5)
    assert thermal_energy(ops, const) == pytest.approx(2.5, rel=1e-12)
    assert total_energy(ops, z, z, const) == pytest.approx(2.5, rel=1e-12)


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


def test_apriori_monitor_isolated_run():
    law = NortonHoff(c=1.0, p=3.0)
    ops = assemble(build_mesh(2, (1.0, 1.0), (4, 4)), ElasticityTensor.isotropic(1.0, 1.0))
    basis = build_basis(ops, k=2, l=3)
    system = ModalSystem(ops, basis, law)
    dt, n = 1e-3, 40
    cfg = EvolutionConfig(k=2, l=3, dt=dt, n_steps=n, truncation_level=1e30)
    lift = zero_lift(ops, np.linspace(0, dt * n, n + 1))
    st = initialize(system, np.ones(ops.n_nodes), 0.3 * system.fields.zeta[0], cfg)

    mon = AprioriMonitor(beta=law.beta_coercivity, C=law.C_growth, p=law.p, volume=ops.mesh.volume)
    from thermovisc.evolution import reconstruct_fields

    f0 = reconstruct_fields(system, st, lift, 0)
    mon.start(ops, potential_energy(ops, f0["eps_u"], f0["epsp"]), f0["theta"])
    state = st
    for i in range(1, n + 1):
        state, rep = step(system, state, lift, i, cfg)
        f = reconstruct_fields(system, state, lift, i)
        mon.update(
            ops,
            dt,
            state.t,
            potential_energy(ops, f["eps_u"], f["epsp"]),
            f["Td"],
            lift.combine(lift.T_tilde_dev, i),
            f["theta"],
        )
    assert mon.satisfied()
    s = mon.summary()
    assert s["sup_e_pot"] >= 0
    assert np.all(np.diff(mon.values) >= -1e-15)  # monitor value nondecreasing
    assert np.all(np.diff(mon.theta_l1_series) >= -1e-12)  # heating only


def test_apriori_monitor_constant_under_zero_dynamics():
    mon = AprioriMonitor(beta=1.0, C=1.0, p=2.0, volume=1.0)

    class _Ops:
        M_lumped = np.ones(3) / 3.0

        @staticmethod
        def integrate(f):
            return float(np.mean(f))

    ops = _Ops()
    theta = np.ones(3)
    mon.start(ops, 0.0, theta)
    z = np.zeros((4, 6))
    for i in range(1, 4):
        mon.update(ops, 0.1, 0.1 * i, 0.0, z, z, theta)
    assert np.allclose(mon.values, mon.values[0])
    assert np.allclose(mon.theta_l1_series, 1.0)
    assert mon.satisfied()


def test_collect_row_and_report_isolated():
    law = NortonHoff(c=1.0, p=3.0)
    ops = assemble(build_mesh(2, (1.0, 1.0), (4, 4)), ElasticityTensor.isotropic(1.0, 1.0))
    basis = build_basis(ops, k=2, l=3)
    system = ModalSystem(ops, basis, law)
    dt, n = 1e-3, 30
    cfg = EvolutionConfig(k=2, l=3, dt=dt, n_steps=n, truncation_level=1e30)
    lift = zero_lift(ops, np.linspace(0, dt * n, n + 1))
    st = initialize(system, np.full(ops.n_nodes, 2.0), 0.2 * system.fields.zeta[1], cfg)

    report = EnergyReport()
    report.append(collect_row(system, st, lift, 0, None))

    def sink(i, state, rep):
        if rep is not None:
            report.append(collect_row(system, state, lift, i, rep))

    run(system, st, lift, cfg, on_step=sink)
    checks = report.evaluate(isolated=True, solver_tol=cfg.solver_tol)
    assert checks["passed"], checks
    assert checks["energy_drift_rel"] <= 1e-6
    assert checks["theta_min"] >= 1.9  # started at 2, heating only
    # row serialization covers every declared field
    row = report.rows[0]
    assert len(row.values()) == len(DiagnosticsRow.FIELDS)
    assert np.isfinite(report.series("e_total")).all()
