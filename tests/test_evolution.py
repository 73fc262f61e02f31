import warnings

import numpy as np
import pytest

from thermovisc import evolution
from thermovisc.basis import build_basis
from thermovisc.constitutive import BodnerPartom, Mroz, NortonHoff
from thermovisc.errors import BadConfig, BadData, NonlinearSolveFailure, StateCorrupt
from thermovisc.evolution import (
    EvolutionConfig,
    ModalSystem,
    SimState,
    initialize,
    make_state,
    reconstruct_fields,
    run,
    step,
    truncate,
)
from thermovisc.lifting import build_lift, zero_lift
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor, dev6, trace6

D = ElasticityTensor.isotropic(lam=1.0, mu=1.0)


def make_system(cells=4, k=2, l=3, law=None, lam=1.0, mu=1.0):
    ops = assemble(build_mesh(2, (1.0, 1.0), (cells, cells)), ElasticityTensor.isotropic(lam, mu))
    basis = build_basis(ops, k=k, l=l)
    return ModalSystem(ops, basis, law or Mroz.constant(1.0))


def grid(dt, n):
    return np.linspace(0.0, dt * n, n + 1)


def test_truncate_matches_definition():
    x = np.array([-5.0, -1.0, 0.3, 2.0, 7.0])
    assert np.array_equal(truncate(x, 2.0), [-2.0, -1.0, 0.3, 2.0, 2.0])


def test_initialize_zero_data():
    sys_ = make_system()
    cfg = EvolutionConfig(dt=1e-3, n_steps=1)
    st = initialize(sys_, np.zeros(sys_.ops.n_nodes), np.zeros((sys_.ops.wq.size, 6)), cfg)
    assert np.abs(st.gamma).max() == 0.0
    assert np.abs(st.beta).max() == 0.0
    assert np.abs(st.delta).max() == 0.0


def test_initialize_reproduces_gradient_mode():
    sys_ = make_system(k=3, l=2)
    cfg = EvolutionConfig(dt=1e-3, n_steps=1)
    # eps(w_2) carries trace, so bypass the S3_d precondition to exercise
    # the raw projection identity
    epsp0 = sys_.fields.eps_w[1]
    st = initialize(sys_, np.zeros(sys_.ops.n_nodes), epsp0, cfg, validate=False)
    assert np.abs(st.gamma - [0.0, 1.0, 0.0]).max() <= 1e-10
    assert np.abs(st.delta).max() <= 1e-10
    # the displacement is slaved to gamma: u = sum_n gamma_n w_n = w_2
    assert np.abs(sys_.u_nodal(st.gamma) - sys_.basis.W[1]).max() <= 1e-10


def test_initialize_truncates_temperature():
    sys_ = make_system()
    theta0 = np.full(sys_.ops.n_nodes, 5.0)
    # an explicit level, and the default: the Galerkin index k = 2 of the basis
    for level in (2.0, None):
        cfg = EvolutionConfig(dt=1e-3, n_steps=1, truncation_level=level)
        st = initialize(sys_, theta0, np.zeros((sys_.ops.wq.size, 6)), cfg)
        # constant field is exactly representable: nodal max equals the level
        theta = sys_.theta_nodal(st.beta)
        assert np.abs(theta - 2.0).max() <= 1e-12


def test_initialize_rejects_traced_strain():
    sys_ = make_system()
    cfg = EvolutionConfig(dt=1e-3, n_steps=1)
    bad = np.zeros((sys_.ops.wq.size, 6))
    bad[:, 0] = 1.0
    with pytest.raises(BadData):
        initialize(sys_, np.zeros(sys_.ops.n_nodes), bad, cfg)


def test_zero_law_freezes_state():
    # zero right-hand side freezes every coefficient; the temperature must
    # sit in the Neumann kernel (constant mode), else diffusion still acts
    sys_ = make_system(law=Mroz.constant(0.0))
    cfg = EvolutionConfig(dt=1e-2, n_steps=5)
    lift = zero_lift(sys_.ops, grid(1e-2, 5))
    st = make_state(0.0, [0.1, -0.2], [0.3, 0.0, -0.1], [1.0, 0.0, 0.0])
    res = run(sys_, st, lift, cfg)
    assert np.array_equal(res.gamma[-1], res.gamma[0])
    assert np.array_equal(res.delta[-1], res.delta[0])
    assert np.array_equal(res.beta[-1], res.beta[0])


def test_single_mode_exponential_decay():
    # closed-form oracle independent of the discretization: with one
    # complement mode, Mroz modulus g and isotropic shear mu, the traceless
    # mode gives T = -2 mu delta zeta and delta' = -2 mu g delta
    mu = 0.8
    g = 1.0
    sys_ = make_system(cells=4, k=1, l=1, law=Mroz.constant(g), lam=0.7, mu=mu)
    dt, n = 1e-3, 200
    cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
    lift = zero_lift(sys_.ops, grid(dt, n))
    amp = 0.2
    st = initialize(sys_, np.ones(sys_.ops.n_nodes), amp * sys_.fields.zeta[0], cfg)
    assert st.delta[0] == pytest.approx(amp, rel=1e-10)
    res = run(sys_, st, lift, cfg)
    rate = 2.0 * mu * g
    exact = amp * np.exp(-rate * res.times)
    implicit = amp / (1.0 + rate * dt) ** np.arange(n + 1)
    # the numerical path reproduces the implicit-Euler recursion to solver tol
    assert np.abs(res.delta[:, 0] - implicit).max() <= 1e-9
    # and converges to the exact exponential at first order
    assert np.abs(res.delta[-1, 0] - exact[-1]) <= rate * dt * amp
    # gamma never activates and the reconstruction stays traceless
    assert np.abs(res.gamma).max() <= 1e-12
    epsp = sys_.epsp_quad(res.final_state.gamma, res.final_state.delta)
    assert np.abs(trace6(epsp)).max() <= 1e-12


def test_energy_identity_and_dissipativity():
    sys_ = make_system(k=2, l=4, law=NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-3, 50
    cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
    lift = zero_lift(sys_.ops, grid(dt, n))
    rng = np.random.default_rng(0)
    st = make_state(0.0, np.zeros(2), 0.1 * rng.standard_normal(4), np.zeros(4))
    st.beta[0] = 1.0
    e_prev = 0.5 * float(st.delta @ st.delta)
    state = st
    for i in range(1, n + 1):
        state, rep = step(sys_, state, lift, i, cfg)
        assert abs(rep.energy_defect) <= 10 * cfg.solver_tol
        e_now = 0.5 * float(state.delta @ state.delta)
        assert e_now <= e_prev + 1e-10
        assert rep.dissipation >= -1e-12
        assert rep.equilibrium_residual <= 1e-10
        e_prev = e_now


def test_truncation_inactive_equivalence():
    sys_ = make_system(k=2, l=3, law=NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-3, 30
    lift = zero_lift(sys_.ops, grid(dt, n))
    st = make_state(0.0, np.zeros(2), [0.1, -0.05, 0.02], [0.5, 0.0, 0.0])
    out = []
    for level in (1e3, 1e30):
        cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=level)
        res = run(sys_, st, lift, cfg)
        out.append(np.concatenate([res.gamma[-1], res.delta[-1], res.beta[-1]]))
    assert np.abs(out[0] - out[1]).max() <= 1e-12


def test_run_deterministic():
    sys_ = make_system(law=NortonHoff(c=1.0, p=3.0))
    dt, n = 2e-3, 20
    cfg = EvolutionConfig(dt=dt, n_steps=n)
    lift = zero_lift(sys_.ops, grid(dt, n))
    st = make_state(0.0, np.zeros(2), [0.1, 0.0, -0.08], [1.0, 0.1, 0.0])
    r1 = run(sys_, st, lift, cfg)
    r2 = run(sys_, st, lift, cfg)
    assert np.array_equal(r1.delta, r2.delta)
    assert np.array_equal(r1.beta, r2.beta)


def test_forced_run_couples_gamma():
    # a volume force activates the gradient family through the lift; the
    # complement family is excited only through the pointwise nonlinearity
    # (the smooth complement modes are D-orthogonal to every FE gradient)
    sys_ = make_system(k=2, l=3, law=NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-2, 10
    xy = sys_.ops.mesh.nodes
    f = np.stack([0.2 * xy[:, 1] ** 2, 0.5 + 0.8 * xy[:, 0]], axis=1)
    lift = build_lift(sys_.ops, grid(dt, n), f=(lambda t: 1.0, f))
    cfg = EvolutionConfig(dt=dt, n_steps=n)
    st = initialize(sys_, np.ones(sys_.ops.n_nodes), np.zeros((sys_.ops.wq.size, 6)), cfg)
    res = run(sys_, st, lift, cfg)
    assert np.abs(res.gamma[-1]).max() > 1e-8
    assert np.abs(res.delta[-1]).max() > 1e-10
    for rep in res.reports:
        assert rep.dissipation >= -1e-12
        assert rep.equilibrium_residual <= 1e-9


def test_gamma_is_explicit_in_the_accepted_stress():
    # gamma is not an unknown of the fixed-point iteration: after the step,
    # (gamma1 - gamma0) lam / dt is (G, D eps(w_n)) of the law evaluated at
    # the accepted (delta1, beta1)
    sys_ = make_system(k=3, l=4, law=NortonHoff(c=1.0, p=3.0))
    dt = 0.05
    xy = sys_.ops.mesh.nodes
    f = np.stack([0.2 * xy[:, 1] ** 2, 0.5 + 0.8 * xy[:, 0]], axis=1)
    lift = build_lift(sys_.ops, grid(dt, 1), f=(lambda t: 1.0, f))
    cfg = EvolutionConfig(dt=dt, n_steps=1)
    st0 = make_state(0.0, [0.01, -0.02, 0.0], [0.1, -0.05, 0.02, 0.0], [1.0, 0.1, 0.0, 0.0])
    st1, rep = step(sys_, st0, lift, 1, cfg)
    assert rep.residual <= cfg.solver_tol
    theta_t_q, Ttd_q = evolution._lift_slices(sys_, lift, 1)
    Td = sys_.stress_dev(st1.delta, Ttd_q)
    G = sys_.law.evaluate_many(st1.beta @ sys_.fields.v_quad + theta_t_q, Td)
    expect = sys_.D_eps_w_rows @ (sys_.wq[:, None] * G).ravel()
    got = (st1.gamma - st0.gamma) * sys_.lam / dt
    assert np.abs(expect).max() > 1e-3
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_stiff_step_rescued_by_dt_halving():
    # an iteration cap below what the full step needs forces halving; the
    # composite step keeps the energy identity and reports its substeps
    sys_ = make_system(law=NortonHoff(c=1.0, p=4.0))
    cfg = EvolutionConfig(
        dt=0.05, n_steps=4, solver_max_iter=12, truncation_level=1e30
    )
    lift = zero_lift(sys_.ops, grid(0.05, 4))
    st = make_state(0.0, np.zeros(2), [1.5, -1.0, 0.8], [1.0, 0.0, 0.0])
    res = run(sys_, st, lift, cfg)
    assert res.reports[0].substeps > 1
    assert all(rep.substeps >= 1 for rep in res.reports)
    e = [0.5 * float(d @ d) for d in res.delta]
    assert all(np.diff(e) <= 1e-12)
    for rep in res.reports:
        assert abs(rep.energy_defect) <= 10 * cfg.solver_tol
        assert rep.dissipation >= 0.0


def test_anderson_matches_picard_on_stiff_step(monkeypatch):
    # the same fixed point as the plain damped Picard iteration, in a
    # quarter of the iterations or fewer
    sys_ = make_system(law=NortonHoff(c=1.0, p=4.0))
    dt = 0.03
    cfg = EvolutionConfig(
        dt=dt, n_steps=1, solver_max_iter=5000, truncation_level=1e30
    )
    lift = zero_lift(sys_.ops, grid(dt, 1))
    st = make_state(0.0, np.zeros(2), [1.5, -1.0, 0.8], [1.0, 0.0, 0.0])
    anderson, rep_a = step(sys_, st, lift, 1, cfg)
    monkeypatch.setattr(evolution, "ANDERSON_DEPTH", 0)
    picard, rep_p = step(sys_, st, lift, 1, cfg)
    for name in ("gamma", "delta", "beta"):
        assert np.abs(getattr(anderson, name) - getattr(picard, name)).max() <= 1e-10
    assert 4 * rep_a.iters <= rep_p.iters, (rep_a.iters, rep_p.iters)
    assert abs(rep_a.energy_defect) <= 10 * cfg.solver_tol


def test_diverging_iterate_halves_without_warnings():
    # at dt = 1 the stiff law's iteration overflows; that must fail the solve
    # (and so halve dt) rather than warn or reach the law's input check
    sys_ = make_system(law=NortonHoff(c=10.0, p=3.0))
    dt = 1.0
    st = make_state(0.0, np.zeros(2), [1.5, -1.0, 0.8], [1.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = EvolutionConfig(dt=dt, n_steps=1, truncation_level=1e30)
        with pytest.raises(NonlinearSolveFailure, match="diverged"):
            step(sys_, st, zero_lift(sys_.ops, grid(dt, 1)), 1, cfg)
        cfg = EvolutionConfig(dt=dt, n_steps=3, truncation_level=1e30)
        res = run(sys_, st, zero_lift(sys_.ops, grid(dt, 3)), cfg)
    assert res.reports[0].substeps > 1
    for rep in res.reports:
        assert abs(rep.energy_defect) <= 10 * cfg.solver_tol


@pytest.mark.parametrize("name, value", [("delta", np.inf), ("delta", np.nan), ("beta", np.inf)])
def test_non_finite_iterate_fails_before_the_law(name, value):
    law = NortonHoff(c=1.0, p=3.0)
    sys_ = make_system(law=law)
    calls = []
    evaluate = law.evaluate_many
    law.evaluate_many = lambda *args, **kwargs: calls.append(1) or evaluate(*args, **kwargs)
    cfg = EvolutionConfig(dt=1e-2, n_steps=1)
    st = make_state(0.0, np.zeros(2), np.zeros(3), np.zeros(3))
    getattr(st, name)[0] = value
    with pytest.raises(NonlinearSolveFailure) as err:
        step(sys_, st, zero_lift(sys_.ops, grid(1e-2, 1)), 1, cfg)
    assert calls == []
    assert err.value.t == pytest.approx(1e-2)


def test_map_tables_are_views():
    # the fixed-point map multiplies 2-D views of the mode tables, not copies
    sys_ = make_system(k=3, l=4)
    f = sys_.fields
    for rows, table in (
        (sys_.D_eps_w_rows, f.D_eps_w),
        (sys_.D_zeta_rows, f.D_zeta),
        (sys_.eps_w_rows, f.eps_w),
    ):
        assert np.shares_memory(rows, table)
        assert rows.shape == (table.shape[0], table.shape[1] * 6)


def test_nonlinear_failure_reports_history():
    sys_ = make_system(law=NortonHoff(c=1.0, p=4.0))
    cfg = EvolutionConfig(dt=1e-2, n_steps=1, solver_max_iter=1, solver_tol=1e-15)
    lift = zero_lift(sys_.ops, grid(1e-2, 1))
    st = make_state(0.0, np.zeros(2), [2.0, -1.0, 0.5], np.zeros(3))
    with pytest.raises(NonlinearSolveFailure) as err:
        step(sys_, st, lift, 1, cfg)
    assert len(err.value.residual_history) == 1
    assert err.value.t == pytest.approx(1e-2)


def test_state_validation():
    make_state(0.0, [1.0], [0.0], [2.0], y_quad=np.ones(4)).validate()
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("beta", "gamma", "delta", "y_quad"):
            st = make_state(0.0, [1.0], [0.0], [2.0], y_quad=np.ones(4))
            getattr(st, name)[0] = bad
            with pytest.raises(StateCorrupt, match=name if name != "y_quad" else "hardening"):
                st.validate()


def test_reconstruct_fields_contract():
    sys_ = make_system(k=2, l=3, law=NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-3, 5
    cfg = EvolutionConfig(dt=dt, n_steps=n)
    lift = zero_lift(sys_.ops, grid(dt, n))
    st = make_state(0.0, [0.05, -0.02], [0.1, 0.0, -0.03], [1.0, 0.0, 0.1])
    res = run(sys_, st, lift, cfg)
    fields = reconstruct_fields(sys_, res.final_state, lift, n)
    # pointwise constitutive contract
    recomputed = sys_.ops.D.apply6(fields["eps_u"] - fields["epsp"])
    assert np.abs(fields["T"] - recomputed).max() <= 1e-12
    # solver shortcut agrees with the assembled stress
    assert np.abs(fields["T_hom"] - sys_.T_hom_quad(res.final_state.delta)).max() <= 1e-12
    assert np.abs(fields["Td"] - dev6(fields["T"])).max() <= 1e-14
    # zero coefficients and zero lift give zero fields
    zero_state = make_state(0.0, np.zeros(2), np.zeros(3), np.zeros(3))
    zf = reconstruct_fields(sys_, zero_state, lift, 0)
    assert np.abs(zf["T"]).max() == 0.0
    assert np.abs(zf["u"]).max() == 0.0


def test_equilibrium_orthogonality_of_stress():
    # (app_system) row 1: the homogeneous stress is L2-orthogonal to every
    # eps(w_n) by construction of the elimination
    sys_ = make_system(k=3, l=4)
    rng = np.random.default_rng(5)
    delta = rng.standard_normal(4)
    T = sys_.T_hom_quad(delta)
    proj = np.einsum("q,qi,nqi->n", sys_.ops.wq, T, sys_.fields.eps_w)
    assert np.abs(proj).max() <= 1e-12


def test_bodner_partom_hardening_advances():
    law = BodnerPartom(g0=1.0, m=1.0, gamma0=1.0, y0=1.0, y_min=0.5, y_max=2.0)
    sys_ = make_system(law=law)
    dt, n = 1e-2, 5
    cfg = EvolutionConfig(dt=dt, n_steps=n)
    lift = zero_lift(sys_.ops, grid(dt, n))
    st = initialize(sys_, np.ones(sys_.ops.n_nodes), 0.3 * sys_.fields.zeta[0], cfg)
    assert st.y_quad is not None
    res = run(sys_, st, lift, cfg)
    y = res.final_state.y_quad
    assert np.all((y >= law.y_min) & (y <= law.y_max))
    assert y.max() > law.y0  # hardening grew where stress is active


def test_multimode_uniform_decay_isotropic():
    # for isotropic D and a constant Mroz modulus every traceless complement
    # coefficient decays at the same closed-form rate 2 mu g
    mu_shear, g = 1.3, 0.7
    sys_ = make_system(cells=5, k=2, l=4, law=Mroz.constant(g), lam=0.4, mu=mu_shear)
    dt, n = 1e-3, 100
    cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
    lift = zero_lift(sys_.ops, grid(dt, n))
    delta0 = np.array([0.2, -0.1, 0.05, 0.15])
    st = make_state(0.0, np.zeros(2), delta0, [1.0, 0.0, 0.0, 0.0])
    res = run(sys_, st, lift, cfg)
    rate = 2.0 * mu_shear * g
    expect = delta0[None, :] / (1.0 + rate * dt) ** np.arange(n + 1)[:, None]
    assert np.abs(res.delta - expect).max() <= 1e-9
    assert np.abs(res.gamma).max() <= 1e-12


def test_anisotropic_D_keeps_energy_structure():
    # nothing in the stepper assumes isotropy: with a full 6x6 elasticity the
    # homogeneous stress carries trace, yet the energy identity and the
    # dissipativity of the implicit step are unchanged
    m = np.diag([3.0, 3.4, 3.8, 2.0, 2.2, 2.4])
    m[0, 1] = m[1, 0] = 0.6
    m[1, 2] = m[2, 1] = 0.3
    D_aniso = ElasticityTensor(m)
    ops = assemble(build_mesh(2, (1.0, 1.0), (4, 4)), D_aniso)
    basis = build_basis(ops, k=2, l=3)
    sys_ = ModalSystem(ops, basis, NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-3, 40
    cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
    lift = zero_lift(ops, grid(dt, n))
    st = make_state(0.0, np.zeros(2), [0.3, -0.2, 0.1], [1.0, 0.0, 0.0])
    T0 = sys_.T_hom_quad(st.delta)
    assert np.abs(trace6(T0)).max() > 1e-3  # trace-carrying stress
    res = run(sys_, st, lift, cfg)
    e = [0.5 * float(d @ d) for d in res.delta]
    assert all(np.diff(e) <= 1e-12)
    for rep in res.reports:
        assert abs(rep.energy_defect) <= 10 * cfg.solver_tol
        assert rep.dissipation >= 0.0
        assert rep.equilibrium_residual <= 1e-10


def test_coupled_scheme_first_order_in_dt():
    # self-convergence of the full nonlinear coupling against a reference at
    # dt/8; the observed order hugs 1 (slightly above, since the reference
    # itself carries an O(dt_ref) offset)
    sys_ = make_system(cells=6, k=4, l=4, law=NortonHoff(c=1.0, p=3.0))
    horizon = 0.2

    def terminal(dt):
        n = round(horizon / dt)
        cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
        lift = zero_lift(sys_.ops, grid(dt, n))
        st = initialize(
            sys_,
            np.full(sys_.ops.n_nodes, 2.0),
            0.3 * sys_.fields.zeta[0] + 0.2 * sys_.fields.zeta[2],
            cfg,
        )
        return np.concatenate([run(sys_, st, lift, cfg).delta[-1], np.zeros(0)])

    ref = terminal(2.5e-4)
    errs = [np.abs(terminal(dt) - ref).max() for dt in (4e-3, 2e-3, 1e-3)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.85 <= o <= 1.35 for o in orders), orders


def test_heat_row_matches_modal_exponential():
    # pure diffusion (zero law): beta_m follows (1 + dt mu_m)^-n, converging
    # at first order to exp(-mu_m t)
    sys_ = make_system(cells=8, k=1, l=4, law=Mroz.constant(0.0))
    mu2 = sys_.mu[1]
    horizon = 0.05
    errs = []
    for dt in (2.5e-3, 1.25e-3):
        n = round(horizon / dt)
        cfg = EvolutionConfig(dt=dt, n_steps=n)
        lift = zero_lift(sys_.ops, grid(dt, n))
        st = make_state(0.0, [0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0])
        res = run(sys_, st, lift, cfg)
        assert np.allclose(res.beta[-1, 1], 0.5 / (1 + dt * mu2) ** n, atol=1e-12)
        errs.append(abs(res.beta[-1, 1] - 0.5 * np.exp(-mu2 * horizon)))
    order = np.log2(errs[0] / errs[1])
    assert 0.8 <= order <= 1.2


def test_flux_bookkeeping_through_lift():
    # constant boundary flux with a zero law: the physical heat content grows
    # exactly at rate q |dOmega| through the lift and the recombination
    sys_ = make_system(law=Mroz.constant(0.0))
    ops = sys_.ops
    q = 0.7
    dt, n = 1e-3, 20
    lift = build_lift(ops, grid(dt, n), g_theta=(lambda t: 1.0, np.full(ops.n_nodes, q)))
    cfg = EvolutionConfig(dt=dt, n_steps=n)
    st = initialize(sys_, np.full(ops.n_nodes, 1.0), np.zeros((ops.wq.size, 6)), cfg)
    heats = []
    res = run(sys_, st, lift, cfg)
    for i in (0, n):
        f = reconstruct_fields(sys_, st if i == 0 else res.final_state, lift, i)
        heats.append(float(ops.M_lumped @ f["theta"]))
    gained = heats[1] - heats[0]
    assert gained == pytest.approx(q * ops.mesh.boundary_measure * n * dt, rel=1e-10)


def test_zero_step_horizon():
    sys_ = make_system()
    cfg = EvolutionConfig(dt=1e-3, n_steps=0)
    lift = zero_lift(sys_.ops, grid(1e-3, 0))
    st = make_state(0.0, [0.1, 0.0], [0.2, 0.0, 0.0], [1.0, 0.0, 0.0])
    res = run(sys_, st, lift, cfg)
    assert res.times.size == 1
    assert res.reports == []
    assert np.array_equal(res.delta[0], st.delta)


def test_truncated_source_bounded_pointwise():
    sys_ = make_system(k=2, l=3, law=NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-3, 10
    level = 1e-4  # far below the active dissipation
    cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=level)
    lift = zero_lift(sys_.ops, grid(dt, n))
    st = make_state(0.0, np.zeros(2), [0.3, -0.2, 0.1], np.full(3, 1e-5))
    res = run(sys_, st, lift, cfg)
    volume = sys_.ops.mesh.volume
    for rep in res.reports:
        assert rep.trunc_fraction > 0.0
        assert rep.source_integral <= level * volume + 1e-15


def test_three_dimensional_evolution():
    ops = assemble(build_mesh(3, (1.0, 1.0, 1.0), (2, 2, 2)), D)
    basis = build_basis(ops, k=2, l=2)
    sys_ = ModalSystem(ops, basis, NortonHoff(c=1.0, p=3.0))
    assert np.abs(trace6(sys_.fields.zeta)).max() <= 1e-12
    dt, n = 1e-3, 20
    cfg = EvolutionConfig(dt=dt, n_steps=n, truncation_level=1e30)
    lift = zero_lift(ops, grid(dt, n))
    st = initialize(sys_, np.full(ops.n_nodes, 1.5), 0.1 * sys_.fields.zeta[0], cfg)
    res = run(sys_, st, lift, cfg)
    e = 0.5 * np.einsum("ni,ni->n", res.delta, res.delta)
    assert np.all(np.diff(e) <= 1e-12)
    for rep in res.reports:
        assert abs(rep.energy_defect) <= 10 * cfg.solver_tol
        assert rep.dissipation >= 0.0


def test_config_validation():
    # the basis sizes are checked where they live, in the basis
    ops = assemble(build_mesh(2, (1.0, 1.0), (2, 2)), D)
    with pytest.raises(BadConfig):
        build_basis(ops, k=0, l=1)
    with pytest.raises(BadConfig):
        build_basis(ops, k=1, l=0)
    with pytest.raises(BadData):
        EvolutionConfig(dt=-1e-3, n_steps=1)
    with pytest.raises(BadData):
        EvolutionConfig(dt=1e-3, n_steps=1, truncation_level=0.0)
