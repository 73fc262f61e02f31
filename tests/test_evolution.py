import json
import math
import warnings

import numpy as np
import pytest

from thermovisc import cli, evolution
from thermovisc.basis import BasisFields, build_basis
from thermovisc.cli import main
from thermovisc.constitutive import BodnerPartom, Mroz, NortonHoff, vector_rate
from thermovisc.errors import (
    BadConfig,
    BadData,
    NonFiniteInput,
    NonlinearSolveFailure,
    StateCorrupt,
)
from thermovisc.evolution import (
    EvolutionConfig,
    ModalSystem,
    SimState,
    initial_report,
    initialize,
    make_state,
    reconstruct_fields,
    run,
    step,
    truncate,
)
from thermovisc.lifting import LiftedFields, build_lift
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor, dev6, dot6, trace6

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
    # eps(w_2) carries trace, which initialize refuses, so the projection
    # initialize performs is called directly to exercise its raw identity
    epsp0 = sys_.fields.eps_w[1]
    gamma, delta = sys_.project(epsp0)
    assert np.abs(gamma - [0.0, 1.0, 0.0]).max() <= 1e-10
    assert np.abs(delta).max() <= 1e-10
    # the displacement is slaved to gamma: u = sum_n gamma_n w_n = w_2
    assert np.abs(sys_.u_nodal(gamma) - sys_.basis.W[1]).max() <= 1e-10


def test_initialize_always_refuses_a_strain_with_trace():
    sys_ = make_system(k=3, l=2)
    cfg = EvolutionConfig(dt=1e-3, n_steps=1)
    epsp0 = sys_.fields.eps_w[1]
    assert np.abs(trace6(epsp0)).max() > 1e-3
    with pytest.raises(BadData, match="initial inelastic strain has trace"):
        initialize(sys_, np.zeros(sys_.ops.n_nodes), epsp0, cfg)
    # the check has no off switch
    with pytest.raises(TypeError):
        initialize(sys_, np.zeros(sys_.ops.n_nodes), epsp0, cfg, validate=False)


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
    lift = build_lift(sys_.ops, grid(1e-2, 5))
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
    lift = build_lift(sys_.ops, grid(dt, n))
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
    lift = build_lift(sys_.ops, grid(dt, n))
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
    lift = build_lift(sys_.ops, grid(dt, n))
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
    lift = build_lift(sys_.ops, grid(dt, n))
    st = make_state(0.0, np.zeros(2), [0.1, 0.0, -0.08], [1.0, 0.1, 0.0])
    r1 = run(sys_, st, lift, cfg)
    r2 = run(sys_, st, lift, cfg)
    assert np.array_equal(r1.delta, r2.delta)
    assert np.array_equal(r1.beta, r2.beta)


def test_run_rejects_a_lift_on_another_time_grid():
    # a ramped force makes level i of the lift depend on its time, so a lift
    # sampled at 2 dt steps would run every level at the wrong time
    sys_ = make_system(k=2, l=3, law=NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-2, 5
    f = np.ones((sys_.ops.n_nodes, 2))
    cfg = EvolutionConfig(dt=dt, n_steps=n)
    st = initialize(sys_, np.ones(sys_.ops.n_nodes), np.zeros((sys_.ops.wq.size, 6)), cfg)
    wrong = build_lift(sys_.ops, 2.0 * dt * np.arange(n + 1), f=(lambda t: t, f))
    with pytest.raises(BadData, match="time grid") as err:
        run(sys_, st, wrong, cfg)
    assert err.value.exit_code == 2
    # the same ramp on the run's own grid, with extra levels beyond it, runs
    right = build_lift(sys_.ops, grid(dt, n + 3), f=(lambda t: t, f))
    assert run(sys_, st, right, cfg).times.size == n + 1


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
    G = vector_rate(sys_.law, st1.beta @ sys_.fields.v_quad + theta_t_q, Td)
    expect = sys_.D_eps_w_frame @ (sys_.wq[:, None] * G).ravel()
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
    lift = build_lift(sys_.ops, grid(0.05, 4))
    st = make_state(0.0, np.zeros(2), [1.5, -1.0, 0.8], [1.0, 0.0, 0.0])
    res = run(sys_, st, lift, cfg)
    assert res.reports[0].substeps > 1
    assert all(rep.substeps >= 1 for rep in res.reports)
    e = [0.5 * float(d @ d) for d in res.delta]
    assert all(np.diff(e) <= 1e-12)
    for rep in res.reports:
        assert abs(rep.energy_defect) <= 10 * cfg.solver_tol
        assert rep.dissipation >= 0.0


def test_chord_solve_matches_picard_on_stiff_step():
    # the fixed point of a plain damped Picard loop on the same map, in a
    # quarter of its map evaluations or fewer
    sys_ = make_system(law=NortonHoff(c=1.0, p=4.0))
    dt = 0.03
    cfg = EvolutionConfig(
        dt=dt, n_steps=1, solver_max_iter=5000, truncation_level=1e30
    )
    lift = build_lift(sys_.ops, grid(dt, 1))
    st = make_state(0.0, np.zeros(2), [1.5, -1.0, 0.8], [1.0, 0.0, 0.0])
    chord, rep = step(sys_, st, lift, 1, cfg)
    # reference: x + eta (F(x) - x), with eta halved whenever the residual grows
    slices = evolution._lift_slices(sys_, lift, 1)
    x = np.concatenate([st.delta, st.beta])
    eta, r_prev, iters = 1.0, np.inf, 0
    while iters < cfg.solver_max_iter:
        fx, ev = evolution._implicit_map(sys_, st, *slices, dt, 1e30, x)
        iters += 1
        r = np.abs(fx - x).max()
        if r <= cfg.solver_tol:
            break
        if r > r_prev:
            eta = max(eta / 2.0, 1.0 / 1024.0)
        r_prev = r
        x = x + eta * (fx - x)
    assert r <= cfg.solver_tol
    picard = {
        "gamma": st.gamma + dt * (sys_.D_eps_w_frame @ ev.wG) / sys_.lam,
        "delta": x[: sys_.l],
        "beta": x[sys_.l :],
    }
    for name, ref in picard.items():
        assert np.abs(getattr(chord, name) - ref).max() <= 1e-10
    assert 4 * rep.iters <= iters, (rep.iters, iters)
    assert abs(rep.energy_defect) <= 10 * cfg.solver_tol


def test_solve_falls_back_to_damped_picard_when_the_tangent_misleads():
    # a law that misdeclares its exponent gets an indefinite tangent, along
    # which no step decreases the residual; the solve then takes damped Picard
    # steps and reaches the fixed point of the correctly declared law
    class Misdeclared:
        p = -3.0

        def __init__(self, law):
            self.evaluate_many = law.evaluate_many

    law = NortonHoff(c=1.0, p=4.0)
    dt = 0.03
    cfg = EvolutionConfig(dt=dt, n_steps=1, solver_max_iter=5000, truncation_level=1e30)
    st = make_state(0.0, np.zeros(2), [1.5, -1.0, 0.8], [1.0, 0.0, 0.0])
    out = {}
    for name, declared in (("right", law), ("wrong", Misdeclared(law))):
        sys_ = make_system(law=declared)
        out[name] = step(sys_, st, build_lift(sys_.ops, grid(dt, 1)), 1, cfg)
    (right, _), (wrong, rep) = out["right"], out["wrong"]
    for name in ("gamma", "delta", "beta"):
        assert np.abs(getattr(wrong, name) - getattr(right, name)).max() <= 1e-10
    assert abs(rep.energy_defect) <= 10 * cfg.solver_tol


@pytest.mark.parametrize(
    "law",
    [
        NortonHoff(c=1.5, p=2.0),
        NortonHoff(c=1.5, p=3.0),
        NortonHoff(c=1.5, p=4.0),
        BodnerPartom(g0=1.2, m=2.0),
        Mroz.lorentz(2.0, 0.5),
    ],
    ids=["norton_hoff_p2", "norton_hoff_p3", "norton_hoff_p4", "bodner_partom", "mroz"],
)
def test_delta_tangent_matches_the_map_jacobian(law):
    # dt K against central differences of the delta map in delta, at a random
    # state under a force; beta (so theta, for Mroz) and the hardening field
    # stay fixed, as within one implicit solve
    sys_ = make_system(k=2, l=4, law=law)
    rng = np.random.default_rng(7)
    dt = 0.1
    xy = sys_.ops.mesh.nodes
    f = np.stack([0.2 * xy[:, 1] ** 2, 0.5 + 0.8 * xy[:, 0]], axis=1)
    lift = build_lift(sys_.ops, grid(dt, 1), f=(lambda t: 1.0, f))
    y = rng.uniform(law.y_min, law.y_max, sys_.wq.size) if isinstance(law, BodnerPartom) else None
    st = make_state(0.0, np.zeros(2), 0.3 * rng.standard_normal(4), rng.standard_normal(4), y)
    slices = evolution._lift_slices(sys_, lift, 1)
    x = np.concatenate([st.delta, st.beta])

    def delta_map(xv):
        return evolution._implicit_map(sys_, st, *slices, dt, 1e30, xv)

    _, ev = delta_map(x)
    dtK = dt * evolution._delta_tangent(sys_, ev.Td, ev.r2, ev.phi)
    h = 1e-6
    jac = np.empty((4, 4))
    for j in range(4):
        e = np.zeros_like(x)
        e[j] = h
        jac[:, j] = (delta_map(x + e)[0][:4] - delta_map(x - e)[0][:4]) / (2.0 * h)
    # dF_delta / ddelta = -dt K
    assert np.abs(dtK + jac).max() <= 1e-6 * np.abs(dtK).max()


ONE_PASS_LAWS = [
    NortonHoff(c=1.5, p=2.0),
    NortonHoff(c=1.5, p=3.0),
    NortonHoff(c=1.5, p=4.0),
    BodnerPartom(g0=1.2, m=2.0),
    Mroz.constant(0.8),
    Mroz.lorentz(amplitude=2.0, offset=0.5),
    Mroz.table([0.0, 1.0, 3.0], [2.0, 0.5, 1.0]),
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("law", ONE_PASS_LAWS, ids=lambda l: l.name)
def test_one_pass_map_matches_the_vector_law(law, dim):
    # the map reduces |Td|^2 once and reads the law's radial factor; F and
    # what its evaluation carries match the vector rate G = phi Td and G : Td
    # formed point by point, at a random iterate under a force with a
    # spread-out temperature (and hardening field)
    cells = (4, 4) if dim == 2 else (2, 2, 2)
    ops = assemble(build_mesh(dim, (1.0,) * dim, cells), D)
    sys_ = ModalSystem(ops, build_basis(ops, k=2, l=4), law)
    rng = np.random.default_rng(dim)
    dt = 0.1
    lift = build_lift(ops, grid(dt, 1), f=(lambda t: 1.0, rng.standard_normal((ops.n_nodes, dim))))
    y = rng.uniform(law.y_min, law.y_max, sys_.wq.size) if isinstance(law, BodnerPartom) else None
    st = make_state(0.0, np.zeros(2), 0.3 * rng.standard_normal(4), rng.standard_normal(4), y)
    x = np.concatenate([st.delta, st.beta]) + 0.1 * rng.standard_normal(8)
    theta_t_q, Ttd_q = evolution._lift_slices(sys_, lift, 1)

    Td = sys_.stress_dev(x[:4], Ttd_q)
    G = vector_rate(law, sys_.theta_quad(x[4:]) + theta_t_q, Td, y=y)
    diss = dot6(Td, G)
    level = float(np.quantile(diss, 0.7))  # the truncation is active
    wG = (sys_.wq[:, None] * G).ravel()
    src = np.clip(diss, 0.0, level)
    heat = sys_.fields.v_quad @ (sys_.wq * src)
    F = np.concatenate(
        [st.delta + dt * (sys_.D_zeta_frame @ wG), (st.beta + dt * heat) / (1.0 + dt * sys_.mu)]
    )
    fx, ev = evolution._implicit_map(sys_, st, theta_t_q, Ttd_q, dt, level, x)

    def close(got, ref):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    assert src.max() == level < diss.max()
    close(fx, F)
    close(ev.diss, diss)
    close(ev.src, src)
    close(ev.wG, wG)
    close(ev.r2, dot6(Td, Td))
    assert ev.dissipation == pytest.approx(float(sys_.wq @ diss), rel=1e-14, abs=0.0)


def test_law_is_evaluated_once_per_map_evaluation(monkeypatch):
    # one law call per map evaluation plus level 0's report: the tangent and
    # the step report read the accepted evaluation's r2 and phi
    law = NortonHoff(c=1.0, p=3.0)
    sys_ = make_system(law=law)
    dt, n = 0.05, 8
    xy = sys_.ops.mesh.nodes
    f = np.stack([0.2 * xy[:, 1] ** 2, 0.5 + 0.8 * xy[:, 0]], axis=1)
    lift = build_lift(sys_.ops, grid(dt, n), f=(lambda t: 1.0 + 20.0 * t, f))
    st = make_state(0.0, np.zeros(2), [0.3, -0.2, 0.1], [1.0, 0.2, 0.0])
    calls, during_tangent = [], []
    evaluate = law.evaluate_many
    tangent = evolution._delta_tangent

    def spy(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    def counted_tangent(*args):
        before = len(calls)
        K = tangent(*args)
        during_tangent.append(len(calls) - before)
        return K

    law.evaluate_many = spy
    monkeypatch.setattr(evolution, "_delta_tangent", counted_tangent)
    res = run(sys_, st, lift, EvolutionConfig(dt=dt, n_steps=n), on_step=lambda *a: None)
    assert all(rep.substeps == 1 for rep in res.reports)
    assert during_tangent and not any(during_tangent)
    assert len(calls) == sum(rep.iters for rep in res.reports) + 1


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_start_extrapolation_exact_on_low_degree_polynomials(degree):
    # levels spaced by a dt halving (0.1, 0.05, 0.025): the degree-d
    # polynomial through them is reproduced at the next time, and scoring
    # picks a degree that fits the history exactly
    coef = np.array([[1.0, -0.5, 2.0], [2.0, 0.25, -3.0], [-3.0, 1.5, 0.5]])[: degree + 1]

    def f(t):
        return sum(c * t**j for j, c in enumerate(coef))

    times = [0.2, 0.3, 0.35, 0.375]
    ts = times[-degree - 1 :]
    weights = evolution._lagrange_weights(ts, 0.4)
    through = sum(w * f(t) for w, t in zip(weights, ts))
    assert np.abs(through - f(0.4)).max() <= 1e-13 * np.abs(f(0.4)).max()
    for t in (0.4, 0.5):
        start = evolution._start_iterate([(s, f(s)) for s in times], t)
        assert np.abs(start - f(t)).max() <= 1e-13 * np.abs(f(t)).max()


def test_start_degree_falls_back_to_the_state_on_oscillation():
    # an oscillating history is predicted best by degree 0, the newest level
    levels = [(0.1 * i, np.array([(-1.0) ** i, 2.0 + (-1.0) ** i])) for i in range(4)]
    start = evolution._start_iterate(levels, 0.4)
    assert start.tobytes() == levels[-1][1].tobytes()


def test_non_finite_start_guess_gives_the_state():
    # a linear history near the float limit: degree 1 predicts its newest
    # level exactly, but the line overflows far ahead
    levels = [(float(i), np.array([(0.5 + 0.1 * i) * 1e308, 1.0])) for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(evolution._start_iterate(levels, 4.0)).all()
        start = evolution._start_iterate(levels, 10.0)
    assert start is levels[-1][1]


def test_step_and_first_run_step_start_from_the_state(monkeypatch):
    sys_ = make_system(law=NortonHoff(c=1.0, p=3.0))
    dt = 1e-2
    cfg = EvolutionConfig(dt=dt, n_steps=1)
    lift = build_lift(sys_.ops, grid(dt, 1))
    st = make_state(0.0, [0.01, -0.02], [0.3, -0.0, 0.1], [1.0, 0.2, 0.0])
    starts = []
    advance = evolution._advance

    def spy(*args, **kwargs):
        starts.append(args[6] if len(args) > 6 else kwargs.get("x_start"))
        return advance(*args, **kwargs)

    monkeypatch.setattr(evolution, "_advance", spy)
    one, _ = step(sys_, st, lift, 1, cfg)
    res = run(sys_, st, lift, cfg)
    assert starts[0] is None
    assert starts[1].tobytes() == np.concatenate([st.delta, st.beta]).tobytes()
    for name in ("gamma", "delta", "beta"):
        assert getattr(res.final_state, name).tobytes() == getattr(one, name).tobytes()


def test_extrapolated_start_reaches_the_same_fixed_point():
    # one stiff step from the extrapolation of three accepted levels and from
    # the state: the same accepted coefficients, in fewer iterations
    sys_ = make_system(law=NortonHoff(c=1.0, p=4.0))
    dt = 0.03
    cfg = EvolutionConfig(dt=dt, n_steps=3, solver_max_iter=5000, truncation_level=1e30)
    lift = build_lift(sys_.ops, grid(dt, 4))
    st = make_state(0.0, np.zeros(2), [1.5, -1.0, 0.8], [1.0, 0.0, 0.0])
    res = run(sys_, st, lift, cfg)
    assert all(rep.substeps == 1 for rep in res.reports)
    levels = [(t, np.concatenate([d, b])) for t, d, b in zip(res.times, res.delta, res.beta)]
    slices = evolution._lift_slices(sys_, lift, 4)
    st3 = res.final_state
    from_state, rep_s = evolution._advance(sys_, st3, *slices, dt, cfg)
    start = evolution._start_iterate(levels, st3.t + dt)
    extrapolated, rep_x = evolution._advance(sys_, st3, *slices, dt, cfg, start)
    for name in ("gamma", "delta", "beta"):
        diff = getattr(extrapolated, name) - getattr(from_state, name)
        assert np.abs(diff).max() <= 1e-10
    assert rep_x.iters < rep_s.iters, (rep_x.iters, rep_s.iters)
    assert abs(rep_x.energy_defect) <= 10 * cfg.solver_tol


def test_start_weights_are_formed_once_per_level_pattern():
    # a uniform run keeps its levels at grid positions 0, 1, 2, ...: steps 1
    # and 2 see one and two levels, whose only degree is 0, and the three-
    # and four-level patterns are each formed once
    sys_ = make_system(law=NortonHoff(c=1.0, p=3.0))
    dt, n = 1e-2, 20
    st = make_state(0.0, [0.01, -0.02], [0.3, -0.1, 0.1], [1.0, 0.2, 0.0])
    evolution._start_weights.cache_clear()
    res = run(sys_, st, build_lift(sys_.ops, grid(dt, n)), EvolutionConfig(dt=dt, n_steps=n))
    assert all(rep.substeps == 1 for rep in res.reports)
    info = evolution._start_weights.cache_info()
    assert info.misses == 2
    assert info.hits == n - 4


def _start_on_times(levels, t):
    """The extrapolated start formed on absolute times, one Lagrange weight vector at a time."""
    ts = [ti for ti, _ in levels]
    X = np.array([x for _, x in levels])
    n = len(ts) - 1
    errs = [
        np.abs(evolution._lagrange_weights(ts[n - d - 1 : n], ts[n]) @ X[n - d - 1 : n] - X[n]).max()
        for d in range(n)
    ]
    d = int(np.argmin(errs))
    return d, np.array(evolution._lagrange_weights(ts[n - d :], t)) @ X[n - d :]


def test_halved_step_positions_give_the_start_of_the_times():
    # after a halved step the levels sit at grid positions 3, 4, 4.5, 4.75;
    # the start at position 5 is the one the Lagrange weights give on the
    # accumulated times of those levels
    dt = 0.3
    times = [0.9]
    for h in (dt, dt / 2, dt / 4):
        times.append(times[-1] + h)
    positions = [3.0, 4.0, 4.5, 4.75]

    def x(t):
        return np.array([np.sin(3.0 * t), np.exp(-t), 1e3 * t**3, -2.0])

    d, ref = _start_on_times([(t, x(t)) for t in times], times[-1] + dt / 4)
    assert d > 0
    got = evolution._start_iterate([(p, x(t)) for p, t in zip(positions, times)], 5.0)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_run_keeps_its_levels_at_exact_grid_positions(monkeypatch):
    # a stiff run whose first step halves: every level and every start is at
    # the step index plus a dyadic substep fraction, exact in binary
    sys_ = make_system(law=NortonHoff(c=1.0, p=4.0))
    cfg = EvolutionConfig(dt=0.05, n_steps=4, solver_max_iter=12, truncation_level=1e30)
    st = make_state(0.0, np.zeros(2), [1.5, -1.0, 0.8], [1.0, 0.0, 0.0])
    seen = []
    start_iterate = evolution._start_iterate

    def spy(levels, t):
        seen.append(([p for p, _ in levels], t))
        return start_iterate(levels, t)

    monkeypatch.setattr(evolution, "_start_iterate", spy)
    res = run(sys_, st, build_lift(sys_.ops, grid(0.05, 4)), cfg)
    assert res.reports[0].substeps > 1
    assert seen[0] == ([0.0], 1.0)  # the full first step, before it halves
    assert seen[1] == ([0.0], 0.5)
    for positions, t in seen:
        for p in positions + [t]:
            assert (p * 2**8).is_integer() and 0.0 <= p <= cfg.n_steps
        assert t > positions[-1]


def _stiff_creep(tmp_path, monkeypatch, c, dt):
    """creep_stiff's mesh and load with Norton-Hoff c, 100 steps of dt through the CLI.

    Returns the exit code, the diagnostics rows and the number of failed solves.
    """
    cfg = {
        "mesh": {"dim": 2, "extents": [1.0, 1.0], "cells": [12, 12]},
        "material": {"law": {"type": "norton_hoff", "c": c, "p": 3.0}},
        "data": {
            "f": {"preset": "polynomial", "value": [2.0, 2.0]},
            "theta0": {"preset": "cosine", "mean": 1.0, "amplitude": 0.2, "modes": [1, 1]},
        },
        "discretization": {"k": 16, "l": 16, "dt": dt, "n_steps": 100},
        "output": {"cadence": 100, "formats": ["csv"]},
    }
    path = tmp_path / f"c{c:g}_dt{dt:g}.json"
    path.write_text(json.dumps(cfg))
    failed = []
    advance = evolution._advance

    def counted(*args, **kwargs):
        try:
            return advance(*args, **kwargs)
        except NonlinearSolveFailure:
            failed.append(1)
            raise

    monkeypatch.setattr(evolution, "_advance", counted)
    out = tmp_path / path.stem
    code = main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    rows = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True, skip_header=2)
    return code, rows, len(failed)


def test_iteration_budget_on_stiff_creep(tmp_path, monkeypatch):
    # c = 10 at dt = 1: the chord solve keeps the accepted map evaluations
    # under a pinned budget with no failed attempt and no dt halving.
    # Measured 167 with one BLAS thread and 166 with two; the bound is 10%
    # over the larger
    code, rows, failed = _stiff_creep(tmp_path, monkeypatch, 10.0, 1.0)
    assert code == 0
    assert rows["solver_iters"].sum() <= 183
    assert rows["substeps"].max() == 1
    assert failed == 0


@pytest.mark.parametrize("c", [4.0, 10.0, 20.0])
@pytest.mark.parametrize("dt", [0.3, 1.0])
def test_stiff_ladder_never_halves(tmp_path, monkeypatch, c, dt):
    # the stiff Norton-Hoff ladder runs every grid step as one implicit solve
    code, rows, failed = _stiff_creep(tmp_path, monkeypatch, c, dt)
    assert code == 0
    assert rows["substeps"].max() == 1
    assert failed == 0


def test_diverging_iterate_halves_without_warnings():
    # a ramped shear of the boundary whose stress deviator |T~^d| ~ 6e102
    # overflows |T^d|^3 at the target slice but not at the halved one: the
    # overflow must fail the solve as diverged (and so halve dt) rather than
    # warn or reach the law's input check.  The shear's stress is
    # self-equilibrated, so the complement relaxes it and the run finishes;
    # dt keeps c dt |T^d| of order one, and the tolerance scales with the data
    sys_ = make_system(law=NortonHoff(c=1.0, p=3.0))
    dt, scale = 1e-101, 2.2e102
    xy = sys_.ops.mesh.nodes
    shear = (lambda t: t / dt, scale * xy[:, ::-1])
    st = make_state(0.0, np.zeros(2), np.zeros(3), np.ones(3))
    attempts = []
    advance = evolution._advance

    def spy(*args, **kwargs):
        attempts.append(args[4])
        return advance(*args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = EvolutionConfig(dt=dt, n_steps=1, truncation_level=1e30, solver_tol=1e-12 * scale)
        with pytest.raises(NonlinearSolveFailure, match="diverged") as err:
            step(sys_, st, build_lift(sys_.ops, grid(dt, 1), g=shear), 1, cfg)
        assert err.value.residual_history == []  # at the first map evaluation
        cfg = EvolutionConfig(dt=dt, n_steps=3, truncation_level=1e30, solver_tol=1e-12 * scale)
        evolution._advance = spy
        try:
            res = run(sys_, st, build_lift(sys_.ops, grid(dt, 3), g=shear), cfg)
        finally:
            evolution._advance = advance
    assert attempts[:2] == [dt, dt / 2]
    assert res.reports[0].substeps > 1
    assert all(rep.substeps == 1 for rep in res.reports[1:])
    for e_old, e_new, rep in zip(res.delta, res.delta[1:], res.reports):
        energy = 0.5 * max(e_old @ e_old, e_new @ e_new)
        assert abs(rep.energy_defect) <= 1e-12 * energy


def test_overflowing_chord_trial_reforms_the_tangent(monkeypatch):
    # the datum above: the second half of the first step starts with the K
    # kept from the first half, and its chord trial overflows.  That trial
    # re-forms K and backtracks, as a trial that does not decrease the
    # residual does, so the first step takes 2 substeps, not 3
    sys_ = make_system(law=NortonHoff(c=1.0, p=3.0))
    dt, scale = 1e-101, 2.2e102
    shear = (lambda t: t / dt, scale * sys_.ops.mesh.nodes[:, ::-1])
    st = make_state(0.0, np.zeros(2), np.zeros(3), np.ones(3))
    overflows = []
    implicit_map = evolution._implicit_map

    def spy(*args, **kwargs):
        try:
            return implicit_map(*args, **kwargs)
        except FloatingPointError:
            overflows.append(args[4])  # the solve's dt
            raise

    monkeypatch.setattr(evolution, "_implicit_map", spy)
    cfg = EvolutionConfig(dt=dt, n_steps=3, truncation_level=1e30, solver_tol=1e-12 * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(sys_, st, build_lift(sys_.ops, grid(dt, 3), g=shear), cfg)
    assert [rep.substeps for rep in res.reports] == [2, 1, 1]
    # the full step overflows at its first evaluation, the second half at a trial
    assert overflows == [dt, dt / 2]
    for e_old, e_new, rep in zip(res.delta, res.delta[1:], res.reports):
        energy = 0.5 * max(e_old @ e_old, e_new @ e_new)
        assert abs(rep.energy_defect) <= 1e-12 * energy


@pytest.mark.parametrize("name, value", [("delta", np.inf), ("delta", np.nan), ("beta", np.inf)])
def test_non_finite_iterate_fails_before_the_law(name, value):
    # the law's own finiteness test is the only one: a non-finite iterate is
    # refused there, or by an earlier floating-point error, before the law
    # computes a value, and the solve fails as a diverged step
    law = NortonHoff(c=1.0, p=3.0)
    sys_ = make_system(law=law)
    calls = []
    evaluate = law.evaluate_many

    def spy(*args, **kwargs):
        try:
            G = evaluate(*args, **kwargs)
        except NonFiniteInput:
            calls.append("refused")
            raise
        calls.append("evaluated")
        return G

    law.evaluate_many = spy
    cfg = EvolutionConfig(dt=1e-2, n_steps=1)
    st = make_state(0.0, np.zeros(2), np.zeros(3), np.zeros(3))
    getattr(st, name)[0] = value
    with pytest.raises(NonlinearSolveFailure, match="implicit step diverged") as err:
        step(sys_, st, build_lift(sys_.ops, grid(1e-2, 1)), 1, cfg)
    assert calls in ([], ["refused"])
    assert err.value.t == pytest.approx(1e-2)


@pytest.mark.parametrize("name", ["delta", "beta"])
def test_initial_report_raises_the_laws_non_finite_input(name):
    # level 0 has no step to fail, so the law's error is not turned into a
    # diverged step
    sys_ = make_system(law=NortonHoff(c=1.0, p=3.0))
    st = make_state(0.0, np.zeros(2), np.zeros(3), np.zeros(3))
    getattr(st, name)[0] = np.nan
    with pytest.raises(NonFiniteInput):
        initial_report(sys_, st, build_lift(sys_.ops, grid(1e-2, 1)))


def test_finite_deviator_whose_norm_overflows_is_an_overflow(monkeypatch):
    # entries of 1e154 square to finite values whose sum over the frame
    # columns leaves the float range: that is an overflow in F, not a
    # non-finite input, so a step fails as diverged with the overflow's
    # reason and level 0's report is written as inf, as for a law value past
    # the float range
    sys_ = make_system(law=NortonHoff(c=1.0, p=3.0))
    huge = np.full((sys_.wq.size, sys_.m), 1e154)
    monkeypatch.setattr(sys_, "stress_dev", lambda delta, Ttd_q: huge)
    st = make_state(0.0, np.zeros(2), np.zeros(3), np.zeros(3))
    lift = build_lift(sys_.ops, grid(1e-2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = initial_report(sys_, st, lift)
        # the overflow's reason follows the message; a refused input has none
        with pytest.raises(NonlinearSolveFailure, match=r"diverged at t=0\.01 \(\w"):
            step(sys_, st, lift, 1, EvolutionConfig(dt=1e-2, n_steps=1))
    assert rep.dissipation == math.inf and rep.stress_lp == math.inf


@pytest.mark.parametrize(
    "mesh, data",
    [
        (
            {"dim": 2, "cells": [4, 4]},
            {
                "f": {
                    "preset": "polynomial",
                    "value": [2.0, 2.0],
                    "time": {"kind": "ramp", "slope": 5.0},
                },
                "g_theta": {"preset": "constant", "value": 0.2},
            },
        ),
        (
            {"dim": 3, "extents": [1.0, 1.0, 1.0], "cells": [3, 3, 3]},
            {"epsp0": {"preset": "complement_mode", "index": 0, "amplitude": 0.05}},
        ),
    ],
    ids=["forced_2d", "isolated_3d"],
)
def test_run_reads_no_voigt_stress_table(tmp_path, monkeypatch, mesh, data):
    # once set up, the steps read the mode tables and the lift stress only in
    # the deviator frame: with snapshots off, the run finishes after the Voigt
    # tables D zeta, D eps(w) and the lift stress raise on every read
    def unreadable(name):
        def read(_self):
            raise AssertionError(f"the step read the Voigt table {name}")

        return property(read)

    set_up_run = cli.run

    def guarded(*args, **kwargs):
        # a class property shadows the instance's own T_tilde
        tables = ((BasisFields, "D_zeta"), (BasisFields, "D_eps_w"), (LiftedFields, "T_tilde"))
        for owner, name in tables:
            monkeypatch.setattr(owner, name, unreadable(name), raising=False)
        return set_up_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", guarded)
    cfg = {
        "mesh": mesh,
        "discretization": {"k": 3, "l": 3, "dt": 1e-2, "n_steps": 4},
        "data": data,
        "output": {"cadence": 2, "formats": []},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    out = tmp_path / "out" / "diagnostics.csv"
    assert np.genfromtxt(out, delimiter=",", names=True, skip_header=2).size == 5


def test_nonlinear_failure_reports_history():
    sys_ = make_system(law=NortonHoff(c=1.0, p=4.0))
    cfg = EvolutionConfig(dt=1e-2, n_steps=1, solver_max_iter=1, solver_tol=1e-15)
    lift = build_lift(sys_.ops, grid(1e-2, 1))
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
    lift = build_lift(sys_.ops, grid(dt, n))
    st = make_state(0.0, [0.05, -0.02], [0.1, 0.0, -0.03], [1.0, 0.0, 0.1])
    res = run(sys_, st, lift, cfg)
    fields = reconstruct_fields(sys_, res.final_state, lift, n)
    # pointwise constitutive contract
    recomputed = sys_.ops.D.apply6(fields["eps_u"] - fields["epsp"])
    assert np.abs(fields["T"] - recomputed).max() <= 1e-12
    # solver shortcut (the frame deviator) agrees with the assembled stress
    S = (res.final_state.delta @ sys_.D_zeta_frame).reshape(-1, sys_.m)
    assert np.abs(fields["T_hom"] @ sys_.ops.frame + S).max() <= 1e-12
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
    T = -sys_.ops.D.apply6(sys_.epsp_quad(np.zeros(3), delta))
    proj = np.einsum("q,qi,nqi->n", sys_.ops.wq, T, sys_.fields.eps_w)
    assert np.abs(proj).max() <= 1e-12
    # the step's equilibrium residual reads the same functional from E
    assert np.abs(sys_.E @ delta).max() <= 1e-12


def test_bodner_partom_hardening_advances():
    law = BodnerPartom(g0=1.0, m=1.0, gamma0=1.0, y0=1.0, y_min=0.5, y_max=2.0)
    sys_ = make_system(law=law)
    dt, n = 1e-2, 5
    cfg = EvolutionConfig(dt=dt, n_steps=n)
    lift = build_lift(sys_.ops, grid(dt, n))
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
    lift = build_lift(sys_.ops, grid(dt, n))
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
    lift = build_lift(ops, grid(dt, n))
    st = make_state(0.0, np.zeros(2), [0.3, -0.2, 0.1], [1.0, 0.0, 0.0])
    T0 = reconstruct_fields(sys_, st, lift, 0)["T_hom"]  # gamma = 0: -D sum delta_m zeta_m
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
        lift = build_lift(sys_.ops, grid(dt, n))
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
        lift = build_lift(sys_.ops, grid(dt, n))
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
    lift = build_lift(sys_.ops, grid(1e-3, 0))
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
    lift = build_lift(sys_.ops, grid(dt, n))
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
    lift = build_lift(ops, grid(dt, n))
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
