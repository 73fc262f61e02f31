import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import thermovisc.lifting as lifting
from thermovisc.basis import build_basis
from thermovisc.config import make_boundary_displacement, make_force, validate_config
from thermovisc.constitutive import Mroz
from thermovisc.errors import BadData, DimensionMismatch, SolverFailure
from thermovisc.evolution import ModalSystem, reconstruct_fields
from thermovisc.lifting import (
    build_lift,
    solve_elastic_lift,
    solve_heat_lift,
)
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor

from helpers import boundary_measure, make_state

D = ElasticityTensor.isotropic(lam=1.0, mu=1.0)


@pytest.fixture(scope="module")
def ops():
    return assemble(build_mesh(2, (1.0, 1.0), (6, 5)), D)


@pytest.fixture(scope="module")
def ops3d():
    return assemble(build_mesh(3, (1.0, 1.0, 1.0), (3, 3, 3)), D)


def test_zero_data_zero_lift(ops):
    u, eq, tq = solve_elastic_lift(ops)
    assert np.abs(u).max() == 0.0
    assert np.abs(tq).max() == 0.0


@pytest.mark.parametrize("fix", ["ops", "ops3d"])
def test_uniform_strain_patch(fix, request):
    # affine boundary displacement reproduces the constant strain exactly
    ops = request.getfixturevalue(fix)
    dim = ops.mesh.dim
    A = np.array([[0.2, 0.05], [0.05, -0.1]]) if dim == 2 else np.array(
        [[0.2, 0.05, 0.0], [0.05, -0.1, 0.02], [0.0, 0.02, 0.3]]
    )
    g = ops.mesh.nodes @ A.T
    u, eq, tq = solve_elastic_lift(ops, g_boundary=g)
    assert np.abs(u.reshape(-1, dim) - g).max() <= 1e-12
    expect = np.zeros(6)
    expect[0], expect[1] = A[0, 0], A[1, 1]
    expect[3] = 2.0 * A[0, 1] / np.sqrt(2.0)
    if dim == 3:
        expect[2] = A[2, 2]
        expect[4] = 2.0 * A[0, 2] / np.sqrt(2.0)
        expect[5] = 2.0 * A[1, 2] / np.sqrt(2.0)
    assert np.abs(eq - expect).max() <= 1e-12
    assert np.abs(tq - D.apply6(expect)).max() <= 1e-12


def test_interior_load_supported_interior(ops):
    f = np.zeros((ops.n_nodes, 2))
    f[:, 1] = 1.0
    u, _, _ = solve_elastic_lift(ops, f_nodal=f)
    bmask = np.repeat(ops.mesh.boundary_mask, 2)
    assert np.abs(u[bmask]).max() == 0.0
    assert np.abs(u).max() > 0.0


def test_lift_linearity(ops):
    f = np.zeros((ops.n_nodes, 2))
    f[:, 0] = 0.3
    g = 0.1 * ops.mesh.nodes
    u1, _, _ = solve_elastic_lift(ops, f_nodal=f, g_boundary=g)
    u2, _, _ = solve_elastic_lift(ops, f_nodal=2 * f, g_boundary=2 * g)
    assert np.abs(u2 - 2 * u1).max() <= 1e-12 * max(1.0, np.abs(u2).max())


def test_elastic_lift_bad_data(ops):
    f = np.zeros((ops.n_nodes, 2))
    f[0, 0] = np.nan
    with pytest.raises(BadData):
        solve_elastic_lift(ops, f_nodal=f)
    with pytest.raises(DimensionMismatch):
        solve_elastic_lift(ops, f_nodal=np.zeros((3, 2)))


def test_elastic_lift_refuses_a_nan_solve():
    # the residual guard passes only a residual within tolerance, never a NaN
    ops = assemble(build_mesh(2, (1.0, 1.0), (4, 4)), D)

    class NaNFactor:
        def solve(self, b):
            return np.full_like(b, np.nan)

    ops.K_ff_lu = NaNFactor()
    with pytest.raises(SolverFailure, match="elastic lift residual nan exceeds tolerance"):
        solve_elastic_lift(ops, f_nodal=np.ones((ops.n_nodes, 2)))


def test_heat_lift_constant_is_steady(ops):
    times = np.linspace(0.0, 1.0, 11)
    theta0 = np.full(ops.n_nodes, 3.5)
    out = solve_heat_lift(ops, np.zeros((11, ops.n_nodes)), theta0, times)
    assert np.abs(out - 3.5).max() <= 1e-12


def test_heat_lift_zero_flux_conserves(ops):
    rng = np.random.default_rng(0)
    theta0 = rng.uniform(0.5, 2.0, ops.n_nodes)
    times = np.linspace(0.0, 0.5, 26)
    out = solve_heat_lift(ops, np.zeros((26, ops.n_nodes)), theta0, times)
    heat = out @ ops.M_lumped
    assert np.abs(heat - heat[0]).max() <= 1e-12 * abs(heat[0])


def test_heat_lift_positivity(ops):
    rng = np.random.default_rng(1)
    theta0 = rng.uniform(0.0, 1.0, ops.n_nodes)
    times = np.linspace(0.0, 0.2, 21)
    out = solve_heat_lift(ops, np.zeros((21, ops.n_nodes)), theta0, times)
    assert out.min() >= -1e-12


@pytest.mark.parametrize("fix", ["ops", "ops3d"])
def test_heat_lift_constant_flux_rate(fix, request):
    # d/dt int theta = q |dOmega|, exact for the discrete scheme
    ops = request.getfixturevalue(fix)
    q = 0.7
    times = np.linspace(0.0, 0.1, 6)
    flux = np.full((6, ops.n_nodes), q)
    out = solve_heat_lift(ops, flux, np.zeros(ops.n_nodes), times)
    heat = out @ ops.M_lumped
    rates = np.diff(heat) / np.diff(times)
    assert np.abs(rates - q * boundary_measure(ops.mesh)).max() <= 1e-10


def test_heat_lift_validates_grid(ops):
    with pytest.raises(BadData):
        solve_heat_lift(
            ops,
            np.zeros((2, ops.n_nodes)),
            np.zeros(ops.n_nodes),
            np.array([0.0, 0.0]),
        )


def _implicit_euler_reference(ops, g_flux, theta0, times):
    # one LU solve of the lumped scheme per step
    out = [theta0]
    for i, dt in enumerate(np.diff(times)):
        lu = splu((sp.diags(ops.M_lumped) + dt * ops.K_theta).tocsc())
        out.append(lu.solve(ops.M_lumped * out[-1] + dt * (ops.B_boundary @ g_flux[i + 1])))
    return np.array(out)


BOXES = {
    "2d": (2, (1.3, 0.7), (5, 3)),
    "3d": (3, (0.9, 1.4, 0.6), (3, 4, 2)),
}


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("block", [None, 50])
def test_heat_lift_closed_form_matches_implicit_euler(monkeypatch, box, block):
    # the cosine-mode update is the lumped implicit-Euler step, on unequal
    # extents and a non-uniform grid; a small block spreads the levels over
    # many transform blocks
    if block is not None:
        monkeypatch.setattr(lifting, "_HEAT_BLOCK", block)
    dim, extents, cells = BOXES[box]
    ops = assemble(build_mesh(dim, extents, cells), D)
    rng = np.random.default_rng(3)
    times = np.cumsum(np.r_[0.0, rng.uniform(0.2, 2.0, 29)]) * 1e-2
    g_flux = rng.standard_normal((times.size, ops.n_nodes))
    theta0 = rng.standard_normal(ops.n_nodes)
    out = solve_heat_lift(ops, g_flux, theta0, times)
    ref = _implicit_euler_reference(ops, g_flux, theta0, times)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("block", [None, 50])
def test_heat_lift_overflow_names_its_step(ops, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(lifting, "_HEAT_BLOCK", block)
    times = np.linspace(0.0, 0.1, 9)
    g_flux = np.zeros((times.size, ops.n_nodes))
    g_flux[5] = 1e308
    with pytest.raises(BadData, match="heat lift data leaves the float range at step 5$"):
        solve_heat_lift(ops, g_flux, np.ones(ops.n_nodes), times)


@pytest.mark.parametrize("cells", [24, 64])
def test_heat_lift_temporaries_stay_below_the_trajectory(cells):
    # the transforms run in blocks sized by entries, so the temporaries stay a
    # fraction of the trajectory whatever the mesh
    ops = assemble(build_mesh(2, (1.0, 1.0), (cells, cells)), D)
    rng = np.random.default_rng(4)
    times = 1e-3 * np.arange(201)
    g_flux = rng.standard_normal((times.size, ops.n_nodes))
    theta0 = rng.standard_normal(ops.n_nodes)
    tracemalloc.start()
    try:
        out = solve_heat_lift(ops, g_flux, theta0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + 2**20


def test_build_lift_and_reconstruct(ops):
    times = np.linspace(0.0, 0.1, 6)
    g = 0.05 * ops.mesh.nodes
    lift = build_lift(
        ops,
        times,
        g=(lambda t: 1.0, g),
        g_theta=(lambda t: 1.0, np.full(ops.n_nodes, 1.0)),
    )
    assert lift.u_tilde.shape[0] == 1  # static elastic part solved once
    assert np.array_equal(lift.factors, np.ones((times.size, 1)))
    assert np.allclose(lift.flux_integral, boundary_measure(ops.mesh), atol=1e-12)

    system = ModalSystem(ops, build_basis(ops, k=2, l=3), Mroz.constant(1.0))
    rest = make_state(0.0, np.zeros(2), np.zeros(3), np.zeros(3))
    phys = reconstruct_fields(system, rest, lift, 3)
    assert np.array_equal(phys["u"], lift.u_tilde[0])
    assert np.array_equal(phys["T"], lift.T_tilde[0])
    assert np.array_equal(phys["theta"], lift.theta_tilde[3])

    rng = np.random.default_rng(2)
    moving = make_state(0.0, rng.standard_normal(2), np.zeros(3), np.zeros(3))
    zl = build_lift(ops, times)
    assert not zl.u_tilde.any() and not zl.theta_tilde.any()
    phys = reconstruct_fields(system, moving, zl, 2)
    assert np.array_equal(phys["u"], phys["u_hom"])
    # round trip: adding then subtracting the lift gives the homogeneous part
    # back (exact up to float rounding of the add/subtract pair)
    phys2 = reconstruct_fields(system, moving, lift, 2)
    back = phys2["u"] - lift.combine(lift.u_tilde, 2)
    assert np.allclose(back, phys2["u_hom"], rtol=0, atol=1e-15)


TIME_KINDS = {
    "ramp": {"kind": "ramp", "slope": 3.0, "intercept": 0.5},
    "sinusoid": {"kind": "sinusoid", "amplitude": 0.7, "omega": 40.0, "phase": 0.3},
    "csv": {"kind": "csv"},
}


def _elastic_data(tmp_path, f_time, g_time):
    """Config-built (factor, base) pairs for a polynomial force and affine g."""
    spec = {
        "f": {"preset": "polynomial", "value": [0.4, -0.3]},
        "g": {"preset": "affine", "matrix": [[0.1, 0.02], [0.0, -0.05]]},
    }
    for key, time in (("f", f_time), ("g", g_time)):
        if time is not None:
            time = dict(time)
            if time["kind"] == "csv":
                path = tmp_path / f"{key}.csv"
                path.write_text("0.0,0.0\n0.04,1.0\n0.1,-0.5\n")
                time["path"] = str(path)
            spec[key]["time"] = time
    return validate_config({"data": spec})


@pytest.mark.parametrize("kind", sorted(TIME_KINDS))
@pytest.mark.parametrize("f_static", [False, True])
def test_separable_lift_matches_per_level_solves(ops, tmp_path, kind, f_static):
    # the lift is solved once per datum and scaled in time; it must agree
    # with one solve of the full datum per time level
    time = TIME_KINDS[kind]
    cfg = _elastic_data(tmp_path, None if f_static else time, time)
    f = make_force(cfg, ops.mesh)
    g = make_boundary_displacement(cfg, ops.mesh)
    times = np.linspace(0.0, 0.1, 11)
    lift = build_lift(ops, times, f=f, g=g)
    assert lift.u_tilde.shape[0] == 2
    for i, t in enumerate(times):
        ref = solve_elastic_lift(ops, f[0](t) * f[1], g[0](t) * g[1])
        ref = ref + (ref[2] @ ops.frame,)
        got = [
            lift.combine(bases, i)
            for bases in (lift.u_tilde, lift.eps_u_tilde, lift.T_tilde, lift.T_tilde_dev)
        ]
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("n_steps", [1, 7, 60])
@pytest.mark.parametrize("kinds", [(None, None), (None, "ramp"), ("sinusoid", "ramp")])
def test_elastic_solves_do_not_grow_with_steps(ops, tmp_path, monkeypatch, n_steps, kinds):
    calls = []
    real = lifting.solve_elastic_lift

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lifting, "solve_elastic_lift", counted)
    cfg = _elastic_data(tmp_path, *(None if k is None else TIME_KINDS[k] for k in kinds))
    times = 1e-2 * np.arange(n_steps + 1)
    lift = build_lift(
        ops, times, f=make_force(cfg, ops.mesh), g=make_boundary_displacement(cfg, ops.mesh)
    )
    static = kinds == (None, None)
    assert len(calls) == (1 if static else 2)
    assert lift.factors.shape == (n_steps + 1, len(calls))


def test_time_factor_must_be_finite(ops):
    f = np.ones((ops.n_nodes, 2))
    with pytest.raises(BadData):
        build_lift(ops, np.linspace(0.0, 1.0, 3), f=(lambda t: np.inf if t > 0 else 1.0, f))


@pytest.mark.parametrize("box", sorted(BOXES))
def test_flux_integral_matches_the_per_level_products(box):
    # build_lift forms every level's boundary flux integral in one product
    # with B^T 1; the per-level sums 1 . (B g_i) agree to round-off
    dim, extents, cells = BOXES[box]
    ops = assemble(build_mesh(dim, extents, cells), D)
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 0.2, 41)
    base = rng.standard_normal(ops.n_nodes)
    lifted = build_lift(ops, times, g_theta=(lambda t: np.cos(30.0 * t) + 0.3, base))
    ones = np.ones(ops.n_nodes)
    per_level = [ones @ (ops.B_boundary @ ((np.cos(30.0 * t) + 0.3) * base)) for t in times]
    ref = np.array(per_level)
    assert np.abs(ref).min() > 0.0
    assert np.abs(lifted.flux_integral - ref).max() <= 1e-14 * np.abs(ref).max()
