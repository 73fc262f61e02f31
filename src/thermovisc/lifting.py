"""Auxiliary problems that carry the inhomogeneous boundary data.

The elastic lift solves the stationary system -div(D eps(u)) = f with the
prescribed boundary displacement, via a nodal-interpolation extension of the
boundary values plus a homogeneous correction, solved with the operators' one
factor of the interior K_D (``AssembledOperators.K_ff_lu``, which the
displacement modes' shift-invert solve shares).  Every datum has the form
factor(t) * base and the system is linear, so it is solved once per base
field and scaled in time: the lift at time level i is sum_b c_b(t_i) base_b.
The heat lift advances the sourceless heat equation with the prescribed
Neumann flux by implicit Euler on the lumped-mass scheme.  On the uniform box
the products of sampled cosines diagonalize that scheme
(``mesh_fem.NeumannModes``, the modes of the temperature basis), so each step
is a scalar update per mode and nothing is factored; a residual test of every
step in the assembled operators guards that premise (fast diagonalization,
Lynch, Rice & Thomas, Numer. Math. 6, 1964).  Its nodal trajectory is stored
on the time grid (a level's Gauss-point values are interpolated where they
are read).  Subtracting the lifted fields turns the physical problem into one
with homogeneous boundary conditions;
``evolution.reconstruct_fields`` undoes the split for the snapshots, and the
diagnostics rows see the lift only through its time factors, base fields and
heat content (``diagnostics.RowTables``).  The lift's stress deviator is
stored in the deviator frame of the operators (``tensor.deviator_frame``), the
coordinates the step works in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadData, DimensionMismatch, SolverFailure
from .mesh_fem import AssembledOperators, neumann_modes


@dataclass
class LiftedFields:
    """Elastic lift base solutions, their time factors and the heat lift."""

    times: np.ndarray
    factors: np.ndarray = field(repr=False)  # (nt, n_bases): c_b(t_i)
    u_tilde: np.ndarray = field(repr=False)  # (n_bases, ndof)
    eps_u_tilde: np.ndarray = field(repr=False)  # (n_bases, NQ, 6)
    T_tilde: np.ndarray = field(repr=False)  # (n_bases, NQ, 6): D eps(u~_b)
    T_tilde_dev: np.ndarray = field(repr=False)  # (n_bases, NQ, m): dev T~_b in ops.frame
    theta_tilde: np.ndarray = field(repr=False)  # (nt, n)
    flux_integral: np.ndarray = field(repr=False)  # int g_theta ds per sample

    def combine(self, bases: np.ndarray, step: int) -> np.ndarray:
        """Elastic lift field at time level ``step`` from its (n_bases, ...) bases.

        Static data (one base with factor one) comes back as a view of the
        base: callers only read it, and it is bit-identical to a direct solve.
        """
        c = self.factors[step]
        if c.size == 1 and c[0] == 1.0:
            return bases[0]
        return np.einsum("b,b...->...", c, bases)


def solve_elastic_lift(ops: AssembledOperators, f_nodal=None, g_boundary=None):
    """Solve the auxiliary elastic system; returns (u, eps_quad, T_quad).

    ``f_nodal`` is a nodal force density (n, d); ``g_boundary`` holds the
    prescribed displacement on boundary nodes (interior entries ignored).
    """
    mesh = ops.mesh
    dim = mesh.dim
    n = ops.n_nodes
    if f_nodal is None:
        f_nodal = np.zeros((n, dim))
    f_nodal = np.asarray(f_nodal, dtype=float)
    if f_nodal.shape != (n, dim):
        raise DimensionMismatch(f"f must be ({n}, {dim}), got {f_nodal.shape}")
    if not np.isfinite(f_nodal).all():
        raise BadData("force field has non-finite entries")

    g_lift = np.zeros((n, dim))
    if g_boundary is not None:
        g_boundary = np.asarray(g_boundary, dtype=float)
        if g_boundary.shape != (n, dim):
            raise DimensionMismatch(f"g must be ({n}, {dim}), got {g_boundary.shape}")
        if not np.isfinite(g_boundary[mesh.boundary_mask]).all():
            raise BadData("boundary displacement has non-finite entries")
        g_lift[mesh.boundary_mask] = g_boundary[mesh.boundary_mask]

    rhs = ops.M_u @ f_nodal.ravel() - ops.K_D @ g_lift.ravel()
    free = ops.interior_dofs
    u = g_lift.ravel().copy()
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(rhs[free])
    if not np.isfinite(scale):
        raise BadData("elastic lift data leaves the float range")
    if scale > 0:  # a zero datum, or no interior, has the zero correction
        try:
            lu = ops.K_ff_lu
        except RuntimeError as err:
            raise SolverFailure(f"elastic lift factorization failed: {err}") from None
        u[free] += lu.solve(rhs[free])
        res = np.linalg.norm((ops.K_D @ u - ops.M_u @ f_nodal.ravel())[free])
        if not res <= 1e-10 * max(scale, 1.0):
            raise SolverFailure(f"elastic lift residual {res:.3e} exceeds tolerance")
    eps_q = ops.strain_quad(u)
    return u, eps_q, ops.D.apply6(eps_q)


#: entries of one (levels, nodes) block of the heat lift's transforms and
#: residuals; blocks this small keep the temporaries well below the trajectory
_HEAT_BLOCK = 1 << 15


def solve_heat_lift(ops: AssembledOperators, g_flux, theta0, times):
    """Implicit-Euler trajectory of the sourceless Neumann heat lift.

    ``g_flux`` is (nt, n) nodal flux data (used on boundary nodes only),
    ``theta0`` the auxiliary initial field.  Lumped mass keeps the scheme
    positivity preserving and makes the zero-flux heat content exactly
    conserved.

    Each step solves (M_lumped + dt K_theta) theta' = M_lumped theta + dt B g'
    in closed form: the cosine modes of ``mesh_fem.NeumannModes`` diagonalize
    the pencil, so with theta = Phi c a step is the scalar update
    c' = (c + dt Phi(B g') / N) / (1 + dt mu) per mode.  Loads and levels are
    transformed in blocks of about _HEAT_BLOCK entries.  Every step's residual
    in the assembled operators is checked, which also guards the premise
    (uniform box): a step that misses it is a SolverFailure.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise BadData("time grid must be strictly increasing")
    n = ops.n_nodes
    theta0 = np.asarray(theta0, dtype=float)
    g_flux = np.asarray(g_flux, dtype=float)
    if theta0.shape != (n,) or g_flux.shape != (times.size, n):
        raise DimensionMismatch(
            f"theta0 {theta0.shape} or flux {g_flux.shape} does not match grid"
        )
    if not (np.isfinite(theta0).all() and np.isfinite(g_flux).all()):
        raise BadData("heat lift data has non-finite entries")

    modes = neumann_modes(ops.mesh)
    M = ops.M_lumped
    out = np.empty((times.size, n))
    out[0] = theta0
    dts = np.diff(times)[:, None]
    levels = max(1, _HEAT_BLOCK // n)
    # data past the float range show as a non-finite |b| at their step
    with np.errstate(over="ignore", invalid="ignore"):
        c = modes.transform((M * theta0)[None])[0] / modes.N
        for a in range(1, times.size, levels):
            e = min(a + levels, times.size)
            dt = dts[a - 1 : e - 1]
            load = dt * (ops.B_boundary @ g_flux[a:e].T).T  # dt B g_{i+1}
            coef = modes.transform(load) / modes.N
            for j in range(e - a):  # coef[j] becomes c_{a+j}
                coef[j] += c
                coef[j] /= 1.0 + dt[j] * modes.mu
                c = coef[j]
            out[a:e] = modes.transform(coef)
            b = load  # in place: b = M theta_i + dt B g_{i+1}, then the residual
            b += M * out[a - 1 : e - 1]
            scale = np.linalg.norm(b, axis=1)
            b -= M * out[a:e]
            b -= dt * (ops.K_theta @ out[a:e].T).T
            res = np.linalg.norm(b, axis=1)
            bad = ~np.isfinite(scale) | ~(res <= 1e-12 * np.maximum(scale, 1.0))
            if bad.any():
                j = int(np.argmax(bad))
                if not np.isfinite(scale[j]):
                    raise BadData(f"heat lift data leaves the float range at step {a + j}")
                raise SolverFailure(f"heat lift residual {res[j]:.3e} at step {a + j}")
    return out


def build_lift(
    ops: AssembledOperators,
    times,
    f=None,
    g=None,
    g_theta=None,
    theta_tilde0=None,
) -> LiftedFields:
    """Lift the data onto the time grid ``times``.

    ``f`` (nodal force density), ``g`` (boundary displacement) and
    ``g_theta`` (nodal heat flux) are ``(factor, base)`` pairs, the datum at
    time t being ``factor(t) * base``; a missing or all-zero base carries no
    data.  The elastic system is solved once per base, or once for the
    combined datum when every factor is constant on the grid.
    """
    times = np.asarray(times, dtype=float)
    n = ops.n_nodes
    nt = times.size

    data = {}
    for key, datum in (("f_nodal", f), ("g_boundary", g), ("g_theta", g_theta)):
        if datum is not None and np.abs(datum[1]).max() > 0:
            data[key] = (datum[0], np.asarray(datum[1], dtype=float))
    g_theta = data.pop("g_theta", None)  # None when it carries no data
    factors = np.array(
        [[float(factor(t)) for factor, _ in data.values()] for t in times]
    ).reshape(nt, len(data))
    if not np.isfinite(factors).all():
        raise BadData("time factor of the elastic data has non-finite values")
    if np.all(factors == factors[0]):
        # all data static: one solve of the combined datum, with factor one
        combined = {key: c * base for (key, (_, base)), c in zip(data.items(), factors[0])}
        solutions = [solve_elastic_lift(ops, **combined)]
        factors = np.ones((nt, 1))
    else:
        solutions = [solve_elastic_lift(ops, **{key: base}) for key, (_, base) in data.items()]
    u_b, eps_b, T_b = (np.stack(parts) for parts in zip(*solutions))

    theta0 = (
        np.zeros(n) if theta_tilde0 is None else np.asarray(theta_tilde0, dtype=float)
    )
    if g_theta is None and not theta0.any():
        theta = np.zeros((nt, n))
        flux = np.zeros(nt)
    else:
        g_flux = np.stack(
            [np.zeros(n) if g_theta is None else g_theta[0](t) * g_theta[1] for t in times]
        )
        theta = solve_heat_lift(ops, g_flux, theta0, times) if nt > 1 else theta0[None, :]
        # int g ds = 1 . (B g) = g . (B^T 1): one product for every level
        flux = g_flux @ (ops.B_boundary.T @ np.ones(n))

    return LiftedFields(
        times=times,
        factors=factors,
        u_tilde=u_b,
        eps_u_tilde=eps_b,
        T_tilde=T_b,
        T_tilde_dev=T_b @ ops.frame,  # the frame is traceless: T Q = dev(T) Q
        theta_tilde=theta,
        flux_integral=flux,
    )
