"""Auxiliary problems that carry the inhomogeneous boundary data.

The elastic lift solves the stationary system -div(D eps(u)) = f with the
prescribed boundary displacement, via a nodal-interpolation extension of the
boundary values plus a homogeneous correction.  Every datum has the form
factor(t) * base and the system is linear, so it is solved once per base
field and scaled in time: the lift at time level i is sum_b c_b(t_i) base_b.
The heat lift advances the sourceless heat equation with the prescribed
Neumann flux by implicit Euler on the lumped-mass scheme; its trajectory is
stored on the time grid.  Subtracting the lifted fields turns the physical
problem into one with homogeneous boundary conditions;
``evolution.reconstruct_fields`` undoes the split for the snapshots, and the
diagnostics rows see the lift only through its time factors, base fields and
heat content (``diagnostics.RowTables``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import BadData, DimensionMismatch, SolverFailure
from .mesh_fem import AssembledOperators
from .tensor import dev6


@dataclass
class LiftedFields:
    """Elastic lift base solutions, their time factors and the heat lift."""

    times: np.ndarray
    factors: np.ndarray = field(repr=False)  # (nt, n_bases): c_b(t_i)
    u_tilde: np.ndarray = field(repr=False)  # (n_bases, ndof)
    eps_u_tilde: np.ndarray = field(repr=False)  # (n_bases, NQ, 6)
    T_tilde: np.ndarray = field(repr=False)
    T_tilde_dev: np.ndarray = field(repr=False)
    theta_tilde: np.ndarray = field(repr=False)  # (nt, n)
    theta_tilde_quad: np.ndarray = field(repr=False)
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
    if free.size:
        try:
            lu = splu(ops.K_D[free][:, free].tocsc())
        except RuntimeError as err:
            raise SolverFailure(f"elastic lift factorization failed: {err}") from None
        u[free] += lu.solve(rhs[free])
        res = np.linalg.norm((ops.K_D @ u - ops.M_u @ f_nodal.ravel())[free])
        scale = max(np.linalg.norm(rhs[free]), 1e-30)
        if res > 1e-10 * max(scale, 1.0):
            raise SolverFailure(f"elastic lift residual {res:.3e} exceeds tolerance")
    eps_q = ops.strain_quad(u)
    return u, eps_q, ops.D.apply6(eps_q)


def solve_heat_lift(ops: AssembledOperators, g_flux, theta0, times):
    """Implicit-Euler trajectory of the sourceless Neumann heat lift.

    ``g_flux`` is (nt, n) nodal flux data (used on boundary nodes only),
    ``theta0`` the auxiliary initial field.  Lumped mass keeps the scheme
    positivity preserving and makes the zero-flux heat content exactly
    conserved.
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

    out = np.empty((times.size, n))
    out[0] = theta0
    # one factorization per distinct step: a uniform grid built as dt * arange
    # still has steps that differ in the last bit
    lus = {}
    for i in range(times.size - 1):
        dt = float(times[i + 1] - times[i])
        lu = lus.get(dt)
        if lu is None:
            try:
                lu = lus[dt] = splu((sp.diags(ops.M_lumped) + dt * ops.K_theta).tocsc())
            except RuntimeError as err:
                raise SolverFailure(
                    f"heat lift factorization failed at step {i + 1}: {err}"
                ) from None
        b = ops.M_lumped * out[i] + dt * (ops.B_boundary @ g_flux[i + 1])
        out[i + 1] = lu.solve(b)
        res = np.linalg.norm(
            ops.M_lumped * out[i + 1] + dt * (ops.K_theta @ out[i + 1]) - b
        )
        if res > 1e-12 * max(np.linalg.norm(b), 1.0):
            raise SolverFailure(f"heat lift residual {res:.3e} at step {i + 1}")
    return out


def build_lift(
    ops: AssembledOperators,
    times,
    f=None,
    g=None,
    gtheta_of_t=None,
    theta_tilde0=None,
) -> LiftedFields:
    """Lift the data onto the time grid ``times``.

    ``f`` (nodal force density) and ``g`` (boundary displacement) are
    ``(factor, base)`` pairs, the datum at time t being ``factor(t) * base``;
    a missing or all-zero base carries no data.  The elastic system is solved
    once per base, or once for the combined datum when every factor is
    constant on the grid.  ``gtheta_of_t`` maps a time to the nodal heat flux.
    """
    times = np.asarray(times, dtype=float)
    n = ops.n_nodes
    nt = times.size

    data = {}
    for key, datum in (("f_nodal", f), ("g_boundary", g)):
        if datum is not None and np.abs(datum[1]).max() > 0:
            data[key] = (datum[0], np.asarray(datum[1], dtype=float))
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
    if gtheta_of_t is None and not theta0.any():
        theta = np.zeros((nt, n))
        flux = np.zeros(nt)
        theta_q = np.zeros((nt, ops.wq.size))
    else:
        g_flux = np.stack(
            [
                np.zeros(n) if gtheta_of_t is None else np.asarray(gtheta_of_t(t), dtype=float)
                for t in times
            ]
        )
        theta = solve_heat_lift(ops, g_flux, theta0, times) if nt > 1 else theta0[None, :]
        ones = np.ones(n)
        flux = np.array([ones @ (ops.B_boundary @ g_flux[i]) for i in range(nt)])
        theta_q = np.stack([ops.scalar_quad(theta[i]) for i in range(nt)])

    return LiftedFields(
        times=times,
        factors=factors,
        u_tilde=u_b,
        eps_u_tilde=eps_b,
        T_tilde=T_b,
        T_tilde_dev=dev6(T_b),
        theta_tilde=theta,
        theta_tilde_quad=theta_q,
        flux_integral=flux,
    )


def zero_lift(ops: AssembledOperators, times) -> LiftedFields:
    return build_lift(ops, times)
