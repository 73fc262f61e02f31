"""The three Galerkin families of the two-level approximation.

* displacement modes w_n: generalized eigenpairs of the elasticity operator
  on the Dirichlet-constrained space, L2-orthonormal, D-orthogonal with
  (eps(w_i), eps(w_j))_D = lambda_i delta_ij;
* temperature modes v_m: eigenpairs of the Neumann Laplacian against the
  lumped mass, in closed form, with the constant mode first (mu_1 = 0);
* complement strain modes zeta_m: eigenpairs of a smoothness inner product
  against (.,.)_D on the D-orthogonal complement of span{eps(w_1..k)} inside
  the nodal strain space, D-orthonormal with eigenvalues >= 1.

The displacement family is the lowest eigenpairs of a sparse symmetric
pencil.  Up to DENSE_CUTOFF dofs it is a dense LAPACK solve, complete by
construction and faster there than ARPACK's fixed cost.  Above it,
shift-invert Lanczos (ARPACK) on the operators' factor of the interior K_D,
which the elastic lift shares (``AssembledOperators.K_ff_lu``), computes a
few pairs more than kept and a completeness certificate checks them: by
Sylvester's law of inertia the number of negative pivots of a symmetric
LDL^T of A - sigma M equals the number of eigenvalues below sigma, so with
sigma in the gap after the last kept group the count must equal the number
of pairs computed below it.  A missed pair shows as a mismatch; the solve is
repeated with more pairs, and an uncertified basis is a SolverFailure.

``build_basis`` forms the strains eps(w_n) at the Gauss points once, right
after W, and both their readers take that one table: the complement's
constraint rows and ``basis_fields``.

The complement lives on the kernel of its k constraint rows C, the
functionals (eps(w_n), .)_D.  Its pencil is a Kronecker product with known
eigenpairs, which C changes by rank k; Haynsworth's inertia additivity counts
and places the eigenvalues on ker C, complete by construction.

Once Z is known, ``build_basis`` calls ``basis_fields`` once: it evaluates
zeta_m and v_m at the Gauss points and pairs them under D, and the basis keeps
those tables.  The step, the diagnostics rows and ``basis_invariant_report``
all read the basis's E = (eps(w_n), zeta_m)_D and Gram matrix
(zeta_m, zeta_n)_D.

The smoothness product is the H1-type surrogate
<a,b>_s = (a,b)_D + (grad a, grad b)_D, which makes every eigenvalue equal to
1 + a nonnegative Rayleigh quotient, whatever the units of D.  So is every
check of the basis: eigensolves bound their backward error, and
``basis_invariant_report`` divides each error by its own scale.

By default the nodal strain space is restricted to pointwise-traceless
fields.  For isotropic D a traceless strain rate pairs to zero against every
spherical mode, so the excluded modes carry no dynamics; the restriction
keeps the inelastic-strain reconstruction traceless whenever the gradient
family is inactive.  ``space="full"`` disables the restriction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, qr
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from . import __version__
from .errors import BadConfig, BadData, EmptyComplement, SolverFailure
from .mesh_fem import AssembledOperators, neumann_modes, symmetric_lu
from .tensor import DEVIATORIC_BASIS, VOIGT_PAIRS

#: eigenproblem sizes, in the problem's own dofs, up to which the dense LAPACK
#: solve runs; above it the certified shift-invert solve is faster
DENSE_CUTOFF = 700

#: pairs the sparse solve computes past the kept ones, to see the gap that
#: closes the last kept group
_EXTRA_PAIRS = 6

#: sparse solves before an uncertified eigenbasis is reported as a failure
_SPARSE_TRIES = 3

#: ARPACK restarts before a solve fails; certified solves took at most 40, and
#: one that cannot meet ARPACK's stop test would run ten restarts per dof
_ARPACK_RESTARTS = 300

#: relative gap, on the scale of the computed eigenvalues, between two groups
_GROUP_GAP = 1e-8

SIGN_CONVENTION = "W: first entry with |v| > 1e-8 max|v| is positive"

#: largest normwise backward error of an accepted eigenpair
_EIG_TOL = 1e-12


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    out = modes.copy()
    for i in range(out.shape[0]):
        v = out[i]
        big = np.abs(v) > 1e-8 * np.abs(v).max()
        first = np.argmax(big)
        if v[first] < 0:
            out[i] = -v
    return out


def _negative_pivots(S) -> int | None:
    """Negative eigenvalues of the symmetric S, by Sylvester's law of inertia.

    With both orderings equal and every pivot on the diagonal, U = D L^T, so
    the signs of U's diagonal are those of S's eigenvalues.  None when SuperLU
    met a zero pivot or exchanged a row.
    """
    try:
        lu = symmetric_lu(S)
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _check_residual(A, M, vals, X, what: str, C=None) -> None:
    """SolverFailure unless each column x of X has the normwise backward error
    ||A x - lam M x|| / ((||A|| + |lam| ||M||) ||x||) <= _EIG_TOL on ker C, with the
    inf-norms of A and M (Higham & Higham, SIMAX 20, 1998)."""
    R = A @ X - (M @ X) * vals[None, :]
    if C is not None:
        R -= C.T @ (C @ R)
    scale = sp.linalg.norm(A, np.inf) + np.abs(vals) * sp.linalg.norm(M, np.inf)
    res = np.linalg.norm(R, axis=0) / (scale * np.linalg.norm(X, axis=0))
    if not np.all(res <= _EIG_TOL):
        raise SolverFailure(f"{what} eigensolve residual {res.max():.3e} > {_EIG_TOL}")


def displacement_eigenbasis(ops: AssembledOperators, k: int, record: dict | None = None):
    """First k eigenpairs of K_D w = lambda M_u w on the interior dofs, ascending.

    A dense LAPACK solve runs up to DENSE_CUTOFF dofs and where ARPACK cannot
    (k + _EXTRA_PAIRS not below the dofs).  Otherwise ARPACK computes
    _EXTRA_PAIRS more pairs than kept, from a seeded start vector, on the
    operators' one factor of the interior K_D (``ops.K_ff_lu``, which the
    elastic lift reuses).  The last kept group ends at the first gap j >= k;
    the inertia at sigma in that gap must count j eigenvalues below it, or
    more pairs are asked for, and after _SPARSE_TRIES solves it is a
    SolverFailure.  ``record``, when given, receives the branch, and for the
    sparse one sigma, the count, the kept pairs and the number of solves.
    """
    free = ops.interior_dofs
    N = free.size
    if not (1 <= k <= N):
        raise BadConfig(f"k must be in [1, {N}], got {k}")
    A = ops.K_D[free][:, free]
    M = ops.M_u[free][:, free]
    record = {} if record is None else record
    nev = k + _EXTRA_PAIRS
    if nev >= N or N <= DENSE_CUTOFF:
        try:
            lam, vecs = eigh(A.toarray(), M.toarray(), subset_by_index=(0, k - 1))
        except np.linalg.LinAlgError as err:
            raise SolverFailure(f"displacement eigensolve failed: {err}") from None
        _check_residual(A, M, lam, vecs, "displacement")
        record.update(branch="dense")
    else:
        try:
            lu = ops.K_ff_lu
        except RuntimeError as err:
            raise SolverFailure(f"displacement shift-invert factorization failed: {err}") from None
        OPinv = LinearOperator(A.shape, matvec=lu.solve, dtype=float)
        rng = np.random.default_rng(0)
        for solve in range(1, _SPARSE_TRIES + 1):
            try:
                lam, vecs = eigsh(A, k=nev, M=M, sigma=0.0, OPinv=OPinv,
                                  v0=rng.standard_normal(N), maxiter=_ARPACK_RESTARTS)
            except ArpackError as err:
                raise SolverFailure(f"displacement eigensolve failed: {err}") from None
            order = np.argsort(lam)
            lam, vecs = lam[order], vecs[:, order]
            gaps = np.flatnonzero(np.diff(lam[k - 1 :]) > _GROUP_GAP * np.abs(lam).max())
            if gaps.size == 0:  # the last kept group runs past the computed pairs
                nev = min(nev + _EXTRA_PAIRS, N - 1)
                continue
            j = k + int(gaps[0])
            sigma = 0.5 * (lam[j - 1] + lam[j])
            below = _negative_pivots(A - sigma * M)
            if below == j:
                break
            nev = min(max(nev, below or 0) + _EXTRA_PAIRS, N - 1)
        else:
            raise SolverFailure(
                "displacement eigensolve incomplete: no inertia count matched the computed "
                f"pairs after {_SPARSE_TRIES} solves"
            )
        lam, vecs = lam[:k], vecs[:, :k]
        _check_residual(A, M, lam, vecs, "displacement")
        record.update(branch="sparse", sigma=float(sigma), inertia=j, kept=k, solves=solve)
    W = np.zeros((k, ops.n_dofs))
    W[:, free] = vecs.T
    return _fix_signs(W), lam


def temperature_eigenbasis(ops: AssembledOperators, l: int, record: dict | None = None):
    """First l Neumann-Laplacian eigenpairs against the lumped mass, in closed form.

    The product modes diagonalize M_lumped^-1 K_theta (``mesh_fem.NeumannModes``).
    The l smallest are kept by a stable sort over the modes, numbered as the
    nodes are; node 0 holds each mode's largest entry, positive.  A residual
    test guards the premise.
    """
    n = ops.n_nodes
    if not (1 <= l <= n):
        raise BadConfig(f"l must be in [1, {n}], got {l}")
    modes = neumann_modes(ops.mesh)
    mu = modes.mu
    keep = np.argsort(mu, kind="stable")[:l]
    V = modes.transform((keep[:, None] == np.arange(n)).astype(float))
    V /= np.sqrt((V**2) @ ops.M_lumped)[:, None]
    _check_residual(ops.K_theta, sp.diags(ops.M_lumped), mu[keep], V.T, "temperature")
    if record is not None:
        record.update(branch="closed_form")
    return V, mu[keep]


@dataclass
class ComplementSpace:
    """Nodal strain space bookkeeping for the complement eigenproblem."""

    comp_basis: np.ndarray  # (6, m) orthonormal per-node tensor directions
    C: np.ndarray = field(repr=False)  # orthonormal constraint rows
    gram_D: sp.csr_matrix = field(repr=False)
    gram_s: sp.csr_matrix = field(repr=False)


def _node_tensor_basis(dim: int, space: str) -> np.ndarray:
    # plane strain keeps every diagonal slot; a shear slot a_ij needs j < dim
    shear = [np.eye(6)[:, slot] for slot, i, j in VOIGT_PAIRS if i != j and j < dim]
    if space == "deviatoric":
        diagonal = list(DEVIATORIC_BASIS[:, :2].T)  # the two traceless diagonals
    elif space == "full":
        diagonal = [np.eye(6)[:, slot] for slot, i, j in VOIGT_PAIRS if i == j]
    else:
        raise BadData(f"unknown strain space {space!r}")
    return np.stack(diagonal + shear, axis=1)


def _secular_signs(x, lam, cols) -> int:
    """#{F > 0} - len(F) for F = cols (lam - x)^-1 cols^T.  With #{lam < x} it counts the
    eigenvalues of diag(lam) on ker cols below x (Haynsworth's inertia additivity)."""
    return int(np.sum(np.linalg.eigvalsh((cols / (lam - x)) @ cols.T) > 0)) - len(cols)


def _kernel_eigenpairs(lam, cols, l: int):
    """The l lowest eigenpairs of diag(lam) on ker cols and the count at the gap after
    the last kept group.  Per group (values within _GROUP_GAP), in order: directions
    coupled below sqrt(eps) of the largest coupling are deflated (unit vectors
    orthogonalized against the rest), the count of roots at the group is its limit from
    either side, and each root below is bisected; its vectors are (lam - x)^-1 cols^T z."""
    srt = lam[order := np.argsort(lam, kind="stable")]
    starts = np.flatnonzero(np.r_[True, np.diff(srt) > _GROUP_GAP * srt[1:]])
    lam, cols, poles = lam.copy(), cols.copy(), np.ones(len(lam), dtype=int)
    lam[order] = np.repeat(srt[starts], np.diff(np.r_[starts, len(lam)]))  # a group ties exactly
    tol = np.sqrt(np.finfo(float).eps) * np.abs(cols).max()

    def bisect(lo, c_lo, hi, c_hi):
        if c_hi > c_lo and lo < (mid := 0.5 * (lo + hi)) < hi and hi - lo > 4e-16 * hi:
            c = min(max(np.sum(poles[lam < mid]) + _secular_signs(mid, lam, cols), c_lo), c_hi)
            bisect(lo, c_lo, mid, c)
            bisect(mid, c, hi, c_hi)
        elif c_hi > c_lo and poles[(lam == lo) | (lam == hi)].any():  # no division by the gap
            raise SolverFailure(f"complement eigenvalue within round-off of the pole {hi}")
        elif c_hi > c_lo and roots and lo - roots[-1][0] <= _GROUP_GAP * lo:
            roots[-1][1] += c_hi - c_lo
        elif c_hi > c_lo:
            roots.append([hi if lo in lam else lo, c_hi - c_lo])

    vals, vecs, pole, c_pole = [], [], srt[0] - 1.0, 0
    for s, e in zip(starts, np.r_[starts[1:], len(lam)]):
        idx, p = np.sort(order[s:e]), srt[s]
        U, sv, Vt = np.linalg.svd(cols[:, idx])
        r = int(np.sum(sv > tol))
        cols[:, idx] = cols[:, idx] @ Vt[:r].T @ Vt[:r]
        poles[idx] = np.arange(e - s) < r
        roots, rest = [], lam != p
        c_p = np.sum(poles[lam < p]) + _secular_signs(p, lam[rest], U[:, r:].T @ cols[:, rest])
        bisect(pole, c_pole, p, c_p)
        for x, mult in roots:
            w, z = np.linalg.eigh((cols / (lam - x)) @ cols.T)
            y = (cols.T @ z[:, np.argsort(np.abs(w))[:mult]]) / (lam - x)[:, None]
            vals, vecs = vals + [x] * mult, vecs + list(qr(y, mode="economic")[0].T)
        Q = qr(np.hstack([Vt[:r].T, np.eye(e - s)]))[0][:, r:]
        vals, vecs = vals + [p] * (e - s - r), vecs + [np.bincount(idx, q, len(lam)) for q in Q.T]
        pole, c_pole = p, c_p
        if (gaps := np.flatnonzero(np.diff(vals[l - 1 :]) > _GROUP_GAP * np.array(vals[l:]))).size:
            break
    j = l + int(gaps[0]) if gaps.size else len(vals)
    sigma = 0.5 * (vals[j - 1] + vals[j]) if gaps.size else np.inf
    if (inertia := int(np.sum(lam < sigma)) + _secular_signs(sigma, lam, cols)) != j:
        raise SolverFailure(f"complement eigensolve incomplete: count {inertia}, pairs {j}")
    return np.array(vals[:l]), np.array(vecs[:l]), inertia


def complement_strain_basis(
    ops: AssembledOperators, eps_w: np.ndarray, l: int, space: str = "deviatoric", record=None
):
    """Eigenbasis of the D-orthogonal complement of span{eps(w_n)}, given the
    (k, NQ, 6) strains eps_w of the displacement modes at the Gauss points.

    Returns (Z, lam_z, comp) with Z of shape (l, n_nodes * m) in node-major
    layout and lam_z ascending with lam_z >= 1.  As gram_D = M_theta x Dblk and
    gram_s = (M_theta + K_theta) x Dblk, a product mode times any eigenvector
    of Dblk has eigenvalue 1 + nu; the constraint rows cut this spectrum and a
    residual test guards the premise.  A cut group keeps its modes whatever l
    is; ``record`` receives how the pairs were found.
    """
    mesh = ops.mesh
    B = _node_tensor_basis(mesh.dim, space)
    n, m = ops.n_nodes, B.shape[1]
    ns = n * m

    gram_D, gram_s = ops.strain_gram(B)

    # constraint functionals (eps(w_n), .)_D on the nodal strain space, all k at once
    k = len(eps_w)
    wDB = ops.D.apply6(eps_w) @ B
    wDB *= ops.wq[:, None]
    C = (ops.P.T @ np.hstack(wDB)).reshape(n, k, m).swapaxes(0, 1).reshape(k, ns)
    # orthonormal rows with the same kernel: C C^T = I, and functionals that
    # are dependent on the nodal space are dropped rather than factored
    _, sv, Vt = np.linalg.svd(C, full_matrices=False)
    C = Vt[: int(np.sum(sv > sv[0] * max(C.shape) * np.finfo(float).eps))]

    if (nc := ns - len(C)) < 1 or l > nc:
        raise EmptyComplement(f"complement dimension {nc} cannot host {l} modes "
                              f"(strain dofs {ns}, k={k})")

    modes = neumann_modes(mesh)
    nu = np.sort([a / b for a, b in zip(modes.stiff, modes.mass)], axis=0).sum(axis=0)
    d, R = eigh(B.T @ ops.D.voigt @ B)
    # D-orthonormal modal dofs (mode, eigenvector of Dblk), node-major
    norm = np.prod([a * b for a, b in zip(modes.norm, modes.mass)], 0)  # M_theta-norms
    scale = 1.0 / np.sqrt(np.outer(norm, d)).ravel()
    modal = (modes.transform(C.reshape(-1, n, m)) @ R).reshape(-1, ns) * scale
    lam_z, Y, inertia = _kernel_eigenpairs(np.repeat(1.0 + nu, m), modal, l)
    X = modes.transform((Y * scale).reshape(l, n, m) @ R.T).reshape(l, ns)
    Z = np.linalg.solve(np.linalg.cholesky(X @ (gram_D @ X.T)), X)
    _check_residual(gram_s, gram_D, lam_z, Z.T, "complement", C)
    if record is not None:
        record.update(branch="closed_form", inertia=inertia, kept=l)
    return Z, lam_z, ComplementSpace(comp_basis=B, C=C, gram_D=gram_D, gram_s=gram_s)


@dataclass
class GalerkinBasis:
    """The assembled two-level basis with its eigenvalues and conventions.

    The Gauss-point tables ``eps_w``, ``zeta`` and ``v_quad``, the D-pairings
    ``E`` and ``gram_zeta``, and ``eigensolves`` are derived in ``build_basis``,
    the only maker of a basis; ``dump_basis`` writes none of them.
    """

    k: int
    l: int
    W: np.ndarray = field(repr=False)
    lam_w: np.ndarray = field(repr=False)
    eps_w: np.ndarray = field(repr=False)  # (k, NQ, 6): eps(w_n) at the Gauss points
    V: np.ndarray = field(repr=False)
    mu_v: np.ndarray = field(repr=False)
    Z: np.ndarray = field(repr=False)
    lam_z: np.ndarray = field(repr=False)
    comp: ComplementSpace = field(repr=False)
    zeta: np.ndarray = field(repr=False)  # (l, NQ, 6): zeta_m at the Gauss points
    v_quad: np.ndarray = field(repr=False)  # (l, NQ): v_m at the Gauss points
    E: np.ndarray = field(repr=False)  # (k, l): (eps(w_n), zeta_m)_D
    gram_zeta: np.ndarray = field(repr=False)  # (l, l): (zeta_m, zeta_n)_D
    mesh_hash: str
    space: str
    # per family, how its eigenpairs were found
    eigensolves: dict = field(repr=False)


def build_basis(ops: AssembledOperators, k: int, l: int, space: str = "deviatoric"):
    solves = {"displacement": {}, "temperature": {}, "complement": {}}
    W, lam_w = displacement_eigenbasis(ops, k, record=solves["displacement"])
    eps_w = np.stack([ops.strain_quad(w) for w in W])
    V, mu_v = temperature_eigenbasis(ops, l, record=solves["temperature"])
    Z, lam_z, comp = complement_strain_basis(ops, eps_w, l, space=space,
                                             record=solves["complement"])
    zeta, v_quad, E, gram_zeta = basis_fields(ops, eps_w, V, Z, comp.comp_basis)
    return GalerkinBasis(
        k=k,
        l=l,
        W=W,
        lam_w=lam_w,
        eps_w=eps_w,
        V=V,
        mu_v=mu_v,
        Z=Z,
        lam_z=lam_z,
        comp=comp,
        zeta=zeta,
        v_quad=v_quad,
        E=E,
        gram_zeta=gram_zeta,
        mesh_hash=ops.mesh.content_hash(),
        space=space,
        eigensolves=solves,
    )


def basis_fields(ops: AssembledOperators, eps_w, V, Z, comp_basis):
    """(zeta, v_quad, E, gram_zeta): the complement modes Z (node-major in the
    directions ``comp_basis``) and the temperature modes V at the Gauss points,
    and the D-pairings E = (eps(w_n), zeta_m)_D and (zeta_m, zeta_n)_D."""
    P, m = ops.P, comp_basis.shape[1]
    zeta = np.stack([(P @ z.reshape(-1, m)) @ comp_basis.T for z in Z])
    v_quad = np.stack([P @ v for v in V])
    wD_zeta = ops.D.apply6(zeta)  # the one weighted D zeta; it dies here
    wD_zeta *= ops.wq[:, None]
    l = len(Z)
    E = eps_w.reshape(len(eps_w), -1) @ wD_zeta.reshape(l, -1).T
    gram_zeta = np.array([zeta.reshape(l, -1) @ dz.ravel() for dz in wD_zeta])
    return zeta, v_quad, E, gram_zeta


def projection_norm_check(basis: GalerkinBasis, n_fields: int = 1000, seed: int = 0):
    """Non-expansiveness of the complement projector in the surrogate norm.

    Random fields are drawn from the discrete complement space, the domain on
    which the projector is defined; reports the worst norm ratio.
    """
    comp = basis.comp
    rng = np.random.default_rng(seed)
    C, S, G, Z = comp.C, comp.gram_s, comp.gram_D, basis.Z
    # C has orthonormal rows, so R - C^T (C C^T)^-1 C R is R - C^T C R
    phi = rng.standard_normal((C.shape[1], n_fields))
    phi -= C.T @ (C @ phi)
    coeff = Z @ (G @ phi)
    proj = Z.T @ coeff
    num = np.einsum("nf,nf->f", proj, S @ proj)
    den = np.einsum("nf,nf->f", phi, S @ phi)
    ratios = np.sqrt(num / den)
    return {
        "n_fields": int(n_fields),
        "modes_used": int(basis.l),
        "max_ratio": float(ratios.max()),
        "non_expansive": bool(ratios.max() <= 1.0 + 1e-10),
    }


def basis_invariant_report(ops: AssembledOperators, basis: GalerkinBasis) -> dict:
    """Every orthogonality contract the basis promises, checked on its Gauss-point
    tables and on the pairings ``basis.E`` and ``basis.gram_zeta`` the run reads,
    each error relative to its scale: the W Gram error to max lam_w,
    (zeta_m, eps(w_n))_D to |eps(w_n)|_D, mu_1 to max mu_v and v_1's spread to
    max|v_1|.  ``failed`` names the invariants that miss their bound."""
    k, l = basis.k, basis.l
    lam_w, mu_v, v1 = basis.lam_w, basis.mu_v, basis.V[0]
    gram_w = basis.W @ (ops.M_u @ basis.W.T)
    D_eps_w = ops.D.apply6(basis.eps_w).reshape(k, -1)  # a fresh table, weighted in place
    D_eps_w *= np.repeat(ops.wq, 6)
    gram_w_D = D_eps_w @ basis.eps_w.reshape(k, -1).T
    report = {
        "gram_W_L2_err": float(np.abs(gram_w - np.eye(k)).max()),
        "gram_W_D_err": float(np.abs(gram_w_D - np.diag(lam_w)).max() / lam_w.max()),
        "lam_w_min": float(lam_w[0]),
        "mu_1": float(abs(mu_v[0]) / (np.abs(mu_v).max() or 1.0)),
        "v1_const_err": float(np.abs(v1 - v1.mean()).max() / np.abs(v1).max()),
        "gram_Z_D_err": float(np.abs(basis.gram_zeta - np.eye(l)).max()),
        "cross_orth_err": float(np.abs(basis.E.T / np.sqrt(lam_w)).max()),
        "lam_z_min": float(basis.lam_z[0]),
        "lam_w_ascending": bool(np.all(np.diff(lam_w) >= 0)),
        "mu_v_ascending": bool(np.all(np.diff(mu_v) >= 0)),
        "lam_z_ascending": bool(np.all(np.diff(basis.lam_z) >= 0)),
    }
    bounds = {"gram_W_L2_err": 1e-10, "gram_W_D_err": 1e-12, "mu_1": 1e-14,
              "v1_const_err": 1e-10, "gram_Z_D_err": 1e-10, "cross_orth_err": 1e-12}
    ok = {name: report[name] <= bound for name, bound in bounds.items()}
    ok.update(lam_w_min=lam_w[0] > 0, lam_z_min=basis.lam_z[0] >= 1.0 - 1e-10)
    # the ascending flags are their own check
    report["failed"] = [name for name in report if not ok.get(name, report[name])]
    report["passed"] = not report["failed"]
    return report


def dump_basis(path, basis: GalerkinBasis) -> None:
    """Binary artifact with a header recording provenance and conventions."""
    meta = {
        "mesh_hash": basis.mesh_hash,
        "k": basis.k,
        "l": basis.l,
        "space": basis.space,
        "sign_convention": SIGN_CONVENTION,
        "version": __version__,
    }
    np.savez_compressed(
        path,
        W=basis.W,
        lam_w=basis.lam_w,
        V=basis.V,
        mu_v=basis.mu_v,
        Z=basis.Z,
        lam_z=basis.lam_z,
        comp_basis=basis.comp.comp_basis,
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
    )
