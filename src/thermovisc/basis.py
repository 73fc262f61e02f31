"""The three Galerkin families of the two-level approximation.

* displacement modes w_n: generalized eigenpairs of the elasticity operator
  on the Dirichlet-constrained space, L2-orthonormal, D-orthogonal with
  (eps(w_i), eps(w_j))_D = lambda_i delta_ij;
* temperature modes v_m: eigenpairs of the Neumann Laplacian against the
  lumped mass, with the constant mode first (mu_1 = 0);
* complement strain modes zeta_m: eigenpairs of a smoothness inner product
  against (.,.)_D on the D-orthogonal complement of span{eps(w_1..k)} inside
  the nodal strain space, D-orthonormal with eigenvalues >= 1.

The complement is never given a basis.  Its eigenpairs come from block
inverse iteration with a Rayleigh-Ritz step, where each inverse is the
saddle-point solve of <x, .>_s = <b, .> under the k constraint functionals
(eps(w_n), .)_D = 0, done with one sparse factorization of the smoothness
Gram matrix and a k x k Schur complement.  Every iterate lies in the
complement, so (zeta_m, eps(w_n))_D = 0 holds to round-off; the invariant
report checks it as ``cross_orth_err``.  The cost is a few dozen sparse
solves with a small block, with no dense object of the strain-space size.
The smoothness product is the H1-type surrogate
<a,b>_s = (a,b)_D + (grad a, grad b), which makes every eigenvalue equal to
1 + a nonnegative Rayleigh quotient.

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
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.sparse.linalg import ArpackError, eigsh, splu

from . import __version__
from .errors import BadConfig, BadData, EmptyComplement, SolverFailure
from .mesh_fem import AssembledOperators
from .tensor import VOIGT_PAIRS

#: node counts up to which the temperature eigenproblem is solved densely
DENSE_CUTOFF = 2600

SIGN_CONVENTION = "first entry with |v| > 1e-8 max|v| is positive"

_EIG_TOL = 1e-10

#: sweeps of the complement block iteration before it reports failure
COMPLEMENT_MAX_SWEEPS = 300

#: relative residual at which the complement block iteration stops
_SWEEP_TOL = 1e-12


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    out = modes.copy()
    for i in range(out.shape[0]):
        v = out[i]
        big = np.abs(v) > 1e-8 * np.abs(v).max()
        first = np.argmax(big)
        if v[first] < 0:
            out[i] = -v
    return out


def displacement_eigenbasis(ops: AssembledOperators, k: int):
    """First k eigenpairs of K_D w = lambda M_u w on the interior dofs."""
    free = ops.interior_dofs
    if not (1 <= k <= free.size):
        raise BadConfig(f"k must be in [1, {free.size}], got {k}")
    kff = ops.K_D[free][:, free].toarray()
    mff = ops.M_u[free][:, free].toarray()
    try:
        lam, vecs = eigh(kff, mff, subset_by_index=(0, k - 1))
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"displacement eigensolve failed: {err}") from None
    res = np.linalg.norm(kff @ vecs - mff @ vecs * lam[None, :], axis=0)
    res /= np.linalg.norm(vecs, axis=0)
    if np.any(res > _EIG_TOL):
        raise SolverFailure(f"displacement eigensolve residual {res.max():.3e} > {_EIG_TOL}")
    W = np.zeros((k, ops.n_dofs))
    W[:, free] = vecs.T
    return _fix_signs(W), lam


def temperature_eigenbasis(ops: AssembledOperators, l: int):
    """First l Neumann-Laplacian eigenpairs against the lumped mass."""
    n = ops.n_nodes
    if not (1 <= l <= n):
        raise BadConfig(f"l must be in [1, {n}], got {l}")
    s = 1.0 / np.sqrt(ops.M_lumped)
    A = sp.diags(s) @ ops.K_theta @ sp.diags(s)
    try:
        if n <= DENSE_CUTOFF:
            mu, Y = eigh(A.toarray(), subset_by_index=(0, l - 1))
        else:
            v0 = np.full(n, 1.0 / np.sqrt(n))
            mu, Y = eigsh((A + sp.eye(n)).tocsc(), k=l, sigma=0.0, which="LM", v0=v0)
            mu -= 1.0
            order = np.argsort(mu)
            mu, Y = mu[order], Y[:, order]
    except (np.linalg.LinAlgError, ArpackError) as err:
        raise SolverFailure(f"temperature eigensolve failed: {err}") from None
    V = (Y * s[:, None]).T
    res = np.linalg.norm(
        (ops.K_theta @ V.T) - (ops.M_lumped[:, None] * V.T) * mu[None, :], axis=0
    ) / np.linalg.norm(V.T, axis=0)
    if np.any(res > _EIG_TOL):
        raise SolverFailure(f"temperature eigensolve residual {res.max():.3e} > {_EIG_TOL}")
    return _fix_signs(V), mu


@dataclass
class ComplementSpace:
    """Nodal strain space bookkeeping for the complement eigenproblem."""

    comp_basis: np.ndarray  # (6, m) orthonormal per-node tensor directions
    C: np.ndarray | None = field(default=None, repr=False)  # orthonormal constraint rows
    gram_D: sp.csr_matrix | None = field(default=None, repr=False)
    gram_s: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.comp_basis.shape[1]


def _node_tensor_basis(dim: int, space: str) -> np.ndarray:
    # plane strain keeps every diagonal slot; a shear slot a_ij needs j < dim
    shear = [np.eye(6)[:, slot] for slot, i, j in VOIGT_PAIRS if i != j and j < dim]
    s2, s6 = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)
    if space == "deviatoric":
        diagonal = [
            np.array([s2, -s2, 0.0, 0.0, 0.0, 0.0]),
            np.array([s6, s6, -2.0 * s6, 0.0, 0.0, 0.0]),
        ]
    elif space == "full":
        diagonal = [np.eye(6)[:, slot] for slot, i, j in VOIGT_PAIRS if i == j]
    else:
        raise ValueError(f"unknown strain space {space!r}")
    return np.stack(diagonal + shear, axis=1)


def complement_strain_basis(
    ops: AssembledOperators, W: np.ndarray, l: int, space: str = "deviatoric"
):
    """Eigenbasis of the D-orthogonal complement of span{eps(w_n)}.

    Returns (Z, lam_z, comp) with Z of shape (l, n_nodes * m) in node-major
    layout and lam_z ascending with lam_z >= 1.  The iteration starts from a
    fixed seed, so a rebuild is bitwise identical.  Within a degenerate
    eigenvalue group the vectors are an arbitrary orthonormal basis.
    """
    k = W.shape[0]
    mesh = ops.mesh
    B = _node_tensor_basis(mesh.dim, space)
    m = B.shape[1]
    n = ops.n_nodes
    ns = n * m

    gram_D, gram_s = ops.strain_gram(B)

    # constraint functionals (eps(w_n), .)_D on the nodal strain space
    P = ops.scalar_interp_matrix()
    C = np.empty((k, ns))
    for i in range(k):
        dw = ops.D.apply6(ops.strain_quad(W[i]))
        C[i] = (P.T @ (ops.wq[:, None] * (dw @ B))).ravel()
    # orthonormal rows with the same kernel: C C^T = I, and functionals that
    # are dependent on the nodal space are dropped rather than factored
    _, sv, Vt = np.linalg.svd(C, full_matrices=False)
    C = Vt[: int(np.sum(sv > sv[0] * max(C.shape) * np.finfo(float).eps))]

    nc = ns - C.shape[0]
    if nc < 1 or l > nc:
        raise EmptyComplement(
            f"complement dimension {nc} cannot host {l} modes (strain dofs {ns}, k={k})"
        )

    # gram_s is SPD: symmetric ordering without pivoting, as for a Cholesky
    try:
        lu = splu(
            gram_s.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:
        raise SolverFailure(f"complement strain Gram factorization failed: {err}") from None
    SC = lu.solve(C.T)
    try:
        schur = cho_factor(C @ SC)
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"complement constraint Schur factorization failed: {err}") from None

    def constrained_solve(rhs):
        # saddle-point solve of gram_s x = rhs + C^T mu, C x = 0
        y = lu.solve(rhs)
        return y - SC @ cho_solve(schur, C @ y)

    nb = min(l + max(l, 8), nc)
    X = constrained_solve(np.random.default_rng(0).standard_normal((ns, nb)))
    GX = gram_D @ X
    for sweep in range(1, COMPLEMENT_MAX_SWEEPS + 1):
        Y = constrained_solve(GX)
        GY = gram_D @ Y
        SY = gram_s @ Y
        try:
            lam, Q = eigh(Y.T @ SY, Y.T @ GY)
        except np.linalg.LinAlgError as err:
            raise SolverFailure(
                f"complement Rayleigh-Ritz eigensolve failed in sweep {sweep}: {err}"
            ) from None
        X, GX = Y @ Q, GY @ Q
        # residual of the first l Ritz pairs, tested inside the complement
        lam_z = lam[:l]
        R = SY @ Q[:, :l] - GX[:, :l] * lam_z[None, :]
        R -= C.T @ (C @ R)
        res = np.linalg.norm(R, axis=0) / np.linalg.norm(X[:, :l], axis=0)
        if res.max() <= _SWEEP_TOL:
            break
    if np.any(res > _EIG_TOL):
        raise SolverFailure(
            f"complement eigensolve residual {res.max():.3e} > {_EIG_TOL} "
            f"after {sweep} sweeps"
        )
    if lam_z[0] < 1.0 - 1e-10:
        raise SolverFailure(f"complement eigenvalue {lam_z[0]} below 1")
    comp = ComplementSpace(comp_basis=B, C=C, gram_D=gram_D, gram_s=gram_s)
    return _fix_signs(X[:, :l].T), lam_z, comp


@dataclass
class GalerkinBasis:
    """The assembled two-level basis with its eigenvalues and conventions."""

    k: int
    l: int
    W: np.ndarray = field(repr=False)
    lam_w: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    mu_v: np.ndarray = field(repr=False)
    Z: np.ndarray = field(repr=False)
    lam_z: np.ndarray = field(repr=False)
    comp: ComplementSpace = field(repr=False)
    mesh_hash: str = ""
    space: str = "deviatoric"
    sign_convention: str = SIGN_CONVENTION


def build_basis(ops: AssembledOperators, k: int, l: int, space: str = "deviatoric"):
    W, lam_w = displacement_eigenbasis(ops, k)
    V, mu_v = temperature_eigenbasis(ops, l)
    Z, lam_z, comp = complement_strain_basis(ops, W, l, space=space)
    return GalerkinBasis(
        k=k,
        l=l,
        W=W,
        lam_w=lam_w,
        V=V,
        mu_v=mu_v,
        Z=Z,
        lam_z=lam_z,
        comp=comp,
        mesh_hash=ops.mesh.content_hash(),
        space=space,
    )


@dataclass
class BasisFields:
    """Basis functions evaluated at the Gauss points."""

    eps_w: np.ndarray  # (k, NQ, 6)
    D_eps_w: np.ndarray
    zeta: np.ndarray  # (l, NQ, 6)
    D_zeta: np.ndarray
    v_quad: np.ndarray  # (l, NQ)
    v_nodal: np.ndarray  # (l, n)


def basis_fields(ops: AssembledOperators, basis: GalerkinBasis) -> BasisFields:
    eps_w = np.stack([ops.strain_quad(w) for w in basis.W])
    P = ops.scalar_interp_matrix()
    B = basis.comp.comp_basis
    m = B.shape[1]
    zeta = np.stack([(P @ z.reshape(-1, m)) @ B.T for z in basis.Z])
    v_quad = np.stack([P @ v for v in basis.V])
    return BasisFields(
        eps_w=eps_w,
        D_eps_w=ops.D.apply6(eps_w),
        zeta=zeta,
        D_zeta=ops.D.apply6(zeta),
        v_quad=v_quad,
        v_nodal=basis.V,
    )


def project_complement(ops: AssembledOperators, fields: BasisFields, field_quad: np.ndarray):
    """Coefficients (field, zeta_i)_D of a quadrature strain field."""
    return np.einsum("q,qi,mqi->m", ops.wq, np.asarray(field_quad), fields.D_zeta)


def projection_norm_check(basis: GalerkinBasis, n_fields: int = 1000, seed: int = 0, n_use=None):
    """Non-expansiveness of the complement projector in the surrogate norm.

    Random fields are drawn from the discrete complement space, the domain on
    which the projector is defined; reports the worst norm ratio.
    """
    comp = basis.comp
    if comp.C is None:
        raise BadData("basis was loaded without its complement space; rebuild to check")
    rng = np.random.default_rng(seed)
    C, S, G = comp.C, comp.gram_s, comp.gram_D
    n_use = basis.l if n_use is None else int(n_use)
    Zu = basis.Z[:n_use]
    # C has orthonormal rows, so R - C^T (C C^T)^-1 C R is R - C^T C R
    phi = rng.standard_normal((C.shape[1], n_fields))
    phi -= C.T @ (C @ phi)
    coeff = Zu @ (G @ phi)
    proj = Zu.T @ coeff
    num = np.einsum("nf,nf->f", proj, S @ proj)
    den = np.einsum("nf,nf->f", phi, S @ phi)
    ratios = np.sqrt(num / den)
    return {
        "n_fields": int(n_fields),
        "modes_used": int(n_use),
        "max_ratio": float(ratios.max()),
        "non_expansive": bool(ratios.max() <= 1.0 + 1e-10),
    }


def basis_invariant_report(ops: AssembledOperators, basis: GalerkinBasis) -> dict:
    """Numerical check of every orthogonality contract the basis promises."""
    f = basis_fields(ops, basis)
    k, l = basis.k, basis.l
    gram_w = basis.W @ (ops.M_u @ basis.W.T)
    gram_w_D = np.einsum("q,nqi,mqi->nm", ops.wq, f.D_eps_w, f.eps_w)
    gram_z = np.einsum("q,nqi,mqi->nm", ops.wq, f.D_zeta, f.zeta)
    cross = np.einsum("q,nqi,mqi->nm", ops.wq, f.D_zeta, f.eps_w)
    v1 = basis.V[0]
    report = {
        "gram_W_L2_err": float(np.abs(gram_w - np.eye(k)).max()),
        "gram_W_D_err": float(np.abs(gram_w_D - np.diag(basis.lam_w)).max()),
        "lam_w_min": float(basis.lam_w[0]),
        "mu_1": float(basis.mu_v[0]),
        "v1_const_err": float(np.abs(v1 - v1.mean()).max()),
        "gram_Z_D_err": float(np.abs(gram_z - np.eye(l)).max()),
        "cross_orth_err": float(np.abs(cross).max()),
        "lam_z_min": float(basis.lam_z[0]),
        "lam_w_ascending": bool(np.all(np.diff(basis.lam_w) >= -1e-12)),
        "mu_v_ascending": bool(np.all(np.diff(basis.mu_v) >= -1e-12)),
        "lam_z_ascending": bool(np.all(np.diff(basis.lam_z) >= -1e-12)),
    }
    report["passed"] = bool(
        report["gram_W_L2_err"] <= 1e-10
        and report["gram_W_D_err"] <= 1e-9
        and report["lam_w_min"] > 0
        and abs(report["mu_1"]) <= 1e-11
        and report["v1_const_err"] <= 1e-10
        and report["gram_Z_D_err"] <= 1e-10
        and report["cross_orth_err"] <= 1e-10
        and report["lam_z_min"] >= 1.0 - 1e-10
        and report["lam_w_ascending"]
        and report["mu_v_ascending"]
        and report["lam_z_ascending"]
    )
    return report


def dump_basis(path, basis: GalerkinBasis) -> None:
    """Binary artifact with a header recording provenance and conventions."""
    meta = {
        "mesh_hash": basis.mesh_hash,
        "k": basis.k,
        "l": basis.l,
        "space": basis.space,
        "sign_convention": basis.sign_convention,
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


def load_basis(path, expected_mesh_hash: str | None = None) -> GalerkinBasis:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if expected_mesh_hash is not None and meta["mesh_hash"] != expected_mesh_hash:
            raise BadData(
                f"basis was built for mesh {meta['mesh_hash']}, expected {expected_mesh_hash}"
            )
        comp = ComplementSpace(comp_basis=data["comp_basis"])
        return GalerkinBasis(
            k=int(meta["k"]),
            l=int(meta["l"]),
            W=data["W"],
            lam_w=data["lam_w"],
            V=data["V"],
            mu_v=data["mu_v"],
            Z=data["Z"],
            lam_z=data["lam_z"],
            comp=comp,
            mesh_hash=meta["mesh_hash"],
            space=meta["space"],
            sign_convention=meta["sign_convention"],
        )
