"""Algebra for symmetric 3x3 tensors and the linear elasticity map.

Tensors are stored as weighted Voigt 6-vectors

    [a11, a22, a33, sqrt(2)*a12, sqrt(2)*a13, sqrt(2)*a23]

so the ordinary dot product of two Voigt vectors equals the tensor double
contraction A:B and the Euclidean norm equals the Frobenius norm.  All Gram
matrices and norms built downstream inherit this property, which is what
makes the modal projections exact without extra bookkeeping.

2D (plane strain) fields simply carry zeros in the out-of-plane shear slots;
the algebra is identical in 2D and 3D.
"""

from __future__ import annotations

import numpy as np

from .errors import BadData

SQRT2 = float(np.sqrt(2.0))

#: unit vector along the identity direction in weighted Voigt coordinates
VOIGT_TRACE = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

#: (slot, i, j): the Voigt slot of the tensor entry a_ij, i <= j
VOIGT_PAIRS = ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 1), (4, 0, 2), (5, 1, 2))


# ---------------------------------------------------------------------------
# array helpers: the hot paths work on (..., 6) weighted-Voigt arrays
# ---------------------------------------------------------------------------

def trace6(v: np.ndarray) -> np.ndarray:
    """Trace of tensors stored as (..., 6) Voigt arrays."""
    v = np.asarray(v)
    return v[..., 0] + v[..., 1] + v[..., 2]


def dev6(v: np.ndarray) -> np.ndarray:
    """Deviatoric part of (..., 6) Voigt arrays."""
    v = np.asarray(v, dtype=float)
    out = v.copy()
    m = trace6(v) / 3.0
    out[..., 0] -= m
    out[..., 1] -= m
    out[..., 2] -= m
    return out


def norm6(v: np.ndarray) -> np.ndarray:
    """Frobenius norm of (..., 6) Voigt arrays."""
    v = np.asarray(v)
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def dot6(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Double contraction A:B of (..., 6) Voigt arrays."""
    return np.einsum("...i,...i->...", np.asarray(a), np.asarray(b))


def voigt_to_matrix(v: np.ndarray) -> np.ndarray:
    """(..., 6) Voigt arrays as (..., 3, 3) symmetric matrices."""
    v = np.asarray(v, dtype=float)
    s = 1.0 / SQRT2
    a11, a22, a33 = v[..., 0], v[..., 1], v[..., 2]
    a12, a13, a23 = s * v[..., 3], s * v[..., 4], s * v[..., 5]
    rows = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


# ---------------------------------------------------------------------------
# elasticity map D
# ---------------------------------------------------------------------------

class ElasticityTensor:
    """Linear map on S^3 with minor/major symmetries, stored as a 6x6 matrix.

    The matrix acts on weighted Voigt vectors, so symmetry of the matrix is
    exactly the major symmetry of the four-index operator and its smallest
    eigenvalue is the definiteness constant c0 in (D xi):xi >= c0 |xi|^2.
    """

    def __init__(self, voigt_matrix: np.ndarray):
        m = np.asarray(voigt_matrix, dtype=float)
        if m.shape != (6, 6):
            raise BadData(f"elasticity matrix must be 6x6, got {m.shape}")
        if not np.isfinite(m).all():
            raise BadData("elasticity matrix has non-finite entries")
        asym = float(np.abs(m - m.T).max())
        if asym > 1e-12 * max(1.0, float(np.abs(m).max())):
            raise BadData(f"elasticity matrix asymmetry {asym:.3e} too large")
        self.voigt = 0.5 * (m + m.T)
        eigvals = np.linalg.eigvalsh(self.voigt)
        if eigvals[0] <= 0.0:
            raise BadData(f"elasticity matrix not positive definite (min eig {eigvals[0]:.3e})")
        self.c0 = float(eigvals[0])

    @classmethod
    def isotropic(cls, lam: float, mu: float) -> "ElasticityTensor":
        """Isotropic D with Lame parameters: D e = 2 mu e + lam tr(e) I."""
        if not (mu > 0.0 and lam >= 0.0):
            raise BadData(f"need mu > 0 and lam >= 0, got mu={mu}, lam={lam}")
        m = 2.0 * mu * np.eye(6) + lam * np.outer(VOIGT_TRACE, VOIGT_TRACE)
        out = cls(m)
        out.lam = float(lam)
        out.mu = float(mu)
        return out

    def apply6(self, v: np.ndarray) -> np.ndarray:
        """Apply D to (..., 6) Voigt arrays."""
        return np.asarray(v) @ self.voigt.T

    def inner6(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise D-weighted contraction (D a):b for (..., 6) arrays."""
        return dot6(self.apply6(a), b)
