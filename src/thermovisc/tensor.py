"""Algebra for symmetric 3x3 tensors and the linear elasticity map.

Tensors are stored as weighted Voigt 6-vectors

    [a11, a22, a33, sqrt(2)*a12, sqrt(2)*a13, sqrt(2)*a23]

so the ordinary dot product of two Voigt vectors equals the tensor double
contraction A:B and the Euclidean norm equals the Frobenius norm.  All Gram
matrices and norms built downstream inherit this property, which is what
makes the modal projections exact without extra bookkeeping.

2D (plane strain) fields simply carry zeros in the out-of-plane shear slots;
the algebra is identical in 2D and 3D.

The step needs only stress deviators, which ``deviator_frame`` expresses in
m orthonormal coordinates (m = 3 in plane strain with isotropic D, 5 in 3D).
The frame is orthonormal, so dot products and norms of the coordinates equal
those of the Voigt deviators, and ``dot6`` and ``norm6`` serve both.
"""

from __future__ import annotations

import numpy as np

from .errors import BadData

SQRT2 = float(np.sqrt(2.0))

#: unit vector along the identity direction in weighted Voigt coordinates
VOIGT_TRACE = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

#: (slot, i, j): the Voigt slot of the tensor entry a_ij, i <= j
VOIGT_PAIRS = ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 1), (4, 0, 2), (5, 1, 2))

_S2, _S6 = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)

#: orthonormal columns (6, 5) spanning the deviatoric tensors: two traceless
#: diagonals (each sums to zero exactly) and the three shear slots
DEVIATORIC_BASIS = np.array([
    [_S2, _S6, 0.0, 0.0, 0.0],
    [-_S2, _S6, 0.0, 0.0, 0.0],
    [0.0, -2.0 * _S6, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0],
])

#: singular values of dev(D S) below this share of the largest leave the frame
FRAME_RANK_RTOL = 1e-12

#: largest part of a stress direction that a deviator frame may leave out,
#: relative to the largest entry of D (``frame_loss``)
FRAME_RTOL = 1e-10


# ---------------------------------------------------------------------------
# array helpers on (..., 6) weighted-Voigt arrays; norm6 and dot6 also take
# the step's (..., m) frame coordinates
# ---------------------------------------------------------------------------

def trace6(v: np.ndarray) -> np.ndarray:
    """Trace of tensors stored as (..., 6) Voigt arrays."""
    v = np.asarray(v)
    return v[..., 0] + v[..., 1] + v[..., 2]


def dev6(v: np.ndarray) -> np.ndarray:
    """Deviatoric part of (..., 6) Voigt arrays."""
    v = np.array(v, dtype=float)
    m = trace6(v) / 3.0
    v[..., 0] -= m
    v[..., 1] -= m
    v[..., 2] -= m
    return v


def norm6(v: np.ndarray) -> np.ndarray:
    """Frobenius norm of (..., 6) Voigt arrays or of (..., m) frame coordinates."""
    v = np.asarray(v)
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def dot6(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Double contraction A:B of (..., 6) Voigt arrays or of (..., m) frame coordinates."""
    return np.einsum("...i,...i->...", np.asarray(a), np.asarray(b))


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
        return cls(2.0 * mu * np.eye(6) + lam * np.outer(VOIGT_TRACE, VOIGT_TRACE))

    def apply6(self, v: np.ndarray) -> np.ndarray:
        """Apply D to (..., 6) Voigt arrays."""
        return np.asarray(v) @ self.voigt.T

    def inner6(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise D-weighted contraction (D a):b for (..., 6) arrays."""
        return dot6(self.apply6(a), b)


def strain_slots(dim: int) -> list:
    """Voigt slots a strain field of a ``dim``-dimensional mesh occupies: every
    diagonal slot (plane strain keeps a33 for the inelastic strain) and the
    shear slots a_ij with j < dim."""
    return [slot for slot, i, j in VOIGT_PAIRS if i == j or j < dim]


def deviator_frame(D: ElasticityTensor, dim: int) -> np.ndarray:
    """Orthonormal columns Q (6, m) spanning dev(D e) over the strain slots e of
    a ``dim``-dimensional mesh.

    Every stress deviator the step forms is such a dev(D e), so it equals
    (X Q) Q^T, and X Q = dev(X) Q holds for any X because Q is traceless.
    Q = DEVIATORIC_BASIS U, with U the left singular vectors of the deviatoric
    coordinates of D over the slots whose singular values exceed
    ``FRAME_RANK_RTOL`` of the largest: m = 3 in plane strain with isotropic
    D, 5 in 3D, and up to 4 in plane strain when D couples the strain slots
    into an out-of-plane shear.
    """
    coords = DEVIATORIC_BASIS.T @ D.voigt[:, strain_slots(dim)]
    U, s, _ = np.linalg.svd(coords)
    return DEVIATORIC_BASIS @ U[:, : int(np.count_nonzero(s > FRAME_RANK_RTOL * s[0]))]


def frame_loss(D: ElasticityTensor, dim: int, Q: np.ndarray) -> float:
    """Largest entry of dev(D e) - dev(D e) Q Q^T over the strain slots e of a
    ``dim``-dimensional mesh, relative to max |D|.  Every table the step reads
    in the frame Q is D applied to strains on these slots."""
    X = dev6(D.voigt[:, strain_slots(dim)].T)
    return float(np.abs(X - X @ Q @ Q.T).max() / np.abs(D.voigt).max())
