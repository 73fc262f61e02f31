"""Helpers shared by the tests; the package itself never needs them."""

from itertools import combinations
from math import prod

import numpy as np

from thermovisc.evolution import SimState
from thermovisc.tensor import SQRT2


def make_state(t, gamma, delta, beta, y_quad=None) -> SimState:
    """A state from raw coefficient vectors."""
    return SimState(
        t=float(t),
        beta=np.array(beta, dtype=float),
        gamma=np.array(gamma, dtype=float),
        delta=np.array(delta, dtype=float),
        y_quad=y_quad,
    )


def boundary_measure(mesh) -> float:
    """Measure of a box mesh's boundary: its faces come in pairs, one pair per
    choice of dim - 1 axes."""
    return 2.0 * sum(prod(axes) for axes in combinations(mesh.extents, mesh.dim - 1))


def voigt_to_matrix(v: np.ndarray) -> np.ndarray:
    """(..., 6) Voigt arrays as (..., 3, 3) symmetric matrices."""
    v = np.asarray(v, dtype=float)
    s = 1.0 / SQRT2
    a11, a22, a33 = v[..., 0], v[..., 1], v[..., 2]
    a12, a13, a23 = s * v[..., 3], s * v[..., 4], s * v[..., 5]
    rows = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def mode_strains(ops, W) -> np.ndarray:
    """eps(w_n) of the displacement modes W at the Gauss points, (k, NQ, 6)."""
    return np.stack([ops.strain_quad(w) for w in W])
