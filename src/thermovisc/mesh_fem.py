"""Structured box meshes, first-order elements, and assembled operators.

Domains are axis-aligned boxes meshed with uniform Q1 quads (2D, plane
strain) or hexes (3D); one code path serves d = 2 and 3.  Node (i_1, .., i_d)
has id i_1 + (n_1+1) (i_2 + (n_2+1) i_3), so the first axis is fastest, and
cells are numbered the same way.  A cell lists its corners in ``_CORNERS``
order: counterclockwise in the x-y plane, and in 3D the z = 0 layer before
the z = 1 layer.  Tensor-product 2-point Gauss quadrature is exact for every
polynomial integrand these elements produce, so the assembled bilinear
forms and all quadrature sums downstream are exact discrete inner products.
The boundary mass is the exact Q1 mass of the (d-1)-dimensional boundary
faces (edges in 2D, quads in 3D).  In 2D the tensor algebra stays three
dimensional: in-plane displacement gradients occupy the (11, 22, 12) slots
and the 33 slot is populated by the elasticity map and the inelastic strain
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from itertools import combinations
from math import prod

import numpy as np
import scipy.sparse as sp

from .errors import BadConfig, DimensionMismatch
from .tensor import SQRT2, VOIGT_PAIRS, ElasticityTensor

_GAUSS1D = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))

_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]  # counterclockwise

#: corner offsets of the reference cell of each dimension, in local node order
_CORNERS = {
    1: np.array([[0], [1]]),
    2: np.array(_SQUARE),
    3: np.array([corner + [z] for z in (0, 1) for corner in _SQUARE]),
}


def _node_strides(cells) -> np.ndarray:
    """Id step of one node along each axis of a grid of ``cells`` cells."""
    return np.cumprod((1,) + tuple(c + 1 for c in cells[:-1]))


def _grid_elements(cells, strides) -> np.ndarray:
    """Node ids (n_cells, 2**d) of the cells of a structured grid.

    ``cells[a]`` cells lie along axis a, and a step along that axis moves
    ``strides[a]`` ids in the node numbering.  Cells come first axis fastest,
    each with its corners in ``_CORNERS`` order.
    """
    index = np.meshgrid(*[np.arange(c) for c in cells], indexing="ij")
    first = sum(s * i.ravel(order="F") for s, i in zip(strides, index))
    return first[:, None] + _CORNERS[len(cells)] @ np.asarray(strides)


@dataclass(frozen=True)
class BoxMesh:
    """Uniform tensor-product mesh on [0, Lx] x [0, Ly] (x [0, Lz])."""

    dim: int
    extents: tuple
    cells: tuple
    nodes: np.ndarray = field(repr=False)
    conn: np.ndarray = field(repr=False)
    boundary_faces: dict = field(repr=False)
    boundary_mask: np.ndarray = field(repr=False)
    spacing: tuple

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.conn.shape[0]

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    @property
    def boundary_measure(self) -> float:
        # the faces come in pairs, one pair per choice of dim - 1 axes
        return 2.0 * sum(prod(axes) for axes in combinations(self.extents, self.dim - 1))

    def content_hash(self) -> str:
        key = f"dim={self.dim};extents={tuple(self.extents)};cells={tuple(self.cells)}"
        return sha256(key.encode()).hexdigest()[:16]


def build_mesh(dim: int, extents, cells) -> BoxMesh:
    """Deterministic structured mesh; same arguments give identical arrays."""
    if dim not in (2, 3):
        raise BadConfig(f"dimension must be 2 or 3, got {dim}")
    extents = tuple(float(e) for e in extents)
    cells = tuple(int(c) for c in cells)
    if len(extents) != dim or len(cells) != dim:
        raise BadConfig(f"extents/cells must have length {dim}")
    if any(e <= 0 for e in extents):
        raise BadConfig(f"extents must be positive, got {extents}")
    if any(c < 1 for c in cells):
        raise BadConfig(f"need at least one cell per axis, got {cells}")

    axes = [np.linspace(0.0, extents[a], cells[a] + 1) for a in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel(order="F") for g in grids], axis=1)
    conn = _grid_elements(cells, _node_strides(cells))

    names = ["x_min", "x_max", "y_min", "y_max", "z_min", "z_max"][: 2 * dim]
    faces = {}
    for a in range(dim):
        lo = np.isclose(nodes[:, a], 0.0)
        hi = np.isclose(nodes[:, a], extents[a])
        faces[names[2 * a]] = lo
        faces[names[2 * a + 1]] = hi
    boundary = np.zeros(nodes.shape[0], dtype=bool)
    for m in faces.values():
        boundary |= m

    spacing = tuple(extents[a] / cells[a] for a in range(dim))
    return BoxMesh(
        dim=dim,
        extents=extents,
        cells=cells,
        nodes=nodes,
        conn=conn,
        boundary_faces=faces,
        boundary_mask=boundary,
        spacing=spacing,
    )


def _reference_element(dim: int):
    """Shape values and reference gradients at the Gauss points."""
    signs = 2.0 * _CORNERS[dim] - 1.0
    pts = np.array(np.meshgrid(*([_GAUSS1D] * dim), indexing="ij")).reshape(dim, -1).T
    nnc = signs.shape[0]
    nqc = pts.shape[0]
    N = np.empty((nqc, nnc))
    dN = np.empty((nqc, dim, nnc))
    for q in range(nqc):
        for a in range(nnc):
            terms = (1.0 + signs[a] * pts[q]) / 2.0
            N[q, a] = np.prod(terms)
            for j in range(dim):
                others = np.prod(np.delete(terms, j))
                dN[q, j, a] = (signs[a, j] / 2.0) * others
    return N, dN


class AssembledOperators:
    """Mass/stiffness operators plus quadrature interpolation machinery.

    The temperature mass is kept in both consistent and lumped form; the
    evolution and all temperature diagnostics use the lumped one (positivity
    of the discrete heat update), the consistent one is exposed for checks.
    """

    def __init__(self, mesh: BoxMesh, D: ElasticityTensor):
        self.mesh = mesh
        self.D = D
        dim = mesh.dim
        nnc = mesh.conn.shape[1]
        N_ref, dN_ref = _reference_element(dim)
        h = np.asarray(mesh.spacing)
        detJ = float(np.prod(h / 2.0))
        # physical-gradient tables; uniform cells share them
        self.N_ref = N_ref
        self.dNdx_ref = dN_ref * (2.0 / h)[None, :, None]
        self.nqc = N_ref.shape[0]
        nq_total = mesh.n_cells * self.nqc
        self.wq = np.full(nq_total, detJ)

        n = mesh.n_nodes
        me = detJ * np.einsum("qa,qb->ab", N_ref, N_ref)
        ke = detJ * np.einsum("qja,qjb->ab", self.dNdx_ref, self.dNdx_ref)

        rows = np.repeat(mesh.conn, nnc, axis=1).ravel()
        cols = np.tile(mesh.conn, (1, nnc)).ravel()
        self.M_theta = sp.coo_matrix(
            (np.tile(me.ravel(), mesh.n_cells), (rows, cols)), shape=(n, n)
        ).tocsr()
        self.K_theta = sp.coo_matrix(
            (np.tile(ke.ravel(), mesh.n_cells), (rows, cols)), shape=(n, n)
        ).tocsr()
        self.M_lumped = np.asarray(self.M_theta.sum(axis=1)).ravel()

        # elasticity: B maps cell displacement dofs (node-major) to Voigt strain
        B = np.zeros((self.nqc, 6, nnc, dim))
        g = self.dNdx_ref
        s = 1.0 / SQRT2
        for slot, i, j in VOIGT_PAIRS:
            if j < dim:
                B[:, slot, :, i] = g[:, i] if i == j else s * g[:, j]
                B[:, slot, :, j] = g[:, j] if i == j else s * g[:, i]
        B = B.reshape(self.nqc, 6, nnc * dim)
        kde = detJ * np.einsum("qia,ij,qjb->ab", B, D.voigt, B)
        dof_conn = (mesh.conn[:, :, None] * dim + np.arange(dim)[None, None, :]).reshape(
            mesh.n_cells, nnc * dim
        )
        drows = np.repeat(dof_conn, nnc * dim, axis=1).ravel()
        dcols = np.tile(dof_conn, (1, nnc * dim)).ravel()
        ndof = n * dim
        self.K_D = sp.coo_matrix(
            (np.tile(kde.ravel(), mesh.n_cells), (drows, dcols)), shape=(ndof, ndof)
        ).tocsr()
        self.M_u = sp.kron(self.M_theta, sp.eye(dim), format="csr")

        self.B_boundary = self._assemble_boundary_mass()

        interior_nodes = np.nonzero(mesh.interior_mask)[0]
        self.interior_dofs = (interior_nodes[:, None] * dim + np.arange(dim)).ravel()
        self.n_nodes = n
        self.n_dofs = ndof

    # -- boundary -----------------------------------------------------------

    def _assemble_boundary_mass(self) -> sp.csr_matrix:
        """Exact Q1 mass of the boundary faces, taken for each axis at its low
        then its high end.  This face order fixes the summation order where
        faces share a node, and so the bits of the matrix."""
        mesh = self.mesh
        dim = mesh.dim
        strides = _node_strides(mesh.cells)
        corners = _CORNERS[dim - 1]
        # the 1D Q1 mass is h [[2, 1], [1, 2]] / 6; a face's is its tensor product
        ref = np.prod(1 + (corners[:, None] == corners[None, :]), axis=2) / 6.0 ** (dim - 1)
        rows, cols, vals = [], [], []
        for a in range(dim):
            tangential = [b for b in range(dim) if b != a]
            h = np.prod([mesh.spacing[b] for b in tangential])
            for end in (0, mesh.cells[a]):
                elems = end * strides[a] + _grid_elements(
                    [mesh.cells[b] for b in tangential], strides[tangential]
                )
                nn = elems.shape[1]
                rows.append(np.repeat(elems, nn, axis=1).ravel())
                cols.append(np.tile(elems, (1, nn)).ravel())
                vals.append(np.tile((h * ref).ravel(), elems.shape[0]))
        n = mesh.n_nodes
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        ).tocsr()

    # -- quadrature interpolation --------------------------------------------

    def scalar_quad(self, values: np.ndarray) -> np.ndarray:
        """Interpolate a nodal scalar field to the Gauss points, (NQ,)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_nodes,):
            raise DimensionMismatch(f"expected ({self.n_nodes},), got {values.shape}")
        return (values[self.mesh.conn] @ self.N_ref.T).ravel()

    def strain_quad(self, u_flat: np.ndarray) -> np.ndarray:
        """Symmetric displacement gradient at Gauss points in Voigt form."""
        dim = self.mesh.dim
        u = np.asarray(u_flat, dtype=float).reshape(self.n_nodes, dim)
        grad = np.einsum("qja,eac->eqjc", self.dNdx_ref, u[self.mesh.conn])
        nq = grad.shape[0] * grad.shape[1]
        g = grad.reshape(nq, dim, dim)
        out = np.zeros((nq, 6))
        for slot, i, j in VOIGT_PAIRS:
            if j < dim:
                out[:, slot] = g[:, i, i] if i == j else (g[:, i, j] + g[:, j, i]) / SQRT2
        return out

    def scalar_interp_matrix(self) -> sp.csr_matrix:
        """Sparse node-to-quadrature interpolation operator, (NQ, n)."""
        nqc = self.nqc
        ncell = self.mesh.n_cells
        rows = np.repeat(np.arange(ncell * nqc), self.mesh.conn.shape[1])
        cols = np.repeat(self.mesh.conn, nqc, axis=0).ravel()
        data = np.tile(self.N_ref, (ncell, 1)).ravel()
        return sp.coo_matrix((data, (rows, cols)), shape=(ncell * nqc, self.n_nodes)).tocsr()

    # -- integrals -----------------------------------------------------------

    def strain_gram(self, comp_basis: np.ndarray):
        """Gram matrices of the nodal strain space spanned by the per-node
        tensor directions ``comp_basis`` (6, m): the (.,.)_D inner product and
        the H1-type smoothness product (D part plus componentwise gradients).
        Node-major dof layout, component fastest."""
        B = np.asarray(comp_basis, dtype=float)
        dblk = B.T @ self.D.voigt @ B
        gram_D = sp.kron(self.M_theta, dblk, format="csr")
        gram_s = gram_D + sp.kron(self.K_theta, np.eye(B.shape[1]), format="csr")
        return gram_D, gram_s

    def integrate(self, fq: np.ndarray) -> float:
        return float(np.dot(self.wq, np.asarray(fq)))

    def inner_D_quad(self, a_q: np.ndarray, b_q: np.ndarray) -> float:
        """(a, b)_D = integral of (D a):b over the domain."""
        return float(self.wq @ self.D.inner6(a_q, b_q))


def assemble(mesh: BoxMesh, D: ElasticityTensor) -> AssembledOperators:
    """Assemble every operator the bases and the evolution need."""
    return AssembledOperators(mesh, D)
