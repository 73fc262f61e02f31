"""Structured box meshes, first-order elements, and assembled operators.

Domains are axis-aligned boxes meshed with uniform Q1 quads (2D, plane
strain) or hexes (3D).  Tensor-product 2-point Gauss quadrature is exact
for every polynomial integrand these elements produce, so the assembled
bilinear forms and all quadrature sums downstream are exact discrete inner
products.  In 2D the tensor algebra stays three dimensional: in-plane
displacement gradients occupy the (11, 22, 12) slots and the 33 slot is
populated by the elasticity map and the inelastic strain only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256

import numpy as np
import scipy.sparse as sp

from .errors import BadConfig, DimensionMismatch
from .tensor import SQRT2, ElasticityTensor

_GAUSS1D = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))


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
        if self.dim == 2:
            lx, ly = self.extents
            return 2.0 * (lx + ly)
        lx, ly, lz = self.extents
        return 2.0 * (lx * ly + lx * lz + ly * lz)

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
    shape = tuple(c + 1 for c in cells)
    grids = np.meshgrid(*axes, indexing="ij")
    # node id = i + (nx+1) * (j + (ny+1) * k): x index fastest
    nodes = np.stack([g.ravel(order="F") for g in grids], axis=1)

    def nid(idx):
        out = idx[0]
        stride = shape[0]
        for a in range(1, dim):
            out = out + stride * idx[a]
            stride *= shape[a]
        return out

    if dim == 2:
        nx, ny = cells
        i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        i = i.ravel(order="F")
        j = j.ravel(order="F")
        conn = np.stack(
            [nid((i, j)), nid((i + 1, j)), nid((i + 1, j + 1)), nid((i, j + 1))], axis=1
        )
    else:
        nx, ny, nz = cells
        i, j, k = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        i = i.ravel(order="F")
        j = j.ravel(order="F")
        k = k.ravel(order="F")
        conn = np.stack(
            [
                nid((i, j, k)),
                nid((i + 1, j, k)),
                nid((i + 1, j + 1, k)),
                nid((i, j + 1, k)),
                nid((i, j, k + 1)),
                nid((i + 1, j, k + 1)),
                nid((i + 1, j + 1, k + 1)),
                nid((i, j + 1, k + 1)),
            ],
            axis=1,
        )

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
    """Corner signs, Gauss points, shape values and reference gradients."""
    if dim == 2:
        signs = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    else:
        signs = np.array(
            [
                [-1, -1, -1],
                [1, -1, -1],
                [1, 1, -1],
                [-1, 1, -1],
                [-1, -1, 1],
                [1, -1, 1],
                [1, 1, 1],
                [-1, 1, 1],
            ],
            dtype=float,
        )
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
    return signs, pts, N, dN


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
        _, qref, N_ref, dN_ref = _reference_element(dim)
        h = np.asarray(mesh.spacing)
        detJ = float(np.prod(h / 2.0))
        # physical-gradient tables; uniform cells share them
        self.N_ref = N_ref
        self.dNdx_ref = dN_ref * (2.0 / h)[None, :, None]
        self.nqc = N_ref.shape[0]
        nq_total = mesh.n_cells * self.nqc
        self.wq = np.full(nq_total, detJ)
        # global quadrature coordinates
        xq = np.einsum("qa,ead->eqd", N_ref, mesh.nodes[mesh.conn])
        self.qpoints = xq.reshape(nq_total, dim)

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
        B = np.zeros((self.nqc, 6, nnc * dim))
        s = 1.0 / SQRT2
        for q in range(self.nqc):
            g = self.dNdx_ref[q]
            for a in range(nnc):
                B[q, 0, a * dim + 0] = g[0, a]
                B[q, 1, a * dim + 1] = g[1, a]
                B[q, 3, a * dim + 0] = s * g[1, a]
                B[q, 3, a * dim + 1] = s * g[0, a]
                if dim == 3:
                    B[q, 2, a * dim + 2] = g[2, a]
                    B[q, 4, a * dim + 0] = s * g[2, a]
                    B[q, 4, a * dim + 2] = s * g[0, a]
                    B[q, 5, a * dim + 1] = s * g[2, a]
                    B[q, 5, a * dim + 2] = s * g[1, a]
        self._B_ref = B
        kde = detJ * np.einsum("qia,ij,qjb->ab", B, D.voigt, B)
        dof_conn = (mesh.conn[:, :, None] * dim + np.arange(dim)[None, None, :]).reshape(
            mesh.n_cells, nnc * dim
        )
        self.dof_conn = dof_conn
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
        mesh = self.mesh
        n = mesh.n_nodes
        rows, cols, vals = [], [], []

        def add(elem_nodes, me):
            nn = elem_nodes.shape[1]
            r = np.repeat(elem_nodes, nn, axis=1).ravel()
            c = np.tile(elem_nodes, (1, nn)).ravel()
            rows.append(r)
            cols.append(c)
            vals.append(np.tile(me.ravel(), elem_nodes.shape[0]))

        shape = tuple(c + 1 for c in mesh.cells)

        def nid(idx):
            out = idx[0]
            stride = shape[0]
            for a in range(1, mesh.dim):
                out = out + stride * idx[a]
                stride *= shape[a]
            return out

        if mesh.dim == 2:
            nx, ny = mesh.cells
            hx, hy = mesh.spacing
            seg = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
            i = np.arange(nx)
            for j, hname in ((0, "y_min"), (ny, "y_max")):
                e = np.stack([nid((i, np.full_like(i, j))), nid((i + 1, np.full_like(i, j)))], 1)
                add(e, hx * seg)
            j = np.arange(ny)
            for i0 in (0, nx):
                e = np.stack([nid((np.full_like(j, i0), j)), nid((np.full_like(j, i0), j + 1))], 1)
                add(e, hy * seg)
        else:
            nx, ny, nz = mesh.cells
            hx, hy, hz = mesh.spacing
            quad = (
                np.array(
                    [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
                )
                / 36.0
            )

            def face(fixed_axis, fixed_val, ua, ub, na, nb, ha, hb):
                ia, ib = np.meshgrid(np.arange(na), np.arange(nb), indexing="ij")
                ia = ia.ravel()
                ib = ib.ravel()

                def build(da, db):
                    idx = [None] * 3
                    idx[fixed_axis] = np.full_like(ia, fixed_val)
                    idx[ua] = ia + da
                    idx[ub] = ib + db
                    return nid(tuple(idx))

                e = np.stack([build(0, 0), build(1, 0), build(1, 1), build(0, 1)], 1)
                add(e, ha * hb * quad)

            face(0, 0, 1, 2, ny, nz, hy, hz)
            face(0, nx, 1, 2, ny, nz, hy, hz)
            face(1, 0, 0, 2, nx, nz, hx, hz)
            face(1, ny, 0, 2, nx, nz, hx, hz)
            face(2, 0, 0, 1, nx, ny, hx, hy)
            face(2, nz, 0, 1, nx, ny, hx, hy)

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

    def scalar_grad_quad(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        out = np.einsum("qja,ea->eqj", self.dNdx_ref, values[self.mesh.conn])
        return out.reshape(-1, self.mesh.dim)

    def strain_quad(self, u_flat: np.ndarray) -> np.ndarray:
        """Symmetric displacement gradient at Gauss points in Voigt form."""
        dim = self.mesh.dim
        u = np.asarray(u_flat, dtype=float).reshape(self.n_nodes, dim)
        grad = np.einsum("qja,eac->eqjc", self.dNdx_ref, u[self.mesh.conn])
        nq = grad.shape[0] * grad.shape[1]
        g = grad.reshape(nq, dim, dim)
        out = np.zeros((nq, 6))
        out[:, 0] = g[:, 0, 0]
        out[:, 1] = g[:, 1, 1]
        out[:, 3] = (g[:, 0, 1] + g[:, 1, 0]) / SQRT2
        if dim == 3:
            out[:, 2] = g[:, 2, 2]
            out[:, 4] = (g[:, 0, 2] + g[:, 2, 0]) / SQRT2
            out[:, 5] = (g[:, 1, 2] + g[:, 2, 1]) / SQRT2
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
