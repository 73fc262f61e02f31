import itertools

import numpy as np
import pytest

from thermovisc import mesh_fem
from thermovisc.basis import build_basis
from thermovisc.constitutive import Mroz
from thermovisc.errors import BadConfig, DimensionMismatch
from thermovisc.evolution import ModalSystem
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor

from helpers import boundary_measure, voigt_to_matrix

D = ElasticityTensor.isotropic(lam=1.0, mu=1.0)


@pytest.fixture(scope="module")
def ops2d():
    return assemble(build_mesh(2, (1.0, 1.0), (4, 3)), D)


@pytest.fixture(scope="module")
def ops3d():
    return assemble(build_mesh(3, (1.0, 2.0, 0.5), (2, 3, 2)), D)


def test_node_counts():
    assert build_mesh(2, (1.0, 1.0), (2, 2)).n_nodes == 9
    assert build_mesh(3, (1.0, 1.0, 1.0), (1, 1, 1)).n_nodes == 8
    m = build_mesh(2, (2.0, 1.0), (5, 4))
    assert m.n_nodes == 6 * 5
    assert m.n_cells == 20
    assert m.conn.shape == (20, 4)
    assert m.conn.min() >= 0 and m.conn.max() < m.n_nodes


def test_bad_config():
    with pytest.raises(BadConfig):
        build_mesh(2, (1.0, 1.0), (0, 2))
    with pytest.raises(BadConfig):
        build_mesh(2, (-1.0, 1.0), (2, 2))
    with pytest.raises(BadConfig):
        build_mesh(4, (1.0,) * 4, (1,) * 4)


def test_mesh_deterministic():
    a = build_mesh(2, (1.0, 1.0), (3, 3))
    b = build_mesh(2, (1.0, 1.0), (3, 3))
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.conn, b.conn)
    assert a.content_hash() == b.content_hash()


def test_boundary_classification():
    m = build_mesh(2, (1.0, 1.0), (3, 3))
    # faces cover exactly the geometric boundary
    assert m.boundary_mask.sum() == 4 * 3
    union = np.zeros(m.n_nodes, dtype=bool)
    for mask in m.boundary_faces.values():
        union |= mask
    assert np.array_equal(union, m.boundary_mask)
    corners = m.boundary_faces["x_min"] & m.boundary_faces["y_min"]
    assert corners.sum() == 1


def test_conn_numbering():
    # x fastest for nodes and cells; corners counterclockwise, bottom layer first
    assert build_mesh(2, (2.0, 1.0), (2, 1)).conn.tolist() == [[0, 1, 4, 3], [1, 2, 5, 4]]
    assert build_mesh(3, (1.0,) * 3, (1, 1, 1)).conn.tolist() == [[0, 1, 3, 2, 4, 5, 7, 6]]


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
CORNERS = {2: SQUARE, 3: [c + [0] for c in SQUARE] + [c + [1] for c in SQUARE]}
ANISOTROPIC = [
    ((1.0, 2.0), (3, 5)),
    ((1.0, 2.0, 0.5), (2, 3, 2)),
    ((0.7, 1.3, 2.1), (4, 1, 3)),
]


@pytest.mark.parametrize("extents, cells", ANISOTROPIC)
def test_conn_corner_geometry(extents, cells):
    m = build_mesh(len(cells), extents, cells)
    offsets = m.nodes[m.conn] - m.nodes[m.conn[:, :1]]
    expect = np.asarray(CORNERS[m.dim]) * np.asarray(m.spacing)
    assert np.allclose(offsets, expect[None], rtol=0.0, atol=1e-14)


def _boundary_moment(extents, a, b):
    """Exact integral of x_a x_b over the boundary of [0, L_1] x .. x [0, L_d]."""
    total = 0.0
    for c in range(len(extents)):
        area = np.prod([L for t, L in enumerate(extents) if t != c])
        for end in (0.0, extents[c]):
            # mean over the face x_c = end of x_a x_b (tangential x_t is uniform)
            if a == b:
                mean = end**2 if a == c else extents[a] ** 2 / 3.0
            else:
                mean = np.prod([end if t == c else extents[t] / 2.0 for t in (a, b)])
            total += area * mean
    return total


@pytest.mark.parametrize("extents, cells", ANISOTROPIC)
def test_boundary_mass_second_moments(extents, cells):
    # the Q1 face mass integrates products of the (linear) coordinates exactly
    ops = assemble(build_mesh(len(cells), extents, cells), D)
    X = ops.mesh.nodes
    for a in range(ops.mesh.dim):
        for b in range(ops.mesh.dim):
            assert X[:, a] @ (ops.B_boundary @ X[:, b]) == pytest.approx(
                _boundary_moment(extents, a, b), rel=1e-13
            )


@pytest.mark.parametrize("fix", ["ops2d", "ops3d"])
def test_matrix_symmetry(fix, request):
    ops = request.getfixturevalue(fix)
    for mat in (ops.M_theta, ops.K_theta, ops.K_D, ops.M_u, ops.B_boundary):
        assert abs(mat - mat.T).max() <= 1e-12


@pytest.mark.parametrize("fix", ["ops2d", "ops3d"])
def test_laplace_kernel_and_mass(fix, request):
    ops = request.getfixturevalue(fix)
    ones = np.ones(ops.n_nodes)
    assert np.abs(ops.K_theta @ ones).max() <= 1e-12
    assert ops.M_theta.sum() == pytest.approx(ops.mesh.volume, rel=1e-12)
    assert ops.M_lumped.sum() == pytest.approx(ops.mesh.volume, rel=1e-12)
    assert np.all(ops.M_lumped > 0)


@pytest.mark.parametrize("fix", ["ops2d", "ops3d"])
def test_boundary_mass_total(fix, request):
    ops = request.getfixturevalue(fix)
    ones = np.ones(ops.n_nodes)
    assert ones @ (ops.B_boundary @ ones) == pytest.approx(
        boundary_measure(ops.mesh), rel=1e-12
    )


def test_dirichlet_stiffness_definite(ops2d):
    free = ops2d.interior_dofs
    kff = ops2d.K_D[free][:, free].toarray()
    w = np.linalg.eigvalsh(kff)
    assert w[0] > 1e-8


def test_korn_surrogate_under_refinement():
    # smallest constrained generalized eigenvalue stays bounded away from 0
    lams = []
    for cells in (4, 8):
        ops = assemble(build_mesh(2, (1.0, 1.0), (cells, cells)), D)
        free = ops.interior_dofs
        kff = ops.K_D[free][:, free].toarray()
        mff = ops.M_u[free][:, free].toarray()
        from scipy.linalg import eigh

        lam = eigh(kff, mff, eigvals_only=True, subset_by_index=(0, 0))[0]
        lams.append(lam)
    # mesh-independent lower bound; the discrete values drift only mildly
    assert min(lams) > 30.0
    assert max(lams) / min(lams) < 1.15


def test_stiffness_matches_quadrature_form(ops2d):
    # discrete integration by parts: u^T K_D v equals the assembled bilinear
    # form evaluated by quadrature on the strain fields
    rng = np.random.default_rng(0)
    u = rng.standard_normal(ops2d.n_dofs)
    v = rng.standard_normal(ops2d.n_dofs)
    lhs = u @ (ops2d.K_D @ v)
    eu = ops2d.strain_quad(u)
    ev = ops2d.strain_quad(v)
    assert lhs == pytest.approx(ops2d.inner_D_quad(eu, ev), rel=1e-12, abs=1e-12)


def test_vector_mass_matches_quadrature(ops2d):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(ops2d.n_dofs)
    uq = np.stack(
        [ops2d.scalar_quad(u.reshape(-1, 2)[:, c]) for c in range(2)], axis=1
    )
    assert u @ (ops2d.M_u @ u) == pytest.approx(
        ops2d.integrate(np.einsum("qc,qc->q", uq, uq)), rel=1e-12
    )


def test_strain_quad_affine_exact(ops2d):
    # affine displacement -> constant strain, reproduced exactly
    A = np.array([[0.3, 0.1], [0.1, -0.2]])
    u = (ops2d.mesh.nodes @ A.T).ravel()
    eq = ops2d.strain_quad(u)
    expect = np.array([0.3, -0.2, 0.0, 0.2 / np.sqrt(2.0), 0.0, 0.0])
    assert np.max(np.abs(eq - expect)) <= 1e-13


@pytest.mark.parametrize("fix", ["ops2d", "ops3d"])
def test_strain_quad_matches_the_corner_sum(fix, request):
    # the one-product gradient against the gradient summed corner by corner
    ops = request.getfixturevalue(fix)
    dim, conn = ops.mesh.dim, ops.mesh.conn
    u = np.random.default_rng(2).standard_normal(ops.n_dofs)
    grad = np.einsum("qja,eac->eqjc", ops.dNdx_ref, u.reshape(-1, dim)[conn]).reshape(-1, dim, dim)
    sym = voigt_to_matrix(ops.strain_quad(u))
    assert np.abs(sym[:, :dim, :dim] - (grad + grad.transpose(0, 2, 1)) / 2).max() <= (
        1e-14 * np.abs(grad).max()
    )
    assert not sym[:, dim:, :].any() and not sym[:, :, dim:].any()


def test_scalar_quad_partition_of_unity(ops3d):
    ones = np.ones(ops3d.n_nodes)
    assert np.allclose(ops3d.scalar_quad(ones), 1.0, atol=1e-13)
    assert ops3d.integrate(ops3d.scalar_quad(ones)) == pytest.approx(
        ops3d.mesh.volume, rel=1e-12
    )


def test_interp_matrix_matches_direct(ops2d, ops3d):
    # Q1 interpolation reproduces a multilinear field, so P maps its nodal
    # values to its values at the Gauss points, placed here from the cell
    # corners and the 1D rule (first local axis slowest)
    rng = np.random.default_rng(2)
    for ops in (ops2d, ops3d):
        mesh = ops.mesh
        a, b = rng.standard_normal((2, mesh.dim))
        gauss = (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0)) / 2.0
        local = np.array(list(itertools.product(gauss, repeat=mesh.dim))) * mesh.spacing
        xq = (mesh.nodes[mesh.conn[:, 0]][:, None, :] + local).reshape(-1, mesh.dim)
        f = np.prod(a + b * mesh.nodes, axis=1)
        assert np.abs(ops.P @ f - np.prod(a + b * xq, axis=1)).max() <= 1e-13 * np.abs(f).max()
        # scalar_quad is that matrix, bit for bit
        f = rng.standard_normal(ops.n_nodes)
        assert np.array_equal(ops.scalar_quad(f), ops.P @ f)


def test_a_failed_stiffness_factor_is_not_cached(monkeypatch):
    ops = assemble(build_mesh(2, (1.0, 1.0), (3, 3)), D)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(mesh_fem, "splu", singular)
    with pytest.raises(RuntimeError, match="singular"):
        ops.K_ff_lu
    monkeypatch.undo()
    lu = ops.K_ff_lu
    assert ops.K_ff_lu is lu
    free = ops.interior_dofs
    x = np.arange(1.0, free.size + 1)
    assert np.abs(ops.K_D[free][:, free] @ lu.solve(x) - x).max() <= 1e-12 * x.max()


# -- projections -------------------------------------------------------------
# The (.,.)_D Galerkin projection of an inelastic strain field onto the modal
# strain families {eps(w_n)} and {zeta_i} is the one initialize performs,
# ModalSystem.project.


@pytest.fixture(scope="module")
def system2d(ops2d):
    return ModalSystem(ops2d, build_basis(ops2d, k=3, l=2), Mroz.constant(1.0))


def test_project_field_in_span(system2d):
    c, d = np.array([0.5, -1.0, 2.0]), np.array([0.3, -0.7])
    gamma, delta = system2d.project(system2d.epsp_quad(c, d))
    assert np.allclose(gamma, c, atol=1e-10)
    assert np.allclose(delta, d, atol=1e-10)


def test_project_zero_and_idempotent(system2d):
    nq = system2d.ops.wq.size
    gamma, delta = system2d.project(np.zeros((nq, 6)))
    assert np.allclose(gamma, 0.0, atol=1e-14) and np.allclose(delta, 0.0, atol=1e-14)
    rng = np.random.default_rng(4)
    g1, d1 = system2d.project(rng.standard_normal((nq, 6)))
    g2, d2 = system2d.project(system2d.epsp_quad(g1, d1))
    assert np.allclose(g1, g2, atol=1e-10)
    assert np.allclose(d1, d2, atol=1e-10)


def test_scalar_quad_dimension_mismatch(ops2d):
    with pytest.raises(DimensionMismatch):
        ops2d.scalar_quad(np.zeros(ops2d.n_nodes + 1))
