import numpy as np
import pytest
from scipy.linalg import eigh, null_space
from scipy.sparse.linalg import eigsh

import thermovisc.basis as basis_mod
from thermovisc.basis import (
    GalerkinBasis,
    basis_fields,
    basis_invariant_report,
    build_basis,
    complement_strain_basis,
    displacement_eigenbasis,
    dump_basis,
    load_basis,
    project_complement,
    projection_norm_check,
    temperature_eigenbasis,
)
from thermovisc.errors import BadConfig, BadData, EmptyComplement
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor, trace6

D = ElasticityTensor.isotropic(lam=1.0, mu=1.0)


@pytest.fixture(scope="module")
def ops():
    return assemble(build_mesh(2, (1.0, 1.0), (6, 6)), D)


@pytest.fixture(scope="module")
def basis(ops):
    return build_basis(ops, k=5, l=6)


def test_displacement_modes_orthonormal(ops, basis):
    gram = basis.W @ (ops.M_u @ basis.W.T)
    assert np.abs(gram - np.eye(basis.k)).max() <= 1e-10


def test_displacement_modes_D_orthogonal(ops, basis):
    f = basis_fields(ops, basis)
    gram = np.einsum("q,nqi,mqi->nm", ops.wq, f.D_eps_w, f.eps_w)
    assert np.abs(gram - np.diag(basis.lam_w)).max() <= 1e-9


def test_displacement_eigenvalues_positive_ascending(basis):
    assert basis.lam_w[0] > 0
    assert np.all(np.diff(basis.lam_w) >= -1e-12)


def test_displacement_modes_vanish_on_boundary(ops, basis):
    bmask = np.repeat(ops.mesh.boundary_mask, 2)
    assert np.abs(basis.W[:, bmask]).max() == 0.0


def test_displacement_precondition(ops):
    with pytest.raises(BadConfig):
        displacement_eigenbasis(ops, ops.interior_dofs.size + 1)


def test_eigenvalue_stability_under_basis_growth(ops):
    _, lam5 = displacement_eigenbasis(ops, 5)
    _, lam10 = displacement_eigenbasis(ops, 10)
    assert np.abs(lam10[:5] - lam5).max() <= 1e-9


def test_temperature_kernel(ops, basis):
    assert abs(basis.mu_v[0]) <= 1e-11
    v1 = basis.V[0]
    assert np.abs(v1 - v1.mean()).max() <= 1e-10
    # lumped-mass orthonormality
    gram = basis.V @ (ops.M_lumped[:, None] * basis.V.T)
    assert np.abs(gram - np.eye(basis.l)).max() <= 1e-10


def test_temperature_precondition(ops):
    with pytest.raises(BadConfig):
        temperature_eigenbasis(ops, ops.n_nodes + 1)


def test_neumann_eigenvalue_convergence():
    # separation-of-variables oracle: modes cos(pi a x) cos(pi b y) give
    # eigenvalues pi^2 (a^2 + b^2); the discrete spectrum starts
    # 0, pi^2, pi^2, 2 pi^2, 4 pi^2, ...
    mesh = assemble(build_mesh(2, (1.0, 1.0), (24, 24)), D)
    _, mu = temperature_eigenbasis(mesh, 6)
    exact = np.pi**2 * np.array([0.0, 1.0, 1.0, 2.0, 4.0, 4.0])
    assert abs(mu[0]) <= 1e-11
    assert np.all(np.abs(mu[1:] - exact[1:]) / exact[1:] <= 0.02)


def test_neumann_eigenvalue_anisotropic_box():
    # on [0, 2] x [0, 1] the lowest nonzero mode is cos(pi x / 2)
    mesh = assemble(build_mesh(2, (2.0, 1.0), (32, 16)), D)
    _, mu = temperature_eigenbasis(mesh, 3)
    assert abs(mu[1] - np.pi**2 / 4.0) / (np.pi**2 / 4.0) <= 0.02
    assert abs(mu[2] - np.pi**2) / np.pi**2 <= 0.02


def test_sparse_dense_eigensolvers_agree():
    ops_small = assemble(build_mesh(2, (1.0, 1.0), (10, 10)), D)
    v_dense, mu_dense = temperature_eigenbasis(ops_small, 5)
    import thermovisc.basis as basis_mod

    old = basis_mod.DENSE_CUTOFF
    basis_mod.DENSE_CUTOFF = 1
    try:
        v_sparse, mu_sparse = temperature_eigenbasis(ops_small, 5)
    finally:
        basis_mod.DENSE_CUTOFF = old
    assert np.abs(mu_dense - mu_sparse).max() <= 1e-8
    # mu_2 = mu_3 is degenerate on a square, so compare eigenspaces: the
    # sparse mode must lie in the span of the dense pair with unit M-norm
    coeffs = v_dense[1:3] @ (ops_small.M_lumped * v_sparse[1])
    assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-8)


def test_complement_orthogonality(ops, basis):
    f = basis_fields(ops, basis)
    cross = np.einsum("q,mqi,nqi->mn", ops.wq, f.D_zeta, f.eps_w)
    assert np.abs(cross).max() <= 1e-10


def test_complement_orthonormal_and_eigenvalues(ops, basis):
    f = basis_fields(ops, basis)
    gram = np.einsum("q,mqi,nqi->mn", ops.wq, f.D_zeta, f.zeta)
    assert np.abs(gram - np.eye(basis.l)).max() <= 1e-10
    assert basis.lam_z[0] >= 1.0 - 1e-10
    assert np.all(np.diff(basis.lam_z) >= -1e-12)


def test_complement_modes_traceless(ops, basis):
    f = basis_fields(ops, basis)
    assert np.abs(trace6(f.zeta)).max() <= 1e-12


def test_complement_empty(ops):
    W, _ = displacement_eigenbasis(ops, 2)
    with pytest.raises(EmptyComplement):
        complement_strain_basis(ops, W, l=10**6)


def test_project_complement_reproduces_mode(ops, basis):
    f = basis_fields(ops, basis)
    coeff = project_complement(ops, f, f.zeta[2])
    expect = np.zeros(basis.l)
    expect[2] = 1.0
    assert np.abs(coeff - expect).max() <= 1e-10


def test_project_complement_orthogonal_field(ops, basis):
    f = basis_fields(ops, basis)
    coeff = project_complement(ops, f, f.eps_w[0])
    assert np.abs(coeff).max() <= 1e-10


def test_projection_non_expansive(basis):
    rep = projection_norm_check(basis, n_fields=300, seed=1)
    assert rep["non_expansive"]
    assert rep["max_ratio"] <= 1.0 + 1e-10


def test_invariant_report(ops, basis):
    rep = basis_invariant_report(ops, basis)
    assert rep["passed"], rep


def test_deterministic_rebuild(ops):
    b1 = build_basis(ops, k=4, l=4)
    b2 = build_basis(ops, k=4, l=4)
    assert np.array_equal(b1.W, b2.W)
    assert np.array_equal(b1.V, b2.V)
    assert np.array_equal(b1.Z, b2.Z)


def test_dump_load_round_trip(tmp_path, ops, basis):
    path = tmp_path / "basis.npz"
    dump_basis(path, basis)
    loaded = load_basis(path, expected_mesh_hash=ops.mesh.content_hash())
    assert np.array_equal(loaded.W, basis.W)
    assert np.array_equal(loaded.Z, basis.Z)
    assert loaded.k == basis.k and loaded.l == basis.l
    with pytest.raises(BadData):
        load_basis(path, expected_mesh_hash="deadbeef")
    with pytest.raises(BadData):
        projection_norm_check(loaded)


def _dense_complement_oracle(ops, basis, n_pairs):
    """Nullspace of the constraint rows plus a dense generalized eigh."""
    f = basis_fields(ops, basis)
    B = basis.comp.comp_basis
    P = ops.scalar_interp_matrix()
    C = np.stack([(P.T @ (ops.wq[:, None] * (dw @ B))).ravel() for dw in f.D_eps_w])
    gram_D, gram_s = ops.strain_gram(B)
    N = null_space(C)
    lam, Y = eigh(N.T @ (gram_s @ N), N.T @ (gram_D @ N), subset_by_index=(0, n_pairs - 1))
    return lam, (N @ Y).T, gram_D


# (dim, cells, k, l, space, the l-cut splits a degenerate cluster)
ORACLE_CASES = [
    (2, 6, 5, 7, "deviatoric", False),
    (2, 6, 3, 4, "full", False),
    # constant deviatoric strains: lambda = 1 with multiplicity 5 in 3D
    (3, 3, 4, 5, "deviatoric", False),
    # the cut at 2 splits the lambda = 1 triple of plane strain
    (2, 6, 5, 2, "deviatoric", True),
    # the cut at 8 splits the twelvefold 6.4 cluster
    (3, 3, 4, 8, "deviatoric", True),
]


@pytest.mark.parametrize("dim, cells, k, l, space, splits", ORACLE_CASES)
def test_complement_matches_dense_oracle(dim, cells, k, l, space, splits):
    ops_c = assemble(build_mesh(dim, (1.0,) * dim, (cells,) * dim), D)
    b = build_basis(ops_c, k=k, l=l, space=space)
    lam_d, Z_d, gram_D = _dense_complement_oracle(ops_c, b, l + 16)
    assert np.abs(b.lam_z - lam_d[:l]).max() <= 1e-10
    if dim == 3:
        assert np.abs(b.lam_z[:5] - 1.0).max() <= 1e-10
    assert (lam_d[l] - lam_d[l - 1] <= 1e-8) == splits
    # every mode lies in the oracle eigenspace of its cluster; with no
    # cluster straddling the cut this makes the two spans equal
    for z, lam in zip(b.Z, b.lam_z):
        cluster = Z_d[np.abs(lam_d - lam) <= 1e-8]
        assert np.abs(lam_d[-1] - lam) > 1e-8, "oracle too short for the cluster"
        rest = z - cluster.T @ (cluster @ (gram_D @ z))
        assert np.sqrt(rest @ (gram_D @ rest)) <= 1e-8
    rep = basis_invariant_report(ops_c, b)
    assert rep["passed"], rep


def test_complement_past_old_dof_cap(monkeypatch):
    # 6075 strain dofs; the dense nullspace solver refused more than 6000.
    # W and V come from shift-invert eigsh to keep the dense displacement
    # solve out of the test.
    ops_c = assemble(build_mesh(2, (1.0, 1.0), (44, 44)), D)
    free = ops_c.interior_dofs
    kff = ops_c.K_D[free][:, free].tocsc()
    mff = ops_c.M_u[free][:, free].tocsc()
    lam_w, vecs = eigsh(kff, k=12, M=mff, sigma=0.0)
    order = np.argsort(lam_w)
    W = np.zeros((12, ops_c.n_dofs))
    W[:, free] = vecs[:, order].T
    monkeypatch.setattr(basis_mod, "DENSE_CUTOFF", 0)
    V, mu_v = temperature_eigenbasis(ops_c, 12)
    Z, lam_z, comp = complement_strain_basis(ops_c, W, 12)
    assert Z.shape == (12, 6075)
    b = GalerkinBasis(
        k=12, l=12, W=W, lam_w=lam_w[order], V=V, mu_v=mu_v, Z=Z, lam_z=lam_z, comp=comp
    )
    rep = basis_invariant_report(ops_c, b)
    assert rep["passed"], rep
    assert projection_norm_check(b, n_fields=200, seed=3)["non_expansive"]


def test_full_space_variant(ops):
    b = build_basis(ops, k=3, l=4, space="full")
    rep = basis_invariant_report(ops, b)
    assert rep["passed"], rep
