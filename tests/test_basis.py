import json

import numpy as np
import pytest
from scipy.linalg import eigh, null_space

import thermovisc.basis as basis_mod
import thermovisc.mesh_fem as mesh_fem_mod
from thermovisc import __version__
from thermovisc.basis import (
    basis_invariant_report,
    build_basis,
    complement_strain_basis,
    displacement_eigenbasis,
    dump_basis,
    projection_norm_check,
    temperature_eigenbasis,
)
from thermovisc.constitutive import Mroz
from thermovisc.errors import BadConfig, EmptyComplement, SolverFailure
from thermovisc.evolution import ModalSystem
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import ElasticityTensor, trace6

from helpers import mode_strains

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
    gram = np.einsum("q,nqi,mqi->nm", ops.wq, ops.D.apply6(basis.eps_w), basis.eps_w)
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


def test_displacement_residual_check_refuses_nan_eigenvectors(monkeypatch):
    # the residual guard passes only a backward error within tolerance, never a NaN
    real = basis_mod.eigh

    def nan_eigh(*args, **kwargs):
        lam, vecs = real(*args, **kwargs)
        vecs[:, 0] = np.nan
        return lam, vecs

    monkeypatch.setattr(basis_mod, "eigh", nan_eigh)
    ops = assemble(build_mesh(2, (1.0, 1.0), (3, 3)), D)
    with pytest.raises(SolverFailure, match="displacement eigensolve residual nan"):
        basis_mod.displacement_eigenbasis(ops, 2)


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


def _modes_in_dense_eigenspaces(vals, modes, dense_vals, dense_modes, M):
    # each mode lies in the eigenspace of its dense cluster with unit M-norm;
    # the dense solve has more pairs, so a cluster cut at the end is whole
    assert np.abs(dense_vals[-1] - vals[-1]) > 1e-8 * dense_vals[-1]
    for v, lam in zip(modes, vals):
        cluster = dense_modes[np.abs(dense_vals - lam) <= 1e-8 * dense_vals[-1]]
        coeffs = cluster @ (M @ v)
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-8)


# (dim, extents, cells, l); l = 10 cuts a pair at 2D 8^2 and l = 12 a
# sixfold group at 3D 7^3
TEMPERATURE_CASES = [
    (2, (1.0, 1.0), (8, 8), 10),
    (2, (2.0, 0.5), (12, 5), 10),
    (3, (1.0, 1.0, 1.0), (7, 7, 7), 12),
    (3, (1.0, 1.0, 1.0), (3, 4, 5), 12),
]


@pytest.mark.parametrize(
    "dim, extents, cells, l", TEMPERATURE_CASES, ids=["2d_8x8", "2d_12x5", "3d_7x7x7", "3d_3x4x5"]
)
def test_temperature_closed_form_matches_dense_oracle(dim, extents, cells, l):
    ops_t = assemble(build_mesh(dim, extents, cells), D)
    record = {}
    V, mu = temperature_eigenbasis(ops_t, l, record=record)
    assert record == {"branch": "closed_form"}
    M = np.diag(ops_t.M_lumped)
    mu_dense, V_dense = eigh(ops_t.K_theta.toarray(), M)
    assert np.abs(mu - mu_dense[:l]).max() <= 1e-12 * mu_dense[-1]
    _modes_in_dense_eigenspaces(mu, V, mu_dense, V_dense.T, M)
    assert np.abs(V @ (M @ V.T) - np.eye(l)).max() <= 1e-12


def test_temperature_groups_are_canonical():
    # on the cube, modes whose multi-indices permute one another tie exactly
    # and come in node order, first axis fastest
    ops_t = assemble(build_mesh(3, (1.0, 1.0, 1.0), (7, 7, 7)), D)
    V, mu = temperature_eigenbasis(ops_t, 20)
    groups = [[(0, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
              [(1, 1, 1)], [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
              [(2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2)],
              [(2, 1, 1), (1, 2, 1), (1, 1, 2)]]
    i = ops_t.mesh.nodes * 7
    start = 0
    for group in groups:
        assert len(set(mu[start : start + len(group)])) == 1
        for j in group:
            v = np.prod(np.cos(np.pi * np.asarray(j) * i / 7), axis=1)
            assert np.abs(V[start] - v / np.sqrt(v**2 @ ops_t.M_lumped)).max() <= 1e-12
            start += 1


# (dim, cells, k); the 2D spectrum opens with a pair and k = 6 cuts the pair
# at 107.35; the 3D one is made of triples, and k = 5 cuts the second
SPARSE_DISPLACEMENT_CASES = [(2, 10, 8), (2, 10, 6), (3, 5, 9), (3, 5, 5)]


@pytest.mark.parametrize("dim, cells, k", SPARSE_DISPLACEMENT_CASES)
def test_sparse_dense_displacement_eigensolvers_agree(monkeypatch, dim, cells, k):
    ops_s = assemble(build_mesh(dim, (1.0,) * dim, (cells,) * dim), D)
    W_dense, lam_dense = displacement_eigenbasis(ops_s, k + 6)
    monkeypatch.setattr(basis_mod, "DENSE_CUTOFF", 0)
    record = {}
    W_sparse, lam_sparse = displacement_eigenbasis(ops_s, k, record=record)
    assert record["branch"] == "sparse"
    assert np.abs(lam_sparse - lam_dense[:k]).max() <= 1e-10 * lam_dense[k - 1]
    _modes_in_dense_eigenspaces(lam_sparse, W_sparse, lam_dense, W_dense, ops_s.M_u)


FAMILIES = ["displacement"]


@pytest.mark.parametrize("family", FAMILIES)
def test_inertia_certificate_recovers_a_dropped_pair(monkeypatch, dropping_eigsh, ops, family):
    _, vals_ref = displacement_eigenbasis(ops, 5)
    monkeypatch.setattr(basis_mod, "DENSE_CUTOFF", 0)
    calls = dropping_eigsh(calls_that_drop=1)
    record = {}
    _, vals = displacement_eigenbasis(ops, 5, record=record)
    # the first solve's count disagrees, the second one is certified
    assert len(calls) == 2 and record["solves"] == 2
    assert np.abs(vals - vals_ref).max() <= 1e-10 * vals_ref[-1]


def test_sparse_displacement_solve_factors_the_stiffness_once(monkeypatch, dropping_eigsh):
    # both ARPACK solves (the first drops a pair) share the operators' one
    # factor of the interior K_D; every other factorization is an inertia count
    ops = assemble(build_mesh(2, (1.0, 1.0), (6, 6)), D)  # no factor formed yet
    free = ops.interior_dofs
    kff = ops.K_D[free][:, free]
    monkeypatch.setattr(basis_mod, "DENSE_CUTOFF", 0)
    calls = dropping_eigsh(calls_that_drop=1)
    factored = []
    real = mesh_fem_mod.splu
    monkeypatch.setattr(mesh_fem_mod, "splu", lambda S, **kw: factored.append(S) or real(S, **kw))
    record = {}
    displacement_eigenbasis(ops, 5, record=record)
    assert len(calls) == 2 and record["solves"] == 2
    assert [abs(S - kff).max() == 0.0 for S in factored] == [True, False, False]
    # a second solve on the same operators factors only its inertia count
    displacement_eigenbasis(ops, 5)
    assert [abs(S - kff).max() == 0.0 for S in factored[3:]] == [False]


@pytest.mark.parametrize("family", FAMILIES)
def test_inertia_certificate_refuses_an_incomplete_basis(monkeypatch, dropping_eigsh, ops, family):
    monkeypatch.setattr(basis_mod, "DENSE_CUTOFF", 0)
    calls = dropping_eigsh(calls_that_drop=10**6)
    with pytest.raises(SolverFailure, match=f"{family} eigensolve incomplete"):
        displacement_eigenbasis(ops, 5)
    assert len(calls) == basis_mod._SPARSE_TRIES


@pytest.mark.parametrize("sigma", [0.5, 3.0, 12.0, 40.0])
def test_negative_pivots_on_the_constraint_kernel(basis, sigma):
    # the complement's Haynsworth count below sigma on ker C, taken in the
    # D-orthonormal eigenvectors of the unconstrained pencil, against the
    # inertia of the dense bordered matrix
    comp = basis.comp
    S = comp.gram_s - sigma * comp.gram_D
    r = comp.C.shape[0]
    bordered = np.block([[S.toarray(), comp.C.T], [comp.C, np.zeros((r, r))]])
    expected = int(np.count_nonzero(np.linalg.eigvalsh(bordered) < 0.0)) - r
    lam, X = eigh(comp.gram_s.toarray(), comp.gram_D.toarray())
    below = np.sum(lam < sigma) + basis_mod._secular_signs(sigma, lam, comp.C @ X)
    assert below == expected


def test_sparse_branch_needs_more_dofs_than_pairs(monkeypatch):
    # 8 interior dofs cannot host k plus the extra pairs: the dense branch runs
    ops_3 = assemble(build_mesh(2, (1.0, 1.0), (3, 3)), D)
    monkeypatch.setattr(basis_mod, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(basis_mod, "eigsh", None)
    record = {}
    _, lam = displacement_eigenbasis(ops_3, 2, record=record)
    assert record == {"branch": "dense"} and lam[0] > 0
    # the complement on the same kind of tiny mesh: 27 strain dofs less 2
    # constraints host 19 modes
    ops_2 = assemble(build_mesh(2, (1.0, 1.0), (2, 2)), D)
    W, _ = displacement_eigenbasis(ops_2, 2)
    record = {}
    Z, lam_z, comp = complement_strain_basis(ops_2, mode_strains(ops_2, W), 19, record=record)
    assert record == {"branch": "closed_form", "inertia": 22, "kept": 19}
    assert comp.C.shape == (2, 27)
    assert lam_z[0] >= 1.0 - 1e-10 and np.all(np.diff(lam_z) >= -1e-12)
    assert np.abs(Z @ (comp.gram_D @ Z.T) - np.eye(19)).max() <= 1e-10
    assert np.abs(comp.C @ Z.T).max() <= 1e-12


def test_temperature_eigenbasis_keeps_the_lowest_modes_3d():
    # the 16th Neumann eigenvalue on the unit cube at 13^3 is 47.79 (dense
    # eigh); l = 16 cuts a six-fold group there
    ops_13 = assemble(build_mesh(3, (1.0, 1.0, 1.0), (13, 13, 13)), D)
    record = {}
    mu = temperature_eigenbasis(ops_13, 16, record=record)[1]
    assert record == {"branch": "closed_form"}
    assert abs(mu[15] - 47.78752062245732) <= 1e-8


def test_complement_orthogonality(ops, basis):
    cross = np.einsum("q,mqi,nqi->mn", ops.wq, ops.D.apply6(basis.zeta), basis.eps_w)
    assert np.abs(cross).max() <= 1e-10


def test_complement_orthonormal_and_eigenvalues(ops, basis):
    gram = np.einsum("q,mqi,nqi->mn", ops.wq, ops.D.apply6(basis.zeta), basis.zeta)
    assert np.abs(gram - np.eye(basis.l)).max() <= 1e-10
    assert basis.lam_z[0] >= 1.0 - 1e-10
    assert np.all(np.diff(basis.lam_z) >= -1e-12)


def test_complement_modes_traceless(ops, basis):
    assert np.abs(trace6(basis.zeta)).max() <= 1e-12


def test_complement_empty(ops):
    W, _ = displacement_eigenbasis(ops, 2)
    with pytest.raises(EmptyComplement):
        complement_strain_basis(ops, mode_strains(ops, W), l=10**6)


def test_project_complement_reproduces_mode(ops, basis):
    system = ModalSystem(ops, basis, Mroz.constant(1.0))
    _, coeff = system.project(system.basis.zeta[2])
    expect = np.zeros(basis.l)
    expect[2] = 1.0
    assert np.abs(coeff - expect).max() <= 1e-10


def test_project_complement_orthogonal_field(ops, basis):
    system = ModalSystem(ops, basis, Mroz.constant(1.0))
    _, coeff = system.project(system.basis.eps_w[0])
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
    # basis.npz is a record for inspection: the kept arrays and a provenance
    # header, read here with plain numpy; the derived eps_w is not written
    path = tmp_path / "basis.npz"
    dump_basis(path, basis)
    with np.load(path) as data:
        assert sorted(data.files) == ["V", "W", "Z", "comp_basis", "lam_w", "lam_z", "meta",
                                      "mu_v"]
        for name in ("W", "lam_w", "V", "mu_v", "Z", "lam_z"):
            assert np.array_equal(data[name], getattr(basis, name))
        assert np.array_equal(data["comp_basis"], basis.comp.comp_basis)
        meta = json.loads(bytes(data["meta"]).decode())
    assert meta == {"mesh_hash": ops.mesh.content_hash(), "k": basis.k, "l": basis.l,
                    "space": basis.space, "sign_convention": basis_mod.SIGN_CONVENTION,
                    "version": __version__}


def _dense_complement_oracle(ops, basis, n_pairs):
    """Nullspace of the constraint rows plus a dense generalized eigh."""
    B = basis.comp.comp_basis
    C = np.stack([(ops.P.T @ (ops.wq[:, None] * (dw @ B))).ravel() for dw in ops.D.apply6(basis.eps_w)])
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
    # the cut at 50 splits a cluster that runs to pair 74
    (3, 6, 10, 50, "deviatoric", True),
]


@pytest.mark.parametrize("dim, cells, k, l, space, splits", ORACLE_CASES)
def test_complement_matches_dense_oracle(dim, cells, k, l, space, splits):
    ops_c = assemble(build_mesh(dim, (1.0,) * dim, (cells,) * dim), D)
    b = build_basis(ops_c, k=k, l=l, space=space)
    lam_d, Z_d, gram_D = _dense_complement_oracle(ops_c, b, l + 32)
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


def test_complement_past_old_dof_cap():
    # 6075 strain dofs; the dense nullspace solver refused more than 6000.
    # W takes the certified sparse branch.
    ops_c = assemble(build_mesh(2, (1.0, 1.0), (44, 44)), D)
    b = build_basis(ops_c, k=12, l=12)
    assert b.Z.shape == (12, 6075)
    assert {f: s["branch"] for f, s in b.eigensolves.items()} == {
        "displacement": "sparse", "temperature": "closed_form", "complement": "closed_form"
    }
    rep = basis_invariant_report(ops_c, b)
    assert rep["passed"], rep
    assert projection_norm_check(b, n_fields=200, seed=3)["non_expansive"]


def test_complement_certified_where_single_vector_lanczos_returned_copies():
    # 3D 7^3, k = 4, l = 16 cuts the twelvefold group at 11.04; single-vector
    # Lanczos on the unbordered constrained operator returned copies here
    ops_c = assemble(build_mesh(3, (1.0, 1.0, 1.0), (7, 7, 7)), D)
    b = build_basis(ops_c, k=4, l=16)
    assert b.eigensolves["complement"] == {"branch": "closed_form", "inertia": 17, "kept": 16}
    rep = basis_invariant_report(ops_c, b)
    assert rep["gram_Z_D_err"] <= 1e-10
    assert rep["passed"], rep


def test_complement_certified_through_a_cut_27_fold_group():
    # 3D 5^3, k = 4: a 27-fold group at 56.0866 spans pair indices 54-80, so
    # l = 60 cuts it.  ARPACK on the bordered pencil returned only some of
    # its copies and the certified solve exited 3; a dense solve on ker C
    # finds every pair.
    ops_c = assemble(build_mesh(3, (1.0, 1.0, 1.0), (5, 5, 5)), D)
    W, _ = displacement_eigenbasis(ops_c, 4)
    record = {}
    _, lam_z, comp = complement_strain_basis(ops_c, mode_strains(ops_c, W), 60, record=record)
    assert record == {"branch": "closed_form", "inertia": 81, "kept": 60}
    N = null_space(comp.C)
    lam_d = eigh(
        N.T @ (comp.gram_s @ N), N.T @ (comp.gram_D @ N),
        eigvals_only=True, subset_by_index=(0, 59),
    )
    assert np.abs(lam_z - lam_d).max() <= 1e-10 * lam_d[-1]


def test_complement_cut_group_keeps_its_modes_whatever_l():
    # 3D 7^3, k = 12: the twelvefold group at 11.036 spans pair indices 5-16,
    # so l = 12 cuts it and l = 17 keeps it whole.  The first 12 modes, and so
    # the complement_mode initial data, do not depend on l.
    ops_c = assemble(build_mesh(3, (1.0, 1.0, 1.0), (7, 7, 7)), D)
    eps_w = mode_strains(ops_c, displacement_eigenbasis(ops_c, 12)[0])
    Z12, lam12, _ = complement_strain_basis(ops_c, eps_w, 12)
    Z17, lam17, _ = complement_strain_basis(ops_c, eps_w, 17)
    assert abs(lam12[5] - 11.036) <= 1e-3 and np.ptp(lam17[5:]) <= 1e-12
    assert np.abs(Z12 - Z17[:12]).max() <= 1e-12
    assert np.array_equal(lam12, lam17[:12])


def test_complement_runs_no_iterative_solver(monkeypatch):
    # the complement is closed form: neither ARPACK nor a sparse factor runs
    # (W at 3D 7^3 has 648 interior dofs, below DENSE_CUTOFF)
    ops_c = assemble(build_mesh(3, (1.0, 1.0, 1.0), (7, 7, 7)), D)
    monkeypatch.setattr(basis_mod, "eigsh", _refuse)
    monkeypatch.setattr(mesh_fem_mod, "splu", _refuse)
    b = build_basis(ops_c, k=12, l=12)
    assert b.eigensolves["complement"]["branch"] == "closed_form"
    assert basis_invariant_report(ops_c, b)["passed"]


def _refuse(*args, **kwargs):
    raise AssertionError("the complement called an iterative solver")


def test_complement_under_soft_shear():
    # 3D 8^3 with mu = 1e-4: the lambda = 1 group sits 4 decades below the
    # next, where ARPACK on the bordered pencil stalled (exit 3)
    soft = ElasticityTensor.isotropic(lam=1.0, mu=1e-4)
    ops_c = assemble(build_mesh(3, (1.0, 1.0, 1.0), (8, 8, 8)), soft)
    b = build_basis(ops_c, k=4, l=4)
    assert np.array_equal(b.lam_z[:4], np.ones(4))
    rep = basis_invariant_report(ops_c, b)
    assert rep["passed"], rep
    assert projection_norm_check(b, n_fields=200, seed=3)["non_expansive"]


def test_full_space_variant(ops):
    b = build_basis(ops, k=3, l=4, space="full")
    rep = basis_invariant_report(ops, b)
    assert rep["passed"], rep
