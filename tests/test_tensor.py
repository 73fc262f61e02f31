import numpy as np
import pytest

from thermovisc.errors import BadData
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import (
    VOIGT_TRACE,
    ElasticityTensor,
    dev6,
    dot6,
    norm6,
    trace6,
    voigt_to_matrix,
)


def random_sym(rng, n):
    v = rng.standard_normal((n, 6))
    return v


def to_voigt(m):
    """Weighted Voigt vector of a symmetric 3x3 matrix (test oracle)."""
    r2 = np.sqrt(2.0)
    return np.array([m[0, 0], m[1, 1], m[2, 2], r2 * m[0, 1], r2 * m[0, 2], r2 * m[1, 2]])


def test_deviatoric_of_identity_is_zero():
    assert norm6(dev6(VOIGT_TRACE)) == pytest.approx(0.0, abs=1e-15)
    # a batch of scaled identities
    assert np.abs(dev6(np.outer([0.0, 1.0, -3.5, 1e6], VOIGT_TRACE))).max() <= 1e-9


def test_deviatoric_diag_3_0_0():
    d = dev6(np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    assert tuple(d[:3]) == pytest.approx((2.0, -1.0, -1.0))
    assert abs(trace6(d)) <= 1e-14


def test_deviatoric_fixes_traceless_inputs():
    rng = np.random.default_rng(1)
    v = dev6(random_sym(rng, 50))
    assert np.allclose(dev6(v), v, atol=1e-14)


def test_deviatoric_idempotent():
    rng = np.random.default_rng(2)
    v = random_sym(rng, 50)
    once = dev6(v)
    assert np.allclose(dev6(once), once, atol=1e-14)
    # a single (6,) vector behaves like a row of the batch
    assert np.allclose(dev6(v[0]), once[0], atol=1e-15)


def test_traceless_contraction_identity():
    # A : dev(B) == A : B for traceless A
    rng = np.random.default_rng(3)
    a = dev6(random_sym(rng, 200))
    b = random_sym(rng, 200)
    assert np.allclose(dot6(a, dev6(b)), dot6(a, b), atol=1e-12)


def test_voigt_round_trip_and_contraction():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        m = 0.5 * (m + m.T)
        v = to_voigt(m)
        assert np.allclose(voigt_to_matrix(v), m, atol=1e-15)
        # Voigt dot equals the matrix double contraction
        assert dot6(v, VOIGT_TRACE) == pytest.approx(np.tensordot(m, np.eye(3)), abs=1e-12)
        assert norm6(v) == pytest.approx(np.linalg.norm(m), abs=1e-12)
    batch = random_sym(rng, 7)
    assert np.allclose(voigt_to_matrix(batch), [voigt_to_matrix(v) for v in batch], atol=0.0)


def test_sym_grad():
    # the symmetric displacement gradient in Voigt form, taken from affine
    # displacements u(x) = G x on a 3D mesh, where grad u = G exactly
    ops = assemble(build_mesh(3, (1.0, 1.0, 1.0), (1, 1, 1)), ElasticityTensor.isotropic(1.0, 1.0))

    def sym_grad(g):
        return voigt_to_matrix(ops.strain_quad((ops.mesh.nodes @ g.T).ravel()))

    e = sym_grad(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 0] = 0.5
    assert np.abs(e - expect).max() <= 1e-13
    sym = np.array([[1.0, 2.0, 0.5], [2.0, -1.0, 0.0], [0.5, 0.0, 3.0]])
    assert np.abs(sym_grad(sym) - sym).max() <= 1e-13
    anti = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    assert np.abs(sym_grad(anti)).max() <= 1e-13


def test_apply_D_zero_and_identity_scaling():
    D = ElasticityTensor.isotropic(lam=0.0, mu=0.5)
    assert np.abs(D.apply6(np.zeros((3, 6)))).max() == 0.0
    rng = np.random.default_rng(5)
    v = random_sym(rng, 20)
    assert np.allclose(D.apply6(v), v, atol=1e-14)


def test_apply_D_isotropic_identity():
    D = ElasticityTensor.isotropic(lam=1.0, mu=1.0)
    out = D.apply6(VOIGT_TRACE)
    assert np.allclose(voigt_to_matrix(out), 5.0 * np.eye(3), atol=1e-14)


def test_apply_D_linear():
    D = ElasticityTensor.isotropic(lam=0.7, mu=1.3)
    rng = np.random.default_rng(6)
    a, b = random_sym(rng, 50), random_sym(rng, 50)
    lhs = D.apply6(2.0 * a + 3.0 * b)
    rhs = 2.0 * D.apply6(a) + 3.0 * D.apply6(b)
    assert np.allclose(lhs, rhs, atol=1e-13)
    # (..., 6) arrays of any leading shape map row by row
    assert np.allclose(D.apply6(a.reshape(5, 10, 6)).reshape(50, 6), D.apply6(a), atol=0.0)


def test_inner_D_symmetric_and_matches_contraction():
    D = ElasticityTensor.isotropic(lam=2.0, mu=0.8)
    rng = np.random.default_rng(7)
    va = random_sym(rng, 10_000)
    vb = random_sym(rng, 10_000)
    ab = D.inner6(va, vb)
    ba = D.inner6(vb, va)
    assert np.allclose(ab, ba, atol=1e-11)
    # (D a):b computed elementwise
    assert np.allclose(ab, dot6(va @ D.voigt.T, vb), atol=1e-12)
    assert D.inner6(va[0], vb[0]) == pytest.approx(dot6(D.apply6(va[0]), vb[0]), abs=1e-12)
    assert D.inner6(np.zeros(6), np.zeros(6)) == 0.0


def test_inner_D_reduces_to_contraction_for_unit_D():
    D = ElasticityTensor.isotropic(lam=0.0, mu=0.5)
    rng = np.random.default_rng(8)
    va, vb = random_sym(rng, 100), random_sym(rng, 100)
    assert np.allclose(D.inner6(va, vb), dot6(va, vb), atol=1e-13)


def test_voigt_matrix_spd_and_c0():
    D = ElasticityTensor.isotropic(lam=1.5, mu=0.6)
    assert np.allclose(D.voigt, D.voigt.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(D.voigt)
    assert eigs[0] > 0
    assert D.c0 == pytest.approx(eigs[0], abs=1e-12)
    assert D.c0 == pytest.approx(2 * 0.6, abs=1e-12)
    # definiteness holds pointwise
    rng = np.random.default_rng(9)
    v = random_sym(rng, 500)
    assert np.all(D.inner6(v, v) >= D.c0 * norm6(v) ** 2 - 1e-12)


def test_minor_major_symmetry_via_voigt():
    m = np.diag([3.0, 3.0, 3.0, 2.0, 2.0, 2.0])
    m[0, 1] = m[1, 0] = 0.5
    D = ElasticityTensor(m)
    assert np.abs(D.voigt - D.voigt.T).max() <= 1e-15
    with pytest.raises(BadData):
        bad = m.copy()
        bad[0, 1] = 0.9
        ElasticityTensor(bad)
    with pytest.raises(BadData):
        ElasticityTensor(-np.eye(6))


def test_trace6_dev6_consistency():
    rng = np.random.default_rng(10)
    v = random_sym(rng, 300)
    d = dev6(v)
    assert np.max(np.abs(trace6(d))) <= 1e-13
    assert np.allclose(v - d, np.outer(trace6(v) / 3.0, [1, 1, 1, 0, 0, 0]), atol=1e-13)
