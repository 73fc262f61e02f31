import numpy as np
import pytest

from thermovisc import basis
from thermovisc.constitutive import (
    BodnerPartom,
    Mroz,
    NortonHoff,
    certify_assumption1,
    vector_rate,
)
from thermovisc.errors import BadData, CertificationFailure, DomainExit, NonFiniteInput
from thermovisc.tensor import ElasticityTensor, deviator_frame, dev6, dot6, norm6


def unit_dev(scale=1.0):
    # diag(2,-1,-1)/sqrt(6) has unit Frobenius norm; one row of a (1, 6) batch
    s = scale / np.sqrt(6.0)
    return np.array([[2 * s, -s, -s, 0.0, 0.0, 0.0]])


ALL_LAWS = [
    NortonHoff(c=1.0, p=2.0),
    NortonHoff(c=1.0, p=3.0),
    NortonHoff(c=2.5, p=4.0),
    Mroz.constant(1.0),
    Mroz.lorentz(amplitude=1.0, offset=0.5),
    BodnerPartom(g0=1.0, m=2.0),
]


FRAME_LAWS = [
    NortonHoff(c=1.5, p=2.0),
    NortonHoff(c=1.5, p=3.0),
    NortonHoff(c=1.5, p=4.0),
    BodnerPartom(g0=1.2, m=2.0),
    Mroz.constant(0.8),
    Mroz.lorentz(amplitude=2.0, offset=0.5),
    Mroz.table([0.0, 1.0, 3.0], [2.0, 0.5, 1.0]),
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("law", FRAME_LAWS, ids=lambda l: l.name)
def test_law_commutes_with_the_deviator_frame(law, dim):
    # the step evaluates each law on frame coordinates C of the Voigt
    # deviators C Q^T; an isotropic law gives the coordinates of its value
    Q = deviator_frame(ElasticityTensor.isotropic(1.0, 1.0), dim)
    rng = np.random.default_rng(dim)
    n = 300
    coords = rng.standard_normal((n, Q.shape[1])) * rng.uniform(0.0, 3.0, (n, 1))
    coords[0] = 0.0
    theta = rng.uniform(-1.0, 4.0, n)
    y = rng.uniform(law.y_min, law.y_max, n) if isinstance(law, BodnerPartom) else None
    in_frame = vector_rate(law, theta, coords, y=y)
    voigt = vector_rate(law, theta, coords @ Q.T, y=y)
    assert in_frame.shape == coords.shape
    assert np.abs(voigt @ Q - in_frame).max() <= 1e-14 * np.abs(in_frame).max()


def _closed_form(law, theta, td, y):
    """G written out law by law, from |td| and td."""
    r = norm6(td)[:, None]
    if isinstance(law, NortonHoff):
        return law.c * r ** (law.p - 2.0) * td
    if isinstance(law, Mroz):
        return law.g(theta)[:, None] * td
    return law.g0 * (r / y[:, None]) ** law.m * td / np.maximum(r, 1e-300)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("law", FRAME_LAWS, ids=lambda l: l.name)
def test_vector_rate_is_the_closed_formula(law, dim):
    # each law states only its radial factor phi; phi Td is the law's formula
    m = 3 if dim == 2 else 5
    rng = np.random.default_rng(10 + dim)
    n = 400
    td = rng.standard_normal((n, m)) * rng.uniform(0.0, 4.0, (n, 1))
    td[0] = 0.0
    theta = rng.uniform(-1.0, 4.0, n)
    y = rng.uniform(0.5, 2.0, n)
    got = vector_rate(law, theta, td, y=y)
    ref = _closed_form(law, theta, td, y)
    assert got.shape == td.shape and not got[0].any()
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    phi = law.evaluate_many(theta, dot6(td, td), y=y)
    assert phi.shape == (n,)
    assert np.array_equal(phi[:, None] * td, got)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_radial_factor_refuses_a_non_finite_norm(law):
    # the contract's finiteness test is on theta and r2 = |Td|^2
    for r2 in (np.inf, np.nan):
        with pytest.raises(NonFiniteInput, match="stress deviator"):
            law.evaluate_many(np.zeros(2), np.array([1.0, r2]))
    with pytest.raises(NonFiniteInput, match="temperature"):
        law.evaluate_many(np.array([0.0, np.nan]), np.ones(2))


def test_bodner_partom_factor_defaults_to_y0():
    law = BodnerPartom(g0=1.2, m=2.0, y0=1.5)
    r2 = np.array([0.0, 0.25, 4.0])
    assert np.array_equal(law.evaluate_many(np.zeros(3), r2), law.evaluate_many(np.zeros(3), r2, y=1.5))


def test_mroz_unit_modulus_is_identity():
    law = Mroz.constant(1.0)
    rng = np.random.default_rng(0)
    td = dev6(rng.standard_normal((50, 6)))
    assert np.allclose(vector_rate(law, np.zeros(50), td), td, atol=1e-14)


def test_norton_hoff_p2_is_identity():
    law = NortonHoff(c=1.0, p=2.0)
    rng = np.random.default_rng(1)
    td = dev6(rng.standard_normal((50, 6)))
    assert np.allclose(vector_rate(law, np.zeros(50), td), td, atol=1e-14)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_zero_maps_to_zero(law):
    # direct-evaluation oracle: every implemented law vanishes at Td = 0
    g = vector_rate(law, np.array([1.0, -2.0, 50.0]), np.zeros((3, 6)))
    assert g.shape == (3, 6)
    assert np.abs(g).max() == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_output_traceless(law):
    rng = np.random.default_rng(2)
    td = dev6(rng.standard_normal((200, 6)))
    g = vector_rate(law, np.full(200, 3.0), td)
    tr = np.abs(g[:, 0] + g[:, 1] + g[:, 2])
    assert np.max(tr / np.maximum(1.0, norm6(g))) <= 1e-14


def dissipation(law, theta, td):
    """Pointwise mechanical dissipation Td : G(theta, Td)."""
    return dot6(td, vector_rate(law, np.full(len(td), theta), td))


def test_dissipation_values():
    # Norton-Hoff: c |Td|^p
    law = NortonHoff(c=1.0, p=3.0)
    assert dissipation(law, 0.0, unit_dev(2.0))[0] == pytest.approx(8.0, rel=1e-12)
    law = NortonHoff(c=2.5, p=4.0)
    td = np.concatenate([unit_dev(0.5), unit_dev(3.0)])
    assert dissipation(law, 0.0, td) == pytest.approx([2.5 * 0.5**4, 2.5 * 3.0**4], rel=1e-12)
    # Mroz: g |Td|^2
    law = Mroz.constant(2.0)
    assert dissipation(law, 0.0, unit_dev(1.0))[0] == pytest.approx(2.0, rel=1e-12)
    assert dissipation(law, 0.0, np.zeros((1, 6)))[0] == 0.0


def test_dissipation_meets_coercivity_bound():
    rng = np.random.default_rng(3)
    td = dev6(rng.standard_normal((500, 6)))
    for law in ALL_LAWS:
        g = vector_rate(law, np.full(500, 5.0), td)
        diss = np.einsum("ij,ij->i", td, g)
        assert np.all(diss >= law.beta_coercivity * norm6(td) ** law.p - 1e-12)


def test_non_finite_inputs_rejected():
    law = NortonHoff(c=1.0, p=3.0)
    with pytest.raises(NonFiniteInput):
        vector_rate(law, np.array([np.nan]), unit_dev())
    with pytest.raises(NonFiniteInput):
        vector_rate(law, np.array([np.inf]), unit_dev())
    bad = unit_dev()
    bad[0, 3] = np.nan
    with pytest.raises(NonFiniteInput):
        vector_rate(law, np.array([0.0]), bad)
    for other in (Mroz.constant(1.0), BodnerPartom()):
        with pytest.raises(NonFiniteInput):
            vector_rate(other, np.array([0.0]), bad)


def test_mroz_accepts_any_finite_theta():
    law = Mroz.table([0.0, 1.0, 2.0], [1.0, 0.8, 0.6])
    td = np.repeat(unit_dev(), 4, axis=0)
    g = vector_rate(law, np.array([-50.0, 0.0, 1.5, 1e6]), td)
    # constant extension below and above the table
    assert np.allclose(g[0], g[1], atol=1e-14)
    assert np.allclose(g[1], td[0], atol=1e-14)
    assert np.allclose(g[2], 0.7 * td[0], atol=1e-14)
    assert np.allclose(g[3], 0.6 * td[0], atol=1e-14)


# -- certification ----------------------------------------------------------

def test_certify_norton_hoff_family():
    for p in (2.0, 3.0, 4.0):
        rep = certify_assumption1(NortonHoff(c=1.0, p=p), sample_count=10_000, radius=10.0)
        assert rep.passed
        assert rep.monotonicity_min >= -1e-12
        assert rep.coercivity_ratio_min >= 1.0 * (1 - 1e-9)
        assert rep.growth_ratio_max <= 1.0 * (1 + 1e-12)


def test_certify_linear_case_exact_constants():
    # closed form: the p=2 law is linear, monotone with equality constants
    rep = certify_assumption1(NortonHoff(c=1.0, p=2.0), sample_count=10_000, radius=10.0)
    assert rep.coercivity_ratio_min == pytest.approx(1.0, abs=1e-12)
    assert rep.growth_ratio_max <= 1.0


def test_certify_constants_temperature_independent():
    rep = certify_assumption1(NortonHoff(c=1.0, p=3.0), sample_count=2_000)
    vals = [v["coercivity_ratio_min"] for v in rep.by_theta.values()]
    assert max(vals) - min(vals) <= 1e-9
    vals = [v["growth_ratio_max"] for v in rep.by_theta.values()]
    assert max(vals) - min(vals) <= 1e-9


def test_certify_mroz_acceptance_law():
    law = Mroz.lorentz(amplitude=1.0, offset=0.5)
    rep = certify_assumption1(law, sample_count=10_000, radius=10.0)
    assert rep.passed
    assert rep.coercivity_ratio_min >= 0.5 * (1 - 1e-9)
    assert rep.growth_ratio_max <= 1.5


def test_certify_negative_modulus_fails_coercivity():
    law = Mroz.constant(-1.0)
    # the radius check reads C only when it is positive, so a large radius
    # still reaches the coercivity check
    for radius in (10.0, 1e100):
        with pytest.raises(CertificationFailure) as err:
            certify_assumption1(law, sample_count=100, radius=radius)
        assert "coercivity" in err.value.checks
        assert err.value.sample is not None


def test_certify_zero_samples_rejected():
    with pytest.raises(ValueError):
        certify_assumption1(NortonHoff(c=1.0, p=2.0), sample_count=0)


def test_bad_arguments_raise_bad_data():
    # a deliberate raise belongs to an error family (exit code 2 at the command line)
    with pytest.raises(BadData):
        BodnerPartom().advance_y_many(np.array([1.0]), np.array([1.0]), dt=0.0)
    with pytest.raises(BadData):
        certify_assumption1(NortonHoff(c=1.0, p=2.0), sample_count=0)
    with pytest.raises(BadData):
        basis._node_tensor_basis(2, "spherical")
    with pytest.raises(BadData, match="finite width"):  # wider than the float range
        certify_assumption1(NortonHoff(c=1.0, p=2.0), theta_values=(-1.7e308, 1.7e308))
    for radius in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(BadData, match="radius must be positive and finite"):
            certify_assumption1(NortonHoff(c=1.0, p=2.0), radius=radius)


def test_certify_with_fewer_samples_than_thetas():
    # the anchors fill the samples there are; each theta is still swept on its own
    rep = certify_assumption1(NortonHoff(c=1.0, p=3.0), sample_count=1,
                              theta_values=(0.0, 1.0, 10.0))
    assert rep.passed and rep.sample_count == 1
    assert sorted(rep.by_theta) == [0.0, 1.0, 10.0]


class _NaNAboveTwo(NortonHoff):
    """The linear law, except that its factor is NaN wherever |Td| > 2."""

    def evaluate_many(self, theta, r2, y=None):
        phi = super().evaluate_many(theta, r2, y)
        return np.where(r2 > 4.0, np.nan, phi)


def test_certify_fails_a_nan_statistic():
    # each check passes only when its comparison holds, and a NaN holds none
    with pytest.raises(CertificationFailure) as err:
        certify_assumption1(_NaNAboveTwo(c=1.0, p=2.0), sample_count=200, radius=10.0)
    assert {"monotonicity", "growth", "coercivity"} <= set(err.value.checks)
    assert not err.value.report.passed
    assert np.isnan(err.value.report.growth_ratio_max)


@pytest.mark.parametrize("law, passes, refused", [
    (NortonHoff(c=1.0, p=2.0), (10.0, 1e60, 1e150), (1e160, 1e200, 1e308)),
    (Mroz.lorentz(amplitude=1.0, offset=0.5), (10.0, 1e150), (1e160, 1e308)),
    (NortonHoff(c=1.0, p=3.0), (10.0, 1e60), (1e100, 1e120, 1e200)),
    (NortonHoff(c=1.0, p=6.0), (10.0, 1e20), (1e40, 1e100)),
], ids=lambda v: getattr(v, "name", None))
def test_certify_refuses_a_radius_past_the_float_range(law, passes, refused):
    # the verdict is about the law: a radius whose sweep overflows is a config
    # error, and a radius it can represent gives finite statistics
    for radius in passes:
        rep = certify_assumption1(law, sample_count=64, radius=radius)
        assert rep.passed
        stats = [rep.monotonicity_min, rep.growth_ratio_max, rep.coercivity_ratio_min,
                 rep.trace_max] + [v for d in rep.by_theta.values() for v in d.values()]
        assert np.isfinite(stats).all()
    for radius in refused:
        with pytest.raises(BadData) as err:
            certify_assumption1(law, sample_count=64, radius=radius)
        assert f"radius {radius:g} is too large" in str(err.value)
        assert law.name in str(err.value)


def test_certify_refuses_a_sweep_that_cannot_test_coercivity():
    # the coercivity ratio is read only where |Td| > 1e-12; a sweep with no
    # such sample would pass with an infinite statistic
    with pytest.raises(BadData, match="cannot test coercivity"):
        certify_assumption1(Mroz.constant(1.0), sample_count=8, radius=1e-12)
    rep = certify_assumption1(Mroz.constant(1.0), sample_count=8, radius=1e-11)
    assert np.isfinite(rep.coercivity_ratio_min)


def test_certify_bodner_partom_default():
    law = BodnerPartom(g0=1.0, m=2.0, y_min=0.5, y_max=2.0)
    rep = certify_assumption1(law, sample_count=5_000)
    assert rep.passed
    assert rep.p == 3.0


# -- hardening ---------------------------------------------------------------

def test_hardening_zero_rhs():
    law = BodnerPartom(gamma0=0.0, A=0.0)
    out = law.advance_y_many(np.array([1.0, 0.7]), norm6(unit_dev(3.0)).repeat(2), dt=0.5)
    assert out == pytest.approx([1.0, 0.7])


def test_hardening_forced_arithmetic():
    # y' = gamma0 g0 (|Td|/y)^m |Td| - A delta0
    law = BodnerPartom(g0=1.0, m=1.0, gamma0=1.0, y_min=0.5, y_max=2.0)
    out = law.advance_y_many(np.array([1.0]), norm6(unit_dev(1.0)), dt=0.1)
    assert out[0] == pytest.approx(1.1, rel=1e-12)
    law = BodnerPartom(g0=2.0, m=2.0, gamma0=0.5, A=0.3, delta0=1.0, y_min=0.5, y_max=2.0)
    out = law.advance_y_many(np.array([1.0]), np.array([0.5]), dt=0.1)
    assert out[0] == pytest.approx(1.0 + 0.1 * (0.5 * 2.0 * 0.25 * 0.5 - 0.3), rel=1e-12)


def test_hardening_rejects_zero_dt():
    law = BodnerPartom()
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError):
            law.advance_y_many(np.array([1.0]), np.array([1.0]), dt=dt)


def test_hardening_clamps_to_domain():
    law = BodnerPartom(g0=1.0, m=1.0, gamma0=1.0, y_min=0.5, y_max=1.05)
    out = law.advance_y_many(np.array([1.0]), norm6(unit_dev(1.0)), dt=1.0)
    assert out[0] == pytest.approx(1.05)
    # recovery pulls below the floor: clamped to y_min
    law = BodnerPartom(A=10.0, delta0=1.0, y_min=0.5, y_max=2.0)
    assert law.advance_y_many(np.array([1.0]), np.array([0.0]), dt=1.0)[0] == 0.5
    # a non-finite update leaves the domain instead of being clamped
    law = BodnerPartom(gamma0=1e308, y_min=0.5, y_max=2.0)
    with pytest.raises(DomainExit):
        law.advance_y_many(np.array([1.0]), np.array([1e3]), dt=1.0)


def test_bodner_partom_vector_hardening():
    law = BodnerPartom(g0=1.0, m=1.0, gamma0=1.0, y_min=0.5, y_max=2.0)
    y = np.array([1.0, 1.0])
    y2 = law.advance_y_many(y, np.array([1.0, 0.0]), dt=0.1)
    assert y2[0] == pytest.approx(1.1)
    assert y2[1] == pytest.approx(1.0)
