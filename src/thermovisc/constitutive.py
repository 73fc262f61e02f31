"""Temperature-dependent monotone constitutive laws for the inelastic strain rate.

Each law maps (theta, Td) to a traceless strain rate, evaluated on arrays by
``evaluate_many(theta, td, y=None)`` with (n,) temperatures and (n, 6)
deviators; ``y`` is the hardening field of a hardening law and is ignored by
the others.  Each law declares the constants of its monotonicity / growth /
coercivity certificate:

    monotonicity   (G(th,T1) - G(th,T2)) : (T1 - T2) >= 0
    growth         |G(th,Td)| <= C (1 + |Td|)^(p-1)
    coercivity     G(th,Td) : Td >= beta |Td|^p

with C and beta independent of the temperature.  ``certify_assumption1``
stress-tests the declared constants on a randomized sweep; everything
downstream (energy decay, a-priori monitors) leans on these properties, so
laws that cannot be certified are rejected up front.

Power-law convention: the implemented power law is G = c |Td|^(p-2) Td, the
form whose dissipation is exactly c |Td|^p and whose growth constant is c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadData, CertificationFailure, DomainExit, NonFiniteInput
from .tensor import dev6, dot6, norm6, trace6

_TINY = 1e-300


def _check_finite(theta, td):
    if not np.all(np.isfinite(theta)):
        raise NonFiniteInput("temperature is NaN or infinite")
    if not np.all(np.isfinite(td)):
        raise NonFiniteInput("stress deviator is NaN or infinite")


class NortonHoff:
    """Power-law creep G = c |Td|^(p-2) Td, temperature independent."""

    def __init__(self, c: float, p: float):
        if not (c > 0.0):
            raise BadData(f"Norton-Hoff constant must be positive, got c={c}")
        if not (p >= 2.0):
            raise BadData(f"Norton-Hoff exponent must satisfy p >= 2, got p={p}")
        self.c = float(c)
        self.p = float(p)
        self.C_growth = float(c)
        self.beta_coercivity = float(c)
        self.name = f"norton_hoff(c={c}, p={p})"

    def evaluate_many(self, theta, td, y=None):
        td = np.asarray(td, dtype=float)
        _check_finite(theta, td)
        if self.p == 2.0:
            return self.c * td
        r = norm6(td)
        return (self.c * r ** (self.p - 2.0))[..., None] * td


class Mroz:
    """Temperature-modulated linear law G = g(theta) Td.

    ``g`` must be vectorizable over numpy arrays; ``g_min``/``g_max`` are the
    declared bounds of g on its admissible range and become the certified
    coercivity and growth constants (p = 2).  Below ``theta_min`` the modulus
    is extended constantly, so any finite temperature is accepted.
    """

    def __init__(self, g: Callable, g_min: float, g_max: float, theta_min: float | None = None):
        self.g = g
        self.g_min = float(g_min)
        self.g_max = float(g_max)
        self.theta_min = theta_min
        self.p = 2.0
        self.C_growth = float(g_max)
        self.beta_coercivity = float(g_min)
        self.name = f"mroz(g_min={g_min}, g_max={g_max})"

    @classmethod
    def constant(cls, value: float) -> "Mroz":
        return cls(lambda th: np.full_like(np.asarray(th, dtype=float), value), value, value)

    @classmethod
    def lorentz(cls, amplitude: float, offset: float, width: float = 1.0) -> "Mroz":
        """g(theta) = amplitude / (1 + (theta/width)^2) + offset."""
        def g(th):
            th = np.asarray(th, dtype=float)
            return amplitude / (1.0 + (th / width) ** 2) + offset

        return cls(g, offset, offset + amplitude)

    @classmethod
    def table(cls, thetas, values) -> "Mroz":
        """Piecewise-linear g with constant extension outside the table."""
        thetas = np.asarray(thetas, dtype=float)
        values = np.asarray(values, dtype=float)
        if thetas.ndim != 1 or thetas.shape != values.shape or len(thetas) < 2:
            raise BadData("g table needs matching 1d theta/value arrays of length >= 2")
        if np.any(np.diff(thetas) <= 0):
            raise BadData("g table thetas must be strictly increasing")

        def g(th):
            return np.interp(np.asarray(th, dtype=float), thetas, values)

        return cls(g, float(values.min()), float(values.max()), theta_min=float(thetas[0]))

    def evaluate_many(self, theta, td, y=None):
        td = np.asarray(td, dtype=float)
        theta = np.asarray(theta, dtype=float)
        _check_finite(theta, td)
        if self.theta_min is not None:
            theta = np.maximum(theta, self.theta_min)
        gval = np.asarray(self.g(theta), dtype=float)
        return np.broadcast_to(gval, td.shape[:-1])[..., None] * td


class BodnerPartom:
    """Isotropic-hardening power law G = g0 ((|Td| + beta(theta))^+ / y)^m Td/|Td|.

    The hardening variable y is carried per material point by the caller and
    advanced explicitly, decoupled from the implicit stress solve.  With the
    default beta == 0 the law is continuous at Td = 0 and certifiable with
    p = m + 1, beta = g0 / y_max^m, C = g0 / y_min^m.
    """

    def __init__(
        self,
        g0: float = 1.0,
        m: float = 2.0,
        A: float = 0.0,
        gamma0: float = 0.0,
        delta0: float = 0.0,
        y0: float = 1.0,
        y_min: float = 0.5,
        y_max: float = 2.0,
        beta_fn: Callable | None = None,
    ):
        if not (g0 > 0.0 and m >= 1.0):
            raise BadData(f"need g0 > 0 and m >= 1, got g0={g0}, m={m}")
        if not (0.0 < y_min <= y0 <= y_max):
            raise BadData(f"need 0 < y_min <= y0 <= y_max, got {y_min}, {y0}, {y_max}")
        self.g0 = float(g0)
        self.m = float(m)
        self.A = float(A)
        self.gamma0 = float(gamma0)
        self.delta0 = float(delta0)
        self.y0 = float(y0)
        self.y_min = float(y_min)
        self.y_max = float(y_max)
        self.beta_fn = beta_fn
        self.p = self.m + 1.0
        self.C_growth = self.g0 / self.y_min**self.m
        self.beta_coercivity = self.g0 / self.y_max**self.m
        self.name = f"bodner_partom(g0={g0}, m={m})"

    def evaluate_many(self, theta, td, y=None):
        td = np.asarray(td, dtype=float)
        theta = np.asarray(theta, dtype=float)
        _check_finite(theta, td)
        yv = np.asarray(self.y0 if y is None else y, dtype=float)
        r = norm6(td)
        shift = 0.0 if self.beta_fn is None else np.asarray(self.beta_fn(theta), dtype=float)
        arg = np.maximum(r + shift, 0.0) / yv
        mag = self.g0 * arg**self.m
        return (mag / np.maximum(r, _TINY))[..., None] * td

    def advance_y_many(self, y: np.ndarray, td_norm: np.ndarray, dt: float) -> np.ndarray:
        """Vectorized explicit hardening update on quadrature-point arrays."""
        if not (dt > 0.0):
            raise ValueError(f"dt must be positive, got {dt}")
        # an overflow here is a domain exit, reported below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            rate = self.gamma0 * self.g0 * (td_norm / y) ** self.m * td_norm - self.A * self.delta0
            y_new = y + dt * rate
        if not np.all(np.isfinite(y_new)):
            raise DomainExit("hardening update produced non-finite values")
        return np.clip(y_new, self.y_min, self.y_max)


# ---------------------------------------------------------------------------
# certification sweep
# ---------------------------------------------------------------------------

@dataclass
class CertificationReport:
    law_name: str
    p: float
    C_growth: float
    beta_coercivity: float
    sample_count: int
    radius: float
    monotonicity_min: float
    growth_ratio_max: float
    coercivity_ratio_min: float
    trace_max: float
    by_theta: dict
    passed: bool

    def as_dict(self) -> dict:
        return {
            "law": self.law_name,
            "p": self.p,
            "C_growth": self.C_growth,
            "beta_coercivity": self.beta_coercivity,
            "sample_count": self.sample_count,
            "radius": self.radius,
            "monotonicity_min": self.monotonicity_min,
            "growth_ratio_max": self.growth_ratio_max,
            "coercivity_ratio_min": self.coercivity_ratio_min,
            "trace_max": self.trace_max,
            "by_theta": {str(k): v for k, v in self.by_theta.items()},
            "passed": self.passed,
        }


def _random_deviators(rng, n: int, radius: float) -> np.ndarray:
    raw = dev6(rng.standard_normal((n, 6)))
    norms = np.maximum(norm6(raw), _TINY)
    target = rng.uniform(0.0, radius, size=n)
    return (target / norms)[:, None] * raw


def certify_assumption1(
    law,
    sample_count: int = 10_000,
    radius: float = 10.0,
    seed: int = 0,
    theta_values=(0.0, 1.0, 10.0, 100.0),
) -> CertificationReport:
    """Randomized certificate for monotonicity, growth and coercivity.

    Raises CertificationFailure (with the violating sample attached) when a
    sweep statistic breaks the declared constants:
    monotonicity >= -1e-12, growth ratio <= C, coercivity ratio >= beta(1-1e-9).
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    n = int(sample_count)

    t1 = _random_deviators(rng, n, radius)
    t2 = _random_deviators(rng, n, radius)
    theta = rng.uniform(min(theta_values), max(theta_values), size=n)
    anchors = np.asarray(theta_values, dtype=float)
    theta[: anchors.size] = anchors

    g1 = law.evaluate_many(theta, t1)
    g2 = law.evaluate_many(theta, t2)

    mono = dot6(g1 - g2, t1 - t2)
    i_mono = int(np.argmin(mono))
    mono_min = float(mono[i_mono])

    pexp = float(law.p)
    growth = norm6(g1) / (1.0 + norm6(t1)) ** (pexp - 1.0)
    i_growth = int(np.argmax(growth))
    growth_max = float(growth[i_growth])

    r1 = norm6(t1)
    mask = r1 > 1e-12
    coer = np.full(n, np.inf)
    coer[mask] = dot6(g1, t1)[mask] / r1[mask] ** pexp
    i_coer = int(np.argmin(coer))
    coer_min = float(coer[i_coer])

    trace_max = float(np.max(np.abs(trace6(g1)) / np.maximum(1.0, norm6(g1))))

    by_theta = {}
    for ta in theta_values:
        th = np.full(n, float(ta))
        ga = law.evaluate_many(th, t1)
        ca = dot6(ga, t1)[mask] / r1[mask] ** pexp
        by_theta[float(ta)] = {
            "growth_ratio_max": float(np.max(norm6(ga) / (1.0 + r1) ** (pexp - 1.0))),
            "coercivity_ratio_min": float(np.min(ca)) if mask.any() else np.inf,
        }

    beta = float(law.beta_coercivity)
    cgr = float(law.C_growth)
    report = CertificationReport(
        law_name=law.name,
        p=pexp,
        C_growth=cgr,
        beta_coercivity=beta,
        sample_count=n,
        radius=radius,
        monotonicity_min=mono_min,
        growth_ratio_max=growth_max,
        coercivity_ratio_min=coer_min,
        trace_max=trace_max,
        by_theta=by_theta,
        passed=True,
    )

    failures = []
    if mono_min < -1e-12:
        failures.append(
            (
                "monotonicity",
                f"min residual {mono_min:.3e}",
                (float(theta[i_mono]), t1[i_mono], t2[i_mono]),
            )
        )
    if growth_max > cgr * (1.0 + 1e-12):
        failures.append(
            (
                "growth",
                f"ratio {growth_max:.6e} exceeds C={cgr:.6e}",
                (float(theta[i_growth]), t1[i_growth]),
            )
        )
    if not (beta > 0.0) or coer_min < beta * (1.0 - 1e-9):
        failures.append(
            (
                "coercivity",
                f"ratio {coer_min:.6e} below beta={beta:.6e}",
                (float(theta[i_coer]), t1[i_coer]),
            )
        )
    if trace_max > 1e-14:
        failures.append(
            ("tracelessness", f"relative trace {trace_max:.3e}", (float(theta[0]), t1[0]))
        )
    if failures:
        report.passed = False
        msg = "; ".join(f"{name} violated: {detail}" for name, detail, _ in failures)
        err = CertificationFailure(msg, check=failures[0][0], sample=failures[0][2])
        err.checks = [name for name, _, _ in failures]
        err.report = report
        raise err
    return report
