"""Thermodynamic-completeness diagnostics and a-priori bound monitors.

The checks mirror the isolated-system statements directly: conservation of
the total energy, positivity of the temperature, nonnegative dissipation,
and a nondecreasing entropy.  A diagnostics row is computed from the
coefficients of the state, the lift time factors and the Gram tables of
``RowTables``, built once per run; the physical fields are rebuilt only at
snapshot cadence (``evolution.reconstruct_fields``).  The full-field
functions ``potential_energy``, ``thermal_energy`` and ``entropy`` remain the
reference the rows are tested against.  The monitors accumulate the discrete
counterparts of the uniform bounds (sup-energy plus the dt-weighted L^p norm
of the stress deviator, and the L^1 norm of the temperature) together with
the constant the estimate promises, built from the certified law constants
via the Young inequality with

    eps = beta / (2^p C^p'),   c(eps) = (1/p) (eps p')^(1-p).

Entropy uses the lumped nodal quadrature of ln(theta); a nonpositive nodal
temperature marks the sample as undefined (NaN) without aborting the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lifting import LiftedFields
from .mesh_fem import AssembledOperators
from .tensor import dot6, norm6


def potential_energy(ops: AssembledOperators, eps_u_quad, epsp_quad) -> float:
    """(1/2) integral D(eps(u) - eps_p) : (eps(u) - eps_p)."""
    e = np.asarray(eps_u_quad) - np.asarray(epsp_quad)
    return 0.5 * ops.inner_D_quad(e, e)


def thermal_energy(ops: AssembledOperators, theta_nodal) -> float:
    return float(ops.M_lumped @ np.asarray(theta_nodal))


def total_energy(ops: AssembledOperators, eps_u_quad, epsp_quad, theta_nodal) -> float:
    return thermal_energy(ops, theta_nodal) + potential_energy(ops, eps_u_quad, epsp_quad)


def entropy(ops: AssembledOperators, theta_nodal) -> float:
    """Lumped quadrature of ln(theta); NaN when any nodal value is <= 0."""
    theta = np.asarray(theta_nodal)
    if theta.min() <= 0.0:
        return math.nan
    return float(ops.M_lumped @ np.log(theta))


def entropy_rate_check(series, tol: float = 1e-8) -> bool:
    """Nondecreasing entropy along the defined part of the series."""
    vals = np.asarray(series, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size < 2:
        return True
    return bool(np.min(np.diff(vals)) >= -tol)


@dataclass
class DiagnosticsRow:
    t: float
    e_pot: float
    e_thermal: float
    e_total: float
    theta_min: float
    entropy: float
    dissipation: float
    equilibrium_residual: float
    solver_residual: float
    solver_iters: int
    substeps: int
    energy_defect: float
    epsp_trace_sup: float
    source_integral: float
    boundary_flux: float
    clip_fraction: float
    trunc_fraction: float

    FIELDS = (
        "t",
        "e_pot",
        "e_thermal",
        "e_total",
        "theta_min",
        "entropy",
        "dissipation",
        "equilibrium_residual",
        "solver_residual",
        "solver_iters",
        "substeps",
        "energy_defect",
        "epsp_trace_sup",
        "source_integral",
        "boundary_flux",
        "clip_fraction",
        "trunc_fraction",
    )

    def values(self):
        return [getattr(self, name) for name in self.FIELDS]


@dataclass(frozen=True, eq=False)
class RowTables:
    """Gram tables that give the energies of a row from the coefficients.

    With e = eps(u~)(t) - sum_m delta_m zeta_m (u = sum_n gamma_n w_n, so the
    gamma parts of eps(u) and eps_p cancel), the potential energy is the quadratic form
    1/2 delta.Z delta - delta.P c + 1/2 c.G c in delta and the lift time
    factors c; Z is the Gram matrix itself, so the value does not rely on
    the zeta family being D-orthonormal.
    """

    lifted: LiftedFields = field(repr=False)  # the lift the tables belong to
    gram_zeta: np.ndarray  # Z (l, l): (zeta_m, zeta_n)_D
    cross: np.ndarray  # P (l, n_bases): (zeta_m, eps(u~_b))_D
    gram_lift: np.ndarray  # G (n_bases, n_bases): (eps(u~_b), eps(u~_b'))_D
    heat_modes: np.ndarray  # (l,): M_lumped . v_m
    heat_lift: np.ndarray  # (nt,): M_lumped . theta~(t_i)

    @classmethod
    def build(cls, system, lifted: LiftedFields) -> "RowTables":
        # weights go on the small factor of each product, so no weighted copy
        # of a (modes, NQ, 6) table is made
        ops = system.ops
        wq = ops.wq[:, None]
        zeta_rows = system.fields.zeta.reshape(system.l, -1)
        nb = lifted.T_tilde.shape[0]
        w_T_lift = (wq * lifted.T_tilde).reshape(nb, -1)  # wq D eps(u~_b)
        return cls(
            lifted=lifted,
            gram_zeta=np.array([zeta_rows @ (wq * dz).ravel() for dz in system.fields.D_zeta]),
            cross=zeta_rows @ w_T_lift.T,
            gram_lift=lifted.eps_u_tilde.reshape(nb, -1) @ w_T_lift.T,
            heat_modes=system.fields.v_nodal @ ops.M_lumped,
            heat_lift=lifted.theta_tilde @ ops.M_lumped,
        )

    def potential_energy(self, delta, factors) -> float:
        return (
            0.5 * float(delta @ self.gram_zeta @ delta)
            - float(delta @ self.cross @ factors)
            + 0.5 * float(factors @ self.gram_lift @ factors)
        )

    def thermal_energy(self, beta, step_index: int) -> float:
        return float(self.heat_modes @ beta) + float(self.heat_lift[step_index])


def collect_row(system, state, lifted, step_index: int, report=None) -> DiagnosticsRow:
    """One diagnostics sample from a state, its lift slice and step report.

    No Gauss-point field is built except for the initial row's dissipation;
    the temperature columns use the nodal field beta @ v + theta~.
    """
    ops = system.ops
    tables = system.row_tables(lifted)
    theta = system.theta_nodal(state.beta) + lifted.theta_tilde[step_index]
    e_pot = tables.potential_energy(state.delta, lifted.factors[step_index])
    e_thermal = tables.thermal_energy(state.beta, step_index)
    return DiagnosticsRow(
        t=float(state.t),
        e_pot=e_pot,
        e_thermal=e_thermal,
        e_total=e_thermal + e_pot,
        theta_min=float(theta.min()),
        entropy=entropy(ops, theta),
        dissipation=report.dissipation
        if report
        else _initial_dissipation(system, state, lifted, step_index),
        equilibrium_residual=report.equilibrium_residual if report else 0.0,
        solver_residual=report.residual if report else 0.0,
        solver_iters=report.iters if report else 0,
        substeps=report.substeps if report else 0,
        energy_defect=report.energy_defect if report else 0.0,
        epsp_trace_sup=report.epsp_trace_sup
        if report
        else float(np.abs(system.epsp_trace(state.gamma, state.delta)).max()),
        source_integral=report.source_integral if report else 0.0,
        boundary_flux=float(lifted.flux_integral[step_index]),
        clip_fraction=report.clip_fraction if report else 0.0,
        trunc_fraction=report.trunc_fraction if report else 0.0,
    )


def _initial_dissipation(system, state, lifted, step_index: int) -> float:
    theta_q = system.theta_quad(state.beta) + lifted.theta_tilde_quad[step_index]
    td = system.stress_dev(state.delta, lifted.combine(lifted.T_tilde_dev, step_index))
    G = system.law.evaluate_many(theta_q, td, y=state.y_quad)
    return float(system.ops.wq @ dot6(td, G))


@dataclass
class AprioriMonitor:
    """Discrete mirror of the uniform energy / L^p stress / L^1 heat bounds."""

    beta: float
    C: float
    p: float
    volume: float
    e_pot0: float = 0.0
    theta_l1_0: float = 0.0
    sup_e_pot: float = 0.0
    stress_lp_sum: float = 0.0  # sum dt * int |T^d|^p
    lift_lp_sum: float = 0.0  # sum dt * int |T~^d|^p
    sup_theta_l1: float = 0.0
    values: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    theta_l1_series: list = field(default_factory=list)

    def __post_init__(self):
        pp = self.p / (self.p - 1.0)
        self.eps_young = self.beta / (2.0**self.p * self.C**pp)
        self.c_young = (1.0 / self.p) * (self.eps_young * pp) ** (1.0 - self.p)

    def start(self, ops, e_pot0: float, theta_nodal):
        self.e_pot0 = e_pot0
        self.sup_e_pot = e_pot0
        self.theta_l1_0 = float(ops.M_lumped @ np.abs(theta_nodal))
        self.sup_theta_l1 = self.theta_l1_0
        self.values.append(e_pot0)
        self.bounds.append(e_pot0)
        self.theta_l1_series.append(self.theta_l1_0)

    def update(self, ops, dt, t, e_pot, td_phys_quad, td_lift_quad, theta_nodal):
        self.sup_e_pot = max(self.sup_e_pot, e_pot)
        self.stress_lp_sum += dt * ops.integrate(norm6(td_phys_quad) ** self.p)
        self.lift_lp_sum += dt * ops.integrate(norm6(td_lift_quad) ** self.p)
        l1 = float(ops.M_lumped @ np.abs(theta_nodal))
        self.sup_theta_l1 = max(self.sup_theta_l1, l1)
        self.theta_l1_series.append(l1)
        value = self.sup_e_pot + 0.5 * self.beta * self.stress_lp_sum
        bound = (
            self.e_pot0
            + self.c_young * self.lift_lp_sum
            + 0.5 * self.beta * self.volume * t
        )
        self.values.append(value)
        self.bounds.append(bound)

    def satisfied(self, rtol: float = 1e-6, atol: float = 1e-9) -> bool:
        v = np.asarray(self.values)
        b = np.asarray(self.bounds)
        return bool(np.all(v <= b * (1.0 + rtol) + atol))

    def summary(self) -> dict:
        return {
            "sup_e_pot": self.sup_e_pot,
            "stress_lp_sum": self.stress_lp_sum,
            "lift_lp_sum": self.lift_lp_sum,
            "sup_theta_l1": self.sup_theta_l1,
            "young_eps": self.eps_young,
            "young_c": self.c_young,
            "final_value": self.values[-1] if self.values else 0.0,
            "final_bound": self.bounds[-1] if self.bounds else 0.0,
            "satisfied": self.satisfied(),
        }


@dataclass
class EnergyReport:
    """Per-run series of every diagnostic plus the pass/fail evaluation."""

    rows: list = field(default_factory=list)

    def append(self, row: DiagnosticsRow):
        self.rows.append(row)

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def evaluate(self, isolated: bool, solver_tol: float) -> dict:
        e_tot = self.series("e_total")
        e_pot = self.series("e_pot")
        diss = self.series("dissipation")
        defect = self.series("energy_defect")
        theta_min = self.series("theta_min")
        ent = self.series("entropy")
        eq = self.series("equilibrium_residual")

        scale = max(abs(e_tot[0]), 1e-30)
        checks = {
            "dissipation_nonnegative": bool(np.min(diss) >= -1e-12),
            "energy_defect_max": float(np.abs(defect).max()),
            "energy_defect_ok": bool(np.abs(defect).max() <= 10.0 * solver_tol),
            "equilibrium_residual_max": float(eq.max()),
            "equilibrium_ok": bool(eq.max() <= max(10.0 * solver_tol, 1e-10)),
        }
        if isolated:
            drift = float(np.abs(e_tot - e_tot[0]).max() / scale)
            checks.update(
                {
                    "energy_drift_rel": drift,
                    "energy_conserved": bool(drift <= 1e-6),
                    "e_pot_nonincreasing": bool(np.max(np.diff(e_pot)) <= 1e-10)
                    if e_pot.size > 1
                    else True,
                    "theta_min": float(theta_min.min()),
                    "theta_nonnegative": bool(theta_min.min() >= -1e-12),
                    "entropy_nondecreasing": entropy_rate_check(ent, tol=1e-8),
                }
            )
        checks["passed"] = all(
            v for k, v in checks.items() if isinstance(v, bool)
        )
        return checks
