"""Thermodynamic-completeness diagnostics and a-priori bound monitors.

The checks mirror the isolated-system statements directly: conservation of
the total energy, positivity of the temperature, nonnegative dissipation,
and a nondecreasing entropy.  A diagnostics row is computed from the
coefficients of the state, the lift time factors and the Gram tables of
``RowTables``, built once per run, and from the level's nodal temperature,
which the caller forms once per step; the physical fields are rebuilt only
at snapshot cadence (``evolution.reconstruct_fields``).  The full-field
functions ``potential_energy``, ``thermal_energy`` and ``entropy`` remain the
reference the rows are tested against.  The monitors accumulate the discrete
counterparts of the uniform bounds (sup-energy plus the dt-weighted L^p norm
of the stress deviator, and the L^1 norm of the temperature) together with
the constant the estimate promises, built from the certified law constants
via the Young inequality with

    eps = beta / (2^p C^p'),   c(eps) = (1/p) (eps p')^(1-p).

Entropy uses the lumped nodal quadrature of ln(theta); a nonpositive nodal
temperature marks the sample as undefined (NaN) without aborting the run.
The solver-side columns of a row and the monitor's integral |T^d|^p are
read from the level's ``evolution.StepReport``; the lift's integral
|T~^d|^p depends on the level only and is a column of ``RowTables``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BadData
from .lifting import LiftedFields
from .mesh_fem import AssembledOperators
from .tensor import norm6


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

    def values(self):
        return [getattr(self, name) for name in self.FIELDS]


#: the column names of a row, in field order
DiagnosticsRow.FIELDS = tuple(f.name for f in fields(DiagnosticsRow))


@dataclass(frozen=True, eq=False)
class RowTables:
    """Gram tables that give the energies of a row from the coefficients.

    With e = eps(u~)(t) - sum_m delta_m zeta_m (u = sum_n gamma_n w_n, so the
    gamma parts of eps(u) and eps_p cancel), the potential energy is the quadratic form
    1/2 delta.Z delta - delta.P c + 1/2 c.G c in delta and the lift time
    factors c; Z is the Gram matrix itself, so the value does not rely on
    the zeta family being D-orthonormal.
    """

    system: object = field(repr=False)  # the evolution.ModalSystem the tables belong to
    lifted: LiftedFields = field(repr=False)  # and its lift
    gram_zeta: np.ndarray  # Z (l, l): (zeta_m, zeta_n)_D
    cross: np.ndarray  # P (l, n_bases): (zeta_m, eps(u~_b))_D
    gram_lift: np.ndarray  # G (n_bases, n_bases): (eps(u~_b), eps(u~_b'))_D
    heat_modes: np.ndarray  # (l,): M_lumped . v_m
    heat_lift: np.ndarray  # (nt,): M_lumped . theta~(t_i)
    lift_lp: np.ndarray  # (nt,): integral |T~^d(t_i)|^p, p of the law

    @classmethod
    def build(cls, system, lifted: LiftedFields) -> "RowTables":
        # weights go on the small factor of each product, so no weighted copy
        # of a (modes, NQ, 6) table is made
        ops = system.ops
        wq = ops.wq[:, None]
        zeta_rows = system.fields.zeta.reshape(system.l, -1)
        nb = lifted.T_tilde.shape[0]
        w_T_lift = (wq * lifted.T_tilde).reshape(nb, -1)  # wq D eps(u~_b)
        # T~^d(t_i) depends on i only through the row factors[i], so each
        # distinct row is integrated once; a static lift needs one integral
        _, first, row_of = np.unique(
            lifted.factors, axis=0, return_index=True, return_inverse=True
        )
        lift_lp = np.array([
            ops.integrate(norm6(lifted.combine(lifted.T_tilde_dev, i)) ** system.law.p)
            for i in first
        ])
        return cls(
            system=system,
            lifted=lifted,
            gram_zeta=np.array([zeta_rows @ (wq * dz).ravel() for dz in system.fields.D_zeta]),
            cross=zeta_rows @ w_T_lift.T,
            gram_lift=lifted.eps_u_tilde.reshape(nb, -1) @ w_T_lift.T,
            heat_modes=system.fields.v_nodal @ ops.M_lumped,
            heat_lift=lifted.theta_tilde @ ops.M_lumped,
            lift_lp=lift_lp[row_of.ravel()],  # row_of is (nt, 1) under NumPy 2.0.0
        )

    def potential_energy(self, delta, factors) -> float:
        return (
            0.5 * float(delta @ self.gram_zeta @ delta)
            - float(delta @ self.cross @ factors)
            + 0.5 * float(factors @ self.gram_lift @ factors)
        )

    def thermal_energy(self, beta, step_index: int) -> float:
        return float(self.heat_modes @ beta) + float(self.heat_lift[step_index])


def collect_row(tables: RowTables, state, step_index: int, report, theta) -> DiagnosticsRow:
    """One diagnostics sample from a state, the run's tables and the level's report.

    No Gauss-point field is built; the temperature columns use ``theta``,
    the level's nodal temperature beta @ v + theta~.
    """
    system, lifted = tables.system, tables.lifted
    e_pot = tables.potential_energy(state.delta, lifted.factors[step_index])
    e_thermal = tables.thermal_energy(state.beta, step_index)
    return DiagnosticsRow(
        t=float(state.t),
        e_pot=e_pot,
        e_thermal=e_thermal,
        e_total=e_thermal + e_pot,
        theta_min=float(theta.min()),
        entropy=entropy(system.ops, theta),
        dissipation=report.dissipation,
        equilibrium_residual=report.equilibrium_residual,
        solver_residual=report.residual,
        solver_iters=report.iters,
        substeps=report.substeps,
        energy_defect=report.energy_defect,
        epsp_trace_sup=report.epsp_trace_sup,
        source_integral=report.source_integral,
        boundary_flux=float(lifted.flux_integral[step_index]),
        clip_fraction=report.clip_fraction,
        trunc_fraction=report.trunc_fraction,
    )


def young_constants(beta: float, C: float, p: float):
    """``(eps, c(eps))`` of the Young inequality behind the a-priori bound;
    BadData when a constant is zero or out of float range."""
    pp = p / (p - 1.0)
    try:
        eps = beta / (2.0**p * C**pp)
        return eps, (1.0 / p) * (eps * pp) ** (1.0 - p)
    except (OverflowError, ZeroDivisionError):
        raise BadData(
            f"the a-priori bound constants are zero or out of float range for "
            f"beta={beta}, C={C}, p={p}"
        ) from None


@dataclass
class AprioriMonitor:
    """Discrete mirror of the uniform energy / L^p stress / L^1 heat bounds."""

    beta: float
    C: float
    p: float
    volume: float
    e_pot0: float = 0.0
    sup_e_pot: float = 0.0
    stress_lp_sum: float = 0.0  # sum dt * int |T^d|^p
    lift_lp_sum: float = 0.0  # sum dt * int |T~^d|^p
    sup_theta_l1: float = 0.0
    values: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    theta_l1_series: list = field(default_factory=list)

    def __post_init__(self):
        # the bound is a theorem for coercive laws only
        if not self.beta > 0.0:
            raise BadData(f"the a-priori bound needs a coercive law, got beta={self.beta}")
        self.eps_young, self.c_young = young_constants(self.beta, self.C, self.p)

    def start(self, e_pot0: float, theta_l1: float):
        """Level 0: its potential energy and the L^1 norm M_lumped @ |theta|."""
        self.e_pot0 = e_pot0
        self.sup_e_pot = e_pot0
        self.sup_theta_l1 = theta_l1
        self.values.append(e_pot0)
        self.bounds.append(e_pot0)
        self.theta_l1_series.append(theta_l1)

    def update(self, dt, t, e_pot, stress_lp, lift_lp, theta_l1):
        """Add one step: its ``StepReport.stress_lp``, its ``RowTables.lift_lp``
        entry and the L^1 norm M_lumped @ |theta| of its temperature."""
        self.sup_e_pot = max(self.sup_e_pot, e_pot)
        self.stress_lp_sum += dt * stress_lp
        self.lift_lp_sum += dt * lift_lp
        self.sup_theta_l1 = max(self.sup_theta_l1, theta_l1)
        self.theta_l1_series.append(theta_l1)
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
