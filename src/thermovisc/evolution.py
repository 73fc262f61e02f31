"""Two-level Galerkin time evolution of the coupled coefficient system.

State layout (coefficients of the modal expansion):

    theta  = sum_m beta_m v_m             temperature (homogeneous part)
    eps_p  = sum_n gamma_n eps(w_n) + sum_m delta_m zeta_m
    u      = sum_n gamma_n w_n            displacement

The discrete equilibrium row slaves the displacement coefficients to the
gradient part of eps_p, so u needs no coefficients of its own and the
homogeneous stress is carried entirely by the complement coefficients,
T = -sum_m delta_m D zeta_m.

One step advances (gamma, delta, beta) by implicit Euler.  The stress and
the temperature depend only on (delta, beta), so the unknowns of the
nonlinear algebraic system x = F(x) are x = (delta, beta); it is solved by
Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) of depth
``ANDERSON_DEPTH`` on the fixed-point map F, which is a contraction for
small dt thanks to the monotonicity of the law.  gamma is then explicit:
gamma(new) = gamma(old) + dt (G, D eps(w_n)) / lam_n with the law value G
of the accepted map evaluation.
Whenever the max-norm residual grows, the mixing history is dropped and a
damped Picard step x + eta (F(x) - x) with halved eta is taken, so the worst
case is the plain damped fixed-point iteration.  F is evaluated with BLAS
matrix-vector products over 2-D views of the Gauss-point mode tables.  An
iterate whose stress or temperature is non-finite fails the solve before it
reaches the law, and so does a floating-point overflow anywhere in F.  Steps
too stiff for the iteration, or whose iterates diverge, are split by
residual-based dt halving with the lift interpolated linearly between grid
samples.  The heat row is diagonal in the eigenbasis:
beta_m <- (beta_m + dt s_m)/(1 + dt mu_m) with the truncated, sign-clipped
dissipation source s_m.  The truncation level defaults to the Galerkin index
k, read from the basis: the basis alone holds the sizes k and l, and
``EvolutionConfig`` holds only the time grid and the solver settings.

Energy bookkeeping: the scheme satisfies the exact discrete counterpart of
the continuous energy identity,

    E(new) - E(old) + dt * integral G(new state) : Tbar^d = O(solver residual),

where Tbar is the midpoint stress (T(new)+T(old))/2 and E = |delta|^2 / 2 is
the homogeneous potential energy (the zeta family is D-orthonormal).  The
per-step defect reported by the stepper is this quantity.  Every time level
has a ``StepReport``, level 0 included (``initial_report``), and each
carries the integral |T^d|^p of its stress deviator for the monitor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisFields, GalerkinBasis, basis_fields, project_complement
from .constitutive import BodnerPartom
from .errors import BadData, NonlinearSolveFailure, StateCorrupt
from .lifting import LiftedFields
from .mesh_fem import AssembledOperators
from .tensor import dev6, dot6, norm6, trace6


def truncate(x, level: float):
    """Symmetric clamp to [-level, level]."""
    return np.clip(x, -level, level)


@dataclass
class EvolutionConfig:
    """Time grid and solver settings of a run."""

    dt: float
    n_steps: int
    truncation_level: float | None = None  # None: the Galerkin index k of the basis
    solver_tol: float = 1e-12
    solver_max_iter: int = 200

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise BadData(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise BadData(f"n_steps must be >= 0, got {self.n_steps}")
        if self.truncation_level is not None and self.truncation_level <= 0.0:
            raise BadData(f"truncation level must be positive, got {self.truncation_level}")


def _truncation_level(system, config: EvolutionConfig) -> float:
    """The configured truncation level, or the Galerkin index k of ``system``."""
    return float(system.k if config.truncation_level is None else config.truncation_level)


@dataclass
class SimState:
    """Coefficient vectors at one time instant."""

    t: float
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    y_quad: np.ndarray | None = None

    def validate(self):
        for name in ("beta", "gamma", "delta"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise StateCorrupt(f"non-finite coefficients in {name}")
        if self.y_quad is not None and not np.all(np.isfinite(self.y_quad)):
            raise StateCorrupt("non-finite hardening field")


@dataclass
class StepReport:
    """Solver-side quantities of one time level (zero solver fields at level 0)."""

    t: float
    dissipation: float
    epsp_trace_sup: float
    stress_lp: float  # integral |T^d|^p of the level's stress deviator, p of the law
    iters: int = 0
    residual: float = 0.0
    energy_defect: float = 0.0
    source_integral: float = 0.0
    equilibrium_residual: float = 0.0
    clip_fraction: float = 0.0
    trunc_fraction: float = 0.0
    substeps: int = 0  # implicit solves behind this grid step (> 1 after dt halving)


class ModalSystem:
    """Precomputed Gauss-point mode tables binding mesh, basis and law."""

    def __init__(self, ops: AssembledOperators, basis: GalerkinBasis, law):
        self.ops = ops
        self.basis = basis
        self.law = law
        self.fields: BasisFields = basis_fields(ops, basis)
        self.lam = basis.lam_w
        self.mu = basis.mu_v
        self.wq = ops.wq
        self.k = basis.k
        self.l = basis.l
        # (modes, NQ*6) views of the C-contiguous (modes, NQ, 6) tables, for
        # BLAS matrix-vector products in the fixed-point map; never copies
        self.D_eps_w_rows = self.fields.D_eps_w.reshape(self.k, -1)
        self.D_zeta_rows = self.fields.D_zeta.reshape(self.l, -1)
        self.eps_w_rows = self.fields.eps_w.reshape(self.k, -1)
        # tr eps(w_n) and tr zeta_m at the Gauss points: the trace of eps_p
        self.tr_eps_w = self.fields.eps_w[..., :3].sum(axis=-1)
        self.tr_zeta = self.fields.zeta[..., :3].sum(axis=-1)

    # -- field reconstruction at Gauss points --------------------------------

    def epsp_quad(self, gamma, delta) -> np.ndarray:
        return np.einsum("n,nqi->qi", gamma, self.fields.eps_w) + np.einsum(
            "m,mqi->qi", delta, self.fields.zeta
        )

    def epsp_trace(self, gamma, delta) -> np.ndarray:
        return gamma @ self.tr_eps_w + delta @ self.tr_zeta

    def T_hom_quad(self, delta) -> np.ndarray:
        return -np.einsum("m,mqi->qi", delta, self.fields.D_zeta)

    def stress_dev(self, delta, Ttd_q) -> np.ndarray:
        """Physical stress deviator at the Gauss points from the lift's ``Ttd_q``."""
        return Ttd_q - dev6((delta @ self.D_zeta_rows).reshape(-1, 6))

    def theta_nodal(self, beta) -> np.ndarray:
        return beta @ self.fields.v_nodal

    def theta_quad(self, beta) -> np.ndarray:
        return beta @ self.fields.v_quad

    def u_nodal(self, gamma) -> np.ndarray:
        return gamma @ self.basis.W

    def eps_u_quad(self, gamma) -> np.ndarray:
        return np.einsum("n,nqi->qi", gamma, self.fields.eps_w)


def initialize(
    system: ModalSystem, theta0_nodal, epsp0_quad, config: EvolutionConfig, validate=True
) -> SimState:
    """Project the (truncated) initial data onto the Galerkin families.

    ``validate=False`` skips the tracelessness precondition on the initial
    inelastic strain; the projection itself is defined for any strain field.
    """
    ops = system.ops
    theta0 = np.asarray(theta0_nodal, dtype=float)
    if theta0.shape != (ops.n_nodes,) or not np.isfinite(theta0).all():
        raise BadData("initial temperature must be a finite nodal field")
    epsp0 = np.asarray(epsp0_quad, dtype=float)
    if epsp0.shape != (ops.wq.size, 6) or not np.isfinite(epsp0).all():
        raise BadData("initial inelastic strain must be a finite quadrature field")
    with np.errstate(over="ignore", invalid="ignore"):
        energy = ops.inner_D_quad(epsp0, epsp0)
    if not np.isfinite(energy):
        raise BadData("initial inelastic strain energy leaves the float range")
    tr = np.abs(trace6(epsp0)).max()
    if validate and tr > 1e-10 * max(1.0, float(norm6(epsp0).max())):
        raise BadData(f"initial inelastic strain has trace {tr:.3e}")

    f = system.fields
    theta_tr = truncate(theta0, _truncation_level(system, config))
    beta = np.einsum("mn,n,n->m", f.v_nodal, ops.M_lumped, theta_tr)
    gamma = np.einsum("q,qi,nqi->n", ops.wq, epsp0, f.D_eps_w) / system.lam
    delta = project_complement(ops, f, epsp0)
    y_quad = None
    if isinstance(system.law, BodnerPartom):
        y_quad = np.full(ops.wq.size, system.law.y0)
    return SimState(t=0.0, beta=beta, gamma=gamma, delta=delta, y_quad=y_quad)


def _lift_slices(system: ModalSystem, lifted: LiftedFields, step_index: int):
    return (
        system.ops.scalar_quad(lifted.theta_tilde[step_index]),
        lifted.combine(lifted.T_tilde_dev, step_index),
    )


def _law_terms(system, delta, beta, theta_t_q, Ttd_q, y, diverged=None):
    """Td, G and Td : G at the Gauss points; raises ``diverged()`` on a non-finite input to G."""
    Td = system.stress_dev(delta, Ttd_q)
    theta_q = system.theta_quad(beta) + theta_t_q
    if diverged is not None and not (np.isfinite(Td).all() and np.isfinite(theta_q).all()):
        raise diverged()
    G = system.law.evaluate_many(theta_q, Td, y=y)
    return Td, G, dot6(Td, G)


def initial_report(system: ModalSystem, state: SimState, lifted: LiftedFields) -> StepReport:
    """The report of time level 0: the initial state's dissipation, trace and stress integral."""
    # a law value past the float range is written as inf or nan, not warned
    # about; a step from this state fails on it (exit 3)
    with np.errstate(over="ignore", invalid="ignore"):
        Td, _, diss = _law_terms(
            system, state.delta, state.beta, *_lift_slices(system, lifted, 0), state.y_quad
        )
        return StepReport(
            t=state.t,
            dissipation=float(system.wq @ diss),
            epsp_trace_sup=float(np.abs(system.epsp_trace(state.gamma, state.delta)).max()),
            stress_lp=system.ops.integrate(norm6(Td) ** system.law.p),
        )


def step(
    system: ModalSystem,
    state: SimState,
    lifted: LiftedFields,
    step_index: int,
    config: EvolutionConfig,
):
    """One implicit-Euler step; returns (new_state, StepReport).

    ``step_index`` is the index of the *target* time level on the lift grid.
    """
    return _advance(system, state, *_lift_slices(system, lifted, step_index), config.dt, config)


#: columns of Anderson mixing history; 0 gives the plain damped Picard iteration
ANDERSON_DEPTH = 5


def _advance(system, state, theta_t_q, Ttd_q, dt, config: EvolutionConfig):
    """Implicit-Euler advance against fixed lift slices over an interval dt."""
    law = system.law
    wq = system.wq
    wq_col = wq[:, None]
    v_quad = system.fields.v_quad
    nq = wq.size
    level = _truncation_level(system, config)
    t_new = state.t + dt

    gamma0, delta0, beta0 = state.gamma, state.delta, state.beta
    l = system.l
    heat_den = 1.0 + dt * system.mu
    history = []

    def diverged(why=""):
        message = f"implicit step diverged at t={t_new:.6g}{why}"
        return NonlinearSolveFailure(message, history, t_new)

    def apply_map(xv):
        Td, G, diss = _law_terms(system, xv[:l], xv[l:], theta_t_q, Ttd_q, state.y_quad, diverged)
        wG = (wq_col * G).ravel()
        pz = system.D_zeta_rows @ wG
        src = truncate(np.maximum(diss, 0.0), level)
        out = np.concatenate(
            [delta0 + dt * pz, (beta0 + dt * (v_quad @ (wq * src))) / heat_den]
        )
        return out, (Td, diss, src, pz, wG)

    x = np.concatenate([delta0, beta0])
    eta = 1.0
    r_prev = np.inf
    dx, dg = [], []  # Anderson history: differences of iterates and of residuals
    x_old = g_old = None
    try:
        # an overflow inside the map is a diverging iterate, not a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(config.solver_max_iter):
                fx, aux = apply_map(x)
                g = fx - x
                r = float(np.abs(g).max())
                history.append(r)
                if not np.isfinite(r):
                    raise diverged()
                if r <= config.solver_tol:
                    break
                if r > r_prev:
                    # safeguard: forget the secants, damped Picard with halved eta
                    eta = max(eta / 2.0, 1.0 / 1024.0)
                    dx.clear()
                    dg.clear()
                elif ANDERSON_DEPTH > 0 and g_old is not None:
                    dx.append(x - x_old)
                    dg.append(g - g_old)
                    if len(dx) > ANDERSON_DEPTH:
                        del dx[0], dg[0]
                x_old, g_old, r_prev = x, g, r
                if dg:
                    DX, DG = np.array(dx).T, np.array(dg).T
                    coef = np.linalg.lstsq(DG, g, rcond=None)[0]
                    x = x + eta * g - (DX + eta * DG) @ coef
                else:
                    x = x + eta * g
            else:
                raise NonlinearSolveFailure(
                    f"implicit step did not converge in {config.solver_max_iter} iterations "
                    f"(residual {history[-1]:.3e} at t={t_new:.6g})",
                    history,
                    t_new,
                )
    except FloatingPointError as err:
        raise diverged(f" ({err})") from None

    Td, diss, src, pz, wG = aux
    gamma1 = gamma0 + dt * (system.D_eps_w_rows @ wG) / system.lam
    delta1 = x[:l].copy()
    beta1 = x[l:].copy()

    # exact discrete energy identity: E = |delta|^2/2 in the zeta family
    e_old = 0.5 * float(delta0 @ delta0)
    e_new = 0.5 * float(delta1 @ delta1)
    delta_bar = 0.5 * (delta0 + delta1)
    defect = e_new - e_old - dt * float(delta_bar @ pz)

    # (wq T, eps(w_n)) of the accepted stress; its sign does not matter here
    T_q = (delta1 @ system.D_zeta_rows).reshape(nq, 6)
    eq_res = float(np.abs(system.eps_w_rows @ (wq_col * T_q).ravel()).max())
    dissipation = float(wq @ diss)
    source_integral = float(wq @ src)
    trace_sup = float(np.abs(system.epsp_trace(gamma1, delta1)).max())

    y1 = state.y_quad
    if y1 is not None:
        y1 = law.advance_y_many(state.y_quad, norm6(Td), dt)

    new_state = SimState(t=t_new, beta=beta1, gamma=gamma1, delta=delta1, y_quad=y1)
    new_state.validate()

    report = StepReport(
        t=new_state.t,
        iters=len(history),
        residual=history[-1],
        energy_defect=defect,
        dissipation=dissipation,
        source_integral=source_integral,
        equilibrium_residual=eq_res,
        epsp_trace_sup=trace_sup,
        stress_lp=system.ops.integrate(norm6(Td) ** law.p),
        clip_fraction=float(np.mean(diss < 0.0)),
        trunc_fraction=float(np.mean(np.abs(diss) > level)),
        substeps=1,
    )
    return new_state, report


#: maximum dt halvings when a step's implicit solve stalls
MAX_HALVINGS = 8


def _merge_reports(a: StepReport, b: StepReport, dt_a: float, dt_b: float) -> StepReport:
    """Composite report for two consecutive substeps covering dt_a + dt_b."""
    total = dt_a + dt_b
    wa, wb = dt_a / total, dt_b / total
    return StepReport(
        t=b.t,
        iters=a.iters + b.iters,
        residual=max(a.residual, b.residual),
        energy_defect=a.energy_defect + b.energy_defect,
        dissipation=wa * a.dissipation + wb * b.dissipation,
        source_integral=wa * a.source_integral + wb * b.source_integral,
        equilibrium_residual=max(a.equilibrium_residual, b.equilibrium_residual),
        epsp_trace_sup=b.epsp_trace_sup,
        stress_lp=b.stress_lp,
        clip_fraction=wa * a.clip_fraction + wb * b.clip_fraction,
        trunc_fraction=wa * a.trunc_fraction + wb * b.trunc_fraction,
        substeps=a.substeps + b.substeps,
    )


def _step_adaptive(system, state, lifted, step_index, config: EvolutionConfig):
    """One grid step with residual-based dt halving on solver stalls.

    Substeps interpolate the lift slices linearly between the two enclosing
    grid samples; the composite report carries summed defects and
    time-averaged rates, so the per-step identities remain exact.  Level i-1
    is formed only when the step halves.
    """
    end = _lift_slices(system, lifted, step_index)
    start = functools.cache(lambda: _lift_slices(system, lifted, step_index - 1))

    def attempt(st, s0, s1, depth):
        slices = end if s1 == 1.0 else [(1.0 - s1) * a + s1 * b for a, b in zip(start(), end)]
        try:
            return _advance(system, st, *slices, (s1 - s0) * config.dt, config)
        except NonlinearSolveFailure:
            if depth >= MAX_HALVINGS:
                raise
            mid = 0.5 * (s0 + s1)
            st_mid, rep_a = attempt(st, s0, mid, depth + 1)
            st_end, rep_b = attempt(st_mid, mid, s1, depth + 1)
            return st_end, _merge_reports(
                rep_a, rep_b, (mid - s0) * config.dt, (s1 - mid) * config.dt
            )

    return attempt(state, 0.0, 1.0, 0)


@dataclass
class RunResult:
    times: np.ndarray
    gamma: np.ndarray  # (n_steps+1, k)
    delta: np.ndarray
    beta: np.ndarray
    reports: list = field(repr=False)
    final_state: SimState = None


def run(
    system: ModalSystem,
    state0: SimState,
    lifted: LiftedFields,
    config: EvolutionConfig,
    on_step=None,
) -> RunResult:
    """Advance to the horizon, streaming (step_index, state, report) callbacks."""
    n = config.n_steps
    if lifted.times.size < n + 1:
        raise BadData(
            f"lift sampled on {lifted.times.size} levels but the run needs {n + 1}"
        )
    k, l = system.k, system.l
    gam = np.empty((n + 1, k))
    del_ = np.empty((n + 1, l))
    bet = np.empty((n + 1, l))
    gam[0], del_[0], bet[0] = state0.gamma, state0.delta, state0.beta
    reports = []
    state = state0
    if on_step is not None:
        on_step(0, state, initial_report(system, state, lifted))
    for i in range(1, n + 1):
        state, rep = _step_adaptive(system, state, lifted, i, config)
        gam[i], del_[i], bet[i] = state.gamma, state.delta, state.beta
        reports.append(rep)
        if on_step is not None:
            on_step(i, state, rep)
    return RunResult(
        times=lifted.times[: n + 1].copy(),
        gamma=gam,
        delta=del_,
        beta=bet,
        reports=reports,
        final_state=state,
    )


def reconstruct_fields(
    system: ModalSystem, state: SimState, lifted: LiftedFields, step_index: int
) -> dict:
    """Physical nodal/quadrature fields assembled from the coefficients.

    The stress honors T = D(eps(u) - eps_p) pointwise at the Gauss points.
    """
    ops = system.ops
    u_hom = system.u_nodal(state.gamma)
    eps_u_hom = system.eps_u_quad(state.gamma)
    epsp = system.epsp_quad(state.gamma, state.delta)
    T_hom = ops.D.apply6(eps_u_hom - epsp)
    theta_hom = system.theta_nodal(state.beta)

    u_phys = u_hom + lifted.combine(lifted.u_tilde, step_index)
    eps_u_phys = eps_u_hom + lifted.combine(lifted.eps_u_tilde, step_index)
    T_phys = T_hom + lifted.combine(lifted.T_tilde, step_index)
    theta_tilde = lifted.theta_tilde[step_index]
    theta_phys = theta_hom + theta_tilde
    return {
        "u_hom": u_hom,
        "u": u_phys,
        "eps_u": eps_u_phys,
        "epsp": epsp,
        "T_hom": T_hom,
        "T": T_phys,
        "Td": dev6(T_phys),
        "theta_hom": theta_hom,
        "theta": theta_phys,
        "theta_quad": system.theta_quad(state.beta) + ops.scalar_quad(theta_tilde),
    }


def make_state(t, gamma, delta, beta, y_quad=None) -> SimState:
    """Assemble a state from raw coefficient vectors."""
    return SimState(
        t=float(t),
        beta=np.array(beta, dtype=float),
        gamma=np.array(gamma, dtype=float),
        delta=np.array(delta, dtype=float),
        y_quad=y_quad,
    )
