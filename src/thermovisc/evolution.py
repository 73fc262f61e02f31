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
nonlinear algebraic system x = F(x) are x = (delta, beta).  The law is
monotone, so the delta half of F - x is minus the gradient of a strictly
convex incremental potential, with the SPD Jacobian I + dt K (Ortiz &
Stainier, CMAME 171, 1999).  The system is solved by a chord-Newton
iteration on delta: each step solves (I + dt K) s = F_delta(x) - delta with a
tangent K formed from the stress deviator, |T^d|^2 and the law's radial
factor at one map evaluation, while beta takes the map's explicit heat
update F_beta(x).
``run`` keeps K for the whole run and re-forms the inverse of I + dt K only
when dt changes; K itself is re-formed at the current iterate when a chord
step contracts the max-norm delta residual by less than
``CHORD_CONTRACTION`` or fails to decrease it.  A step along a fresh K that
does not decrease the residual is halved down to ``MIN_STEP``; past that,
the solve continues with damped Picard steps x + eta (F(x) - x), eta halved
whenever the residual grows, so the worst case is the plain damped
fixed-point iteration.  A solve converges when the max-norm residual of the
full map is at most ``solver_tol``; each map evaluation, line-search trials
included, counts as one iteration.  ``run`` starts each solve
from the Lagrange polynomial of degree d <= 2 through the newest d + 1 accepted
levels (s_i, x_i), substeps of a dt halving included, with d the degree that
best predicted the newest level from those before it (Hairer & Wanner, Solving
ODEs II, IV.8); its first step, ``step`` and a non-finite guess start from the
state, and ``step`` and a direct ``_advance`` form their own K.  The run keeps
each accepted level at its grid position s_i, in units of dt: the step
index plus the substep's dyadic fraction, both exact in binary.  The
weights depend only on the positions relative to the newest level, so they
are formed once per pattern of positions and cached on those exact offsets.

Each map evaluation is one pass over the Gauss points.  The law is radial,
G = phi(theta, |T^d|, y) T^d (``constitutive``), so F reduces r2 = |T^d|^2
once, as one BLAS product over the m frame columns, and asks the law only
for phi at (theta, r2).  The dissipation G : T^d is phi r2, and the weighted
rate (w phi) T^d goes straight into the D zeta product.  The accepted
evaluation carries T^d, r2 and phi, and the tangent, the step report's
integral |T^d|^p and Bodner-Partom's hardening update read them; none of
them forms |T^d| or calls the law again.  Once x is accepted, gamma is explicit:
gamma(new) = gamma(old) + dt (G, D eps(w_n)) / lam_n with the law value G
of the accepted map evaluation.  The law couples the fields only through
the stress deviator, so F works in the deviator frame Q of the operators
(``tensor.deviator_frame``; m = 3 coordinates in plane strain with isotropic
D, 5 in 3D): dev(D zeta_m) Q, dev(D eps(w_n)) Q and the lift's deviator are
stored as (rows, NQ*m) tables, and F is evaluated with BLAS matrix-vector
products over them.  The step's equilibrium residual is |E delta| with the
(k, l) matrix E = (eps(w_n), zeta_m)_D that ``build_basis`` forms.  An iterate
whose stress or temperature is non-finite fails the solve at the law's
finiteness test on theta and r2, and so does a floating-point overflow in F at a solve's first
evaluation or in a damped Picard step; an overflow at a chord trial re-forms
K and backtracks, as a trial that does not decrease the residual does.
Steps whose solve does not converge within ``solver_max_iter`` evaluations,
or whose iterates diverge, are split by
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

import collections
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import GalerkinBasis
from .constitutive import BodnerPartom
from .errors import BadData, NonFiniteInput, NonlinearSolveFailure, StateCorrupt
from .lifting import LiftedFields
from .mesh_fem import AssembledOperators
from .tensor import VOIGT_TRACE, norm6, trace6


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
        if not (0.0 < self.dt < math.inf):
            raise BadData(f"dt must be positive and finite, got {self.dt}")
        if not _is_count(self.n_steps, 0):
            raise BadData(f"n_steps must be an integer >= 0, got {self.n_steps!r}")
        if self.truncation_level is not None and not (self.truncation_level > 0.0):
            raise BadData(f"truncation level must be positive, got {self.truncation_level}")
        if not (0.0 < self.solver_tol < math.inf):
            raise BadData(f"solver_tol must be positive and finite, got {self.solver_tol}")
        if not _is_count(self.solver_max_iter, 1):
            raise BadData(f"solver_max_iter must be an integer >= 1, got {self.solver_max_iter!r}")


def _is_count(value, lo: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= lo


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
            if not np.isfinite(getattr(self, name)).all():
                raise StateCorrupt(f"non-finite coefficients in {name}")
        if self.y_quad is not None and not np.isfinite(self.y_quad).all():
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
    """Precomputed Gauss-point mode tables binding mesh, basis and law.

    The step reads the mode tables only in the deviator frame Q = ``ops.frame``
    (6, m): ``D_zeta_frame`` (l, NQ*m) holds dev(D zeta_m) Q and
    ``D_eps_w_frame`` (k, NQ*m) holds dev(D eps(w_n)) Q, row by row, for BLAS
    matrix-vector products.  Every other Gauss-point table is read from
    ``basis``, which ``build_basis`` filled; its ``E`` (k, l) =
    (eps(w_n), zeta_m)_D gives E delta, the equilibrium residual of the
    homogeneous stress against each w_n.  ``project`` gives the coefficients
    of a strain field.
    """

    def __init__(self, ops: AssembledOperators, basis: GalerkinBasis, law):
        self.ops = ops
        self.basis = basis
        self.law = law
        self.lam = basis.lam_w
        self.mu = basis.mu_v
        self.wq = ops.wq
        self.k = basis.k
        self.l = basis.l
        self.m = ops.frame.shape[1]
        self.frame_ones = np.ones(self.m)  # sums the m frame columns in one BLAS product
        # (D x) Q = x (D^T Q): each table is formed in the frame directly
        DQ = ops.D.voigt.T @ ops.frame
        self.D_zeta_frame = (basis.zeta @ DQ).reshape(self.l, -1)
        self.D_eps_w_frame = (basis.eps_w @ DQ).reshape(self.k, -1)
        # tr eps(w_n) and tr zeta_m at the Gauss points: the trace of eps_p
        self.tr_eps_w = basis.eps_w @ VOIGT_TRACE
        self.tr_zeta = basis.zeta @ VOIGT_TRACE

    def project(self, field_quad):
        """(gamma, delta) of a quadrature strain field from its D-pairings with eps(w) and zeta."""
        D_field = self.ops.D.apply6(field_quad)
        gamma = np.einsum("q,qi,nqi->n", self.wq, D_field, self.basis.eps_w) / self.lam
        delta = np.einsum("q,qi,mqi->m", self.wq, D_field, self.basis.zeta)
        return gamma, delta

    # -- field reconstruction at Gauss points --------------------------------

    def epsp_quad(self, gamma, delta) -> np.ndarray:
        return np.einsum("n,nqi->qi", gamma, self.basis.eps_w) + np.einsum(
            "m,mqi->qi", delta, self.basis.zeta
        )

    def epsp_trace(self, gamma, delta) -> np.ndarray:
        return gamma @ self.tr_eps_w + delta @ self.tr_zeta

    def stress_dev(self, delta, Ttd_q) -> np.ndarray:
        """Frame coordinates (NQ, m) of the physical stress deviator
        T~^d - dev(sum_m delta_m D zeta_m), from the lift's ``Ttd_q`` (NQ, m)."""
        Td = delta @ self.D_zeta_frame
        return np.subtract(Ttd_q.ravel(), Td, out=Td).reshape(-1, self.m)

    def theta_nodal(self, beta) -> np.ndarray:
        return beta @ self.basis.V

    def theta_quad(self, beta) -> np.ndarray:
        return beta @ self.basis.v_quad

    def u_nodal(self, gamma) -> np.ndarray:
        return gamma @ self.basis.W

    def eps_u_quad(self, gamma) -> np.ndarray:
        return np.einsum("n,nqi->qi", gamma, self.basis.eps_w)


def initialize(system: ModalSystem, theta0_nodal, epsp0_quad, config: EvolutionConfig) -> SimState:
    """Project the (truncated) initial data onto the Galerkin families.

    The initial inelastic strain must be traceless; ``ModalSystem.project``
    is defined for any strain field.
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
    if tr > 1e-10 * max(1.0, float(norm6(epsp0).max())):
        raise BadData(f"initial inelastic strain has trace {tr:.3e}")

    theta_tr = truncate(theta0, _truncation_level(system, config))
    beta = np.einsum("mn,n,n->m", system.basis.V, ops.M_lumped, theta_tr)
    gamma, delta = system.project(epsp0)
    y_quad = None
    if isinstance(system.law, BodnerPartom):
        y_quad = np.full(ops.wq.size, system.law.y0)
    return SimState(t=0.0, beta=beta, gamma=gamma, delta=delta, y_quad=y_quad)


def _lift_slices(system: ModalSystem, lifted: LiftedFields, step_index: int):
    return (
        system.ops.scalar_quad(lifted.theta_tilde[step_index]),
        lifted.combine(lifted.T_tilde_dev, step_index),
    )


def _radial_terms(system, delta, beta, theta_t_q, Ttd_q, y, diverged=None):
    """Td (frame coordinates), r2 = |Td|^2 and the law's radial factor phi at (delta, beta).

    r2 is one BLAS product over the m frame columns; it is the law's only
    view of Td.  ``diverged()`` is raised in place of the law's
    ``NonFiniteInput`` when given.  A finite Td and theta whose r2 leaves the
    float range raise FloatingPointError like any other overflow in F, also
    where the product itself sets no floating-point error.
    """
    Td = system.stress_dev(delta, Ttd_q)
    r2 = np.square(Td) @ system.frame_ones
    theta_q = system.theta_quad(beta) + theta_t_q
    try:
        phi = system.law.evaluate_many(theta_q, r2, y=y)
    except NonFiniteInput:
        if np.isfinite(Td).all() and np.isfinite(theta_q).all():
            raise FloatingPointError("|T^d|^2 leaves the float range") from None
        if diverged is None:
            raise
        raise diverged() from None
    return Td, r2, phi


def _stress_lp(system, r2) -> float:
    """The integral of |Td|^p over the domain, from r2 = |Td|^2 at the Gauss points."""
    return system.ops.integrate(r2 ** (0.5 * system.law.p))


def initial_report(system: ModalSystem, state: SimState, lifted: LiftedFields) -> StepReport:
    """The report of time level 0: the initial state's dissipation, trace and stress integral."""
    # a law value past the float range is written as inf or nan, not warned
    # about; a step from this state fails on it (exit 3)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _, r2, phi = _radial_terms(
                system, state.delta, state.beta, *_lift_slices(system, lifted, 0), state.y_quad
            )
            dissipation = float(system.wq @ (phi * r2))
            stress_lp = _stress_lp(system, r2)
        except FloatingPointError:  # |Td|^2 leaves the float range
            dissipation = stress_lp = math.inf
        return StepReport(
            t=state.t,
            dissipation=dissipation,
            epsp_trace_sup=float(np.abs(system.epsp_trace(state.gamma, state.delta)).max()),
            stress_lp=stress_lp,
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


def _lagrange_weights(ts, t):
    """Weights of the values at the times ts in their interpolating polynomial at t."""
    return [math.prod((t - tm) / (tj - tm) for tm in ts if tm != tj) for tj in ts]


@functools.lru_cache(maxsize=256)
def _start_weights(offsets, target):
    """The predictor rows and the start weights of one pattern of accepted levels.

    ``offsets`` are the levels' positions minus the newest one's, oldest
    first, and ``target`` is the start's.  Row d of the (n, n) predictor gives
    the newest level from the d + 1 levels before it; entry d of the list
    weighs the newest d + 1 levels at the target.  The cache hands the same
    arrays to every caller, so they are read-only.
    """
    n = len(offsets) - 1
    W = np.zeros((n, n))
    for d in range(n):
        W[d, n - d - 1 :] = _lagrange_weights(offsets[n - d - 1 : n], offsets[n])
    weights = tuple(np.array(_lagrange_weights(offsets[n - d :], target)) for d in range(n))
    for a in (W, *weights):
        a.flags.writeable = False
    return W, weights


def _start_iterate(levels, t):
    """Start at position t: the polynomial through the newest d + 1 accepted levels (t_i, x_i).

    d is the degree whose polynomial through the d + 1 levels before the newest
    predicts the newest best (max-norm, ties to the lower d).  The newest level,
    the state, is the start when d = 0 or the guess is not finite.  The
    weights depend only on the positions relative to the newest, so a run
    that keeps its levels at exact grid positions forms them once per pattern.
    """
    n = len(levels) - 1
    if n < 2:  # one or two levels: degree 0 is the only one scored
        return levels[-1][1]
    newest = levels[-1][0]
    W, weights = _start_weights(tuple(ti - newest for ti, _ in levels), t - newest)
    X = np.array([x for _, x in levels])
    with np.errstate(over="ignore", invalid="ignore"):
        errs = np.abs(W @ X[:n] - X[n]).max(axis=1).tolist()
        d = min(range(n), key=errs.__getitem__)  # a nan error never wins
        guess = weights[d] @ X[n - d :]
    return guess if d > 0 and np.isfinite(guess).all() else levels[-1][1]


class _Evaluation(NamedTuple):
    """One evaluation of the implicit map, as the solve, the tangent and the step report read it."""

    Td: np.ndarray  # (NQ, m) stress deviator in the frame
    r2: np.ndarray  # (NQ,) |Td|^2
    phi: np.ndarray  # (NQ,) the law's radial factor
    diss: np.ndarray  # (NQ,) G : Td = phi r2
    src: np.ndarray  # (NQ,) the truncated, sign-clipped source
    pz: np.ndarray  # (l,) the delta rate
    wG: np.ndarray  # (NQ*m,) the weighted law value (w phi) Td
    dissipation: float  # the integral of G : Td


def _implicit_map(system, state, theta_t_q, Ttd_q, dt, level, x, diverged=None):
    """The implicit-Euler map F of x = (delta, beta) against fixed lift slices.

    Returns F(x) and its ``_Evaluation``.  One pass: |Td|^2 is reduced once,
    the law gives its radial factor phi, the dissipation is phi |Td|^2 and the
    weighted rate (w phi) Td goes straight into the D zeta product.
    ``diverged`` is raised on a non-finite input to the law; a dissipation
    whose integral leaves the float range, which BLAS computes without a
    floating-point error, raises FloatingPointError like any other overflow in F.
    """
    l = system.l
    Td, r2, phi = _radial_terms(system, x[:l], x[l:], theta_t_q, Ttd_q, state.y_quad, diverged)
    diss = phi * r2
    dissipation = float(system.wq @ diss)
    if not math.isfinite(dissipation):
        raise FloatingPointError("the dissipation leaves the float range")
    wG = ((system.wq * phi)[:, None] * Td).ravel()
    pz = system.D_zeta_frame @ wG
    src = np.clip(diss, 0.0, level)
    heat = system.basis.v_quad @ (system.wq * src)
    fx = np.concatenate(
        [state.delta + dt * pz, (state.beta + dt * heat) / (1.0 + dt * system.mu)]
    )
    return fx, _Evaluation(Td, r2, phi, diss, src, pz, wG, dissipation)


#: entries of one (l, points, m) block of the weighted mode table while K is
#: formed; blocks this small leave the run's peak RSS where it was
_TANGENT_BLOCK = 1 << 12


def _delta_tangent(system, Td, r2, phi) -> np.ndarray:
    """K = sum_q w_q B_q^T A_q B_q, the law's tangent in delta (dF_delta/ddelta = -dt K).

    B = dev(D zeta) in the frame and A_q = dG/dTd at the evaluation with frame
    deviator ``Td``, r2 = |Td|^2 and radial factor ``phi``.  Every shipped law
    is radial, G = phi Td, and homogeneous of degree p - 1 in Td (Bodner-Partom
    with y frozen), so A_q = s_q (I + (p - 2) n_q n_q^T) with s_q = phi_q and
    n_q = Td_q / r_q, r_q = |Td_q|; the rank-one part is left out where
    r_q = 0.  For Mroz the temperature coupling is left out, and K is only a
    chord.  K is built in blocks of quadrature points, so no weighted
    (l, NQ, m) temporary is formed.
    """
    l, m = system.l, system.m
    ws = system.wq * phi
    # the rank-one part w_q s_q (p - 2) (B_q n_q)(B_q n_q)^T, with n_q = Td_q / r_q
    wn = np.divide((system.law.p - 2.0) * ws, r2, out=np.zeros_like(r2), where=r2 > 0.0)
    K = np.zeros((l, l))
    B_all = system.D_zeta_frame.reshape(l, -1, m)
    n_block = max(1, _TANGENT_BLOCK // (m * l))
    for a in range(0, r2.size, n_block):
        B = B_all[:, a : a + n_block]
        c = np.einsum("mqi,qi->mq", B, Td[a : a + n_block])
        wB = B * ws[a : a + n_block, None]
        K += B.reshape(l, -1) @ wB.reshape(l, -1).T + (c * wn[a : a + n_block]) @ c.T
    return K


class ChordTangent:
    """The delta tangent K of one solve or of a whole run, with the inverse of I + dt K.

    K does not depend on dt; the inverse is re-formed only when K or dt changes.
    """

    def __init__(self):
        self.K = None
        self._dt = None
        self._J_inv = None

    def form(self, system, ev: _Evaluation):
        """K at the map evaluation ``ev``."""
        self.K = _delta_tangent(system, ev.Td, ev.r2, ev.phi)
        self._J_inv = None

    def solve(self, dt, g):
        """The chord step (I + dt K)^-1 g."""
        if self._J_inv is None or dt != self._dt:
            self._J_inv = np.linalg.inv(np.eye(len(self.K)) + dt * self.K)
            self._dt = dt
        return self._J_inv @ g


#: a chord step that leaves more than this share of the delta residual re-forms K
CHORD_CONTRACTION = 0.1
#: shortest line-search step along a fresh tangent before the damped Picard step
MIN_STEP = 1.0 / 16.0


def _advance(
    system, state, theta_t_q, Ttd_q, dt, config: EvolutionConfig, x_start=None, tangent=None
):
    """Implicit-Euler advance against fixed lift slices over dt from ``x_start`` (or the state).

    ``tangent`` is the run's ``ChordTangent``; without one the solve forms its own.
    """
    law = system.law
    wq = system.wq
    level = _truncation_level(system, config)
    tol = config.solver_tol
    t_new = state.t + dt

    gamma0, delta0 = state.gamma, state.delta
    l = system.l
    tangent = ChordTangent() if tangent is None else tangent
    history = []

    def diverged(why=""):
        message = f"implicit step diverged at t={t_new:.6g}{why}"
        return NonlinearSolveFailure(message, history, t_new)

    x = np.concatenate([delta0, state.beta]) if x_start is None else x_start
    # the newest accepted iterate: x, F(x) - x, its delta residual, its evaluation
    xb = gb = aux_b = None
    rb = np.inf
    fresh = False  # K was formed at the accepted iterate
    lam = 1.0  # line-search step along K
    eta, r_prev = None, np.inf  # damped Picard, once the fresh tangent fails
    try:
        # an overflow inside the map is a diverging iterate, not a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(config.solver_max_iter):
                try:
                    fx, aux = _implicit_map(system, state, theta_t_q, Ttd_q, dt, level, x, diverged)
                    g = fx - x
                    r = float(np.abs(g).max())
                    if not math.isfinite(r):
                        raise FloatingPointError("the residual leaves the float range")
                    rd = float(np.abs(g[:l]).max())
                except FloatingPointError:
                    if xb is None or eta is not None:
                        raise
                    # an overflow at a chord trial: re-form K and backtrack, as
                    # for a trial that does not decrease the residual
                    r = rd = math.inf
                history.append(r)
                if r <= tol:
                    break
                if eta is not None:
                    if r > r_prev:
                        eta = max(eta / 2.0, 1.0 / 1024.0)
                    r_prev = r
                    x = x + eta * g
                    continue
                if rd < rb or rd <= tol:
                    if rd > max(CHORD_CONTRACTION * rb, tol):
                        tangent.K = None  # a weak contraction: re-form K here
                    xb, gb, rb, aux_b, fresh, lam = x, g, rd, aux, False, 1.0
                elif not fresh:
                    tangent.K = None  # the chord step failed: re-form K, full step
                    lam = 1.0
                elif lam > MIN_STEP:
                    lam /= 2.0  # backtrack along the fresh tangent
                else:
                    # K is no descent direction here: damped Picard from the
                    # accepted iterate on, eta halved whenever the residual grows
                    eta = 0.5
                    x = xb + eta * gb
                    continue
                if tangent.K is None:
                    tangent.form(system, aux_b)
                    fresh = True
                # beta takes the map's explicit heat update
                x = np.concatenate([xb[:l] + lam * tangent.solve(dt, gb[:l]), xb[l:] + gb[l:]])
            else:
                raise NonlinearSolveFailure(
                    f"implicit step did not converge in {config.solver_max_iter} iterations "
                    f"(residual {history[-1]:.3e} at t={t_new:.6g})",
                    history,
                    t_new,
                )
    except FloatingPointError as err:
        raise diverged(f" ({err})") from None

    # the accepted evaluation carries everything the report reads
    gamma1 = gamma0 + dt * (system.D_eps_w_frame @ aux.wG) / system.lam
    delta1 = x[:l].copy()
    beta1 = x[l:].copy()

    # exact discrete energy identity: E = |delta|^2/2 in the zeta family
    e_old = 0.5 * float(delta0 @ delta0)
    e_new = 0.5 * float(delta1 @ delta1)
    delta_bar = 0.5 * (delta0 + delta1)
    defect = e_new - e_old - dt * float(delta_bar @ aux.pz)

    # (wq T, eps(w_n)) of the accepted stress; its sign does not matter here
    eq_res = float(np.abs(system.basis.E @ delta1).max())
    source_integral = float(wq @ aux.src)
    trace_sup = float(np.abs(system.epsp_trace(gamma1, delta1)).max())

    y1 = state.y_quad
    if y1 is not None:
        y1 = law.advance_y_many(state.y_quad, np.sqrt(aux.r2), dt)

    new_state = SimState(t=t_new, beta=beta1, gamma=gamma1, delta=delta1, y_quad=y1)
    new_state.validate()

    report = StepReport(
        t=new_state.t,
        iters=len(history),
        residual=history[-1],
        energy_defect=defect,
        dissipation=aux.dissipation,
        source_integral=source_integral,
        equilibrium_residual=eq_res,
        epsp_trace_sup=trace_sup,
        stress_lp=_stress_lp(system, aux.r2),
        clip_fraction=float(np.count_nonzero(aux.diss < 0.0) / aux.diss.size),
        trunc_fraction=float(np.count_nonzero(np.abs(aux.diss) > level) / aux.diss.size),
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


def _step_adaptive(system, state, lifted, step_index, config: EvolutionConfig, levels, tangent):
    """One grid step with residual-based dt halving on solver stalls.

    Substeps interpolate the lift slices linearly between the two enclosing
    grid samples; the composite report carries summed defects and
    time-averaged rates, so the per-step identities remain exact.  Level i-1
    is formed only when the step halves.  Each solve starts from
    ``_start_iterate(levels)`` and steps with the run's ``tangent``; every
    accepted (sub)level is appended to ``levels`` at its grid position
    i - 1 + s, with s the substep's dyadic end fraction (both exact in
    binary), and the newest entry is the state.
    """
    end = _lift_slices(system, lifted, step_index)
    base = step_index - 1.0

    def attempt(st, s0, s1, depth, start=None):
        slices = end if s1 == 1.0 else [(1.0 - s1) * a + s1 * b for a, b in zip(start, end)]
        dt = (s1 - s0) * config.dt
        try:
            x0 = _start_iterate(levels, base + s1)
            st, rep = _advance(system, st, *slices, dt, config, x0, tangent)
        except NonlinearSolveFailure:
            if depth >= MAX_HALVINGS:
                raise
            if start is None:
                start = _lift_slices(system, lifted, step_index - 1)
            mid = 0.5 * (s0 + s1)
            st_mid, rep_a = attempt(st, s0, mid, depth + 1, start)
            st_end, rep_b = attempt(st_mid, mid, s1, depth + 1, start)
            return st_end, _merge_reports(
                rep_a, rep_b, (mid - s0) * config.dt, (s1 - mid) * config.dt
            )
        levels.append((base + s1, np.concatenate([st.delta, st.beta])))
        return st, rep

    try:
        return attempt(state, 0.0, 1.0, 0)
    finally:
        # attempt refers to itself; breaking that cycle frees this step's
        # slices now, not at a later garbage collection (peak RSS)
        del attempt


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
    # level i of the lift must be the time i dt the step reaches
    off = np.abs(lifted.times[: n + 1] - config.dt * np.arange(n + 1)).max()
    if off > 1e-9 * config.dt * max(n, 1):
        raise BadData(f"lift time grid is not dt * arange(n_steps + 1) (off by {off:.3e})")
    k, l = system.k, system.l
    gam = np.empty((n + 1, k))
    del_ = np.empty((n + 1, l))
    bet = np.empty((n + 1, l))
    gam[0], del_[0], bet[0] = state0.gamma, state0.delta, state0.beta
    reports = []
    state = state0
    # accepted levels (grid position, (delta, beta)) for the starting iterates:
    # four fit a quadratic and score it against the newest
    levels = collections.deque([(0.0, np.concatenate([state.delta, state.beta]))], maxlen=4)
    tangent = ChordTangent()  # formed in the first solve, re-formed only when a chord step stalls
    if on_step is not None:
        on_step(0, state, initial_report(system, state, lifted))
    for i in range(1, n + 1):
        state, rep = _step_adaptive(system, state, lifted, i, config, levels, tangent)
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
    return {
        "u_hom": u_hom,
        "u": u_hom + lifted.combine(lifted.u_tilde, step_index),
        "eps_u": eps_u_hom + lifted.combine(lifted.eps_u_tilde, step_index),
        "epsp": epsp,
        "T": ops.D.apply6(eps_u_hom - epsp) + lifted.combine(lifted.T_tilde, step_index),
        "theta": system.theta_nodal(state.beta) + lifted.theta_tilde[step_index],
    }
