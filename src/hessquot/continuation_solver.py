"""Damped Newton corrector and homotopy continuation for the discrete problem.

The discrete unknown is the nodal field rho > 0 on a sphere grid.  The per-node
residual is the log form of the curvature equation,

    log sigma_k(eta) - log sigma_l(eta) - log f_t(X, nu),

which is zero exactly when the quotient matches the prescription and makes the
Newton iteration scale-invariant; both sides are positive on admissible states
so the logs are total.  The residual depends on rho only through the nodal
jets, which are the grid's sparse stencil operators applied to rho, so the
Jacobian is the pointwise jet partials times those operators; the partials
come from one forward difference per jet component over all nodes at once.
The Newton systems are solved by sparse direct factorization in a lightly
damped least-squares form that tolerates (near-)singular linearizations.

The path starts from the exactly-known state rho = 1 at t = 0 and follows an
adaptive step in t to the target problem at t = 1.  Every trial iterate is
guarded: nodes must keep rho > 0 and the eta spectrum inside Gamma_k with a
configurable margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    ConeViolation,
    ContinuationStalled,
    DegenerateJet,
    EvalError,
    MonitorViolation,
    NoConvergence,
    NonpositiveF,
)
from .estimates_monitor import BoundsSnapshot, check_c0, check_positivity, snapshot_bounds
from .fspec import HomotopyTarget, eval_homotopy
from .radial_geometry import geometry_batch
from .sphere_grid import jet_arrays
from .symfun import QuotientParams, sigma_batch

__all__ = [
    "SolverConfig",
    "SolveStep",
    "SolveTrace",
    "SolutionField",
    "residual_vector",
    "assemble_jacobian",
    "newton_solve",
    "continuation_solve",
]

# relative forward-difference step for the pointwise jet partials
_JET_STEP = math.sqrt(np.finfo(float).eps)


@dataclass
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 30
    dt_init: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.25
    damping_factor: float = 0.5
    max_halvings: int = 20
    sufficient_decrease: float = 1e-4
    grow_after: int = 4
    grow_factor: float = 1.5
    cone_margin: float = 1e-12

    def __post_init__(self):
        if self.newton_tol <= 0 or self.dt_init <= 0 or self.dt_min <= 0:
            raise ValueError("tolerances and step sizes must be positive")
        if not self.dt_min <= self.dt_init <= 1.0:
            raise ValueError("need dt_min <= dt_init <= 1")
        if not 0.0 < self.damping_factor < 1.0:
            raise ValueError("damping factor must lie in (0, 1)")
        if self.max_newton < 1 or self.max_halvings < 1:
            raise ValueError("iteration budgets must be >= 1")


@dataclass
class SolveStep:
    t: float
    newton_iters: int
    residual_sup: float
    bounds: BoundsSnapshot


@dataclass
class SolveTrace:
    steps: list = field(default_factory=list)

    def record(self, step: SolveStep):
        self.steps.append(step)


@dataclass
class SolutionField:
    rho: np.ndarray
    grid: object
    bounds: BoundsSnapshot
    trace: SolveTrace


def _pointwise_residual(rho, grad, hess, grid, target: HomotopyTarget, t: float,
                        p: QuotientParams):
    """Residual vector of nodal jets, plus the worst cone margin over the nodes."""
    geo = geometry_batch(rho, grad, hess)
    sig = sigma_batch(geo.eta, p.k)
    margins = sig[:, 1:].min(axis=1)
    worst = int(np.argmin(margins))
    if margins[worst] <= 0.0:
        raise ConeViolation(
            f"eta spectrum left Gamma_{p.k} at node {worst} "
            f"(margin {margins[worst]:.3e})",
            node=worst,
            margin=float(margins[worst]),
        )
    positions, frames = grid.node_frames(p.n)
    X = rho[:, None] * positions
    nu = geo.nu_radial[:, None] * positions + np.einsum(
        "nj,njd->nd", geo.nu_tangent, frames
    )
    fvals = np.asarray(eval_homotopy(target, t, X, nu), dtype=float)
    if np.any(fvals <= 0.0):
        bad = int(np.argmin(fvals))
        raise NonpositiveF(f"f_t nonpositive at node {bad} (value {fvals[bad]:.3e})")
    sl = sig[:, p.l] if p.l > 0 else 1.0
    res = np.log(sig[:, p.k]) - np.log(sl) - np.log(fvals)
    return res, float(margins[worst])


def _residual_and_margin(rho, grid, target: HomotopyTarget, t: float, p: QuotientParams):
    """Residual vector plus the worst cone margin over the nodes."""
    return _pointwise_residual(*jet_arrays(rho, grid, p.n), grid, target, t, p)


def residual_vector(rho, grid, target: HomotopyTarget, t: float, p: QuotientParams = None):
    """Per-node log residual of the discrete equation at homotopy time t."""
    p = p if p is not None else target.p
    res, _ = _residual_and_margin(np.asarray(rho, dtype=float), grid, target, t, p)
    return res


def assemble_jacobian(rho, grid, target: HomotopyTarget, t: float, p: QuotientParams = None):
    """Sparse d(residual)/d(rho) = sum_a diag(dR/dj_a) D_a over the raw jets j_a.

    The residual at a node depends on rho only through its raw jets j_0 = rho
    and j_a = D_a rho, a = 1..A (the grid's stencil operators), so each
    pointwise partial dR/dj_a comes from one forward difference applied to all
    nodes at once, with step sqrt(eps) max(1, |j_a|).
    """
    p = p if p is not None else target.p
    jets = grid.raw_jets(rho)

    def residual(j):
        return _pointwise_residual(*grid.frame_jets(j, p.n), grid, target, t, p)[0]

    base = residual(jets)
    partials = np.empty_like(jets)
    for a in range(jets.shape[0]):
        bumped = jets.copy()
        bumped[a] += _JET_STEP * np.maximum(1.0, np.abs(jets[a]))
        partials[a] = (residual(bumped) - base) / (bumped[a] - jets[a])
    return grid.linearize(partials)


def _damped_ls_direction(J, res, mu):
    """Minimize |J d + res|^2 + mu^2 |d|^2 through the sparse augmented system.

    With mu a little above the finite-difference noise floor of J this matches
    the plain Newton step to O((mu/sigma)^2) on well-conditioned problems and
    suppresses motion along (near-)null directions, which appear when the
    prescription is radially scale-invariant and t -> 1.
    """
    n = res.size
    eye = scipy.sparse.identity(n, format="csr")
    top = scipy.sparse.hstack([mu * eye, J], format="csr")
    bottom = scipy.sparse.hstack([J.T, -mu * eye], format="csr")
    aug = scipy.sparse.vstack([top, bottom], format="csc")
    rhs = np.concatenate([-res, np.zeros(n)])
    delta = scipy.sparse.linalg.splu(aug).solve(rhs)[n:]
    if np.all(np.isfinite(delta)):
        return delta
    return None


def newton_solve(rho0, t: float, target: HomotopyTarget, grid, p: QuotientParams = None,
                 cfg: SolverConfig = None):
    """Damped Newton on the sup-norm of the log residual.

    Trial iterates must keep rho positive and the spectrum inside the cone
    with margin >= cfg.cone_margin; steps are halved until a sufficient
    decrease holds.  Returns (field, iterations).
    """
    p = p if p is not None else target.p
    cfg = cfg if cfg is not None else SolverConfig()
    rho = np.asarray(rho0, dtype=float).copy()
    res, margin = _residual_and_margin(rho, grid, target, t, p)
    if margin < cfg.cone_margin:
        raise ConeViolation(
            f"initial state inadmissible (margin {margin:.3e} < {cfg.cone_margin:.1e})",
            margin=margin,
        )
    res_sup = float(np.abs(res).max())
    iters = 0

    def line_search(delta):
        step = 1.0
        for _ in range(cfg.max_halvings + 1):
            trial = rho + step * delta
            if np.all(trial > 0.0):
                try:
                    trial_res, trial_margin = _residual_and_margin(trial, grid, target, t, p)
                except (ConeViolation, DegenerateJet, NonpositiveF, EvalError):
                    trial_res, trial_margin = None, -np.inf
                if trial_res is not None and trial_margin >= cfg.cone_margin:
                    trial_sup = float(np.abs(trial_res).max())
                    if trial_sup <= (1.0 - cfg.sufficient_decrease * step) * res_sup:
                        return trial, trial_res, trial_sup
            step *= cfg.damping_factor
        return None

    # Tikhonov weight scaled with the stencil weights in J; it damps the
    # (near-)null directions described in _damped_ls_direction
    mu = 3e-8 * grid.stiffness * max(1.0, float(np.abs(rho).max()))
    while res_sup > cfg.newton_tol:
        if iters >= cfg.max_newton:
            raise NoConvergence(
                f"no convergence in {cfg.max_newton} Newton steps at t={t} "
                f"(residual {res_sup:.3e})"
            )
        J = assemble_jacobian(rho, grid, target, t, p)
        delta = _damped_ls_direction(J, res, mu)
        if delta is None:
            delta = scipy.sparse.linalg.splu(J.tocsc()).solve(-res)
        outcome = line_search(delta)
        if outcome is None:
            raise NoConvergence(
                f"line search exhausted {cfg.max_halvings} halvings at t={t} "
                f"(residual {res_sup:.3e})"
            )
        rho, res, res_sup = outcome
        iters += 1
    return rho, iters


def continuation_solve(
    target: HomotopyTarget,
    grid,
    cfg: SolverConfig = None,
    validated: bool = False,
    rho0=None,
) -> SolutionField:
    """Follow the homotopy from the unit sphere at t = 0 to the target at t = 1.

    `validated` asserts that the assumption checks passed, which turns the
    radial-containment and positivity monitors into hard invariants: a
    violation aborts with MonitorViolation instead of continuing.  Step control
    halves dt on corrector failure, which includes a trial t where f_t, the
    prescription expression or the jets cannot be evaluated, and grows it after
    fast correctors.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    p = target.p
    nodes = grid.node_count
    rho = np.ones(nodes) if rho0 is None else np.asarray(rho0, dtype=float).copy()
    trace = SolveTrace()

    def accept(t, iters, rho_now):
        res = residual_vector(rho_now, grid, target, t, p)
        snap = snapshot_bounds(rho_now, grid, p)
        trace.record(SolveStep(t=t, newton_iters=iters,
                               residual_sup=float(np.abs(res).max()), bounds=snap))
        if validated:
            radial = check_c0(snap, target.r1, target.r2)
            positive = check_positivity(snap)
            if not (radial.passed and positive.passed):
                raise MonitorViolation(
                    f"bounds monitor failed at t={t}: radial margins {radial.margins}, "
                    f"positivity {positive.margins}",
                    t=t, snapshot=snap, field=rho_now, trace=trace,
                )

    rho, iters = newton_solve(rho, 0.0, target, grid, p, cfg)
    accept(0.0, iters, rho)

    t = 0.0
    dt = cfg.dt_init
    while t < 1.0:
        t_try = min(t + dt, 1.0)
        try:
            rho_new, iters = newton_solve(rho, t_try, target, grid, p, cfg)
        except (NoConvergence, ConeViolation, NonpositiveF, EvalError, DegenerateJet):
            dt *= 0.5
            if dt < cfg.dt_min:
                raise ContinuationStalled(
                    f"step size underflow at t={t} (dt={dt:.3e} < {cfg.dt_min:.1e})",
                    last_t=t, field=rho, trace=trace,
                )
            continue
        rho = rho_new
        t = t_try
        accept(t, iters, rho)
        if iters <= cfg.grow_after:
            dt = min(dt * cfg.grow_factor, cfg.dt_max)

    return SolutionField(rho=rho, grid=grid, bounds=trace.steps[-1].bounds, trace=trace)
