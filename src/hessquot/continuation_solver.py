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
Each Newton step solves J d = -R with one sparse LU factorization of J.

The path starts from the exactly-known state rho = 1 at t = 0 and follows an
adaptive step in t to the target problem at t = 1.  Every trial iterate is
guarded: nodes must keep rho > 0 and the eta spectrum inside Gamma_k with a
configurable margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
from .symfun import sigma_batch

__all__ = [
    "SolverConfig",
    "SolveStep",
    "SolutionField",
    "residual_vector",
    "assemble_jacobian",
    "newton_solve",
    "continuation_solve",
]

# relative forward-difference step for the pointwise jet partials
_JET_STEP = math.sqrt(np.finfo(float).eps)
# line search: step shrink per halving and the Armijo slope of the decrease test
_STEP_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
# continuation: dt grows by _DT_GROWTH after a corrector of <= _FAST_NEWTON_ITERS steps
_FAST_NEWTON_ITERS = 4
_DT_GROWTH = 1.5


@dataclass
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 30
    dt_init: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.25
    max_halvings: int = 20
    cone_margin: float = 1e-12

    def __post_init__(self):
        if self.newton_tol <= 0 or self.dt_init <= 0 or self.dt_min <= 0:
            raise ValueError(
                "newton_tol, dt_init and dt_min must be positive, got "
                f"{self.newton_tol}, {self.dt_init} and {self.dt_min}"
            )
        if not self.dt_min <= self.dt_init <= 1.0:
            raise ValueError(f"need dt_min <= dt_init <= 1, got {self.dt_min}, {self.dt_init}")
        if not self.dt_min <= self.dt_max:
            raise ValueError(f"need dt_min <= dt_max, got {self.dt_min}, {self.dt_max}")
        if self.max_newton < 1 or self.max_halvings < 1:
            raise ValueError(
                "max_newton and max_halvings must be >= 1, got "
                f"{self.max_newton} and {self.max_halvings}"
            )


@dataclass
class SolveStep:
    t: float
    newton_iters: int
    residual_sup: float
    bounds: BoundsSnapshot


@dataclass
class SolutionField:
    rho: np.ndarray
    grid: object
    bounds: BoundsSnapshot
    trace: list[SolveStep]


def _pointwise_residual(rho, grad, hess, grid, target: HomotopyTarget, t: float):
    """Residual vector of nodal jets, plus the worst cone margin over the nodes."""
    p = target.p
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


def _residual_and_margin(rho, grid, target: HomotopyTarget, t: float):
    """Residual vector plus the worst cone margin over the nodes."""
    return _pointwise_residual(*jet_arrays(rho, grid, target.p.n), grid, target, t)


def residual_vector(rho, grid, target: HomotopyTarget, t: float):
    """Per-node log residual of the discrete equation at homotopy time t."""
    res, _ = _residual_and_margin(np.asarray(rho, dtype=float), grid, target, t)
    return res


def assemble_jacobian(rho, grid, target: HomotopyTarget, t: float):
    """Sparse d(residual)/d(rho) = sum_a diag(dR/dj_a) D_a over the raw jets j_a.

    The residual at a node depends on rho only through its raw jets j_0 = rho
    and j_a = D_a rho, a = 1..A (the grid's stencil operators), so each
    pointwise partial dR/dj_a comes from one forward difference applied to all
    nodes at once, with step sqrt(eps) max(1, |j_a|).
    """
    jets = grid.raw_jets(rho)

    def residual(j):
        return _pointwise_residual(*grid.frame_jets(j, target.p.n), grid, target, t)[0]

    base = residual(jets)
    partials = np.empty_like(jets)
    for a in range(jets.shape[0]):
        bumped = jets.copy()
        bumped[a] += _JET_STEP * np.maximum(1.0, np.abs(jets[a]))
        partials[a] = (residual(bumped) - base) / (bumped[a] - jets[a])
    return grid.linearize(partials)


def newton_solve(rho0, t: float, target: HomotopyTarget, grid, cfg: SolverConfig = None):
    """Damped Newton on the sup-norm of the log residual.

    Trial iterates must keep rho positive and the spectrum inside the cone
    with margin >= cfg.cone_margin; steps are halved until a sufficient
    decrease holds.  Returns (field, iterations).
    """
    cfg = cfg if cfg is not None else SolverConfig()
    rho = np.asarray(rho0, dtype=float).copy()
    res, margin = _residual_and_margin(rho, grid, target, t)
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
                    trial_res, trial_margin = _residual_and_margin(trial, grid, target, t)
                except (ConeViolation, DegenerateJet, NonpositiveF, EvalError):
                    trial_res, trial_margin = None, -np.inf
                if trial_res is not None and trial_margin >= cfg.cone_margin:
                    trial_sup = float(np.abs(trial_res).max())
                    if trial_sup <= (1.0 - _ARMIJO_SLOPE * step) * res_sup:
                        return trial, trial_res, trial_sup
            step *= _STEP_SHRINK
        return None

    while res_sup > cfg.newton_tol:
        if iters >= cfg.max_newton:
            raise NoConvergence(
                f"no convergence in {cfg.max_newton} Newton steps at t={t} "
                f"(residual {res_sup:.3e})"
            )
        J = assemble_jacobian(rho, grid, target, t)
        try:
            delta = scipy.sparse.linalg.splu(J.tocsc()).solve(-res)
            if not np.all(np.isfinite(delta)):
                raise RuntimeError("non-finite Newton step")
        except RuntimeError as exc:
            raise NoConvergence(f"singular Newton system at t={t}: {exc}") from exc
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
    fast correctors.  A stall carries the last corrector failure as its cause.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    rho = np.ones(grid.node_count) if rho0 is None else np.asarray(rho0, dtype=float).copy()
    trace = []

    def accept(t, iters, rho_now):
        res = residual_vector(rho_now, grid, target, t)
        snap = snapshot_bounds(rho_now, grid, target.p)
        trace.append(SolveStep(t=t, newton_iters=iters,
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

    rho, iters = newton_solve(rho, 0.0, target, grid, cfg)
    accept(0.0, iters, rho)

    t = 0.0
    dt = cfg.dt_init
    while t < 1.0:
        t_try = min(t + dt, 1.0)
        try:
            rho_new, iters = newton_solve(rho, t_try, target, grid, cfg)
        except (NoConvergence, ConeViolation, NonpositiveF, EvalError, DegenerateJet) as exc:
            dt *= 0.5
            if dt < cfg.dt_min:
                raise ContinuationStalled(
                    f"step size underflow at t={t} (dt={dt:.3e} < {cfg.dt_min:.1e}); "
                    f"last corrector failure: {type(exc).__name__}: {exc}",
                    last_t=t, field=rho, trace=trace,
                ) from exc
            continue
        rho = rho_new
        t = t_try
        accept(t, iters, rho)
        if iters <= _FAST_NEWTON_ITERS:
            dt = min(dt * _DT_GROWTH, cfg.dt_max)

    return SolutionField(rho=rho, grid=grid, bounds=trace[-1].bounds, trace=trace)
