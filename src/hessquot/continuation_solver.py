"""Newton corrector and homotopy continuation for the discrete problem.

The discrete unknown is the nodal field rho > 0 on a sphere grid.  The per-node
residual is the log form of the curvature equation,

    log sigma_k(eta) - log sigma_l(eta) - log f_t(X, nu),

which is zero exactly when the quotient matches the prescription and makes the
Newton iteration scale-invariant; both sides are positive on admissible states
so the logs are total.  The residual depends on rho only through the nodal
frame jets (rho, gradient and covariant Hessian in a two-direction frame, one
(6, N) array indexed by frame row), which are one sparse jet operator of the
grid applied to rho, so the Jacobian is the pointwise partials over the frame
jets, the same (6, N) array, weighting the rows of that same operator.  The
partials of the curvature term are closed forms, the first variation of the
spectrum (radial_geometry.geometry_first_variation) at the geometry the
residual evaluated; log f_t sees the jets only through rho and its gradient,
and its partials are forward differences along those frame rows.  The grid
decides J's form (see sphere_grid): a sparse matrix on the axisymmetric grid,
a matrix-free product of the jet operator on the 2-D grid.

The corrector is a local iteration of full steps in the log-radius
u = log rho: J_u = J diag(rho), and a step du moves rho to rho exp(du).  A
dilation rho -> c rho is then the constant step log c, along which the log
residual of a prescription homogeneous in rho is linear, so the held J_u
stays good as rho moves away from the sphere.  The corrector keeps one held
solver of J_u, which the grid builds (its log_solver), across Newton
iterations and continuation steps (chord, or Shamanskii, steps) and builds a
new one only when a full step with the held one fails to cut the residual sup
by _CHORD_CONTRACTION, unless the trial already meets the tolerance; see
newton_solve.  On the axisymmetric grid it is J_u's sparse LU, so a step is
exact to round-off.  On the 2-D grid it is GMRES on the matrix-free J_u,
preconditioned with the phi-Fourier factor of J_u's ring average, so a step
is exact only to the Krylov tolerance (sphere_grid._KRYLOV_RTOL); an s2
solution then depends on that tolerance in its digits below newton_tol.

The path starts from the exactly-known state rho = 1 at t = 0 and follows an
adaptive step in t to the target problem at t = 1, as a predictor-corrector
path (Allgower & Georg 1990, ch. 2-3): the first corrector tries t = 1 at
once, each later one starts from the secant prediction through the last two
accepted states, and a corrector short of t = 1 stops at sqrt(newton_tol),
since it only has to leave the next one inside its basin; t = 1 is held to
newton_tol.  Every trial iterate is guarded: nodes must keep rho > 0 and the
eta spectrum inside Gamma_k with a margin of at least _CONE_MARGIN.  The step
in t is the only globalization: a freshly factored step that is inadmissible
or does not decrease the residual ends the corrector at once, and the
continuation retries with half the step it took.

On a grid that halves (see sphere_grid) the path is followed on the coarsest
halving only, and each finer grid takes one corrector at t = 1 from the
interpolated coarser solution (grid sequencing); see continuation_solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

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
from .radial_geometry import GeometryBatch, geometry_batch, geometry_first_variation, local_normal
from .sphere_grid import jet_arrays
from .symfun import log_quotient_grad_batch, sigma_batch

__all__ = [
    "SolverConfig",
    "SolveStep",
    "SolutionField",
    "residual_vector",
    "assemble_jacobian",
    "newton_solve",
    "continuation_solve",
]

# relative forward-difference step for the partials of log f_t
_JET_STEP = math.sqrt(np.finfo(float).eps)
# a freshly factored step is kept when it cuts the residual sup by (1 - _ARMIJO_SLOPE),
# a chord step, with the held solver, when it cuts it by _CHORD_CONTRACTION
_ARMIJO_SLOPE = 1e-4
_CHORD_CONTRACTION = 0.25
# Newton steps per corrector, chord and freshly factored alike
_MAX_NEWTON = 30
# smallest admissible cone margin, the least sigma_j(eta) over 1 <= j <= k
_CONE_MARGIN = 1e-12
# continuation: the first step in t is the whole path, to t = 1; dt grows by
# _DT_GROWTH after a corrector that factored at most once, and is half the
# step taken after a failed one; the path stalls when dt falls below _DT_MIN
_DT_GROWTH = 1.5
_DT_MIN = 1e-4
# errors that make a trial iterate or a trial t inadmissible
_INADMISSIBLE = (ConeViolation, DegenerateJet, NonpositiveF, EvalError)


@dataclass
class SolverConfig:
    """newton_tol None, the default, takes the grid's `newton_tol`, the
    tolerance its round-off floor allows (see _newton_tol)."""
    newton_tol: float = None

    def __post_init__(self):
        if not (self.newton_tol is None or math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol}")


@dataclass
class SolveStep:
    t: float
    newton_iters: int
    residual_sup: float
    bounds: BoundsSnapshot
    nodes: int  # node count of the grid the step was accepted on


@dataclass
class SolutionField:
    """The last accepted state's field and the trace up to it, whose last row
    holds that state's bounds; stalls and monitor aborts carry one too."""
    rho: np.ndarray
    trace: list[SolveStep]

    @property
    def bounds(self) -> BoundsSnapshot:
        return self.trace[-1].bounds


def _newton_tol(cfg: SolverConfig, grid) -> float:
    """cfg.newton_tol, or the grid's when cfg or its newton_tol is None."""
    return grid.newton_tol if cfg is None or cfg.newton_tol is None else cfg.newton_tol


def _f_values(jets, grid, target: HomotopyTarget, t: float):
    """f_t at the surface points X = rho x with normals nu (local_normal mapped
    through the grid's node frames), from (6, N) frame jets; raises
    NonpositiveF, naming the first bad node, unless every value is positive
    and finite (a NaN would pass a test for f_t <= 0)."""
    positions, frames = grid.node_frames(target.p.n)
    nu_radial, nu_tangent = local_normal(jets)
    # one coordinate at a time, contiguous over the nodes (see node_frames),
    # written through the transposes of C-ordered (N, n+1) X and nu
    X, nu = np.empty(positions.shape), np.empty(positions.shape)
    np.multiply(jets[0], positions.T, out=X.T)
    np.add(nu_radial * positions.T,
           nu_tangent.T[0] * frames[:, 0].T + nu_tangent.T[1] * frames[:, 1].T, out=nu.T)
    fvals = np.asarray(eval_homotopy(target, t, X, nu), dtype=float)
    good = np.isfinite(fvals) & (fvals > 0.0)
    if not good.all():
        bad = int(np.argmin(good))
        raise NonpositiveF(f"f_t not positive and finite at node {bad} (value {fvals[bad]:.3e})")
    return fvals


@dataclass
class _Iterate:
    """One evaluated field: its (6, N) frame jets (jets[0] is rho), their
    geometry, sigma_0..sigma_k of eta, f_t, the residual and its sup."""
    jets: np.ndarray
    geo: GeometryBatch
    sig: np.ndarray
    f: np.ndarray
    res: np.ndarray
    sup: float


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _pointwise_residual(jets, grid, target: HomotopyTarget, t: float) -> _Iterate:
    """The iterate of (6, N) nodal frame jets.

    This is the one admissibility test of the solver: it raises ConeViolation
    unless the worst cone margin over the nodes is >= _CONE_MARGIN (a NaN
    margin fails too), and geometry_batch raises DegenerateJet for rho <= 0
    or non-finite jets; they classify every non-finite value, so numpy's
    floating-point warnings are off.
    """
    p = target.p
    geo = geometry_batch(jets, p.n)
    sig = sigma_batch(geo.eta, p.k)
    margins = reduce(np.minimum, sig.T[1:])
    worst = int(np.argmin(margins))
    if not margins[worst] >= _CONE_MARGIN:
        raise ConeViolation(
            f"eta spectrum left Gamma_{p.k} at node {worst} "
            f"(margin {margins[worst]:.3e} < {_CONE_MARGIN:.1e})",
            node=worst,
            margin=float(margins[worst]),
        )
    fvals = _f_values(jets, grid, target, t)
    res = np.log(sig[:, p.k]) - np.log(sig[:, p.l]) - np.log(fvals)
    return _Iterate(jets, geo, sig, fvals, res, float(np.abs(res).max()))


def _residual_and_margin(rho, grid, target: HomotopyTarget, t: float) -> _Iterate:
    """The field rho evaluated at homotopy time t.  The solver calls it by
    this name, which perfbench/tracing.py wraps to count the evaluations."""
    return _pointwise_residual(jet_arrays(rho, grid, target.p.n), grid, target, t)


def residual_vector(rho, grid, target: HomotopyTarget, t: float):
    """Per-node log residual of the discrete equation at homotopy time t."""
    return _residual_and_margin(rho, grid, target, t).res


def _log_f_partials(it: _Iterate, grid, target: HomotopyTarget, t: float):
    """Partials (3, N) of log f_t over frame rows 0-2, rho and grad: forward
    differences from the iterate's f_t, step sqrt(eps) max(1, |j_r|), along
    rho and each gradient row with a non-empty block; the other row's is 0."""
    jets, log_f = it.jets, np.log(it.f)
    partials = np.zeros((3, jets.shape[1]))
    for r in (0,) + grid.gradient_rows:
        bumped = jets.copy()
        bumped[r] += _JET_STEP * np.maximum(1.0, np.abs(jets[r]))
        partials[r] = (np.log(_f_values(bumped, grid, target, t)) - log_f) / (
            bumped[r] - jets[r])
    return partials


def _frame_partials(it: _Iterate, grid, target: HomotopyTarget, t: float):
    """Partials (6, N) of the residual over the frame jets: log sigma_k -
    log sigma_l in closed form from the iterate's geometry and sigma, minus
    the forward-differenced partials of log f_t."""
    p = target.p
    d_eta = log_quotient_grad_batch(it.geo.eta, it.sig, p.k, p.l)
    partials = geometry_first_variation(it.jets, it.geo, d_eta)
    partials[:3] -= _log_f_partials(it, grid, target, t)
    return partials


def assemble_jacobian(it: _Iterate, grid, target: HomotopyTarget, t: float):
    """d(residual)/d(rho) = sum_r diag(dR/dj_r) D_r at the iterate `it`
    (see _residual_and_margin), each frame row j_r being D_r rho, a row block
    of the grid's jet operator (D_0 the identity).  The partials over the
    frame jets (see _frame_partials) read the iterate's jets, geometry, sigma
    and f_t, so J evaluates f only at the bumped jets and makes no jets,
    geometry or sigma of its own.  grid.jacobian makes J from them: the CSR
    matrix of the operator's weighted rows (linearize), or on the 2-D grid
    the matrix-free product; the iterate, and its geometry with it, stays
    alive meanwhile.
    """
    return grid.jacobian(_frame_partials(it, grid, target, t))


def newton_solve(rho0, t: float, target: HomotopyTarget, grid, cfg: SolverConfig = None,
                 lu=None):
    """Full-step Newton in the log-radius u = log rho on the sup-norm of the
    log residual, reusing one held solver of J_u.

    Every step, chord or fresh, is du = -J_u^{-1} R with J_u = J diag(rho)
    the Jacobian over u, solved by the held solver (exactly by an LU, to the
    Krylov tolerance by the 2-D grid's GMRES), and the trial is rho exp(du);
    an exp that overflows makes an inf rho, which the evaluation refuses.
    `lu` is the held solver of some earlier J_u, anything with solve(b) such
    as a SuperLU, or None.  While one is held, each step first tries the
    chord step with it and keeps the trial when it is admissible and its
    residual sup is at most _CHORD_CONTRACTION times the current one.
    Otherwise the held solver is dropped, J is assembled from the evaluated
    iterate, and grid.log_solver(J, rho) builds the solver of J_u, which
    factors once; that fresh step is kept when it is admissible and its
    residual sup is at most (1 - _ARMIJO_SLOPE) times the current one, and
    otherwise the corrector raises NoConvergence, so that the caller shortens
    the step in t.  A trial whose residual sup is at most newton_tol (see
    _newton_tol) is kept whatever its contraction.  Admissible means that
    _pointwise_residual, the one test, raises none of _INADMISSIBLE: rho
    stays positive and finite, the spectrum inside the cone with margin >=
    _CONE_MARGIN, and f_t positive and evaluable; an inadmissible start
    raises that error.  The iteration stops on the true residual sup <=
    newton_tol, or raises NoConvergence after _MAX_NEWTON steps.  Returns
    (field, iterations, factorizations, residual sup, solver of J_u held at
    the end).
    """
    tol = _newton_tol(cfg, grid)
    it = _residual_and_margin(rho0, grid, target, t)
    rho, res, sup = it.jets[0], it.res, it.sup
    iters = factorizations = 0

    def log_step(du, contraction):
        """The iterate at rho exp(du) when it is admissible and its residual
        sup is at most newton_tol or `contraction` times the current one,
        else None."""
        with np.errstate(over="ignore"):
            trial_rho = rho * np.exp(du)
        try:
            trial = _residual_and_margin(trial_rho, grid, target, t)
        except _INADMISSIBLE:
            return None
        # written so that a NaN residual sup fails the test too
        return trial if trial.sup <= max(tol, contraction * sup) else None

    while sup > tol:
        if iters >= _MAX_NEWTON:
            raise NoConvergence(
                f"no convergence in {_MAX_NEWTON} Newton steps at t={t} "
                f"(residual {sup:.3e})"
            )
        outcome = None if lu is None else log_step(lu.solve(-res), _CHORD_CONTRACTION)
        if outcome is None:
            lu = None  # free the held solver before building anew
            J = assemble_jacobian(it, grid, target, t)
            it = None  # free the geometry, sigma and f_t: only rho, res and sup are read
            try:
                lu = grid.log_solver(J, rho)
                J = None  # an LU holds its own copy
                du = lu.solve(-res)
                if not np.all(np.isfinite(du)):
                    raise RuntimeError("non-finite Newton step")
            except RuntimeError as exc:
                raise NoConvergence(f"singular Newton system at t={t}: {exc}") from exc
            factorizations += 1
            outcome = log_step(du, 1.0 - _ARMIJO_SLOPE)
            if outcome is None:
                raise NoConvergence(
                    f"Newton step inadmissible or not decreasing at t={t} "
                    f"(residual {sup:.3e})"
                )
        it = outcome
        rho, res, sup = it.jets[0], it.res, it.sup
        iters += 1
    return rho, iters, factorizations, sup, lu


def _follow_path(target: HomotopyTarget, grid, cfg: SolverConfig, accept, trace):
    """The homotopy path on one grid, from rho = 1 at t = 0 to t = 1.

    The unit sphere solves f_0 exactly, so t = 0 is recorded, not corrected:
    its trace row holds zero Newton iterations and the residual sup measured
    at rho = 1, and the first corrector runs at t = 1 from rho = 1 with no
    held solver.  Each later corrector at t_try starts from the secant
    prediction rho + (t_try - t)/(t - t_prev) (rho - rho_prev) through the last
    two accepted states (t = 0 among them), and from the solver the previous
    accepted one ended with; an inadmissible prediction is a failed attempt.
    Correctors at t_try < 1 stop at sqrt(newton_tol), the one at t = 1 at
    newton_tol (see _newton_tol), so only the t = 1 trace row meets it.  A
    corrector failure, which includes a trial t where f_t, the prescription
    or the jets cannot be evaluated, sets dt to half the step t_try - t it
    took, so no refused t_try is retried from the same state; dt grows after
    a corrector that factored at most once; chord steps raise the iteration
    count without costing a Jacobian, so the factorizations measure the
    work.  Every accepted state goes through accept(grid, t, iters,
    residual sup, rho); a stall raises ContinuationStalled with the last
    accepted state, and the last corrector failure as its cause.  Returns rho
    at t = 1.
    """
    rho = np.ones(grid.node_count)
    # The solver carried from one corrector to the next.  It is handed over
    # with pop, so the corrector holds the only reference and frees it before
    # it builds anew: at most one held solver is alive at a time.
    carried = {}

    accept(grid, 0.0, 0, _residual_and_margin(rho, grid, target, 0.0).sup, rho)

    path_cfg = SolverConfig(newton_tol=math.sqrt(_newton_tol(cfg, grid)))
    t = 0.0
    dt = 1.0
    while t < 1.0:
        t_try = min(t + dt, 1.0)
        rho0 = rho if t == 0.0 else rho + (t_try - t) / (t - t_prev) * (rho - rho_prev)
        try:
            rho_new, iters, factorizations, res_sup, carried["lu"] = newton_solve(
                rho0, t_try, target, grid, cfg if t_try == 1.0 else path_cfg,
                carried.pop("lu", None))
        except (NoConvergence, *_INADMISSIBLE) as exc:
            dt = 0.5 * (t_try - t)
            if dt < _DT_MIN:
                raise ContinuationStalled(
                    f"step size underflow at t={t} (dt={dt:.3e} < {_DT_MIN:.1e}); "
                    f"last corrector failure: {type(exc).__name__}: {exc}",
                    SolutionField(rho, trace)) from exc
            continue
        t_prev, rho_prev, t, rho = t, rho, t_try, rho_new
        accept(grid, t, iters, res_sup, rho)
        if factorizations <= 1:
            dt *= _DT_GROWTH
    return rho


def continuation_solve(
    target: HomotopyTarget,
    grid,
    cfg: SolverConfig = None,
    validated: bool = False,
) -> SolutionField:
    """Follow the homotopy from the unit sphere at t = 0 to the target at t = 1.

    The path (see _follow_path) runs on the coarsest grid of the ladder grid,
    grid.coarsened(), ...; each finer grid then takes one Newton corrector at
    t = 1 from the coarser solution prolonged onto it, with no held solver.
    The path only has to reach the solution branch, and the prolonged
    solution starts the fine corrector inside its quadratic basin.  Should
    anything fail before the target grid's t = 1 state is accepted, the path
    is followed again on the target grid: the rows accepted so far stay in
    the trace, and no coarse field escapes in an exception.  `validated`
    asserts that the assumption checks passed, which turns the
    radial-containment and positivity monitors, checked on every accepted
    state, into hard invariants: a violation aborts with MonitorViolation.
    """
    trace = []

    def accept(on_grid, t, iters, res_sup, rho_now):
        snap = snapshot_bounds(rho_now, on_grid, target.p)
        trace.append(SolveStep(t=t, newton_iters=iters, residual_sup=res_sup, bounds=snap,
                               nodes=on_grid.node_count))
        if validated:
            radial = check_c0(snap, target.r1, target.r2)
            positive = check_positivity(snap)
            if not (radial.passed and positive.passed):
                raise MonitorViolation(
                    f"bounds monitor failed at t={t}: radial margins {radial.margins}, "
                    f"positivity {positive.margins}", SolutionField(rho_now, trace))

    ladder = [grid]
    while (coarser := ladder[-1].coarsened()) is not None:
        ladder.append(coarser)
    if len(ladder) > 1:
        try:
            rho = _follow_path(target, ladder[-1], cfg, accept, trace)
            for finer in reversed(ladder[:-1]):
                rho, iters, _, res_sup, _ = newton_solve(
                    finer.prolong(rho), 1.0, target, finer, cfg, lu=None)
                accept(finer, 1.0, iters, res_sup, rho)
            return SolutionField(rho, trace)
        except (ContinuationStalled, MonitorViolation, NoConvergence, *_INADMISSIBLE):
            pass  # follow the path on the target grid instead
    rho = _follow_path(target, grid, cfg, accept, trace)
    return SolutionField(rho, trace)
