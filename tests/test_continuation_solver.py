"""Solver-level checks: residual values, Jacobian oracles, Newton, continuation."""

import gc
import math
import pathlib
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from hessquot import cli, continuation_solver, estimates_monitor, sphere_grid
from hessquot.errors import (
    ConeViolation,
    ContinuationStalled,
    DegenerateJet,
    MonitorViolation,
    NoConvergence,
    NonpositiveF,
)
from hessquot.continuation_solver import (
    SolverConfig,
    assemble_jacobian,
    continuation_solve,
    newton_solve,
    residual_vector,
)
from hessquot.estimates_monitor import check_c0, check_positivity, snapshot_bounds
from hessquot.fspec import (
    make_homotopy,
    parse_f,
    reads_normal,
    reference_level,
    validate_assumptions,
)
from hessquot.manufactured import cosine_profile, manufactured_forcing
from hessquot.sphere_grid import (
    SphereGrid2D,
    build_axisym_grid,
    build_s2_grid,
    jet_arrays,
)
from hessquot.symfun import QuotientParams
from oracles import PointJet, assemble_point_geometry, linearize


# the prescription of configs/gauss_s2.ini
GAUSS_F = "rho^(-3) * (1 + 0.15 * x1 / rho)"


def radial_target(p, r1=0.5, r2=2.0):
    """Reference-decay prescription; the unit sphere solves it at every t."""
    level = reference_level(p)
    return make_homotopy(parse_f(f"{level} * rho^(-{p.gap + 1})"), p, r1, r2)


def at_field(fn, rho, grid, target, t):
    """fn(iterate, grid, target, t), for assemble_jacobian or _frame_partials,
    at the field rho, evaluated first as the corrector evaluates its iterates."""
    return fn(continuation_solver._residual_and_margin(rho, grid, target, t), grid, target, t)


def assembled(rho, grid, target, t):
    """J as a CSR matrix, the reference operator's rows weighted with the
    partials the Jacobian reads; assemble_jacobian's J is matrix-free."""
    return linearize(grid, at_field(continuation_solver._frame_partials, rho, grid, target, t))


def count_factorizations(monkeypatch):
    """Patch both factorizations a Newton step can make; returns the list of
    (kind, rows) they append to: ("bands", N) for the LU of J_u's bands on the
    axisymmetric grid and ("modes", n_theta * modes) for the 2-D grid's
    batched LU of its phi-mode blocks."""
    calls = []
    band_lu, mode_lu = sphere_grid._BandLU, sphere_grid._TridiagonalLU

    def counted_bands(lower, diag, upper):
        calls.append(("bands", diag.size))
        return band_lu(lower, diag, upper)

    def counted_modes(bands):
        calls.append(("modes", bands.shape[1] * bands.shape[2]))
        return mode_lu(bands)

    monkeypatch.setattr(sphere_grid, "_BandLU", counted_bands)
    monkeypatch.setattr(sphere_grid, "_TridiagonalLU", counted_modes)
    return calls


def refuse_t1(monkeypatch, every=False):
    """Patch newton_solve to refuse the first corrector attempt at t = 1, or
    every one; returns the (t, refused) attempts as they are made."""
    newton = continuation_solver.newton_solve
    attempts = []

    def refusing(rho0, t, *args, **kwargs):
        refused = t == 1.0 and (every or not attempts)
        attempts.append((t, refused))
        if refused:
            raise NoConvergence("injected failure of a t = 1 corrector")
        return newton(rho0, t, *args, **kwargs)

    monkeypatch.setattr(continuation_solver, "newton_solve", refusing)
    return attempts


class TestResidualVector:
    def test_unit_sphere_is_machine_zero_at_t0(self):
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        res = residual_vector(np.ones(65), grid, target, 0.0)
        assert np.abs(res).max() < 1e-14

    def test_radial_sign(self):
        # at t = 0 the reference bracket falls below rho^-m beyond the unit
        # sphere and exceeds it inside, so the log residual carries the sign
        # of (r - 1)
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        res_out = residual_vector(np.full(65, 1.5), grid, target, 0.0)
        res_in = residual_vector(np.full(65, 0.7), grid, target, 0.0)
        assert np.all(res_out > 0.0)
        assert np.all(res_in < 0.0)
        assert res_out.std() < 1e-12 and res_in.std() < 1e-12

    def test_t1_consistency_with_matching_constant(self):
        p = QuotientParams(3, 2, 0)
        level = reference_level(p)
        target = make_homotopy(parse_f(f"{level}"), p, 0.5, 2.0)
        grid = build_axisym_grid(65)
        res = residual_vector(np.ones(65), grid, target, 1.0)
        assert np.abs(res).max() < 1e-14

    def test_cone_violation_reports_node(self):
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        wild = 1.0 + 0.9 * np.cos(12.0 * grid.theta)
        with pytest.raises(ConeViolation) as err:
            residual_vector(wild, grid, target, 0.0)
        assert err.value.node is not None

    def test_overflowing_prescription_is_nonpositive(self):
        # exp(2000 (rho - 1)) overflows at rho = 1.5: the residual refuses the
        # state with NonpositiveF, and no numpy floating-point error escapes
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("12*rho^(-3)*exp(2000*(rho-1))"), p, 0.5, 2.0)
        with pytest.raises(NonpositiveF, match="value inf"):
            residual_vector(np.full(33, 1.5), build_axisym_grid(33), target, 1.0)

    def test_underflowing_node_is_degenerate(self):
        # rho^2 underflows to 0 at the 1e-200 node, so v is not finite there
        p = QuotientParams(3, 2, 0)
        rho = np.ones(33)
        rho[5] = 1e-200
        with pytest.raises(DegenerateJet):
            residual_vector(rho, build_axisym_grid(33), radial_target(p), 1.0)


    @pytest.mark.parametrize("mode", ["axisym", "s2"])
    def test_prescription_sees_the_oracle_normal(self, mode):
        # f_t gets X = rho x and nu in ambient coordinates: the dense oracle's
        # local-basis normal mapped through the grid's node frames
        if mode == "axisym":
            p, grid = QuotientParams(4, 3, 1), build_axisym_grid(33)
            rho = 1.0 + 0.1 * np.cos(grid.theta) + 0.05 * np.cos(2.0 * grid.theta)
        else:
            p, grid = QuotientParams(2, 2, 0), build_s2_grid(16, 32)
            tt = np.repeat(grid.theta, grid.n_phi)
            pp = np.tile(grid.phi, grid.n_theta)
            rho = 1.0 + 0.1 * np.sin(tt) * np.cos(pp) + 0.05 * np.sin(2.0 * tt) * np.sin(pp)
        seen = []

        def base(X, nu):
            seen.append((X, nu))
            return np.ones(len(X))

        residual_vector(rho, grid, make_homotopy(base, p, 0.5, 2.0), 1.0)
        (X, nu), = seen
        positions, frames = grid.node_frames(p.n)
        jets = jet_arrays(rho, grid, p.n)
        assert np.abs(X - rho[:, None] * positions).max() <= 1e-15
        if mode == "s2":
            assert np.abs(jets[2]).max() > 0.1
        for i in range(grid.node_count):
            frame_rho, g1, g2, h11, h12, h22 = jets[:, i]
            dense_grad = np.zeros(p.n)
            dense_grad[:2] = g1, g2
            dense_hess = np.diag([h11] + [h22] * (p.n - 1))
            dense_hess[0, 1] = dense_hess[1, 0] = h12
            dense = assemble_point_geometry(PointJet(frame_rho, dense_grad, dense_hess), p.n)
            expected = dense.nu[0] * positions[i] + dense.nu[1:3] @ frames[i]
            assert np.abs(nu[i] - expected).max() <= 1e-13


class TestJacobian:
    def test_radial_reduction_oracle(self):
        # J applied to the constant vector equals d/dr residual(rho = r) at r=1
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        J = at_field(assemble_jacobian, np.ones(65), grid, target, 0.0)
        radial = J @ np.ones(65)
        h = 1e-6
        up = residual_vector(np.full(65, 1.0 + h), grid, target, 0.0)
        dn = residual_vector(np.full(65, 1.0 - h), grid, target, 0.0)
        oracle = (up - dn) / (2.0 * h)
        assert radial == pytest.approx(oracle, rel=1e-5)
        assert np.all(radial > 0.0)
        # the t = 0 zero-order term is the blending epsilon times the degree gap
        assert radial == pytest.approx(
            np.full(65, target.epsilon * p.gap), rel=1e-5
        )

    def test_directional_fd_oracle(self):
        p = QuotientParams(4, 3, 1)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        rng = np.random.default_rng(7)
        rho = 1.0 + 0.02 * np.cos(2.0 * grid.theta)
        J = at_field(assemble_jacobian, rho, grid, target, 0.4)
        base = residual_vector(rho, grid, target, 0.4)
        for _ in range(3):
            w = rng.normal(size=65)
            w /= np.abs(w).max()
            # the one-sided truncation carries the squared stencil weights, so
            # the probe step sits well below the usual sqrt(eps)
            h = 1e-9
            fd = (residual_vector(rho + h * w, grid, target, 0.4) - base) / h
            Jw = J @ w
            assert np.abs(Jw - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_s2_radial_response_matches_axisym(self):
        p2 = QuotientParams(2, 2, 0)
        target = radial_target(p2)
        grid_a = build_axisym_grid(33)
        grid_s = build_s2_grid(16, 32)
        Ja = at_field(assemble_jacobian, np.ones(33), grid_a, target, 0.0)
        Js = at_field(assemble_jacobian, np.ones(grid_s.node_count), grid_s, target, 0.0)
        ra = Ja @ np.ones(33)
        rs = Js @ np.ones(grid_s.node_count)
        assert ra.mean() == pytest.approx(rs.mean(), rel=1e-4)

    def test_s2_directional_fd_oracle(self):
        p = QuotientParams(2, 2, 0)
        target = make_homotopy(parse_f("rho^(-3) * (1 + 0.15 * x1 / rho)"), p, 0.5, 2.0)
        grid = build_s2_grid(16, 32)
        tt = np.repeat(grid.theta, grid.n_phi)
        pp = np.tile(grid.phi, grid.n_theta)
        rho = 1.0 + 0.02 * np.sin(tt) * np.cos(pp) + 0.01 * np.cos(2.0 * tt)
        J = at_field(assemble_jacobian, rho, grid, target, 0.5)
        # the 3x3 stencil, closed across the poles, touches at most 9 nodes
        assert np.diff(assembled(rho, grid, target, 0.5).indptr).max() <= 9
        rng = np.random.default_rng(11)
        for _ in range(3):
            w = rng.normal(size=grid.node_count)
            w /= np.abs(w).max()
            # central differences; the step stays small against the squared
            # near-pole azimuthal stencil weights
            h = 1e-7
            fd = (
                residual_vector(rho + h * w, grid, target, 0.5)
                - residual_vector(rho - h * w, grid, target, 0.5)
            ) / (2.0 * h)
            assert np.abs(J @ w - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_sparsity_is_stencil_local(self):
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(33)
        J = at_field(assemble_jacobian, np.ones(33), grid, target, 0.0)
        J = np.column_stack([J @ column for column in np.eye(33)])
        for i in range(33):
            for j in range(33):
                if abs(i - j) > 1:
                    assert J[i, j] == 0.0


def bumped_jacobian(rho, grid, target, t):
    """The Jacobian assemble_jacobian used to build, kept as an oracle: one
    forward difference of the whole pointwise residual per frame row of the
    grid's jet operator, with step sqrt(eps) max(1, |j_r|)."""
    jets = jet_arrays(rho, grid, target.p.n)
    base = continuation_solver._pointwise_residual(jets, grid, target, t).res
    partials = np.zeros_like(jets)
    for r in range(6):
        bumped = jets.copy()
        bumped[r] += math.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(jets[r]))
        residual = continuation_solver._pointwise_residual(bumped, grid, target, t).res
        partials[r] = (residual - base) / (bumped[r] - jets[r])
    return linearize(grid, partials)


# the (n, k, l) of the benchmark's axisymmetric problems
AXISYM_DIMS = [(3, 2, 0), (4, 3, 1), (6, 4, 2), (8, 6, 2), (12, 6, 0)]


class TestClosedFormJacobian:
    """The closed-form Jacobian against a fourth-order central difference of the
    residual along random directions, and against the bumped-jets oracle."""

    # relative sup error; measured worst 1.1e-8 (axisym) and 4.0e-9 (s2), where
    # the bumped oracle errs up to 1.9e-7 and 1.0e-6
    TOL = 1e-7

    def check(self, rho, grid, target, t, h, seed):
        J = at_field(assemble_jacobian, rho, grid, target, t)
        oracle = bumped_jacobian(rho, grid, target, t)

        def residual(c):
            return residual_vector(rho + c * h * w, grid, target, t)

        rng = np.random.default_rng(seed)
        for _ in range(3):
            w = rng.normal(size=grid.node_count)
            w /= np.abs(w).max()
            fd = (residual(-2) - 8.0 * residual(-1) + 8.0 * residual(1) - residual(2)) / (12.0 * h)
            scale = np.abs(fd).max()
            error = np.abs(J @ w - fd).max() / scale
            assert error <= self.TOL
            assert error <= np.abs(oracle @ w - fd).max() / scale

    @pytest.mark.parametrize("nkl", AXISYM_DIMS)
    def test_axisym_dims(self, nkl):
        p = QuotientParams(*nkl)
        text = f"{reference_level(p)} * rho^(-{p.gap + 1}) * (1 + 0.2 * x1 / rho)"
        target = make_homotopy(parse_f(text), p, 0.5, 2.0)
        grid = build_axisym_grid(65)
        rho = 1.0 + 0.03 * np.cos(2.0 * grid.theta) + 0.01 * np.cos(3.0 * grid.theta)
        self.check(rho, grid, target, 0.6, h=1e-5, seed=sum(nkl))

    def test_s2_non_zonal(self):
        p = QuotientParams(2, 2, 0)
        text = "rho^(-3) * (1 + 0.15 * x1 / rho + 0.1 * x2 / rho + 0.1 * nu3)"
        target = make_homotopy(parse_f(text), p, 0.5, 2.0)
        grid = build_s2_grid(16, 32)
        tt = np.repeat(grid.theta, grid.n_phi)
        pp = np.tile(grid.phi, grid.n_theta)
        rho = (1.0 + 0.02 * np.sin(tt) * np.cos(pp) + 0.01 * np.cos(2.0 * tt)
               + 0.002 * np.sin(2.0 * tt) * np.sin(3.0 * pp))
        # the step stays small against the squared near-pole azimuthal weights
        self.check(rho, grid, target, 0.5, h=1e-6, seed=3)


class TestNewton:
    def test_converges_to_unit_sphere(self):
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        rng = np.random.default_rng(5)
        bump = rng.normal(size=4)
        rho0 = 1.0 + 0.01 * (
            np.cos(grid.theta) * bump[0]
            + np.cos(2 * grid.theta) * bump[1]
            + np.cos(3 * grid.theta) * bump[2]
            + bump[3]
        ) / np.abs(bump).max()
        rho, iters, *_ = newton_solve(rho0, 0.0, target, grid, SolverConfig())
        assert np.abs(rho - 1.0).max() <= 1e-8
        assert iters <= 10

    def test_root_needs_no_iterations(self):
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        rho, iters, *_ = newton_solve(np.ones(65), 0.0, target, grid, SolverConfig())
        assert iters == 0
        assert np.array_equal(rho, np.ones(65))

    def test_wrong_lu_falls_back_to_fresh_factorization(self):
        # the identity is a wrong Jacobian: its chord step must fail the
        # contraction test and hand over to a freshly factored J
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)"), p, 0.5, 2.0)
        grid = build_axisym_grid(65)
        cfg = SolverConfig()
        unit = np.zeros((6, 65))
        unit[0] = 1.0
        identity = grid.log_solver(grid.jacobian(unit), np.ones(65))
        fresh = newton_solve(np.ones(65), 0.3, target, grid, cfg)
        reused = newton_solve(np.ones(65), 0.3, target, grid, cfg, lu=identity)
        # the rejected chord trial costs no iteration, so the two runs coincide
        assert reused[1:3] == fresh[1:3]
        assert reused[3] <= grid.newton_tol
        assert reused[3] == pytest.approx(
            np.abs(residual_vector(reused[0], grid, target, 0.3)).max(), abs=1e-15)
        assert np.abs(reused[0] - fresh[0]).max() <= grid.newton_tol

    def test_inadmissible_start_raises(self):
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        wild = 1.0 + 0.9 * np.cos(12.0 * grid.theta)
        with pytest.raises(ConeViolation):
            newton_solve(wild, 0.0, target, grid, SolverConfig())

    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
    def test_singular_jacobian_raises_no_convergence(self, monkeypatch, fill):
        # zero partials make J_u's bands 0, whose first pivot is exactly 0;
        # NaN ones make a NaN step
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        monkeypatch.setattr(continuation_solver, "_frame_partials",
                            lambda *args: np.full((6, 65), fill))
        with pytest.raises(NoConvergence, match="singular Newton system"):
            newton_solve(np.full(65, 1.01), 0.0, target, grid, SolverConfig())

    @staticmethod
    def scaled_identity(monkeypatch, scale, N=65):
        """Inject partials whose J is scale I."""
        partials = np.zeros((6, N))
        partials[0] = scale
        monkeypatch.setattr(continuation_solver, "_frame_partials", lambda *args: partials)

    def test_overflowing_step_raises_no_convergence(self, monkeypatch):
        # J_u = 1.01e-320 I factors (a subnormal pivot is not zero), but
        # -R / 1.01e-320 overflows: the step is refused before any trial is
        # evaluated
        p = QuotientParams(3, 2, 0)
        self.scaled_identity(monkeypatch, 1e-320)
        with pytest.raises(NoConvergence, match="non-finite Newton step"):
            newton_solve(np.full(65, 1.01), 0.0, radial_target(p), build_axisym_grid(65),
                         SolverConfig())

    @pytest.mark.parametrize("mode", ["axisym", "s2"])
    def test_overflowing_log_step_is_refused(self, monkeypatch, mode):
        # J_u = -1.01e-300 I factors, and the step -R / -1.01e-300 is finite,
        # but exp(du) overflows: the trial rho is inf, whose jets are inf and
        # NaN without a floating-point error, and which the evaluation
        # refuses, so the fresh step fails and the corrector gives up
        if mode == "axisym":
            grid, p = build_axisym_grid(65), QuotientParams(3, 2, 0)
        else:
            grid, p = build_s2_grid(16, 32), QuotientParams(2, 2, 0)
        self.scaled_identity(monkeypatch, -1e-300, grid.node_count)
        with pytest.raises(NoConvergence, match="inadmissible or not decreasing"):
            newton_solve(np.full(grid.node_count, 1.01), 0.0, radial_target(p), grid,
                         SolverConfig())

    @pytest.mark.parametrize("mode", ["axisym", "s2"])
    def test_dilation_is_one_log_step(self, monkeypatch, mode):
        # f = c rho^(-(k-l)-1) is solved by the sphere of radius 1.5, and the
        # log residual of a dilation rho = exp(u) is linear in u: the first
        # log step from the unit sphere lands on it up to the error of the
        # linear solve and of J's forward-differenced f partials (about 3e-8
        # relative on both grids), where a step in rho would miss by O(0.1)
        factorizations = count_factorizations(monkeypatch)
        if mode == "axisym":
            grid, p, f = build_axisym_grid(65), QuotientParams(3, 2, 0), "18 * rho^(-3)"
        else:
            grid, p, f = build_s2_grid(32, 64), QuotientParams(2, 2, 0), "1.5 * rho^(-3)"
        target = make_homotopy(parse_f(f), p, 0.5, 2.0)
        sol = continuation_solve(target, grid)
        assert sol.trace[-1].t == 1.0 and sol.trace[-1].nodes == grid.node_count
        assert np.abs(sol.rho - 1.5).max() <= 1e-12
        assert all(step.newton_iters <= 2 for step in sol.trace)
        # one factorization on the path; the s2 GMRES step stops at its Krylov
        # tolerance, so each finer rung may take one more
        assert 1 <= len(factorizations) <= len({step.nodes for step in sol.trace})
        start = np.ones(grid.node_count)
        rho, iters, fresh, *_ = newton_solve(start, 1.0, target, grid,
                                             SolverConfig(newton_tol=1e-6))
        assert (iters, fresh) == (1, 1)
        assert np.linalg.norm(residual_vector(rho, grid, target, 1.0)) <= 1e-6 * np.linalg.norm(
            residual_vector(start, grid, target, 1.0))

    def test_failed_fresh_step_raises_at_once(self, monkeypatch):
        # -J points uphill: the full step fails its decrease test, and the
        # corrector must give up without shortening the step in rho
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)"), p, 0.5, 2.0)
        grid = build_axisym_grid(33)
        partials = continuation_solver._frame_partials
        residual = continuation_solver._residual_and_margin
        calls = {"residual": 0}

        def counted_residual(*args):
            calls["residual"] += 1
            return residual(*args)

        monkeypatch.setattr(continuation_solver, "_frame_partials", lambda *args: -partials(*args))
        monkeypatch.setattr(continuation_solver, "_residual_and_margin", counted_residual)
        factorizations = count_factorizations(monkeypatch)
        with pytest.raises(NoConvergence):
            newton_solve(np.ones(33), 0.5, target, grid, SolverConfig())
        assert calls == {"residual": 2} and factorizations == [("bands", 33)]


class TestRingKrylov:
    """The s2 Newton step: GMRES on the matrix-free J_u, preconditioned with
    the phi-mode factor of J_u averaged over each theta ring."""

    # the benchmark's s2-gauss prescription at seed 1
    SEED1_F = "rho^(-3) * (1 + (0.065172*x1 - 0.092813*x2 - 0.002487*x3) / rho)"

    @staticmethod
    def angles(grid):
        return np.repeat(grid.theta, grid.n_phi), np.tile(grid.phi, grid.n_theta)

    @staticmethod
    def solver_at(rho, grid, target):
        """The held solver at rho and t = 1, the partials it read and the iterate."""
        it = continuation_solver._residual_and_margin(rho, grid, target, 1.0)
        partials = continuation_solver._frame_partials(it, grid, target, 1.0)
        return grid.log_solver(grid.jacobian(partials), rho), partials, it

    @pytest.mark.parametrize("shape", [(16, 32), (32, 64)])
    @pytest.mark.parametrize("field", ["sphere", "zonal"])
    def test_mode_factor_is_j_u_on_ring_constant_states(self, shape, field):
        grid = build_s2_grid(*shape)
        tt, pp = self.angles(grid)
        rho = np.ones(grid.node_count) if field == "sphere" else 1.0 + 0.05 * np.cos(2.0 * tt)
        target = make_homotopy(parse_f(GAUSS_F), QuotientParams(2, 2, 0), 0.5, 2.0)
        it = continuation_solver._residual_and_margin(rho, grid, target, 1.0)
        # the f partials are forward differences, constant on a ring only to
        # about 1e-8; their ring means are constant on it exactly
        partials = continuation_solver._frame_partials(it, grid, target, 1.0).reshape(
            6, grid.n_theta, grid.n_phi).mean(axis=2).repeat(grid.n_phi, axis=1)
        # and the rows odd in phi, grad_2 and hess_12, whose partials vanish
        # on zonal states, get some, so that the symbols' signs show
        partials[2] += 0.2
        partials[4] += 0.1 * np.cos(tt)
        solver = grid.log_solver(grid.jacobian(partials), rho)
        lu = scipy.sparse.linalg.splu(
            (linearize(grid, partials) @ scipy.sparse.diags(rho)).tocsc())
        # even and odd modes, and the Nyquist mode, which crosses a pole as (-1)^m
        for m in (0, 1, 2, 3, grid.n_phi // 2 - 1, grid.n_phi // 2):
            b = np.cos(m * pp + 0.3) * (1.0 + np.sin(3.0 * tt))
            expected = lu.solve(b)
            scale = np.abs(expected).max()
            assert np.abs(solver.precondition(b) - expected).max() <= 1e-12 * scale
            assert np.abs(solver.solve(b) - expected).max() <= 1e-12 * scale
            assert solver.iterations == 1

    @pytest.mark.parametrize("rtol", [sphere_grid._KRYLOV_RTOL, 1e-8])
    @pytest.mark.parametrize("shape", [(24, 48), (48, 96), (96, 192)])
    def test_gmres_iterations_do_not_grow_with_the_grid(self, monkeypatch, shape, rtol):
        # measured: 2 iterations at 1e-3 and 5 at 1e-8 on every size
        monkeypatch.setattr(sphere_grid, "_KRYLOV_RTOL", rtol)
        grid = build_s2_grid(*shape)
        tt, pp = self.angles(grid)
        rho = (1.0 + 0.05 * np.sin(tt) * np.cos(pp) + 0.02 * np.sin(tt) * np.cos(tt) * np.sin(pp)
               + 0.01 * np.cos(2.0 * tt))
        target = make_homotopy(parse_f(self.SEED1_F), QuotientParams(2, 2, 0), 0.5, 2.0)
        solver, partials, it = self.solver_at(rho, grid, target)
        b = -it.res
        x = solver.solve(b)
        J_u = linearize(grid, partials) @ scipy.sparse.diags(rho)
        assert np.linalg.norm(b - J_u @ x) <= rtol * np.linalg.norm(b)
        assert solver.iterations <= 6

    def test_held_solver_is_freed_without_the_cycle_collector(self):
        grid = build_s2_grid(16, 32)
        target = make_homotopy(parse_f(GAUSS_F), QuotientParams(2, 2, 0), 0.5, 2.0)
        solver, _, it = self.solver_at(np.ones(grid.node_count), grid, target)
        solver.solve(-it.res)
        held = weakref.ref(solver)
        gc.disable()
        try:
            del solver
            assert held() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
    def test_singular_mode_blocks_raise_no_convergence(self, monkeypatch, fill):
        # zero partials make every mode block exactly singular, which the
        # factor refuses; NaN ones make a NaN preconditioned vector, on which
        # GMRES breaks down: both end the corrector, and neither warns
        grid = build_s2_grid(16, 32)
        target = make_homotopy(parse_f(GAUSS_F), QuotientParams(2, 2, 0), 0.5, 2.0)
        monkeypatch.setattr(continuation_solver, "assemble_jacobian",
                            lambda it, grid, *args: grid.jacobian(
                                np.full((6, grid.node_count), fill)))
        with pytest.raises(NoConvergence, match="singular Newton system"):
            newton_solve(np.ones(grid.node_count), 1.0, target, grid)

    @pytest.mark.parametrize("shape, iters", [((16, 32), [0, 5]), ((32, 64), [0, 5, 2]),
                                              ((48, 96), [0, 5, 1])])
    def test_gauss_s2_newton_iterations_per_trace_row(self, shape, iters):
        # the counts of the sparse LU of J_u that the s2 step used before
        target = make_homotopy(parse_f(GAUSS_F), QuotientParams(2, 2, 0), 0.5, 2.0)
        sol = continuation_solve(target, build_s2_grid(*shape), validated=True)
        assert [step.newton_iters for step in sol.trace] == iters
        assert sol.trace[-1].t == 1.0


class TestAxisymLogSolver:
    """The axisymmetric Newton step: the LU of J_u's three bands."""

    @pytest.mark.parametrize("N, nkl", [(65, nkl) for nkl in AXISYM_DIMS] + [(1025, (3, 2, 0))])
    def test_solves_j_u_like_a_dense_solve(self, N, nkl):
        # measured: at most 4e-13 relative, at N = 1025
        p = QuotientParams(*nkl)
        text = f"{reference_level(p)} * rho^(-{p.gap + 1}) * (1 + 0.2 * x1 / rho)"
        target = make_homotopy(parse_f(text), p, 0.5, 2.0)
        grid = build_axisym_grid(N)
        rho = 1.0 + 0.03 * np.cos(2.0 * grid.theta) + 0.01 * np.cos(3.0 * grid.theta)
        partials = at_field(continuation_solver._frame_partials, rho, grid, target, 0.6)
        solver = grid.log_solver(grid.jacobian(partials), rho)
        rng = np.random.default_rng(N + sum(nkl))
        J_u = linearize(grid, partials).toarray() * rho
        for _ in range(2):
            b = rng.normal(size=N)
            expected = np.linalg.solve(J_u, b)
            assert np.abs(solver.solve(b) - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("node", [0, 7, 32])
    def test_zero_pivot_raises_no_convergence(self, monkeypatch, node):
        # J_u is the identity but for a zero row and column at `node`, so the
        # factor meets an exactly zero pivot there
        partials = np.zeros((6, 33))
        partials[0] = 1.0
        partials[0, node] = 0.0
        monkeypatch.setattr(continuation_solver, "_frame_partials", lambda *args: partials)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="singular Newton system .*exactly singular"):
                newton_solve(np.full(33, 1.01), 0.0, radial_target(QuotientParams(3, 2, 0)),
                             build_axisym_grid(33), SolverConfig())


class TestContinuation:
    def test_t_independent_radial_problem(self):
        # prescription equal to the t = 0 reference: path stays at the sphere
        p = QuotientParams(3, 2, 0)
        level = reference_level(p)
        eps = make_homotopy(parse_f("1"), p, 0.5, 2.0).epsilon
        text = f"{level} * (rho^(-2) + {eps} * (rho^(-2) - 1))"
        target = make_homotopy(parse_f(text), p, 0.5, 2.0)
        grid = build_axisym_grid(65)
        sol = continuation_solve(target, grid, SolverConfig(), validated=False)
        assert np.abs(sol.rho - 1.0).max() < 1e-10
        assert sol.trace[-1].t == 1.0

    def test_decaying_radial_problem_returns_sphere(self):
        p = QuotientParams(3, 2, 0)
        target = radial_target(p)
        grid = build_axisym_grid(65)
        sol = continuation_solve(target, grid, SolverConfig(), validated=True)
        assert np.abs(sol.rho - 1.0).max() <= 1e-8
        ts = [s.t for s in sol.trace]
        assert ts == sorted(ts) and ts[-1] == 1.0
        for step in sol.trace:
            assert step.residual_sup <= grid.newton_tol
            assert step.bounds.cone_margin_min > 0.0
            # the curvature and gradient suprema stay finite along the path;
            # no numeric threshold exists for them, only boundedness
            assert np.isfinite(step.bounds.kappa_sup)
            assert np.isfinite(step.bounds.grad_sup)

    def test_manufactured_solution_recovery(self):
        profile = cosine_profile(0.05, 2)
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(manufactured_forcing(p, profile), p, 0.5, 2.0)
        grid = build_axisym_grid(65)
        sol = continuation_solve(target, grid, SolverConfig(), validated=False)
        assert np.abs(sol.rho - profile.value(grid.theta)).max() < 5e-4

    def test_determinism(self):
        p = QuotientParams(3, 2, 0)
        base = parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)")
        target = make_homotopy(base, p, 0.5, 2.0)
        grid1 = build_axisym_grid(65)
        grid2 = build_axisym_grid(65)
        a = continuation_solve(target, grid1, SolverConfig(), validated=True)
        b = continuation_solve(target, grid2, SolverConfig(), validated=True)
        assert np.array_equal(a.rho, b.rho)
        assert [s.t for s in a.trace] == [s.t for s in b.trace]
        assert [s.residual_sup for s in a.trace] == [
            s.residual_sup for s in b.trace
        ]

    def test_accept_reuses_corrector_residual(self, monkeypatch):
        def no_residual(*args, **kwargs):
            raise AssertionError("the corrector's residual must be reused")

        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)"), p, 0.5, 2.0)
        monkeypatch.setattr(continuation_solver, "residual_vector", no_residual)
        grid = build_axisym_grid(33)
        sol = continuation_solve(target, grid, SolverConfig())
        assert sol.trace[-1].t == 1.0
        # correctors short of t = 1 stop at sqrt(newton_tol), the t = 1 one at newton_tol
        tol = grid.newton_tol
        for s in sol.trace:
            assert s.residual_sup <= (tol if s.t == 1.0 else math.sqrt(tol))

    def test_corrector_starts_from_secant_prediction(self, monkeypatch):
        # the first t = 1 attempt is refused, so the path has a t < 1 state
        refuse_t1(monkeypatch)
        newton = continuation_solver.newton_solve
        attempts = []  # (t, rho0, rho or None when the corrector failed)

        def recorded(rho0, t, *args, **kwargs):
            attempts.append((t, np.array(rho0), None))
            out = newton(rho0, t, *args, **kwargs)
            attempts[-1] = (t, attempts[-1][1], out[0])
            return out

        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)"), p, 0.5, 2.0)
        monkeypatch.setattr(continuation_solver, "newton_solve", recorded)
        sol = continuation_solve(target, build_axisym_grid(33), SolverConfig())
        assert sol.trace[-1].t == 1.0 and len(attempts) >= 3
        assert np.array_equal(attempts[0][1], np.ones(33))
        accepted = [(0.0, np.ones(33))]
        for i, (t, rho0, rho) in enumerate(attempts):
            t1, r1 = accepted[-1]
            predicted = r1
            if len(accepted) > 1:
                t0, r0 = accepted[-2]
                predicted = r1 + (t - t1) / (t1 - t0) * (r1 - r0)
            np.testing.assert_allclose(rho0, predicted, rtol=1e-14, atol=0)
            if i >= 2:  # the prediction moves the start off the last accepted state
                assert np.abs(rho0 - r1).max() > 1e-6
            if rho is not None:
                accepted.append((t, rho))

    def test_refused_first_step_is_halved(self, monkeypatch):
        attempts = refuse_t1(monkeypatch)
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)"), p, 0.5, 2.0)
        sol = continuation_solve(target, build_axisym_grid(33), SolverConfig())
        assert sol.trace[-1].t == 1.0
        assert attempts[:2] == [(1.0, True), (0.5, False)]

    def test_refused_t_try_is_not_retried_from_the_same_state(self, monkeypatch):
        # a failed attempt halves the step it took, even when t + dt was
        # clamped to 1, so the path never retries a refused t = 1 from the
        # state it was refused from
        attempts = refuse_t1(monkeypatch, every=True)
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)"), p, 0.5, 2.0)
        with pytest.raises(ContinuationStalled) as err:
            continuation_solve(target, build_axisym_grid(33), SolverConfig())
        assert err.value.solution.trace[-1].t < 1.0
        state, refused_from = 0.0, set()
        for t, refused in attempts:
            assert (state, t) not in refused_from
            if refused:
                refused_from.add((state, t))
            else:
                state = t
        assert len(refused_from) > 1

    def test_lu_is_reused_across_iterations(self, monkeypatch):
        # on s2 the factor is the one of the phi-mode blocks, tridiagonal in
        # theta; J_u itself is never factored
        calls = count_factorizations(monkeypatch)
        p = QuotientParams(2, 2, 0)
        target = make_homotopy(parse_f("rho^(-3) * (1 + 0.15 * x1 / rho)"), p, 0.5, 2.0)
        sol = continuation_solve(target, build_s2_grid(16, 32), SolverConfig(newton_tol=1e-8))
        assert sol.trace[-1].t == 1.0
        assert 0 < len(calls) < sum(s.newton_iters for s in sol.trace)
        assert set(calls) == {("modes", 16 * (32 // 2 + 1))}

    def test_stall_reports_partial_trace(self, monkeypatch):
        p = QuotientParams(3, 2, 0)
        base = parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)")
        target = make_homotopy(base, p, 0.5, 2.0)
        grid = build_axisym_grid(65)
        monkeypatch.setattr(continuation_solver, "_MAX_NEWTON", 1)
        monkeypatch.setattr(continuation_solver, "_DT_MIN", 0.09)
        with pytest.raises(ContinuationStalled) as err:
            continuation_solve(target, grid, SolverConfig(), validated=False)
        assert err.value.solution.trace  # the t = 0 step is still recorded
        assert err.value.solution.trace[-1].t == 0.0
        assert err.value.solution.rho.shape == (65,)
        # the stall names the last corrector failure and chains it as the cause
        assert "NoConvergence" in str(err.value)
        assert isinstance(err.value.__cause__, NoConvergence)

    def test_nan_prescription_stalls_with_nonpositive_cause(self):
        # f is NaN only at the pole node, where 0 * exp(...) overflows; a NaN
        # residual must not pass the convergence test as converged, even for
        # a caller that skips the validator, which samples the pole
        p = QuotientParams(3, 2, 0)
        base = parse_f("12 * rho^(-3) * (1 + 0 * exp(1000000 * (x1 / rho - 0.999)))")
        target = make_homotopy(base, p, 0.5, 2.0)
        assert not validate_assumptions(base, p, 0.5, 2.0).all_passed
        with pytest.raises(ContinuationStalled) as err:
            continuation_solve(target, build_axisym_grid(65), SolverConfig(), validated=False)
        assert err.value.solution.trace[-1].t == 0.0
        assert isinstance(err.value.__cause__, NonpositiveF)
        assert "at node 0 (value nan)" in str(err.value)

    def test_monitor_abort_on_false_attestation(self):
        # claiming a tight annulus is validated must abort, not continue
        p = QuotientParams(3, 2, 0)
        base = parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)")
        target = make_homotopy(base, p, 0.9, 1.02)
        grid = build_axisym_grid(65)
        with pytest.raises(MonitorViolation) as err:
            continuation_solve(target, grid, SolverConfig(), validated=True)
        bounds = err.value.solution.bounds
        assert bounds.rho_max >= 1.02 or bounds.rho_min <= 0.9

    def test_failed_ladder_stalls_on_target_grid(self, monkeypatch):
        # every t = 1 corrector on the 32x64 target fails, the ladder's fine
        # rung and then the fallback path's: the stall carries the target
        # grid's field, not the coarse rung's
        newton = continuation_solver.newton_solve

        def refused_on_target(rho0, t, target, grid, *args, **kwargs):
            if t == 1.0 and grid.node_count == 2048:
                raise NoConvergence("t = 1 refused on the target grid")
            return newton(rho0, t, target, grid, *args, **kwargs)

        target = make_homotopy(parse_f(GAUSS_F), QuotientParams(2, 2, 0), 0.5, 2.0)
        monkeypatch.setattr(continuation_solver, "newton_solve", refused_on_target)
        with pytest.raises(ContinuationStalled) as err:
            continuation_solve(target, build_s2_grid(32, 64))
        solution = err.value.solution
        assert solution.trace[0].nodes == 512  # the ladder was tried first
        assert solution.rho.size == solution.trace[-1].nodes == 2048

    def test_failed_ladder_monitor_abort_on_target_grid(self):
        grid = build_s2_grid(32, 64)
        target = make_homotopy(parse_f(GAUSS_F), QuotientParams(2, 2, 0), 0.9, 1.02)
        with pytest.raises(MonitorViolation) as err:
            continuation_solve(target, grid, validated=True)
        solution = err.value.solution
        assert solution.trace[0].nodes == 512  # the ladder was tried first
        assert solution.rho.size == solution.trace[-1].nodes == 2048
        # the bounds are the violating row's, the snapshot of the field carried
        bounds = solution.bounds
        assert bounds is solution.trace[-1].bounds
        assert bounds == snapshot_bounds(solution.rho, grid, target.p)
        assert not (check_c0(bounds, 0.9, 1.02).passed and check_positivity(bounds).passed)

    @pytest.mark.parametrize("cfg", [None, SolverConfig()], ids=["none", "unset"])
    def test_default_tolerance_is_the_grids_on_s2(self, cfg):
        # 1e-10, the axisym tolerance, lies below the s2 round-off floor at
        # 64x128, where a t = 1 corrector held to it stalls the path
        target = make_homotopy(parse_f(GAUSS_F), QuotientParams(2, 2, 0), 0.5, 2.0)
        sol = continuation_solve(target, build_s2_grid(64, 128), cfg)
        assert sol.trace[-1].t == 1.0 and sol.trace[-1].nodes == 8192
        assert sol.trace[-1].residual_sup <= 1e-8

    def test_zonal_s2_solution_is_zonal(self):
        p = QuotientParams(2, 2, 0)
        target = radial_target(p)
        grid = build_s2_grid(16, 32)
        tt = np.repeat(grid.theta, grid.n_phi)
        rho0 = 1.0 + 0.01 * np.cos(tt)
        cfg = SolverConfig(newton_tol=1e-8)
        rho, *_ = newton_solve(rho0, 0.0, target, grid, cfg)
        rings = rho.reshape(grid.n_theta, grid.n_phi)
        assert (rings.max(axis=1) - rings.min(axis=1)).max() <= 10 * cfg.newton_tol
        assert np.abs(rho - 1.0).max() <= 1e-7


class TestWorkCounts:
    """The shipped configs solve with no more work than one corrector at t = 1
    from the unit sphere takes: 1 factorization and 7 and 5 log-radius Newton
    iterations, and none for radial.ini, which the unit sphere solves."""

    CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

    @pytest.mark.parametrize("name, max_factorizations, max_iters",
                             [("anisotropic", 1, 7), ("gauss_s2", 1, 5), ("radial", 0, 0)],
                             ids=["anisotropic", "gauss_s2", "radial"])
    def test_shipped_config_counts(self, monkeypatch, name, max_factorizations, max_iters):
        factorizations = count_factorizations(monkeypatch)
        cfg = cli.load_config(str(self.CONFIGS / f"{name}.ini"))
        p = QuotientParams(cfg.problem.n, cfg.problem.k, cfg.problem.l)
        target = make_homotopy(parse_f(cfg.problem.f), p, cfg.problem.r1, cfg.problem.r2)
        sol = continuation_solve(target, cli._build_grid(cfg.grid), cfg.solver, validated=True)
        assert sol.trace[-1].t == 1.0
        assert len(factorizations) <= max_factorizations
        assert sum(step.newton_iters for step in sol.trace) <= max_iters

    @pytest.mark.parametrize("mode, f", [
        ("axisym", "12 * rho^(-3) * (1 + 0.2 * x1 / rho)"),
        ("axisym", "12 * rho^(-3) * (1 + 0.2 * x1 / rho + 0.1 * nu1)"),
        ("s2", GAUSS_F),
        ("s2", "rho^(-3) * (1 + 0.15 * x1 / rho + 0.1 * nu2)"),
    ], ids=["axisym", "axisym-nu", "s2", "s2-nu"])
    def test_one_evaluation_per_iterate(self, monkeypatch, mode, f):
        # J reads the jets, geometry, sigma and f_t its iterate was evaluated
        # with: no geometry of its own, and f only at the bumped jets, whose
        # gradient rows only an f that reads nu needs; each accepted state's
        # bounds come from its corrector's last iterate, with no geometry
        calls = {}

        def count(module, name):
            fn = getattr(module, name)
            key = f"{module.__name__}.{name}"
            calls[key] = 0

            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("geometry_batch", "eval_homotopy", "_residual_and_margin",
                     "assemble_jacobian"):
            count(continuation_solver, name)
        count(estimates_monitor, "geometry_batch")
        if mode == "axisym":
            grid, p = build_axisym_grid(65), QuotientParams(3, 2, 0)
        else:
            grid, p = build_s2_grid(32, 64), QuotientParams(2, 2, 0)
        base = parse_f(f)
        sol = continuation_solve(make_homotopy(base, p, 0.5, 2.0), grid)
        solver = "hessquot.continuation_solver."
        jacobians = calls[solver + "assemble_jacobian"]
        assert sol.trace[-1].t == 1.0 and jacobians > 0
        evals = calls[solver + "_residual_and_margin"]
        assert calls[solver + "geometry_batch"] == evals
        assert calls["hessquot.estimates_monitor.geometry_batch"] == 0
        bumped = 1 + len(grid.gradient_rows) if reads_normal(base) else 1
        assert reads_normal(base) == ("nu" in f)
        assert calls[solver + "eval_homotopy"] == evals + jacobians * bumped


class TestGridSequencing:
    """On the 2-sphere the path runs on the coarsest halving and each finer
    grid takes one corrector at t = 1; anything that fails falls back to the
    path on the target grid."""

    TOL = 1e-8

    @staticmethod
    def gauss_target():
        p = QuotientParams(2, 2, 0)
        return make_homotopy(parse_f("rho^(-3) * (1 + 0.15 * x1 / rho)"), p, 0.5, 2.0)

    def full_path(self, monkeypatch, target, grid):
        with monkeypatch.context() as m:
            m.setattr(SphereGrid2D, "coarsened", lambda self: None)
            return continuation_solve(target, grid, SolverConfig(newton_tol=self.TOL),
                                      validated=True)

    def test_fallback_after_failed_target_corrector(self, monkeypatch):
        target = self.gauss_target()
        grid = build_s2_grid(32, 64)
        reference = self.full_path(monkeypatch, target, grid)
        newton = continuation_solver.newton_solve
        failed = []

        def fail_once(rho0, t, target, on_grid, *args, **kwargs):
            if t == 1.0 and on_grid.node_count == grid.node_count and not failed:
                failed.append(t)
                raise NoConvergence("injected failure of the target-grid corrector")
            return newton(rho0, t, target, on_grid, *args, **kwargs)

        monkeypatch.setattr(continuation_solver, "newton_solve", fail_once)
        sol = continuation_solve(target, grid, SolverConfig(newton_tol=self.TOL),
                                 validated=True)
        assert failed and sol.trace[-1].t == 1.0
        assert np.array_equal(sol.rho, reference.rho)
        nodes = [s.nodes for s in sol.trace]
        coarse = nodes.index(2048)
        assert coarse > 0 and set(nodes[:coarse]) == {512}
        assert sol.trace[coarse - 1].t == 1.0
        # the fallback's rows are the full path's rows, from its t = 0 on
        rest = sol.trace[coarse:]
        assert rest[0].t == 0.0 and set(nodes[coarse:]) == {2048}
        assert [(s.t, s.newton_iters, s.residual_sup) for s in rest] == [
            (s.t, s.newton_iters, s.residual_sup) for s in reference.trace]

    @pytest.mark.parametrize("shape", [(32, 64), (48, 96)])
    def test_sequenced_agrees_with_full_path(self, monkeypatch, shape):
        target = self.gauss_target()
        grid = build_s2_grid(*shape)
        reference = self.full_path(monkeypatch, target, grid)
        calls = count_factorizations(monkeypatch)
        sol = continuation_solve(target, grid, SolverConfig(newton_tol=self.TOL),
                                 validated=True)
        assert np.abs(sol.rho - reference.rho).max() <= 10 * self.TOL
        assert np.abs(residual_vector(sol.rho, grid, target, 1.0)).max() <= self.TOL
        # the target grid's factor is its phi-mode blocks': n_phi/2 + 1 of n_theta rows
        assert 1 <= calls.count(("modes", grid.n_theta * (grid.n_phi // 2 + 1))) <= 2
        assert not [kind for kind, _ in calls if kind == "bands"]
        last = sol.trace[-1]
        assert (last.t, last.nodes) == (1.0, grid.node_count)
        assert {s.nodes for s in sol.trace[:-1]} == {grid.node_count // 4}

    def test_only_t1_rows_are_held_to_newton_tol(self, monkeypatch):
        # two fine rungs, 32x64 and 64x128, above the 16x32 path; the path's
        # first t = 1 corrector is refused, so that it accepts a t < 1 state
        attempts = refuse_t1(monkeypatch)
        sol = continuation_solve(self.gauss_target(), build_s2_grid(64, 128),
                                 SolverConfig(newton_tol=self.TOL), validated=True)
        assert attempts[0] == (1.0, True)
        rungs = [s for s in sol.trace if s.nodes > 512]
        assert [(s.t, s.nodes) for s in rungs] == [(1.0, 2048), (1.0, 8192)]
        path = [s for s in sol.trace if s.nodes == 512]
        assert path[-1].t == 1.0 and path[-1].residual_sup <= self.TOL
        for s in path[:-1] + rungs:
            assert s.residual_sup <= (self.TOL if s.t == 1.0 else math.sqrt(self.TOL))
        # the path tolerance is in force: some corrector short of t = 1 stopped above TOL
        assert max(s.residual_sup for s in path[1:-1]) > self.TOL

    def test_axisym_rows_stay_on_the_grid(self):
        p = QuotientParams(3, 2, 0)
        target = make_homotopy(parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)"), p, 0.5, 2.0)
        sol = continuation_solve(target, build_axisym_grid(129), SolverConfig())
        assert sol.trace[-1].t == 1.0
        assert {s.nodes for s in sol.trace} == {129}


class TestSolvePathIsClosedForm:
    """The solver's geometry is the closed form on the two-direction frame."""

    @pytest.fixture
    def no_eigen(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigen-decomposition on the solve path")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)

    @pytest.mark.parametrize("case", ["axisym", "s2"])
    def test_validated_solve_calls_no_eigen_decomposition(self, no_eigen, case):
        if case == "axisym":
            p, grid, tol = QuotientParams(4, 3, 1), build_axisym_grid(33), 1e-10
            text = f"{reference_level(p)} * rho^(-3) * (1 + 0.15 * x1 / rho)"
        else:
            p, grid, tol = QuotientParams(2, 2, 0), build_s2_grid(16, 32), 1e-8
            text = "rho^(-3) * (1 + 0.15 * x1 / rho)"
        base = parse_f(text)
        assert validate_assumptions(base, p, 0.5, 2.0).all_passed
        target = make_homotopy(base, p, 0.5, 2.0)
        sol = continuation_solve(target, grid, SolverConfig(newton_tol=tol), validated=True)
        assert sol.trace[-1].t == 1.0
        assert sol.trace[-1].residual_sup <= tol

    def test_manufactured_forcing_calls_no_eigen_decomposition(self, no_eigen):
        grid = build_axisym_grid(33)
        positions, _ = grid.node_frames(6)
        forcing = manufactured_forcing(QuotientParams(6, 4, 2))
        values = forcing(positions, positions)
        assert values.shape == (33,) and np.all(values > 0.0)


class TestScaleDegenerateTarget:
    def test_ray_constant_forcing_is_dilation_invariant(self):
        # with no extra decay the discrete residual cannot see dilations, so
        # the t = 1 linearization is singular along the radial direction
        profile = cosine_profile(0.05, 2)
        p = QuotientParams(3, 2, 0)
        f = manufactured_forcing(p, profile, extra_decay=0)
        target = make_homotopy(f, p, 0.5, 2.0)
        grid = build_axisym_grid(65)
        rho = profile.value(grid.theta)
        r1 = residual_vector(rho, grid, target, 1.0)
        r2 = residual_vector(1.3 * rho, grid, target, 1.0)
        assert np.abs(r1 - r2).max() < 1e-12
        J = at_field(assemble_jacobian, rho, grid, target, 1.0)
        kernel_response = np.abs(J @ rho).max()
        typical = np.abs(J @ np.cos(2 * grid.theta)).max()
        assert kernel_response < 1e-3 * typical
