"""Bound snapshots and the radial/positivity monitors."""

import numpy as np
import pytest

from hessquot.estimates_monitor import (
    BoundsSnapshot,
    check_c0,
    check_positivity,
    snapshot_bounds,
)
from hessquot.sphere_grid import build_axisym_grid, build_s2_grid
from hessquot.symfun import QuotientParams


def snap(**kw):
    base = dict(
        rho_min=1.0,
        rho_max=1.0,
        u_min=1.0,
        grad_sup=0.0,
        kappa_sup=1.0,
        cone_margin_min=1.0,
        eta_min=1.0,
    )
    base.update(kw)
    return BoundsSnapshot(**base)


class TestSnapshot:
    def test_round_sphere(self):
        p = QuotientParams(3, 2, 0)
        grid = build_axisym_grid(65)
        for r in (0.5, 1.0, 2.0):
            s = snapshot_bounds(np.full(65, r), grid, p)
            assert s.rho_min == s.rho_max == pytest.approx(r)
            assert s.u_min == pytest.approx(r, rel=1e-12)
            assert s.grad_sup == 0.0
            assert s.kappa_sup == pytest.approx(1.0 / r, rel=1e-12)
            assert s.eta_min == pytest.approx(2.0 / r, rel=1e-12)

    def test_perturbed_sphere(self):
        p = QuotientParams(3, 2, 0)
        grid = build_axisym_grid(129)
        field = 1.0 + 0.05 * np.cos(grid.theta)
        s = snapshot_bounds(field, grid, p)
        assert s.rho_max == pytest.approx(1.05)
        assert s.rho_min == pytest.approx(0.95)
        assert s.u_min <= 1.05
        assert s.grad_sup == pytest.approx(0.05, abs=0.05 * 10 * grid.spacing**2)
        assert s.cone_margin_min > 0.0

    def test_trace_consistency(self):
        # n * eta_min <= sum of eta entries = (n-1) H at every node
        p = QuotientParams(3, 2, 0)
        grid = build_s2_grid(16, 32) if p.n == 2 else build_axisym_grid(65)
        field = 1.0 + 0.03 * np.cos(2.0 * grid.theta)
        from hessquot.radial_geometry import geometry_batch
        from hessquot.sphere_grid import jet_arrays

        rho, grad, hess = jet_arrays(field, grid, p.n)
        geo = geometry_batch(rho, grad, hess, p.n)
        sums = geo.eta.sum(axis=1)
        assert np.all(p.n * geo.eta.min(axis=1) <= sums + 1e-12)
        assert sums == pytest.approx((p.n - 1) * geo.H, rel=1e-10)


class TestChecks:
    def test_c0_pass(self):
        assert check_c0(snap(), 0.5, 2.0).passed

    def test_c0_strict_boundary_fails(self):
        result = check_c0(snap(rho_max=2.0), 0.5, 2.0)
        assert not result.passed
        assert result.margins["upper"] == 0.0

    def test_c0_margins_reported(self):
        result = check_c0(snap(rho_min=0.8, rho_max=1.3), 0.5, 2.0)
        assert result.passed
        assert result.margins == pytest.approx({"lower": 0.3, "upper": 0.7})

    def test_positivity_pass(self):
        assert check_positivity(snap()).passed

    def test_positivity_fails_with_vanishing_support(self):
        assert not check_positivity(snap(u_min=0.0)).passed
        assert not check_positivity(snap(cone_margin_min=-1e-8)).passed

    def test_converged_solution_passes_both(self):
        import hessquot as hq
        from hessquot.continuation_solver import SolverConfig, continuation_solve

        p = QuotientParams(3, 2, 0)
        base = hq.parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)")
        target = hq.make_homotopy(base, p, 0.5, 2.0)
        grid = build_axisym_grid(65)
        sol = continuation_solve(target, grid, SolverConfig(), validated=True)
        assert check_c0(sol.bounds, 0.5, 2.0).passed
        assert check_positivity(sol.bounds).passed
