"""Built-in property checks behind the `selftest` CLI command.

Each check returns (name, passed, detail).  The suite is a fast cross-section
of the full test suite: symmetric-function oracles, geometry covariance, jet
convergence, and the unit-sphere fixed point of the solver.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .continuation_solver import SolverConfig, newton_solve
from .fspec import make_homotopy, parse_f
from .manufactured import cosine_profile, zonal_jets_analytic
from .radial_geometry import assemble_point_geometry, PointJet, sphere_closed_form
from .sphere_grid import (
    build_axisym_grid,
    build_s2_grid,
    jet_arrays,
)
from .symfun import (
    QuotientParams,
    elementary_symmetric,
    elementary_symmetric_excluding,
    grad_G,
    quotient_G,
    sample_gamma_k,
)


def _sigma_bruteforce(values, j):
    if j == 0:
        return 1.0
    if j < 0 or j > len(values):
        return 0.0
    return sum(math.prod(c) for c in itertools.combinations(values, j))


def check_sigma_recurrence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        lam = rng.uniform(-2.0, 2.0, size=n)
        j = int(rng.integers(0, n + 1))
        i = int(rng.integers(0, n))
        direct = elementary_symmetric(lam, j)
        split = elementary_symmetric_excluding(lam, j, {i}) + lam[i] * (
            elementary_symmetric_excluding(lam, j - 1, {i}) if j >= 1 else 0.0
        )
        brute = _sigma_bruteforce(lam.tolist(), j)
        scale = max(1.0, abs(brute))
        worst = max(worst, abs(direct - split) / scale, abs(direct - brute) / scale)
    return "sigma recurrence vs enumeration", worst < 1e-12, f"worst rel error {worst:.2e}"


def check_quotient_derivatives():
    p = QuotientParams(4, 3, 1)
    samples = sample_gamma_k(p, seed=11, count=100)
    worst = 0.0
    for lam in samples:
        g = grad_G(lam, p)
        if np.any(g <= 0.0):
            return "quotient gradient positivity", False, "nonpositive derivative found"
        euler = abs(float(g @ lam) - quotient_G(lam, p))
        worst = max(worst, euler / max(1.0, abs(quotient_G(lam, p))))
    return "gradient positivity and homogeneity", worst < 1e-10, f"worst rel error {worst:.2e}"


def check_concavity():
    p = QuotientParams(5, 3, 0)
    samples = sample_gamma_k(p, seed=3, count=200)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        a, b = samples[rng.integers(0, 200, size=2)]
        t = float(rng.uniform(0.0, 1.0))
        gap = quotient_G(t * a + (1 - t) * b, p) - (
            t * quotient_G(a, p) + (1 - t) * quotient_G(b, p)
        )
        worst = min(worst, gap)
    return "segment concavity", worst > -1e-10, f"worst gap {worst:.2e}"


def check_geometry_covariance():
    rng = np.random.default_rng(23)
    n = 3
    worst = 0.0
    for _ in range(50):
        jet = PointJet(
            rho=float(rng.uniform(0.5, 2.0)),
            grad=rng.uniform(-0.3, 0.3, size=n),
            hess=None,
        )
        h = rng.uniform(-0.3, 0.3, size=(n, n))
        jet.hess = 0.5 * (h + h.T)
        base = assemble_point_geometry(jet, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        rotated = PointJet(rho=jet.rho, grad=q @ jet.grad, hess=q @ jet.hess @ q.T)
        other = assemble_point_geometry(rotated, n)
        worst = max(
            worst,
            float(np.abs(base.kappa - other.kappa).max()),
            abs(base.u - other.u),
            abs(base.v - other.v),
        )
    ok = worst < 1e-10
    closed = sphere_closed_form(2.0, 4)
    jet = PointJet(rho=2.0, grad=np.zeros(4), hess=np.zeros((4, 4)))
    assembled = assemble_point_geometry(jet, 4)
    ok = ok and np.abs(assembled.eta_spectrum - closed.eta_spectrum).max() < 1e-12
    return "geometry frame covariance", ok, f"worst drift {worst:.2e}"


def check_jet_convergence():
    profile = cosine_profile(0.05, 2)
    errors = []
    for N in (33, 65):
        grid = build_axisym_grid(N)
        field = profile.value(grid.theta)
        error = jet_arrays(field, grid, 3) - zonal_jets_analytic(grid.theta, profile)
        errors.append(np.abs(error[1:]).max())
    ratio = errors[0] / errors[1]
    ok = ratio > 3.5

    s2_errors = []
    for nt, nphi in ((16, 32), (32, 64)):
        grid = build_s2_grid(nt, nphi)
        tt = np.repeat(grid.theta, grid.n_phi)
        pp = np.tile(grid.phi, grid.n_theta)
        field = 1.0 + 0.05 * np.sin(tt) * np.cos(pp)
        jets = jet_arrays(field, grid, 2)
        href = -0.05 * np.sin(tt) * np.cos(pp)
        ref = np.stack([0.05 * np.cos(tt) * np.cos(pp), -0.05 * np.sin(pp),
                        href, np.zeros_like(href), href])
        w = grid.quadrature_weights(2)
        err = np.abs(jets[1:3] - ref[:2]).max(axis=0) + np.abs(jets[3:] - ref[2:]).max(axis=0)
        s2_errors.append(math.sqrt(float(np.sum(w * err**2))))
    s2_ratio = s2_errors[0] / s2_errors[1]
    ok = ok and s2_ratio > 3.5
    return "jet convergence order", ok, f"ratios axisym {ratio:.2f}, s2 {s2_ratio:.2f}"


def check_fixed_point_solve():
    p = QuotientParams(3, 2, 0)
    target = make_homotopy(parse_f("12 * rho^(-3)"), p, 0.5, 2.0)
    grid = build_axisym_grid(65)
    rho0 = 1.0 + 0.01 * np.cos(grid.theta)
    rho, iters, *_ = newton_solve(rho0, 0.0, target, grid, SolverConfig())
    err = float(np.abs(rho - 1.0).max())
    ok = err <= 1e-8 and iters <= 10
    return "unit-sphere fixed point", ok, f"sup error {err:.2e} in {iters} iterations"


def run_all():
    checks = (
        check_sigma_recurrence,
        check_quotient_derivatives,
        check_concavity,
        check_geometry_covariance,
        check_jet_convergence,
        check_fixed_point_solve,
    )
    results = []
    for check in checks:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append((check.__name__, False, f"raised {type(exc).__name__}: {exc}"))
    return results
