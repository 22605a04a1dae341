"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from hessquot.cli import EXIT_OK, main
from hessquot.continuation_solver import SolverConfig, continuation_solve, newton_solve
from hessquot.estimates_monitor import check_c0, check_positivity
from hessquot.fspec import make_homotopy, parse_f, validate_assumptions
from hessquot.manufactured import cosine_profile, manufactured_forcing
from hessquot.radial_geometry import PointJet, assemble_point_geometry
from hessquot.sphere_grid import (
    build_axisym_grid,
    build_s2_grid,
    jet_arrays,
)
from hessquot.symfun import (
    QuotientParams,
    elementary_symmetric,
    grad_G,
    in_gamma_k,
    newton_maclaurin_slack,
    offdiag_second_G,
    quotient_G,
    sample_gamma_k,
)

ANISOTROPIC_CONFIG = """
[problem]
n = 3
k = 2
l = 0
f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)
r1 = 0.5
r2 = 2.0

[grid]
mode = axisym
resolution = 129

[output]
directory = {outdir}
"""


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_unit_sphere_fixed_point():
    for (n, k, l) in ((3, 2, 0), (4, 3, 1), (5, 3, 0)):
        p = QuotientParams(n, k, l)
        level = p.binomial_ratio * (n - 1) ** p.gap
        target = make_homotopy(parse_f(f"{level} * rho^(-{p.gap + 1})"), p, 0.5, 2.0)
        grid = build_axisym_grid(129)
        rho0 = 1.0 + 0.01 * np.cos(grid.theta)
        started = time.perf_counter()
        rho, iters, *_ = newton_solve(rho0, 0.0, target, grid, SolverConfig())
        elapsed = time.perf_counter() - started
        err = float(np.abs(rho - 1.0).max())
        assert err <= 1e-8, f"({n},{k},{l}): sup error {err:.3e}"
        assert iters <= 10, f"({n},{k},{l}): {iters} iterations"
        assert elapsed < 5.0, f"({n},{k},{l}): {elapsed:.1f} s"
        report("1 unit-sphere fixed point", f"({n},{k},{l}) err {err:.1e} in {iters} it, {elapsed:.2f} s")


def test_criterion_2_round_sphere_algebra():
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for n in (2, 3, 4, 5):
            jet = PointJet(rho=r, grad=np.zeros(n), hess=np.zeros((n, n)))
            geo = assemble_point_geometry(jet, n)
            expect = np.full(n, (n - 1) / r)
            worst = max(worst, float(np.abs(geo.eta_spectrum / expect - 1.0).max()))
            for k in range(2, n + 1):
                for l in range(0, k - 1):
                    p = QuotientParams(n, k, l)
                    quot = elementary_symmetric(geo.eta_spectrum, k) / (
                        elementary_symmetric(geo.eta_spectrum, l)
                    )
                    ref = p.binomial_ratio * ((n - 1) / r) ** p.gap
                    worst = max(worst, abs(quot / ref - 1.0))
    assert worst <= 1e-10
    report("2 round-sphere algebra", f"worst relative error {worst:.2e}")


def test_criterion_3_newton_maclaurin_suite():
    started = time.perf_counter()
    for (n, k, l) in ((3, 2, 0), (4, 3, 1), (5, 4, 2)):
        p = QuotientParams(n, k, l)
        samples = sample_gamma_k(p, seed=1234, count=10_000)
        for lam in samples:
            s1, s2 = newton_maclaurin_slack(lam, p)
            sig = [elementary_symmetric(lam, j) for j in range(k + 1)]
            scale1 = max(1.0, abs(k * (n - l + 1) * sig[k]), abs(l * (n - k + 1) * sig[l] * sig[k - 1]))
            assert s1 >= -1e-10 * scale1, f"({n},{k},{l}): slack1 {s1:.3e}"
            assert s2 >= -1e-10 * max(1.0, abs(s2) + 1.0), f"({n},{k},{l}): slack2 {s2:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"{elapsed:.1f} s"
    report("3 Newton-Maclaurin suite", f"3 x 10^4 samples in {elapsed:.1f} s")


def test_criterion_4_derivative_oracles():
    p = QuotientParams(4, 3, 1)
    fd_step = 1e-6
    checked = 0
    for lam in sample_gamma_k(p, seed=77, count=400):
        if in_gamma_k(lam, p.k).margin < 1e-2:
            continue
        g = grad_G(lam, p)
        for i in range(p.n):
            up, dn = lam.copy(), lam.copy()
            up[i] += fd_step
            dn[i] -= fd_step
            fd = (quotient_G(up, p) - quotient_G(dn, p)) / (2 * fd_step)
            assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))
        checked += 1
        if checked == 100:
            break
    assert checked == 100

    checked = 0
    h = 1e-3
    for lam in sample_gamma_k(p, seed=78, count=600):
        if in_gamma_k(lam, p.k).margin < 1e-2:
            continue
        if np.abs(lam[:, None] - lam[None, :])[np.triu_indices(p.n, 1)].min() < 0.05:
            continue
        base = np.diag(lam)
        for i in range(1, p.n):
            pert = np.zeros_like(base)
            pert[0, i] = pert[i, 0] = 1.0

            def phi(s):
                return quotient_G(np.linalg.eigvalsh(base + s * pert), p)

            def second_diff(step):
                return (phi(step) - 2 * phi(0.0) + phi(-step)) / step**2

            # Richardson-extrapolated second difference: O(h^4) truncation
            oracle = (4 * second_diff(h / 2) - second_diff(h)) / 3.0 / 2.0
            got = offdiag_second_G(lam, p, i)
            assert abs(got - oracle) <= 1e-5 * max(1e-3, abs(oracle))
            # divided-difference identity
            g = grad_G(lam, p)
            ident = (g[0] - g[i]) / (lam[0] - lam[i])
            assert abs(got - ident) <= 1e-8 * max(1.0, abs(ident))
        checked += 1
        if checked == 100:
            break
    assert checked == 100
    report("4 derivative oracles", "100 gradient + 100 second-derivative samples")


def test_criterion_5_ellipticity_concavity():
    rng = np.random.default_rng(99)
    for (n, k, l) in ((3, 2, 0), (4, 3, 1), (5, 4, 2)):
        p = QuotientParams(n, k, l)
        samples = sample_gamma_k(p, seed=4321, count=10_000)
        floor = p.binomial_ratio ** (1.0 / p.gap)
        gsums = np.empty(len(samples))
        for idx, lam in enumerate(samples):
            g = grad_G(lam, p)
            assert np.all(g > 0.0)
            gsums[idx] = g.sum()
        assert np.all(gsums >= floor - 1e-10)
        values = np.array([quotient_G(lam, p) for lam in samples])
        pairs = rng.integers(0, len(samples), size=(10_000, 2))
        ts = rng.uniform(size=10_000)
        for (ia, ib), t in zip(pairs, ts):
            mix = quotient_G(t * samples[ia] + (1 - t) * samples[ib], p)
            chord = t * values[ia] + (1 - t) * values[ib]
            assert mix >= chord - 1e-10 * max(1.0, abs(chord))
    report("5 ellipticity and concavity", "3 x 10^4 samples, 3 x 10^4 segments")


def test_criterion_6_manufactured_convergence():
    profile = cosine_profile(0.05, 2)
    started = time.perf_counter()
    details = []
    for (n, k, l) in ((3, 2, 0), (4, 3, 1)):
        p = QuotientParams(n, k, l)
        forcing = manufactured_forcing(p, profile)
        target = make_homotopy(forcing, p, 0.5, 2.0)
        errors = []
        for N in (65, 129, 257):
            grid = build_axisym_grid(N)
            sol = continuation_solve(target, grid, SolverConfig(), validated=False)
            errors.append(float(np.abs(sol.rho - profile.value(grid.theta)).max()))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 3.5, f"({n},{k},{l}): errors {errors}"
        details.append(f"({n},{k},{l}) ratios {errors[0]/errors[1]:.2f}/{errors[1]/errors[2]:.2f}")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"{elapsed:.1f} s"
    report("6 manufactured convergence", "; ".join(details) + f"; {elapsed:.1f} s")


def test_criterion_7_validated_continuation_run():
    started = time.perf_counter()
    p = QuotientParams(3, 2, 0)
    base = parse_f("12 * rho^(-3) * (1 + 0.2 * x1 / rho)")
    reportv = validate_assumptions(base, p, 0.5, 2.0)
    assert reportv.all_passed
    target = make_homotopy(base, p, 0.5, 2.0)
    grid = build_axisym_grid(129)
    sol = continuation_solve(target, grid, SolverConfig(), validated=True)
    last = sol.trace[-1]
    assert last.t == 1.0
    assert last.residual_sup <= 1e-10
    radial = check_c0(sol.bounds, 0.5, 2.0)
    assert radial.passed and min(radial.margins.values()) > 0.0
    assert sol.bounds.cone_margin_min > 0.0
    assert check_positivity(sol.bounds).passed
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"{elapsed:.1f} s"
    report(
        "7 validated continuation run",
        f"t=1 residual {last.residual_sup:.1e}, margins {radial.margins}, {elapsed:.1f} s",
    )


def test_criterion_8_discretization_order():
    delta = 0.05
    errors = []
    for nt, nphi in ((32, 64), (64, 128), (128, 256)):
        grid = build_s2_grid(nt, nphi)
        tt = np.repeat(grid.theta, grid.n_phi)
        pp = np.tile(grid.phi, grid.n_theta)
        field = 1.0 + delta * np.sin(tt) * np.cos(pp)
        jets = jet_arrays(field, grid, 2)
        gref = np.stack([delta * np.cos(tt) * np.cos(pp), -delta * np.sin(pp)])
        href = -delta * np.sin(tt) * np.cos(pp)
        hij = np.stack([href, np.zeros_like(href), href])
        err = np.abs(jets[1:3] - gref).max(axis=0) + np.abs(jets[3:] - hij).max(axis=0)
        w = grid.quadrature_weights(2)
        errors.append(math.sqrt(float(np.sum(w * err**2))))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= 3.5 for r in ratios), f"ratios {ratios}"
    report("8 discretization order", f"L2 ratios {ratios[0]:.2f}, {ratios[1]:.2f}")


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        config = tmp_path / f"{tag}.ini"
        config.write_text(ANISOTROPIC_CONFIG.format(outdir=outdir))
        assert main(["solve", str(config)]) == EXIT_OK
        outputs.append(
            ((outdir / "rho.csv").read_bytes(), (outdir / "trace.csv").read_bytes())
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    report("9 determinism", "rho.csv and trace.csv byte-identical across runs")


def test_criterion_10_s2_solver_order():
    started = time.perf_counter()
    profile = cosine_profile(0.05, 2)
    p = QuotientParams(2, 2, 0)
    target = make_homotopy(manufactured_forcing(p, profile), p, 0.5, 2.0)
    errors = []
    for nt, nphi in ((16, 32), (32, 64), (64, 128)):
        grid = build_s2_grid(nt, nphi)
        sol = continuation_solve(target, grid, SolverConfig(newton_tol=1e-8), validated=False)
        exact = profile.value(np.repeat(grid.theta, grid.n_phi))
        errors.append(float(np.abs(sol.rho - exact).max()))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= 3.5 for r in ratios), f"errors {errors}"
    elapsed = time.perf_counter() - started
    report(
        "10 s2 solver order",
        f"sup ratios {ratios[0]:.2f}, {ratios[1]:.2f}, errors {errors[2]:.2e}; {elapsed:.1f} s",
    )
