"""The manufactured forcing: its closed form against the solver's own route,
its exact flat case, its return shapes, and that it catches a geometry error."""

import sys

import numpy as np
import pytest

from hessquot import radial_geometry
from hessquot.continuation_solver import SolverConfig, continuation_solve
from hessquot.fspec import eval_f, make_homotopy, parse_f, reference_level
from hessquot.manufactured import cosine_profile, manufactured_forcing
from hessquot.sphere_grid import build_axisym_grid
from hessquot.symfun import QuotientParams
from oracles import manufactured_forcing_via_geometry

# the s2 manufactured case and the axisym-dims (n, k, l) of the benchmark
CASES = ((2, 2, 0), (3, 2, 0), (4, 3, 1), (6, 4, 2), (8, 6, 2), (12, 6, 0))


def sample_points(rng, n, count=400):
    """Seeded points of R^(n+1) at radii 0.5-2: generic ones, points on the
    polar axis (X_perp = 0) at both poles, and points inside the forcing's
    pole window, |X_perp| < 1e-9 |X|."""
    directions = rng.normal(size=(count, n + 1))
    axis = np.zeros((4, n + 1))
    axis[:, 0] = (1.0, -1.0, 0.7, -0.3)
    window = np.zeros((6, n + 1))
    window[:, 0] = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)
    window[:, 1:] = 10.0 ** rng.uniform(-14, -10, size=(6, 1)) * rng.normal(size=(6, n))
    points = np.concatenate([directions, axis, window])
    points /= np.linalg.norm(points, axis=1)[:, None]
    return points * rng.uniform(0.5, 2.0, size=(points.shape[0], 1))


@pytest.mark.parametrize("nkl", CASES)
@pytest.mark.parametrize("extra_decay", (0, 1))
def test_closed_form_matches_the_geometry_route(nkl, extra_decay):
    p = QuotientParams(*nkl)
    rng = np.random.default_rng(sum(nkl) + 100 * extra_decay)
    worst = 0.0
    for _ in range(3):
        profile = cosine_profile(rng.uniform(0.03, 0.06), int(rng.integers(1, 4)))
        X = sample_points(rng, p.n)
        got = manufactured_forcing(p, profile, extra_decay)(X, X)
        want = manufactured_forcing_via_geometry(p, profile, extra_decay)(X, X)
        assert got.shape == want.shape == (X.shape[0],)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert worst <= 1e-13, worst


@pytest.mark.parametrize("nkl", CASES)
@pytest.mark.parametrize("extra_decay", (0, 1))
def test_flat_profile_gives_the_reference_decay(nkl, extra_decay):
    p = QuotientParams(*nkl)
    X = sample_points(np.random.default_rng(7), p.n)
    got = manufactured_forcing(p, cosine_profile(0.0), extra_decay)(X, X)
    want = reference_level(p) * np.linalg.norm(X, axis=1) ** -float(p.gap + extra_decay)
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_return_shapes_follow_eval_f():
    p = QuotientParams(3, 2, 0)
    forcing = manufactured_forcing(p, cosine_profile(0.0))
    expr = parse_f(f"{reference_level(p)} * rho^(-{p.gap + 1})")
    one = np.array([0.3, -1.1, 0.4, 0.2])
    for X in (one, one[None], np.stack([one, 2.0 * one])):
        nu = X / np.linalg.norm(X, axis=-1, keepdims=True)
        got, want = forcing(X, nu), eval_f(expr, X, nu)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_planted_geometry_error_shows_in_the_manufactured_error(monkeypatch):
    """The forcing does not share the solver's geometry, so a 1e-3 relative
    error planted in eta's smallest entry leaves a solver error that does not
    fall with the grid spacing, far above the clean discretization error."""
    profile = cosine_profile(0.05, 2)
    p = QuotientParams(3, 2, 0)
    target = make_homotopy(manufactured_forcing(p, profile), p, 0.5, 2.0)
    grid = build_axisym_grid(129)

    def sup_error():
        sol = continuation_solve(target, grid, SolverConfig(), validated=False)
        return float(np.abs(sol.rho - profile.value(grid.theta)).max())

    clean = sup_error()
    exact_geometry = radial_geometry.geometry_batch

    def planted(jets, n):
        geo = exact_geometry(jets, n)
        geo.eta[:, 0] *= 1.0 + 1e-3
        return geo

    # every binding the package holds: the solver's and the monitor's, and
    # the forcing's own if it had one
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hessquot" and hasattr(module, "geometry_batch"):
            monkeypatch.setattr(module, "geometry_batch", planted)
    wrong = sup_error()
    print(f"\nplanted eta error, (3,2,0) axisym N=129: clean sup error {clean:.3e}, "
          f"planted {wrong:.3e}")
    assert wrong >= 10.0 * clean
