#!/usr/bin/env python3
"""Manufactured-solution convergence study.

Solves the continuation problem whose exact solution is the zonal profile
rho*(theta) = 1 + amplitude cos(mode theta) over a sweep of grid resolutions
and prints the sup-norm errors with their per-doubling ratios.
"""

import argparse
import time

import numpy as np

from hessquot.continuation_solver import SolverConfig, continuation_solve
from hessquot.fspec import make_homotopy, validate_assumptions
from hessquot.manufactured import cosine_profile, manufactured_forcing
from hessquot.sphere_grid import build_axisym_grid
from hessquot.symfun import QuotientParams


def run(n, k, l, amplitude, mode, resolutions):
    p = QuotientParams(n, k, l)
    profile = cosine_profile(amplitude, mode)
    forcing = manufactured_forcing(p, profile)
    report = validate_assumptions(forcing, p, 0.5, 2.0)
    target = make_homotopy(forcing, p, 0.5, 2.0)
    print(f"(n,k,l) = ({n},{k},{l}), amplitude {amplitude}, mode {mode}, "
          f"assumptions {'pass' if report.all_passed else 'FAIL'}")
    print(f"{'N':>6s} {'sup error':>12s} {'ratio':>8s} {'steps':>6s} {'seconds':>8s}")
    prev = None
    for N in resolutions:
        grid = build_axisym_grid(N)
        started = time.perf_counter()
        sol = continuation_solve(target, grid, SolverConfig(), validated=report.all_passed)
        elapsed = time.perf_counter() - started
        err = float(np.abs(sol.rho - profile.value(grid.theta)).max())
        ratio = f"{prev / err:8.2f}" if prev else "       -"
        print(f"{N:6d} {err:12.3e} {ratio} {len(sol.trace):6d} {elapsed:8.2f}")
        prev = err


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--amplitude", type=float, default=0.05)
    parser.add_argument("--mode", type=int, default=2)
    parser.add_argument(
        "--resolutions", type=int, nargs="+", default=[65, 129, 257, 513]
    )
    args = parser.parse_args()
    for (n, k, l) in ((3, 2, 0), (4, 3, 1)):
        run(n, k, l, args.amplitude, args.mode, args.resolutions)
        print()


if __name__ == "__main__":
    main()
