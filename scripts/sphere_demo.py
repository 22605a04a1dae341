#!/usr/bin/env python3
"""Solve an anisotropic Gauss-curvature prescription on the 2-sphere grid and
export the surface as an OBJ mesh."""

import argparse
import time

from hessquot.cli import export_mesh_obj
from hessquot.continuation_solver import continuation_solve
from hessquot.fspec import make_homotopy, parse_f, validate_assumptions
from hessquot.sphere_grid import build_s2_grid
from hessquot.symfun import QuotientParams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expression", default="rho^(-3) * (1 + 0.15 * x1 / rho)")
    parser.add_argument("--resolution", default="24x48")
    parser.add_argument("--out", default="sphere_demo.obj")
    args = parser.parse_args()

    nt, _, nphi = args.resolution.partition("x")
    grid = build_s2_grid(int(nt), int(nphi))
    p = QuotientParams(2, 2, 0)
    base = parse_f(args.expression)
    report = validate_assumptions(base, p, 0.5, 2.0)
    print("assumptions:", "pass" if report.all_passed else "FAIL")
    target = make_homotopy(base, p, 0.5, 2.0)

    started = time.perf_counter()
    sol = continuation_solve(target, grid, validated=report.all_passed)
    # a finer grid's corrector adds a t = 1 row right after a t = 1 row
    rungs = sum(a.t == b.t == 1.0 for a, b in zip(sol.trace, sol.trace[1:]))
    print(
        f"solved in {time.perf_counter() - started:.1f} s: "
        f"{len(sol.trace) - rungs} path steps on {sol.trace[0].nodes} nodes, "
        f"{rungs} finer rungs, final residual "
        f"{sol.trace[-1].residual_sup:.2e}, "
        f"rho in [{sol.rho.min():.4f}, {sol.rho.max():.4f}]"
    )
    nverts, nfaces = export_mesh_obj(sol.rho, grid, args.out)
    print(f"wrote {args.out} ({nverts} vertices, {nfaces} faces)")


if __name__ == "__main__":
    main()
