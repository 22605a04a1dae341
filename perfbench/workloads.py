"""Seeded hessquot workloads and the checks that their solutions are correct.

A seed picks the prescription parameters; the program sees only the generated
ini file (CLI workloads) or forcing callable (library workload).  Every
parameter range below keeps the prescription inside the structural
assumptions, so validation passes and the bound monitors are enforced.

- s2-gauss: one non-zonal prescribed-Gauss-curvature solve on the 48x96
  2-sphere grid through `hessquot solve`.  Linear solve and Jacobian assembly
  dominate, so factorization, LU reuse and Jacobian changes show here.
- axisym-dims: five (n,k,l) cases on the axisymmetric grid through
  `hessquot solve`.  The linear systems are tridiagonal and the pointwise
  geometry dominates: the bypass workload for linear-algebra changes.
- manufactured: zonal cosine profiles with exact solutions through the
  library API, on an axisymmetric ladder and two 2-sphere rungs, writing
  rho.csv and trace.csv as the CLI does.  It is the only workload with a known
  answer, and its forcing is an expensive callable.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import hessquot.cli as cli
from hessquot import continuation_solver as solver
from hessquot import fspec, sphere_grid
from hessquot.errors import HessquotError
from hessquot.estimates_monitor import check_c0, check_positivity, snapshot_bounds
from hessquot.manufactured import cosine_profile, manufactured_forcing
from hessquot.symfun import QuotientParams

R1, R2 = 0.5, 2.0
S2_TOL = 1e-8
AXISYM_TOL = 1e-10
S2_GAUSS_RESOLUTION = "48x96"
AXISYM_CASES = ((3, 2, 0, 1025), (4, 3, 1, 513), (6, 4, 2, 257), (8, 6, 2, 513),
                (12, 6, 0, 257))
MANUFACTURED_MODE = 2
MANUFACTURED_AXISYM = (129, 257, 513, 1025)
MANUFACTURED_S2 = ((16, 32), (32, 64))
# Second-order discretization: the observed order at the finest doubling.
ORDER_RANGE = (1.8, 2.2)
# Sup error at the finest rung, per unit of profile amplitude.
MAX_REL_ERROR = {"axisym": 2e-5, "s2": 2e-2}


@dataclass
class Outcome:
    """One problem of one pass: timings, the solution and what went wrong."""

    name: str
    tol: float
    setup_s: float = 0.0
    solve_s: float = 0.0
    wall_s: float = 0.0
    target: object = None
    grid: object = None
    rho: object = None            # solved field, read back from rho.csv
    final_t: float = None
    errors: list = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0
    exact: object = None          # exact nodal solution, when known


def _reference_level(n, k, l):
    return math.comb(n, k) / math.comb(n, l) * (n - 1) ** (k - l)


def _ini(f, n, k, l, mode, resolution, tol, out_dir, formats):
    return "\n".join([
        "[problem]", f"n = {n}", f"k = {k}", f"l = {l}", f"f = {f}",
        f"r1 = {R1}", f"r2 = {R2}", "",
        "[grid]", f"mode = {mode}", f"resolution = {resolution}", "",
        "[solver]", f"newton_tol = {tol!r}", "",
        "[output]", f"directory = {out_dir}", f"formats = {formats}", "",
    ])


class CliProblem:
    """`hessquot solve <ini>` on a generated config."""

    def __init__(self, name, workdir, f, n, k, l, mode, resolution, tol, formats):
        self.name, self.tol = name, tol
        self.out_dir = os.path.join(workdir, name)
        self.ini = os.path.join(workdir, name + ".ini")
        with open(self.ini, "w", encoding="utf-8") as handle:
            handle.write(_ini(f, n, k, l, mode, resolution, tol, self.out_dir, formats))

    def run(self) -> Outcome:
        out = Outcome(self.name, self.tol)
        bound = cli.continuation_solve
        probe = {}

        def probed(*args, **kwargs):
            probe["start"] = time.perf_counter()
            try:
                return bound(*args, **kwargs)
            finally:
                probe["end"] = time.perf_counter()
                probe["args"] = args

        cli.continuation_solve = probed
        started = time.perf_counter()
        log = io.StringIO()
        try:
            with redirect_stdout(log):
                code = cli.main(["solve", self.ini])
            if code != 0:
                out.errors.append(f"exit {code}: {log.getvalue().strip()[-300:]}")
        except HessquotError as exc:
            out.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            cli.continuation_solve = bound
        out.wall_s = time.perf_counter() - started
        if "start" not in probe:
            out.errors.append("continuation_solve was never called")
            out.setup_s = out.wall_s
            return out
        out.setup_s = probe["start"] - started
        out.solve_s = probe["end"] - probe["start"]
        out.target, out.grid = probe["args"][0], probe["args"][1]
        return out


class LibraryProblem:
    """A manufactured zonal solution solved through the library API."""

    def __init__(self, name, workdir, amplitude, n, k, l, resolution, tol):
        self.name, self.tol = name, tol
        self.out_dir = os.path.join(workdir, name)
        self.amplitude = amplitude
        self.p = (n, k, l)
        self.resolution = resolution

    def _grid(self):
        if len(self.resolution) == 1:
            return sphere_grid.build_axisym_grid(self.resolution[0])
        return sphere_grid.build_s2_grid(*self.resolution)

    def run(self) -> Outcome:
        out = Outcome(self.name, self.tol)
        started = time.perf_counter()
        try:
            p = QuotientParams(*self.p)
            profile = cosine_profile(self.amplitude, MANUFACTURED_MODE)
            forcing = manufactured_forcing(p, profile)
            report = fspec.validate_assumptions(forcing, p, R1, R2)
            out.target = fspec.make_homotopy(forcing, p, R1, R2)
            out.grid = self._grid()
        except HessquotError as exc:
            out.errors.append(f"setup: {type(exc).__name__}: {exc}")
            out.setup_s = out.wall_s = time.perf_counter() - started
            return out
        solve_start = time.perf_counter()
        out.setup_s = solve_start - started
        solution = None
        if not report.all_passed:
            out.errors.append("assumption validation failed")
        else:
            try:
                solution = solver.continuation_solve(
                    out.target, out.grid, solver.SolverConfig(newton_tol=self.tol),
                    validated=True)
            except HessquotError as exc:
                out.errors.append(f"solve: {type(exc).__name__}: {exc}")
        out.solve_s = time.perf_counter() - solve_start
        if solution is not None:
            # the writers `hessquot solve` uses, so the artifacts have the same format
            os.makedirs(self.out_dir, exist_ok=True)
            cli._write_rho_csv(os.path.join(self.out_dir, "rho.csv"), solution.rho, out.grid)
            cli._write_trace_csv(os.path.join(self.out_dir, "trace.csv"), solution.trace)
        out.wall_s = time.perf_counter() - started
        theta = out.grid.theta
        if len(self.resolution) == 2:
            theta = np.repeat(theta, out.grid.n_phi)
        out.exact = profile.value(theta)
        return out


def read_artifacts(out: Outcome, out_dir: str):
    """Read the solution back from rho.csv and trace.csv and digest them."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        path = os.path.join(out_dir, name)
        out.bytes_written += os.path.getsize(path)
        if name in ("rho.csv", "trace.csv"):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    out.digest = digest.hexdigest()
    if not out.errors:
        out.rho = _csv_column(os.path.join(out_dir, "rho.csv"), -1)
        out.final_t = float(_csv_column(os.path.join(out_dir, "trace.csv"), 0)[-1])


def _csv_column(path, column):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, column]


def verify(out: Outcome):
    """The path reached t = 1, the residual there is within the tolerance, and
    the radial and positivity checks pass on the returned field."""
    if out.errors:
        return
    if out.final_t != 1.0:
        out.errors.append(f"stopped at t={out.final_t}")
        return
    try:
        sup = float(np.abs(solver.residual_vector(out.rho, out.grid, out.target, 1.0)).max())
        snap = snapshot_bounds(out.rho, out.grid, out.target.p)
    except HessquotError as exc:
        out.errors.append(f"check at t=1: {type(exc).__name__}: {exc}")
        return
    if not sup <= out.tol:
        out.errors.append(f"residual {sup:.3e} above tolerance {out.tol:.0e}")
    for name, chk in (("check_c0", check_c0(snap, R1, R2)),
                      ("check_positivity", check_positivity(snap))):
        if not chk.passed:
            out.errors.append(f"{name} failed: {chk.margins}")


class Workload:
    """The seeded problems of one workload; subclasses define `_problems`,
    `describe` and `warm_up` (an untimed small solve along the same path)."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.problems = self._problems()
        self.digests = {}

    def run_pass(self):
        """Run every problem once; returns the outcomes, timed but not yet checked."""
        return [problem.run() for problem in self.problems]

    def check_pass(self, outcomes):
        """Correctness checks and determinism against the first pass."""
        for problem, out in zip(self.problems, outcomes):
            read_artifacts(out, problem.out_dir)
            verify(out)
            first = self.digests.setdefault(problem.name, out.digest)
            if out.digest != first:
                out.errors.append("artifacts differ from the first pass of this seed")
        return {}


class S2Gauss(Workload):
    name = "s2-gauss"

    def _problems(self):
        a = self.rng.uniform(0.10, 0.20)
        axis = [self.rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in axis))
        self.coeffs = [a * x / norm for x in axis]
        linear = " ".join(f"{'-' if c < 0 else '+'} {abs(c):.6f}*x{i + 1}"
                          for i, c in enumerate(self.coeffs)).removeprefix("+ ")
        self.f = f"rho^(-3) * (1 + ({linear}) / rho)"
        return [self._problem("gauss", S2_GAUSS_RESOLUTION)]

    def _problem(self, name, resolution):
        return CliProblem(name, self.workdir, self.f, 2, 2, 0, "s2", resolution, S2_TOL,
                          "csv,obj")

    def describe(self):
        return [f"f = {self.f} on s2 {S2_GAUSS_RESOLUTION}"]

    def warm_up(self):
        self._problem("warm-up", "16x32").run()


class AxisymDims(Workload):
    name = "axisym-dims"

    def _problems(self):
        problems = []
        self.fs = []
        for n, k, l, N in AXISYM_CASES:
            a = self.rng.uniform(0.10, 0.20)
            f = (f"{_reference_level(n, k, l):.17g} * rho^(-{k - l + 1}) "
                 f"* (1 + {a:.6f} * x1 / rho)")
            self.fs.append(f"({n},{k},{l}) N={N}: f = {f}")
            problems.append(CliProblem(f"n{n}k{k}l{l}-N{N}", self.workdir, f, n, k, l,
                                       "axisym", str(N), AXISYM_TOL, "csv"))
        return problems

    def describe(self):
        return self.fs

    def warm_up(self):
        n, k, l, _ = AXISYM_CASES[0]
        CliProblem("warm-up", self.workdir, f"{_reference_level(n, k, l):.17g} * rho^(-3)",
                   n, k, l, "axisym", "65", AXISYM_TOL, "csv").run()


class Manufactured(Workload):
    name = "manufactured"

    def _problems(self):
        self.amplitude = self.rng.uniform(0.03, 0.06)
        problems = [LibraryProblem(f"axisym-N{N}", self.workdir, self.amplitude, 3, 2, 0,
                                   (N,), AXISYM_TOL)
                    for N in MANUFACTURED_AXISYM]
        problems += [LibraryProblem(f"s2-{nt}x{nphi}", self.workdir, self.amplitude, 2, 2, 0,
                                    (nt, nphi), S2_TOL)
                     for nt, nphi in MANUFACTURED_S2]
        return problems

    def describe(self):
        return [f"rho* = 1 + {self.amplitude:.6f} cos({MANUFACTURED_MODE} theta)"]

    def warm_up(self):
        LibraryProblem("warm-up", self.workdir, self.amplitude, 3, 2, 0, (65,),
                       AXISYM_TOL).run()

    def check_pass(self, outcomes):
        super().check_pass(outcomes)
        accuracy = {}
        for grid in ("axisym", "s2"):
            rungs = [out for out in outcomes if out.name.startswith(grid)]
            if any(out.errors for out in rungs):
                rungs[-1].errors.append(f"{grid} ladder has a failed rung")
                continue
            errs = [float(np.abs(out.rho - out.exact).max()) for out in rungs]
            order = math.log2(errs[-2] / errs[-1])
            accuracy[f"sup_error_{grid}"] = errs[-1]
            accuracy[f"conv_order_{grid}"] = order
            if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
                rungs[-1].errors.append(f"observed order {order:.3f} outside {ORDER_RANGE}")
            if not errs[-1] <= MAX_REL_ERROR[grid] * self.amplitude:
                rungs[-1].errors.append(f"sup error {errs[-1]:.3e} too large")
        return accuracy


WORKLOADS = {cls.name: cls for cls in (S2Gauss, AxisymDims, Manufactured)}
