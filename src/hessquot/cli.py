"""Command line interface: config loading, solve/validate/selftest/export.

Configs are INI-style sections of key = value lines (zero-dependency parsing,
easy to diff).  Commands exit with 0 on success, 1 when a selftest check fails
or on any other library error, 2 on config errors, 3 on failed assumption
validation, 4 on cone violations, 5 when the continuation stalls or a bound
monitor aborts, and 6 on I/O errors.  The output directory can be overridden
with the HESSQUOT_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConeViolation,
    ConfigError,
    ContinuationStalled,
    ExpressionError,
    HessquotError,
    MonitorViolation,
    NoConvergence,
    TooCoarse,
    UnsupportedDimension,
)
from .continuation_solver import SolverConfig, SolveTrace, continuation_solve
from .estimates_monitor import check_c0, check_positivity
from .fspec import make_homotopy, parse_f, validate_assumptions
from .sphere_grid import AxisymGrid, SphereGrid2D, build_axisym_grid, build_s2_grid
from .symfun import QuotientParams

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config_text",
    "dump_config",
    "run_solve",
    "run_validate",
    "run_selftest",
    "export_mesh_obj",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_CONE = 4
EXIT_STALLED = 5
EXIT_IO = 6

OUTDIR_ENV = "HESSQUOT_OUTDIR"
DEFAULT_AXISYM_N = 129
DEFAULT_S2_RESOLUTION = (32, 64)
AXISYM_TOL = 1e-10
S2_TOL = 1e-8
REVOLVE_SAMPLES = 128


@dataclass
class ProblemConfig:
    n: int
    k: int
    l: int
    f: str
    r1: float
    r2: float


@dataclass
class GridConfig:
    mode: str = "axisym"
    resolution: str = ""


@dataclass
class SolverSection:
    newton_tol: float | None = None
    max_newton: int = 30
    dt_init: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.25
    max_halvings: int = 20
    cone_margin: float = 1e-12
    allow_unvalidated: bool = False
    validate_samples: int = 400


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("csv",)


@dataclass
class RunConfig:
    problem: ProblemConfig
    grid: GridConfig = field(default_factory=GridConfig)
    solver: SolverSection = field(default_factory=SolverSection)
    output: OutputConfig = field(default_factory=OutputConfig)


_SCHEMA = {
    "problem": {"n", "k", "l", "f", "r1", "r2"},
    "grid": {"mode", "resolution"},
    "solver": {
        "newton_tol", "max_newton", "dt_init", "dt_min", "dt_max",
        "max_halvings", "cone_margin", "allow_unvalidated", "validate_samples",
    },
    "output": {"directory", "formats"},
}


def _parse_sections(text: str):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"unknown section [{current}]", key=current, line=lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if current is None:
            raise ConfigError("key outside of any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError("unknown key", key=f"{current}.{key}", line=lineno)
        if key in sections[current]:
            raise ConfigError("duplicate key", key=f"{current}.{key}", line=lineno)
        sections[current][key] = (value, lineno)
    return sections


def _convert(section, key, raw, lineno, kind):
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in {"true", "yes", "on", "1"}:
                return True
            if lowered in {"false", "no", "off", "0"}:
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"cannot parse {raw!r} as {kind.__name__}", key=f"{section}.{key}", line=lineno
        ) from None


def parse_config_text(text: str) -> RunConfig:
    sections = _parse_sections(text)
    if "problem" not in sections:
        raise ConfigError("missing [problem] section")
    prob = sections["problem"]
    for required in ("n", "k", "l", "f", "r1", "r2"):
        if required not in prob:
            raise ConfigError("missing required key", key=f"problem.{required}")

    def get(section, key, kind, default=None):
        data = sections.get(section, {})
        if key not in data:
            return default
        raw, lineno = data[key]
        return _convert(section, key, raw, lineno, kind)

    problem = ProblemConfig(
        n=get("problem", "n", int),
        k=get("problem", "k", int),
        l=get("problem", "l", int),
        f=prob["f"][0],
        r1=get("problem", "r1", float),
        r2=get("problem", "r2", float),
    )
    try:
        QuotientParams(problem.n, problem.k, problem.l)
    except ValueError as exc:
        raise ConfigError(str(exc), key="problem") from None
    if not (0.0 < problem.r1 < 1.0 < problem.r2):
        raise ConfigError(
            f"annulus must satisfy 0 < r1 < 1 < r2, got ({problem.r1}, {problem.r2})",
            key="problem.r1",
        )
    try:
        parse_f(problem.f)
    except ExpressionError as exc:
        raise ConfigError(f"bad expression: {exc}", key="problem.f") from None

    mode = get("grid", "mode", str, "axisym")
    if mode not in {"axisym", "s2"}:
        raise ConfigError(f"grid mode must be 'axisym' or 's2', got {mode!r}", key="grid.mode")
    if mode == "s2" and problem.n != 2:
        raise ConfigError("grid mode s2 requires n = 2", key="grid.mode")
    default_res = str(DEFAULT_AXISYM_N) if mode == "axisym" else "%dx%d" % DEFAULT_S2_RESOLUTION
    grid = GridConfig(mode=mode, resolution=get("grid", "resolution", str, default_res))
    _parse_resolution(grid)  # fail early on malformed values

    solver = SolverSection(
        newton_tol=get("solver", "newton_tol", float, None),
        max_newton=get("solver", "max_newton", int, 30),
        dt_init=get("solver", "dt_init", float, 0.1),
        dt_min=get("solver", "dt_min", float, 1e-4),
        dt_max=get("solver", "dt_max", float, 0.25),
        max_halvings=get("solver", "max_halvings", int, 20),
        cone_margin=get("solver", "cone_margin", float, 1e-12),
        allow_unvalidated=get("solver", "allow_unvalidated", bool, False),
        validate_samples=get("solver", "validate_samples", int, 400),
    )
    formats_raw = get("output", "formats", str, "csv")
    formats = tuple(part.strip() for part in formats_raw.split(",") if part.strip())
    for fmt in formats:
        if fmt not in {"csv", "obj"}:
            raise ConfigError(f"unknown output format {fmt!r}", key="output.formats")
    output = OutputConfig(directory=get("output", "directory", str, "out"), formats=formats)
    return RunConfig(problem=problem, grid=grid, solver=solver, output=output)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return parse_config_text(text)


def dump_config(cfg: RunConfig) -> str:
    """Serialize a config; parsing the result reproduces the config exactly."""
    lines = [
        "[problem]",
        f"n = {cfg.problem.n}",
        f"k = {cfg.problem.k}",
        f"l = {cfg.problem.l}",
        f"f = {cfg.problem.f}",
        f"r1 = {cfg.problem.r1!r}",
        f"r2 = {cfg.problem.r2!r}",
        "",
        "[grid]",
        f"mode = {cfg.grid.mode}",
        f"resolution = {cfg.grid.resolution}",
        "",
        "[solver]",
    ]
    if cfg.solver.newton_tol is not None:
        lines.append(f"newton_tol = {cfg.solver.newton_tol!r}")
    lines.extend(
        [
            f"max_newton = {cfg.solver.max_newton}",
            f"dt_init = {cfg.solver.dt_init!r}",
            f"dt_min = {cfg.solver.dt_min!r}",
            f"dt_max = {cfg.solver.dt_max!r}",
            f"max_halvings = {cfg.solver.max_halvings}",
            f"cone_margin = {cfg.solver.cone_margin!r}",
            f"allow_unvalidated = {str(cfg.solver.allow_unvalidated).lower()}",
            f"validate_samples = {cfg.solver.validate_samples}",
            "",
            "[output]",
            f"directory = {cfg.output.directory}",
            f"formats = {','.join(cfg.output.formats)}",
        ]
    )
    return "\n".join(lines) + "\n"


def _parse_resolution(grid: GridConfig):
    raw = grid.resolution.lower().replace(" ", "")
    try:
        if grid.mode == "axisym":
            return (int(raw),)
        nt, _, nphi = raw.partition("x")
        return int(nt), int(nphi)
    except ValueError:
        raise ConfigError(
            f"cannot parse resolution {grid.resolution!r} for mode {grid.mode}",
            key="grid.resolution",
        ) from None


def _build_grid(cfg: RunConfig):
    res = _parse_resolution(cfg.grid)
    if cfg.grid.mode == "axisym":
        return build_axisym_grid(res[0])
    return build_s2_grid(res[0], res[1])


def _solver_config(cfg: RunConfig) -> SolverConfig:
    tol = cfg.solver.newton_tol
    if tol is None:
        tol = AXISYM_TOL if cfg.grid.mode == "axisym" else S2_TOL
    return SolverConfig(
        newton_tol=tol,
        max_newton=cfg.solver.max_newton,
        dt_init=cfg.solver.dt_init,
        dt_min=cfg.solver.dt_min,
        dt_max=cfg.solver.dt_max,
        max_halvings=cfg.solver.max_halvings,
        cone_margin=cfg.solver.cone_margin,
    )


def _out_dir(cfg: RunConfig) -> str:
    return os.environ.get(OUTDIR_ENV, cfg.output.directory)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_rho_csv(path, rho, grid):
    lines = []
    if isinstance(grid, AxisymGrid):
        lines.append("theta,rho")
        for theta, value in zip(grid.theta, rho):
            lines.append(f"{_fmt(theta)},{_fmt(value)}")
    else:
        lines.append("theta,phi,rho")
        idx = 0
        for theta in grid.theta:
            for phi in grid.phi:
                lines.append(f"{_fmt(theta)},{_fmt(phi)},{_fmt(rho[idx])}")
                idx += 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


TRACE_HEADER = "t,newton_iters,residual_sup,rho_min,rho_max,u_min,grad_sup,kappa_sup,cone_margin_min"


def _write_trace_csv(path, trace: SolveTrace):
    lines = [TRACE_HEADER]
    for step in trace.steps:
        b = step.bounds
        cells = [
            _fmt(step.t),
            str(step.newton_iters),
            _fmt(step.residual_sup),
            _fmt(b.rho_min),
            _fmt(b.rho_max),
            _fmt(b.u_min),
            _fmt(b.grad_sup),
            _fmt(b.kappa_sup),
            _fmt(b.cone_margin_min),
        ]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _summary_lines(status, trace, target, r1, r2, validation_note):
    lines = [f"status = {status}"]
    if trace.steps:
        last = trace.steps[-1]
        b = last.bounds
        radial = check_c0(b, r1, r2)
        positive = check_positivity(b)
        lines.extend(
            [
                f"steps_accepted = {len(trace.steps)}",
                f"final_t = {_fmt(last.t)}",
                f"final_residual_sup = {_fmt(last.residual_sup)}",
                f"epsilon = {_fmt(target.epsilon)}",
                f"c0 = {_fmt(target.c0)}",
            ]
        )
        for name in b.FIELDS:
            lines.append(f"{name} = {_fmt(getattr(b, name))}")
        lines.append(
            "check_c0 = %s (lower=%s, upper=%s)"
            % ("PASS" if radial.passed else "FAIL",
               _fmt(radial.margins["lower"]), _fmt(radial.margins["upper"]))
        )
        lines.append("check_positivity = %s" % ("PASS" if positive.passed else "FAIL"))
    lines.append(f"validation = {validation_note}")
    return lines


def _write_summary(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _report_text(report):
    rows = []
    for name in ("outer_bound", "inner_bound", "radial_monotone"):
        chk = getattr(report, name)
        rows.append(
            "%s: %s (worst margin %.6e)"
            % (name, "PASS" if chk.passed else "FAIL", chk.worst_margin)
        )
    return rows


def run_validate(cfg: RunConfig) -> int:
    base = parse_f(cfg.problem.f)
    p = QuotientParams(cfg.problem.n, cfg.problem.k, cfg.problem.l)
    report = validate_assumptions(
        base, p, cfg.problem.r1, cfg.problem.r2, samples=cfg.solver.validate_samples
    )
    for row in _report_text(report):
        print(row)
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def run_solve(cfg: RunConfig) -> int:
    base = parse_f(cfg.problem.f)
    p = QuotientParams(cfg.problem.n, cfg.problem.k, cfg.problem.l)
    grid = _build_grid(cfg)
    solver_cfg = _solver_config(cfg)
    target = make_homotopy(base, p, cfg.problem.r1, cfg.problem.r2)

    report = validate_assumptions(
        base, p, cfg.problem.r1, cfg.problem.r2, samples=cfg.solver.validate_samples
    )
    for row in _report_text(report):
        print(row)
    if not report.all_passed and not cfg.solver.allow_unvalidated:
        print("assumption validation failed; rerun with allow_unvalidated = true to override")
        return EXIT_VALIDATION
    validation_note = "PASS" if report.all_passed else "FAIL (overridden)"

    out_dir = _out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    rho_path = os.path.join(out_dir, "rho.csv")
    trace_path = os.path.join(out_dir, "trace.csv")
    summary_path = os.path.join(out_dir, "summary.txt")

    status = "ok"
    exit_code = EXIT_OK
    try:
        solution = continuation_solve(target, grid, solver_cfg, validated=report.all_passed)
        rho, trace = solution.rho, solution.trace
    except ContinuationStalled as exc:
        print(f"continuation stalled: {exc}")
        status, exit_code = "stalled", EXIT_STALLED
        rho, trace = exc.field, exc.trace
    except MonitorViolation as exc:
        print(f"bounds monitor abort: {exc}")
        status, exit_code = "monitor_violation", EXIT_STALLED
        rho, trace = exc.field, exc.trace

    _write_rho_csv(rho_path, rho, grid)
    _write_trace_csv(trace_path, trace)
    lines = _summary_lines(status, trace, target, cfg.problem.r1, cfg.problem.r2, validation_note)
    _write_summary(summary_path, lines)
    if "obj" in cfg.output.formats:
        export_mesh_obj(rho, grid, os.path.join(out_dir, "mesh.obj"), n=cfg.problem.n)
    for line in lines:
        print(line)
    print(f"artifacts written to {out_dir}")
    return exit_code


def export_mesh_obj(rho, grid, path, n: int = 2):
    """Write a watertight OBJ mesh of the surface X = rho x.

    Axisymmetric fields are revolved with a fixed azimuthal sample count; for
    n > 2 this shows the 3-D section of revolution of the meridian profile.
    """
    rho = np.asarray(rho, dtype=float)
    vertices = []
    faces = []

    def ring_index(base, i, j, width):
        return base + i * width + j

    if isinstance(grid, SphereGrid2D):
        nt, np_ = grid.n_theta, grid.n_phi
        pos, _ = grid.node_frames(2)
        pts = rho[:, None] * pos
        vertices.extend(pts.tolist())
        north = rho[: np_].mean()       # ring average approximates the pole value
        south = rho[-np_:].mean()
        vertices.append([north, 0.0, 0.0])
        vertices.append([-south, 0.0, 0.0])
        vn = nt * np_
        vs = nt * np_ + 1
        for i in range(nt - 1):
            for j in range(np_):
                a = ring_index(0, i, j, np_)
                b = ring_index(0, i + 1, j, np_)
                c = ring_index(0, i + 1, (j + 1) % np_, np_)
                d = ring_index(0, i, (j + 1) % np_, np_)
                faces.append((a, b, c, d))
        for j in range(np_):
            faces.append((vn, ring_index(0, 0, (j + 1) % np_, np_), ring_index(0, 0, j, np_)))
            faces.append(
                (vs, ring_index(0, nt - 1, j, np_), ring_index(0, nt - 1, (j + 1) % np_, np_))
            )
    elif isinstance(grid, AxisymGrid):
        N = grid.node_count
        M = REVOLVE_SAMPLES
        phis = 2.0 * math.pi * np.arange(M) / M
        for m in range(1, N - 1):
            st, ct = math.sin(grid.theta[m]), math.cos(grid.theta[m])
            r = rho[m]
            for phi in phis:
                vertices.append([r * ct, r * st * math.cos(phi), r * st * math.sin(phi)])
        vn = len(vertices)
        vertices.append([rho[0], 0.0, 0.0])
        vs = len(vertices)
        vertices.append([-rho[-1], 0.0, 0.0])
        rings = N - 2
        for i in range(rings - 1):
            for j in range(M):
                a = ring_index(0, i, j, M)
                b = ring_index(0, i + 1, j, M)
                c = ring_index(0, i + 1, (j + 1) % M, M)
                d = ring_index(0, i, (j + 1) % M, M)
                faces.append((a, b, c, d))
        for j in range(M):
            faces.append((vn, ring_index(0, 0, (j + 1) % M, M), ring_index(0, 0, j, M)))
            faces.append(
                (vs, ring_index(0, rings - 1, j, M), ring_index(0, rings - 1, (j + 1) % M, M))
            )
    else:
        raise UnsupportedDimension(f"cannot export meshes for grid {type(grid).__name__}")

    with open(path, "w", encoding="utf-8") as handle:
        for v in vertices:
            handle.write("v %s %s %s\n" % (_fmt(v[0]), _fmt(v[1]), _fmt(v[2])))
        for f in faces:
            handle.write("f " + " ".join(str(i + 1) for i in f) + "\n")
    return len(vertices), len(faces)


def run_selftest() -> int:
    from . import selftest

    started = time.perf_counter()
    failures = 0
    for name, passed, detail in selftest.run_all():
        tag = "ok" if passed else "FAIL"
        print(f"[{tag:4s}] {name}: {detail}")
        failures += 0 if passed else 1
    print(f"selftest finished in {time.perf_counter() - started:.1f} s")
    return EXIT_OK if failures == 0 else 1


def _cmd_export(args) -> int:
    cfg = load_config(args.config)
    grid = _build_grid(cfg)
    try:
        data = np.loadtxt(args.rho_csv, delimiter=",", skiprows=1)
    except OSError as exc:
        print(f"cannot read {args.rho_csv}: {exc}")
        return EXIT_IO
    rho = data[:, -1]
    if rho.size != grid.node_count:
        print(f"field has {rho.size} rows, grid expects {grid.node_count}")
        return EXIT_CONFIG
    out_dir = _out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "mesh.obj")
    nverts, nfaces = export_mesh_obj(rho, grid, path, n=cfg.problem.n)
    print(f"wrote {path} ({nverts} vertices, {nfaces} faces)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hessquot",
        description="Prescribed curvature-quotient solver on star-shaped hypersurfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run the continuation solver")
    p_solve.add_argument("config")
    p_val = sub.add_parser("validate", help="check the structural assumptions on f")
    p_val.add_argument("config")
    sub.add_parser("selftest", help="run the built-in property checks")
    p_exp = sub.add_parser("export", help="export a solved field as an OBJ mesh")
    p_exp.add_argument("config")
    p_exp.add_argument("rho_csv")
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            return run_selftest()
        if args.command == "export":
            return _cmd_export(args)
        cfg = load_config(args.config)
        if args.command == "validate":
            return run_validate(cfg)
        return run_solve(cfg)
    except (ConfigError, TooCoarse) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except ConeViolation as exc:
        print(f"cone violation: {exc}")
        return EXIT_CONE
    except (ContinuationStalled, MonitorViolation, NoConvergence) as exc:
        print(f"solver failure: {exc}")
        return EXIT_STALLED
    except OSError as exc:
        print(f"I/O error: {exc}")
        return EXIT_IO
    except HessquotError as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
