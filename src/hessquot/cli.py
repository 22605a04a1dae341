"""Command line interface: config loading, solve/validate/export.

Configs are INI-style sections of key = value lines (zero-dependency parsing,
easy to diff).  Commands exit with 0 on success, 2 on config errors, 3 on
failed assumption validation, 5 when the continuation stalls or a bound
monitor aborts, 6 on I/O errors, and 1 on any other library error.  A cone
exit during continuation is a corrector failure, so it ends as a stall.  The
output directory can be overridden with the
HESSQUOT_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import (
    BadAnnulus,
    ConfigError,
    ContinuationStalled,
    ExpressionError,
    HessquotError,
    MonitorViolation,
    TooCoarse,
)
from .continuation_solver import SolverConfig, SolveStep, continuation_solve
from .estimates_monitor import check_c0, check_positivity
from .fspec import check_annulus, make_homotopy, parse_f, validate_assumptions
from .sphere_grid import build_axisym_grid, build_s2_grid
from .symfun import QuotientParams

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config_text",
    "run_solve",
    "run_validate",
    "export_mesh_obj",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_STALLED = 5
EXIT_IO = 6

OUTDIR_ENV = "HESSQUOT_OUTDIR"
# grid mode -> (grid builder, default resolution); the grid owns its newton_tol
GRID_MODES = {
    "axisym": (build_axisym_grid, "129"),
    "s2": (build_s2_grid, "32x64"),
}


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
class SolverSection(SolverConfig):
    allow_unvalidated: bool = False


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


# section -> key -> type, read from the fields of RunConfig's section dataclasses
_KEYS = {
    name: typing.get_type_hints(section)
    for name, section in typing.get_type_hints(RunConfig).items()
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
            if current not in _KEYS:
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
        kinds = _KEYS[current]
        if key not in kinds:
            raise ConfigError("unknown key", key=f"{current}.{key}", line=lineno)
        if key in sections[current]:
            raise ConfigError("duplicate key", key=f"{current}.{key}", line=lineno)
        sections[current][key] = _convert(f"{current}.{key}", value, lineno, kinds[key])
    return sections


def _convert(key, raw, lineno, kind):
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in {"true", "yes", "on", "1"}:
                return True
            if lowered in {"false", "no", "off", "0"}:
                return False
            raise ValueError(raw)
        if kind is tuple:
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"cannot parse {raw!r} as {kind.__name__}", key=key, line=lineno
        ) from None


def parse_config_text(text: str) -> RunConfig:
    sections = _parse_sections(text)
    if "problem" not in sections:
        raise ConfigError("missing [problem] section")
    for key in fields(ProblemConfig):
        if key.default is MISSING and key.name not in sections["problem"]:
            raise ConfigError("missing required key", key=f"problem.{key.name}")

    problem = ProblemConfig(**sections["problem"])
    try:
        QuotientParams(problem.n, problem.k, problem.l)
    except ValueError as exc:
        raise ConfigError(str(exc), key="problem") from None
    try:
        check_annulus(problem.r1, problem.r2)
    except BadAnnulus as exc:
        key = "problem.r2" if 0.0 < problem.r1 < 1.0 else "problem.r1"
        raise ConfigError(str(exc), key=key) from None
    try:
        parse_f(problem.f, problem.n + 1)
    except ExpressionError as exc:
        raise ConfigError(f"bad expression: {exc}", key="problem.f") from None

    grid_keys = sections.get("grid", {})
    grid = GridConfig(**grid_keys)
    if grid.mode not in GRID_MODES:
        raise ConfigError(
            f"grid mode must be {' or '.join(map(repr, GRID_MODES))}, got {grid.mode!r}",
            key="grid.mode",
        )
    if grid.mode == "s2" and problem.n != 2:
        raise ConfigError("grid mode s2 requires n = 2", key="grid.mode")
    grid.resolution = grid_keys.get("resolution", GRID_MODES[grid.mode][1])
    _parse_resolution(grid)  # fail early on malformed values

    output = OutputConfig(**sections.get("output", {}))
    for fmt in output.formats:
        if fmt not in {"csv", "obj"}:
            raise ConfigError(f"unknown output format {fmt!r}", key="output.formats")
    try:
        solver = SolverSection(**sections.get("solver", {}))
    except ValueError as exc:
        raise ConfigError(str(exc), key="solver") from None
    return RunConfig(problem=problem, grid=grid, solver=solver, output=output)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return parse_config_text(text)


def _parse_resolution(grid: GridConfig):
    """Grid sizes in the shape of the mode's default resolution (`N` or `NxM`)."""
    parts = grid.resolution.lower().replace(" ", "").split("x")
    try:
        if len(parts) != len(GRID_MODES[grid.mode][1].split("x")):
            raise ValueError(grid.resolution)
        return tuple(int(part) for part in parts)
    except ValueError:
        raise ConfigError(
            f"cannot parse resolution {grid.resolution!r} for mode {grid.mode}",
            key="grid.resolution",
        ) from None


def _build_grid(grid: GridConfig):
    return GRID_MODES[grid.mode][0](*_parse_resolution(grid))


def _out_dir(cfg: RunConfig) -> str:
    return os.environ.get(OUTDIR_ENV, cfg.output.directory)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_rows(rows, angles: int = 0) -> str:
    """One line per row of a 2-D array, each number as _fmt writes it.  Of
    the first `angles` columns, each one that repeats values (a 2-D grid's
    theta and phi) has each distinct value, by its bits, formatted once."""
    rows = np.asarray(rows, dtype=float)
    cells, specs = rows.astype(object), ["%.17g"] * rows.shape[1]
    for c in range(angles):
        keys, inverse = np.unique(rows[:, c].view(np.int64), return_inverse=True)
        if keys.size < len(rows):
            texts = np.array([_fmt(x) for x in keys.view(float).tolist()], dtype=object)
            cells[:, c], specs[c] = texts[inverse], "%s"
    line = ",".join(specs) + "\n"
    return (line * rows.shape[0]) % tuple(cells.ravel().tolist())


def _write_rho_csv(path, rho, grid):
    header = ",".join(grid.columns + ("rho",)) + "\n"
    rows = _csv_rows(np.column_stack([grid.angles(), rho]), angles=len(grid.columns))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + rows)


# trace.csv columns: fields of each SolveStep, then fields of its bounds snapshot,
# then the node count of the step's grid (t stays column 0)
TRACE_STEP_COLUMNS = ("t", "newton_iters", "residual_sup")
TRACE_BOUND_COLUMNS = ("rho_min", "rho_max", "u_min", "grad_sup", "kappa_sup", "cone_margin_min")


def _write_trace_csv(path, trace: list[SolveStep]):
    header = ",".join(TRACE_STEP_COLUMNS + TRACE_BOUND_COLUMNS + ("nodes",)) + "\n"
    rows = [[getattr(step, name) for name in TRACE_STEP_COLUMNS]
            + [getattr(step.bounds, name) for name in TRACE_BOUND_COLUMNS] + [step.nodes]
            for step in trace]
    columns = len(TRACE_STEP_COLUMNS) + len(TRACE_BOUND_COLUMNS) + 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + _csv_rows(np.reshape(rows, (-1, columns))))


def _summary_lines(status, solution, target, r1, r2, validation_note):
    last, b = solution.trace[-1], solution.bounds
    radial = check_c0(b, r1, r2)
    positive = check_positivity(b)
    lines = [
        f"status = {status}",
        f"steps_accepted = {len(solution.trace)}",
        f"final_t = {_fmt(last.t)}",
        f"final_residual_sup = {_fmt(last.residual_sup)}",
        f"epsilon = {_fmt(target.epsilon)}",
        f"c0 = {_fmt(target.c0)}",
    ]
    for f in fields(b):
        lines.append(f"{f.name} = {_fmt(getattr(b, f.name))}")
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


def _validate(cfg: RunConfig):
    """Check the structural assumptions on f and print the report; returns (base, p, report)."""
    base = parse_f(cfg.problem.f)
    p = QuotientParams(cfg.problem.n, cfg.problem.k, cfg.problem.l)
    report = validate_assumptions(base, p, cfg.problem.r1, cfg.problem.r2)
    for name in ("outer_bound", "inner_bound", "radial_monotone"):
        chk = getattr(report, name)
        print(
            "%s: %s (worst margin %.6e)"
            % (name, "PASS" if chk.passed else "FAIL", chk.worst_margin)
        )
    return base, p, report


def run_validate(cfg: RunConfig) -> int:
    _, _, report = _validate(cfg)
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def run_solve(cfg: RunConfig) -> int:
    grid = _build_grid(cfg.grid)
    base, p, report = _validate(cfg)
    target = make_homotopy(base, p, cfg.problem.r1, cfg.problem.r2)
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
    try:
        solution = continuation_solve(target, grid, cfg.solver, validated=report.all_passed)
    except ContinuationStalled as exc:
        print(f"continuation stalled: {exc}")
        status, solution = "stalled", exc.solution
    except MonitorViolation as exc:
        print(f"bounds monitor abort: {exc}")
        status, solution = "monitor_violation", exc.solution

    _write_rho_csv(rho_path, solution.rho, grid)
    _write_trace_csv(trace_path, solution.trace)
    lines = _summary_lines(status, solution, target, cfg.problem.r1, cfg.problem.r2,
                           validation_note)
    _write_summary(summary_path, lines)
    if "obj" in cfg.output.formats:
        export_mesh_obj(solution.rho, grid, os.path.join(out_dir, "mesh.obj"))
    for line in lines:
        print(line)
    print(f"artifacts written to {out_dir}")
    return EXIT_OK if status == "ok" else EXIT_STALLED


def export_mesh_obj(rho, grid, path):
    """Write a watertight OBJ mesh of the surface X = rho x.

    The vertices are the grid's surface rings, then the north and south pole
    points; quads join neighbouring rings and a triangle fan closes each pole.
    """
    rings, poles = grid.surface_rings(rho)
    R, M, _ = rings.shape
    vertices = np.concatenate([rings.reshape(-1, 3), poles])
    # quad (a, a + M, d + M, d) joins column j of ring i to column j + 1, then
    # each column has a north and a south fan triangle; OBJ counts from 1
    ring, column = np.arange(R - 1)[:, None] * M, np.arange(M)
    a, d = (ring + column).ravel(), (ring + (column + 1) % M).ravel()
    quads = np.stack([a, a + M, d + M, d], axis=-1) + 1
    north, south, last = R * M, R * M + 1, (R - 1) * M
    fans = np.stack([np.full(M, north), (column + 1) % M, column,
                     np.full(M, south), last + column, last + (column + 1) % M], axis=-1) + 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(("v %.17g %.17g %.17g\n" * len(vertices)) % tuple(vertices.ravel().tolist()))
        handle.write(("f %d %d %d %d\n" * len(quads)) % tuple(quads.ravel().tolist()))
        handle.write(("f %d %d %d\n" * (2 * M)) % tuple(fans.ravel().tolist()))
    return len(vertices), len(quads) + 2 * M


def _cmd_export(args) -> int:
    cfg = load_config(args.config)
    grid = _build_grid(cfg.grid)
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported below as a row-count mismatch
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(args.rho_csv, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.rho_csv}: {exc}")
        return EXIT_IO
    if len(data) and data.shape[1] != len(grid.columns) + 1:
        print(f"field has {data.shape[1]} columns, grid expects {len(grid.columns) + 1}")
        return EXIT_CONFIG
    if len(data) != grid.node_count:
        print(f"field has {len(data)} rows, grid expects {grid.node_count}")
        return EXIT_CONFIG
    angles, rho = data[:, :-1], data[:, -1]
    bad = (np.abs(angles - grid.angles()) > 1e-9).any(axis=1) | ~(np.isfinite(rho) & (rho > 0))
    if bad.any():
        i = np.argmax(bad)
        print(f"{args.rho_csv} data row {i + 1} is {data[i].tolist()}; the grid wants "
              f"{', '.join(grid.columns)} = {grid.angles()[i].tolist()} and a finite rho > 0")
        return EXIT_CONFIG
    out_dir = _out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "mesh.obj")
    nverts, nfaces = export_mesh_obj(rho, grid, path)
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
    p_exp = sub.add_parser("export", help="export a solved field as an OBJ mesh")
    p_exp.add_argument("config")
    p_exp.add_argument("rho_csv")
    args = parser.parse_args(argv)

    try:
        if args.command == "export":
            return _cmd_export(args)
        cfg = load_config(args.config)
        if args.command == "validate":
            return run_validate(cfg)
        return run_solve(cfg)
    except (ConfigError, TooCoarse) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}")
        return EXIT_IO
    except HessquotError as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
