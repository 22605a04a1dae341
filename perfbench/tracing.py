"""Spans around calls into the hessquot layers, installed from outside the package.

Each wrapper is set on the name as its caller binds it (`from x import f`
copies the binding, so patching the defining module would miss those calls).
A span records its id, its parent's id, a name, start and end times, whether
the call returned, and an optional value taken from the result.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _lu_fill(lu):
    return int(lu.L.nnz + lu.U.nnz)


def _newton_iters(result):
    return int(result[1])


# (module, attribute as the caller binds it, span name, value taken from the result)
TARGETS = (
    ("hessquot.cli", "continuation_solve", "continuation_solver.continuation_solve", None),
    ("hessquot.continuation_solver", "continuation_solve",
     "continuation_solver.continuation_solve", None),
    ("hessquot.continuation_solver", "newton_solve", "continuation_solver.newton_solve",
     _newton_iters),
    ("hessquot.continuation_solver", "assemble_jacobian",
     "continuation_solver.assemble_jacobian", None),
    ("hessquot.continuation_solver", "_residual_and_margin", "continuation_solver.residual",
     None),
    ("hessquot.continuation_solver", "_damped_ls_direction", "continuation_solver.linsys",
     None),
    ("scipy.sparse.linalg", "splu", "continuation_solver.splu", _lu_fill),
    ("hessquot.continuation_solver", "geometry_batch", "radial_geometry.geometry_batch", None),
    ("hessquot.estimates_monitor", "geometry_batch", "radial_geometry.geometry_batch", None),
    ("hessquot.continuation_solver", "jet_arrays", "sphere_grid.jet_arrays", None),
    ("hessquot.estimates_monitor", "jet_arrays", "sphere_grid.jet_arrays", None),
    ("hessquot.continuation_solver", "sigma_batch", "symfun.sigma_batch", None),
    ("hessquot.estimates_monitor", "gamma_margins", "symfun.gamma_margins", None),
    ("hessquot.continuation_solver", "eval_homotopy", "fspec.eval_homotopy", None),
    ("hessquot.cli", "validate_assumptions", "fspec.validate_assumptions", None),
    ("hessquot.fspec", "validate_assumptions", "fspec.validate_assumptions", None),
    ("hessquot.continuation_solver", "snapshot_bounds", "estimates_monitor.snapshot_bounds",
     None),
    ("hessquot.continuation_solver", "check_c0", "estimates_monitor.check", None),
    ("hessquot.continuation_solver", "check_positivity", "estimates_monitor.check", None),
    ("hessquot.cli", "_write_rho_csv", "cli.write", None),
    ("hessquot.cli", "_write_trace_csv", "cli.write", None),
    ("hessquot.cli", "_write_summary", "cli.write", None),
    ("hessquot.cli", "export_mesh_obj", "cli.write", None),
)

# Span whose time is the tracer's own work; it belongs to no layer.
BOOKKEEPING = "trace.bookkeeping"

# per-layer time metric -> span names whose self times it sums
SELF_TIMES = {
    "continuation_solver.factor_s": ("continuation_solver.splu",),
    "continuation_solver.jacobian_s": ("continuation_solver.assemble_jacobian",),
    "continuation_solver.residual_s": ("continuation_solver.residual",),
    "continuation_solver.linsys_s": ("continuation_solver.linsys",),
    "continuation_solver.corrector_s": ("continuation_solver.newton_solve",
                                        "continuation_solver.continuation_solve"),
    "radial_geometry.geometry_s": ("radial_geometry.geometry_batch",),
    "sphere_grid.jets_s": ("sphere_grid.jet_arrays",),
    "symfun.sigma_s": ("symfun.sigma_batch", "symfun.gamma_margins"),
    "fspec.f_eval_s": ("fspec.eval_homotopy",),
    "fspec.validate_s": ("fspec.validate_assumptions",),
    "estimates_monitor.snapshot_s": ("estimates_monitor.snapshot_bounds",
                                     "estimates_monitor.check"),
    "cli.write_s": ("cli.write",),
}


class Tracer:
    """Keeps the spans of the wrapped calls in memory, in the order they opened."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end, returned, value]
        self._stack = []

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0,
                False, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
            span[5] = True
        finally:
            self._close(span)

    def wrap(self, name, fn, value_of=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[5] = True
            if value_of is not None:
                with self.span(BOOKKEEPING):
                    span[6] = value_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that exists; returns (undo, missing target names)."""
        undo, missing = [], []
        for module_name, attr, name, value_of in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, original, value_of))
            undo.append((module, attr, original))
        return undo, missing


def uninstall(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def layer_metrics(spans):
    """Per-layer self times and counts of one traced pass."""
    cover = defaultdict(float)
    for sid, parent, name, start, end, returned, value in spans:
        if parent >= 0:
            cover[parent] += end - start
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    for sid, parent, name, start, end, returned, value in spans:
        self_by_name[name] += (end - start) - cover[sid]
        calls[name] += 1
    out = {metric: sum(self_by_name[n] for n in names) for metric, names in SELF_TIMES.items()}

    name_of = {span[0]: span[2] for span in spans}
    under_jacobian = under_newton = 0
    for sid, parent, name, *_ in spans:
        if name == "continuation_solver.residual":
            under_jacobian += name_of.get(parent) == "continuation_solver.assemble_jacobian"
            under_newton += name_of.get(parent) == "continuation_solver.newton_solve"
    newton = [s for s in spans if s[2] == "continuation_solver.newton_solve"]
    fills = [s[6] for s in spans if s[2] == "continuation_solver.splu" and s[5]]
    newton_iters = sum(s[6] for s in newton if s[5])
    ls_trials = under_newton - len(newton)   # one initial evaluation per corrector
    jacobians = calls["continuation_solver.assemble_jacobian"]
    out.update({
        "continuation_solver.factorizations": calls["continuation_solver.splu"],
        # the largest L.nnz + U.nnz of one factorization in the pass
        "continuation_solver.lu_fill": max(fills, default=0),
        "continuation_solver.jacobian_calls": jacobians,
        "continuation_solver.residual_evals_per_jacobian":
            under_jacobian / jacobians if jacobians else 0.0,
        "continuation_solver.residual_evals": calls["continuation_solver.residual"],
        "continuation_solver.newton_iters": newton_iters,
        "continuation_solver.newton_attempts": len(newton),
        "continuation_solver.rejected_attempts": sum(not s[5] for s in newton),
        "continuation_solver.accepted_steps": sum(bool(s[5]) for s in newton),
        "continuation_solver.ls_trials": ls_trials,
        "continuation_solver.ls_accept_ratio": newton_iters / ls_trials if ls_trials else 0.0,
        "radial_geometry.geometry_calls": calls["radial_geometry.geometry_batch"],
        "fspec.f_eval_calls": calls["fspec.eval_homotopy"],
        "estimates_monitor.snapshot_calls": calls["estimates_monitor.snapshot_bounds"],
    })
    return out
