"""The benchmark tracer wraps package names by attribute; each must still exist."""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The tracer still names this deleted function for its linsys_s metric.
KNOWN_ABSENT = {"hessquot.continuation_solver._damped_ls_direction"}


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    missing = {
        f"{module_name}.{attr}"
        for module_name, attr, *_ in load_tracing().TARGETS
        if getattr(importlib.import_module(module_name), attr, None) is None
    }
    # a rename in the package would otherwise silently zero a per-layer metric
    assert missing == KNOWN_ABSENT
