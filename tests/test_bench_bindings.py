"""The benchmark tracer wraps package names by attribute; each must still exist."""

import importlib
import importlib.util
import pathlib

import pytest

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


ANISOTROPIC_33 = """
[problem]
n = 3
k = 2
l = 0
f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)
r1 = 0.5
r2 = 2.0

[grid]
mode = axisym
resolution = 33

[output]
directory = {outdir}
formats = csv,obj
"""


# the sequenced path: the 16x32 halving, then one corrector on 32x64
GAUSS_S2_32x64 = """
[problem]
n = 2
k = 2
l = 0
f = rho^(-3) * (1 + 0.15 * x1 / rho)
r1 = 0.5
r2 = 2.0

[grid]
mode = s2
resolution = 32x64

[output]
directory = {outdir}
formats = csv,obj
"""


# the s2 Newton step factors its phi-mode blocks without splu, so no
# continuation_solver.splu span opens on s2
@pytest.mark.parametrize("text, idle", [
    (ANISOTROPIC_33, {"continuation_solver.linsys"}),
    (GAUSS_S2_32x64, {"continuation_solver.linsys", "continuation_solver.splu"}),
], ids=["axisym", "s2"])
def test_every_traced_layer_fires(tmp_path, text, idle):
    from hessquot.cli import EXIT_OK, main

    tracing = load_tracing()
    config = tmp_path / "run.ini"
    config.write_text(text.format(outdir=tmp_path / "out"))
    tracer = tracing.Tracer()
    undo, _ = tracer.install()
    try:
        assert main(["solve", str(config)]) == EXIT_OK
    finally:
        tracing.uninstall(undo)
    opened = {span[2] for span in tracer.spans}
    timed = {name for names in tracing.SELF_TIMES.values() for name in names}
    # a binding that exists but is no longer called on its path reads 0 too
    assert timed - opened == idle
