"""Config parsing, command dispatch, artifact formats, and exit codes."""

import dataclasses
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from hessquot import cli, continuation_solver
from hessquot.continuation_solver import SolverConfig
from hessquot.errors import ConfigError
from hessquot.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_STALLED,
    EXIT_VALIDATION,
    SolverSection,
    _parse_sections,
    _write_rho_csv,
    export_mesh_obj,
    load_config,
    main,
    parse_config_text,
)
from hessquot.sphere_grid import build_axisym_grid, build_s2_grid

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
[problem]
n = 3
k = 2
l = 0
f = 12 * rho^(-3)
r1 = 0.5
r2 = 2.0
"""

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
"""

RADIAL_SOLVE = """
[problem]
n = 3
k = 2
l = 0
f = 12 * rho^(-3)
r1 = 0.5
r2 = 2.0

[grid]
mode = axisym
resolution = 65

[output]
directory = {outdir}
"""


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.grid.mode == "axisym"
        assert cfg.grid.resolution == "129"
        assert cfg.solver.newton_tol is None
        assert cli._build_grid(cfg.grid).newton_tol == 1e-10
        assert cfg.solver.allow_unvalidated is False
        assert cfg.output.directory == "out"

    def test_k_too_small(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL.replace("k = 2", "k = 1"))

    def test_l_too_close_to_k(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL.replace("l = 0", "l = 1"))

    def test_unknown_key_reports_line(self):
        bad = MINIMAL + "\nwidgets = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert "widgets" in str(err.value)
        assert err.value.line is not None

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL + "\nn = 4\n")

    def test_missing_problem_key(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL.replace("r2 = 2.0", ""))

    def test_bad_expression_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL.replace("12 * rho^(-3)", "2*sigma"))

    def test_annulus_must_contain_unit_sphere(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL.replace("r1 = 0.5", "r1 = 1.5"))

    def test_infinite_outer_radius_is_config_error(self, tmp_path):
        config = tmp_path / "inf.ini"
        config.write_text(MINIMAL.replace("r2 = 2.0", "r2 = inf"))
        with pytest.raises(ConfigError) as err:
            load_config(str(config))
        assert err.value.key == "problem.r2"
        assert main(["solve", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("name", ["x5", "x0", "nu4"])
    def test_coordinate_beyond_ambient_dimension(self, tmp_path, name):
        # n = 2: the ambient space is R^3, so only x1..x3 and nu1..nu3 exist
        config = tmp_path / "dim.ini"
        config.write_text(MINIMAL.replace("n = 3", "n = 2").replace(
            "12 * rho^(-3)", f"2 * rho^(-2) * (1 + 0.1 * {name})"))
        with pytest.raises(ConfigError) as err:
            load_config(str(config))
        assert err.value.key == "problem.f"
        assert f"'{name}'" in str(err.value)
        assert main(["validate", str(config)]) == EXIT_CONFIG
        assert main(["solve", str(config)]) == EXIT_CONFIG

    def test_s2_requires_n2(self):
        bad = MINIMAL + "\n[grid]\nmode = s2\n"
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("validate_samples", "50"),
            ("dt_init", "0"),
            ("max_newton", "0"),
            ("max_halvings", "0"),
            ("dt_min", "0.5"),
            ("dt_max", "-1"),
            ("dt_max", "0"),
            ("newton_tol", "nan"),
            ("newton_tol", "inf"),
            ("cone_margin", "nan"),
        ],
    )
    def test_out_of_range_solver_value(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + f"\n[solver]\n{key} = {value}\n")
        assert key in str(err.value)

    @pytest.mark.parametrize(
        "key", ["max_newton", "dt_init", "dt_min", "dt_max", "cone_margin", "validate_samples"])
    def test_step_policy_keys_are_unknown(self, tmp_path, key):
        # the step policy is fixed in the solver; a config that sets one of
        # its former keys, even to the old default, is a config error
        config = tmp_path / "policy.ini"
        config.write_text(MINIMAL + f"\n[solver]\n{key} = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(config))
        assert "unknown key" in str(err.value) and key in str(err.value)
        assert main(["validate", str(config)]) == EXIT_CONFIG

    def test_solver_config_rejects_bad_newton_tol(self):
        for value in (0.0, -1e-10, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolverConfig(newton_tol=value)

    def test_readme_example_parses(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config_text(block)
        assert (cfg.problem.n, cfg.grid.resolution) == (3, "129")
        assert cfg.output.formats == ("csv", "obj")
        # the example lists every [solver] key, so a new or deleted key shows here
        assert set(_parse_sections(block)["solver"]) == {
            f.name for f in dataclasses.fields(SolverSection)}

    @pytest.mark.parametrize(
        "name, newton_tol",
        [("radial", 1e-10), ("anisotropic", 1e-10), ("gauss_s2", 1e-8)],
    )
    def test_shipped_configs(self, name, newton_tol):
        cfg = load_config(str(CONFIGS / f"{name}.ini"))
        assert cfg.solver.newton_tol is None
        assert cli._build_grid(cfg.grid).newton_tol == newton_tol

    def test_s2_defaults(self):
        cfg = parse_config_text(MINIMAL.replace("n = 3", "n = 2") + "\n[grid]\nmode = s2\n")
        assert cfg.grid.resolution == "32x64"
        assert cfg.solver.newton_tol is None
        assert cli._build_grid(cfg.grid).newton_tol == 1e-8

    def test_empty_resolution_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL + "\n[grid]\nresolution =\n")


class TestSolveCommand:
    def test_radial_solve_writes_artifacts(self, tmp_path):
        config = tmp_path / "run.ini"
        outdir = tmp_path / "out"
        config.write_text(RADIAL_SOLVE.format(outdir=outdir))
        assert main(["solve", str(config)]) == EXIT_OK
        rho = np.loadtxt(outdir / "rho.csv", delimiter=",", skiprows=1)
        assert rho.shape == (65, 2)
        assert np.abs(rho[:, 1] - 1.0).max() < 1e-8
        trace = (outdir / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("t,newton_iters,residual_sup")
        assert len(trace) >= 2
        summary = (outdir / "summary.txt").read_text()
        assert "status = ok" in summary
        assert "check_c0 = PASS" in summary

    def test_validation_failure_exits_3(self, tmp_path):
        config = tmp_path / "bad.ini"
        text = RADIAL_SOLVE.format(outdir=tmp_path / "out").replace(
            "12 * rho^(-3)", "3"
        )
        config.write_text(text)
        assert main(["solve", str(config)]) == EXIT_VALIDATION

    def test_override_flag_allows_unvalidated(self, tmp_path):
        config = tmp_path / "sphere.ini"
        outdir = tmp_path / "out"
        # the pure reference shape fails nothing, but force the override path
        text = RADIAL_SOLVE.format(outdir=outdir) + "\n[solver]\nallow_unvalidated = true\n"
        config.write_text(text)
        assert main(["solve", str(config)]) == EXIT_OK

    def test_stall_writes_partial_trace_and_exits_5(self, tmp_path, monkeypatch):
        config = tmp_path / "stall.ini"
        outdir = tmp_path / "out"
        text = RADIAL_SOLVE.format(outdir=outdir).replace(
            "f = 12 * rho^(-3)", "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)"
        )
        config.write_text(text)
        monkeypatch.setattr(continuation_solver, "_MAX_NEWTON", 1)
        monkeypatch.setattr(continuation_solver, "_DT_MIN", 0.09)
        assert main(["solve", str(config)]) == EXIT_STALLED
        trace = (outdir / "trace.csv").read_text().splitlines()
        assert len(trace) >= 2  # header plus the recorded t = 0 step
        assert "status = stalled" in (outdir / "summary.txt").read_text()

    def test_midpath_nonpositive_f_stalls_with_artifacts(self, tmp_path):
        # f_t turns negative at trial t past about 0.56; those correctors fail
        # and halve dt until it underflows, and the last accepted state is kept
        config = tmp_path / "ft.ini"
        outdir = tmp_path / "out"
        text = RADIAL_SOLVE.format(outdir=outdir).replace(
            "f = 12 * rho^(-3)", "f = 12 * rho^(-3) * (1 + 1.5 * x1 / rho)"
        ).replace("resolution = 65", "resolution = 129")
        text += "\n[solver]\nallow_unvalidated = true\n"
        config.write_text(text)
        assert main(["solve", str(config)]) == EXIT_STALLED
        assert np.loadtxt(outdir / "rho.csv", delimiter=",", skiprows=1).shape == (129, 2)
        assert len((outdir / "trace.csv").read_text().splitlines()) >= 2
        assert "status = stalled" in (outdir / "summary.txt").read_text()

    @pytest.mark.parametrize("resolution", [33, 129])
    def test_tolerance_below_round_off_keeps_exact_t0(self, tmp_path, resolution):
        # no corrector can reach 1e-300, so the run stalls; t = 0 is the exact
        # sphere, recorded without a corrector, and is the state written out
        config = tmp_path / "tight.ini"
        outdir = tmp_path / "out"
        text = RADIAL_SOLVE.format(outdir=outdir).replace(
            "f = 12 * rho^(-3)", "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)"
        ).replace("resolution = 65", f"resolution = {resolution}")
        config.write_text(text + "\n[solver]\nnewton_tol = 1e-300\n")
        assert main(["solve", str(config)]) == EXIT_STALLED
        assert "status = stalled" in (outdir / "summary.txt").read_text()
        rows = (outdir / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("0,0,")
        rho = np.loadtxt(outdir / "rho.csv", delimiter=",", skiprows=1)
        assert rho.shape == (resolution, 2)
        assert np.all(rho[:, 1] == 1.0)

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        config = tmp_path / "run.ini"
        outdir = tmp_path / "ignored"
        override = tmp_path / "actual"
        config.write_text(RADIAL_SOLVE.format(outdir=outdir))
        monkeypatch.setenv("HESSQUOT_OUTDIR", str(override))
        assert main(["solve", str(config)]) == EXIT_OK
        assert (override / "rho.csv").exists()
        assert not outdir.exists()

    @pytest.mark.parametrize("name", ["radial", "anisotropic", "gauss_s2"])
    def test_shipped_config_step_sequence(self, tmp_path, monkeypatch, name):
        # guards the step rule: the first corrector tries t = 1, and each
        # shipped run reaches it there, so the trace holds t = 0 and t = 1
        monkeypatch.setenv("HESSQUOT_OUTDIR", str(tmp_path))
        assert main(["solve", str(CONFIGS / f"{name}.ini")]) == EXIT_OK
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) <= 2
        assert float(rows[-1].split(",")[0]) == 1.0

    def test_config_error_exit_code(self, tmp_path):
        config = tmp_path / "broken.ini"
        config.write_text("[problem]\nn = 3\n")
        assert main(["solve", str(config)]) == 2
        assert main(["solve", str(tmp_path / "missing.ini")]) == 2


# anisotropic.ini's f, times a factor that is NaN only within 1.38 degrees of
# the pole: 0 * exp(...) overflows there; only the validator's +-e1 samples
# land on it
NAN_NEAR_POLE = "12 * rho^(-3) * (1 + 0 * exp(1000000 * (x1 / rho - 0.999)))"


def anisotropic_65(tmp_path, monkeypatch, replace):
    """configs/anisotropic.ini at axisym 65, written to tmp_path with its
    output sent to tmp_path / "out"; `replace` maps old lines to new ones."""
    text = (CONFIGS / "anisotropic.ini").read_text().replace(
        "resolution = 129", "resolution = 65")
    for old, new in replace.items():
        assert old in text
        text = text.replace(old, new)
    config = tmp_path / "run.ini"
    config.write_text(text)
    monkeypatch.setenv("HESSQUOT_OUTDIR", str(tmp_path / "out"))
    return config, tmp_path / "out"


class TestExitPaths:
    """Every exit code of `hessquot solve` that a normal run does not reach."""

    def assert_artifacts(self, outdir, status):
        for name in ("rho.csv", "trace.csv", "summary.txt"):
            assert (outdir / name).exists()
        summary = (outdir / "summary.txt").read_text()
        assert f"status = {status}" in summary
        return summary

    def test_nan_at_the_pole_fails_validation(self, tmp_path, monkeypatch, capsys):
        config, outdir = anisotropic_65(tmp_path, monkeypatch, {
            "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)": f"f = {NAN_NEAR_POLE}"})
        assert main(["solve", str(config)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        for check in ("outer_bound", "inner_bound", "radial_monotone"):
            assert f"{check}: FAIL (worst margin nan)" in out
        assert not outdir.exists()

    def test_nan_prescription_at_one_node_stalls(self, tmp_path, monkeypatch, capsys):
        # a NaN f_t is not positive: the corrector fails at every trial t and
        # the run stalls at t = 0 instead of reporting the sphere as solved;
        # the override takes the run past the validator, which rejects this f
        config, outdir = anisotropic_65(tmp_path, monkeypatch, {
            "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)": f"f = {NAN_NEAR_POLE}",
            "[grid]": "[solver]\nallow_unvalidated = true\n\n[grid]"})
        assert main(["solve", str(config)]) == EXIT_STALLED
        out = capsys.readouterr().out
        assert "radial_monotone: FAIL" in out
        assert "NonpositiveF" in out and "at node 0 (value nan)" in out
        summary = self.assert_artifacts(outdir, "stalled")
        assert "final_t = 0\n" in summary

    def test_monitor_violation_exits_5(self, tmp_path, monkeypatch):
        # a validation that passes for an annulus the solution leaves: the
        # radial monitor aborts on the first accepted state outside it
        config, outdir = anisotropic_65(
            tmp_path, monkeypatch, {"r1 = 0.5": "r1 = 0.9", "r2 = 2.0": "r2 = 1.02"})
        real = cli.validate_assumptions
        monkeypatch.setattr(cli, "validate_assumptions",
                            lambda base, p, r1, r2: real(base, p, 0.5, 2.0))
        assert main(["solve", str(config)]) == EXIT_STALLED
        summary = self.assert_artifacts(outdir, "monitor_violation")
        assert "final_t = 1\n" in summary
        assert "check_c0 = FAIL" in summary

    def test_library_error_exits_1(self, tmp_path, capsys):
        config = tmp_path / "log.ini"
        config.write_text(RADIAL_SOLVE.format(outdir=tmp_path / "out").replace(
            "f = 12 * rho^(-3)", "f = log(x1)"))
        assert main(["solve", str(config)]) == 1
        assert "log of a nonpositive value" in capsys.readouterr().out

    def test_output_below_a_file_exits_6(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = tmp_path / "run.ini"
        config.write_text(RADIAL_SOLVE.format(outdir=blocker / "out"))
        assert main(["solve", str(config)]) == EXIT_IO
        assert "I/O error" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, named",
        [
            (MINIMAL + "\n[widgets]\n", "key 'widgets', line 10"),
            (MINIMAL + "\njust words\n", "line 10"),
            ("n = 3\n" + MINIMAL, "line 1"),
            (MINIMAL + "\n[solver]\nallow_unvalidated = maybe\n",
             "key 'solver.allow_unvalidated', line 11"),
            ("[grid]\nmode = axisym\n", "[problem]"),
            (MINIMAL + "\n[grid]\nmode = cube\n", "key 'grid.mode'"),
            (MINIMAL + "\n[output]\nformats = csv,png\n", "key 'output.formats'"),
            (MINIMAL + "\n[grid]\nresolution = 65x2\n", "key 'grid.resolution'"),
        ],
        ids=["unknown-section", "no-equals", "key-before-section", "bad-bool",
             "no-problem", "unknown-mode", "unknown-format", "resolution-parts"],
    )
    def test_config_error_exits_2(self, tmp_path, capsys, text, named):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(str(config))
        assert named in str(err.value)
        assert main(["solve", str(config)]) == EXIT_CONFIG
        assert named in capsys.readouterr().out


class TestValidateCommand:
    def test_pass_and_fail_exit_codes(self, tmp_path):
        good = tmp_path / "good.ini"
        good.write_text(MINIMAL)
        assert main(["validate", str(good)]) == EXIT_OK
        # the second f is infinite only at rho = 1.25, a radius of the
        # monotonicity ladder; it must not make that check's tolerance infinite
        for f in ("3", "12 * rho^(-3) + exp(800 * exp(-1000 * (rho - 1.25)^2)) - 1"):
            bad = tmp_path / "bad.ini"
            bad.write_text(MINIMAL.replace("12 * rho^(-3)", f))
            assert main(["validate", str(bad)]) == EXIT_VALIDATION

    def test_too_few_samples_is_config_error(self, tmp_path):
        config = tmp_path / "few.ini"
        config.write_text(MINIMAL + "\n[solver]\nvalidate_samples = 50\n")
        assert main(["validate", str(config)]) == EXIT_CONFIG

    def test_overflowing_prescription_fails_validation(self, tmp_path, capsys):
        # exp overflows to inf on the outer sphere; the tests make numpy's
        # floating-point errors raise, so one that escaped would end the run
        config = tmp_path / "overflow.ini"
        config.write_text(MINIMAL.replace("12 * rho^(-3)", "12*rho^(-3)*exp(2000*(rho-1))"))
        assert main(["validate", str(config)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "outer_bound: FAIL (worst margin -inf)" in captured.out
        assert captured.err == ""

    def test_module_entry_point_runs_uninstalled(self):
        # `python -m hessquot.cli` in a fresh interpreter, from the source tree
        root = CONFIGS.parent
        done = subprocess.run(
            [sys.executable, "-m", "hessquot.cli", "validate", str(CONFIGS / "radial.ini")],
            env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert "radial_monotone: PASS" in done.stdout


# run each command of a JSON list through cli.main in one process, printing
# after each the scipy modules then loaded
IMPORT_PROBE = """
import json, sys
from hessquot.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(json.dumps(loaded))
"""


class TestFreshProcessImports:
    """A CLI command imports only the scipy it uses: validate, export and an
    s2 solve none, and an axisymmetric solve that path's LAPACK band factor,
    scipy.linalg, and neither scipy.sparse nor scipy.special."""

    @staticmethod
    def loaded_after(commands):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
            env=dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src")),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_scipy_modules_per_command(self, tmp_path):
        s2, axisym = tmp_path / "s2.ini", tmp_path / "axisym.ini"
        s2.write_text(GAUSS_S2_32x64.replace("32x64", "16x32").format(outdir=tmp_path / "s2"))
        axisym.write_text(RADIAL_SOLVE.format(outdir=tmp_path / "axisym").replace(
            "f = 12 * rho^(-3)", "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)"))
        assert main(["solve", str(s2)]) == EXIT_OK
        rho_csv = str(tmp_path / "s2" / "rho.csv")
        assert self.loaded_after([["validate", str(s2)], ["export", str(s2), rho_csv]]) == [[], []]
        after_s2, after_axisym = self.loaded_after([["solve", str(s2)], ["solve", str(axisym)]])
        assert after_s2 == []
        assert "scipy.linalg.lapack" in after_axisym
        assert not [m for m in after_axisym if m.startswith("scipy.sparse")]

    def test_axisym_validate_and_solve_load_no_scipy_special(self, tmp_path):
        # validation maps its directions through numpy's port of Cephes' ndtri
        axisym = tmp_path / "axisym.ini"
        axisym.write_text(RADIAL_SOLVE.format(outdir=tmp_path / "axisym").replace(
            "f = 12 * rho^(-3)", "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)"))
        assert self.loaded_after([["validate", str(CONFIGS / "anisotropic.ini")]]) == [[]]
        (after_solve,) = self.loaded_after([["solve", str(axisym)]])
        assert "scipy.linalg" in after_solve
        assert not [m for m in after_solve if m.startswith("scipy.special")]


def edge_use_counts(faces):
    counts = {}
    for face in faces:
        m = len(face)
        for a, b in ((face[i], face[(i + 1) % m]) for i in range(m)):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def read_obj(path):
    vertices, faces = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x) - 1 for x in parts[1:]])
    return np.array(vertices), faces


class TestExport:
    def test_s2_unit_sphere_mesh(self, tmp_path):
        grid = build_s2_grid(16, 32)
        path = tmp_path / "mesh.obj"
        nverts, nfaces = export_mesh_obj(np.ones(grid.node_count), grid, path)
        assert nverts == 16 * 32 + 2
        verts, faces = read_obj(path)
        assert np.linalg.norm(verts, axis=1) == pytest.approx(
            np.ones(nverts), abs=1e-12
        )
        # watertight: every edge is shared by exactly two faces
        assert set(edge_use_counts(faces).values()) == {2}

    def test_axisym_revolution_symmetry(self, tmp_path):
        grid = build_axisym_grid(17)
        field = 1.0 + 0.1 * np.cos(grid.theta)
        path = tmp_path / "mesh.obj"
        export_mesh_obj(field, grid, path)
        verts, faces = read_obj(path)
        rings = verts[:-2].reshape(15, 128, 3)
        radii = np.linalg.norm(rings, axis=2)
        assert np.ptp(radii, axis=1).max() < 1e-12
        assert set(edge_use_counts(faces).values()) == {2}

    def test_export_command(self, tmp_path):
        config = tmp_path / "run.ini"
        outdir = tmp_path / "out"
        config.write_text(RADIAL_SOLVE.format(outdir=outdir))
        assert main(["solve", str(config)]) == EXIT_OK
        assert main(["export", str(config), str(outdir / "rho.csv")]) == EXIT_OK
        assert (outdir / "mesh.obj").exists()

    def test_export_missing_field_is_io_error(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(RADIAL_SOLVE.format(outdir=tmp_path / "out"))
        assert main(["export", str(config), str(tmp_path / "nope.csv")]) == 6

    def test_export_wrong_size_is_config_error(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(RADIAL_SOLVE.format(outdir=tmp_path / "out"))
        short = tmp_path / "short.csv"
        short.write_text("theta,rho\n0.0,1.0\n0.1,1.0\n")
        assert main(["export", str(config), str(short)]) == 2

    @pytest.mark.parametrize("mode, resolution, field_grid, bad_rho, first_bad_row", [
        # both grids have 2 048 nodes, so only the coordinates tell them apart
        ("s2", "64x32", build_s2_grid(32, 64), {}, 1),
        ("axisym", "65", build_axisym_grid(65), {10: np.nan, 20: -1.0}, 11),
    ], ids=["same-size-other-grid", "nan-and-negative-rho"])
    def test_export_bad_field_is_config_error(self, tmp_path, capsys, mode, resolution,
                                              field_grid, bad_rho, first_bad_row):
        config = tmp_path / "run.ini"
        text = MINIMAL.replace("n = 3", "n = 2") + f"\n[grid]\nmode = {mode}\n"
        config.write_text(text + f"resolution = {resolution}\n\n[output]\n"
                          f"directory = {tmp_path / 'out'}\n")
        rho = np.ones(field_grid.node_count)
        rho[list(bad_rho)] = list(bad_rho.values())
        field = tmp_path / "rho.csv"
        _write_rho_csv(field, rho, field_grid)
        assert main(["export", str(config), str(field)]) == EXIT_CONFIG
        assert f"data row {first_bad_row} is" in capsys.readouterr().out
        assert not (tmp_path / "out" / "mesh.obj").exists()

    def test_export_single_row_is_config_error(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(RADIAL_SOLVE.format(outdir=tmp_path / "out"))
        single = tmp_path / "single.csv"
        single.write_text("theta,rho\n0.0,1.0\n")
        assert main(["export", str(config), str(single)]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("error")
    def test_export_header_only_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(RADIAL_SOLVE.format(outdir=tmp_path / "out"))
        empty = tmp_path / "empty.csv"
        empty.write_text("theta,rho\n")
        assert main(["export", str(config), str(empty)]) == EXIT_CONFIG
        assert "field has 0 rows, grid expects 65" in capsys.readouterr().out

    def test_export_non_numeric_cell_is_io_error(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(RADIAL_SOLVE.format(outdir=tmp_path / "out"))
        bad = tmp_path / "bad.csv"
        bad.write_text("theta,rho\n0.0,1.0\n0.1,abc\n")
        assert main(["export", str(config), str(bad)]) == EXIT_IO

    def test_export_axisym_field_on_s2_grid_is_config_error(self, tmp_path):
        config = tmp_path / "s2.ini"
        text = MINIMAL.replace("n = 3", "n = 2") + "\n[grid]\nmode = s2\nresolution = 16x32\n"
        config.write_text(text + f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
        flat = tmp_path / "flat.csv"
        theta = np.linspace(0.0, np.pi, 512)
        flat.write_text("theta,rho\n" + "".join(f"{t:.17g},1.0\n" for t in theta))
        assert main(["export", str(config), str(flat)]) == EXIT_CONFIG
        assert not (tmp_path / "out" / "mesh.obj").exists()

    def test_s2_rho_csv_layout(self, tmp_path):
        grid = build_s2_grid(16, 32)
        rng = np.random.default_rng(0)
        field = 1.0 + 0.1 * rng.standard_normal(grid.node_count)
        path = tmp_path / "rho.csv"
        _write_rho_csv(path, field, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,phi,rho"
        assert len(lines) - 1 == grid.node_count
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], np.repeat(grid.theta, grid.n_phi))
        assert np.array_equal(data[:, 1], np.tile(grid.phi, grid.n_theta))
        assert np.array_equal(data[:, 2], field)

    @pytest.mark.parametrize("angles", [0, 1, 2])
    def test_csv_rows_print_each_number_as_its_own_format(self, angles):
        # angle texts are formatted once per distinct value, keyed by bits:
        # 0.0 and -0.0 compare equal but print apart, and so do the NaNs'
        rows = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -0.0], [0.0, np.inf, np.nan],
                         [0.1, -0.0, 2.0 / 3.0], [np.nan, -np.inf, 1e-300]])
        expected = "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows.tolist())
        assert cli._csv_rows(rows, angles) == expected


# the test oracles live in tests/oracles.py; the package holds the solver
MOVED_TO_ORACLES = (
    "ConeReport", "as_spectrum", "elementary_symmetric", "elementary_symmetric_excluding",
    "in_gamma_k", "_require_cone", "quotient_G", "grad_G", "offdiag_second_G", "f_tensor",
    "newton_maclaurin_slack", "sample_gamma_k", "SAMPLING_CUBE", "SAMPLING_DRAW_CAP",
    "_SAMPLING_BLOCK", "PointJet", "PointGeometry", "assemble_point_geometry",
    "sphere_closed_form", "SamplingExhausted",
)


class TestRemovedSurface:
    def test_selftest_is_not_a_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["selftest"])
        assert exc.value.code == 2  # argparse's usage error

    def test_package_binds_no_test_oracle(self):
        import hessquot
        from hessquot import errors, manufactured, radial_geometry, symfun

        for module in (hessquot, errors, radial_geometry, symfun):
            assert [name for name in MOVED_TO_ORACLES if hasattr(module, name)] == []
        assert not hasattr(manufactured, "zonal_jets_analytic")
        assert not hasattr(cli, "run_selftest")
        assert importlib.util.find_spec("hessquot.selftest") is None


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        config = tmp_path / "run.ini"
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        config.write_text(
            RADIAL_SOLVE.format(outdir=out1).replace(
                "f = 12 * rho^(-3)", "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)"
            )
        )
        assert main(["solve", str(config)]) == EXIT_OK
        config.write_text(
            RADIAL_SOLVE.format(outdir=out2).replace(
                "f = 12 * rho^(-3)", "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)"
            )
        )
        assert main(["solve", str(config)]) == EXIT_OK
        assert (out1 / "rho.csv").read_bytes() == (out2 / "rho.csv").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_sequenced_s2_outputs_are_byte_identical(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for outdir in outs:
            config = tmp_path / "s2.ini"
            config.write_text(GAUSS_S2_32x64.format(outdir=outdir))
            assert main(["solve", str(config)]) == EXIT_OK
        for name in ("rho.csv", "trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        lines = (outs[0] / "trace.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "t" and lines[0].split(",")[-1] == "nodes"
        rows = [line.split(",") for line in lines[1:]]
        # the path on the 16x32 halving, then one corrector on the 32x64 grid
        assert (float(rows[-1][0]), rows[-1][-1]) == (1.0, "2048")
        assert {row[-1] for row in rows[:-1]} == {"512"}
