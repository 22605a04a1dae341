"""Config parsing, command dispatch, artifact formats, and exit codes."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from hessquot import continuation_solver
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
    dump_config,
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
        assert cfg.solver.newton_tol == 1e-10
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

    def test_round_trip(self):
        cfg = parse_config_text(MINIMAL)
        assert parse_config_text(dump_config(cfg)) == cfg
        full = MINIMAL + "\n[solver]\nnewton_tol = 1e-9\nallow_unvalidated = true\n"
        cfg = parse_config_text(full)
        assert parse_config_text(dump_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "name, newton_tol",
        [("radial", 1e-10), ("anisotropic", 1e-10), ("gauss_s2", 1e-8)],
    )
    def test_shipped_configs(self, name, newton_tol):
        cfg = load_config(str(CONFIGS / f"{name}.ini"))
        assert parse_config_text(dump_config(cfg)) == cfg
        assert cfg.solver.newton_tol == newton_tol

    def test_s2_defaults(self):
        cfg = parse_config_text(MINIMAL.replace("n = 3", "n = 2") + "\n[grid]\nmode = s2\n")
        assert cfg.grid.resolution == "32x64"
        assert cfg.solver.newton_tol == 1e-8

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
        # guards the dt-growth rule: each shipped run reaches t = 1 in at most
        # 7 accepted steps, t = 0 included
        monkeypatch.setenv("HESSQUOT_OUTDIR", str(tmp_path))
        assert main(["solve", str(CONFIGS / f"{name}.ini")]) == EXIT_OK
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) <= 7
        assert float(rows[-1].split(",")[0]) == 1.0

    def test_config_error_exit_code(self, tmp_path):
        config = tmp_path / "broken.ini"
        config.write_text("[problem]\nn = 3\n")
        assert main(["solve", str(config)]) == 2
        assert main(["solve", str(tmp_path / "missing.ini")]) == 2


class TestValidateCommand:
    def test_pass_and_fail_exit_codes(self, tmp_path):
        good = tmp_path / "good.ini"
        good.write_text(MINIMAL)
        assert main(["validate", str(good)]) == EXIT_OK
        bad = tmp_path / "bad.ini"
        bad.write_text(MINIMAL.replace("12 * rho^(-3)", "3"))
        assert main(["validate", str(bad)]) == EXIT_VALIDATION

    def test_too_few_samples_is_config_error(self, tmp_path):
        config = tmp_path / "few.ini"
        config.write_text(MINIMAL + "\n[solver]\nvalidate_samples = 50\n")
        assert main(["validate", str(config)]) == EXIT_CONFIG


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


class TestSelftestCommand:
    def test_selftest_passes(self):
        assert main(["selftest"]) == EXIT_OK


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
