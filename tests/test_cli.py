"""Config parsing, command dispatch, artifact formats, and exit codes."""

import numpy as np
import pytest

from hessquot.errors import ConfigError
from hessquot.cli import (
    EXIT_OK,
    EXIT_STALLED,
    EXIT_VALIDATION,
    dump_config,
    export_mesh_obj,
    main,
    parse_config_text,
)
from hessquot.sphere_grid import build_axisym_grid, build_s2_grid

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
        assert cfg.solver.dt_init == 0.1
        assert cfg.solver.newton_tol is None
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

    def test_s2_requires_n2(self):
        bad = MINIMAL + "\n[grid]\nmode = s2\n"
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_round_trip(self):
        cfg = parse_config_text(MINIMAL)
        assert parse_config_text(dump_config(cfg)) == cfg
        full = MINIMAL + "\n[solver]\nnewton_tol = 1e-9\nallow_unvalidated = true\n"
        cfg = parse_config_text(full)
        assert parse_config_text(dump_config(cfg)) == cfg


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

    def test_stall_writes_partial_trace_and_exits_5(self, tmp_path):
        config = tmp_path / "stall.ini"
        outdir = tmp_path / "out"
        text = RADIAL_SOLVE.format(outdir=outdir).replace(
            "f = 12 * rho^(-3)", "f = 12 * rho^(-3) * (1 + 0.2 * x1 / rho)"
        )
        text += "\n[solver]\nmax_newton = 1\ndt_min = 0.09\n"
        config.write_text(text)
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
    for line in open(path, encoding="utf-8"):
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
        nverts, nfaces = export_mesh_obj(np.ones(grid.node_count), grid, path, n=2)
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
        export_mesh_obj(field, grid, path, n=3)
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
