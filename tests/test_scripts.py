"""Smoke runs of the scripts under scripts/ on small grids."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_sphere_demo(tmp_path):
    out = tmp_path / "demo.obj"
    done = run_script("sphere_demo.py", "--resolution", "16x32", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert "solved in" in done.stdout
    assert out.exists()


def test_convergence_study():
    done = run_script("convergence_study.py", "--resolutions", "33", "65")
    assert done.returncode == 0, done.stderr
    # one table per (n, k, l), each with a ratio row for the 65-point grid
    rows = [line.split() for line in done.stdout.splitlines()]
    ratio_rows = [row for row in rows if row and row[0] == "65"]
    assert len(ratio_rows) == 2
    assert all(float(row[2]) > 3.0 for row in ratio_rows)  # second order: about 4
