"""The narrative demos that write no files still run end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_demo(demo, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo, expect", [
    ("01_geometry_oracles.py", "threshold 8 rad/s exceeded before contact"),
    ("04_wall_approach.py", "stopped with"),
])
def test_demo_runs_and_writes_nothing(tmp_path, demo, expect):
    assert expect in run_demo(demo, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_wall_demo_prints_the_reading_that_stopped_the_mover(tmp_path):
    # table rows read "  0.74s   6.17 mm   2.026 rad/s"; the last is the stop step's
    rows = [line.split() for line in run_demo("04_wall_approach.py", tmp_path).splitlines()
            if line.endswith("rad/s")]
    assert float(rows[-1][-2]) > 2.0  # the demo's T_grm
