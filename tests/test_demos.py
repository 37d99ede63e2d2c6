"""The narrative demos that write no files still run end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, expect", [
    ("01_geometry_oracles.py", "threshold 8 rad/s exceeded before contact"),
    ("04_wall_approach.py", "stopped with"),
])
def test_demo_runs_and_writes_nothing(tmp_path, demo, expect):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
    assert list(tmp_path.iterdir()) == []
