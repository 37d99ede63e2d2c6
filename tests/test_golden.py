"""Pinned sweep output: any change in simulated behaviour changes this hash.

The grid covers stops, collisions and at least one undefined metric in 400
steps per trial, so drift in perception, control, stepping, classification
or CSV formatting all show up here.  A deliberate behaviour change updates
the hash in the same commit and says why.

The crowded grid (N=30, thresholds down to 0.1 rad/s) keeps most agents
stopped, so the perception kernel's culling floor, min(T_grm, T_loom), is
near zero and most of the pairs it skips are two stopped agents.  Its hash
was recorded with the dense kernel that evaluated every pair, before
threshold-aware pair culling was added, so it pins that culling changes
no output.
"""

import hashlib
import pathlib
from dataclasses import replace

import pytest

from grmsim.harness import SweepGrid, config, emit_csv, run_sweep

GOLDEN_SHA256 = "0d79e59e38d5a05fffa2958583dbe5b10903f39e693c3b6e0057c275a70dc8be"
CROWDED_SHA256 = "311cffe40203fa551acdb39194534eb4c39fa40ffea872839974b96adbf0fd1a"
DESK = pathlib.Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_sweep_csv(tmp_path, workers):
    params = replace(config.parse_config(DESK).params, horizon_steps=400)
    grid = SweepGrid(cva_values_deg=(10.0, 90.0), t_grm_values=(1.0, 32.0),
                     t_loom_values=(4.0,), trials_per_cell=2, base_seed=20260811)
    path = emit_csv(run_sweep(grid, params, workers=workers), tmp_path / "golden.csv")
    assert ",\n" in path.read_text(encoding="utf-8")  # an undefined safety is pinned too
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_crowded_sweep_csv(tmp_path, workers):
    params = replace(config.parse_config(DESK).params, n_agents=30, horizon_steps=400)
    grid = SweepGrid(cva_values_deg=(0.0, 90.0), t_grm_values=(0.1, 1.0),
                     t_loom_values=(0.1, 4.0), trials_per_cell=2, base_seed=20260811)
    path = emit_csv(run_sweep(grid, params, workers=workers), tmp_path / "crowded.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CROWDED_SHA256
