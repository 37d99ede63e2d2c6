import hashlib
import math
import os
import pathlib
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from grmsim import engine
from grmsim.dynamics import SimParams
from grmsim.harness import (ConfigError, SweepGrid, cli, config, derive_seed,
                            emit_csv, emit_frames, emit_scatter_svg, parse_csv,
                            run_sweep, verify_theorems)
from grmsim.harness import sweep as sweep_mod
from grmsim.harness.sweep import SweepRow, aggregate_rows

TINY = SimParams(horizon_steps=150)
GRID_1 = SweepGrid(cva_values_deg=(30.0,), t_grm_values=(4.0,),
                   t_loom_values=(32.0,), trials_per_cell=1, base_seed=5)


# -------------------------------------------------------------------- config

FULL_CONFIG = """
# fly model
dt = 0.005
R = 50
N = 10
d_eye = 0.55
v_min = 10
v_max = 30
P01 = 0.008
T_grm = 6          # rad/s
T_loom = 32
CVA_deg = 30
theta_i_deg = 120
delta_sigma_deg = 30
lambda_sigma = 0.992
horizon_steps = 2000
collision_distance = 1.2
extrapolation_horizon = 2.0
cva_values_deg = 10, 30
t_grm_values = 1, 4
t_loom_values = 32
trials_per_cell = 3
base_seed = 7
"""


def test_parse_full_config():
    cfg = config.parse_config_text(FULL_CONFIG)
    assert cfg.params.dt == 0.005
    assert cfg.params.cva == pytest.approx(math.radians(30))
    assert cfg.params.ipsi_field == pytest.approx(math.radians(120))
    assert cfg.params.sigma_jump == pytest.approx(math.radians(30))
    assert cfg.params.t_grm == 6.0
    assert cfg.grid == SweepGrid((10.0, 30.0), (1.0, 4.0), (32.0,), 3, 7)


def test_parse_config_without_grid():
    cfg = config.parse_config_text("dt = 0.01\nN = 4\n")
    assert cfg.grid is None and cfg.params.n_agents == 4


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config.parse_config_text("frobnicate = 3\n")
    # worker count is a command-line choice (--workers), not a config key
    with pytest.raises(ConfigError, match="unknown key 'workers'"):
        config.parse_config_text("workers = 2\n")


def test_repeated_key_rejected_naming_both_lines():
    with pytest.raises(ConfigError, match=r"<config>:4: key 'T_grm' repeats line 2"):
        config.parse_config_text("N = 4\nT_grm = 6\n\nT_grm = 4\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        config.parse_config_text("dt = fast\n")


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        config.parse_config_text("v_min = 30\nv_max = 10\n")


GRID_KEYS = "cva_values_deg = 30\nt_grm_values = 4\nt_loom_values = 32\n"
BAD_CONFIGS = {
    "nan threshold": "T_grm = nan\n",
    "infinite threshold": "T_grm = inf\n",
    "nan step": "dt = nan\n",
    "infinite arena": "R = inf\n",
    "arena within four body radii": "R = 4\n",
    "collision distance above half the arena": "R = 10\ncollision_distance = 5.5\n",
    "negative infinite spread": "delta_sigma_deg = -inf\n",
    "ignored body length": "l = 2\n",
    "ignored point count": "n_points = 14\n",
    "cva above 90": GRID_KEYS.replace("= 30", "= 30, 100"),
    "negative cva": GRID_KEYS.replace("= 30", "= -10"),
    "negative eye distance": "d_eye = -0.55\n",
    "nan grm grid value": GRID_KEYS.replace("t_grm_values = 4", "t_grm_values = nan"),
    "infinite loom grid value": GRID_KEYS.replace("= 32", "= inf"),
    "negative threshold grid value": GRID_KEYS.replace("= 4", "= -1"),
    "repeated grid value": GRID_KEYS.replace("= 30", "= 30, 30"),
    "empty grid list item": GRID_KEYS.replace("= 30", "= 10,,30,"),
    "repeated key": "T_grm = 6\nT_grm = 4\n",
    "zero workers": "workers = 0\n",
    "workers key": "workers = 2\n",
}


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_dead_on_arrival_config_rejected(text):
    with pytest.raises(ConfigError):
        config.parse_config_text(text)


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_cli_rejects_dead_on_arrival_config(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    grid = "" if "cva_values_deg" in text else GRID_KEYS
    cfg.write_text(text + grid, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_bad_grid_and_workers():
    with pytest.raises(ValueError, match="finite"):
        run_sweep(replace(GRID_1, t_grm_values=(math.nan,)), TINY)
    with pytest.raises(ValueError, match=r"\[0, 90\]"):
        run_sweep(replace(GRID_1, cva_values_deg=(100.0,)), TINY)
    # one (cell, trial) would get two rows with different seeds
    for name in ("cva_values_deg", "t_grm_values", "t_loom_values"):
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            run_sweep(replace(GRID_1, **{name: 2 * getattr(GRID_1, name)}), TINY)
        # distinct floats the CSV prints alike, which its own parser would reject
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            run_sweep(replace(GRID_1, **{name: (1.0000001, 1.0000002)}), TINY)
    # the counts must be integers; bools are refused too
    for name, value in (("trials_per_cell", 1.0), ("trials_per_cell", True),
                        ("base_seed", 5.0), ("base_seed", False)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_sweep(replace(GRID_1, **{name: value}), TINY)
    with pytest.raises(ValueError, match="worker"):
        run_sweep(GRID_1, TINY, workers=0)


def test_incomplete_grid_rejected():
    with pytest.raises(ConfigError, match="incomplete sweep grid"):
        config.parse_config_text("cva_values_deg = 10, 30\n")


def test_grid_scalars_without_lists_rejected():
    with pytest.raises(ConfigError, match="without value lists"):
        config.parse_config_text("trials_per_cell = 5\n")


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        config.parse_config(tmp_path / "nope.cfg")


def test_shipped_configs_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    desk = config.parse_config(root / "desk.cfg")
    assert desk.grid is not None and desk.params.horizon_steps == 2000
    full = config.parse_config(root / "fullscale.cfg")
    assert full.grid.trials_per_cell == 50
    assert len(full.grid.cells()) == 1000


# ------------------------------------------------------------------ seeds

def test_derive_seed_deterministic_and_distinct():
    seeds = {derive_seed(42, c, t) for c in range(100) for t in range(50)}
    assert len(seeds) == 5000
    assert derive_seed(42, 3, 7) == derive_seed(42, 3, 7)
    assert derive_seed(42, 3, 7) != derive_seed(43, 3, 7)
    assert all(0 <= s < 2 ** 64 for s in seeds)
    # a numpy base seed, which SweepGrid.validate accepts, mixes like a Python int
    assert derive_seed(np.int64(42), 3, 7) == derive_seed(42, 3, 7)


# ------------------------------------------------------------------ sweep

def test_single_cell_single_trial():
    table = run_sweep(GRID_1, TINY, workers=1)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.error is None
    # the row reproduces a directly-run trial with the same derived seed
    params = replace(TINY, cva=math.radians(30.0), t_grm=4.0, t_loom=32.0)
    direct = engine.run_trial(params, derive_seed(5, 0, 0))
    assert (row.tp, row.fp, row.tn, row.fn) == (
        direct.counts.tp, direct.counts.fp, direct.counts.tn, direct.counts.fn)


def test_sweep_row_count_and_order():
    grid = SweepGrid((30.0, 10.0), (4.0, 1.0), (32.0,), 2, 1)
    table = run_sweep(grid, TINY, workers=1)
    assert len(table.rows) == 8
    keys = [(r.cva_deg, r.t_grm, r.t_loom, r.trial) for r in table.rows]
    assert keys == sorted(keys)
    assert len(table.aggregates) == 4


def test_sweep_parallel_matches_serial(tmp_path):
    grid = SweepGrid((30.0,), (4.0, 32.0), (32.0,), 2, 11)
    serial = run_sweep(grid, TINY, workers=1)
    parallel = run_sweep(grid, TINY, workers=2)
    a = emit_csv(serial, tmp_path / "serial.csv").read_bytes()
    b = emit_csv(parallel, tmp_path / "parallel.csv").read_bytes()
    assert a == b


def test_sweep_survives_trial_failures():
    # an arena too crowded to initialize: every trial fails, none aborts
    bad = SimParams(n_agents=60, arena=8.0, horizon_steps=10)
    table = run_sweep(GRID_1, bad, workers=1)
    assert len(table.rows) == 1
    assert table.rows[0].error is not None
    assert table.rows[0].tp is None and table.rows[0].mobility is None


def test_sweep_cpu_time_scales_linearly_in_trials():
    # process CPU time, best of 3 per size: with one worker every trial runs
    # in this process, so time another process holds the CPU does not count;
    # the sizes alternate so that both see the same load
    grid_n = SweepGrid((30.0,), (6.0,), (32.0,), 6, 3)
    grid_2n = replace(grid_n, trials_per_cell=12)
    run_sweep(replace(grid_n, trials_per_cell=1), TINY, workers=1)  # warm-up
    best = {}
    for _ in range(3):
        for grid in (grid_n, grid_2n):
            t0 = time.process_time()
            run_sweep(grid, TINY, workers=1)
            elapsed = time.process_time() - t0
            best[grid] = min(elapsed, best.get(grid, elapsed))
    assert 2.0 * 0.7 <= best[grid_2n] / best[grid_n] <= 2.0 * 1.3


def test_sweep_default_workers_follow_cpu_affinity(monkeypatch):
    # a process pinned to one CPU runs its trials in-process, whatever the
    # machine's CPU count; without an affinity call the CPU count is used
    def no_pool(*args, **kwargs):
        raise AssertionError("started a process pool")

    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    grid = replace(GRID_1, trials_per_cell=2)
    assert len(run_sweep(grid, TINY).rows) == 2
    monkeypatch.delattr(sweep_mod.os, "sched_getaffinity")
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 1)
    assert len(run_sweep(grid, TINY).rows) == 2
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
    with pytest.raises(AssertionError, match="process pool"):
        run_sweep(grid, TINY)


# ------------------------------------------------------------------- CSV

def test_csv_schema_and_formats(tmp_path):
    rows = [
        SweepRow(30.0, 4.0, 32.0, 0, 123, 3, 1, 5, 2, 0.75, 0.6),
        SweepRow(30.0, 4.0, 32.0, 1, 456, 0, 0, 5, 3, None, 0.6),
    ]
    from grmsim.harness.sweep import SweepTable
    path = emit_csv(SweepTable(rows, aggregate_rows(rows)), tmp_path / "t.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cva_deg,t_grm,t_loom,trial,seed,tp,fp,tn,fn,mobility,safety"
    assert lines[1] == "30,4,32,0,123,3,1,5,2,0.750000,0.600000"
    assert lines[2] == "30,4,32,1,456,0,0,5,3,,0.600000"  # undefined -> empty


def test_csv_roundtrip_identical(tmp_path):
    table = run_sweep(SweepGrid((30.0,), (4.0,), (32.0,), 3, 2), TINY, workers=1)
    first = emit_csv(table, tmp_path / "a.csv")
    second = emit_csv(parse_csv(first), tmp_path / "b.csv")
    assert first.read_bytes() == second.read_bytes()
    parsed = parse_csv(first)
    assert [(r.tp, r.fp, r.tn, r.fn) for r in parsed.rows] == \
        [(r.tp, r.fp, r.tn, r.fn) for r in table.rows]


def test_parse_csv_rejects_duplicate_cell_trial_rows(tmp_path, capsys):
    # appending one sweep's rows to another would count each trial twice
    table = run_sweep(replace(GRID_1, trials_per_cell=2), TINY, workers=1)
    path = emit_csv(table, tmp_path / "a.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + lines[2:]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"duplicate \\(cell, trial\\) row '{lines[2]}'"):
        parse_csv(path)
    assert cli.main(["plot", str(path), "--out", str(tmp_path / "p.svg")]) == 2
    assert "duplicate (cell, trial) row" in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()


CSV_GOOD_ROW = "30,4,32,1,456,3,1,5,2,0.750000,0.600000"
# rows emit_csv can never write, each with one bad field
CSV_BAD_ROWS = {
    "nan cva": "nan,4,32,0,123,3,1,5,2,0.750000,0.600000",
    "infinite threshold": "30,inf,32,0,123,3,1,5,2,0.750000,0.600000",
    "infinite mobility": "30,4,32,0,123,3,1,5,2,inf,0.600000",
    "nan mobility": "30,4,32,0,123,3,1,5,2,nan,0.600000",
    "negative safety": "30,4,32,0,123,3,1,5,2,0.750000,-2.5",
    "safety above 1": "30,4,32,0,123,3,1,5,2,0.750000,1.5",
    "negative tp": "30,4,32,0,123,-3,1,5,2,0.750000,0.600000",
    "negative trial": "30,4,32,-1,123,3,1,5,2,0.750000,0.600000",
    "negative seed": "30,4,32,0,-123,3,1,5,2,0.750000,0.600000",
    "blank seed": "30,4,32,0,,3,1,5,2,0.750000,0.600000",
    "word metric": "30,4,32,0,123,3,1,5,2,abc,0.600000",
    "fractional count": "30,4,32,0,123,3.5,1,5,2,0.750000,0.600000",
    # inside the float and int grammars, outside the writer's and the grid's
    "cva above 90": "200,4,32,0,123,3,1,5,2,0.750000,0.600000",
    "negative threshold": "30,-4,32,0,123,3,1,5,2,0.750000,0.600000",
    "underscored seed": "30,4,32,0,1_000,3,1,5,2,0.750000,0.600000",
    "signed count": "30,4,32,0,123,+3,1,5,2,0.750000,0.600000",
    "padded cva": "30.0,4,32,0,123,3,1,5,2,0.750000,0.600000",
    "short metric": "30,4,32,0,123,3,1,5,2,0.75,0.600000",
}


def test_parse_csv_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,sweep\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad header"):
        parse_csv(bad)
    # a value the writer cannot produce names the file and the row, and
    # plot exits 2 without writing an SVG
    svg = tmp_path / "p.svg"
    for row in CSV_BAD_ROWS.values():
        bad.write_text(f"{sweep_mod.CSV_HEADER}\n{CSV_GOOD_ROW}\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            parse_csv(bad)
        assert str(caught.value).startswith(f"{bad}: bad value in row {row!r}"), row
        assert cli.main(["plot", str(bad), "--out", str(svg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and repr(row) in err and "Traceback" not in err
        assert not svg.exists()
    # blank counts and metrics are a failed trial's, and stay accepted
    bad.write_text(f"{sweep_mod.CSV_HEADER}\n30,4,32,0,123,,,,,,\n", encoding="utf-8")
    (row,) = parse_csv(bad).rows
    assert (row.tp, row.fp, row.tn, row.fn, row.mobility, row.safety) == (None,) * 6


# ------------------------------------------------------------------- SVG

def test_scatter_svg_markers_and_metadata(tmp_path):
    rows = [SweepRow(cva, tg, 32.0, 0, 1, 3, 1, 0, 0, 0.75, 1.0)
            for cva in (10.0, 30.0) for tg in (1.0, 4.0)]
    aggs = aggregate_rows(rows)
    path = emit_scatter_svg(aggs, tmp_path / "s.svg")
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f".//{ns}circle")
    assert len(circles) == 4
    titles = [c.find(f"{ns}title").text for c in circles]
    assert any("CVA=10" in t and "T_grm=1" in t for t in titles)


def test_scatter_svg_one_bar_per_plotted_marker(tmp_path):
    # every plotted cell's marker sits on one bar tilted by its CVA; a cell
    # with an undefined mean gets neither
    rows = [SweepRow(45.0, 4.0, 32.0, 0, 1, 3, 1, 0, 0, 0.5, 0.9),
            SweepRow(10.0, 4.0, 32.0, 0, 1, 3, 1, 0, 0, 0.25, 0.6),
            SweepRow(80.0, 4.0, 32.0, 0, 1, None, None, None, None, None, None)]
    root = ET.parse(emit_scatter_svg(aggregate_rows(rows), tmp_path / "s.svg")).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f".//{ns}circle")
    bars = [line for line in root.findall(f".//{ns}line") if line.get("stroke") == "#555"]
    assert len(circles) == len(bars) == 2
    tilts = []
    for circle, bar in zip(circles, bars):  # cells in (CVA 10, CVA 45) order
        x1, y1, x2, y2 = (float(bar.get(k)) for k in ("x1", "y1", "x2", "y2"))
        assert (x1 + x2) / 2 == pytest.approx(float(circle.get("cx")), abs=0.01)
        assert (y1 + y2) / 2 == pytest.approx(float(circle.get("cy")), abs=0.01)
        tilts.append(math.degrees(math.atan2(y1 - y2, x2 - x1)))
    assert tilts == pytest.approx([10.0, 45.0], abs=0.2)


def test_scatter_svg_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_scatter_svg([], tmp_path / "e.svg")


def test_frames_count_and_content(tmp_path):
    params = SimParams(horizon_steps=1000, t_grm=4.0)
    result = engine.run_trial(params, seed=3, log_trajectories=True)
    frames = emit_frames(result, tmp_path / "frames", stride=100)
    assert len(frames) == 10  # 1000 steps / stride 100
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.parse(frames[0]).getroot()
    assert len(root.findall(f".//{ns}polygon")) == params.n_agents


# sha256 of the concatenated frames of a 400-step desk trial at stride 1
# (seed 2: 5 stops and a collision at t=114, so the enlarged bodies and the
# stop glyphs are covered); any drift in the body rotation changes it
DESK_FRAMES_SHA256 = "b9424293f51d18a6f5053e118552d527e59e7a15402cf8171d28b1af597d14bb"


def test_frames_bytes_pinned(tmp_path):
    desk = pathlib.Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
    params = replace(config.parse_config(desk).params, horizon_steps=400)
    result = engine.run_trial(params, seed=2, log_trajectories=True)
    assert result.collisions and result.stops
    frames = emit_frames(result, tmp_path / "frames", stride=1)
    assert len(frames) == 400
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in frames)).hexdigest()
    assert digest == DESK_FRAMES_SHA256


def test_frames_require_trajectory(tmp_path):
    result = engine.run_trial(SimParams(horizon_steps=10), seed=1)
    with pytest.raises(ValueError, match="trajectory"):
        emit_frames(result, tmp_path / "frames")


def test_frames_stop_and_collision_glyphs(tmp_path):
    # synthetic two-agent trial: a TP stop, an FP stop and a collision flash
    from grmsim.analysis import EncounterCounts, Metrics, TrialResult
    from grmsim.engine import CollisionRecord, StopRecord, TrajectoryLog

    params = SimParams(n_agents=2, horizon_steps=3)
    pos = np.array([[[20.0, 20.0], [24.0, 20.0]]] * 4)
    heading = np.zeros((4, 2))
    moving = np.array([[1, 1], [0, 1], [0, 0], [0, 0]])
    stops = [
        StopRecord(t=0, agent=0, cause_agents=frozenset({1}), channel="GRM",
                   rel_pos=np.array([(4.0, 0.0)]), rel_vel=np.array([(-20.0, 0.0)])),
        StopRecord(t=1, agent=1, cause_agents=frozenset({0}), channel="GRM",
                   rel_pos=np.array([(-4.0, 0.0)]), rel_vel=np.array([(10.0, 0.0)])),
    ]
    result = TrialResult(
        params=params, seed=0, counts=EncounterCounts(tp=1, fp=1),
        metrics=Metrics(0.5, 1.0), stops=stops, stop_labels=["TP", "FP"],
        collisions=[CollisionRecord(t=2, pair=(0, 1))], encounters=[],
        trajectory=TrajectoryLog(pos=pos, heading=heading, moving=moving))
    frames = emit_frames(result, tmp_path / "frames", stride=1)
    assert len(frames) == 3
    middle = frames[2].read_text(encoding="utf-8")
    assert 'stroke="#228833"' in middle      # green circle at the TP stop
    assert 'stroke="#cc3311"' in middle      # red circle at the FP stop
    assert "stroke-dasharray" in middle      # cause segments
    # the collision at t=2 enlarges both bodies in the final frame
    before, after = frames[1].read_text(), frames[2].read_text()
    assert "polygon" in after and before != after


# ------------------------------------------------------------------ verify

def test_verify_theorems_pass_and_report(tmp_path):
    report = verify_theorems(sample_count=200, seed=4,
                             report_path=tmp_path / "report.txt")
    assert report.passed
    text = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "RESULT PASS" in text
    assert text.count("PASS") >= 5


def test_verify_minimal_sample_count():
    assert verify_theorems(sample_count=1, seed=0).passed
    with pytest.raises(ValueError):
        verify_theorems(sample_count=0)


@pytest.mark.parametrize("name, suite", [
    ("angular_velocity", "crossing-signs"),
    ("crossing_angular_velocity", "crossing-signs"),
    ("wall_angular_velocity", "wall-cone"),
    ("is_grm", "grm-implication"),
])
def test_verify_catches_flipped_rotation_convention(monkeypatch, name, suite):
    import grmsim.geometry as geo
    correct = getattr(geo, name)
    if name == "is_grm":
        flipped = lambda phi, phi_dot, cva: correct(phi, -phi_dot, cva)
    else:
        flipped = lambda *args: -correct(*args)
    monkeypatch.setattr(geo, name, flipped)
    report = verify_theorems(sample_count=50, seed=4)
    assert suite in {s.name for s in report.suites if not s.passed}
    # a check reports each of its counterexamples once
    assert all(len(s.counterexamples) <= s.checked for s in report.suites)


# --------------------------------------------------------------------- CLI

def write_config(tmp_path, horizon=150, trials=1):
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(
        f"horizon_steps = {horizon}\n"
        "cva_values_deg = 30\n"
        "t_grm_values = 4, 32\n"
        "t_loom_values = 32\n"
        f"trials_per_cell = {trials}\n"
        "base_seed = 3\n", encoding="utf-8")
    return cfg


def test_cli_simulate_runs(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("horizon_steps = 100\n", encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "mobility=" in out and "safety=" in out


def test_cli_simulate_writes_frames(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("horizon_steps = 200\n", encoding="utf-8")
    out_dir = tmp_path / "frames"
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--out", str(out_dir), "--stride", "50"]) == 0
    assert len(list(out_dir.glob("frame_*.svg"))) == 4


def test_cli_sweep_and_plot(tmp_path, capsys):
    cfg = write_config(tmp_path)
    csv_path = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(csv_path),
                     "--workers", "1"]) == 0
    assert csv_path.exists()
    svg_path = tmp_path / "out.svg"
    assert cli.main(["plot", str(csv_path), "--out", str(svg_path)]) == 0
    assert svg_path.exists()


def test_cli_sweep_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, trials=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(a),
                     "--workers", "2"]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(b),
                     "--workers", "1"]) == 0
    assert a.read_bytes() == b.read_bytes()


def exit_code(argv) -> int:
    """``cli.main``'s exit status, also when argparse exits on its own."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_cli_config_error_exit_code(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n", encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err

    # argument errors are caught before any trial, sweep or suite runs
    def no_work(*args, **kwargs):
        raise AssertionError("work started despite a bad argument")
    monkeypatch.setattr(cli.engine, "run_trial", no_work)
    monkeypatch.setattr(cli.sweep_mod, "run_sweep", no_work)
    monkeypatch.setattr(cli.verify_mod, "verify_theorems", no_work)
    good = write_config(tmp_path)
    for argv in (["sweep", "--config", str(good), "--out", "x.csv", "--trials", "0"],
                 ["sweep", "--config", str(good), "--out", "x.csv", "--workers", "0"],
                 ["sweep", "--config", str(good), "--out", "x.csv", "--trials", "two"],
                 ["simulate", "--stride", "0", "--out", str(tmp_path / "frames")],
                 ["simulate", "--seed", "-1"],
                 ["verify", "--samples", "0"],
                 ["verify", "--samples", "-3"],
                 ["verify", "--seed", "-1"]):
        assert exit_code(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error: argument" in err and "Traceback" not in err, argv


def test_cli_simulate_has_no_log_trajectories_flag(capsys):
    # --out alone turns trajectory logging on; the flag did nothing else
    assert exit_code(["simulate", "--log-trajectories"]) == 2
    assert "unrecognized arguments: --log-trajectories" in capsys.readouterr().err


def test_cli_sweep_failed_trial_exit_code(tmp_path, capsys):
    # an arena too crowded to place its agents: the trial fails, the CSV is
    # still written, and the exit code and stderr say so
    cfg = tmp_path / "crowded.cfg"
    cfg.write_text("N = 60\nR = 8\nhorizon_steps = 10\ncva_values_deg = 30\n"
                   "t_grm_values = 4\nt_loom_values = 32\ntrials_per_cell = 1\n"
                   "base_seed = 5\n", encoding="utf-8")
    csv_path = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(csv_path),
                     "--workers", "1"]) == 3
    err = capsys.readouterr().err
    seed = derive_seed(5, 0, 0)
    assert (f"trial failed: cva=30 t_grm=4 t_loom=32 trial=0 seed={seed}: "
            "could not place 60 agents") in err
    assert "1 of 1 trial(s) failed" in err and "Traceback" not in err
    assert csv_path.read_text(encoding="utf-8").splitlines() == [
        "cva_deg,t_grm,t_loom,trial,seed,tp,fp,tn,fn,mobility,safety",
        f"30,4,32,0,{seed},,,,,,"]


CROWDED_ARENA = "N = 1000\nhorizon_steps = 10\n"


def test_cli_simulate_crowded_arena_is_config_error(tmp_path, capsys):
    # exit 1 is kept for verification counterexamples
    cfg = tmp_path / "crowded.cfg"
    cfg.write_text(CROWDED_ARENA, encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("configuration error: could not place 1000 agents")


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m grmsim` runs __main__.py and cli.entry, whose sys.exit sets
    # the process status
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfg = tmp_path / "crowded.cfg"
    cfg.write_text(CROWDED_ARENA, encoding="utf-8")
    for argv, code in ((["verify", "--samples", "10"], 0),
                       (["simulate", "--config", str(cfg)], 2)):
        done = subprocess.run([sys.executable, "-m", "grmsim", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, (argv, done.stderr)
        assert "Traceback" not in done.stderr, argv


def test_cli_plot_header_only_csv_is_config_error(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("cva_deg,t_grm,t_loom,trial,seed,tp,fp,tn,fn,mobility,safety\n",
                        encoding="utf-8")
    svg_path = tmp_path / "out.svg"
    assert cli.main(["plot", str(csv_path), "--out", str(svg_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "no sweep rows" in err
    assert "Traceback" not in err
    assert not svg_path.exists()


def test_cli_sweep_into_missing_directory_is_config_error(tmp_path, capsys, monkeypatch):
    # checked before any trial runs, so no result is lost
    def no_work(*args, **kwargs):
        raise AssertionError("sweep started despite an unwritable --out")
    monkeypatch.setattr(cli.sweep_mod, "run_sweep", no_work)
    out = tmp_path / "missing" / "out.csv"
    assert cli.main(["sweep", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "is not a directory" in err
    assert "Traceback" not in err and not out.exists()


def test_cli_verify_out_into_missing_directory_exits_2(tmp_path, capsys, monkeypatch):
    # checked before the suites run, so no report is lost
    def no_work(*args, **kwargs):
        raise AssertionError("verify started despite an unwritable --out")
    monkeypatch.setattr(cli.verify_mod, "verify_theorems", no_work)
    out = tmp_path / "missing" / "report.txt"
    assert cli.main(["verify", "--samples", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(out) in err
    assert "configuration error" in err and "is not a directory" in err
    assert "Traceback" not in err and not out.exists()


def test_cli_out_naming_a_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started despite an unwritable --out")
    monkeypatch.setattr(cli.sweep_mod, "run_sweep", no_work)
    monkeypatch.setattr(cli.sweep_mod, "parse_csv", no_work)
    monkeypatch.setattr(cli.verify_mod, "verify_theorems", no_work)
    cfg = str(write_config(tmp_path))
    for argv in (["sweep", "--config", cfg, "--out", str(tmp_path)],
                 ["verify", "--samples", "10", "--out", str(tmp_path)],
                 ["plot", str(tmp_path / "sweep.csv"), "--out", str(tmp_path)]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, argv
        assert "configuration error" in err and "is a directory" in err, argv


def test_cli_simulate_out_on_a_regular_file_exits_2(tmp_path, capsys, monkeypatch):
    # checked before the trial runs, for the path itself and for its parents
    def no_work(*args, **kwargs):
        raise AssertionError("trial started despite an unwritable --out")
    monkeypatch.setattr(cli.engine, "run_trial", no_work)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("horizon_steps = 20\n", encoding="utf-8")
    taken = tmp_path / "frames"
    taken.write_text("not a directory\n", encoding="utf-8")
    for out in (taken, taken / "sub"):
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and str(out) in captured.err
        assert "configuration error" in captured.err and "is not a directory" in captured.err
        assert "Traceback" not in captured.err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_cli_sweep_without_grid_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "nogrid.cfg"
    cfg.write_text("dt = 0.005\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_verify_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli.main(["verify", "--samples", "30", "--seed", "1"]) == 0
    # a broken implementation must flip the exit code
    import grmsim.harness.verify as verify_mod
    broken = verify_mod.TheoremReport(suites=(
        verify_mod.SuiteResult("crossing-signs", 1, ("boom",)),))
    monkeypatch.setattr(verify_mod, "verify_theorems",
                        lambda **kwargs: broken)
    monkeypatch.setattr(cli.verify_mod, "verify_theorems",
                        lambda **kwargs: broken)
    assert cli.main(["verify", "--samples", "1"]) == 1
