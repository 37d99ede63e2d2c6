"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two sweep criteria run the shipped desk-scale grids (5 CVA values, 5
GRM thresholds or 4 looming thresholds, 10 trials of 2000 steps each) and
therefore dominate the suite's runtime.  Their CSVs are pinned by sha256
like the golden sweeps, which run only 400 steps per trial.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from grmsim import analysis, dynamics, engine
from grmsim import geometry as geo
from grmsim.dynamics import SimParams
from grmsim.harness import SweepGrid, emit_csv, run_sweep, verify
from grmsim.harness.cli import main as cli_main
from scenario_fixtures import (collision_course_scenario, early_crosser_scenario,
                               overtake_scenario, pull_away_scenario,
                               wall_scenario)

BASE = SimParams(horizon_steps=2000)
CVA_VALUES = (10.0, 30.0, 50.0, 70.0, 90.0)
# a deliberate behaviour change updates these with tests/test_golden.py's hashes
GRM_SWEEP_SHA256 = "e2b80fa9c9c64d851c74da5d9d58f03eb32ba135ad66c5e6695208399afa99d1"
LOOM_SWEEP_SHA256 = "135ac3e9a4ebda0abe99dabfeaf0952ae7468a988f780c7c07b38ca157ba7b9f"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    record_criterion(line)


def _run_fixture(world, params, steps):
    streams = dynamics.trial_streams(0, len(world.pos))[1]
    stops, collisions = [], []
    for _ in range(steps):
        world, ev = engine.step(world, streams)
        stops.extend(ev.stops)
        collisions.extend(ev.collisions)
    labels = analysis.label_stops(stops, params)
    return world, stops, labels, collisions


@pytest.fixture(scope="module")
def grm_sweep():
    grid = SweepGrid(cva_values_deg=CVA_VALUES, t_grm_values=(1.0, 4.0, 8.0, 14.0, 32.0),
                     t_loom_values=(32.0,), trials_per_cell=10, base_seed=20260811)
    t0 = time.perf_counter()
    table = run_sweep(grid, BASE)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def loom_sweep():
    grid = SweepGrid(cva_values_deg=CVA_VALUES, t_grm_values=(32.0,),
                     t_loom_values=(1.0, 4.0, 8.0, 14.0), trials_per_cell=10,
                     base_seed=20260811)
    table = run_sweep(grid, BASE)
    return table


def _suite_detail(result) -> str:
    return f"{result.checked} checks, {len(result.counterexamples)} counterexamples"


def test_criterion_01_rate_matches_finite_differences():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.1, 100.0)
        rel_pos = radius * np.array([math.cos(bearing), math.sin(bearing)])
        rel_vel = rng.normal(size=2) * 30.0
        analytic = geo.angular_velocity(rel_pos, rel_vel)
        numeric = verify.fd_rate(rel_pos, rel_vel)
        worst = max(worst, abs(analytic - numeric) / max(abs(numeric), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 1.0
    _report(1, "analytic angular velocity vs central differences", ok,
            f"worst rel err {worst:.2e}, {elapsed * 1e3:.0f} ms")
    assert worst <= 1e-5
    assert elapsed < 1.0


def test_criterion_02_crossing_sign_structure():
    result = verify.check_crossing_signs(1000, np.random.default_rng(2027))
    _report(2, "regressive motion iff the crossing is still ahead", result.passed,
            _suite_detail(result))
    assert result.passed, result.counterexamples[:3]


def test_criterion_03_regressive_implies_grm():
    result = verify.check_grm_implication(100_000, np.random.default_rng(2028))
    _report(3, "regressive motion implies GRM on 10^5 triples", result.passed,
            _suite_detail(result))
    assert result.passed, result.counterexamples[:3]


def test_criterion_04_wall_guarantee():
    # closed-form search: a cone point beats every finite threshold
    search = verify.check_wall_cone(100, np.random.default_rng(2029))

    # simulated mover vs a wall of stopped agents: stop before contact range
    sim_failures = 0
    worst_clearance = math.inf
    for seed in range(50):
        world, params = wall_scenario(seed)
        streams = dynamics.trial_streams(seed, len(world.pos))[1]
        stopped, min_clearance = False, math.inf
        for _ in range(4000):
            world, _ = engine.step(world, streams)
            # the mover is the last row
            delta = geo.min_image_delta(world.pos[-1], world.pos[:-1], params.arena)
            clearance = float(np.hypot(delta[:, 0], delta[:, 1]).min())
            min_clearance = min(min_clearance, clearance)
            if not world.moving[-1]:
                stopped = True
                break
        worst_clearance = min(worst_clearance, min_clearance)
        if not stopped or min_clearance < params.collision_distance:
            sim_failures += 1
    ok = search.passed and sim_failures == 0
    _report(4, "wall-approach GRM guarantee (search + 50 seeded runs)", ok,
            f"search: {_suite_detail(search)}; {sim_failures} sim failures, "
            f"worst clearance {worst_clearance:.2f}mm")
    assert search.passed, search.counterexamples[:3]
    assert sim_failures == 0


@pytest.mark.slow
def test_criterion_05_grm_tradeoff(grm_sweep):
    table, elapsed = grm_sweep
    qualifying = [a for a in table.aggregates
                  if a.mean_safety is not None and a.mean_mobility is not None
                  and a.mean_safety >= 0.90 and a.mean_mobility >= 0.35]
    ok = bool(qualifying) and elapsed < 300.0
    best = max((a.mean_mobility for a in table.aggregates
                if a.mean_safety is not None and a.mean_safety >= 0.90),
               default=None)
    _report(5, "GRM sweep reaches safety >= 0.90 at mobility >= 0.35", ok,
            f"{len(qualifying)} qualifying cells, best mobility at "
            f"safety>=0.90: {best and round(best, 3)}, {elapsed:.0f}s")
    assert qualifying, "no cell with mean safety >= 0.90 and mean mobility >= 0.35"
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_06_looming_inferior(grm_sweep, loom_sweep):
    grm_table, _ = grm_sweep
    def best_safe_mobility(table):
        return max((a.mean_mobility for a in table.aggregates
                    if a.mean_safety is not None and a.mean_mobility is not None
                    and a.mean_safety >= 0.90), default=0.0)
    grm_best = best_safe_mobility(grm_table)
    loom_best = best_safe_mobility(loom_sweep)
    ok = loom_best <= grm_best - 0.10
    _report(6, "looming-only mobility trails GRM by >= 0.10 at matched safety",
            ok, f"GRM {grm_best:.3f} vs looming {loom_best:.3f}")
    assert loom_best <= grm_best - 0.10


@pytest.mark.slow
def test_criterion_sweeps_csv_pinned(grm_sweep, loom_sweep, tmp_path):
    for name, table, want in (("grm", grm_sweep[0], GRM_SWEEP_SHA256),
                              ("loom", loom_sweep, LOOM_SWEEP_SHA256)):
        path = emit_csv(table, tmp_path / f"{name}.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, name


def test_criterion_07_false_alarm_fixtures():
    outcomes = {}
    for name, builder in (("overtake", overtake_scenario),
                          ("early-crosser", early_crosser_scenario),
                          ("pull-away", pull_away_scenario)):
        world, params = builder()
        _, stops, labels, _ = _run_fixture(world, params, 700)
        outcomes[name] = labels
    tp_world, tp_params = collision_course_scenario()
    _, tp_stops, tp_labels, _ = _run_fixture(tp_world, tp_params, 400)
    outcomes["collision-course"] = tp_labels
    ok = (all(outcomes[k] == ["FP"] for k in
              ("overtake", "early-crosser", "pull-away"))
          and outcomes["collision-course"] == ["TP"])
    _report(7, "false-alarm fixtures classify FP, crossing fixture TP", ok,
            str(outcomes))
    for name in ("overtake", "early-crosser", "pull-away"):
        assert outcomes[name] == ["FP"], name
    assert outcomes["collision-course"] == ["TP"]


def test_criterion_08_sweep_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "horizon_steps = 300\n"
        "cva_values_deg = 30, 70\n"
        "t_grm_values = 4\n"
        "t_loom_values = 32\n"
        "trials_per_cell = 2\n"
        "base_seed = 77\n", encoding="utf-8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    _report(8, "repeated sweep yields byte-identical CSV", identical,
            f"{a.stat().st_size} bytes")
    assert identical


def test_criterion_09_metrics_arithmetic(tmp_path):
    m = analysis.counts_to_metrics(analysis.EncounterCounts(tp=3, fp=1, fn=2))
    exact = m.mobility == 0.75 and m.safety == 0.6
    undefined = analysis.counts_to_metrics(analysis.EncounterCounts())
    markers = undefined.mobility is None and undefined.safety is None
    # undefined metrics serialize as the explicit empty-field marker
    from grmsim.harness.sweep import SweepRow, SweepTable, aggregate_rows
    rows = [SweepRow(30.0, 4.0, 32.0, 0, 1, 0, 0, 0, 3, None, 0.6)]
    path = emit_csv(SweepTable(rows, aggregate_rows(rows)), tmp_path / "m.csv")
    emitted = path.read_text(encoding="utf-8").splitlines()[1]
    marker_ok = emitted.endswith(",,0.600000")
    ok = exact and markers and marker_ok
    _report(9, "metric arithmetic and undefined markers", ok, emitted)
    assert exact and markers and marker_ok


def test_criterion_10_predictor_matches_scan():
    rng = np.random.default_rng(2030)
    n = 10_000
    d_coll, horizon, step = 1.2, 2.0, 1e-4
    taus = np.arange(1, int(round(horizon / step)) + 1) * step
    disagreements = 0
    boundary_skips = 0
    t0 = time.perf_counter()
    for _ in range(n):
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(d_coll, 25.0)
        p = radius * np.array([math.cos(bearing), math.sin(bearing)])
        v = rng.normal(size=2) * 20.0
        v2 = float(v @ v)
        tau_star = 0.0 if v2 == 0.0 else min(max(-float(p @ v) / v2, 0.0), horizon)
        closest = float(np.hypot(*(p + tau_star * v)))
        if abs(closest - d_coll) <= 1e-6:
            boundary_skips += 1
            continue
        scan = bool((np.hypot(p[0] + taus * v[0], p[1] + taus * v[1]) < d_coll).any())
        if analysis.predict_collision(p, v, d_coll, horizon) != scan:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    checked = n - boundary_skips
    ok = disagreements == 0 and checked > 0.9 * n
    _report(10, "closed-form collision predictor vs brute-force scan", ok,
            f"{disagreements} disagreements, {boundary_skips} boundary skips, "
            f"{elapsed:.1f}s")
    assert disagreements == 0
    assert checked > 0.9 * n
