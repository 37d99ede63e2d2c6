import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from grmsim import analysis, dynamics, engine, perception
from grmsim.harness import sweep

import layers
import measure
import run
import workloads
from spans import SpanRecorder

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

SHORT = 120  # steps per trial: enough for stops and encounters, fast enough


def short(workload, trials=2):
    grid = replace(workload.grid, trials_per_cell=trials)
    return replace(workload, params=replace(workload.params, horizon_steps=SHORT),
                   grid=grid)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    a = workloads.make(ROOT, name, 5)
    b = workloads.make(ROOT, name, 5)
    c = workloads.make(ROOT, name, 6)
    assert a == b and a.trials() == b.trials()
    assert [s for _, s in a.trials()] != [s for _, s in c.trials()]
    assert a.params == c.params and a.grid.cells() == c.grid.cells()


def test_trial_seeds_are_the_ones_run_sweep_derives():
    w = workloads.make(ROOT, "fullscale_sample", 3)
    seeds = [s for _, s in w.trials()]
    assert seeds == [sweep.derive_seed(3, cell, 0) for cell in range(len(w.grid.cells()))]
    assert len(seeds) >= 2 * w.workers
    assert w.workers <= workloads.nproc()


def test_recorder_restores_every_wrapped_attribute():
    modules = (sweep, engine, perception, dynamics, analysis)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    recorder = SpanRecorder()
    layers.install(recorder)
    assert engine.step is not before[("grmsim.engine", "step")]
    with recorder:
        pass
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_recorder_restores_after_an_exception():
    original = engine.run_trial
    with pytest.raises(ValueError):
        with SpanRecorder() as recorder:
            layers.install(recorder)
            engine.run_trial(replace(dynamics.SimParams(), dt=-1.0), 0)
    assert engine.run_trial is original


def traced_sweep(workload, tmp_path):
    recorder = SpanRecorder()
    layers.install(recorder)
    records, errors, sha = measure.recorded_sweep(workload, recorder, tmp_path / "t.csv")
    return recorder, records, errors


def test_traced_trials_give_the_untraced_counts(tmp_path):
    w = short(workloads.make(ROOT, "crowd_alarm", 1))
    recorder, records, errors = traced_sweep(w, tmp_path)
    assert errors == [None, None]
    for (params, seed), traced in zip(w.trials(), records):
        plain = engine.run_trial(params, seed)
        assert layers.trial_record(plain) == traced
        assert analysis.EncounterCounts(**{k: traced[k] for k in measure.ROW_KEYS}) \
            == plain.counts
    assert sum(r["stops"] for r in records) > 0


def test_self_times_add_up_to_each_run_trial_span(tmp_path):
    w = short(workloads.make(ROOT, "desk_cell", 2), trials=3)
    recorder, _, _ = traced_sweep(w, tmp_path)
    spans = recorder.arrays()
    trial_spans = recorder.mask("engine.run_trial")
    assert trial_spans.sum() == 3
    for trial, duration in zip(spans["trial"][trial_spans], spans["duration"][trial_spans]):
        in_trial = spans["trial"] == trial
        assert spans["self"][in_trial].sum() == pytest.approx(duration, rel=1e-9)
    times = layers.layer_times(recorder)
    layer_sum = sum(v for k, v in times.items() if k not in ("trial_wall", "harness.sweep"))
    assert layer_sum == pytest.approx(times["trial_wall"], rel=1e-9)
    assert recorder.mask("engine.step").sum() == 3 * SHORT
    assert recorder.mask("analysis.label_stops").sum() == 2 * 3


def test_per_layer_reports_every_benchmark_metric(tmp_path):
    w = short(workloads.make(ROOT, "desk_cell", 2))
    recorder, _, _ = traced_sweep(w, tmp_path)
    metrics = layers.per_layer(recorder, workers=1, sweep_s=1.0, overhead_frac=0.01)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert {m: u for m, (_, u) in metrics.items()} == \
        {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert metrics["perception.elements_per_step"][0] == 3 * 10 * 10 * 14
    assert metrics["dynamics.calls_per_step"][0] == 3 * 10
    # parallel efficiency compares the pooled sweep with an untraced serial one
    slower = layers.per_layer(recorder, workers=2, sweep_s=1.0, overhead_frac=0.25)
    serial_s = metrics["harness.sweep.serial_s"][0]
    assert slower["harness.sweep.parallel_eff"][0] == pytest.approx(serial_s / 1.25 / 2)


def _hold(megabytes, seconds):
    block = bytearray(megabytes << 20)
    block[::4096] = b"x" * len(block[::4096])  # touch every page
    time.sleep(seconds)


def test_child_peaks_add_up_concurrent_children():
    fork = multiprocessing.get_context("fork")
    with measure.ChildPeaks() as children:
        procs = [fork.Process(target=_hold, args=(40, 0.5)) for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
    assert len(children.peak_kb) == 2
    assert all(kb >= 40 << 10 for kb in children.peak_kb.values())
    assert children.total_mb() == sum(children.peak_kb.values()) / 1024


def test_git_commit_is_none_outside_a_clone(tmp_path):
    assert run.git_commit(tmp_path) is None


def test_gate_counts_a_changed_trial_as_failed():
    record = {"tp": 2, "fp": 1, "tn": 5, "fn": 2, "excluded": 0, "stops": 3,
              "collisions": 1, "encounters": 6}
    gate = measure.Gate({"trials": [record], "csv_sha256": "abc"})
    assert gate.trial(0, dict(record))
    assert not gate.trial(0, {**record, "fp": 0, "stops": 2})
    gate.sweep([{"tp": 2, "fp": 1, "tn": 5, "fn": 2}], [None], "not-abc")
    assert (gate.attempted, gate.failed) == (3, 2)


def test_gate_catches_nondeterminism_without_a_reference():
    gate = measure.Gate(None)
    gate.sweep([{"tp": 1, "fp": 0, "tn": 0, "fn": 0}], [None], "sha-1")
    gate.sweep([{"tp": 1, "fp": 0, "tn": 0, "fn": 0}], [None], "sha-2")
    gate.trial(0, {"tp": 0, "fp": 0, "tn": 0, "fn": 0})
    assert (gate.attempted, gate.failed) == (3, 2)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "desk_cell", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
