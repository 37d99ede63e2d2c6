"""Timed runs of one workload, untraced or traced, with every output checked.

Untraced runs give the end-to-end metrics: the one-process workloads cycle
through their trials with plain ``engine.run_trial`` calls, the pooled one
repeats ``run_sweep``, each until the run's seconds are spent (and at least
one full pass).  A traced run runs the workload once through
``run_sweep(workers=1)`` with every layer wrapped by a ``SpanRecorder``.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from grmsim import engine
from grmsim.harness import sweep

import layers
from spans import SpanRecorder
from workloads import Workload

ROW_KEYS = ("tp", "fp", "tn", "fn")


@dataclass
class Gate:
    """Checks trial outputs; a trial that errors or differs counts as failed.

    A trial is compared with the recorded reference for the workload seed
    (when ``expected`` has one), with the package's own invariants, and with
    every earlier run of the same trial in this run.
    """

    expected: dict | None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _seen: dict[int, dict] = field(default_factory=dict)
    _csv_sha: str | None = None

    def trial(self, index: int, record: dict | None, error: str | None = None) -> bool:
        self.attempted += 1
        problem = error
        if problem is None:
            problem = self._mismatch(index, record)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"trial {index}: {problem}")
        return problem is None

    def _mismatch(self, index: int, record: dict) -> str | None:
        if "collisions" in record:
            if record["fn"] != 2 * record["collisions"]:
                return f"fn {record['fn']} != 2 x {record['collisions']} collisions"
            if record["tp"] + record["fp"] + record["excluded"] != record["stops"]:
                return "TP + FP + excluded labels do not add up to the stops"
        earlier = [self._seen.get(index)]
        if self.expected is not None:
            earlier.append(self.expected["trials"][index])
        for other in earlier:
            if other is None:
                continue
            diff = {k: (v, other[k]) for k, v in record.items()
                    if k in other and other[k] != v}
            if diff:
                return "differs " + ", ".join(f"{k} {a} != {b}" for k, (a, b) in diff.items())
        self._seen.setdefault(index, record)
        return None

    def sweep(self, records: list[dict], errors: list[str | None], csv_sha: str) -> None:
        """Check a sweep's rows one by one, then its CSV as a whole.

        A CSV that differs from the reference (or from this run's first CSV)
        fails every trial in it.
        """
        before = self.failed
        for index, (record, error) in enumerate(zip(records, errors)):
            self.trial(index, record, error)
        want = self.expected["csv_sha256"] if self.expected else self._csv_sha
        self._csv_sha = self._csv_sha or csv_sha
        if want is not None and csv_sha != want:
            self.failed = before + len(records)
            self.problems.append(f"sweep CSV sha256 {csv_sha[:16]} != {want[:16]}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def row_records(table) -> tuple[list[dict], list[str | None]]:
    return ([{k: getattr(r, k) for k in ROW_KEYS} for r in table.rows],
            [r.error for r in table.rows])


def warm_up(workload: Workload) -> None:
    """A few steps of the first trial, so first-call costs are not timed."""
    params, seed = workload.trials()[0]
    engine.run_trial(replace(params, horizon_steps=20), seed)


def run_trials(workload: Workload, seconds: float, gate: Gate, setup: "SetupProbe"):
    """Cycle through the trials with ``run_trial``; wall seconds per trial index."""
    trials = workload.trials()
    walls: list[list[float]] = [[] for _ in trials]
    start = time.perf_counter()
    i = 0
    while i < len(trials) or time.perf_counter() < start + seconds:
        setup.between((time.perf_counter() - start) / seconds)
        k = i % len(trials)
        params, seed = trials[k]
        i += 1
        t0 = time.perf_counter()
        try:
            result = engine.run_trial(params, seed)
        except Exception as exc:  # a failing trial is counted, not fatal
            gate.trial(k, None, error=f"raised {exc!r}")
            continue
        walls[k].append(time.perf_counter() - t0)
        gate.trial(k, layers.trial_record(result))
    return walls


def run_sweeps(workload: Workload, seconds: float, gate: Gate, csv_path: Path,
               setup: "SetupProbe") -> tuple[list[float], float]:
    """Repeat the pooled ``run_sweep``.

    Returns the wall seconds of each sweep, pool start-up included, and the
    largest sum of the pool workers' peak RSS (MB) over the sweeps.
    """
    walls: list[float] = []
    workers_mb = 0.0
    start = time.perf_counter()
    while not walls or time.perf_counter() < start + seconds:
        setup.between((time.perf_counter() - start) / seconds)
        t0 = time.perf_counter()
        with ChildPeaks() as children:
            table = sweep.run_sweep(workload.grid, workload.params,
                                    workers=workload.workers)
        walls.append(time.perf_counter() - t0)
        workers_mb = max(workers_mb, children.total_mb())
        sweep.emit_csv(table, csv_path)
        gate.sweep(*row_records(table), sha256(csv_path))
    return walls, workers_mb


class ChildPeaks:
    """Peak RSS of this process's children, polled while the block runs.

    A child's ``VmHWM`` (its own peak RSS) is read from ``/proc`` every
    50 ms and the last value seen is kept, so a pool's workers
    are counted each at its peak even though they exit inside the block.
    Forked workers share their parent's pages until they write them; each
    worker's figure counts them again, as RSS does.
    """

    def __init__(self):
        self.peak_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "ChildPeaks":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _poll(self) -> None:
        me, strangers = os.getpid(), set()
        while True:
            for entry in os.listdir("/proc"):
                if not entry.isdigit() or entry in strangers:
                    continue
                status = _proc_status(entry)
                if status.get("PPid") != str(me):
                    strangers.add(entry)
                elif "VmHWM" in status:
                    self.peak_kb[int(entry)] = int(status["VmHWM"].split()[0])
            if self._stop.wait(0.05):
                return

    def total_mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0


def _proc_status(pid: str) -> dict[str, str]:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as f:
            return dict(line.split(":\t", 1) for line in f.read().splitlines()
                        if ":\t" in line)
    except OSError:  # the process has exited
        return {}


def recorded_sweep(workload: Workload, recorder: SpanRecorder, csv_path: Path):
    """``run_sweep(workers=1)`` and ``emit_csv`` under ``recorder``.

    The caller installs the recorder's wrappers; they are removed on return.
    Returns one record per trial, from the values ``run_trial`` returned (a
    serial sweep runs its trials in row order, so trial id = row index), the
    rows' errors and the CSV's sha256.
    """
    with recorder:
        table = sweep.run_sweep(workload.grid, workload.params, workers=1)
        sweep.emit_csv(table, csv_path)
    records = []
    for trial in range(len(table.rows)):
        counts = recorder.trial_counts(trial)
        records.append({k: counts[k] for k in layers.RECORD_KEYS if k in counts})
    return records, [r.error for r in table.rows], sha256(csv_path)


@dataclass
class TracedResult:
    recorder: SpanRecorder
    metrics: dict[str, tuple[float, str]]


def run_traced(workload: Workload, gate: Gate, csv_path: Path) -> TracedResult:
    """Per-layer metrics from one traced serial sweep, plus its untraced baselines.

    The one-process workloads first run each trial once untraced (the sweep's
    untraced time, and a check that tracing leaves the outputs alone); the
    pooled one runs one pooled sweep after the traced one (for the parallel
    efficiency).  The tracing overhead comes from ``tracing_overhead``.
    """
    untraced = 0.0
    for k, (params, seed) in enumerate([] if workload.pooled else workload.trials()):
        t0 = time.perf_counter()
        try:
            result = engine.run_trial(params, seed)
        except Exception as exc:  # a failing trial is counted, not fatal
            gate.trial(k, None, error=f"raised {exc!r}")
            continue
        untraced += time.perf_counter() - t0
        gate.trial(k, layers.trial_record(result))

    recorder = SpanRecorder()
    layers.install(recorder)
    gate.sweep(*recorded_sweep(workload, recorder, csv_path))

    if workload.pooled:
        t0 = time.perf_counter()
        table = sweep.run_sweep(workload.grid, workload.params, workers=workload.workers)
        sweep_s = time.perf_counter() - t0
        sweep.emit_csv(table, csv_path)
        gate.sweep(*row_records(table), sha256(csv_path))
    else:
        sweep_s = untraced

    metrics = layers.per_layer(recorder, workers=workload.workers, sweep_s=sweep_s,
                               overhead_frac=tracing_overhead(workload))
    return TracedResult(recorder, metrics)


def tracing_overhead(workload: Workload) -> float:
    """How much slower ``run_trial`` runs traced than untraced, minus 1.

    The first trial, cut to 100 steps, runs untraced and traced in
    alternating order, pair after pair, for 6 seconds (at least 5 pairs);
    the median of the pairs' ratios.  Each pair is timed within a
    second or so, inside one phase of the host's speed, which drifts by up to
    2x over seconds to minutes.
    """
    params, seed = workload.trials()[0]
    params = replace(params, horizon_steps=100)

    def timed(traced: bool) -> float:
        with SpanRecorder() as recorder:
            if traced:
                layers.install(recorder)
            t0 = time.perf_counter()
            engine.run_trial(params, seed)
            return time.perf_counter() - t0

    ratios: list[float] = []
    start = time.perf_counter()
    while len(ratios) < 5 or time.perf_counter() < start + 6.0:
        if len(ratios) % 2:
            traced, plain = timed(True), timed(False)
        else:
            plain, traced = timed(False), timed(True)
        ratios.append(traced / plain)
    return statistics.median(ratios) - 1.0


PROBE = """
import sys, time
t0 = time.perf_counter()
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/benchmarks"]
import workloads
workloads.make(root, name, seed).trials()
print(time.perf_counter() - t0)
"""


class SetupProbe:
    """Set-up time, measured in fresh interpreters, spread over the run.

    The host's speed drifts in phases of seconds and one set-up takes a
    fraction of a second, so probes taken back to back would all land in
    one phase.  A third of them run before the timed work and the rest
    between its units, in step with its progress; ``finish`` tops them up.
    """

    def __init__(self, root: Path, name: str, seed: int, count: int):
        self.argv = [sys.executable, "-c", PROBE, str(root), name, str(seed)]
        self.count = count
        self.times: list[float] = []
        self._take(count // 3)

    def _take(self, upto: int) -> None:
        while len(self.times) < upto:
            done = subprocess.run(self.argv, capture_output=True, text=True,
                                  timeout=60, check=True)
            self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def between(self, progress: float) -> None:
        first = self.count // 3
        self._take(first + int((self.count - first) * min(progress, 1.0)))

    def finish(self) -> list[float]:
        self._take(self.count)
        return self.times
