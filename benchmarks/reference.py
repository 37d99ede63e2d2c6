"""Recorded reference outputs for the benchmark's workload seeds.

``reference.json`` maps workload -> workload seed -> the per-trial
``EncounterCounts`` with the stop, label, collision and encounter counts, and
the sha256 of the CSV that ``run_sweep`` + ``emit_csv`` write for the
workload's grid, for every workload at the workload seeds ``SEEDS`` (0-31).
Every benchmark run checks its trials against it.  A deliberate behaviour
change re-records the whole table, from scratch, in its own, labelled change:

    python3 benchmarks/reference.py

Recording runs each (workload, seed) as a serial sweep, spread over at most
``nproc`` worker processes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PATH = HERE / "reference.json"
SEEDS = range(32)  # the workload seeds the gate covers; README.md names them too


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def expected(name: str, seed: int) -> dict | None:
    """The recorded outputs of ``name`` at ``seed``, or None if not recorded."""
    return load().get(name, {}).get(str(seed))


def _import_paths() -> None:
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _record(job: tuple[str, int]) -> tuple[str, int, dict]:
    name, seed = job
    _import_paths()
    from grmsim import engine

    import layers
    import measure
    import workloads
    from spans import SpanRecorder

    workload = workloads.make(ROOT, name, seed)
    recorder = SpanRecorder()
    recorder.wrap(engine, "run_trial", "engine.run_trial", new_trial=True,
                  count=lambda args, kwargs, result: layers.trial_record(result))
    csv_path = HERE / "out" / f"reference-{name}-{seed}.csv"
    records, errors, sha = measure.recorded_sweep(workload, recorder, csv_path)
    csv_path.unlink()
    if any(errors):
        raise RuntimeError(f"{name} seed {seed}: trials failed: {errors}")
    return name, seed, {"trials": records, "csv_sha256": sha}


def main() -> int:
    _import_paths()
    import workloads

    jobs = [(name, seed) for name in sorted(workloads.WORKLOADS) for seed in SEEDS]
    table: dict[str, dict[str, dict]] = {}
    (HERE / "out").mkdir(exist_ok=True)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0)),
                             mp_context=spawn) as pool:
        for name, seed, entry in pool.map(_record, jobs):
            table.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {len(entry['trials'])} trials", flush=True)
    # pool.map keeps the jobs' order: workloads by name, seeds ascending
    PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
