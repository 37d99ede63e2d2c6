"""grmsim benchmark: one workload, untraced or traced, with checked outputs.

    python3 benchmarks/run.py --workload desk_cell --seed 0 --seconds 25 --trace 0

Run from the repository root (the package is imported from ``src/``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, the environment they were measured in, the sweep CSV and (traced)
the spans are written to ``benchmarks/out/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description="grmsim layered benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("desk_cell", "crowd_alarm", "fullscale_sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout; None if it is not the top of a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(nproc: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "cpu_model": cpu_model(), "commit": git_commit(ROOT),
            "platform": platform.platform(), "loadavg_1m": os.getloadavg()[0]}


def peak_rss_mb(workers_mb: float) -> float:
    """Peak RSS of this process plus ``workers_mb``, its pool workers' peaks.

    ``RUSAGE_CHILDREN`` is not used: it is the largest single child, which
    would be a set-up probe on the one-process workloads and only one of the
    concurrently live workers on the pooled one.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + workers_mb


def end_to_end(workload, measured, setup, workers_mb) -> tuple[dict, list[str]]:
    from workloads import FULLSCALE_STEPS, FULLSCALE_TRIALS
    steps = workload.total_steps()
    if workload.pooled:
        sweep_s = statistics.fmean(measured)
        step_us = sweep_s * workload.workers / steps * 1e6
        notes = [f"sweep_s: mean of {len(measured)} run_sweep calls at "
                 f"workers={workload.workers}, {len(workload.trials())} trials",
                 "step_us: pool core-time per simulated step (sweep_s x workers / steps)"]
    else:
        # Time-weighted over the run, not a per-trial median: on a shared host
        # speed drifts in phases of seconds, and a median picks one phase.
        timed = [(w, p.horizon_steps)
                 for (p, _), walls in zip(workload.trials(), measured) for w in walls]
        step_us = sum(w for w, _ in timed) / sum(n for _, n in timed) * 1e6
        sweep_s = sum(statistics.fmean(walls) for walls in measured if walls)
        notes = [f"step_us: total run_trial wall time / steps over {len(timed)} trials",
                 f"sweep_s: the {len(measured)} trials back to back in one process "
                 "(sum of each trial's mean wall time)"]
    core_h = sweep_s * workload.workers / steps * FULLSCALE_STEPS * FULLSCALE_TRIALS / 3600
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "step_us": (step_us, "us"),
        "sweep_s": (sweep_s, "s"),
        "fullscale_core_h": (core_h, "h"),
        "peak_rss_mb": (peak_rss_mb(workers_mb), "MB"),
    }
    notes.append(f"setup_s: median of {len(setup)} fresh-interpreter set-ups "
                 "spread over the run")
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "grmsim" / "__init__.py").is_file():
        print(f"no grmsim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import grmsim
    if Path(grmsim.__file__).resolve().parent != ROOT / "src" / "grmsim":
        print(f"imported grmsim from {grmsim.__file__}, not this checkout", file=sys.stderr)
        return 2
    import layers
    import measure
    import reference
    import workloads

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workload = workloads.make(ROOT, args.workload, args.seed)
    expected = reference.expected(args.workload, args.seed)
    gate = measure.Gate(expected)
    csv_path = out / f"{args.workload}.csv"
    measure.warm_up(workload)

    samples = {}
    if args.trace:
        traced = measure.run_traced(workload, gate, csv_path)
        metrics = traced.metrics
        times = layers.layer_times(traced.recorder)
        wall = times.pop("trial_wall")
        times.pop("harness.sweep")
        notes = [f"run_trial wall {wall:.3f} s, self time by layer: "
                 + ", ".join(f"{layer} {t / wall:.2%}" for layer, t in times.items())
                 + f" (together {sum(times.values()) / wall:.6f} of it)"]
        spans_path = traced.recorder.dump(out / f"{args.workload}.spans.npz")
        notes.append(f"{len(traced.recorder.start)} spans written to "
                     f"{spans_path.relative_to(ROOT)}")
    else:
        probe = measure.SetupProbe(ROOT, args.workload, args.seed, SETUP_REPEATS)
        workers_mb = 0.0
        if workload.pooled:
            measured, workers_mb = measure.run_sweeps(workload, args.seconds, gate,
                                                      csv_path, probe)
        else:
            measured = measure.run_trials(workload, args.seconds, gate, probe)
        setup = probe.finish()
        metrics, notes = end_to_end(workload, measured, setup, workers_mb)
        samples = {"setup_s": setup, "wall_s": measured}

    env = environment(workloads.nproc())
    fail_frac = gate.failed / gate.attempted
    print(f"grmsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {gate.attempted} trials checked")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<46} {fail_frac:>14.6g} fraction "
          f"({gate.failed} of {gate.attempted} trials)")
    for note in notes:
        print(f"  note: {note}")
    if expected is None:
        print(f"  reference: none recorded for seed {args.seed}; checked invariants "
              "and repeat determinism only")
    for problem in gate.problems:
        print(f"  FAILED {problem}")

    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "fail_frac": fail_frac, "environment": env,
                    "notes": notes, "problems": gate.problems, "samples": samples},
                   indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
