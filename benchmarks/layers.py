"""Which grmsim functions the traced run wraps, and the per-layer metrics.

A layer is a grmsim module.  Its self time is the time inside its wrapped
functions minus the time inside wrapped functions they call, so the self
times of one trial add up to that trial's ``run_trial`` span.  ``geometry``
has no span of its own: its helpers are charged to the layer that calls them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from grmsim import analysis, dynamics, engine, perception
from grmsim.harness import sweep

from spans import SpanRecorder


RECORD_KEYS = ("tp", "fp", "tn", "fn", "excluded", "stops", "collisions", "encounters")


def trial_record(result) -> dict[str, int]:
    """What the reference gate compares for one trial."""
    c = result.counts
    return {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn,
            "excluded": result.stop_labels.count("excluded"),
            "stops": len(result.stops), "collisions": len(result.collisions),
            "encounters": len(result.encounters)}


def _count_trial(args, kwargs, result):
    return {"steps": args[0].horizon_steps, **trial_record(result)}


def _count_percepts(args, kwargs, result):
    n = len(args[0])
    # observers x (two eyes + body-centred azimuth) x sources x body points
    return {"elements": 3 * n * n * len(perception.BODY_OUTLINE)}


def _count_csv(args, kwargs, result):
    return {"csv_bytes": Path(result).stat().st_size}


DYNAMICS = ("control_step", "decay_sigma", "reorient_on_stop", "advance")
ANALYSIS = ("label_stops", "count_events", "counts_to_metrics")


def install(recorder: SpanRecorder) -> None:
    """Wrap every public function the per-layer metrics are computed from."""
    recorder.wrap(sweep, "run_sweep", "harness.sweep.run_sweep")
    recorder.wrap(sweep, "emit_csv", "harness.sweep.emit_csv", count=_count_csv)
    recorder.wrap(engine, "run_trial", "engine.run_trial", new_trial=True,
                  count=_count_trial)
    recorder.wrap(engine, "step", "engine.step")
    recorder.wrap(perception, "world_summaries", "perception.world_summaries",
                  count=_count_percepts)
    for attr in DYNAMICS:
        recorder.wrap(dynamics, attr, f"dynamics.{attr}")
    for attr in ANALYSIS:
        recorder.wrap(analysis, attr, f"analysis.{attr}")


def layer_times(recorder: SpanRecorder) -> dict[str, float]:
    """Self seconds per layer over every traced trial, plus the trials' wall time."""
    spans = recorder.arrays()
    in_trial = spans["trial"] >= 0
    out: dict[str, float] = {}
    for index, name in enumerate(recorder.names):
        # engine's two spans are layers of their own; elsewhere the module is
        layer = name if name.startswith("engine.") else name.rsplit(".", 1)[0]
        picked = in_trial & (spans["name"] == index)
        out[layer] = out.get(layer, 0.0) + float(spans["self"][picked].sum())
    out["trial_wall"] = float(spans["duration"][recorder.mask("engine.run_trial")].sum())
    return out


def per_layer(recorder: SpanRecorder, *, workers: int, sweep_s: float,
              overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced serial sweep, as name -> (value, unit).

    ``sweep_s`` is the untraced sweep wall time at ``workers``;
    ``overhead_frac`` is how much slower trials run traced.
    """
    spans = recorder.arrays()
    times = layer_times(recorder)
    counts: dict[str, float] = {}
    for (_, key), value in recorder.counts.items():
        counts[key] = counts.get(key, 0) + value
    trials = int(recorder.mask("engine.run_trial").sum())
    steps = counts["steps"]
    trial_wall = times["trial_wall"]
    step_wall = spans["duration"][recorder.mask("engine.step")]
    trial_durations = spans["duration"][recorder.mask("engine.run_trial")]
    serial_s = float(spans["duration"][recorder.mask("harness.sweep.run_sweep")].sum())
    # the serial sweep as it would have run untraced, for a like-for-like ratio
    untraced_serial_s = serial_s / (1.0 + overhead_frac)
    emit_s = float(spans["duration"][recorder.mask("harness.sweep.emit_csv")].sum())
    dynamics_calls = sum(int(recorder.mask(f"dynamics.{a}").sum()) for a in DYNAMICS)
    ws_us = times["perception"] / steps * 1e6
    elements = counts["elements"] / steps

    return {
        "perception.world_summaries.self_us_per_step": (ws_us, "us"),
        "perception.world_summaries.share": (times["perception"] / trial_wall, "fraction"),
        "perception.elements_per_step": (elements, "count"),
        "perception.ns_per_element": (ws_us * 1e3 / elements, "ns"),
        "engine.step.self_us_per_step": (times["engine.step"] / steps * 1e6, "us"),
        "engine.step.share": (times["engine.step"] / trial_wall, "fraction"),
        "engine.step.p50_us": (float(np.percentile(step_wall, 50)) * 1e6, "us"),
        "engine.step.p99_us": (float(np.percentile(step_wall, 99)) * 1e6, "us"),
        "engine.run_trial.self_ms_per_trial": (times["engine.run_trial"] / trials * 1e3, "ms"),
        "dynamics.self_us_per_step": (times["dynamics"] / steps * 1e6, "us"),
        "dynamics.share": (times["dynamics"] / trial_wall, "fraction"),
        "dynamics.calls_per_step": (dynamics_calls / steps, "count"),
        "analysis.self_ms_per_trial": (times["analysis"] / trials * 1e3, "ms"),
        "analysis.share": (times["analysis"] / trial_wall, "fraction"),
        "analysis.label_stops.calls_per_trial":
            (int(recorder.mask("analysis.label_stops").sum()) / trials, "count"),
        "analysis.stops_per_trial": (counts["stops"] / trials, "count"),
        "analysis.encounters_per_trial": (counts["encounters"] / trials, "count"),
        "analysis.collisions_per_trial": (counts["collisions"] / trials, "count"),
        "harness.sweep.serial_s": (serial_s, "s"),
        "harness.sweep.trial_share": (trial_wall / serial_s, "fraction"),
        "harness.sweep.parallel_eff": (untraced_serial_s / (workers * sweep_s), "fraction"),
        "harness.sweep.straggler_ratio":
            (float(trial_durations.max() / np.median(trial_durations)), "ratio"),
        "harness.sweep.emit_csv_ms": (emit_s * 1e3, "ms"),
        "harness.sweep.csv_bytes": (counts["csv_bytes"], "bytes"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }
