"""Encounter classification and safety/mobility metrics.

A stop is a true positive when, extrapolating everyone straight from the
frozen stop-instant state, at least one of its cause agents would have come
within the collision distance inside the prediction horizon; otherwise it is
a false positive.  Stops whose cause is already inside the collision
distance are excluded from both bins (the imminent contact shows up as a
collision instead).  Every recorded collision contributes false negatives.

mobility = TP / (TP + FP)      fraction of stops that were warranted
safety   = TP / (TP + FN)      fraction of potential collisions averted

Zero denominators yield an explicit ``None``, never a silent 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import min_image_delta


@dataclass(frozen=True)
class EncounterCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


@dataclass(frozen=True)
class Metrics:
    mobility: Optional[float]
    safety: Optional[float]


@dataclass(eq=False)
class TrialResult:
    """Everything one seeded trial produced."""

    params: object
    seed: int
    counts: EncounterCounts
    metrics: Metrics
    stops: list
    stop_labels: list[str]
    collisions: list
    encounters: list
    trajectory: object = None


def predict_collision(p_rel, v_rel, d_coll: float, horizon: float) -> bool:
    """Would straight-line motion bring the pair within d_coll inside the horizon?

    ``p_rel`` is the current relative displacement (cause minus stopper, in
    the unwrapped plane), ``v_rel`` the relative velocity.  Uses the closed
    form: the distance minimizer is tau* = -<p, v>/|v|^2, clamped into
    (0, horizon].  A zero relative velocity never predicts a collision.
    """
    p = np.asarray(p_rel, dtype=float)
    v = np.asarray(v_rel, dtype=float)
    v2 = float(v @ v)
    if v2 == 0.0:
        return False
    tau = -float(p @ v) / v2
    tau = min(max(tau, 0.0), horizon)
    if tau <= 0.0:
        return False
    closest = p + tau * v
    return float(closest @ closest) < d_coll * d_coll


def stop_excluded(stop, arena: float, d_coll: float) -> bool:
    """A stop whose cause already sits inside the collision distance.

    Such an encounter is neither a true nor a false positive; the contact
    itself is scored separately as a collision.
    """
    own = stop.frozen_positions[stop.agent]
    for cause in stop.cause_agents:
        delta = min_image_delta(own, stop.frozen_positions[cause], arena)
        if float(delta @ delta) < d_coll * d_coll:
            return True
    return False


def classify_stop(stop, arena: float, d_coll: float, horizon: float) -> str:
    """\"TP\" if any cause agent was on a straight-line collision course."""
    own_pos = stop.frozen_positions[stop.agent]
    own_vel = np.asarray(stop.frozen_velocities[stop.agent])
    for cause in stop.cause_agents:
        p_rel = min_image_delta(own_pos, stop.frozen_positions[cause], arena)
        v_rel = np.asarray(stop.frozen_velocities[cause]) - own_vel
        if predict_collision(p_rel, v_rel, d_coll, horizon):
            return "TP"
    return "FP"


def label_stops(stops: Sequence, *, arena: float, d_coll: float,
                horizon: float) -> list[str]:
    """Per-stop labels: "TP", "FP" or "excluded"."""
    labels = []
    for stop in stops:
        if stop_excluded(stop, arena, d_coll):
            labels.append("excluded")
        else:
            labels.append(classify_stop(stop, arena, d_coll, horizon))
    return labels


def count_events(stops: Sequence, collisions: Sequence,
                 encounters: Sequence = (), *, arena: float, d_coll: float,
                 horizon: float, fn_per_collision: int = 2) -> EncounterCounts:
    """Tally TP/FP/TN/FN from one trial's event logs.

    Each collision counts ``fn_per_collision`` false negatives (default 2,
    one per agent involved).  True negatives are encounter episodes that
    entered perception range and separated with neither a stop attributed
    to the pair nor a collision; they are diagnostics only and feed neither
    metric.
    """
    labels = label_stops(stops, arena=arena, d_coll=d_coll, horizon=horizon)
    tp = labels.count("TP")
    fp = labels.count("FP")
    fn = fn_per_collision * len(collisions)

    tn = 0
    for enc in encounters:
        a, b = enc.pair
        stopped = any(
            s.agent in enc.pair
            and (b if s.agent == a else a) in s.cause_agents
            and enc.t_enter - 1 <= s.t <= enc.t_exit
            for s in stops)
        collided = any(
            tuple(sorted(c.pair)) == tuple(sorted(enc.pair))
            and enc.t_enter - 1 <= c.t <= enc.t_exit
            for c in collisions)
        if not stopped and not collided:
            tn += 1
    return EncounterCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def counts_to_metrics(counts: EncounterCounts) -> Metrics:
    """Exact metric ratios; undefined denominators give None."""
    mobility = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else None
    safety = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else None
    return Metrics(mobility=mobility, safety=safety)


def mean_std_defined(values: Sequence[Optional[float]]):
    """(mean, population std, count) over the non-None entries."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None, None, 0
    arr = np.asarray(defined, dtype=float)
    return float(arr.mean()), float(arr.std()), len(defined)
