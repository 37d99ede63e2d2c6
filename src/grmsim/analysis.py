"""Encounter classification and safety/mobility metrics.

A stop is a true positive when, extrapolating everyone straight from the
stop-instant state its record carries (each cause's displacement and
relative velocity), at least one of its cause agents would have come within
the collision distance inside the prediction horizon; otherwise it is a
false positive.  Stops whose cause is already inside the collision
distance are excluded from both bins (the imminent contact shows up as a
collision instead).  Every recorded collision counts two false negatives,
one per agent involved.

mobility = TP / (TP + FP)      fraction of stops that were warranted
safety   = TP / (TP + FN)      fraction of potential collisions averted

Zero denominators yield an explicit ``None``, never a silent 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import SimParams


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


def label_stops(stops: Sequence, params: SimParams) -> list[str]:
    """Per-stop labels: "excluded", "TP" or "FP".

    A stop is excluded when any cause sits inside the collision distance,
    else a true positive when any cause is on a straight-line collision
    course (``predict_collision``), else a false positive.
    """
    d_coll = params.collision_distance
    labels = []
    for stop in stops:
        if any(float(p @ p) < d_coll * d_coll for p in stop.rel_pos):
            labels.append("excluded")
        elif any(predict_collision(p, v, d_coll, params.predict_horizon)
                 for p, v in zip(stop.rel_pos, stop.rel_vel)):
            labels.append("TP")
        else:
            labels.append("FP")
    return labels


def count_events(stops: Sequence, labels: Sequence[str], collisions: Sequence,
                 encounters: Sequence) -> EncounterCounts:
    """Tally TP/FP/TN/FN from one trial's event logs and its stop labels.

    TP and FP come from ``labels`` (one per stop, from ``label_stops``).
    Each collision counts two false negatives, one per agent involved.
    True negatives are encounter episodes that entered perception range and
    separated with neither a stop blamed on the pair nor a collision inside
    ``[t_enter - 1, t_exit]``; they are diagnostics only and feed neither
    metric.
    """
    event_times: dict[frozenset, list[int]] = {}
    for stop in stops:
        for cause in stop.cause_agents:
            event_times.setdefault(frozenset((stop.agent, cause)), []).append(stop.t)
    for collision in collisions:
        event_times.setdefault(frozenset(collision.pair), []).append(collision.t)

    tn = sum(1 for enc in encounters
             if not any(enc.t_enter - 1 <= t <= enc.t_exit
                        for t in event_times.get(frozenset(enc.pair), ())))
    return EncounterCounts(tp=labels.count("TP"), fp=labels.count("FP"),
                           tn=tn, fn=2 * len(collisions))


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
