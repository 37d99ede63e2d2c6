import math

import numpy as np
import pytest

from grmsim import analysis
from grmsim.analysis import EncounterCounts, Metrics
from grmsim.dynamics import SimParams
from grmsim.engine import CollisionRecord, EncounterRecord, StopRecord
from grmsim.geometry import min_image_delta
from grmsim.harness.sweep import SweepRow, aggregate_rows


# arena 50, collision distance 1.2, prediction horizon 2.0 (the defaults)
PARAMS = SimParams()
# so large that the min-image wrap never kicks in
UNWRAPPED = SimParams(arena=1e9)


def label(stop, params=PARAMS) -> str:
    [only] = analysis.label_stops([stop], params)
    return only


def brute_force_predict(p_rel, v_rel, d_coll, horizon, step=1e-4):
    """Independent oracle: scan tau over (0, horizon] on a fixed grid."""
    taus = np.arange(1, int(round(horizon / step)) + 1) * step
    pts = np.asarray(p_rel)[None, :] + taus[:, None] * np.asarray(v_rel)[None, :]
    return bool((np.hypot(pts[:, 0], pts[:, 1]) < d_coll).any())


def stop_record(agent=0, causes=(1,), positions=((25.0, 25.0), (30.0, 25.0)),
                velocities=((0.0, 10.0), (-20.0, 0.0)), t=10, arena=PARAMS.arena):
    """A stop whose snapshot rows are given as lists, row = agent.

    The causes' relative state is derived from the rows as the engine
    records it: minimum-image displacement and relative velocity.
    """
    pos, vel = np.array(positions, dtype=float), np.array(velocities, dtype=float)
    causes = sorted(causes)
    return StopRecord(t=t, agent=agent, cause_agents=frozenset(causes), channel="GRM",
                      rel_pos=min_image_delta(pos[agent], pos[causes], arena),
                      rel_vel=vel[causes] - vel[agent])


# ---------------------------------------------------------- predict_collision

def test_predict_head_on():
    assert analysis.predict_collision((0, 10), (0, -5), 1.2, 2.0)


def test_predict_receding():
    assert not analysis.predict_collision((0, 10), (0, 5), 1.2, 2.0)


def test_predict_zero_velocity():
    assert not analysis.predict_collision((0, 10), (0, 0), 1.2, 2.0)


def test_predict_horizon_limits_reach():
    # needs 2s to get close; a 1s horizon must say no
    assert analysis.predict_collision((0, 10), (0, -5), 1.2, 2.0)
    assert not analysis.predict_collision((0, 10), (0, -5), 1.2, 1.0)


def test_predict_direct_hit_any_speed():
    for k in (0.5, 1.0, 3.0):
        v = (-3.0 * k, -4.0 * k)
        assert analysis.predict_collision((3, 4), v, 1.2, 2.0) == \
            brute_force_predict((3, 4), v, 1.2, 2.0)
        assert analysis.predict_collision((3, 4), v, 1.2, 2.0)


# -------------------------------------------------------------- classification

def test_classify_crossing_cause_is_tp():
    # cause closes from the right while the stopper walks up; closest
    # straight-line approach is 0.89mm < 1.2mm
    stop = stop_record(positions=[(25.0, 25.0), (29.0, 26.0)],
                       velocities=[(0.0, 10.0), (-20.0, 0.0)])
    assert label(stop) == "TP"


def test_classify_departing_cause_is_fp():
    stop = stop_record(positions=[(25.0, 25.0), (29.0, 25.0)],
                       velocities=[(0.0, 10.0), (20.0, 0.0)])
    assert label(stop) == "FP"


def test_classify_any_cause_on_course_suffices():
    stop = stop_record(causes=(1, 2),
                       positions=[(25.0, 25.0), (29.0, 10.0), (25.0, 30.0)],
                       velocities=[(0.0, 10.0), (20.0, 0.0), (0.0, -10.0)])
    assert label(stop) == "TP"


def test_classify_stopped_cause_has_zero_velocity():
    # a stopped cause dead ahead of a walking agent is a genuine hazard
    stop = stop_record(positions=[(25.0, 25.0), (25.0, 30.0)],
                       velocities=[(0.0, 10.0), (0.0, 0.0)])
    assert label(stop) == "TP"


def test_stop_with_cause_inside_collision_radius_excluded():
    stop = stop_record(positions=[(25.0, 25.0), (25.8, 25.0)],
                       velocities=[(0.0, 10.0), (-20.0, 0.0)])
    labels = analysis.label_stops([stop], PARAMS)
    assert labels == ["excluded"]
    counts = analysis.count_events([stop], labels, [], [])
    assert counts.tp == 0 and counts.fp == 0


def test_excluded_wins_over_an_on_course_cause():
    # cause 2 is on a collision course, but cause 1 already sits inside 1.2mm
    stop = stop_record(causes=(1, 2),
                       positions=[(25.0, 25.0), (25.8, 25.0), (29.0, 26.0)],
                       velocities=[(0.0, 10.0), (20.0, 0.0), (-20.0, 0.0)])
    assert label(stop) == "excluded"


def test_classification_invariant_under_rotation_translation():
    rng = np.random.default_rng(67)
    positions = np.array([(25.0, 25.0), (29.0, 26.0)])
    velocities = np.array([(0.0, 10.0), (-18.0, -2.0)])
    reference = label(stop_record(positions=positions, velocities=velocities,
                                  arena=UNWRAPPED.arena), UNWRAPPED)
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi)
        shift = rng.uniform(-30, 30, size=2)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = stop_record(positions=positions @ rot.T + shift,
                            velocities=velocities @ rot.T, arena=UNWRAPPED.arena)
        assert label(moved, UNWRAPPED) == reference


# --------------------------------------------------------------- count_events

TP_GEOMETRY = dict(positions=[(25.0, 25.0), (29.0, 26.0)],
                   velocities=[(0.0, 10.0), (-20.0, 0.0)])
FP_GEOMETRY = dict(positions=[(25.0, 25.0), (29.0, 25.0)],
                   velocities=[(0.0, 10.0), (20.0, 0.0)])


def test_count_events_tallies():
    tp_stop, fp_stop = stop_record(**TP_GEOMETRY), stop_record(**FP_GEOMETRY)
    stops = [tp_stop, tp_stop, tp_stop, fp_stop]
    collisions = [CollisionRecord(t=50, pair=(2, 3))]
    counts = analysis.count_events(stops, analysis.label_stops(stops, PARAMS),
                                   collisions, [])
    assert (counts.tp, counts.fp, counts.fn) == (3, 1, 2)


def test_count_events_follows_given_labels():
    # the stop is geometrically a TP, but count_events must not relabel it
    stop = stop_record(**TP_GEOMETRY)
    assert label(stop) == "TP"
    counts = analysis.count_events([stop], ["FP"], [], [])
    assert (counts.tp, counts.fp) == (0, 1)


def test_count_events_empty():
    counts = analysis.count_events([], [], [], [])
    assert counts == EncounterCounts()


def test_count_events_true_negatives():
    calm = EncounterRecord(pair=(0, 1), t_enter=10, t_exit=90)
    blamed = EncounterRecord(pair=(0, 2), t_enter=10, t_exit=90)
    crashed = EncounterRecord(pair=(1, 2), t_enter=10, t_exit=90)
    stop = stop_record(agent=0, causes=(2,),
                       positions=[(25.0, 25.0), (10.0, 10.0), (29.0, 25.0)],
                       velocities=[(0.0, 10.0), (0.0, 0.0), (20.0, 0.0)], t=50)
    collisions = [CollisionRecord(t=60, pair=(1, 2))]
    counts = analysis.count_events([stop], ["FP"], collisions,
                                   [calm, blamed, crashed])
    assert counts.tn == 1  # only the (0, 1) episode stayed uneventful


@pytest.mark.parametrize("t, agent, cause, spoils", [
    (9, 1, 0, True),     # t_enter - 1, blamed by the pair's other member
    (10, 0, 1, True),    # t_enter
    (90, 0, 1, True),    # t_exit
    (91, 0, 1, False),   # t_exit + 1
    (8, 0, 1, False),    # t_enter - 2
    (50, 0, 2, False),   # blamed on a third agent
    (50, 2, 0, False),   # a third agent's stop blamed on a pair member
])
def test_count_events_true_negative_window(t, agent, cause, spoils):
    episode = EncounterRecord(pair=(0, 1), t_enter=10, t_exit=90)
    stop = stop_record(agent=agent, causes=(cause,), t=t,
                       positions=[(25.0, 25.0), (10.0, 10.0), (29.0, 25.0)],
                       velocities=[(0.0, 10.0), (0.0, 0.0), (20.0, 0.0)])
    counts = analysis.count_events([stop], ["FP"], [], [episode])
    assert counts.tn == (0 if spoils else 1)


def test_count_events_collision_window():
    episode = EncounterRecord(pair=(0, 1), t_enter=10, t_exit=90)
    for t, spoils in ((9, True), (90, True), (91, False)):
        counts = analysis.count_events([], [], [CollisionRecord(t, (0, 1))], [episode])
        assert counts.tn == (0 if spoils else 1), t


def test_count_events_order_independent():
    rng = np.random.default_rng(71)
    stops = [stop_record(t=t) for t in (5, 9, 13)]
    labels = analysis.label_stops(stops, PARAMS)
    collisions = [CollisionRecord(t=4, pair=(0, 1)), CollisionRecord(t=8, pair=(1, 2))]
    encounters = [EncounterRecord(pair=(0, 1), t_enter=t, t_exit=t + 2)
                  for t in (1, 7, 11, 20)]
    base = analysis.count_events(stops, labels, collisions, encounters)
    assert base.tn == 2  # the episodes entered at 1 and 20 saw nothing
    for seed in range(5):
        s = list(rng.permutation(len(stops)))
        c = list(rng.permutation(len(collisions)))
        e = list(rng.permutation(len(encounters)))
        shuffled = analysis.count_events([stops[i] for i in s], [labels[i] for i in s],
                                         [collisions[i] for i in c],
                                         [encounters[i] for i in e])
        assert shuffled == base


# ------------------------------------------------------------------- metrics

def test_metrics_exact_arithmetic():
    m = analysis.counts_to_metrics(EncounterCounts(tp=3, fp=1, fn=2))
    assert m == Metrics(mobility=0.75, safety=0.6)


def test_metrics_undefined_denominators():
    m = analysis.counts_to_metrics(EncounterCounts(tp=0, fp=0, fn=0))
    assert m.mobility is None and m.safety is None
    m2 = analysis.counts_to_metrics(EncounterCounts(tp=0, fp=0, fn=3))
    assert m2.mobility is None and m2.safety == 0.0


def test_metrics_perfect_scores():
    m = analysis.counts_to_metrics(EncounterCounts(tp=5, fp=0, fn=0))
    assert m == Metrics(mobility=1.0, safety=1.0)


def test_safety_one_when_no_misses():
    m = analysis.counts_to_metrics(EncounterCounts(tp=7, fp=3, fn=0))
    assert m.safety == 1.0


def test_mobility_decreases_as_false_alarms_injected():
    prev = 1.0
    for fp in range(1, 6):
        m = analysis.counts_to_metrics(EncounterCounts(tp=5, fp=fp, fn=0))
        assert m.mobility < prev
        prev = m.mobility


# ----------------------------------------------------------------- aggregate

def _rows(*metrics, cell=(30.0, 4.0, 32.0)):
    """One sweep cell's rows with the given (mobility, safety) per trial."""
    return [SweepRow(*cell, trial, 0, 0, 0, 0, 0, mobility, safety)
            for trial, (mobility, safety) in enumerate(metrics)]


def test_aggregate_identical_trials():
    [stats] = aggregate_rows(_rows(*[(0.5, 0.9)] * 50))
    assert stats.mean_mobility == pytest.approx(0.5)
    assert stats.std_mobility == pytest.approx(0.0)
    assert stats.n_mobility == 50 and stats.n_trials == 50


def test_aggregate_mean_of_two():
    [stats] = aggregate_rows(_rows((0.4, 1.0), (0.6, 0.8)))
    assert stats.mean_mobility == pytest.approx(0.5)
    assert stats.mean_safety == pytest.approx(0.9)
    assert stats.std_mobility == pytest.approx(0.1)  # population std


def test_aggregate_excludes_undefined():
    [stats] = aggregate_rows(_rows(*[(0.4, 1.0)] * 49, (None, 1.0)))
    assert stats.n_mobility == 49 and stats.n_trials == 50
    assert stats.mean_mobility == pytest.approx(0.4)
    assert stats.n_safety == 50


def test_aggregate_all_undefined():
    [stats] = aggregate_rows(_rows(*[(None, None)] * 3))
    assert stats.mean_mobility is None and stats.std_mobility is None
    assert stats.n_mobility == 0


def test_aggregate_cells_apart_and_sorted():
    assert aggregate_rows([]) == []
    rows = _rows((0.2, 1.0), cell=(90.0, 1.0, 4.0)) + _rows((0.6, 1.0))
    assert [(a.cva_deg, a.mean_mobility) for a in aggregate_rows(rows)] == \
        [(30.0, 0.6), (90.0, 0.2)]
