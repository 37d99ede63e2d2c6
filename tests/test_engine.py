import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from grmsim import analysis, dynamics, engine, perception
from grmsim.dynamics import SimParams
from grmsim.geometry import min_image_delta, pair_deltas, wrap_torus
from grmsim.harness import config
from scenario_fixtures import (agent, collision_course_scenario, fixture_params,
                               overtake_scenario, world_of)

NEVER = 1e9  # threshold no percept can reach
DESK = pathlib.Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
QUIET = SimParams(t_grm=NEVER, t_loom=NEVER, p_restart=0.0, horizon_steps=0)


def run_steps(world, steps, seed=0):
    streams = dynamics.trial_streams(seed, len(world.pos))[1]
    stops, collisions, encounters = [], [], []
    for _ in range(steps):
        world, ev = engine.step(world, streams)
        stops.extend(ev.stops)
        collisions.extend(ev.collisions)
        encounters.extend(ev.encounters)
    return world, stops, collisions, encounters


# ---------------------------------------------------------------- stepping

def test_single_agent_never_stops():
    params = SimParams(n_agents=1, t_grm=0.0, t_loom=0.0, horizon_steps=500)
    result = engine.run_trial(params, seed=1)
    assert result.stops == [] and result.collisions == []


def test_step_leaves_previous_world_untouched():
    # run_trial's trajectory log keeps each step's arrays, so a step must not
    # write into them
    world, _ = collision_course_scenario()
    before = {name: getattr(world, name).copy()
              for name in ("pos", "heading", "speed", "moving", "sigma",
                           "contact", "t_enter")}
    _, stops, _, _ = run_steps(world, 60)
    assert stops
    for name, value in before.items():
        assert np.array_equal(getattr(world, name), value), name


def test_make_world_wraps_positions():
    # in-range positions keep their bits; the others are wrapped into the arena
    params = SimParams()
    inside = np.random.default_rng(3).uniform(0.0, params.arena, size=(4, 2))
    outside = np.array([(55.0, -5.0), (-0.25, 120.5)])
    world = engine.make_world(np.concatenate((inside, outside)), np.zeros(6),
                              np.full(6, 10.0), params)
    assert world.pos[:4].tobytes() == inside.tobytes()
    assert np.array_equal(world.pos[4:], [(5.0, 45.0), (49.75, 20.5)])
    assert np.array_equal(world.centre, pair_deltas(world.pos, params.arena))


def test_stop_record_freezes_snapshot_velocities():
    world, _ = collision_course_scenario()
    world, stops, collisions, _ = run_steps(world, 60)
    assert len(stops) == 1
    # the later-arriving agent stopped before the pair ever made contact
    assert collisions == []
    stop = stops[0]
    assert stop.agent == 0 and stop.cause_agents == {1}
    assert stop.channel == "GRM"
    # the cause's snapshot velocity (-20, 0) less the stopper's pre-stop
    # walking velocity (0, 10), not a later one
    assert stop.rel_vel == pytest.approx(np.array([[-20.0, -10.0]]))
    # the displacement at the stop step, from the starts (25, 22) and (29, 25)
    elapsed = stop.t * world.params.dt
    assert stop.rel_pos == pytest.approx(np.array([[4.0 - 20.0 * elapsed,
                                                   3.0 - 10.0 * elapsed]]))


def test_classification_uses_min_image_displacement():
    # the collision course shifted so that the pair straddles the arena seam
    world, params = collision_course_scenario()
    shifted = engine.make_world(wrap_torus(world.pos + (23.0, 0.0), params.arena),
                                world.heading, world.speed, params)
    _, [plain], _, _ = run_steps(world, 60)
    _, stops, _, _ = run_steps(shifted, 60)
    [stop] = stops
    assert (stop.t, stop.agent, stop.cause_agents) == (plain.t, 0, {1})
    # the cause sits across the seam in the unwrapped coordinates ...
    elapsed = stop.t * params.dt
    assert wrap_torus(29.0 + 23.0 - 20.0 * elapsed, params.arena) - 48.0 < -25.0
    # ... but the record holds its nearby minimum image
    assert stop.rel_pos == pytest.approx(plain.rel_pos)
    assert analysis.label_stops(stops, params) == ["TP"]


def test_stopping_agent_does_not_move_on_stop_step():
    world, _ = collision_course_scenario()
    streams = dynamics.trial_streams(0, 2)[1]
    for _ in range(60):
        prev = world
        world, ev = engine.step(world, streams)
        if ev.stops:
            stopped = ev.stops[0].agent
            assert np.array_equal(world.pos[stopped], prev.pos[stopped])
            return
    pytest.fail("expected a stop")


def test_synchronous_update_uses_snapshot_percepts():
    # moving both agents by hand one step and recomputing percepts gives the
    # same stop decision the engine made from the frozen snapshot
    world, params = collision_course_scenario()
    summary = perception.world_summaries(world.pos, world.frames, world.motion.rel_vel,
                                         params, np.ones((2, 2), bool))
    streams = dynamics.trial_streams(0, 2)[1]
    _, ev = engine.step(world, streams)
    should_stop = summary.max_grm[0] > params.t_grm
    assert bool(ev.stops) == should_stop or not should_stop


# --------------------------------------------------------------- collisions

def test_detect_collisions_thresholds():
    # contact means a centre distance below the collision distance (1.2mm):
    # 1.0mm apart is recorded, 1.3mm and 25mm are not
    rows = [agent(10.0, 10.0, 0.0, 20.0, moving=False),
            agent(11.0, 10.0, 0.0, 20.0, moving=False),
            agent(35.0, 10.0, 0.0, 20.0, moving=False),
            agent(36.3, 10.0, 0.0, 20.0, moving=False)]
    _, events = engine.step(world_of(rows, QUIET), dynamics.trial_streams(0, 4)[1])
    assert [(c.t, c.pair) for c in events.collisions] == [(1, (0, 1))]


def test_collision_uses_min_image_distance():
    rows = [agent(0.4, 10.0, 0.0, 20.0, moving=False),
            agent(49.8, 10.0, 0.0, 20.0, moving=False)]   # 0.6mm across the seam
    _, events = engine.step(world_of(rows, QUIET), dynamics.trial_streams(0, 2)[1])
    assert [c.pair for c in events.collisions] == [(0, 1)]


def test_collision_pairs_recorded_in_sorted_order():
    # three overlapping pairs found in one step come out sorted by (i, j)
    rows = [agent(40.0, 40.0, 0.0, 20.0, moving=False),
            agent(10.0, 10.0, 0.0, 20.0, moving=False),
            agent(40.5, 40.0, 0.0, 20.0, moving=False),
            agent(10.5, 10.0, 0.0, 20.0, moving=False)]
    _, events = engine.step(world_of(rows, QUIET), dynamics.trial_streams(0, 4)[1])
    assert [c.pair for c in events.collisions] == [(0, 2), (1, 3)]


def test_contact_episode_debounced_to_one_record():
    # head-on pass-through: contact persists several steps, one record only
    world = world_of([agent(20.0, 25.0, 0.0, 20.0),
                      agent(30.0, 25.0, math.pi, 20.0)], QUIET)
    # 150 steps: through the contact and well apart, but not around the torus
    _, stops, collisions, _ = run_steps(world, 150)
    assert stops == []
    assert len(collisions) == 1
    assert collisions[0].pair == (0, 1)


def test_separate_contact_episodes_recorded_separately():
    # two agents crossing the seam repeatedly: same pair, several episodes
    params = replace(QUIET, collision_distance=1.2)
    world = world_of([agent(10.0, 25.0, 0.0, 30.0),       # laps the arena in ~1.67s
                      agent(10.0, 25.5, math.pi, 10.0)],  # heads the other way
                     params)
    _, _, collisions, _ = run_steps(world, 2000)
    assert len(collisions) >= 2
    ts = [c.t for c in collisions]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)


# ------------------------------------------------------------- trial runner

def test_run_trial_zero_horizon_empty():
    params = SimParams(horizon_steps=0)
    result = engine.run_trial(params, seed=5)
    assert result.stops == [] and result.collisions == []
    assert result.counts == analysis.EncounterCounts()


def test_run_trial_deterministic_repeat():
    params = SimParams(horizon_steps=400, t_grm=6.0)
    a = engine.run_trial(params, seed=123, log_trajectories=True)
    b = engine.run_trial(params, seed=123, log_trajectories=True)
    assert a.counts == b.counts and a.metrics == b.metrics
    assert np.array_equal(a.trajectory.pos, b.trajectory.pos)
    assert np.array_equal(a.trajectory.heading, b.trajectory.heading)
    assert [s.t for s in a.stops] == [s.t for s in b.stops]
    assert [s.cause_agents for s in a.stops] == [s.cause_agents for s in b.stops]


def _desk_and_crowd_worlds():
    """Every world of a whole desk trial (seed 4) and of a whole N=30 crowd trial
    (T_grm 1, T_loom 4, seed 0, where restarts are frequent), step 0 first."""
    desk = config.parse_config(DESK).params
    for params, seed in ((desk, 4), (replace(desk, n_agents=30, t_grm=1.0, t_loom=4.0), 0)):
        init_rng, streams = dynamics.trial_streams(seed, params.n_agents)
        world = engine.make_world(*dynamics.init_agents(params, init_rng), params)
        yield world
        for _ in range(params.horizon_steps):
            world, _ = engine.step(world, streams)
            yield world


def coin_step(world):
    """The first step from the world's on at which a stopped agent's lucky step
    or block falls due (``dynamics.restart_coins``)."""
    entries = world.next_lucky[~world.moving].tolist()
    return min((max(e, ~e, world.time_step) for e in entries), default=dynamics.NEVER)


def test_world_carries_velocity_and_centre_displacement():
    # the motion record (with the squared cull radii) and the body frames are
    # carried between steps and rebuilt only at stops and restarts, the range
    # levels, contacts and open encounters only when a level changes: every
    # world's equal fresh ones; the coin step is the next step after a walk
    # flag changes, else the first step with coin work
    stops = restarts_only = skips = 0
    previous = None
    for world in _desk_and_crowd_worlds():
        params = world.params
        assert np.array_equal(world.centre, min_image_delta(
            world.pos[:, None, :], world.pos[None, :, :], params.arena))
        assert np.array_equal(world.dist2, (world.centre ** 2).sum(-1))
        fresh = (dynamics.motion(world.heading, world.speed, world.moving, params)
                 + perception.body_frames(world.heading, params))
        for got, want in zip(world.motion + world.frames, fresh, strict=True):
            assert np.array_equal(got, want)
        if world.time_step:
            upper = np.triu(np.ones(world.dist2.shape, bool), k=1)
            assert np.array_equal(world.contact,
                                  upper & (world.dist2 < params.collision_distance ** 2))
            assert np.array_equal(world.t_enter >= 0,
                                  upper & (world.dist2 < (params.arena / 2) ** 2))
            assert np.array_equal(world.levels, engine.range_levels(world.dist2, params))
            stopped = (previous.moving & ~world.moving).any()
            stops += stopped
            restarts_only += not stopped and (~previous.moving & world.moving).any()
            if np.array_equal(world.moving, previous.moving):
                assert world.next_coin == coin_step(world)
                skips += world.next_coin > world.time_step
            else:
                assert world.next_coin == world.time_step <= coin_step(world)
        else:
            assert (world.levels == 2).all() and not world.contact.any()
            assert (world.t_enter == -1).all() and world.next_coin == 0
        previous = world
    assert stops > 0 and restarts_only > 0 and skips > 0


def test_carried_arrays_are_read_only():
    # consecutive worlds share the motion record (with the cull radii) unless
    # a walk flag changed, the range levels unless one changed, and the body
    # frames and the next lucky steps on quiet steps
    shared = 0
    previous = None
    for world in _desk_and_crowd_worlds():
        assert not any(a.flags.writeable for a in world.motion + world.frames
                       + (world.next_lucky, world.levels))
        if world.time_step:
            same_flags = np.array_equal(world.moving, previous.moving)
            assert (world.motion is previous.motion) == same_flags
            same_levels = np.array_equal(world.levels, previous.levels)
            assert (world.levels is previous.levels) == same_levels
            assert (world.contact is previous.contact) == same_levels
            shared += (same_levels and world.frames is previous.frames
                       and world.next_lucky is previous.next_lucky)
        previous = world
    assert shared > 0


def test_stop_records_carry_snapshot_relative_state():
    params = config.parse_config(DESK).params
    init_rng, streams = dynamics.trial_streams(4, params.n_agents)
    world = engine.make_world(*dynamics.init_agents(params, init_rng), params)
    stops = 0
    for _ in range(400):
        snapshot = world
        world, events = engine.step(world, streams)
        for stop in events.stops:
            causes = sorted(stop.cause_agents)
            rel_pos = min_image_delta(snapshot.pos[stop.agent], snapshot.pos[causes],
                                      params.arena)
            rel_vel = snapshot.motion.vel[causes] - snapshot.motion.vel[stop.agent]
            for got, want in ((stop.rel_pos, rel_pos), (stop.rel_vel, rel_vel)):
                assert got.shape == (len(causes), 2)
                assert got.tobytes() == want.tobytes()
            stops += 1
    assert stops > 0


def test_restart_coins_drawn_before_perception(monkeypatch):
    # at the percept call every stopped agent has drawn its coins up to its
    # first lucky one (the third and the second coin) and
    # every walking agent nothing
    world = world_of([agent(10.0, 10.0, 0.0, 20.0, moving=False),
                      agent(20.0, 30.0, 1.0, 20.0),
                      agent(40.0, 10.0, 2.0, 20.0, moving=False)],
                     replace(QUIET, p_restart=0.5))
    streams = dynamics.trial_streams(4, 3)[1]
    states = []
    exact_summaries = perception.world_summaries

    def record(*args, **kwargs):
        states.append([r.bit_generator.state for r in streams])
        return exact_summaries(*args, **kwargs)

    monkeypatch.setattr(perception, "world_summaries", record)
    fresh = dynamics.trial_streams(4, 3)[1]
    engine.step(world, streams)
    firsts = []
    for i in (0, 2):
        firsts.append(1)
        while fresh[i].random() >= 0.5:
            firsts[-1] += 1
    assert firsts == [3, 2]
    assert states == [[r.bit_generator.state for r in fresh]]


def test_every_stop_transition_yields_one_record():
    params = SimParams(horizon_steps=800, t_grm=4.0)
    result = engine.run_trial(params, seed=9, log_trajectories=True)
    moving = result.trajectory.moving
    transitions = int(((moving[:-1] == 1) & (moving[1:] == 0)).sum())
    assert transitions == len(result.stops)
    for stop in result.stops:
        assert stop.cause_agents  # never empty


def test_speeds_constant_for_lifetime():
    params = SimParams(horizon_steps=300, t_grm=4.0)
    init_rng, streams = dynamics.trial_streams(21, params.n_agents)
    pos, heading, initial = dynamics.init_agents(params, init_rng)
    world = engine.make_world(pos, heading, initial, params)
    stops = 0
    # speeds echo through untouched in every world's velocities
    for _ in range(params.horizon_steps):
        world, events = engine.step(world, streams)
        stops += len(events.stops)
        speed = np.hypot(world.motion.vel[:, 0], world.motion.vel[:, 1])
        assert speed[world.moving] == pytest.approx(initial[world.moving])
        assert (speed[~world.moving] == 0.0).all()
    assert stops > 0


def test_sentinel_thresholds_give_straight_torus_lines():
    # no percept can stop anyone: positions must match the closed form
    params = SimParams(n_agents=4, horizon_steps=10_000, t_grm=NEVER,
                       t_loom=NEVER, p_restart=1.0)
    init_rng, _ = dynamics.trial_streams(33, params.n_agents)
    pos, heading, speed = dynamics.init_agents(params, init_rng)
    result = engine.run_trial(params, seed=33, log_trajectories=True)
    assert result.stops == []
    t_final = params.horizon_steps * params.dt
    unit = np.column_stack((np.cos(heading), np.sin(heading)))
    expected = wrap_torus(pos + t_final * speed[:, None] * unit, params.arena)
    err = min_image_delta(result.trajectory.pos[-1], expected, params.arena)
    assert float(np.hypot(err[:, 0], err[:, 1]).max()) < 1e-9


def test_halving_dt_shifts_stop_time_at_most_one_coarse_step():
    world, _ = collision_course_scenario()
    coarse = fixture_params(t_grm=4.0)
    fine = replace(coarse, dt=coarse.dt / 2)
    # a world's step displacements are built from its params' dt
    _, stops_c, _, _ = run_steps(engine.make_world(
        world.pos, world.heading, world.speed, coarse, world.moving), 200)
    _, stops_f, _, _ = run_steps(engine.make_world(
        world.pos, world.heading, world.speed, fine, world.moving), 400)
    assert stops_c and stops_f
    t_coarse = stops_c[0].t * coarse.dt
    t_fine = stops_f[0].t * fine.dt
    assert abs(t_coarse - t_fine) <= coarse.dt + 1e-12


def test_overtake_scenario_records_expected_stop():
    world, _ = overtake_scenario()
    _, stops, collisions, _ = run_steps(world, 400)
    assert collisions == []
    assert len(stops) == 1
    assert stops[0].agent == 0 and stops[0].cause_agents == {1}


def test_encounter_episode_opens_and_closes():
    world = world_of([agent(10.0, 10.0, 0.0, 30.0),
                      agent(10.0, 14.0, math.pi, 30.0)], QUIET)  # passes, then separates
    _, _, _, encounters = run_steps(world, 1200)
    assert len(encounters) >= 1
    first = encounters[0]
    assert first.pair == (0, 1) and first.t_enter < first.t_exit
