import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from grmsim import dynamics as dyn
from grmsim import engine, perception
from grmsim.dynamics import SimParams
from grmsim.geometry import min_image_delta, pair_deltas
from grmsim.harness import config

DESK = pathlib.Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"

STOPPING = np.array([True])
NOT_STOPPING = np.array([False])


def control(moving, max_grm=0.0, omega=0.0, *, params, coin=0.9):
    """Next walk flag of a single agent whose coin (if flipped) reads ``coin``;
    a coin is lucky below ``p_restart`` (the draws are tested in test_coins.py)."""
    lucky = np.array([not moving and coin < params.p_restart])
    return bool(dyn.control_step(np.array([moving]), np.array([max_grm]),
                                 np.array([omega]), params, lucky)[0])


# ------------------------------------------------------------------ params

def test_params_validation():
    SimParams().validate()
    with pytest.raises(ValueError):
        SimParams(dt=0.0).validate()
    with pytest.raises(ValueError):
        SimParams(v_min=20.0, v_max=10.0).validate()
    with pytest.raises(ValueError):
        SimParams(p_restart=1.5).validate()
    with pytest.raises(ValueError):
        SimParams(cva=2.0).validate()
    # body points must differ by less than 1.5 arenas: the arena exceeds four
    # body-frame radii (1 mm, the snout, or an eye further out)
    SimParams(arena=4.001).validate()
    for arena, d_eye in ((4.0, 0.55), (0.0, 0.55), (-50.0, 0.55), (20.0, 10.0)):
        with pytest.raises(ValueError, match="four body-frame radii"):
            SimParams(arena=arena, d_eye=d_eye).validate()
    # a count must be an int (Python or numpy), never a float or a bool
    SimParams(n_agents=np.int64(3), horizon_steps=np.int32(5)).validate()
    for field, value in (("n_agents", 10.0), ("horizon_steps", 5.5), ("n_agents", True),
                         ("horizon_steps", np.float64(5.0)), ("n_agents", np.bool_(True))):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimParams(**{field: value}).validate()


@pytest.mark.parametrize("field", ["dt", "arena", "d_eye", "v_min", "v_max",
                                   "p_restart", "t_loom", "t_grm", "cva",
                                   "ipsi_field", "sigma_jump", "sigma_decay",
                                   "collision_distance", "predict_horizon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SimParams(**{field: value}).validate()


# ------------------------------------------------------------------- init

def test_init_agents_no_overlap_and_ranges():
    params = SimParams()
    pos, heading, speed = dyn.init_agents(params, np.random.default_rng(0))
    assert pos.shape == (10, 2) and heading.shape == speed.shape == (10,)
    assert np.all((params.v_min <= speed) & (speed <= params.v_max))
    assert np.all((0 <= heading) & (heading < 2 * math.pi))
    assert np.all((pos >= 0) & (pos < params.arena))
    for i in range(10):
        for j in range(i + 1, 10):
            delta = min_image_delta(pos[i], pos[j], params.arena)
            assert float(delta @ delta) > params.collision_distance ** 2


def test_init_agents_single():
    pos, heading, speed = dyn.init_agents(SimParams(n_agents=1), np.random.default_rng(3))
    assert pos.shape == (1, 2) and heading.shape == speed.shape == (1,)


def test_init_agents_deterministic():
    params = SimParams()
    a = dyn.init_agents(params, np.random.default_rng(99))
    b = dyn.init_agents(params, np.random.default_rng(99))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_init_agents_draw_order():
    # positions first, one candidate pair each, then all speeds, then headings
    params = SimParams(n_agents=3, arena=1e6)  # no redraws in a huge arena
    pos, heading, speed = dyn.init_agents(params, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    expected_pos = [rng.uniform(0.0, params.arena, size=2) for _ in range(3)]
    assert np.array_equal(pos, expected_pos)
    assert np.array_equal(speed, rng.uniform(params.v_min, params.v_max, size=3))
    assert np.array_equal(heading, rng.uniform(0.0, 2 * math.pi, size=3))


def test_init_agents_crowded_arena_fails():
    params = SimParams(n_agents=60, arena=8.0, collision_distance=1.2)
    with pytest.raises(RuntimeError):
        dyn.init_agents(params, np.random.default_rng(0))


def test_trial_streams_independent_and_deterministic():
    init_a, agents_a = dyn.trial_streams(7, 4)
    init_b, agents_b = dyn.trial_streams(7, 4)
    assert init_a.random() == init_b.random()
    draws_a = [s.random() for s in agents_a]
    draws_b = [s.random() for s in agents_b]
    assert draws_a == draws_b
    assert len(set(draws_a)) == len(draws_a)  # streams differ from each other


# ---------------------------------------------------------------- control

def test_control_moving_stops_on_grm_threshold():
    params = SimParams(t_grm=6.0, t_loom=32.0)
    assert not control(True, max_grm=7.0, params=params)
    assert control(True, max_grm=5.0, params=params)
    assert not control(True, omega=33.0, params=params)


def test_control_stopped_restart_branch():
    params = SimParams(t_grm=6.0, t_loom=32.0, p_restart=0.008)
    # quiet percepts and a lucky coin
    assert control(False, params=params, coin=0.001)
    # coin fails
    assert not control(False, params=params, coin=0.5)
    # signal still above threshold blocks the restart even with a lucky coin
    assert not control(False, max_grm=7.0, params=params, coin=0.001)


def test_control_threshold_boundary_is_strict():
    params = SimParams(t_grm=6.0, t_loom=32.0, p_restart=1.0)
    # exactly at threshold: no stop (needs >) and no restart (needs <)
    assert control(True, max_grm=6.0, params=params, coin=0.0)
    assert not control(False, max_grm=6.0, params=params, coin=0.0)


def test_restart_coins_drawn_ahead_by_stopped_agents_only():
    # walking agents draw nothing; a stopped agent in a new world draws its
    # coins up to its first lucky one, which sets its next lucky step
    params = SimParams(p_restart=0.5)
    rngs = [np.random.default_rng(k) for k in range(4)]
    moving = np.array([True, False, False, True])
    start = np.full(4, ~0)
    lucky, next_lucky, next_coin = dyn.restart_coins(0, moving, start, 0, params, rngs)
    assert not next_lucky.flags.writeable and np.array_equal(start, np.full(4, ~0))
    assert next_coin == max(min(next_lucky[1:3]), 1)
    for k, stream in enumerate(rngs):
        fresh = np.random.default_rng(k)
        if not moving[k]:
            first = 0
            while fresh.random() >= params.p_restart:
                first += 1
            assert next_lucky[k] == first and lucky[k] == (first == 0)
        assert stream.bit_generator.state == fresh.bit_generator.state
    assert not lucky[moving].any()


def test_restart_coins_draw_exactly_when_an_entry_does_not_reach_the_step():
    # at t = 7: a stale lucky step, a spent block and a new world's entry draw
    # a block from step 7 on; a lucky step ahead or now, a block reaching past
    # 7 and a walking agent's stale entry draw nothing
    t, params = 7, SimParams(p_restart=0.5)
    k = dyn._coin_block(params.p_restart)
    entries = np.array([3, ~7, ~0, 9, ~12, 7, 3])
    moving = np.array([False] * 6 + [True])
    draws = [True, True, True, False, False, False, False]
    rngs = [np.random.default_rng(40 + i) for i in range(7)]
    lucky, next_lucky, next_coin = dyn.restart_coins(t, moving, entries.copy(), t, params, rngs)
    for i, stream in enumerate(rngs):
        fresh = np.random.default_rng(40 + i)
        want = entries[i]
        if draws[i]:
            want = ~(t + k)
            for j in range(k):
                if fresh.random() < params.p_restart:
                    want = t + j
                    break
        assert next_lucky[i] == want, i
        assert stream.bit_generator.state == fresh.bit_generator.state, i
        assert lucky[i] == (not moving[i] and want == t), i
    assert lucky[5] and not lucky[6]
    # agent 5 is lucky now and may stay stopped, so its entry is due next step
    assert next_coin == t + 1


def coin_step(t, moving, next_lucky):
    """The first step from t on at which a stopped agent's entry (a lucky step,
    or ``~s`` with s the first undrawn coin's step) falls due."""
    due = [max(entry, ~entry, t) for entry in next_lucky[~moving].tolist()]
    return min(due, default=dyn.NEVER)


def test_restart_coins_before_the_coin_step_draw_nothing():
    # stale entries are due, but before the carried step the call returns at
    # once: no lucky agent, the same entries, nothing drawn
    params = SimParams(p_restart=0.5)
    entries = np.array([3, ~7, ~0, 9])
    entries.flags.writeable = False
    moving = np.array([False, False, False, True])
    rngs = [np.random.default_rng(60 + i) for i in range(4)]
    lucky, next_lucky, next_coin = dyn.restart_coins(7, moving, entries, 8, params, rngs)
    assert not lucky.any() and not lucky.flags.writeable and lucky.shape == (4,)
    assert next_lucky is entries and next_coin == 8
    for i, stream in enumerate(rngs):
        assert stream.bit_generator.state == np.random.default_rng(60 + i).bit_generator.state
    # at the carried step the stale entries draw
    lucky, next_lucky, next_coin = dyn.restart_coins(8, moving, entries, 8, params, rngs)
    assert ((next_lucky[:3] >= 8) | (~next_lucky[:3] > 8)).all() and lucky.flags.writeable
    assert next_coin == max(coin_step(8, moving, next_lucky), 9)


@pytest.mark.parametrize("p", [0.008, 0.5, 1.0, 0.0])
def test_carried_coin_step_skips_only_steps_without_coin_work(p):
    # with the walk flags held, carrying next_coin gives every step's lucky
    # agents and leaves every stream as a call that never skips
    params = SimParams(p_restart=p)
    moving = np.random.default_rng(3).random(12) < 0.3
    carried = [np.random.default_rng(80 + i) for i in range(12)]
    always = [np.random.default_rng(80 + i) for i in range(12)]
    entries_c = entries_a = np.full(12, ~0)
    next_coin, skipped = 0, 0
    for t in range(5000):
        skipped += t < next_coin
        got, entries_c, next_coin = dyn.restart_coins(t, moving, entries_c, next_coin,
                                                      params, carried)
        want, entries_a, _ = dyn.restart_coins(t, moving, entries_a, t, params, always)
        assert np.array_equal(got, want) and np.array_equal(entries_c, entries_a), t
        assert next_coin == max(coin_step(t, moving, entries_c), t + 1), t
    for a, b in zip(carried, always):
        assert a.bit_generator.state == b.bit_generator.state
    # at p = 0.5 some stopped agent is lucky at nearly every step
    if p != 0.5:
        assert (skipped > 0) == (p < 1.0)


# ------------------------------------------------------------- reorientation

def test_first_stop_keeps_heading_and_jumps_sigma():
    params = SimParams()
    heading = dyn.reorient_on_stop(np.array([1.234]), np.zeros(1), STOPPING,
                                   [np.random.default_rng(5)])
    sigma = dyn.decay_sigma(np.zeros(1), STOPPING, params)
    assert heading[0] == pytest.approx(1.234)  # zero-variance draw
    assert sigma[0] == pytest.approx(math.radians(30))


def test_sigma_decays_geometrically():
    params = SimParams()
    sigma = np.array([math.radians(30)])
    start = sigma.copy()
    for _ in range(50):
        sigma = dyn.decay_sigma(sigma, NOT_STOPPING, params)
    assert sigma[0] == pytest.approx(start[0] * 0.992 ** 50)


def test_two_quick_stops_roughly_double_sigma():
    params = SimParams()
    sigma2 = dyn.decay_sigma(dyn.decay_sigma(np.zeros(1), STOPPING, params), STOPPING, params)[0]
    # iterate the recurrence by hand: decay(0) + jump, then decay(.) + jump
    expected = params.sigma_decay * (params.sigma_decay * 0.0 + params.sigma_jump) \
        + params.sigma_jump
    assert sigma2 == pytest.approx(expected)
    assert sigma2 == pytest.approx(math.radians(60), rel=0.01)


def test_sigma_bounded_by_fixed_point():
    params = SimParams()
    bound = params.sigma_jump / (1.0 - params.sigma_decay)
    sigma = np.zeros(1)
    for _ in range(5000):
        sigma = dyn.decay_sigma(sigma, STOPPING, params)
        assert 0.0 <= sigma[0] <= bound + 1e-9


def test_reorientation_draw_uses_pre_update_sigma():
    sigma0 = math.radians(45)
    # replicate the draw with an identical stream: one normal(heading, sigma0)
    heading = dyn.reorient_on_stop(np.array([2.0]), np.array([sigma0]), STOPPING,
                                   [np.random.default_rng(77)])
    expected = np.random.default_rng(77).normal(2.0, sigma0) % (2 * math.pi)
    assert heading[0] == expected


def test_reorientation_only_touches_stopping_rows():
    heading = np.array([0.5, 1.0, 1.5])
    stopping = np.array([False, True, False])
    rngs = [np.random.default_rng(k) for k in range(3)]
    new = dyn.reorient_on_stop(heading, np.full(3, 0.3), stopping, rngs)
    assert new[0] == 0.5 and new[2] == 1.5 and new[1] != 1.0
    assert np.array_equal(heading, [0.5, 1.0, 1.5])  # input left untouched
    # rows that did not stop kept their streams untouched
    assert rngs[0].random() == np.random.default_rng(0).random()


# ------------------------------------------------------------------ advance

def advance_one(x, y, heading, speed, moving, params):
    record = dyn.motion(np.array([heading]), np.array([speed]), np.array([moving]), params)
    pos = dyn.advance(np.array([[x, y]]), record.disp, params)
    assert np.array_equal(record.disp, record.vel * params.dt)
    return pos[0]


def test_advance_stopped_agent_stays():
    params = SimParams()
    assert np.array_equal(advance_one(10.0, 10.0, 0.7, 25.0, False, params), [10.0, 10.0])


def test_advance_step_length():
    params = SimParams()
    new_pos = advance_one(10.0, 10.0, math.pi / 2, 20.0, True, params)
    assert np.linalg.norm(new_pos - [10.0, 10.0]) == pytest.approx(0.1)  # 20mm/s * 5ms


def test_advance_wraps_at_boundary():
    params = SimParams()
    new_pos = advance_one(49.95, 10.0, 0.0, 20.0, True, params)
    assert new_pos[0] == pytest.approx(0.05, abs=1e-9)


def test_velocity_zero_when_stopped():
    vel = dyn.motion(np.array([0.0, math.pi / 2]), np.array([20.0, 10.0]),
                     np.array([True, False]), SimParams()).vel
    assert vel[0] == pytest.approx([20.0, 0.0])
    assert np.array_equal(vel[1], [0.0, 0.0])


# ------------------------------------------------------------- pair culling

def distance_cull(rel_speed, dist2, params):
    """The cull as a comparison of rates: a pair is kept when its relative speed v
    is positive and v >= floor * (c - r), c its centre distance and r the reach,
    with the margins of ``cull_reach2``."""
    floor = min(params.t_grm, params.t_loom)
    reach = perception._body(params.d_eye, params.cva, params.ipsi_field)[1]
    gap = np.sqrt(dist2) - (reach + 1e-9 * params.arena)
    return (rel_speed > 0.0) & (rel_speed >= floor * (1.0 - 1e-9) * gap)


def cull_worlds(rng, params, count):
    """(dist2, motion) of random worlds: half spread over the arena, half packed
    into 8 mm across a random corner, so often straddling the torus seam; about
    half of the agents stopped, and some walking with agent 0's velocity."""
    for k in range(count):
        n = int(rng.integers(2, 11))
        side, corner = (8.0, rng.uniform(0, params.arena, 2)) if k % 2 else (params.arena, 0.0)
        pos = (corner + rng.uniform(0, side, (n, 2))) % params.arena
        heading, speed = rng.uniform(0, 2 * math.pi, n), rng.uniform(10, 30, n)
        twins = rng.random(n) < 0.3
        heading[twins], speed[twins] = heading[0], speed[0]
        moving = rng.random(n) < 0.5
        moving[twins] = moving[0]
        yield (pair_deltas(pos, params.arena) ** 2).sum(-1), dyn.motion(heading, speed,
                                                                      moving, params)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("floor", [0.0, 5e-324, 1e-300, 0.1, 1.0, 4.0, 6.0, 32.0])
def test_cull_radius_keeps_every_pair_the_rate_bound_keeps(floor):
    # the squared cull radius keeps every pair that the rate bound keeps, in
    # random worlds and within a few ulps of the bound's edge, drops the pairs
    # at zero relative speed, and warns at no floor
    rng = np.random.default_rng(43)
    params = SimParams(t_grm=floor, t_loom=max(floor, 6.0))
    dropped = still = 0
    for dist2, motion in cull_worlds(rng, params, 60):
        rel_speed = np.hypot(motion.rel_vel[..., 0], motion.rel_vel[..., 1])
        by_radius = dist2 <= motion.reach2
        moving_apart = motion.rel_vel.any(axis=-1)
        assert not (distance_cull(rel_speed, dist2, params) & ~by_radius).any()
        assert not (by_radius & ~moving_apart).any()
        dropped += int((moving_apart & ~by_radius).sum())
        still += int((~moving_apart & ~np.eye(len(dist2), dtype=bool)).sum())
    assert still > 0
    if floor >= 1.0:
        assert dropped > 0
    if floor < 1e-200:  # every moving pair is kept
        assert dropped == 0
    if floor >= 0.1:
        rel_speed = rng.uniform(0.1, 60.0, 4000)
        reach = perception._body(params.d_eye, params.cva, params.ipsi_field)[1]
        edge = rel_speed / (floor * (1.0 - 1e-9)) + (reach + 1e-9 * params.arena)
        dist2 = (edge * (1.0 + rng.integers(-16, 17, 4000) * 2.0 ** -52)) ** 2
        by_rate = distance_cull(rel_speed, dist2, params)
        assert by_rate.any() and not by_rate.all()
        assert not (by_rate & ~(dist2 <= dyn.cull_reach2(rel_speed, params))).any()


def _trial_outputs(result):
    return ([(s.t, s.agent, s.cause_agents, s.channel) for s in result.stops],
            result.collisions, result.encounters, result.counts)


@pytest.mark.parametrize("n_agents, t_grm, t_loom, seed",
                         [(10, 6.0, 32.0, 2), (30, 1.0, 4.0, 0)])
def test_pair_culling_leaves_trials_unchanged(monkeypatch, n_agents, t_grm, t_loom, seed):
    # the engine culls pairs at min(T_grm, T_loom) and skips observers whose
    # decision cannot change; evaluating every pair must give the same trial
    desk = config.parse_config(DESK).params
    params = replace(desk, n_agents=n_agents, t_grm=t_grm, t_loom=t_loom,
                     horizon_steps=400)
    culled = engine.run_trial(params, seed)

    exact_summaries = perception.world_summaries
    skipped, emptied_rows = 0, 0

    def every_pair(pos, frames, rel_vel, params, pairs):
        nonlocal skipped, emptied_rows
        moving_apart = rel_vel.any(axis=-1)
        skipped += int((moving_apart & ~pairs).sum())
        # rows the cull alone keeps, left empty by the observer mask
        rel_speed = np.hypot(rel_vel[..., 0], rel_vel[..., 1])
        dist2 = (pair_deltas(pos, params.arena) ** 2).sum(axis=-1)
        kept = dist2 <= dyn.cull_reach2(rel_speed, params)
        emptied_rows += int((kept.any(axis=1) & ~pairs.any(axis=1)).sum())
        n = len(pos)
        return exact_summaries(pos, frames, rel_vel, params, np.ones((n, n), bool))

    monkeypatch.setattr(perception, "world_summaries", every_pair)
    exact = engine.run_trial(params, seed)
    assert skipped > 0 and emptied_rows > 0
    assert culled.stops and _trial_outputs(culled) == _trial_outputs(exact)
