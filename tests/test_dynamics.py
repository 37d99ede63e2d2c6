import math

import numpy as np
import pytest

from grmsim import dynamics as dyn
from grmsim.dynamics import SimParams
from grmsim.geometry import min_image_delta

STOPPING = np.array([True])
NOT_STOPPING = np.array([False])


class FixedRng:
    """Stand-in stream with scripted uniform draws."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def control(moving, max_grm=0.0, omega=0.0, *, params, coin=0.9):
    """Next walk flag of a single agent whose coin (if flipped) reads ``coin``."""
    return bool(dyn.control_step(np.array([moving]), np.array([max_grm]),
                                 np.array([omega]), params, [FixedRng(coin)])[0])


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


def test_control_flips_one_coin_per_stopped_agent():
    # walking agents draw nothing; each stopped agent draws once, alarm or not
    params = SimParams(t_grm=6.0, t_loom=32.0, p_restart=0.5)
    rngs = [np.random.default_rng(k) for k in range(4)]
    moving = np.array([True, False, False, True])
    dyn.control_step(moving, np.array([0.0, 7.0, 0.0, 7.0]), np.zeros(4), params, rngs)
    after = [r.random() for r in rngs]
    fresh = [np.random.default_rng(k) for k in range(4)]
    for r in fresh[1:3]:
        r.random()
    assert after == [r.random() for r in fresh]


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
    return dyn.advance(np.array([[x, y]]), np.array([heading]), np.array([speed]),
                       np.array([moving]), params)[0]


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
    vel = dyn.velocity(np.array([0.0, math.pi / 2]), np.array([20.0, 10.0]),
                       np.array([True, False]))
    assert vel[0] == pytest.approx([20.0, 0.0])
    assert np.array_equal(vel[1], [0.0, 0.0])
