"""Restart coins drawn ahead equal one coin per stopped agent per step.

Each trial runs twice from one world and one seed: with the engine's coins,
drawn in blocks and rewound to just after each lucky one, and with the
one-coin-per-step oracle of ``coin_oracle``.  The two must give the same
lucky agents at every step and leave every stream in the same state at every
reorientation draw, and so the same stops.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from grmsim import dynamics, engine
from grmsim.dynamics import SimParams
from coin_oracle import use_one_coin_per_step
from scenario_fixtures import wall_scenario

CROWD = SimParams(n_agents=30, t_grm=1.0, t_loom=4.0, cva=math.radians(30.0))


class CountingStream:
    """A stream that counts the coins drawn from it and its rewinds."""

    def __init__(self, stream):
        self.stream = stream
        self.coins = self.rewinds = 0

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.stream.bit_generator.state

    def advance(self, delta):
        self.rewinds += 1
        self.stream.bit_generator.advance(delta)

    def random(self, size=None):
        self.coins += 1 if size is None else size
        return self.stream.random(size)

    def normal(self, loc, scale):
        return self.stream.normal(loc, scale)


@dataclass
class Trace:
    lucky: list          # each step's lucky agents
    reorientations: list  # per step, {agent: stream state} at its reorientation draw
    stops: list
    lucky_stayed: int    # lucky agents that stayed stopped (quiet failed)
    stopped_steps: np.ndarray  # per agent, steps it began stopped
    world: engine.WorldState   # the last world
    streams: list


def trace(world, seed, steps, monkeypatch) -> Trace:
    control_step, reorient_on_stop = dynamics.control_step, dynamics.reorient_on_stop
    streams = [CountingStream(s) for s in dynamics.trial_streams(seed, len(world.pos))[1]]
    out = Trace([], [], [], 0, np.zeros(len(world.pos), int), world, streams)

    def record_lucky(moving, max_grm, omega_loom, params, lucky):
        out.lucky.append(lucky.copy())
        walking = control_step(moving, max_grm, omega_loom, params, lucky)
        out.lucky_stayed += int((lucky & ~walking).sum())
        return walking

    def record_states(heading, sigma, stopping, rngs):
        out.reorientations.append({i: rngs[i].bit_generator.state
                                   for i in np.flatnonzero(stopping).tolist()})
        return reorient_on_stop(heading, sigma, stopping, rngs)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "control_step", record_lucky)
        patch.setattr(dynamics, "reorient_on_stop", record_states)
        for _ in range(steps):
            out.stopped_steps += ~out.world.moving
            out.world, events = engine.step(out.world, streams)
            out.stops.extend((s.t, s.agent, s.cause_agents) for s in events.stops)
    return out


def drawn_ahead_matches_oracle(world, seed, steps, monkeypatch) -> Trace:
    """The look-ahead run, checked step by step against the oracle's."""
    ahead = trace(world, seed, steps, monkeypatch)
    with monkeypatch.context() as patch:
        use_one_coin_per_step(patch)
        oracle = trace(world, seed, steps, monkeypatch)
    for got, want in zip(ahead.lucky, oracle.lucky, strict=True):
        assert np.array_equal(got, want)
    assert ahead.reorientations == oracle.reorientations
    assert ahead.stops == oracle.stops and ahead.stops
    assert np.array_equal(ahead.world.heading, oracle.world.heading)
    return ahead


def check_work(run: Trace, p: float) -> None:
    """p = 1 draws one coin per lucky step; p = 0 and tiny p draw whole blocks
    of 4096, never more than one block beyond an agent's stopped steps."""
    coins = np.array([s.coins for s in run.streams])
    if p == 1.0:
        # no coin is drawn for a step that never runs
        lucky_steps = sum(int(lucky.sum()) for lucky in run.lucky)
        assert coins.sum() == lucky_steps
        assert not any(s.rewinds for s in run.streams)
    if p < 1e-6:
        assert not any(lucky.any() for lucky in run.lucky)
        assert (coins % 4096 == 0).all() and (coins <= run.stopped_steps + 4096).all()


@pytest.mark.parametrize("p", [0.008, 1.0, 0.0, 1e-9, 0.5])
def test_crowd_coins_match_one_per_step(monkeypatch, p):
    # N=30 at T_grm 1, T_loom 4: frequent stops, and lucky agents often still
    # see an alarm and stay stopped; at p = 0.5 a block holds 6 coins, and one
    # in 64 holds no lucky coin, so the next block is drawn on its step
    params = replace(CROWD, p_restart=p)
    world = engine.make_world(*dynamics.init_agents(params, dynamics.trial_streams(0, 30)[0]),
                              params)
    run = drawn_ahead_matches_oracle(world, 0, 500, monkeypatch)
    check_work(run, p)
    if p > 0.001:
        assert run.lucky_stayed > 0
        # agents that restarted and stopped again read their rewound streams
        restops = np.bincount([agent for _, agent, _ in run.stops], minlength=30)
        assert (restops > 1).any()
    if p in (0.008, 0.5):
        assert sum(s.rewinds for s in run.streams) > 0


@pytest.mark.parametrize("p, steps", [(0.008, 400), (1.0, 400), (0.0, 4200), (1e-9, 400)])
def test_coins_of_agents_stopped_at_step_zero(monkeypatch, p, steps):
    # the wall's 24 agents start stopped with no coin drawn; at p = 0 they draw
    # a second block at step 4096
    world, _ = wall_scenario(5, p_restart=p)
    run = drawn_ahead_matches_oracle(world, 5, steps, monkeypatch)
    check_work(run, p)
    if p == 0.0:
        assert (np.array([s.coins for s in run.streams[:24]]) == 2 * 4096).all()


@pytest.mark.parametrize("p", [5e-324, 1e-310, 1e-300])
def test_tiny_p_restart_draws_capped_blocks(p):
    # log(64) / -log1p(-p) overflows to inf below ~1e-308
    assert dynamics._coin_block(p) == 4096


def test_trial_at_subnormal_p_restart():
    params = replace(SimParams(), p_restart=1e-310, horizon_steps=300)
    assert engine.run_trial(params, seed=0).stops
