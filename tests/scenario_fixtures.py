"""Deterministic two-agent and wall scenarios shared by engine and acceptance tests.

Each builder returns (world, params); row i of the world is agent i.  Unless
stated otherwise the scenarios disable spontaneous restarts, so the first
stop ends the interesting part of the episode, and set the looming threshold
to the 32 rad/s sentinel, so only the GRM channel acts.
"""

import math

import numpy as np

from grmsim import engine
from grmsim.dynamics import SimParams


def fixture_params(t_grm, cva_deg=30.0, t_loom=32.0, p_restart=0.0):
    return SimParams(t_grm=t_grm, t_loom=t_loom, cva=math.radians(cva_deg),
                     p_restart=p_restart, horizon_steps=0)


def agent(x, y, heading, speed, moving=True):
    """One world row: position, heading, speed and walk flag."""
    return x, y, heading, speed, moving


def world_of(rows, params):
    """A step-0 world from ``agent`` rows, in row order."""
    x, y, heading, speed, moving = zip(*rows)
    return engine.make_world(np.column_stack((x, y)), heading, speed, params,
                             moving=moving)


def overtake_scenario():
    """A faster agent passes 2mm beside a slower one going the same way.

    The slow front agent sees strong contralateral motion as the overtaker
    draws level and stops although their paths never meet: a false alarm.
    """
    slow = agent(25.0, 25.0, math.pi / 2, 10.0)
    fast = agent(27.0, 19.0, math.pi / 2, 30.0)
    params = fixture_params(t_grm=6.0)
    return world_of([slow, fast], params), params


def early_crosser_scenario():
    """The other agent clears the trajectory junction well in advance.

    The observer trails the crossing by 8mm of arrival gap; extrapolation
    never brings the pair close, so its stop is a false alarm.
    """
    observer = agent(25.0, 13.0, math.pi / 2, 10.0)
    crosser = agent(33.0, 25.0, math.pi, 20.0)
    params = fixture_params(t_grm=2.5)
    return world_of([observer, crosser], params), params


def pull_away_scenario():
    """A fast agent cuts ahead of a slow converging one and speeds away.

    The slow agent's image drifts clockwise through the fast agent's left
    contralateral band, triggering a stop although the fast agent clears
    the crossing with room to spare: a false alarm.
    """
    dark = agent(25.0, 20.0, math.pi / 2, 30.0)
    bright = agent(27.0, 23.8, math.radians(105), 10.0)
    params = fixture_params(t_grm=1.4)
    return world_of([dark, bright], params), params


def collision_course_scenario():
    """Perpendicular crossing with a tight 1mm arrival gap: a warranted stop."""
    observer = agent(25.0, 22.0, math.pi / 2, 10.0)
    crosser = agent(29.0, 25.0, math.pi, 20.0)
    params = fixture_params(t_grm=4.0)
    return world_of([observer, crosser], params), params


def wall_scenario(seed, p_restart=0.0):
    """One mover, the last row, aimed into a line of stopped agents spanning the
    arena; the stopped agents restart with probability ``p_restart`` per step."""
    rng = np.random.default_rng(seed)
    params = fixture_params(t_grm=2.0, cva_deg=30.0, p_restart=p_restart)
    wall = [agent(1.0 + 2.0 * i, 40.0, math.pi / 2, 10.0, moving=False)
            for i in range(24)]
    angle_from_normal = rng.uniform(-0.7, 0.7)
    mover = agent(rng.uniform(15.0, 35.0), 18.0,
                  math.pi / 2 - angle_from_normal, rng.uniform(10.0, 30.0))
    return world_of(wall + [mover], params), params
