"""Synchronous world stepping and full-trial execution.

The world is a struct of arrays with one row per agent, the row index being
the agent id.  Besides each agent's state it carries what changes only at
events, so a step between events does no event work:

* its pair centre displacements and their squared lengths ``dist2``,
  rebuilt every step, and each pair's range level (in contact, in
  perception range, out of range), with the collision and encounter
  bookkeeping that follows from the levels, rebuilt only when one changes;
* its ``dynamics.Motion``, with each pair's squared cull radius, rebuilt
  when a walk flag changes, and its ``perception.Frames``, rebuilt at stops;
* each agent's next lucky restart step ``next_lucky`` and the world's
  ``next_coin`` step; ``dynamics.restart_coins`` alone draws coins, and
  before ``next_coin`` it returns at once.

One step: read the stopped agents' restart coins, compute the walking and
lucky agents' percept summaries over the pairs within their cull radius
from the frozen snapshot, apply the walk/stop control and decay every
spread; on a step with a stop, reorient the agents that just stopped and
record their stops.  Then advance everyone and compare the new positions'
range levels with the carried ones; only when one differs are collisions
and encounter transitions detected, building event lists only when a
contact begins or a pair crosses the perception range.  A stop record keeps
its causes' state at the moment of the stop, read from the snapshot's
``centre`` and motion record.  A step never writes into old arrays, so the
trajectory log of ``run_trial`` keeps each step's arrays uncopied.

Everything is deterministic in (params, seed): each agent consumes
randomness only from its own stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import analysis, dynamics, perception
from .dynamics import RngStream, SimParams
from .geometry import pair_deltas, wrap_torus


@dataclass(frozen=True, eq=False)
class StopRecord:
    """A walk-to-stop transition; row r of ``rel_pos``/``rel_vel`` is cause r by id."""

    t: int
    agent: int
    cause_agents: frozenset[int]
    channel: str  # "GRM", "LOOM" or "both"
    rel_pos: np.ndarray  # (k, 2), world.centre[agent, causes]
    rel_vel: np.ndarray  # (k, 2), world.motion.rel_vel[agent, causes]


@dataclass(frozen=True)
class CollisionRecord:
    """First step of a contact episode between a pair of agents."""

    t: int
    pair: tuple[int, int]


@dataclass(frozen=True)
class EncounterRecord:
    """A pair entering perception range (< arena/2) and separating again."""

    pair: tuple[int, int]
    t_enter: int
    t_exit: int


@dataclass
class StepEvents:
    stops: list[StopRecord] = field(default_factory=list)
    collisions: list[CollisionRecord] = field(default_factory=list)
    encounters: list[EncounterRecord] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class WorldState:
    """Frozen world at one time step, plus pair bookkeeping for debouncing.

    ``contact[i, j]`` (i < j) marks pairs in contact; ``t_enter[i, j]`` is
    the step an open encounter began, or -1 when none is open.  Neither
    changes while ``range_levels`` stays the same; a new world's levels are
    all 2, out of range, as no pair is in contact and no encounter is open.
    ``motion``, ``frames`` and the levels are built for ``params`` (the cull
    radii from its thresholds): ``dataclasses.replace`` of ``params`` alone
    leaves them stale unless they read none of the changed fields, as with
    ``p_restart``; ``make_world`` builds a world for other params.
    """

    time_step: int
    pos: np.ndarray      # (n, 2)
    heading: np.ndarray  # (n,)
    speed: np.ndarray    # (n,)
    moving: np.ndarray   # (n,) bool
    sigma: np.ndarray    # (n,)
    params: SimParams
    contact: np.ndarray  # (n, n) bool
    t_enter: np.ndarray  # (n, n) int
    motion: dynamics.Motion     # dynamics.motion(heading, speed, moving, params)
    frames: perception.Frames   # perception.body_frames(heading, params)
    centre: np.ndarray   # (n, n, 2), geometry.pair_deltas(pos, arena)
    dist2: np.ndarray    # (n, n), (centre ** 2).sum(axis=-1)
    levels: np.ndarray   # (n, n) int, read-only, range_levels(dist2, params)
    next_lucky: np.ndarray  # (n,) int, read-only, see dynamics.restart_coins
    next_coin: int       # see dynamics.restart_coins


def make_world(pos, heading, speed, params: SimParams, moving=True) -> WorldState:
    """Step-0 world from per-agent rows; ``moving`` may be one flag for all.
    Positions are wrapped (in-range ones keep their bits); no coin is drawn yet."""
    pos = wrap_torus(pos, params.arena)
    heading, speed = (np.array(a, dtype=float) for a in (heading, speed))
    n = len(pos)
    moving = np.broadcast_to(np.asarray(moving, dtype=bool), n).copy()
    next_lucky = np.full(n, ~0)
    levels = np.full((n, n), 2)
    for array in (next_lucky, levels):
        array.flags.writeable = False
    centre = pair_deltas(pos, params.arena)
    return WorldState(0, pos, heading, speed, moving, np.zeros(n), params,
                      np.zeros((n, n), dtype=bool), np.full((n, n), -1),
                      dynamics.motion(heading, speed, moving, params),
                      perception.body_frames(heading, params), centre, (centre ** 2).sum(axis=-1),
                      levels, next_lucky, 0)


@functools.lru_cache(maxsize=None)
def _upper(n: int) -> np.ndarray:
    """Read-only (n, n) mask of the pairs i < j (``broadcast_to`` views are read-only)."""
    return np.broadcast_to(np.triu(np.ones((n, n), dtype=bool), k=1), (n, n))


@functools.lru_cache(maxsize=None)
def _range_bounds(collision_distance: float, arena: float) -> np.ndarray:
    """Read-only squared collision distance and perception range, in ascending order."""
    bounds = np.sort([collision_distance ** 2, (arena / 2.0) ** 2])
    bounds.flags.writeable = False
    return bounds


def range_levels(dist2: np.ndarray, params: SimParams) -> np.ndarray:
    """Each pair's range level, the number of ``_range_bounds`` at or below its
    ``dist2``: 0 in contact, 1 in perception range (half the arena), else 2
    (for a collision distance below half the arena).  A pair's contact or
    perception-range flag changes only with its level."""
    bounds = _range_bounds(params.collision_distance, params.arena)
    return bounds.searchsorted(dist2, side="right")


def _pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(i, j) index pairs of an upper-triangular mask, in sorted order."""
    i, j = np.nonzero(mask)
    return list(zip(i.tolist(), j.tolist()))


def step(world: WorldState, rngs: list[RngStream]) -> tuple[WorldState, StepEvents]:
    """Advance the world one time step; returns the new world and its events."""
    params = world.params
    t = world.time_step
    # an unlucky stopped agent stays stopped whatever it sees, and a rate below
    # both thresholds changes no decision, so neither is evaluated
    lucky, next_lucky, next_coin = dynamics.restart_coins(
        t, world.moving, world.next_lucky, world.next_coin, params, rngs)
    pairs = (world.dist2 <= world.motion.reach2) & (world.moving | lucky)[:, None]
    summary = perception.world_summaries(world.pos, world.frames, world.motion.rel_vel,
                                         params, pairs)

    moving = dynamics.control_step(
        world.moving, summary.max_grm, summary.omega_loom, params, lucky)
    stopping = world.moving & ~moving
    sigma = dynamics.decay_sigma(world.sigma, stopping, params)
    events = StepEvents()
    heading, motion, frames = world.heading, world.motion, world.frames
    # headings change only at stops, velocities at stops and restarts
    if np.count_nonzero(moving != world.moving):
        next_coin = t + 1
        if np.count_nonzero(stopping):
            heading = dynamics.reorient_on_stop(world.heading, world.sigma, stopping, rngs)
            frames = perception.body_frames(heading, params)
            events.stops = [_stop_record(t, i, world, summary)
                            for i in np.flatnonzero(stopping).tolist()]
        motion = dynamics.motion(heading, world.speed, moving, params)
    pos = dynamics.advance(world.pos, motion.disp, params)

    centre = pair_deltas(pos, params.arena)
    dist2 = (centre ** 2).sum(axis=-1)
    levels = range_levels(dist2, params)
    contact, t_enter = world.contact, world.t_enter
    if np.count_nonzero(levels != world.levels):
        levels.flags.writeable = False
        upper = _upper(len(pos))
        # collision detection with per-episode debouncing
        contact = upper & (dist2 < params.collision_distance ** 2)
        begun = contact & ~world.contact
        if np.count_nonzero(begun):
            events.collisions = [CollisionRecord(t + 1, pair) for pair in _pairs(begun)]
        # encounter episodes: pairs inside perception range (half the arena)
        seen = upper & (dist2 < (params.arena / 2.0) ** 2)
        was_open = world.t_enter >= 0
        if np.count_nonzero(seen != was_open):
            events.encounters = [EncounterRecord((i, j), int(world.t_enter[i, j]), t + 1)
                                 for i, j in _pairs(was_open & ~seen)]
            t_enter = np.where(seen, np.where(was_open, world.t_enter, t + 1), -1)
    else:
        levels = world.levels

    new_world = WorldState(t + 1, pos, heading, world.speed, moving, sigma, params,
                           contact, t_enter, motion, frames, centre, dist2, levels,
                           next_lucky, next_coin)
    return new_world, events


def _stop_record(t: int, i: int, world: WorldState,
                 summary: perception.PerceptSummary) -> StopRecord:
    """Agent i's stop at step t, its causes' state read from the snapshot ``world``."""
    params = world.params
    grm_hit = summary.max_grm[i] > params.t_grm
    loom_hit = summary.omega_loom[i] > params.t_loom
    channel = "both" if (grm_hit and loom_hit) else ("GRM" if grm_hit else "LOOM")
    by_grm, by_loom = summary.causes(i)
    causes = np.flatnonzero((grm_hit & by_grm) | (loom_hit & by_loom))
    return StopRecord(t=t, agent=i, cause_agents=frozenset(causes.tolist()), channel=channel,
                      rel_pos=world.centre[i, causes], rel_vel=world.motion.rel_vel[i, causes])


@dataclass
class TrajectoryLog:
    """Dense per-step state record for rendering: step axis first."""

    pos: np.ndarray      # (steps+1, n, 2)
    heading: np.ndarray  # (steps+1, n)
    moving: np.ndarray   # (steps+1, n)


def run_trial(params: SimParams, seed: int,
              log_trajectories: bool = False) -> "analysis.TrialResult":
    """Run one seeded trial for ``params.horizon_steps`` steps and classify it."""
    params.validate()
    init_rng, agent_rngs = dynamics.trial_streams(seed, params.n_agents)
    world = make_world(*dynamics.init_agents(params, init_rng), params)

    stops: list[StopRecord] = []
    collisions: list[CollisionRecord] = []
    encounters: list[EncounterRecord] = []
    pos_log, heading_log, moving_log = [world.pos], [world.heading], [world.moving]
    for _ in range(params.horizon_steps):
        world, events = step(world, agent_rngs)
        stops.extend(events.stops)
        collisions.extend(events.collisions)
        encounters.extend(events.encounters)
        if log_trajectories:
            pos_log.append(world.pos)
            heading_log.append(world.heading)
            moving_log.append(world.moving)

    trajectory = None
    if log_trajectories:
        trajectory = TrajectoryLog(
            pos=np.array(pos_log), heading=np.array(heading_log),
            moving=np.array(moving_log, dtype=int))

    labels = analysis.label_stops(stops, params)
    counts = analysis.count_events(stops, labels, collisions, encounters)
    return analysis.TrialResult(
        params=params, seed=seed, counts=counts,
        metrics=analysis.counts_to_metrics(counts),
        stops=stops, stop_labels=labels, collisions=collisions,
        encounters=encounters, trajectory=trajectory)
