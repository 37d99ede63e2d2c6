"""Synchronous world stepping and full-trial execution.

The world is a struct of arrays with one row per agent; the row index is
the agent id.  One step: compute every agent's percept summary from the
frozen snapshot, apply the walk/stop control, reorient agents that just
stopped, advance everyone, then detect collisions and encounter transitions
on the new positions.  Stop records keep the snapshot's position and
velocity arrays, because classification later needs the state "at the
moment of the stop"; a step therefore always builds new arrays and never
writes into old ones.

Everything is deterministic in (params, seed): each agent consumes
randomness only from its own stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import analysis, dynamics, perception
from .dynamics import RngStream, SimParams
from .geometry import min_image_delta


@dataclass(frozen=True, eq=False)
class StopRecord:
    """A single walk-to-stop transition, with the snapshot that caused it."""

    t: int
    agent: int
    cause_agents: frozenset[int]
    channel: str  # "GRM", "LOOM" or "both"
    frozen_velocities: np.ndarray  # (n, 2), row = agent
    frozen_positions: np.ndarray   # (n, 2), row = agent


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
    the step an open encounter began, or -1 when none is open.
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


def make_world(pos, heading, speed, params: SimParams, moving=True) -> WorldState:
    """Step-0 world from per-agent rows; ``moving`` may be one flag for all."""
    pos = np.array(pos, dtype=float)
    n = len(pos)
    return WorldState(
        0, pos, np.array(heading, dtype=float), np.array(speed, dtype=float),
        np.broadcast_to(np.asarray(moving, dtype=bool), n).copy(), np.zeros(n),
        params, np.zeros((n, n), dtype=bool), np.full((n, n), -1))


def _pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(i, j) index pairs of an upper-triangular mask, in sorted order."""
    i, j = np.nonzero(mask)
    return list(zip(i.tolist(), j.tolist()))


def step(world: WorldState, rngs: list[RngStream]) -> tuple[WorldState, StepEvents]:
    """Advance the world one time step; returns the new world and its events."""
    params = world.params
    t = world.time_step
    vel = dynamics.velocity(world.heading, world.speed, world.moving)
    # a rate below both thresholds changes no decision, so pairs that cannot
    # reach the lower one are skipped
    summary = perception.world_summaries(world.pos, world.heading, vel, params,
                                         floor=min(params.t_grm, params.t_loom))

    moving = dynamics.control_step(
        world.moving, summary.max_grm, summary.omega_loom, params, rngs)
    stopping = world.moving & ~moving
    heading = dynamics.reorient_on_stop(world.heading, world.sigma, stopping, rngs)
    sigma = dynamics.decay_sigma(world.sigma, stopping, params)
    pos = dynamics.advance(world.pos, heading, world.speed, moving, params)

    events = StepEvents()
    for i in np.flatnonzero(stopping).tolist():
        grm_hit = summary.max_grm[i] > params.t_grm
        loom_hit = summary.omega_loom[i] > params.t_loom
        channel = "both" if (grm_hit and loom_hit) else ("GRM" if grm_hit else "LOOM")
        by_grm, by_loom = summary.causes(i)
        causes = (grm_hit & by_grm) | (loom_hit & by_loom)
        events.stops.append(StopRecord(
            t=t, agent=i, cause_agents=frozenset(np.flatnonzero(causes).tolist()),
            channel=channel, frozen_velocities=vel, frozen_positions=world.pos))

    delta = min_image_delta(pos[:, None, :], pos[None, :, :], params.arena)
    dist2 = (delta ** 2).sum(axis=-1)
    upper = np.triu(np.ones(dist2.shape, dtype=bool), k=1)

    # collision detection with per-episode debouncing
    contact = upper & (dist2 < params.collision_distance ** 2)
    events.collisions = [CollisionRecord(t + 1, pair)
                         for pair in _pairs(contact & ~world.contact)]

    # encounter episodes: pairs inside perception range (half the arena)
    seen = upper & (dist2 < (params.arena / 2.0) ** 2)
    was_open = world.t_enter >= 0
    events.encounters = [EncounterRecord((i, j), int(world.t_enter[i, j]), t + 1)
                         for i, j in _pairs(was_open & ~seen)]
    t_enter = np.where(seen, np.where(was_open, world.t_enter, t + 1), -1)

    new_world = WorldState(t + 1, pos, heading, world.speed, moving, sigma, params,
                           contact, t_enter)
    return new_world, events


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
