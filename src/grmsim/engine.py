"""Synchronous world stepping and full-trial execution.

The world is a struct of arrays with one row per agent, the row index being
the agent id.  Besides each agent's state it carries what changes only at
events, so a step between events does no event work:

* its pair centre displacements and their squared lengths ``dist2``,
  rebuilt every step, and each pair's range level (in contact, in
  perception range, out of range), with the step each open encounter
  began; the levels alone decide contacts and encounters;
* its ``perception.Frames``, rebuilt at stops, whose heading unit vectors
  build its ``dynamics.Motion``, with each pair's squared cull radius,
  rebuilt when a walk flag changes;
* each agent's next lucky restart step ``next_lucky``;
  ``dynamics.restart_coins`` alone draws coins.

One step: read the stopped agents' restart coins, compute the walking and
lucky agents' percept summaries over the pairs within their cull radius
from the frozen snapshot, apply the walk/stop control and decay every
spread; on a step with a stop, reorient the agents that just stopped and
record their stops.  Then advance everyone and compare the new positions'
range levels with the carried ones; only where one differs does a contact
begin (a level becomes 0), an encounter open (a level leaves 2) or an
encounter close (a level returns to 2).  A stop record keeps
its causes' state at the moment of the stop, read from the snapshot's
``centre`` and motion record.  A step never writes into old arrays, so the
trajectory log of ``run_trial`` keeps each step's arrays uncopied.

Between walk-flag changes nothing but positions changes: the headings,
velocities and cull radii hold, and until a stopped agent restarts only its
own restart coins read its stream.  So one ``step`` call takes every step up
to its first walk-flag change, or ``MAX_STEPS`` of them.  A
``dynamics.restart_coins`` call draws the coins of the steps ahead and finds
the first with a lucky agent; where that agent stays stopped, the call goes on
from the next step with another.  The snapshots are evaluated in chunks, each
with its positions from one ``dynamics.track``, its pairs measured in one
``pair_deltas`` call and its percepts from one ``world_summaries`` call; the
chunks after the first may keep more pairs than it, so a long stretch costs
few percept calls and one that flips early discards at most one chunk.  Every
snapshot before the first whose walk flags change is accepted, and that step
is then taken as a single step is.  A world past step 0 with no walker is
frozen: nothing moves, no pair is kept and only a lucky step can change a
flag, so a call on it reads its first lucky step alone and ends there.  A
call's contacts and encounters come from one pass over the range levels
after each of its steps, in step order, and the spread
decays by the stretch's product in sequence, so every output, and every
stream's state, has the bits of one step at a time.

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
    """What happened in the steps of one ``step`` call, in step order."""

    positions: list[np.ndarray]  # (n, 2) after each step; the last are the new world's
    stops: list[StopRecord] = field(default_factory=list)
    collisions: list[CollisionRecord] = field(default_factory=list)
    encounters: list[EncounterRecord] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class WorldState:
    """Frozen world at one time step; the arrays it shares with the next are read-only.

    ``levels`` is each pair's ``range_levels``: 0 in contact, 1 in perception
    range, 2 out of range; a new world's are all 2, so no pair is in contact
    and no encounter is open.  ``t_enter[i, j]`` (i < j) is the step the pair's
    open encounter began, or -1 when none is open.  ``motion``, ``frames`` and
    the levels are built for ``params`` (the cull radii from its thresholds),
    and ``step`` reads them all, so a world for other params comes from
    ``make_world``: ``dataclasses.replace`` of ``params`` alone leaves them stale.
    """

    time_step: int
    pos: np.ndarray      # (n, 2)
    heading: np.ndarray  # (n,)
    speed: np.ndarray    # (n,)
    moving: np.ndarray   # (n,) bool
    sigma: np.ndarray    # (n,)
    params: SimParams
    t_enter: np.ndarray  # (n, n) int
    motion: dynamics.Motion     # dynamics.motion(frames, speed, moving, params)
    frames: perception.Frames   # perception.body_frames(heading, params)
    centre: np.ndarray   # (n, n, 2), geometry.pair_deltas(pos, arena)
    dist2: np.ndarray    # (n, n), centre[..., 0] ** 2 + centre[..., 1] ** 2
    levels: np.ndarray   # (n, n) int, read-only, range_levels(dist2, params)
    # (n,) int, read-only, see dynamics.restart_coins; a stretch draws the coins
    # of all its steps, so an entry may lie ahead of time_step
    next_lucky: np.ndarray


def make_world(pos, heading, speed, params: SimParams, moving=True) -> WorldState:
    """Step-0 world from per-agent rows; ``moving`` may be one flag for all.
    Positions are wrapped (in-range ones keep their bits); no coin is drawn yet."""
    pos = wrap_torus(pos, params.arena)
    heading, speed = (np.array(a, dtype=float) for a in (heading, speed))
    n = len(pos)
    moving = np.broadcast_to(np.asarray(moving, dtype=bool), n).copy()
    next_lucky, levels, t_enter = np.full(n, ~0), np.full((n, n), 2), np.full((n, n), -1)
    for array in (heading, speed, next_lucky, levels, t_enter):
        array.flags.writeable = False
    frames = perception.body_frames(heading, params)
    centre = pair_deltas(pos, params.arena)
    return WorldState(0, pos, heading, speed, moving, np.zeros(n), params, t_enter,
                      dynamics.motion(frames, speed, moving, params), frames, centre,
                      centre[..., 0] ** 2 + centre[..., 1] ** 2, levels, next_lucky)


@functools.lru_cache(maxsize=None)
def _upper(n: int) -> np.ndarray:
    """Read-only (n, n) mask of the pairs i < j (``broadcast_to`` views are read-only)."""
    return np.broadcast_to(np.triu(np.ones((n, n), dtype=bool), k=1), (n, n))


@functools.lru_cache(maxsize=None)
def _range_bounds(collision_distance: float, arena: float) -> np.ndarray:
    """Read-only squared collision distance and perception range, in ascending
    order as ``SimParams.validate`` keeps the first within half the arena."""
    bounds = np.array([collision_distance ** 2, (arena / 2.0) ** 2])
    bounds.flags.writeable = False
    return bounds


def range_levels(dist2: np.ndarray, params: SimParams) -> np.ndarray:
    """Each pair's range level, the number of ``_range_bounds`` at or below its
    ``dist2``: 0 in contact, 1 in perception range (half the arena), else 2."""
    bounds = _range_bounds(params.collision_distance, params.arena)
    return bounds.searchsorted(dist2, side="right")


def _pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(i, j) index pairs of an upper-triangular mask, in sorted order."""
    i, j = np.nonzero(mask)
    return list(zip(i.tolist(), j.tolist()))


# Steps one ``step`` call takes at most, so that the rows it carries (a
# position and a dist2 row per step) and the coins it draws ahead stay
# bounded.  Measured on the CVA 0, T_grm 0.1, T_loom 4 cell (2 vCPUs, numpy
# 2.4, 5 interleaved 10 000-step trials, process time): 64 took 1.02 of 128's
# time and 256 took 0.97; at CVA 90 all three were within 1%.
MAX_STEPS = 128

# Snapshots one percept call evaluates at most.  Measured on the desk cell
# with stretches ending only at walk-flag changes and lucky steps (2 vCPUs,
# numpy 2.4, 16 interleaved 2000-step trials, process time per step): 32 took
# 0.86 of 16's time, lower in 15 of 16 trials; 64 took 1.04 of 32's, lower
# in 4 of 16.  On the N = 30 crowd cell, where ``PAIR_BUDGET`` bounds most
# calls, 32 took 0.96 of 16's and 64 0.98.
MAX_SNAPSHOTS = 32

# Kept (snapshot, pair) entries the first percept call of a ``step`` call may
# hold, unless its first snapshot alone has more; each later one may hold
# ``PAIR_CEILING``.  The bounds keep a call's temporaries near one crowded
# step's: without them one N = 30 crowd trial (T_grm 1, T_loom 4, 2000 steps) grew a fresh process's peak resident
# memory by 23 MB; with them two such trials grew it by 2.5 MB, against 1.2-1.3
# MB with one percept call of at most 128 pairs per call.  Measured as for
# ``MAX_STEPS``, 5 interleaved runs: on the desk cell (8 trials each) a budget
# of 64 took 1.05 of 128's time and 32 took 1.09, on the CVA 0, T_grm 0.1 cell
# 64 took 1.05; on the crowd they were even.  On the four ``fullscale_sample``
# cells back to back a ceiling of 256 took 1.03 of 512's time and 1024 took
# 1.00, while two 10 000-step CVA 0, T_grm 0.1 trials grew peak resident
# memory by 1.1 MB at 256, 1.9 MB at 512 and 3.6 MB at 1024.
PAIR_BUDGET = 128
PAIR_CEILING = 512


def step(world: WorldState, rngs: list[RngStream],
         steps: int = 1) -> tuple[WorldState, StepEvents]:
    """Advance the world by one step or more, at most ``steps`` and
    ``MAX_STEPS``; returns the new world and the events of the steps taken,
    in step order.  The call ends at its first walk-flag change, after that
    many steps or, in a frozen world, at its first lucky step.

    ``dynamics.restart_coins`` draws the coins of the steps ahead and finds
    the first with a lucky agent, an observer there only.  If no flag changes
    there, a new ``restart_coins`` call goes on from the next step.  The
    snapshots are evaluated in chunks of at most ``MAX_SNAPSHOTS``, none past
    the lucky step: a chunk's positions come from one ``dynamics.track`` with
    the carried motion and its percepts from one
    ``perception.world_summaries`` call, and its snapshots after the first
    keep at most its budget of pairs together with the first's:
    ``PAIR_BUDGET`` for the first chunk, ``PAIR_CEILING`` for each later one.
    Every step before the first snapshot whose walk flags change is accepted,
    and that snapshot's step, or the last one's, is then taken as a single
    step is.  A world past step 0 with no walker is frozen: it keeps no pair,
    so its positions, pair displacements and range levels stand, and the call
    reads its first lucky step alone, on zero percepts, and ends there.  So
    ``steps=1`` is one step.
    """
    params = world.params
    t = world.time_step
    n = len(world.pos)
    until = t + min(steps, MAX_STEPS)
    moving, motion = world.moving, world.motion
    lucky_step, lucky, next_lucky = dynamics.restart_coins(
        t, until, moving, world.next_lucky, params, rngs)
    events = StepEvents([])
    levels, t_enter = world.levels, world.t_enter
    rows = []  # dist2 after each accepted step
    # u is the step of the last chunk's first snapshot, ``centre`` its pair
    # displacements; ``last`` indexes the chunk's last snapshot taken
    u, centre = t, world.centre
    if t and not np.count_nonzero(moving):
        # every reach2 is -1, so no pair is kept and the carried levels are
        # those of dist2; only a lucky step can change a flag, and the call
        # ends at the first
        zero = np.zeros(n)
        after = dynamics.control_step(moving, zero, zero, params, lucky)
        flipped = bool(np.count_nonzero(after))
        u, last, track = min(lucky_step, until - 1), 0, world.pos[None]
        events.positions += [world.pos] * (u - t)
    else:
        pos, dist2 = world.pos, world.dist2
        budget = PAIR_BUDGET
        while True:
            # an unlucky stopped agent stays stopped whatever it sees, and a rate
            # below both thresholds changes no decision, so neither is evaluated
            observers = moving | lucky if u == lucky_step else moving
            kept = (dist2 <= motion.reach2) & observers[:, None]
            first = np.count_nonzero(kept)
            # a chunk ends at the lucky step at the latest
            snaps = min(min(lucky_step + 1, until) - u, MAX_SNAPSHOTS,
                        max(1, budget // max(first, 1)))
            # each snapshot's lucky agents; only the lucky step's has any
            lucky_at = np.zeros((snaps, n), dtype=bool)
            if u + snaps - 1 == lucky_step:
                lucky_at[-1] = lucky
            track = dynamics.track(pos, motion.disp, snaps, params)
            centres = dist2s = None
            kept = kept[None]
            if snaps > 1:
                centres = pair_deltas(track[1:], params.arena)
                dist2s = centres[..., 0] ** 2 + centres[..., 1] ** 2
                ahead = (dist2s <= motion.reach2) & (moving | lucky_at[1:])[..., None]
                running = first + np.count_nonzero(ahead, axis=(1, 2)).cumsum()
                snaps = 1 + int(running.searchsorted(budget, side="right"))
                kept = np.concatenate((kept, ahead[:snaps - 1]))
            summary = perception.world_summaries(track[:snaps].swapaxes(0, 1), world.frames,
                                                 motion.rel_vel, params, kept)
            flags = dynamics.control_step(moving, summary.max_grm, summary.omega_loom,
                                          params, lucky_at[:snaps])
            changes = (flags != moving).ravel()
            first_change = int(changes.argmax())
            flipped = bool(changes[first_change])
            last = first_change // n if flipped else snaps - 1
            if flipped or u + last == until - 1:
                break
            # every snapshot is accepted, and the next chunk starts a step on
            if snaps < len(track):
                pos, centre, dist2 = track[snaps], centres[snaps - 1], dist2s[snaps - 1]
            else:
                pos = dynamics.advance(track[-1], motion.disp, params)
                centre = pair_deltas(pos, params.arena)
                dist2 = centre[..., 0] ** 2 + centre[..., 1] ** 2
            events.positions += [*track[1:snaps], pos]
            rows += [dist2s[:snaps - 1], dist2[None]] if snaps > 1 else [dist2[None]]
            if u + last == lucky_step:
                lucky_step, lucky, next_lucky = dynamics.restart_coins(
                    u + snaps, until, moving, next_lucky, params, rngs)
            u += snaps
            budget = PAIR_CEILING
        after = flags[last]

    # the last snapshot's step
    t_last = u + last
    stopping = moving & ~after
    heading, frames = world.heading, world.frames
    sigma = dynamics.sigma_after(world.sigma, t_last - t, params) if t_last > t else world.sigma
    # headings change only at stops, velocities at stops and restarts
    if flipped:
        if np.count_nonzero(stopping):
            heading = dynamics.reorient_on_stop(world.heading, sigma, stopping, rngs)
            heading.flags.writeable = False
            frames = perception.body_frames(heading, params)
            at_stop = centres[last - 1] if last else centre
            percepts = summary.snapshot(last)
            events.stops = [_stop_record(t_last, i, at_stop, world, percepts)
                            for i in np.flatnonzero(stopping).tolist()]
        motion = dynamics.motion(frames, world.speed, after, params)
    sigma = dynamics.decay_sigma(sigma, stopping, params)
    pos = dynamics.advance(track[last], motion.disp, params)
    events.positions += [*track[1:last + 1], pos]

    centre = pair_deltas(pos, params.arena)
    dist2 = centre[..., 0] ** 2 + centre[..., 1] ** 2
    # the range levels after each accepted step, the last after t_last
    rows += [dist2s[:last], dist2[None]] if last else [dist2[None]]
    rows = np.concatenate(rows) if len(rows) > 1 else rows[0]
    levels, t_enter = _level_events(t_last + 1 - len(rows), range_levels(rows, params),
                                    levels, t_enter, events)
    new_world = WorldState(t_last + 1, pos, heading, world.speed, after, sigma, params,
                           t_enter, motion, frames, centre, dist2, levels, next_lucky)
    return new_world, events


def _level_events(t: int, levels: np.ndarray, before: np.ndarray, t_enter: np.ndarray,
                  events: StepEvents) -> tuple[np.ndarray, np.ndarray]:
    """Record the contacts and encounters of the steps from t on, ``levels``
    (m, n, n) being the range levels after each and ``before`` those before
    step t; returns the last levels and the open encounters' steps to carry.

    Only where a level changes does a contact begin (it becomes 0), an
    encounter open (it leaves 2) or an encounter close (it returns to 2).
    """
    previous = np.concatenate((before[None], levels[:-1])) if len(levels) > 1 else before[None]
    changed = levels != previous
    if not np.count_nonzero(changed):
        return before, t_enter
    levels.flags.writeable = False
    changed &= _upper(levels.shape[-1])
    begun = changed & (levels == 0)
    if np.count_nonzero(begun):
        ks, ii, jj = (index.tolist() for index in np.nonzero(begun))
        events.collisions += [CollisionRecord(t + 1 + k, (i, j)) for k, i, j in zip(ks, ii, jj)]
    opened = changed & (previous == 2)
    closed = changed & (levels == 2)
    ends = opened | closed
    if np.count_nonzero(ends):
        # an encounter closing in the stretch may have opened in it
        for k in np.logical_or.reduce(ends, axis=(1, 2)).nonzero()[0].tolist():
            after = t + k + 1
            events.encounters += [EncounterRecord((i, j), int(t_enter[i, j]), after)
                                  for i, j in _pairs(closed[k])]
            t_enter = np.where(opened[k], after, np.where(closed[k], -1, t_enter))
        t_enter.flags.writeable = False
    return levels[-1], t_enter


def _stop_record(t: int, i: int, centre: np.ndarray, world: WorldState,
                 summary: perception.PerceptSummary) -> StopRecord:
    """Agent i's stop at step t, its causes' state read from the snapshot's
    ``centre`` and ``summary`` and from the motion record of ``world``."""
    params = world.params
    grm_hit = summary.max_grm[i] > params.t_grm
    loom_hit = summary.omega_loom[i] > params.t_loom
    channel = "both" if (grm_hit and loom_hit) else ("GRM" if grm_hit else "LOOM")
    by_grm, by_loom = summary.causes(i)
    causes = np.flatnonzero((grm_hit & by_grm) | (loom_hit & by_loom))
    return StopRecord(t=t, agent=i, cause_agents=frozenset(causes.tolist()), channel=channel,
                      rel_pos=centre[i, causes], rel_vel=world.motion.rel_vel[i, causes])


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
    while world.time_step < params.horizon_steps:
        before = world
        world, events = step(world, agent_rngs, params.horizon_steps - world.time_step)
        stops.extend(events.stops)
        collisions.extend(events.collisions)
        encounters.extend(events.encounters)
        if log_trajectories:
            # headings and walk flags change only at a call's last step
            quiet = len(events.positions) - 1
            pos_log.extend(events.positions)
            heading_log.extend([before.heading] * quiet + [world.heading])
            moving_log.extend([before.moving] * quiet + [world.moving])

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
