"""Agent state machine over whole-world arrays: constant-speed walking,
threshold stops, coin-flip restarts, and Gaussian reorientation with a
sensitizing spread.

State is held as arrays with one row per agent (``pos`` (n, 2), ``heading``,
``speed``, ``moving``, ``sigma``); the row index is the agent id.  Every
function returns new arrays and leaves its inputs untouched.

Every random draw comes from an explicitly passed ``numpy.random.Generator``.
A trial owns one seed; ``trial_streams`` splits it into one independent
stream for initialization plus one per agent, so each agent's behavior is
invariant to the order agents are processed in.

A stopped agent flips one restart coin per step, drawn ahead, and
``restart_coins`` alone decides when: at step t a stopped agent whose carried
``next_lucky`` entry does not reach t draws a block of its coins from step t on
in one call, rewinds its stream to just after the first lucky one and carries
that coin's step.  Each stream is where one coin per stopped step would leave
it at the agent's next reorientation, so trials are unchanged.  It also
returns the first step at which any stopped agent has a lucky coin or a
block due; until then, while the walk flags hold, a step's coins cost one
comparison.

``motion`` builds the arrays that change only when a walk flag does, among
them each pair's squared cull radius (``cull_reach2``), the one rule for
which pairs the perception kernel evaluates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import perception
from .geometry import TWO_PI, min_image_delta, wrap_torus

# numpy Generator backed by PCG64: identical seeds give identical draw
# sequences on every platform
RngStream = np.random.Generator


def _require_integers(obj, *names: str) -> None:
    """Reject each named field that is a bool or not a Python or numpy integer."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer")


@dataclass(frozen=True)
class SimParams:
    """Simulation constants.

    Angles are radians, lengths mm, speeds mm/s, times s.  ``t_grm`` and
    ``t_loom`` are the stop thresholds (rad/s) on the two visual channels;
    32 rad/s acts as an "effectively disabled" sentinel but is treated as an
    ordinary value.
    """

    dt: float = 0.005
    arena: float = 50.0
    n_agents: int = 10
    d_eye: float = 0.55
    v_min: float = 10.0
    v_max: float = 30.0
    p_restart: float = 0.008
    t_loom: float = 32.0
    t_grm: float = 6.0
    cva: float = math.radians(30.0)
    ipsi_field: float = math.radians(120.0)
    sigma_jump: float = math.radians(30.0)
    sigma_decay: float = 0.992
    horizon_steps: int = 10000
    collision_distance: float = 1.2
    predict_horizon: float = 2.0

    def validate(self) -> "SimParams":
        _require_integers(self, "n_agents", "horizon_steps")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if not 0 < self.v_min <= self.v_max:
            raise ValueError("need 0 < v_min <= v_max")
        if not 0.0 <= self.p_restart <= 1.0:
            raise ValueError("p_restart must be a probability")
        if not 0.0 <= self.sigma_decay <= 1.0:
            raise ValueError("sigma_decay must be in [0, 1]")
        if min(self.t_grm, self.t_loom, self.cva, self.sigma_jump, self.d_eye,
               self.collision_distance, self.predict_horizon) < 0:
            raise ValueError("thresholds and distances must be non-negative")
        if not 0 < self.ipsi_field <= math.pi:
            raise ValueError("ipsilateral field must be in (0, pi]")
        if not 0 <= self.cva <= math.pi / 2:
            raise ValueError("cva must be in [0, pi/2]")
        if self.horizon_steps < 0:
            raise ValueError("horizon_steps must be non-negative")
        # body points of wrapped positions then differ by less than 1.5 arenas,
        # the range in which geometry._min_image is exact
        limit = 4.0 * perception.frame_radius(self.d_eye)
        if not self.arena > limit:
            raise ValueError(f"arena side must exceed four body-frame radii ({limit:g} mm)")
        return self


def trial_streams(seed, n_agents: int) -> tuple[RngStream, list[RngStream]]:
    """Split a trial seed into an init stream plus one stream per agent."""
    children = np.random.SeedSequence(seed).spawn(n_agents + 1)
    init = np.random.Generator(np.random.PCG64(children[0]))
    agents = [np.random.Generator(np.random.PCG64(c)) for c in children[1:]]
    return init, agents


def init_agents(params: SimParams, rng: RngStream
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniformly random ``(pos, heading, speed)`` without initial overlap.

    Candidate positions are redrawn until every pairwise minimum-image
    center distance exceeds the collision distance; gives up after 10^4
    candidate draws (arena too crowded).  Positions are drawn first, then
    all speeds, then all headings.
    """
    params.validate()
    pos = np.empty((params.n_agents, 2))
    placed = 0
    attempts = 0
    while placed < params.n_agents:
        attempts += 1
        if attempts > 10_000:
            raise RuntimeError(
                f"could not place {params.n_agents} agents without overlap "
                f"in a {params.arena}mm arena after 10^4 draws")
        candidate = rng.uniform(0.0, params.arena, size=2)
        delta = min_image_delta(candidate, pos[:placed], params.arena)
        if np.all((delta * delta).sum(axis=1) > params.collision_distance ** 2):
            pos[placed] = candidate
            placed += 1
    speed = rng.uniform(params.v_min, params.v_max, size=params.n_agents)
    heading = rng.uniform(0.0, TWO_PI, size=params.n_agents)
    return pos, heading, speed


# ``restart_coins``' next coin step when no agent is stopped
NEVER = np.iinfo(np.int64).max


@functools.lru_cache(maxsize=None)
def _no_agents(n: int) -> np.ndarray:
    """Read-only (n,) all-False mask (``broadcast_to`` views are read-only)."""
    return np.broadcast_to(False, n)


def _coin_block(p: float) -> int:
    """Coins drawn at once: one at p = 1, else enough that a block holds no lucky
    coin at most one time in 64, capped at 4096 (for p = 0 and tiny p)."""
    if p >= 1.0:
        return 1
    return 4096 if p <= 0.0 else math.ceil(min(4096.0, math.log(64.0) / -math.log1p(-p)))


def restart_coins(t: int, moving: np.ndarray, next_lucky: np.ndarray, next_coin: int,
                  params: SimParams, rngs: list[RngStream]
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """Step t's lucky stopped agents, and the read-only ``next_lucky`` and the
    ``next_coin`` to carry.

    An entry is the step of the agent's next lucky coin (below ``p_restart``),
    its stream rewound to just after it, or ``~s`` when its block held none, s
    being the first step whose coin is not drawn yet.  A stopped agent whose
    entry does not reach t (a spent lucky step, a spent block ``~t`` or a new
    world's ``~0``) first draws a block of coins from step t on; a block of k
    coins is one ``Generator.random(k)``, which equals k single draws.

    ``next_coin`` is the carried step before which no stopped agent has a
    lucky coin or a block due: at a t before it the call returns at once,
    with no agent lucky and nothing drawn.  It holds only while the walk
    flags stay as they were, so a caller whose flags changed at step t - 1
    passes t.  The returned one is the first step after t with coin work,
    or ``NEVER`` when no agent is stopped.
    """
    if t < next_coin:
        return _no_agents(len(moving)), next_lucky, next_coin
    stopped = ~moving
    due = stopped & (next_lucky < t) & (~next_lucky <= t)
    if np.count_nonzero(due):
        next_lucky = next_lucky.copy()
        k = _coin_block(params.p_restart)
        for i in np.flatnonzero(due).tolist():
            hit = rngs[i].random(k) < params.p_restart
            first = int(hit.argmax())
            if hit[first]:
                if first + 1 < k:
                    rngs[i].bit_generator.advance(first + 1 - k)
                next_lucky[i] = t + first
            else:
                next_lucky[i] = ~(t + k)
        next_lucky.flags.writeable = False
    # every stopped entry now reaches t: a lucky step, or ~s with s > t
    due_at = np.where(stopped, np.maximum(next_lucky, ~next_lucky), NEVER)
    return stopped & (next_lucky == t), next_lucky, max(int(due_at.min()), t + 1)


def control_step(moving: np.ndarray, max_grm: np.ndarray, omega_loom: np.ndarray,
                 params: SimParams, lucky: np.ndarray) -> np.ndarray:
    """Next walk flags given this step's percept signals and restart coins.

    A walking agent stops iff its strongest GRM or its looming strength
    exceeds the threshold.  A stopped agent restarts only when it is
    ``lucky`` (``restart_coins``) and both signals are strictly below threshold.
    """
    alarm = (max_grm > params.t_grm) | (omega_loom > params.t_loom)
    quiet = (max_grm < params.t_grm) & (omega_loom < params.t_loom)
    return np.where(moving, ~alarm, quiet & lucky)


def reorient_on_stop(heading: np.ndarray, sigma: np.ndarray, stopping: np.ndarray,
                     rngs: list[RngStream]) -> np.ndarray:
    """Headings after this step's stops.

    Each stopping agent, in row order, draws its new heading from a Gaussian
    centered on its current heading with its *pre-update* sigma; every other
    agent keeps its heading.
    """
    new_heading = heading.copy()
    for i in np.flatnonzero(stopping):
        new_heading[i] = float(rngs[i].normal(heading[i], sigma[i])) % TWO_PI
    return new_heading


def decay_sigma(sigma: np.ndarray, stopping: np.ndarray,
                params: SimParams) -> np.ndarray:
    """Per-step spread recurrence: ``sigma' = decay * sigma``, plus the jump
    for agents stopping this step."""
    decayed = params.sigma_decay * sigma
    return np.where(stopping, decayed + params.sigma_jump, decayed)


class Motion(NamedTuple):
    """Read-only step arrays implied by (heading, speed, moving); worlds share them."""

    vel: np.ndarray      # (n, 2), exactly zero for stopped agents
    disp: np.ndarray     # (n, 2), one step's displacement
    rel_vel: np.ndarray  # (n, n, 2), vel[j] - vel[i] at row i, column j
    reach2: np.ndarray   # (n, n), cull_reach2 of the length of rel_vel


def motion(heading: np.ndarray, speed: np.ndarray, moving: np.ndarray,
           params: SimParams) -> Motion:
    """World-frame velocities, step displacements, pair relative velocities and
    squared cull radii, all from one heading unit vector."""
    unit = np.array((np.cos(heading), np.sin(heading))).T
    vel = np.where(moving[:, None], speed[:, None] * unit, 0.0)
    rel_vel = vel[None, :, :] - vel[:, None, :]
    record = Motion(vel, vel * params.dt, rel_vel,
                    cull_reach2(np.hypot(rel_vel[..., 0], rel_vel[..., 1]), params))
    for array in record:
        array.flags.writeable = False
    return record


def cull_reach2(rel_speed: np.ndarray, params: SimParams) -> np.ndarray:
    """(n, n) squared centre distance within which a pair's rates may reach the floor.

    The floor is min(T_grm, T_loom).  A source moves rigidly at relative speed
    v, so every point of it, seen from either eye of an observer whose centre
    is c away, has |phi_dot| <= v / (c - r), r being the largest body-point
    radius plus the largest eye radius (``perception``).  The pair is kept
    while v >= floor * (c - r), that is while its squared centre distance
    ``dist2 <= (v / floor + r) ** 2``; the entry is -1, never kept, when v is
    0 and the rates are exactly 0 (self pairs among them), and +inf at a
    floor of 0.

    The margins make a dropped pair's rates provably smaller than the floor.
    The absolute one on r, far above the ~1e-14 mm rounding of point
    positions and of dist2, keeps the gap below every eye-to-point distance;
    the relative one on the floor covers the few-ulp rounding of the rate and
    of the bound, and also ``perception.CAUSE_REL_TOL``, so a dropped source
    can neither carry a signal >= floor nor tie with one as a cause.  The
    last factor covers the rounding of the division and the square.
    """
    floor = min(params.t_grm, params.t_loom) * (1.0 - 1e-9)
    reach = perception._body(params.d_eye, params.cva, params.ipsi_field)[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        radius = (rel_speed / floor + (reach + 1e-9 * params.arena)) * (1.0 + 1e-9)
        return np.where(rel_speed > 0.0, radius * radius, -1.0)


def advance(pos: np.ndarray, disp: np.ndarray, params: SimParams) -> np.ndarray:
    """New wrapped positions after one step's displacement ``Motion.disp``."""
    return wrap_torus(pos + disp, params.arena)
