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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import TWO_PI, min_image_delta, wrap_torus

# numpy Generator backed by PCG64: identical seeds give identical draw
# sequences on every platform
RngStream = np.random.Generator


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.arena <= 0:
            raise ValueError("arena side must be positive")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if not 0 < self.v_min <= self.v_max:
            raise ValueError("need 0 < v_min <= v_max")
        if not 0.0 <= self.p_restart <= 1.0:
            raise ValueError("p_restart must be a probability")
        if not 0.0 <= self.sigma_decay <= 1.0:
            raise ValueError("sigma_decay must be in [0, 1]")
        if min(self.t_grm, self.t_loom, self.cva, self.sigma_jump,
               self.collision_distance, self.predict_horizon) < 0:
            raise ValueError("thresholds and distances must be non-negative")
        if not 0 < self.ipsi_field <= math.pi:
            raise ValueError("ipsilateral field must be in (0, pi]")
        if not 0 <= self.cva <= math.pi / 2:
            raise ValueError("cva must be in [0, pi/2]")
        if self.horizon_steps < 0:
            raise ValueError("horizon_steps must be non-negative")
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


def control_step(moving: np.ndarray, max_grm: np.ndarray, omega_loom: np.ndarray,
                 params: SimParams, rngs: list[RngStream]) -> np.ndarray:
    """Next walk flags given this step's percept signals.

    A walking agent stops iff its strongest GRM or its looming strength
    exceeds the threshold.  Every stopped agent flips a coin every step, in
    row order, and restarts only when the coin succeeds and both signals are
    strictly below threshold.
    """
    alarm = (max_grm > params.t_grm) | (omega_loom > params.t_loom)
    quiet = (max_grm < params.t_grm) & (omega_loom < params.t_loom)
    lucky = np.zeros_like(moving)
    for i in np.flatnonzero(~moving):
        lucky[i] = rngs[i].random() < params.p_restart
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


def velocity(heading: np.ndarray, speed: np.ndarray, moving: np.ndarray) -> np.ndarray:
    """World-frame velocities, (n, 2); exactly zero for stopped agents."""
    unit = np.stack((np.cos(heading), np.sin(heading)), axis=1)
    return np.where(moving[:, None], speed[:, None] * unit, 0.0)


def advance(pos: np.ndarray, heading: np.ndarray, speed: np.ndarray,
            moving: np.ndarray, params: SimParams) -> np.ndarray:
    """New wrapped positions after one time step at the current walk flags."""
    step = moving * speed * params.dt
    unit = np.stack((np.cos(heading), np.sin(heading)), axis=1)
    return wrap_torus(pos + step[:, None] * unit, params.arena)
