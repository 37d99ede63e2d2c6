"""Planar geometry kernel for visual collision cues.

Conventions used throughout the package:

* Azimuths are in radians, in ``[-pi, pi)``.  0 points along the observer's
  heading, positive azimuths are on the observer's left.
* Angular velocities are in rad/s, positive counter-clockwise.
* The arena is a square torus of side ``R``; displacements between wrapped
  positions use the minimum-image convention with components in
  ``[-R/2, R/2)`` (ties resolve to ``-R/2``).  ``_min_image`` is exact for
  raw displacements in ``[-1.5 R, 1.5 R)`` only, and its callers stay well
  inside: ``min_image_delta`` wraps its inputs,
  ``engine.make_world``, ``dynamics.advance`` and ``dynamics.track`` keep
  positions wrapped, and
  ``SimParams.validate`` requires an arena larger than four body-frame radii,
  so differences of body points (wrapped positions plus or minus that
  radius) stay in range.
* ``perp(u, v) = (v, -u)`` (clockwise quarter turn), fixed so that the
  angular velocity of a point at relative position ``x`` moving with
  relative velocity ``v`` is ``<perp(v), x> / |x|^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle):
    """Wrap an angle, or an array of angles, to [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def wrap_torus(p, side: float) -> np.ndarray:
    """Map a point (or array of points) into the fundamental square [0, side)^2."""
    if side <= 0:
        raise ValueError("arena side must be positive")
    return np.mod(np.asarray(p, dtype=float), side)


def min_image_delta(a, b, side: float) -> np.ndarray:
    """Shortest displacement b - a on the torus, componentwise in [-side/2, side/2).

    A tie at exactly side/2 resolves to -side/2 so the map stays single-valued.
    """
    return _min_image(wrap_torus(b, side) - wrap_torus(a, side), side)


def _min_image(delta: np.ndarray, side: float) -> np.ndarray:
    """Minimum image of float displacements in [-1.5 side, 1.5 side), unchecked.

    ``delta`` itself on [-side/2, side/2), else ``delta - side`` or
    ``delta + side``, which are exact there (Sterbenz's lemma).
    """
    return delta - side * np.subtract(delta >= 0.5 * side, delta < -0.5 * side, dtype=float)


def pair_deltas(pos: np.ndarray, side: float) -> np.ndarray:
    """(..., n, n, 2) minimum-image displacements pos[..., j] - pos[..., i] at
    row i, column j, for (..., n, 2) positions: one snapshot or a stack of them."""
    return _min_image(pos[..., None, :, :] - pos[..., :, None, :], side)


def azimuth(rel_pos, heading: float) -> float:
    """Azimuth of a point at ``rel_pos`` for an observer facing ``heading``.

    ``heading`` is the world-frame angle of the observer's facing direction
    (0 along +x, counter-clockwise positive).  Result is 0 straight ahead,
    positive to the observer's left, in [-pi, pi).
    """
    x, y = float(rel_pos[0]), float(rel_pos[1])
    if x == 0.0 and y == 0.0:
        raise ValueError("azimuth undefined for a point at the projection center")
    return wrap_angle(math.atan2(y, x) - heading)


def angular_velocity(rel_pos, rel_vel) -> float:
    """Angular velocity (rad/s, CCW positive) of a point about the origin.

    For relative position ``x`` and relative velocity ``v`` this is
    ``<perp(v), x> / |x|^2`` which scales as one over distance squared.
    """
    x, y = float(rel_pos[0]), float(rel_pos[1])
    u, v = float(rel_vel[0]), float(rel_vel[1])
    d2 = x * x + y * y
    if d2 == 0.0:
        raise ValueError("angular velocity undefined at the projection center")
    return (v * x - u * y) / d2


@dataclass(frozen=True)
class CrossingScenario:
    """Two agents on straight, non-parallel trajectories meeting at the origin.

    The observer moves along +y at ``speed_obs``; the other agent moves with
    direction ``(-sin(approach_angle), cos(approach_angle))`` at
    ``speed_other``.  ``arrival_gap`` is the observer's (signed) y-coordinate
    at the instant the other agent reaches the origin; negative means the
    observer gets there second.  ``progress`` parametrizes time: the observer
    sits at ``(0, arrival_gap + progress)``.
    """

    speed_obs: float
    speed_other: float
    approach_angle: float
    arrival_gap: float
    progress: float = 0.0

    def __post_init__(self):
        if not (self.speed_obs > 0 and self.speed_other > 0):
            raise ValueError("speeds must be positive")
        if math.sin(self.approach_angle) == 0.0:
            raise ValueError("trajectories must not be parallel")


def crossing_relative_state(s: CrossingScenario) -> tuple[np.ndarray, np.ndarray]:
    """Relative position and velocity of the other agent in the observer frame."""
    ratio = s.progress * s.speed_other / s.speed_obs
    sin_a = math.sin(s.approach_angle)
    cos_a = math.cos(s.approach_angle)
    rel_pos = np.array([
        -ratio * sin_a,
        ratio * cos_a - (s.arrival_gap + s.progress),
    ])
    rel_vel = np.array([
        -s.speed_other * sin_a,
        s.speed_other * cos_a - s.speed_obs,
    ])
    return rel_pos, rel_vel


def crossing_azimuth(s: CrossingScenario) -> float:
    """Closed-form azimuth of the other agent on the observer's eye.

    Equals ``azimuth`` of the explicitly constructed relative position (the
    observer faces +y).  Raises if the two agents coincide.
    """
    rel_pos, _ = crossing_relative_state(s)
    if rel_pos[0] == 0.0 and rel_pos[1] == 0.0:
        raise ValueError("degenerate crossing: agents coincide")
    return azimuth(rel_pos, math.pi / 2.0)


def crossing_angular_velocity(s: CrossingScenario) -> float:
    """Closed-form angular velocity of the other agent on the observer's eye.

    -gap * speed_other * sin(approach_angle) / D^2, with D the current
    distance between the agents.
    """
    ratio = s.speed_other / s.speed_obs
    eps = s.progress
    ahead = s.arrival_gap + eps
    d2 = (ratio * eps) ** 2 + ahead ** 2 \
        - 2.0 * eps * ratio * ahead * math.cos(s.approach_angle)
    if d2 == 0.0:
        raise ValueError("degenerate crossing: agents coincide")
    return -s.arrival_gap * s.speed_other * math.sin(s.approach_angle) / d2


@dataclass(frozen=True)
class WallScenario:
    """An agent at the origin walking into a flat wall.

    The agent's velocity is ``speed * (sin(approach_angle), cos(approach_angle))``
    with ``approach_angle`` strictly inside (0, pi/2); ``point`` is a wall
    point in the same frame.
    """

    approach_angle: float
    speed: float
    point: tuple[float, float]

    def __post_init__(self):
        if not 0.0 < self.approach_angle < math.pi / 2.0:
            raise ValueError("approach angle must be strictly inside (0, pi/2)")
        if self.speed <= 0:
            raise ValueError("speed must be positive")


def wall_angular_velocity(s: WallScenario) -> float:
    """Angular velocity a fixed wall point projects on the moving agent's eye.

    -v (x cos(alpha) - y sin(alpha)) / (x^2 + y^2); agrees with
    ``angular_velocity(point, -velocity)``.
    """
    x, y = float(s.point[0]), float(s.point[1])
    d2 = x * x + y * y
    if d2 == 0.0:
        raise ValueError("wall point coincides with the agent")
    return -s.speed * (x * math.cos(s.approach_angle) - y * math.sin(s.approach_angle)) / d2


def is_regressive(phi: float, phi_dot: float) -> bool:
    """Front-to-back retinal motion: phi_dot * phi <= 0 (boundary counts)."""
    return phi_dot * phi <= 0.0


def is_grm(phi: float, phi_dot: float, cva: float) -> bool:
    """Generalized regressive motion for a single projection center.

    True iff the image moves toward a nasal boundary extended past the
    midline by ``cva``: counter-clockwise motion with phi in [-pi, cva],
    or clockwise motion with phi in [-cva, pi].  Intervals are closed.
    """
    if phi_dot > 0.0:
        return -math.pi <= phi <= cva
    if phi_dot < 0.0:
        return -cva <= phi <= math.pi
    return False
