"""Two-eyed retinal model.

Each agent body is a fixed 14-point outline.  An observer sees every point
of every other agent from each of its two eyes, at an azimuth measured in
the observer's own frame (0 along the heading, positive to the left), keeps
the points inside that eye's visual field, and reads two signals off them:

* GRM: the largest magnitude of contralateral motion (counter-clockwise on
  the right eye, clockwise on the left eye);
* looming: the smaller of the strongest outward motions in the two body
  hemifields, a point's hemifield being the side of the observer's spine
  it lies on, so only bilaterally expanding stimuli register.

The whole world is processed at once as arrays indexed by agent row, with
(x, y) stacked on the last axis.  The rotated body points and observer axes
depend on headings alone: ``body_frames`` builds them, and the engine reruns
it only when an agent stops.  Each observer's strongest rate from each source
is kept, so the agents that caused a signal can be read off for those that stop.

Only the (observer, source) pairs that can matter are evaluated.  A body
moves rigidly, so every point of a source, seen from either eye, has
|phi_dot| <= v / (c - r): v is the relative speed, c the distance of the two
centers and r the largest body-point radius plus the largest eye radius.
``dynamics.cull_reach2`` turns that bound into a squared cull radius per
pair, carried in ``Motion.reach2``: a pair is kept when its squared centre
distance is within it, and never at zero relative velocity.  Every signal at
or above the floor min(T_grm, T_loom) is then exact, with its causes, and
every signal below it stays below it, so no stop or restart decision changes.
``world_summaries`` evaluates exactly the pairs it is handed, and when there
are none it returns one shared, read-only zero summary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .geometry import _min_image

if TYPE_CHECKING:  # dynamics imports this module
    from .dynamics import SimParams

# Body outline in the body frame (+y is the heading), mm.  Length 2, max
# width 0.9, left/right symmetric, with two midline points on the spine.
BODY_OUTLINE = np.array([
    (0.00, 1.00),
    (0.25, 0.85), (-0.25, 0.85),
    (0.40, 0.50), (-0.40, 0.50),
    (0.45, 0.00), (-0.45, 0.00),
    (0.40, -0.50), (-0.40, -0.50),
    (0.25, -0.85), (-0.25, -0.85),
    (0.00, -1.00),
    (0.00, 0.60), (0.00, -0.60),
])

# Eyes sit at the head end of the 2mm body, half the inter-eye distance to
# each side of the midline.
EYE_FORWARD = 0.7

# Relative tolerance for attributing a percept maximum to several agents.
CAUSE_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PerceptSummary:
    """Per-step reduction of all percepts; row i belongs to observer i.

    ``by_source[c, i, j]`` is the strongest rate of source j seen by
    observer i on channel c: GRM, outward motion in the left body hemifield
    (counter-clockwise) and outward motion in the right one (clockwise).
    """

    max_grm: np.ndarray     # (n,)
    omega_loom: np.ndarray  # (n,)
    by_source: np.ndarray   # (3, n, n)

    def causes(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Observer i's (GRM, looming) cause masks over the sources.

        A source causes a channel's positive maximum when its rate is within
        the relative tolerance of it; looming causes are those of either
        side's strongest outward motion.  A zero signal has no causes.
        """
        rates = self.by_source[:, i]
        best = rates.max(axis=1)[:, None]
        hit = (rates >= best * (1.0 - CAUSE_REL_TOL)) & (best > 0.0)
        return hit[0], (hit[1] | hit[2]) & (self.omega_loom[i] > 0.0)


def eye_offsets(d_eye: float) -> np.ndarray:
    """Body-frame eye positions, rows (left, right)."""
    return np.array([(-d_eye / 2.0, EYE_FORWARD), (d_eye / 2.0, EYE_FORWARD)])


def frame_radius(d_eye: float) -> float:
    """Largest distance of a body-frame point (outline point or eye) from the body centre, mm."""
    frame = np.concatenate((BODY_OUTLINE, eye_offsets(d_eye)))
    return float(np.hypot(frame[:, 0], frame[:, 1]).max())


@functools.lru_cache(maxsize=None)
def _body(d_eye: float, cva: float, ipsi_field: float):
    """Read-only: (17, 2) body-frame points (outline, eyes, body centre), r (largest body-point
    plus largest eye radius, mm), and the eyes' lower and upper field bounds."""
    frame = np.concatenate((BODY_OUTLINE, eye_offsets(d_eye), [(0.0, 0.0)]))
    radius = np.hypot(frame[:, 0], frame[:, 1])
    bounds = np.array([[[-cva], [-ipsi_field]], [[ipsi_field], [cva]]])
    frame.flags.writeable = bounds.flags.writeable = False
    return frame, float(radius[:-3].max() + radius[-3:-1].max()), bounds[0], bounds[1]


class Frames(NamedTuple):
    """Shared, read-only: agent k's frame point p sits at pos[k] + offsets[k, p]."""

    axes: np.ndarray     # (2, n), each observer's forward unit vector (cos h, sin h)
    offsets: np.ndarray  # (n, 17, 2), the body-frame points rotated to the heading


def body_frames(heading: np.ndarray, params: SimParams) -> Frames:
    """Frames from the heading's unit vector (cos h, sin h), which the body's +y
    axis maps to; its +x axis maps to the clockwise normal (sin h, -cos h)."""
    cos, sin = np.cos(heading), np.sin(heading)
    frame = _body(params.d_eye, params.cva, params.ipsi_field)[0]
    axes = np.array((cos, sin))
    right = np.array((sin, -cos))
    frames = Frames(axes, frame[:, :1] * right.T[:, None, :] + frame[:, 1:] * axes.T[:, None, :])
    for array in frames:
        array.flags.writeable = False
    return frames


@functools.lru_cache(maxsize=None)
def _no_percepts(n: int) -> PerceptSummary:
    """Shared, read-only summary of n observers that see nothing."""
    zeros = np.zeros((3, n, n))
    zeros.flags.writeable = False
    return PerceptSummary(zeros[0, 0], zeros[0, 0], zeros)


def world_summaries(pos: np.ndarray, frames: Frames, rel_vel: np.ndarray,
                    params: SimParams, pairs: np.ndarray) -> PerceptSummary:
    """Percept summary for every agent against one frozen snapshot.

    ``pos`` is (n, 2), row i being agent i; ``frames`` is
    ``body_frames(heading, params)`` and ``rel_vel`` is ``Motion.rel_vel``.
    Only the (observer, source) pairs in the (n, n) bool mask ``pairs`` are
    evaluated; every other entry is 0.  An observer sees neither its own body
    nor a point on an eye center, and a source at zero relative velocity has
    rates of exactly 0, so ``np.ones((n, n), bool)`` gives every signal exact.

    The eyes and the body centre are the three viewpoints of one pass.  The
    centre is ``pos`` exactly (zero offsets), so its left coordinate is the
    side of the observer's spine a point lies on.
    """
    n = len(pos)
    ii, jj = np.nonzero(pairs)
    if not len(ii):
        return _no_percepts(n)
    lo, hi = _body(params.d_eye, params.cva, params.ipsi_field)[2:]
    world = pos[:, None, :] + frames.offsets  # (n, 17, 2)

    # (pair, viewpoint, point, axis): observer left eye, right eye, centre to source
    d = _min_image(world[jj, None, :-3] - world[ii, -3:, None], params.arena)
    dx, dy = d[..., 0], d[..., 1]
    # observer frame: forward is the heading, left its CCW normal
    hx, hy = frames.axes[:, ii, None, None]
    left = hx * dy - hy * dx
    ex, ey = dx[:, :2], dy[:, :2]
    d2 = ex * ex + ey * ey
    phi = np.arctan2(left[:, :2], hx * ex + hy * ey)
    seen = (phi >= lo) & (phi <= hi) & (d2 > 0.0)

    rv = rel_vel[ii, jj][:, None, None]
    rate = np.divide(rv[..., 1] * ex - rv[..., 0] * ey, d2,
                     out=np.zeros_like(d2), where=seen)

    # left eye (index 0) reads clockwise, right eye (index 1) counter-clockwise
    grm = np.maximum(-rate[:, 0], rate[:, 1]).max(axis=1)

    # hemifield: side of the observer's spine, left > 0; 0 is neither side
    side = left[:, 2:]
    ccw = np.where(side > 0.0, rate, 0.0).max(axis=(1, 2))
    cw = np.where(side < 0.0, -rate, 0.0).max(axis=(1, 2))
    by_source = np.zeros((3, n, n))
    by_source[:, ii, jj] = np.maximum((grm, ccw, cw), 0.0)

    best = by_source.max(axis=2)
    # looming is 0 unless both sides see outward motion
    return PerceptSummary(best[0], np.minimum(best[1], best[2]), by_source)
