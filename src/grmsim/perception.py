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

Both signals come with the set of agents that caused them.  The whole world
is processed at once as arrays indexed by agent row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SimParams
from .geometry import min_image_delta

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

    ``grm_causes[i, j]`` is true when source j produced observer i's
    strongest GRM, ``loom_causes[i, j]`` when it produced either side's
    strongest outward motion.  A zero signal has no causes.
    """

    max_grm: np.ndarray      # (n,)
    grm_causes: np.ndarray   # (n, n) bool
    omega_loom: np.ndarray   # (n,)
    loom_causes: np.ndarray  # (n, n) bool


def eye_offsets(d_eye: float) -> np.ndarray:
    """Body-frame eye positions, rows (left, right)."""
    return np.array([(-d_eye / 2.0, EYE_FORWARD), (d_eye / 2.0, EYE_FORWARD)])


def _causes(by_source: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Sources within the relative tolerance of each row's positive maximum."""
    return (by_source >= (best * (1.0 - CAUSE_REL_TOL))[:, None]) & (best > 0.0)[:, None]


def world_summaries(pos: np.ndarray, heading: np.ndarray, vel: np.ndarray,
                    params: SimParams) -> PerceptSummary:
    """Percept summary for every agent against one frozen snapshot.

    ``pos`` and ``vel`` are (n, 2), ``heading`` is (n,); row i is agent i.
    An observer sees neither its own body nor a point on an eye center.
    """
    n = len(pos)
    ca = np.cos(heading - math.pi / 2.0)
    sa = np.sin(heading - math.pi / 2.0)

    bx, by = BODY_OUTLINE[:, 0], BODY_OUTLINE[:, 1]
    px = pos[:, 0, None] + ca[:, None] * bx - sa[:, None] * by      # (n, 14)
    py = pos[:, 1, None] + sa[:, None] * bx + ca[:, None] * by

    offs = eye_offsets(params.d_eye)
    # eye offsets rotated into the world frame, (n, 2 eyes)
    ex = pos[:, 0, None] + ca[:, None] * offs[:, 0] - sa[:, None] * offs[:, 1]
    ey = pos[:, 1, None] + sa[:, None] * offs[:, 0] + ca[:, None] * offs[:, 1]

    # (observer, eye, source, point) displacements from each eye
    dx = min_image_delta(ex[:, :, None, None], px[None, None, :, :], params.arena)
    dy = min_image_delta(ey[:, :, None, None], py[None, None, :, :], params.arena)
    d2 = dx * dx + dy * dy

    # observer frame: forward is the heading (-sa, ca), left its CCW normal
    hx, hy = -sa[:, None, None, None], ca[:, None, None, None]
    phi = np.arctan2(hx * dy - hy * dx, hx * dx + hy * dy)
    lo = np.array([-params.cva, -params.ipsi_field])[:, None, None]  # left, right
    hi = np.array([params.ipsi_field, params.cva])[:, None, None]
    seen = (phi >= lo) & (phi <= hi) & (d2 > 0.0) & ~np.eye(n, dtype=bool)[:, None, :, None]

    rvx = vel[None, :, 0] - vel[:, None, 0]                          # (n, n)
    rvy = vel[None, :, 1] - vel[:, None, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = (rvy[:, None, :, None] * dx - rvx[:, None, :, None] * dy) / d2
    rate = np.where(seen, rate, 0.0)

    # left eye (index 0) reads clockwise, right eye (index 1) counter-clockwise
    grm_by_source = np.maximum(np.maximum(-rate[:, 0], rate[:, 1]).max(axis=2), 0.0)

    # hemifield: side of the observer's spine, by the lateral body-frame
    # coordinate of the point about the body center; 0 is neither side
    bdx = min_image_delta(pos[:, 0, None, None], px[None, :, :], params.arena)
    bdy = min_image_delta(pos[:, 1, None, None], py[None, :, :], params.arena)
    lateral = (ca[:, None, None] * bdx + sa[:, None, None] * bdy)[:, None]  # right > 0
    ccw_by_source = np.maximum(np.where(lateral < 0.0, rate, 0.0).max(axis=(1, 3)), 0.0)
    cw_by_source = np.maximum(np.where(lateral > 0.0, -rate, 0.0).max(axis=(1, 3)), 0.0)

    best_grm = grm_by_source.max(axis=1)
    best_ccw = ccw_by_source.max(axis=1)
    best_cw = cw_by_source.max(axis=1)
    bilateral = (best_ccw > 0.0) & (best_cw > 0.0)
    omega = np.where(bilateral, np.minimum(best_ccw, best_cw), 0.0)
    loom_causes = (_causes(ccw_by_source, best_ccw) | _causes(cw_by_source, best_cw)) \
        & bilateral[:, None]
    return PerceptSummary(best_grm, _causes(grm_by_source, best_grm), omega, loom_causes)
