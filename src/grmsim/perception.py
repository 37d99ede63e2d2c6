"""Two-eyed retinal model.

Each agent body is a fixed 14-point outline.  An observer projects every
point of every other agent onto each of its two eyes, keeps the points
inside that eye's visual field, and reads two scalar signals off the
resulting percepts:

* GRM: the largest magnitude of contralateral motion (counter-clockwise on
  the right eye, clockwise on the left eye);
* looming: the smaller of the strongest outward motions in the two body
  hemifields, so only bilaterally expanding stimuli register.

Both signals come with the set of agents that caused them.  The whole world
is processed at once as arrays indexed by agent row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SimParams
from .geometry import min_image_delta, wrap_angle

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


def _percept_fields(pos, heading, vel, params: SimParams):
    """All pairwise retinal quantities for one frozen world snapshot.

    Returns arrays indexed (observer, eye, source, point) plus the
    body-centered azimuth indexed (observer, source, point).  Points that
    coincide with an eye center, and an observer's own body, are not valid.
    """
    n = pos.shape[0]
    ca = np.cos(heading - math.pi / 2.0)
    sa = np.sin(heading - math.pi / 2.0)

    bx, by = BODY_OUTLINE[:, 0], BODY_OUTLINE[:, 1]
    px = pos[:, 0, None] + ca[:, None] * bx - sa[:, None] * by      # (n, 14)
    py = pos[:, 1, None] + sa[:, None] * bx + ca[:, None] * by

    offs = eye_offsets(params.d_eye)
    # eye offsets rotated into the world frame, (n, 2 eyes)
    ex = pos[:, 0, None] + ca[:, None] * offs[:, 0] - sa[:, None] * offs[:, 1]
    ey = pos[:, 1, None] + sa[:, None] * offs[:, 0] + ca[:, None] * offs[:, 1]

    dx = min_image_delta(ex[:, :, None, None], px[None, None, :, :], params.arena)
    dy = min_image_delta(ey[:, :, None, None], py[None, None, :, :], params.arena)
    d2 = dx * dx + dy * dy

    phi = wrap_angle(np.arctan2(dy, dx) - heading[:, None, None, None])

    rvx = vel[None, :, 0] - vel[:, None, 0]                          # (n, n)
    rvy = vel[None, :, 1] - vel[:, None, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        phi_dot = np.where(
            d2 > 0.0,
            (rvy[:, None, :, None] * dx - rvx[:, None, :, None] * dy) / np.where(d2 > 0, d2, 1.0),
            0.0)

    bdx = min_image_delta(pos[:, 0, None, None], px[None, :, :], params.arena)
    bdy = min_image_delta(pos[:, 1, None, None], py[None, :, :], params.arena)
    phi_body = wrap_angle(np.arctan2(bdy, bdx) - heading[:, None, None])  # (n, n, 14)

    lo = np.array([-params.cva, -params.ipsi_field])                 # left, right
    hi = np.array([params.ipsi_field, params.cva])
    in_field = (phi >= lo[None, :, None, None]) & (phi <= hi[None, :, None, None])

    not_self = ~np.eye(n, dtype=bool)
    valid = in_field & (d2 > 0.0) & not_self[:, None, :, None]
    return phi, phi_dot, phi_body, valid


def _causes(by_source: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Sources within the relative tolerance of each row's positive maximum."""
    return (by_source >= (best * (1.0 - CAUSE_REL_TOL))[:, None]) & (best > 0.0)[:, None]


def world_summaries(pos: np.ndarray, heading: np.ndarray, vel: np.ndarray,
                    params: SimParams) -> PerceptSummary:
    """Percept summary for every agent against one frozen snapshot.

    ``pos`` and ``vel`` are (n, 2), ``heading`` is (n,); row i is agent i.
    """
    n = len(pos)
    if n < 2:
        zeros = np.zeros(n)
        none = np.zeros((n, n), dtype=bool)
        return PerceptSummary(zeros, none, zeros, none)
    phi, phi_dot, phi_body, valid = _percept_fields(pos, heading, vel, params)

    # left eye (index 0) reads clockwise, right eye (index 1) counter-clockwise
    contra = np.empty_like(valid)
    contra[:, 0] = phi_dot[:, 0] < 0.0
    contra[:, 1] = phi_dot[:, 1] > 0.0
    grm_mag = np.where(valid & contra, np.abs(phi_dot), 0.0)
    grm_by_source = grm_mag.max(axis=(1, 3))                         # (n, n)

    left_hemi = (phi_body > 0.0)[:, None, :, :]
    right_hemi = (phi_body < 0.0)[:, None, :, :]
    ccw = np.where(valid & left_hemi & (phi_dot > 0.0), phi_dot, 0.0)
    cw = np.where(valid & right_hemi & (phi_dot < 0.0), -phi_dot, 0.0)
    ccw_by_source = ccw.max(axis=(1, 3))
    cw_by_source = cw.max(axis=(1, 3))

    best_grm = grm_by_source.max(axis=1)
    best_ccw = ccw_by_source.max(axis=1)
    best_cw = cw_by_source.max(axis=1)
    bilateral = (best_ccw > 0.0) & (best_cw > 0.0)
    omega = np.where(bilateral, np.minimum(best_ccw, best_cw), 0.0)
    loom_causes = (_causes(ccw_by_source, best_ccw) | _causes(cw_by_source, best_cw)) \
        & bilateral[:, None]
    return PerceptSummary(best_grm, _causes(grm_by_source, best_grm), omega, loom_causes)
