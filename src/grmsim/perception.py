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

Only the (observer, source) pairs that can matter are evaluated.  A body
moves rigidly, so every point of a source, seen from either eye, has
|phi_dot| <= v / (c - r): v is the relative speed, c the distance of the two
centers and r the largest body-point radius plus the largest eye radius.
Pairs whose bound lies safely below a ``floor``, and pairs at zero relative
velocity, are skipped.  Every signal at or above the floor, and its causes,
is then exact, and every signal below it stays below it; the engine passes
min(T_grm, T_loom), so no stop or restart decision changes.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _reach(d_eye: float) -> float:
    """Largest body-point radius plus largest eye radius, mm."""
    return float(np.hypot(*BODY_OUTLINE.T).max() + np.hypot(*eye_offsets(d_eye).T).max())


def kept_pairs(pos: np.ndarray, vel: np.ndarray, params: SimParams,
               floor: float = 0.0) -> np.ndarray:
    """(n, n) mask of the (observer, source) pairs whose rates may reach ``floor``.

    A pair is dropped when its bound v / (c - r) on every point's rate (see
    ``world_summaries``) is safely below ``floor``, and always when its
    relative speed v is 0: its rates are then exactly 0.  Self pairs are
    among those.
    """
    centre = min_image_delta(pos[:, None, :], pos[None, :, :], params.arena)
    rel = vel[None, :, :] - vel[:, None, :]
    v = np.hypot(rel[..., 0], rel[..., 1])
    # The margins make a dropped pair's rates provably smaller than floor.
    # The absolute one, far above the ~1e-14 mm rounding of point positions,
    # keeps the gap below every eye-to-point distance; the relative one
    # covers the few-ulp rounding of the rate and of the bound, and also
    # CAUSE_REL_TOL, so a dropped source can neither carry a signal >= floor
    # nor tie with one as a cause.
    gap = np.hypot(centre[..., 0], centre[..., 1]) - (_reach(params.d_eye)
                                                      + 1e-9 * params.arena)
    return (v > 0.0) & (v >= floor * (1.0 - 1e-9) * gap)


def world_summaries(pos: np.ndarray, heading: np.ndarray, vel: np.ndarray,
                    params: SimParams, *, floor: float = 0.0) -> PerceptSummary:
    """Percept summary for every agent against one frozen snapshot.

    ``pos`` and ``vel`` are (n, 2), ``heading`` is (n,); row i is agent i.
    An observer sees neither its own body nor a point on an eye center.

    Only the pairs that ``kept_pairs`` keeps are evaluated.  Seen from either
    eye of observer i, a point of source j is at least c - r away on the
    torus, c being the distance of their centers and r the largest
    body-point radius plus the largest eye radius, and it moves at their
    relative speed v, since bodies translate rigidly within a step; so its
    rate obeys |phi_dot| <= v / (c - r) whenever c > r.  A dropped source
    counts as 0 where its true rates are below ``floor``.  Hence every signal
    >= ``floor``, and its causes, are what evaluating every pair gives, and
    every signal below ``floor`` stays below it: with ``floor`` at most both
    thresholds, no signal changes side of its threshold.  At ``floor = 0``
    only sources at zero relative velocity are skipped and every signal is
    exact.
    """
    n = len(pos)
    grm_by_source = np.zeros((n, n))
    ccw_by_source = np.zeros((n, n))
    cw_by_source = np.zeros((n, n))
    ii, jj = np.nonzero(kept_pairs(pos, vel, params, floor))
    if len(ii):
        ca = np.cos(heading - math.pi / 2.0)
        sa = np.sin(heading - math.pi / 2.0)

        bx, by = BODY_OUTLINE[:, 0], BODY_OUTLINE[:, 1]
        px = pos[:, 0, None] + ca[:, None] * bx - sa[:, None] * by      # (n, 14)
        py = pos[:, 1, None] + sa[:, None] * bx + ca[:, None] * by

        offs = eye_offsets(params.d_eye)
        # eye offsets rotated into the world frame, (n, 2 eyes)
        ex = pos[:, 0, None] + ca[:, None] * offs[:, 0] - sa[:, None] * offs[:, 1]
        ey = pos[:, 1, None] + sa[:, None] * offs[:, 0] + ca[:, None] * offs[:, 1]

        # (pair, eye, point) displacements from each observer eye to the source
        dx = min_image_delta(ex[ii, :, None], px[jj, None, :], params.arena)
        dy = min_image_delta(ey[ii, :, None], py[jj, None, :], params.arena)
        d2 = dx * dx + dy * dy

        # observer frame: forward is the heading (-sa, ca), left its CCW normal
        hx, hy = -sa[ii, None, None], ca[ii, None, None]
        phi = np.arctan2(hx * dy - hy * dx, hx * dx + hy * dy)
        lo = np.array([-params.cva, -params.ipsi_field])[:, None]  # left, right
        hi = np.array([params.ipsi_field, params.cva])[:, None]
        seen = (phi >= lo) & (phi <= hi) & (d2 > 0.0)

        rvx = (vel[jj, 0] - vel[ii, 0])[:, None, None]
        rvy = (vel[jj, 1] - vel[ii, 1])[:, None, None]
        rate = np.divide(rvy * dx - rvx * dy, d2, out=np.zeros_like(d2), where=seen)

        # left eye (index 0) reads clockwise, right eye (index 1) counter-clockwise
        grm_by_source[ii, jj] = np.maximum(
            np.maximum(-rate[:, 0], rate[:, 1]).max(axis=1), 0.0)

        # hemifield: side of the observer's spine, by the lateral body-frame
        # coordinate of the point about the body center; 0 is neither side
        bdx = min_image_delta(pos[ii, 0, None], px[jj], params.arena)
        bdy = min_image_delta(pos[ii, 1, None], py[jj], params.arena)
        lateral = (ca[ii, None] * bdx + sa[ii, None] * bdy)[:, None]  # right > 0
        ccw_by_source[ii, jj] = np.maximum(
            np.where(lateral < 0.0, rate, 0.0).max(axis=(1, 2)), 0.0)
        cw_by_source[ii, jj] = np.maximum(
            np.where(lateral > 0.0, -rate, 0.0).max(axis=(1, 2)), 0.0)

    best_grm = grm_by_source.max(axis=1)
    best_ccw = ccw_by_source.max(axis=1)
    best_cw = cw_by_source.max(axis=1)
    bilateral = (best_ccw > 0.0) & (best_cw > 0.0)
    omega = np.where(bilateral, np.minimum(best_ccw, best_cw), 0.0)
    loom_causes = (_causes(ccw_by_source, best_ccw) | _causes(cw_by_source, best_cw)) \
        & bilateral[:, None]
    return PerceptSummary(best_grm, _causes(grm_by_source, best_grm), omega, loom_causes)
