"""Scalar reference for the perception kernel, one point at a time.

Each in-field body point of every other agent becomes one ``PointPercept``,
built from ``geometry.azimuth``, ``geometry.angular_velocity`` and
``geometry.min_image_delta`` with its own rotations and field tests.  It
shares only the body outline and the eye offsets with
``perception.world_summaries``, so agreement between the two checks the
kernel's geometry as well as its reduction.
"""

import math
from dataclasses import dataclass

import numpy as np

from grmsim import geometry as geo
from grmsim.perception import BODY_OUTLINE, CAUSE_REL_TOL, eye_offsets

EYES = ("left", "right")


@dataclass(frozen=True)
class PointPercept:
    """One body point of one agent as seen by one eye of the observer.

    ``phi`` and ``phi_dot`` are measured about the eye center; ``phi_body``
    is the azimuth of the same point about the observer's body center and
    decides hemifield membership for looming.
    """

    source_agent: int
    point_index: int
    eye: str
    phi: float
    phi_dot: float
    phi_body: float


def _to_world(center, heading, offset):
    """A body-frame offset (+y along the heading) placed in the world frame."""
    a = heading - math.pi / 2.0
    x, y = float(offset[0]), float(offset[1])
    return np.array([center[0] + math.cos(a) * x - math.sin(a) * y,
                     center[1] + math.sin(a) * x + math.cos(a) * y])


def project_points(i, pos, heading, vel, params) -> list[PointPercept]:
    """All in-field percepts of observer row ``i``, one per (source, point, eye).

    Points coinciding exactly with an eye center are skipped.
    """
    fields = {"left": (-params.cva, params.ipsi_field),
              "right": (-params.ipsi_field, params.cva)}
    percepts = []
    for eye, offset in zip(EYES, eye_offsets(params.d_eye)):
        eye_pos = _to_world(pos[i], heading[i], offset)
        lo, hi = fields[eye]
        for k in range(len(pos)):
            if k == i:
                continue
            rel_vel = np.asarray(vel[k]) - np.asarray(vel[i])
            for j, point in enumerate(BODY_OUTLINE):
                world_point = _to_world(pos[k], heading[k], point)
                rel = geo.min_image_delta(eye_pos, world_point, params.arena)
                if rel[0] == 0.0 and rel[1] == 0.0:
                    continue
                phi = geo.azimuth(rel, heading[i])
                if not lo <= phi <= hi:
                    continue
                body_rel = geo.min_image_delta(pos[i], world_point, params.arena)
                phi_body = geo.azimuth(body_rel, heading[i]) if body_rel.any() else 0.0
                percepts.append(PointPercept(k, j, eye, phi,
                                             geo.angular_velocity(rel, rel_vel),
                                             phi_body))
    return percepts


def _best(per_source: dict[int, float]) -> tuple[float, frozenset[int]]:
    if not per_source:
        return 0.0, frozenset()
    best = max(per_source.values())
    return best, frozenset(a for a, m in per_source.items()
                           if m >= best * (1.0 - CAUSE_REL_TOL))


def detect_grm(percepts) -> tuple[float, frozenset[int]]:
    """Largest contralateral motion magnitude and the agents causing it."""
    per_source: dict[int, float] = {}
    for p in percepts:
        contra = p.phi_dot > 0.0 if p.eye == "right" else p.phi_dot < 0.0
        if contra and abs(p.phi_dot) > per_source.get(p.source_agent, 0.0):
            per_source[p.source_agent] = abs(p.phi_dot)
    return _best(per_source)


def looming_strength(percepts) -> tuple[float, frozenset[int]]:
    """Bilateral expansion strength: min of the strongest outward motions.

    Outward means counter-clockwise in the left body hemifield or clockwise
    in the right one (membership by the body-center azimuth sign; a point at
    exactly 0 belongs to neither).  Returns 0 with no causes unless both
    sides contribute.
    """
    ccw: dict[int, float] = {}
    cw: dict[int, float] = {}
    for p in percepts:
        if p.phi_body > 0.0 and p.phi_dot > ccw.get(p.source_agent, 0.0):
            ccw[p.source_agent] = p.phi_dot
        elif p.phi_body < 0.0 and -p.phi_dot > cw.get(p.source_agent, 0.0):
            cw[p.source_agent] = -p.phi_dot
    if not ccw or not cw:
        return 0.0, frozenset()
    best_ccw, ccw_causes = _best(ccw)
    best_cw, cw_causes = _best(cw)
    return min(best_ccw, best_cw), ccw_causes | cw_causes


def summarize(percepts) -> tuple[float, frozenset[int], float, frozenset[int]]:
    """(max_grm, grm_causes, omega_loom, loom_causes) for one observer."""
    return (*detect_grm(percepts), *looming_strength(percepts))


def kernel_row(summary, i) -> tuple[float, frozenset[int], float, frozenset[int]]:
    """Observer ``i``'s entry of a ``world_summaries`` result, in ``summarize`` form."""
    grm_causes, loom_causes = summary.causes(i)
    return (float(summary.max_grm[i]), frozenset(np.flatnonzero(grm_causes).tolist()),
            float(summary.omega_loom[i]), frozenset(np.flatnonzero(loom_causes).tolist()))
