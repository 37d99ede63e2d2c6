"""Numerical verification suites for the geometric guarantees.

Four independent checks, each sampling random configurations from a seeded
stream and reporting counterexamples:

* rate-oracle: the analytic angular velocity against a central finite
  difference of the azimuth;
* crossing-signs: the agent arriving second at a crossing sees regressive
  motion exactly until the other agent clears it (both frames), and the
  closed-form rate agrees with the generic one;
* grm-implication: regressive motion is always generalized regressive
  motion, for any contralateral visual angle;
* wall-cone: approaching a wall, some point inside the frontal GRM cone
  moves toward the nose faster than any finite threshold before contact.

``verify_theorems`` bundles them into a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import geometry as geo

WALL_THRESHOLDS = (0.1, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 32.0)
# Halvings of the wall distance tried before a wall-cone sample fails.
WALL_MAX_HALVINGS = 200


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


@dataclass(frozen=True)
class TheoremReport:
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def render(self) -> str:
        lines = []
        for s in self.suites:
            status = "PASS" if s.passed else "FAIL"
            lines.append(f"{status} {s.name}: {s.checked} checks, "
                         f"{len(s.counterexamples)} counterexamples")
            for ce in s.counterexamples[:10]:
                lines.append(f"  counterexample: {ce}")
        lines.append("RESULT " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def fd_rate(rel_pos, rel_vel, dt=1e-6) -> float:
    """Central finite difference of the azimuth: the oracle for the rate."""
    p = np.asarray(rel_pos, dtype=float)
    v = np.asarray(rel_vel, dtype=float)
    ahead = p + dt * v
    behind = p - dt * v
    return geo.wrap_angle(math.atan2(ahead[1], ahead[0])
                          - math.atan2(behind[1], behind[0])) / (2.0 * dt)


def check_rate_oracle(samples: int, rng: np.random.Generator) -> SuiteResult:
    bad = []
    for _ in range(samples):
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.1, 100.0)
        rel_pos = radius * np.array([math.cos(bearing), math.sin(bearing)])
        rel_vel = rng.normal(size=2) * 30.0
        analytic = geo.angular_velocity(rel_pos, rel_vel)
        numeric = fd_rate(rel_pos, rel_vel)
        # The 1e-9 rad/s absolute floor covers the oracle's own rounding,
        # about eps * pi / 2e-6 = 3.5e-10 rad/s. With a floor of 1e-12, seed
        # 27 fails one sample in 1000: a rate of 1.3e-5 rad/s off by 2.3e-10.
        tol = 1e-5 * max(abs(numeric), 1e-4)
        if abs(analytic - numeric) > tol:
            bad.append(f"pos={rel_pos}, vel={rel_vel}: "
                       f"analytic={analytic:.8g} numeric={numeric:.8g}")
    return SuiteResult("rate-oracle", samples, tuple(bad))


def _random_crossing(rng) -> dict:
    return dict(
        speed_obs=rng.uniform(5.0, 30.0),
        speed_other=rng.uniform(5.0, 30.0),
        approach_angle=float(rng.uniform(0.1, math.pi - 0.1)
                             * rng.choice([-1.0, 1.0])),
        arrival_gap=-rng.uniform(0.5, 15.0),
    )


def check_crossing_signs(samples: int, rng: np.random.Generator) -> SuiteResult:
    bad = []
    for _ in range(samples):
        base = _random_crossing(rng)
        eps = rng.uniform(0.05, 12.0)
        for progress, want in ((-eps, True), (eps, False)):
            s = geo.CrossingScenario(**base, progress=progress)
            phi = geo.crossing_azimuth(s)
            phi_dot = geo.crossing_angular_velocity(s)
            if geo.is_regressive(phi, phi_dot) != want:
                bad.append(f"{s}: regressive != {want}")
            rel_pos, rel_vel = geo.crossing_relative_state(s)
            generic = geo.angular_velocity(rel_pos, rel_vel)
            if abs(generic - phi_dot) > 1e-9 * max(1.0, abs(phi_dot)):
                bad.append(f"{s}: closed form {phi_dot:.8g} vs generic {generic:.8g}")
        # second frame: the agent arriving first sees progressive motion
        # until the other clears the crossing, regressive afterwards
        gap = base["arrival_gap"]
        eps2 = rng.uniform(0.05, 12.0) * rng.choice([-1.0, 1.0])
        mirrored = geo.CrossingScenario(
            speed_obs=base["speed_other"],
            speed_other=base["speed_obs"],
            approach_angle=-base["approach_angle"],
            arrival_gap=-gap * base["speed_other"] / base["speed_obs"],
            progress=eps2)
        regressive = geo.is_regressive(
            geo.crossing_azimuth(mirrored), geo.crossing_angular_velocity(mirrored))
        if regressive != (eps2 > 0):
            bad.append(f"{mirrored}: first-arriver regressive != {eps2 > 0}")
    # a sign and a closed-form check at each of -eps and eps, then the mirror's sign
    return SuiteResult("crossing-signs", 5 * samples, tuple(bad))


def check_grm_implication(samples: int, rng: np.random.Generator) -> SuiteResult:
    phi = rng.uniform(-math.pi, math.pi, size=samples)
    phi_dot = rng.normal(size=samples) * 5.0
    cva = rng.uniform(0.0, math.pi / 2.0, size=samples)
    bad = []
    for p, pd, c in zip(phi.tolist(), phi_dot.tolist(), cva.tolist()):
        if geo.is_regressive(p, pd) and pd != 0.0 and not geo.is_grm(p, pd, c):
            bad.append(f"phi={p:.6g} phi_dot={pd:.6g} cva={c:.6g}")
    return SuiteResult("grm-implication", samples, tuple(bad))


def check_wall_cone(samples: int, rng: np.random.Generator) -> SuiteResult:
    bad = []
    checked = 0
    for _ in range(samples):
        alpha = rng.uniform(math.radians(5.0) + 1e-9, math.radians(85.0))
        speed = rng.uniform(10.0, 30.0)
        cva = rng.uniform(math.radians(10.0), math.radians(90.0))
        cone_phi = 0.5 * min(cva, max(alpha - math.radians(1.0), 1e-4))
        for threshold in WALL_THRESHOLDS:
            checked += 1
            y = 20.0
            rate = 0.0
            found = False
            for _ in range(WALL_MAX_HALVINGS):
                x = y * math.tan(alpha - cone_phi)
                rate = geo.wall_angular_velocity(geo.WallScenario(alpha, speed, (x, y)))
                if abs(rate) > threshold:
                    found = True
                    break
                y *= 0.5
            # the cone point's image moves counter-clockwise, toward the nose
            if not (found and y > 0.0 and rate > 0.0 and geo.is_grm(cone_phi, rate, cva)):
                bad.append(f"alpha={alpha:.4g} v={speed:.4g} cva={cva:.4g} "
                           f"T={threshold}: no GRM cone point found")
    return SuiteResult("wall-cone", checked, tuple(bad))


def verify_theorems(sample_count: int = 1000, seed: int = 0, report_path=None) -> TheoremReport:
    """Run all suites with one seeded stream; optionally write the report."""
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    rng = np.random.default_rng(seed)
    report = TheoremReport(suites=(
        check_rate_oracle(sample_count, rng),
        check_crossing_signs(sample_count, rng),
        check_grm_implication(sample_count, rng),
        check_wall_cone(max(1, sample_count // 10), rng),
    ))
    if report_path is not None:
        Path(report_path).write_text(report.render(), encoding="utf-8")
    return report
