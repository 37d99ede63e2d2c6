"""Unit examples for grmsim.geometry.

The randomized theorem checks (the rate oracle, crossing signs, regressive
implies GRM, the wall cone) are harness.verify's suites, which acceptance
criteria 01-04 and `grmsim verify` run.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from grmsim import geometry as geo
from grmsim.harness.verify import fd_rate


# ---------------------------------------------------------------- torus ops

def test_wrap_torus_examples():
    assert np.allclose(geo.wrap_torus((55.0, -5.0), 50.0), (5.0, 45.0))
    assert np.allclose(geo.wrap_torus((0.0, 0.0), 50.0), (0.0, 0.0))
    assert np.allclose(geo.wrap_torus((50.0, 50.0), 50.0), (0.0, 0.0))


def test_wrap_torus_idempotent():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-200, 200, size=(500, 2))
    once = geo.wrap_torus(pts, 50.0)
    assert np.array_equal(geo.wrap_torus(once, 50.0), once)
    assert np.all((once >= 0.0) & (once < 50.0))


def test_min_image_examples():
    assert np.allclose(geo.min_image_delta((1, 1), (49, 1), 50.0), (-2.0, 0.0))
    assert np.allclose(geo.min_image_delta((10, 10), (12, 10), 50.0), (2.0, 0.0))
    # tie at exactly R/2 resolves to -R/2
    assert np.allclose(geo.min_image_delta((0, 0), (25, 0), 50.0), (-25.0, 0.0))
    # inputs outside the arena are wrapped first
    assert np.allclose(geo.min_image_delta((151, -99), (-1, 201), 50.0), (-2.0, 0.0))


@pytest.mark.parametrize("side", [50.0, 1.0, 3.7, 1e-3, 8.0e6])
def test_min_image_is_exact(side):
    # on [-1.5 side, 1.5 side): the ties at +-side/2 and their neighbours,
    # +-0, +-side, the range ends, subnormals and random values
    h = 0.5 * side
    edges = np.array([h, -h, 0.0, -0.0, side, -side, 1.5 * side, -1.5 * side])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                            [5e-324, -5e-324, 2.2e-308, -2.2e-308]])
    # the range is exact: 1.5 * side may round outside it
    edges = edges[[-3 * Fraction(side) <= 2 * Fraction(e) < 3 * Fraction(side) for e in edges]]
    assert len(edges) >= 24 and np.signbit(edges[edges == 0.0]).any()
    values = np.concatenate([edges, np.random.default_rng(5).uniform(
        -1.5 * side, 1.5 * side, 100_000)])
    # shaped like the perception kernel's (pair, viewpoint, point, axis) array
    block = values[:3 * 14 * 2 * 50].reshape(50, 3, 14, 2)
    for delta in (values, block):
        got = geo._min_image(delta, side)
        inside = (delta >= -h) & (delta < h)
        assert np.array_equal(got[inside].view(np.uint64), delta[inside].view(np.uint64))
        out = [got[~inside].tolist(), delta[~inside].tolist()]
        shift = got[~inside] - delta[~inside]
        assert np.all((shift == side) | (shift == -side))
        # exactly: fsum rounds the sum of the three floats once, so it is 0 only if that sum is
        assert all(math.fsum((g, -d, -t)) == 0.0 for g, d, t in zip(*out, shift.tolist()))
        assert np.all((got >= -h) & (got < h))
    assert np.array_equal(np.signbit(geo._min_image(np.array([0.0, -0.0]), side)),
                          [False, True])
    assert geo._min_image(np.array([h, -h]), side).tolist() == [-h, -h]


def test_min_image_range_and_consistency():
    rng = np.random.default_rng(11)
    a = rng.uniform(0, 50, size=(1000, 2))
    b = rng.uniform(0, 50, size=(1000, 2))
    d = geo.min_image_delta(a, b, 50.0)
    assert np.all(d >= -25.0) and np.all(d < 25.0)
    # a + delta is congruent to b modulo the arena
    assert np.allclose(geo.wrap_torus(a + d, 50.0), geo.wrap_torus(b, 50.0), atol=1e-9)


def test_bad_side_rejected():
    with pytest.raises(ValueError):
        geo.wrap_torus((1, 1), 0.0)
    with pytest.raises(ValueError):
        geo.min_image_delta((1, 1), (2, 2), -5.0)


# ------------------------------------------------------------ azimuth / rate

def test_azimuth_examples():
    fwd = math.pi / 2.0  # facing +y
    assert geo.azimuth((0, 5), fwd) == pytest.approx(0.0)
    assert geo.azimuth((-3, 0), fwd) == pytest.approx(math.pi / 2.0)
    # full-quadrant arctangent oracle: atan2(1, 1) - pi/2
    assert geo.azimuth((1, 1), fwd) == pytest.approx(math.atan2(1, 1) - math.pi / 2.0)
    assert geo.azimuth((1, 1), fwd) == pytest.approx(-math.pi / 4.0)


def test_azimuth_range_and_left_positive():
    rng = np.random.default_rng(3)
    for _ in range(300):
        heading = rng.uniform(0, 2 * math.pi)
        rel = rng.normal(size=2) * 10
        if rel[0] == 0 and rel[1] == 0:
            continue
        phi = geo.azimuth(rel, heading)
        assert -math.pi <= phi < math.pi
        # rotating rel_pos a touch counter-clockwise increases phi near 0
    left = geo.azimuth((-1e-3, 5), math.pi / 2)
    right = geo.azimuth((1e-3, 5), math.pi / 2)
    assert left > 0 > right


def test_azimuth_zero_vector_rejected():
    with pytest.raises(ValueError):
        geo.azimuth((0.0, 0.0), 0.3)


def test_angular_velocity_examples():
    assert geo.angular_velocity((5, 0), (2, 0)) == pytest.approx(0.0)
    # frozen from the central finite-difference oracle
    assert fd_rate((0, 10), (20, 0)) == pytest.approx(-2.0, rel=1e-6)
    assert geo.angular_velocity((0, 10), (20, 0)) == pytest.approx(-2.0)
    assert fd_rate((5, 0), (0, 1)) == pytest.approx(0.2, rel=1e-6)
    assert geo.angular_velocity((5, 0), (0, 1)) == pytest.approx(0.2)


def test_angular_velocity_zero_rejected():
    with pytest.raises(ValueError):
        geo.angular_velocity((0.0, 0.0), (1.0, 1.0))


def test_tangential_momentum_constant_along_line():
    # along a straight relative trajectory <perp(v), x(t)> is constant,
    # so |phi_dot| * D^2 is constant too
    rng = np.random.default_rng(23)
    for _ in range(200):
        x0 = rng.normal(size=2) * 20
        v = rng.normal(size=2) * 10
        if np.allclose(v, 0):
            continue
        values = []
        for t in np.linspace(0.0, 2.0, 9):
            x = x0 + t * v
            d2 = float(x @ x)
            if d2 < 1e-6:
                continue
            values.append(geo.angular_velocity(x, v) * d2)
        assert np.allclose(values, values[0], rtol=1e-9, atol=1e-12)


# ------------------------------------------------------- crossing scenarios

def test_crossing_validation():
    with pytest.raises(ValueError):
        geo.CrossingScenario(0.0, 10.0, math.pi / 2, -5.0)
    with pytest.raises(ValueError):
        geo.CrossingScenario(10.0, 10.0, 0.0, -5.0)  # parallel


def test_crossing_azimuth_straight_ahead():
    s = geo.CrossingScenario(10.0, 20.0, math.pi / 2, -5.0, progress=0.0)
    assert geo.crossing_azimuth(s) == pytest.approx(0.0)


def test_crossing_azimuth_matches_explicit_construction():
    s = geo.CrossingScenario(10.0, 10.0, math.pi / 2, -5.0, progress=-1.0)
    # construct the relative position by hand from the trajectory definition
    ratio = s.progress * s.speed_other / s.speed_obs
    rel = np.array([
        -ratio * math.sin(s.approach_angle),
        ratio * math.cos(s.approach_angle) - (s.arrival_gap + s.progress),
    ])
    assert geo.crossing_azimuth(s) == pytest.approx(geo.azimuth(rel, math.pi / 2))


def test_crossing_azimuth_sign_for_positive_progress():
    rng = np.random.default_rng(5)
    for _ in range(300):
        s = geo.CrossingScenario(
            speed_obs=rng.uniform(5, 30),
            speed_other=rng.uniform(5, 30),
            approach_angle=rng.uniform(0.1, math.pi - 0.1),
            arrival_gap=rng.uniform(-15, 15),
            progress=rng.uniform(0.05, 10),
        )
        phi = geo.crossing_azimuth(s)
        assert 0.0 < phi <= math.pi or phi == -math.pi


def test_crossing_angular_velocity_example():
    s = geo.CrossingScenario(10.0, 20.0, math.pi / 2, -5.0, progress=0.0)
    # -gap*v2*sin(psi)/D^2 with D^2 = 25
    assert geo.crossing_angular_velocity(s) == pytest.approx(4.0)


def test_crossing_angular_velocity_sign():
    rng = np.random.default_rng(29)
    for _ in range(200):
        s = geo.CrossingScenario(
            speed_obs=rng.uniform(5, 30),
            speed_other=rng.uniform(5, 30),
            approach_angle=rng.uniform(0.1, math.pi - 0.1),
            arrival_gap=-rng.uniform(0.5, 15),
            progress=rng.uniform(-10, 10),
        )
        assert geo.crossing_angular_velocity(s) > 0.0


def test_crossing_angular_velocity_cross_check():
    # closed form agrees with the generic inner-product rate on 1000 scenarios
    rng = np.random.default_rng(31)
    for _ in range(1000):
        psi = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
        if abs(math.sin(psi)) < 1e-3:
            continue
        s = geo.CrossingScenario(
            speed_obs=rng.uniform(5, 30),
            speed_other=rng.uniform(5, 30),
            approach_angle=psi,
            arrival_gap=rng.uniform(-15, 15),
            progress=rng.uniform(-10, 10),
        )
        rel_pos, rel_vel = geo.crossing_relative_state(s)
        if float(rel_pos @ rel_pos) < 1e-9:
            continue
        assert geo.crossing_angular_velocity(s) == pytest.approx(
            geo.angular_velocity(rel_pos, rel_vel), rel=1e-9, abs=1e-12)


def test_crossing_degenerate_raises():
    s = geo.CrossingScenario(10.0, 20.0, math.pi / 2, 0.0, progress=0.0)
    with pytest.raises(ValueError):
        geo.crossing_azimuth(s)
    with pytest.raises(ValueError):
        geo.crossing_angular_velocity(s)


# ------------------------------------------------------------ wall scenario

def test_wall_validation():
    with pytest.raises(ValueError):
        geo.WallScenario(0.0, 10.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        geo.WallScenario(math.pi / 2, 10.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        geo.WallScenario(math.pi / 4, 0.0, (1.0, 1.0))


def test_wall_angular_velocity_example():
    s = geo.WallScenario(math.pi / 4, 10.0, (0.0, 10.0))
    # 10*10*(sqrt(2)/2)/100, confirmed by the finite-difference oracle
    assert geo.wall_angular_velocity(s) == pytest.approx(math.sqrt(2) / 2)
    vel = np.array([10.0 * math.sin(s.approach_angle), 10.0 * math.cos(s.approach_angle)])
    assert fd_rate((0.0, 10.0), -vel) == pytest.approx(
        geo.wall_angular_velocity(s), rel=1e-6)


def test_wall_point_on_velocity_ray_is_radial():
    alpha = 0.7
    y = 4.0
    s = geo.WallScenario(alpha, 20.0, (y * math.tan(alpha), y))
    assert geo.wall_angular_velocity(s) == pytest.approx(0.0, abs=1e-12)


def test_wall_rate_scales_inverse_distance():
    alpha = 0.5
    for y in (8.0, 4.0, 2.0, 1.0):
        x = y * math.tan(alpha / 2)  # fixed x/y ratio
        full = geo.wall_angular_velocity(geo.WallScenario(alpha, 15.0, (x, y)))
        halved = geo.wall_angular_velocity(geo.WallScenario(alpha, 15.0, (x / 2, y / 2)))
        assert halved == pytest.approx(2.0 * full)


def test_wall_matches_generic_rate():
    rng = np.random.default_rng(37)
    for _ in range(300):
        alpha = rng.uniform(0.05, math.pi / 2 - 0.05)
        v = rng.uniform(5, 30)
        point = rng.normal(size=2) * 10
        if np.allclose(point, 0):
            continue
        s = geo.WallScenario(alpha, v, (point[0], point[1]))
        vel = np.array([v * math.sin(alpha), v * math.cos(alpha)])
        assert geo.wall_angular_velocity(s) == pytest.approx(
            geo.angular_velocity(point, -vel), rel=1e-12, abs=1e-15)


# ----------------------------------------------------- regressive / GRM flags

def test_is_regressive_examples():
    assert geo.is_regressive(0.5, -0.1)
    assert not geo.is_regressive(-0.5, -0.1)
    assert geo.is_regressive(0.0, 3.0)  # boundary product == 0


def test_is_grm_examples():
    cva = math.radians(30)
    assert geo.is_grm(0.3, 1.0, cva)
    assert not geo.is_grm(1.0, 1.0, cva)
    # with cva == pi the two intervals cover everything for phi_dot != 0
    rng = np.random.default_rng(41)
    for _ in range(100):
        phi = rng.uniform(-math.pi, math.pi)
        phi_dot = rng.normal()
        if phi_dot == 0:
            continue
        assert geo.is_grm(phi, phi_dot, math.pi)
