import hashlib
import itertools
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from grmsim import dynamics, engine
from grmsim import geometry as geo
from grmsim import perception as per
from grmsim.dynamics import SimParams, cull_reach2, motion
from grmsim.harness import config
from percept_oracle import (PointPercept, detect_grm, kernel_row, looming_strength,
                            project_points, summarize)


def snapshot(*rows):
    """(pos, heading, vel) arrays from (x, y, heading, speed, moving) rows."""
    x, y, heading, speed, moving = (np.array(c) for c in zip(*rows))
    heading = heading.astype(float)
    frames = per.body_frames(heading, SimParams())
    return (np.column_stack((x, y)).astype(float), heading,
            motion(frames, speed.astype(float), moving.astype(bool), SimParams()).vel)


def row(x, y, heading, speed=20.0, moving=True):
    return x, y, heading, speed, moving


def relative(vel):
    """(rel_vel, rel_speed) of (n, 2) velocities, as ``dynamics.motion`` builds them."""
    rel_vel = vel[None, :, :] - vel[:, None, :]
    return rel_vel, np.hypot(rel_vel[..., 0], rel_vel[..., 1])


def summaries(world, params, pairs):
    """``world_summaries`` of a (pos, heading, vel) snapshot over ``pairs``."""
    pos, heading, vel = world
    return per.world_summaries(pos, per.body_frames(heading, params), relative(vel)[0],
                               params, pairs)


def test_walking_velocity_follows_body_axes():
    # agents walk head first, the head point (0, 1) of the body frame leading,
    # in the world direction of the heading angle
    heading = np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, 1000)
    speed = np.full(1000, 17.3)
    frames = per.body_frames(heading, SimParams())
    vel = motion(frames, speed, np.ones(1000, bool), SimParams()).vel
    assert tuple(per.BODY_OUTLINE[0]) == (0.0, 1.0)
    want = speed[:, None] * frames.offsets[:, 0]
    assert np.array_equal(vel.view(np.uint64), want.view(np.uint64))
    travel = np.arctan2(vel[:, 1], vel[:, 0])
    assert np.abs(geo.wrap_angle(travel - heading)).max() < 1e-12


def kept(world, params):
    """The pairs the engine's cull keeps in a (pos, heading, vel) snapshot."""
    pos, _, vel = world
    dist2 = (geo.pair_deltas(pos, params.arena) ** 2).sum(axis=-1)
    return dist2 <= cull_reach2(relative(vel)[1], params)


def exact_summary(world, params):
    """``world_summaries`` over every (observer, source) pair: exact signals."""
    n = len(world[0])
    return summaries(world, params, np.ones((n, n), bool))


def percept(source=1, eye="right", phi=0.0, phi_dot=0.0, phi_body=None, idx=0):
    return PointPercept(source_agent=source, point_index=idx, eye=eye,
                        phi=phi, phi_dot=phi_dot,
                        phi_body=phi if phi_body is None else phi_body)


# ----------------------------------------------------------------- eye fields

def check_eye_field_bounds(cva_deg, theta_i_deg=120.0):
    """Sources just inside and just outside each eye's two field bounds.

    A stationary observer at the arena center faces +y.  A source 15mm from
    one eye moves tangentially about it, in the direction that is
    contralateral for that eye only, so GRM fires iff its azimuth lies in
    that eye's field: right eye [-theta_i, +cva], left eye [-cva, +theta_i].
    """
    cva, theta_i = math.radians(cva_deg), math.radians(theta_i_deg)
    margin = math.radians(6)  # wider than the source's ~4 deg angular extent
    params = SimParams(cva=cva, ipsi_field=theta_i)
    offsets = per.eye_offsets(params.d_eye)
    # (eye row, bound, +1 if the field lies below the bound, motion sign)
    cases = [(1, cva, 1, 1.0), (1, -theta_i, -1, 1.0),
             (0, -cva, -1, -1.0), (0, theta_i, 1, -1.0)]
    for eye, bound, inward, spin in cases:
        for inside in (True, False):
            phi = bound - inward * margin if inside else bound + inward * margin
            bearing = math.pi / 2 + phi
            src = np.array([25.0, 25.0]) + offsets[eye] \
                + 15.0 * np.array([math.cos(bearing), math.sin(bearing)])
            course = bearing + spin * math.pi / 2   # tangential about the eye
            world = snapshot(row(25.0, 25.0, math.pi / 2, moving=False),
                               row(src[0], src[1], course))
            max_grm, causes, _, _ = kernel_row(exact_summary(world, params), 0)
            label = f"eye {eye}, bound {math.degrees(bound):.0f}, inside {inside}"
            if inside:
                assert max_grm > 0.0 and causes == {1}, label
            else:
                assert (max_grm, causes) == (0.0, frozenset()), label


def test_eye_fields_zero_cva_meet_at_midline():
    check_eye_field_bounds(0.0)


def test_eye_fields_default_table_values():
    check_eye_field_bounds(30.0)
    assert per.eye_offsets(0.55) == pytest.approx(
        np.array([(-0.275, per.EYE_FORWARD), (0.275, per.EYE_FORWARD)]))


def test_eye_fields_maximal_overlap():
    # binocular overlap covers [-90, 90]
    check_eye_field_bounds(90.0)


def test_eye_fields_validation():
    with pytest.raises(ValueError):
        SimParams(cva=-0.1).validate()
    with pytest.raises(ValueError):
        SimParams(cva=math.pi / 2 + 1e-9).validate()
    with pytest.raises(ValueError):
        SimParams(ipsi_field=0.0).validate()
    with pytest.raises(ValueError):
        SimParams(ipsi_field=math.pi + 1e-9).validate()


def test_body_outline_shape():
    assert per.BODY_OUTLINE.shape == (14, 2)
    ys = per.BODY_OUTLINE[:, 1]
    xs = per.BODY_OUTLINE[:, 0]
    assert ys.max() - ys.min() == pytest.approx(2.0)   # body length
    assert xs.max() - xs.min() == pytest.approx(0.9)   # max width
    # left/right symmetric outline
    mirrored = {(-x, y) for x, y in per.BODY_OUTLINE}
    assert mirrored == {(x, y) for x, y in per.BODY_OUTLINE}


# ------------------------------------------------------------- projection

def test_head_on_approach_expands_and_cva_cone_sees_grm():
    params = SimParams(cva=math.radians(30))
    world = snapshot(row(25.0, 20.0, math.pi / 2, speed=20.0),
                       row(25.0, 28.0, math.pi / 2, moving=False))
    percepts = project_points(0, *world, params)
    assert percepts
    for p in percepts:
        # expansion: image points drift outward from each eye's own axis
        if abs(p.phi) > 1e-6:
            assert math.copysign(1.0, p.phi_dot) == math.copysign(1.0, p.phi)
    # the stationary obstacle ahead is a GRM stimulus within the cva cone,
    # and a looming stimulus (it expands on both sides)
    max_grm, causes, omega, loom_causes = kernel_row(exact_summary(world, params), 0)
    assert max_grm > 0 and causes == {1}
    assert omega > 0 and loom_causes == {1}


def test_agent_directly_behind_is_invisible():
    params = SimParams()
    # the agent behind closes in, so it would move on the retina if seen
    world = snapshot(row(25.0, 25.0, math.pi / 2),
                       row(25.0, 20.0, math.pi / 2, speed=30.0))
    assert project_points(0, *world, params) == []
    assert kernel_row(exact_summary(world, params), 0) == \
        (0.0, frozenset(), 0.0, frozenset())


def test_crossing_percepts_match_closed_form_rate():
    # observer arriving second at a perpendicular crossing: the other agent's
    # observed rates match the closed-form center rate in sign and scale
    params = SimParams()
    world = snapshot(row(25.0, 20.0, math.pi / 2, speed=10.0),
                       row(29.0, 25.0, math.pi, speed=20.0))
    # gap: when the other reaches (25, 25) in 0.2s the observer sits 3mm short
    scenario = geo.CrossingScenario(10.0, 20.0, math.pi / 2, -3.0, progress=-2.0)
    expected = geo.crossing_angular_velocity(scenario)
    percepts = project_points(0, *world, params)
    assert percepts
    rates = np.array([p.phi_dot for p in percepts])
    assert np.all(np.sign(rates) == np.sign(expected))
    assert np.median(rates) == pytest.approx(expected, rel=0.4)
    assert geo.is_regressive(percepts[0].phi, percepts[0].phi_dot)


def test_coincident_point_skipped():
    # engineered so one outline point lands exactly on both (coincident) eyes:
    # the source faces the observer with its spine tip (0, 1) on the eye
    params = SimParams(d_eye=0.0)
    src_y = (16.0 + per.EYE_FORWARD) + 1.0
    world = snapshot(row(16.0, 16.0, math.pi / 2), row(16.0, src_y, -math.pi / 2))
    summary = exact_summary(world, params)
    assert np.isfinite(summary.max_grm).all() and np.isfinite(summary.omega_loom).all()
    percepts = project_points(0, *world, params)
    # the tip is skipped on both eyes; every other point is seen
    assert sorted({p.point_index for p in percepts}) == list(range(1, 14))
    assert kernel_row(summary, 0) == pytest.approx(summarize(percepts), rel=1e-9)


# ----------------------------------------------------------------- detect_grm

def test_detect_grm_picks_contralateral_max():
    ps = [percept(source=1, eye="right", phi=-0.2, phi_dot=7.0),
          percept(source=1, eye="left", phi=0.4, phi_dot=3.0)]  # CCW on left: progressive
    mag, causes = detect_grm(ps)
    assert mag == 7.0 and causes == {1}


def test_detect_grm_no_events():
    ps = [percept(source=1, eye="left", phi=0.4, phi_dot=3.0),
          percept(source=2, eye="right", phi=-0.4, phi_dot=-3.0)]
    assert detect_grm(ps) == (0.0, frozenset())


def test_detect_grm_maximum_selection():
    ps = [percept(source=1, eye="right", phi=0.1, phi_dot=7.0),
          percept(source=2, eye="right", phi=0.1, phi_dot=5.0)]
    mag, causes = detect_grm(ps)
    assert mag == 7.0 and causes == {1}


def test_detect_grm_tied_causes():
    ps = [percept(source=1, eye="right", phi=0.1, phi_dot=5.0),
          percept(source=2, eye="left", phi=0.1, phi_dot=-5.0)]
    mag, causes = detect_grm(ps)
    assert mag == 5.0 and causes == {1, 2}


# ----------------------------------------------------------- looming_strength

def test_looming_min_of_sides():
    ps = [percept(source=1, eye="left", phi=0.5, phi_dot=3.0),
          percept(source=1, eye="right", phi=-0.5, phi_dot=-5.0)]
    omega, causes = looming_strength(ps)
    assert omega == 3.0 and causes == {1}


def test_looming_one_sided_is_zero():
    ps = [percept(source=1, eye="right", phi=-0.5, phi_dot=-5.0),
          percept(source=1, eye="right", phi=-0.3, phi_dot=-2.0)]
    assert looming_strength(ps) == (0.0, frozenset())


def test_looming_two_agents_one_expanding_entity():
    ps = [percept(source=1, eye="left", phi=0.5, phi_dot=3.0),
          percept(source=2, eye="right", phi=-0.5, phi_dot=-5.0)]
    omega, causes = looming_strength(ps)
    assert omega == 3.0 and causes == {1, 2}


def test_looming_midline_point_belongs_to_neither_hemifield():
    ps = [percept(source=1, eye="left", phi=0.0, phi_dot=3.0, phi_body=0.0),
          percept(source=1, eye="right", phi=-0.5, phi_dot=-5.0)]
    assert looming_strength(ps)[0] == 0.0


def test_detectors_permutation_invariant():
    rng = np.random.default_rng(101)
    ps = [percept(source=int(rng.integers(1, 5)),
                  eye=("left", "right")[int(rng.integers(2))],
                  phi=float(rng.uniform(-2, 2)),
                  phi_dot=float(rng.normal() * 4),
                  phi_body=float(rng.uniform(-2, 2)))
          for _ in range(40)]
    base = (detect_grm(ps), looming_strength(ps))
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(len(ps))
        shuffled = [ps[k] for k in order]
        assert (detect_grm(shuffled), looming_strength(shuffled)) == base


# ------------------------------------------------------------- invariants

def _random_world(rng, params, n=6, box=None, p_moving=0.8):
    """n agents anywhere in the arena, or packed into a ``box`` mm square at a
    random corner, which may straddle the torus seam; each moves with
    probability ``p_moving``."""
    side = params.arena if box is None else box
    corner = np.zeros(2) if box is None else rng.uniform(0, params.arena, size=2)
    return snapshot(*(row(*((corner + (rng.uniform(0, side), rng.uniform(0, side)))
                            % params.arena),
                          rng.uniform(0, 2 * math.pi), speed=rng.uniform(10, 30),
                          moving=bool(rng.random() < p_moving))
                      for _ in range(n)))


def test_every_grm_event_satisfies_is_grm():
    params = SimParams(cva=math.radians(30))
    rng = np.random.default_rng(7)
    for _ in range(30):
        world = _random_world(rng, params)
        for i in range(len(world[0])):
            for p in project_points(i, *world, params):
                contra = p.phi_dot > 0 if p.eye == "right" else p.phi_dot < 0
                if contra:
                    assert geo.is_grm(p.phi, p.phi_dot, params.cva)


def test_looming_zero_for_single_hemifield_world():
    params = SimParams()
    world = snapshot(row(25.0, 25.0, math.pi / 2),
                       *(row(25.0 - 3.0 * i, 25.0 + 2.0 * i, 0.0) for i in (1, 2)))
    percepts = project_points(0, *world, params)
    assert percepts and all(p.phi_body > 0 for p in percepts)
    assert exact_summary(world, params).omega_loom[0] == 0.0


@pytest.mark.parametrize("ipsi_deg", [120, 180])
@pytest.mark.parametrize("cva_deg", [0, 40, 90])
def test_vectorized_summaries_agree_with_object_path(cva_deg, ipsi_deg):
    # the kernel and the independent scalar oracle: equal cause sets, and
    # signals equal up to the rounding of two different computations; every
    # other world is packed into 8 mm, for near-field and seam-straddling bodies
    rng = np.random.default_rng(13)
    params = SimParams(cva=math.radians(cva_deg), ipsi_field=math.radians(ipsi_deg))
    for k in range(40):
        n = int(rng.integers(2, 9))
        world = _random_world(rng, params, n=n, box=8.0 if k % 2 else None)
        summary = exact_summary(world, params)
        for i in range(n):
            max_grm, grm_causes, omega, loom_causes = kernel_row(summary, i)
            want = summarize(project_points(i, *world, params))
            assert (grm_causes, loom_causes) == (want[1], want[3])
            assert max_grm == pytest.approx(want[0], rel=1e-9, abs=1e-12)
            assert omega == pytest.approx(want[2], rel=1e-9, abs=1e-12)


def test_summary_invariants_on_random_worlds():
    rng = np.random.default_rng(19)
    params = SimParams()
    for _ in range(20):
        s = exact_summary(_random_world(rng, params), params)
        assert np.all(s.max_grm >= 0) and np.all(s.omega_loom >= 0)
        for i in range(len(s.max_grm)):
            grm_causes, loom_causes = s.causes(i)
            assert (s.max_grm[i] == 0) == (not grm_causes.any())
            assert (s.omega_loom[i] == 0) == (not loom_causes.any())
            assert not grm_causes[i] and not loom_causes[i]


def test_eye_azimuths_converge_to_eye_midpoint_azimuth():
    # with shrinking inter-eye distance the two eye azimuths approach the
    # azimuth about the midpoint between the eyes, error below d_eye/distance
    rng = np.random.default_rng(23)
    for d_eye in (0.55, 0.2, 0.05):
        offsets = per.eye_offsets(d_eye)
        midpoint = offsets.mean(axis=0)
        assert np.allclose(midpoint, (0.0, per.EYE_FORWARD))
        for _ in range(200):
            distance = rng.uniform(10 * d_eye, 40 * d_eye)
            bearing = rng.uniform(0, 2 * math.pi)
            point = midpoint + distance * np.array([math.cos(bearing), math.sin(bearing)])
            # observer at the origin facing +y: body frame == world frame
            mid_phi = geo.azimuth(point - midpoint, math.pi / 2)
            for eye in offsets:
                eye_phi = geo.azimuth(point - eye, math.pi / 2)
                diff = abs(geo.wrap_angle(eye_phi - mid_phi))
                assert diff <= 0.06
                assert diff <= d_eye / distance + 1e-12


# -------------------------------------------------------------- pair culling

FULLSCALE_THRESHOLDS = (0.1, 1.0, 4.0, 6.0, 32.0)


def _culling_worlds(rng, params, count):
    """Half spread over the arena, half packed into 8 mm across a random
    corner, with about half of the agents stopped."""
    for k in range(count):
        yield _random_world(rng, params, n=int(rng.integers(2, 11)),
                            box=8.0 if k % 2 else None, p_moving=0.5)


def test_pair_culling_keeps_every_threshold_decision():
    # culled at floor = min(T_grm, T_loom) against every pair: each signal
    # sits on the same side of its threshold, and a signal >= floor is the
    # same number with the same causes
    rng = np.random.default_rng(29)
    params = SimParams()
    dropped = high = 0
    for pos, heading, vel in _culling_worlds(rng, params, 40):
        exact = exact_summary((pos, heading, vel), params)
        exact_causes = [exact.causes(i) for i in range(len(pos))]
        moving_apart = (vel[None, :, :] != vel[:, None, :]).any(axis=-1)
        for t_grm, t_loom in itertools.product(FULLSCALE_THRESHOLDS, repeat=2):
            floor = min(t_grm, t_loom)
            pairs = kept((pos, heading, vel), replace(params, t_grm=t_grm, t_loom=t_loom))
            culled = summaries((pos, heading, vel), params, pairs)
            culled_causes = [culled.causes(i) for i in range(len(pos))]
            dropped += int((moving_apart & ~pairs).sum())
            for signal, channel, threshold in (("max_grm", 0, t_grm),
                                               ("omega_loom", 1, t_loom)):
                want, got = getattr(exact, signal), getattr(culled, signal)
                label = (signal, t_grm, t_loom)
                assert np.array_equal(want > threshold, got > threshold), label
                assert np.array_equal(want < threshold, got < threshold), label
                high_rows = want >= floor
                assert np.array_equal(high_rows, got >= floor), label
                assert np.array_equal(want[high_rows], got[high_rows]), label
                for i in np.flatnonzero(high_rows):
                    assert np.array_equal(exact_causes[i][channel],
                                          culled_causes[i][channel]), (label, i)
                high += int(high_rows.sum())
    assert dropped > 0 and high > 0


def test_pair_mask_keeps_listed_entries_and_zeroes_the_rest():
    # the engine hands over culled pairs of the walking and lucky observers:
    # listed entries are the every-pair ones bit for bit, the rest are 0
    rng = np.random.default_rng(41)
    params = SimParams()
    hidden = 0
    for pos, heading, vel in _culling_worlds(rng, params, 40):
        n = len(pos)
        full = exact_summary((pos, heading, vel), params)
        for _ in range(2):
            pairs = rng.random((n, n)) < 0.5
            masked = summaries((pos, heading, vel), params, pairs)
            assert np.array_equal(masked.by_source[:, pairs], full.by_source[:, pairs])
            assert np.array_equal(np.signbit(masked.by_source[:, pairs]),
                                  np.signbit(full.by_source[:, pairs]))
            assert not masked.by_source[:, ~pairs].any()
            best = np.where(pairs, full.by_source, 0.0).max(axis=2)
            assert np.array_equal(masked.max_grm, best[0])
            assert np.array_equal(masked.omega_loom, np.minimum(best[1], best[2]))
            hidden += int(full.by_source[:, ~pairs].any())
    assert hidden > 0


def test_no_pairs_give_one_shared_zero_summary():
    # a step with no kept pair pays for no kernel and no reduction
    rng = np.random.default_rng(47)
    params = SimParams()
    worlds = [_random_world(rng, params, n=n) for n in (6, 6, 4)]
    got = [summaries(world, params, np.zeros((len(world[0]),) * 2, bool)) for world in worlds]
    assert got[0] is got[1] and got[2] is not got[0]
    for summary, world in zip(got, worlds):
        n = len(world[0])
        assert summary.by_source.shape == (3, n, n) and summary.max_grm.shape == (n,)
        for array in (summary.max_grm, summary.omega_loom, summary.by_source):
            assert not array.any() and not array.flags.writeable
        assert not any(mask.any() for mask in summary.causes(n - 1))


def test_culled_pairs_have_every_rate_below_floor():
    # the scalar oracle's rate of every point of every dropped source; the
    # widest fields leave no point unseen by both eyes
    rng = np.random.default_rng(31)
    params = SimParams(cva=math.pi / 2, ipsi_field=math.pi)
    checked = 0
    for world in _culling_worlds(rng, params, 30):
        off_diagonal = ~np.eye(len(world[0]), dtype=bool)
        for i in range(len(world[0])):
            percepts = project_points(i, *world, params)
            for floor in FULLSCALE_THRESHOLDS:
                at_floor = replace(params, t_grm=floor, t_loom=floor)
                dropped = off_diagonal[i] & ~kept(world, at_floor)[i]
                rates = [abs(p.phi_dot) for p in percepts if dropped[p.source_agent]]
                assert all(rate < floor for rate in rates), (i, floor, max(rates))
                checked += len(rates)
    assert checked > 0


def test_kept_pairs_skip_only_zero_relative_velocity_at_floor_zero():
    rng = np.random.default_rng(37)
    params = SimParams(t_grm=0.0, t_loom=0.0)
    for world in _culling_worlds(rng, params, 20):
        vel = world[2]
        moving_apart = (vel[None, :, :] != vel[:, None, :]).any(axis=-1)
        assert np.array_equal(kept(world, params), moving_apart)


# ------------------------------------------------------------ snapshot stacks

def arrays(summary):
    return summary.max_grm, summary.omega_loom, summary.by_source


@pytest.mark.parametrize("n_agents, t_grm, t_loom", [(10, 6.0, 32.0), (30, 1.0, 4.0)])
def test_snapshot_stack_has_the_bits_of_single_snapshots(n_agents, t_grm, t_loom):
    # one call over K snapshots of a world moving with its own velocities, as
    # the engine makes between events, equals K one-snapshot calls bit for bit
    # (signed zeros included), over the culled pairs and over every pair; in
    # worlds of a desk trial and of an N = 30 crowd one
    desk = config.parse_config(pathlib.Path(__file__).resolve().parents[1]
                               / "configs" / "desk.cfg").params
    params = replace(desk, n_agents=n_agents, t_grm=t_grm, t_loom=t_loom)
    init_rng, streams = dynamics.trial_streams(3, n_agents)
    world = engine.make_world(*dynamics.init_agents(params, init_rng), params)
    seen = 0
    for _ in range(8):
        for _ in range(41):
            world, _ = engine.step(world, streams)
        track = [world.pos]
        for _ in range(engine.MAX_SNAPSHOTS - 1):
            track.append(dynamics.advance(track[-1], world.motion.disp, params))
        track = np.array(track)
        dist2 = (geo.pair_deltas(track, params.arena) ** 2).sum(axis=-1)
        for pairs in (dist2 <= world.motion.reach2, np.ones(dist2.shape, bool)):
            stack = per.world_summaries(track.swapaxes(0, 1), world.frames,
                                        world.motion.rel_vel, params, pairs)
            for k, pos in enumerate(track):
                single = per.world_summaries(pos, world.frames, world.motion.rel_vel,
                                             params, pairs[k])
                for got, want in zip(arrays(stack.snapshot(k)), arrays(single), strict=True):
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
                seen += np.count_nonzero(single.by_source)
    assert seen > 0


# ------------------------------------------------------------- kernel bits

# sha256 of the bytes of each taken step's percept summary in ``kernel_trials``,
# that is of every snapshot an ``engine.step`` call accepts, so it does not
# depend on how the calls group the steps
KERNEL_BITS_SHA256 = "91de47492f9002f60f771876e8e3853e9641d2beac916e00d76e381b80c62a42"


def kernel_trials(record, monkeypatch):
    """Run a 300-step crowd trial (N = 30, T_grm 1, T_loom 4) and a 300-step
    CVA 0, T_grm 0.1, T_loom 4 trial, seed 0 each; every percept call of the
    engine is passed to ``record(kernel, args, summary)``."""
    desk = config.parse_config(pathlib.Path(__file__).resolve().parents[1]
                               / "configs" / "desk.cfg").params
    kernel = per.world_summaries

    def recorded(*args):
        summary = kernel(*args)
        record(kernel, args, summary)
        return summary

    monkeypatch.setattr(per, "world_summaries", recorded)
    for cell in (dict(n_agents=30, t_grm=1.0, t_loom=4.0),
                 dict(cva=0.0, t_grm=0.1, t_loom=4.0)):
        engine.run_trial(replace(desk, horizon_steps=300, **cell), 0)


def test_kernel_bits_pinned(monkeypatch):
    # the trial hashes see neither sub-floor rates nor the sign of a zero in
    # by_source; this hash sees every byte the kernel returns for a step taken
    digest = hashlib.sha256()
    kept_pairs, summaries = [], []
    stepper = engine.step
    frozen = 0

    def record(kernel, args, summary):
        kept_pairs.append(np.count_nonzero(args[-1]))
        summaries.append(summary)

    def step(world, rngs, steps=1):
        nonlocal frozen
        chunks = len(summaries)
        new_world, events = stepper(world, rngs, steps)
        # the call's percept calls in step order, each snapshot a step; a world
        # with no walker evaluates none, and each of its steps sees nothing
        taken = [summary.snapshot(k) for summary in summaries[chunks:]
                 for k in range(len(summary.max_grm))]
        if not taken:
            n = len(world.pos)
            taken = [per.PerceptSummary(np.zeros(n), np.zeros(n), np.zeros((3, n, n)))] * len(
                events.positions)
            frozen += len(taken)
        assert len(taken) >= len(events.positions)
        for summary in taken[:len(events.positions)]:
            for array in arrays(summary):
                digest.update(np.array(array.shape).tobytes())
                digest.update(np.ascontiguousarray(array).tobytes())
        return new_world, events

    monkeypatch.setattr(engine, "step", step)
    kernel_trials(record, monkeypatch)
    assert len(kept_pairs) < 200 and frozen > 0
    assert max(kept_pairs) > engine.PAIR_BUDGET
    assert digest.hexdigest() == KERNEL_BITS_SHA256


def test_kernel_bits_do_not_depend_on_input_layout(monkeypatch):
    # the engine passes a swapped-axes view of its snapshot positions and its
    # read-only frames and rel_vel; C-contiguous, writable copies of every
    # argument give the same bytes, also past the first chunk's pair budget,
    # with the first snapshot's pairs or with a later chunk's grown budget
    first_kept, later_kept, strided = [], [], []

    def record(kernel, args, summary):
        pos, frames, rel_vel, params, pairs = args
        first_kept.append(np.count_nonzero(pairs.reshape(-1, len(pos), len(pos))[0]))
        later_kept.append(np.count_nonzero(pairs) - first_kept[-1])
        strided.append(not pos.flags.c_contiguous)
        copies = [np.array(a, order="C") for a in (pos, *frames, rel_vel)]
        copies[1:3] = [per.Frames(*copies[1:3])]
        for got, want in zip(arrays(kernel(*copies, params, np.array(pairs))),
                             arrays(summary), strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    kernel_trials(record, monkeypatch)
    assert any(strided) and max(first_kept) > engine.PAIR_BUDGET
    assert max(later_kept) > engine.PAIR_BUDGET
