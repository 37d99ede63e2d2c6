"""An agent walks into a wall of stopped agents and brakes on GRM alone.

Stationary obstacles produce no regressive motion in the strict sense, but
with a nonzero contralateral visual angle the frontal cone picks up their
outward image drift.  The approach log shows the strongest GRM signal
growing roughly like 1/distance until it crosses the stop threshold.
"""

import math

import numpy as np

from grmsim import dynamics, engine, perception
from grmsim.dynamics import SimParams

params = SimParams(t_grm=2.0, t_loom=32.0, cva=math.radians(30),
                   p_restart=0.0, horizon_steps=0)

# rows 0..23 are the stopped wall, the last row is the mover
n_wall = 24
pos = [(1.0 + 2.0 * i, 40.0) for i in range(n_wall)] + [(25.0, 18.0)]
heading = [math.pi / 2] * n_wall + [math.radians(75)]
speed = [10.0] * n_wall + [22.0]
moving = [False] * n_wall + [True]
world = engine.make_world(pos, heading, speed, params, moving=moving)
streams = dynamics.trial_streams(0, n_wall + 1)[1]
every_pair = np.ones((n_wall + 1, n_wall + 1), bool)

print(f"mover at 22 mm/s, 15 deg off the wall normal, stop threshold "
      f"{params.t_grm} rad/s, cva {math.degrees(params.cva):.0f} deg\n")
print("   time   wall distance   strongest GRM")
for t in range(4000):
    # read the snapshot the step decides on, so the stop step's row shows
    # the GRM that stopped the mover
    delta = world.centre[-1, :-1]
    clearance = float(np.hypot(delta[:, 0], delta[:, 1]).min())
    # every pair, so the sub-threshold GRM values printed are exact too
    max_grm = perception.world_summaries(world.pos, world.frames, world.motion.rel_vel,
                                         params, every_pair).max_grm[-1]
    world, _ = engine.step(world, streams)
    stopped = not world.moving[-1]
    if t % 40 == 0 or stopped:
        print(f"  {t * params.dt:5.2f}s   {clearance:9.2f} mm   "
              f"{max_grm:8.3f} rad/s")
    if stopped:
        print(f"\nstopped with {clearance:.2f} mm to spare "
              f"(collision distance {params.collision_distance} mm)")
        break
