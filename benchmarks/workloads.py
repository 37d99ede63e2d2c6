"""The benchmark's workloads, built from the repository's configs and a seed.

Every workload is a sweep grid over some base ``SimParams``: the one-process
workloads (``desk_cell``, ``crowd_alarm``) are one cell whose trials the
benchmark runs back to back with ``engine.run_trial``; ``fullscale_sample``
hands its grid to ``run_sweep`` with a process pool.  Trial seeds always come
from ``derive_seed(seed, cell, trial)``, exactly as ``run_sweep`` derives
them, so the same workload seed gives the same trials on either path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

from grmsim.dynamics import SimParams
from grmsim.harness import config, sweep

# Steps in one fullscale trial and trials in the fullscale grid
# (configs/fullscale.cfg: 10 x 10 x 10 cells x 50 trials of 10 000 steps).
FULLSCALE_STEPS = 10_000
FULLSCALE_TRIALS = 50_000


@dataclass(frozen=True)
class Workload:
    name: str
    params: SimParams
    grid: sweep.SweepGrid
    workers: int
    pooled: bool  # True: one run_sweep call; False: sequential run_trial calls

    def trials(self) -> list[tuple[SimParams, int]]:
        """(cell params, trial seed) for every trial, in run_sweep's row order."""
        out = []
        for cell_index, (cva_deg, t_grm, t_loom) in enumerate(self.grid.cells()):
            cell = replace(self.params, cva=math.radians(cva_deg),
                           t_grm=t_grm, t_loom=t_loom)
            for trial in range(self.grid.trials_per_cell):
                out.append((cell, sweep.derive_seed(self.grid.base_seed, cell_index, trial)))
        return out

    def total_steps(self) -> int:
        return sum(params.horizon_steps for params, _ in self.trials())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _one_cell(name: str, params: SimParams, trials: int, seed: int) -> Workload:
    grid = sweep.SweepGrid(
        cva_values_deg=(round(math.degrees(params.cva), 9),),
        t_grm_values=(params.t_grm,), t_loom_values=(params.t_loom,),
        trials_per_cell=trials, base_seed=seed)
    return Workload(name, params, grid.validate(), workers=1, pooled=False)


def desk_cell(root: Path, seed: int) -> Workload:
    """The configs/desk.cfg base cell: N=10, CVA 30, T_grm 6, T_loom 32, 2000 steps."""
    cfg = config.parse_config(root / "configs" / "desk.cfg")
    return _one_cell("desk_cell", cfg.params, 8, seed)


def crowd_alarm(root: Path, seed: int) -> Workload:
    """N=30 with the low fullscale thresholds T_grm 1, T_loom 4, 2000 steps."""
    desk = config.parse_config(root / "configs" / "desk.cfg")
    full = config.parse_config(root / "configs" / "fullscale.cfg")
    t_grm, t_loom = 1.0, 4.0
    if t_grm not in full.grid.t_grm_values or t_loom not in full.grid.t_loom_values:
        raise ValueError("crowd_alarm thresholds must come from the fullscale grid")
    params = replace(desk.params, n_agents=30, t_grm=t_grm, t_loom=t_loom).validate()
    return _one_cell("crowd_alarm", params, 2, seed)


# Stratified corners of the fullscale grid: CVA 0 and 90 degrees, T_grm 0.1
# (stops on almost any regressive motion) and 32 (GRM effectively off), at a
# looming threshold of 4 that fires in every cell.  4 trials = 2 x nproc on
# the 2-core reference box.
FULLSCALE_SUBSET = {"cva_values_deg": (0.0, 90.0), "t_grm_values": (0.1, 32.0),
                    "t_loom_values": (4.0,)}


def fullscale_sample(root: Path, seed: int) -> Workload:
    cfg = config.parse_config(root / "configs" / "fullscale.cfg")
    for key, values in FULLSCALE_SUBSET.items():
        if not set(values) <= set(getattr(cfg.grid, key)):
            raise ValueError(f"fullscale subset {key} {values} is not in the config grid")
    if cfg.params.horizon_steps != FULLSCALE_STEPS:
        raise ValueError("fullscale trials must be 10 000 steps")
    grid = replace(cfg.grid, trials_per_cell=1, base_seed=seed,
                   **FULLSCALE_SUBSET).validate()
    n_trials = len(grid.cells()) * grid.trials_per_cell
    workers = max(1, min(nproc(), n_trials // 2))
    return Workload("fullscale_sample", cfg.params, grid, workers, pooled=True)


WORKLOADS = {"desk_cell": desk_cell, "crowd_alarm": crowd_alarm,
             "fullscale_sample": fullscale_sample}


def make(root: Path, name: str, seed: int) -> Workload:
    """Parse the configs and build the named workload's inputs from ``seed``."""
    return WORKLOADS[name](Path(root), seed)
