"""Parameter-grid sweeps over (CVA, T_grm, T_loom) with parallel trials.

Each (cell, trial) pair gets a seed derived from the base seed by a
SplitMix64-style mixer, so any cell can be re-run in isolation and worker
scheduling cannot change results.  Rows are sorted before emission; the CSV
is byte-identical across runs for the same grid and base seed.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .. import analysis, engine
from ..dynamics import SimParams

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

CSV_HEADER = "cva_deg,t_grm,t_loom,trial,seed,tp,fp,tn,fn,mobility,safety"


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanching 64-bit bijection."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(base_seed: int, cell_index: int, trial_index: int) -> int:
    """Trial seed from (base, cell, trial): absorb each word, then mix."""
    h = base_seed & _MASK
    for word in (cell_index, trial_index):
        h = _mix64((h + _GOLDEN + word) & _MASK)
    return h


@dataclass(frozen=True)
class SweepGrid:
    cva_values_deg: tuple[float, ...]
    t_grm_values: tuple[float, ...]
    t_loom_values: tuple[float, ...]
    trials_per_cell: int = 10
    base_seed: int = 0

    def validate(self) -> "SweepGrid":
        if not (self.cva_values_deg and self.t_grm_values and self.t_loom_values):
            raise ValueError("sweep value lists must be non-empty")
        values = self.cva_values_deg + self.t_grm_values + self.t_loom_values
        if not all(math.isfinite(v) for v in values):
            raise ValueError("sweep values must be finite")
        for name in ("cva_values_deg", "t_grm_values", "t_loom_values"):
            listed = getattr(self, name)
            if len(set(listed)) < len(listed):
                raise ValueError(f"{name} repeats a value")
        if not all(0.0 <= v <= 90.0 for v in self.cva_values_deg):
            raise ValueError("cva_values_deg must lie in [0, 90]")
        if min(self.t_grm_values + self.t_loom_values) < 0.0:
            raise ValueError("threshold values must be non-negative")
        if self.trials_per_cell < 1:
            raise ValueError("need at least one trial per cell")
        return self

    def cells(self) -> list[tuple[float, float, float]]:
        return list(itertools.product(
            self.cva_values_deg, self.t_grm_values, self.t_loom_values))


@dataclass(frozen=True)
class SweepRow:
    cva_deg: float
    t_grm: float
    t_loom: float
    trial: int
    seed: int
    tp: Optional[int]
    fp: Optional[int]
    tn: Optional[int]
    fn: Optional[int]
    mobility: Optional[float]
    safety: Optional[float]
    error: Optional[str] = None

    def cell(self) -> tuple[float, float, float]:
        return (self.cva_deg, self.t_grm, self.t_loom)


@dataclass(frozen=True)
class CellAggregate:
    cva_deg: float
    t_grm: float
    t_loom: float
    n_trials: int
    mean_mobility: Optional[float]
    std_mobility: Optional[float]
    n_mobility: int
    mean_safety: Optional[float]
    std_safety: Optional[float]
    n_safety: int


@dataclass
class SweepTable:
    rows: list[SweepRow]
    aggregates: list[CellAggregate]


def _run_one(task) -> SweepRow:
    params, cva_deg, t_grm, t_loom, trial, seed = task
    cell = replace(params, cva=math.radians(cva_deg), t_grm=t_grm, t_loom=t_loom)
    try:
        result = engine.run_trial(cell, seed)
    except Exception as exc:  # the sweep must survive individual trial failures
        return SweepRow(cva_deg, t_grm, t_loom, trial, seed,
                        None, None, None, None, None, None, error=str(exc))
    c, m = result.counts, result.metrics
    return SweepRow(cva_deg, t_grm, t_loom, trial, seed,
                    c.tp, c.fp, c.tn, c.fn, m.mobility, m.safety)


def aggregate_rows(rows: Sequence[SweepRow]) -> list[CellAggregate]:
    """Per-cell means over trials, skipping undefined metrics (and counting them)."""
    by_cell: dict[tuple[float, float, float], list[SweepRow]] = {}
    for row in rows:
        by_cell.setdefault(row.cell(), []).append(row)
    aggregates = []
    for cell in sorted(by_cell):
        members = by_cell[cell]
        mob = analysis.mean_std_defined([r.mobility for r in members])
        saf = analysis.mean_std_defined([r.safety for r in members])
        aggregates.append(CellAggregate(
            cva_deg=cell[0], t_grm=cell[1], t_loom=cell[2],
            n_trials=len(members),
            mean_mobility=mob[0], std_mobility=mob[1], n_mobility=mob[2],
            mean_safety=saf[0], std_safety=saf[1], n_safety=saf[2]))
    return aggregates


def run_sweep(grid: SweepGrid, params: SimParams,
              workers: Optional[int] = None) -> SweepTable:
    """Run every (cell, trial) and aggregate; deterministic in (grid, base_seed)."""
    grid.validate()
    params.validate()
    tasks = []
    for cell_index, (cva_deg, t_grm, t_loom) in enumerate(grid.cells()):
        for trial in range(grid.trials_per_cell):
            seed = derive_seed(grid.base_seed, cell_index, trial)
            tasks.append((params, cva_deg, t_grm, t_loom, trial, seed))

    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("need at least one worker")
    workers = min(workers, len(tasks))
    if workers == 1:
        rows = [_run_one(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, tasks, chunksize=chunk))

    rows.sort(key=lambda r: (r.cva_deg, r.t_grm, r.t_loom, r.trial))
    return SweepTable(rows=rows, aggregates=aggregate_rows(rows))


def _format_number(value: float) -> str:
    return f"{value:g}"


def _format_metric(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _format_count(value: Optional[int]) -> str:
    return "" if value is None else str(value)


def emit_csv(table: SweepTable, path) -> Path:
    """Write the per-trial rows; header and formats are part of the contract."""
    path = Path(path)
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(",".join([
            _format_number(r.cva_deg), _format_number(r.t_grm),
            _format_number(r.t_loom), str(r.trial), str(r.seed),
            _format_count(r.tp), _format_count(r.fp),
            _format_count(r.tn), _format_count(r.fn),
            _format_metric(r.mobility), _format_metric(r.safety)]))
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc
    return path


def parse_csv(path) -> SweepTable:
    """Read a sweep CSV back; undefined metrics stay None."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a sweep CSV (bad header)")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        f = line.split(",")
        if len(f) != 11:
            raise ValueError(f"{path}: malformed row {line!r}")
        rows.append(SweepRow(
            cva_deg=float(f[0]), t_grm=float(f[1]), t_loom=float(f[2]),
            trial=int(f[3]), seed=int(f[4]),
            tp=int(f[5]) if f[5] else None, fp=int(f[6]) if f[6] else None,
            tn=int(f[7]) if f[7] else None, fn=int(f[8]) if f[8] else None,
            mobility=float(f[9]) if f[9] else None,
            safety=float(f[10]) if f[10] else None))
    return SweepTable(rows=rows, aggregates=aggregate_rows(rows))
