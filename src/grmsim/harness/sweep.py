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
from ..dynamics import SimParams, _require_integers

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanching 64-bit bijection."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(base_seed: int, cell_index: int, trial_index: int) -> int:
    """Trial seed from (base, cell, trial): absorb each word, then mix."""
    h = int(base_seed) & _MASK
    for word in (cell_index, trial_index):
        h = _mix64((h + _GOLDEN + word) & _MASK)
    return h


def _valid_cva(value: float) -> bool:
    """A grid CVA in degrees, for ``SweepGrid.validate`` and the CSV reader."""
    return 0.0 <= value <= 90.0


def _valid_threshold(value: float) -> bool:
    """A grid threshold in rad/s, for ``SweepGrid.validate`` and the CSV reader."""
    return 0.0 <= value < math.inf


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
            # values the CSV prints alike would give one (cell, trial) two rows
            if len({_format_number(v) for v in listed}) < len(listed):
                raise ValueError(f"{name} repeats a value at the CSV's 6 significant digits")
        if not all(map(_valid_cva, self.cva_values_deg)):
            raise ValueError("cva_values_deg must lie in [0, 90]")
        if not all(map(_valid_threshold, self.t_grm_values + self.t_loom_values)):
            raise ValueError("threshold values must be non-negative")
        _require_integers(self, "trials_per_cell", "base_seed")
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
        # the CPUs this process may run on, which taskset or a cgroup can limit
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise ValueError("need at least one worker")
    workers = min(workers, len(tasks))
    if workers == 1:
        rows = [_run_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, tasks))

    rows.sort(key=lambda r: (r.cva_deg, r.t_grm, r.t_loom, r.trial))
    return SweepTable(rows=rows, aggregates=aggregate_rows(rows))


def _format_number(value: float) -> str:
    return f"{value:g}"


def _column(name: str, write, kind, valid, blank: bool = False):
    def read(text: str):
        if blank and not text:
            return None
        value = kind(text)
        if write(value) != text or not valid(value):
            raise ValueError(f"{name} {text!r} is not a value emit_csv writes")
        return value
    return name, (lambda v: "" if v is None else write(v)) if blank else write, read


# The sweep CSV's one format: (field, writer, reader) per column.  A reader
# takes only text its writer reproduces exactly (no "+3", "1_000" or "30.0")
# and refuses what its ``valid`` refuses.  Counts and metrics are blank ("" for
# None) for a failed trial, and a metric also where it is undefined.
_COLUMNS = (
    _column("cva_deg", _format_number, float, _valid_cva),
    *(_column(f, _format_number, float, _valid_threshold) for f in ("t_grm", "t_loom")),
    *(_column(f, str, int, lambda v: v >= 0) for f in ("trial", "seed")),
    *(_column(f, str, int, lambda v: v >= 0, True) for f in ("tp", "fp", "tn", "fn")),
    *(_column(f, "{:.6f}".format, float, lambda v: 0.0 <= v <= 1.0, True)
      for f in ("mobility", "safety")),
)
CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)


def emit_csv(table: SweepTable, path) -> Path:
    """Write the per-trial rows; header and formats are part of the contract."""
    path = Path(path)
    lines = [CSV_HEADER]
    lines += [",".join(write(getattr(r, name)) for name, write, _ in _COLUMNS)
              for r in table.rows]
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc
    return path


def parse_csv(path) -> SweepTable:
    """Read a sweep CSV back; undefined metrics stay None.

    Values ``emit_csv`` cannot write are rejected, and so is a second row for
    one (cell, trial): it would count that trial twice in the aggregates.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a sweep CSV (bad header)")
    rows, seen = [], set()
    for line in lines[1:]:
        if not line:
            continue
        texts = line.split(",")
        if len(texts) != len(_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        try:
            row = SweepRow(**{name: read(text) for (name, _, read), text in zip(_COLUMNS, texts)})
        except ValueError as exc:
            raise ValueError(f"{path}: bad value in row {line!r}: {exc}") from exc
        if (row.cell(), row.trial) in seen:
            raise ValueError(f"{path}: duplicate (cell, trial) row {line!r}")
        seen.add((row.cell(), row.trial))
        rows.append(row)
    return SweepTable(rows=rows, aggregates=aggregate_rows(rows))
