"""Command-line interface.

Subcommands: ``simulate`` (one trial, optional frame dump), ``sweep``
(parameter grid to CSV), ``verify`` (theorem suites), ``plot`` (CSV to SVG
scatter).  Exit codes: 0 success, 1 verification counterexample, 2
configuration or argument error or an unwritable ``--out``, 3 sweep
written but some trials failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .. import engine
from ..dynamics import SimParams
from . import render, sweep as sweep_mod, verify as verify_mod
from .config import ConfigError, HarnessConfig, parse_config


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid ... value" message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grmsim",
        description="Deterministic multi-agent simulator for GRM and "
                    "looming collision avoidance")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one trial")
    simulate.add_argument("--config", type=Path, help="key = value config file")
    simulate.add_argument("--seed", type=_int_at_least(0), default=0)
    simulate.add_argument("--out", type=Path, help="directory for frame dumps")
    simulate.add_argument("--stride", type=_int_at_least(1), default=100,
                          help="steps between dumped frames")

    sweep = sub.add_parser("sweep", help="run a parameter-grid sweep")
    sweep.add_argument("--config", type=Path, required=True,
                       help="config file with sweep grid keys")
    sweep.add_argument("--out", type=Path, required=True, help="CSV output path")
    sweep.add_argument("--trials", type=_int_at_least(1), help="override trials per cell")
    sweep.add_argument("--workers", type=_int_at_least(1), help="worker processes")

    verify = sub.add_parser("verify", help="run the theorem verification suites")
    verify.add_argument("--samples", type=_int_at_least(1), default=1000)
    verify.add_argument("--seed", type=_int_at_least(0), default=0)
    verify.add_argument("--out", type=Path, help="report output path")

    plot = sub.add_parser("plot", help="render a sweep CSV as an SVG scatter")
    plot.add_argument("csv", type=Path, help="sweep CSV produced by `sweep`")
    plot.add_argument("--out", type=Path, required=True, help="SVG output path")
    plot.add_argument("--bar-glyph", action="store_true",
                      help="tilt a bar by each cell's CVA")
    return parser


def _check_out_file(path: Path) -> None:
    """Reject an output file path that cannot be written, before any work."""
    if path.is_dir():
        raise ConfigError(f"--out {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {path}: {path.parent} is not a directory")


def _load_config(path) -> HarnessConfig:
    if path is None:
        return HarnessConfig(params=SimParams(), grid=None)
    return parse_config(path)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.out is not None:
        existing = next(p for p in (args.out, *args.out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} is not a directory")
    result = engine.run_trial(cfg.params, args.seed,
                              log_trajectories=args.out is not None)
    c, m = result.counts, result.metrics
    fmt = lambda v: "undefined" if v is None else f"{v:.6f}"
    print(f"seed {args.seed}: {cfg.params.horizon_steps} steps, "
          f"{len(result.stops)} stops, {len(result.collisions)} collisions")
    print(f"counts: tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn}")
    print(f"mobility={fmt(m.mobility)} safety={fmt(m.safety)}")
    if args.out is not None:
        frames = render.emit_frames(result, args.out, stride=args.stride)
        print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if cfg.grid is None:
        raise ConfigError(f"{args.config}: sweep requires grid keys "
                          "(cva_values_deg, t_grm_values, t_loom_values)")
    _check_out_file(args.out)
    grid = cfg.grid
    if args.trials is not None:
        grid = replace(grid, trials_per_cell=args.trials)
    table = sweep_mod.run_sweep(grid, cfg.params, workers=args.workers)
    sweep_mod.emit_csv(table, args.out)
    n_cells = len(table.aggregates)
    print(f"wrote {len(table.rows)} rows ({n_cells} cells) to {args.out}")
    failures = [r for r in table.rows if r.error]
    if not failures:
        return 0
    for r in failures:
        print(f"trial failed: cva={r.cva_deg:g} t_grm={r.t_grm:g} t_loom={r.t_loom:g} "
              f"trial={r.trial} seed={r.seed}: {r.error}", file=sys.stderr)
    print(f"error: {len(failures)} of {len(table.rows)} trial(s) failed", file=sys.stderr)
    return 3


def _cmd_verify(args) -> int:
    if args.out is not None:
        _check_out_file(args.out)
    report = verify_mod.verify_theorems(
        sample_count=args.samples, seed=args.seed, report_path=args.out)
    sys.stdout.write(report.render())
    return 0 if report.passed else 1


def _cmd_plot(args) -> int:
    _check_out_file(args.out)
    try:
        table = sweep_mod.parse_csv(args.csv)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if not table.aggregates:
        raise ConfigError(f"{args.csv}: no sweep rows to plot")
    render.emit_scatter_svg(table.aggregates, args.out, bar_glyph=args.bar_glyph)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "sweep": _cmd_sweep,
                "verify": _cmd_verify, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # writing --out failed
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
