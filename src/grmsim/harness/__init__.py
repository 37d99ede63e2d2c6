"""Sweep harness: configuration, grid execution, CSV/SVG output, CLI."""

from .config import ConfigError, HarnessConfig, parse_config, parse_config_text
from .render import emit_frames, emit_scatter_svg
from .sweep import (CellAggregate, SweepGrid, SweepRow, SweepTable,
                    aggregate_rows, derive_seed, emit_csv, parse_csv, run_sweep)
from .verify import TheoremReport, verify_theorems

__all__ = [
    "CellAggregate", "ConfigError", "HarnessConfig", "SweepGrid", "SweepRow",
    "SweepTable", "TheoremReport", "aggregate_rows", "derive_seed", "emit_csv",
    "emit_frames", "emit_scatter_svg",
    "parse_config", "parse_config_text", "parse_csv", "run_sweep",
    "verify_theorems",
]
