"""Flat ``key = value`` configuration files.

Keys mirror the simulation parameter table (``dt``, ``R``, ``N``,
``d_eye``, ``v_min``, ``v_max``, ``P01``, ``T_loom``, ``T_grm``, ``CVA_deg``,
``theta_i_deg``, ``delta_sigma_deg``, ``lambda_sigma``) plus harness keys.
Angles are degrees in files and nowhere else.  Lines starting with ``#`` and
blank lines are ignored; ``#`` also starts an inline comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..dynamics import SimParams
from .sweep import SweepGrid


class ConfigError(Exception):
    """Malformed configuration: unknown key, bad value, or missing file."""


@dataclass(frozen=True)
class HarnessConfig:
    params: SimParams
    grid: Optional[SweepGrid]


_PARAM_KEYS = {
    "dt": ("dt", float),
    "R": ("arena", float),
    "N": ("n_agents", int),
    "d_eye": ("d_eye", float),
    "v_min": ("v_min", float),
    "v_max": ("v_max", float),
    "P01": ("p_restart", float),
    "T_loom": ("t_loom", float),
    "T_grm": ("t_grm", float),
    "CVA_deg": ("cva", "deg"),
    "theta_i_deg": ("ipsi_field", "deg"),
    "delta_sigma_deg": ("sigma_jump", "deg"),
    "lambda_sigma": ("sigma_decay", float),
    "horizon_steps": ("horizon_steps", int),
    "collision_distance": ("collision_distance", float),
    "extrapolation_horizon": ("predict_horizon", float),
}

_GRID_LIST_KEYS = ("cva_values_deg", "t_grm_values", "t_loom_values")


def _parse_scalar(key: str, raw: str, kind):
    try:
        if kind is int:
            return int(raw)
        value = float(raw)
        return math.radians(value) if kind == "deg" else value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def _parse_list(key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"empty list for {key!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad list value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str, origin: str = "<config>") -> HarnessConfig:
    params_kwargs = {}
    grid_kwargs = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in key_lines:
            raise ConfigError(f"{origin}:{lineno}: key {key!r} repeats line {key_lines[key]}")
        key_lines[key] = lineno
        if key in _PARAM_KEYS:
            field, kind = _PARAM_KEYS[key]
            params_kwargs[field] = _parse_scalar(key, raw, kind)
        elif key in _GRID_LIST_KEYS:
            grid_kwargs[key] = _parse_list(key, raw)
        elif key in ("trials_per_cell", "base_seed"):
            grid_kwargs[key] = _parse_scalar(key, raw, int)
        else:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")

    try:
        params = SimParams(**params_kwargs).validate()
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    grid = None
    if any(k in grid_kwargs for k in _GRID_LIST_KEYS):
        missing = [k for k in _GRID_LIST_KEYS if k not in grid_kwargs]
        if missing:
            raise ConfigError(f"{origin}: incomplete sweep grid, missing {missing}")
        try:
            grid = SweepGrid(
                cva_values_deg=grid_kwargs["cva_values_deg"],
                t_grm_values=grid_kwargs["t_grm_values"],
                t_loom_values=grid_kwargs["t_loom_values"],
                trials_per_cell=grid_kwargs.get("trials_per_cell", 10),
                base_seed=grid_kwargs.get("base_seed", 0),
            ).validate()
        except ValueError as exc:
            raise ConfigError(f"{origin}: {exc}") from exc
    elif any(k in grid_kwargs for k in ("trials_per_cell", "base_seed")):
        raise ConfigError(f"{origin}: sweep keys given without value lists")

    return HarnessConfig(params=params, grid=grid)


def parse_config(path) -> HarnessConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))
