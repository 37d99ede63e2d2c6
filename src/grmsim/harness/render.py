"""SVG output: safety/mobility scatter plots and trial frame dumps.

Plain string assembly, no plotting dependency; output is deterministic for
identical inputs.  Frames reproduce the symbol language of the trial
animations as stills: one polygon per agent, a green (warranted) or red
(false-alarm) circle around stopped agents, segments to the agents that
caused the stop, and temporarily enlarged bodies for colliding pairs.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import perception
from ..analysis import TrialResult

_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
            "#aa3377", "#bbbbbb", "#994455", "#997700", "#004488")

_LABEL_COLORS = {"TP": "#228833", "FP": "#cc3311", "excluded": "#888888"}

COLLISION_FLASH_STEPS = 25


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def emit_scatter_svg(aggregates: Sequence, path) -> Path:
    """Scatter of per-cell (mobility, safety) means on the unit square.

    Each marker carries its cell parameters in a ``<title>`` element and sits
    on a bar tilted by the cell's contralateral visual angle.  Cells with an
    undefined mean on either axis are skipped (noted in a comment).
    """
    if not aggregates:
        raise ValueError("no aggregates to plot")
    size, margin = 420, 60
    span = size - 2 * margin

    def sx(v):
        return margin + v * span

    def sy(v):
        return size - margin - v * span

    body = [f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>']
    body.append(f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
                'fill="none" stroke="#222" stroke-width="1"/>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        x, y = sx(tick), sy(tick)
        body.append(f'<line x1="{x:.1f}" y1="{size - margin}" x2="{x:.1f}" '
                    f'y2="{size - margin + 5}" stroke="#222"/>')
        body.append(f'<line x1="{margin - 5}" y1="{y:.1f}" x2="{margin}" '
                    f'y2="{y:.1f}" stroke="#222"/>')
        body.append(f'<text x="{x:.1f}" y="{size - margin + 18}" font-size="11" '
                    f'text-anchor="middle">{tick:g}</text>')
        body.append(f'<text x="{margin - 8}" y="{y + 4:.1f}" font-size="11" '
                    f'text-anchor="end">{tick:g}</text>')
    body.append(f'<text x="{size / 2}" y="{size - 14}" font-size="13" '
                'text-anchor="middle">mobility</text>')
    body.append(f'<text x="16" y="{size / 2}" font-size="13" text-anchor="middle" '
                f'transform="rotate(-90 16 {size / 2})">safety</text>')

    skipped = 0
    for agg in aggregates:
        if agg.mean_mobility is None or agg.mean_safety is None:
            skipped += 1
            continue
        x, y = sx(agg.mean_mobility), sy(agg.mean_safety)
        title = (f"CVA={agg.cva_deg:g} deg, T_grm={agg.t_grm:g}, "
                 f"T_loom={agg.t_loom:g}: mobility={agg.mean_mobility:.3f}, "
                 f"safety={agg.mean_safety:.3f} "
                 f"({agg.n_mobility}/{agg.n_trials} trials)")
        angle = math.radians(agg.cva_deg)
        dx, dy = 9 * math.cos(angle), 9 * math.sin(angle)
        body.append(f'<line x1="{x - dx:.2f}" y1="{y + dy:.2f}" '
                    f'x2="{x + dx:.2f}" y2="{y - dy:.2f}" '
                    'stroke="#555" stroke-width="1.5"/>')
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#3a6ea5" '
                    f'fill-opacity="0.75"><title>{title}</title></circle>')
    if skipped:
        body.append(f"<!-- {skipped} cells with undefined means skipped -->")

    path = Path(path)
    try:
        path.write_text(_svg_document(size, size, body), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write scatter SVG to {path}: {exc}") from exc
    return path


def emit_frames(result: TrialResult, out_dir, stride: int = 100) -> list[Path]:
    """One SVG still every ``stride`` steps from a trajectory-logged trial."""
    if result.trajectory is None:
        raise ValueError("trial was run without trajectory logging")
    if stride < 1:
        raise ValueError("stride must be positive")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    params = result.params
    scale = 10.0
    size = int(round(params.arena * scale))
    traj = result.trajectory
    # stops are in time order, so one forward pass keeps each agent's latest
    # stop before the frame; run_trial numbers agents by trajectory column
    stop_info = list(zip(result.stops, result.stop_labels))
    latest, seen = {}, 0

    written = []
    # one frame per `stride` simulated steps: a T-step log yields T/stride frames
    for s in range(0, len(traj.pos) - 1, stride):
        while seen < len(stop_info) and stop_info[seen][0].t < s:
            latest[stop_info[seen][0].agent] = stop_info[seen]
            seen += 1
        body = [f'<rect x="0" y="0" width="{size}" height="{size}" fill="#fcfcf8"/>',
                f'<rect x="0" y="0" width="{size}" height="{size}" fill="none" '
                'stroke="#999"/>']
        flashing = {ident for c in result.collisions
                    if c.t <= s < c.t + COLLISION_FLASH_STEPS for ident in c.pair}
        grow = np.array([[[1.6 if i in flashing else 1.0]] for i in range(len(traj.pos[s]))])
        # perception's body frames, colliding bodies enlarged: the outline,
        # then the two eyes and the body centre, which is the position exactly
        offsets = perception.body_frames(traj.heading[s], params).offsets
        world = traj.pos[s][:, None, :] + offsets * grow
        px, py = world[..., 0] * scale, (params.arena - world[..., 1]) * scale
        for i in range(len(world)):
            points = " ".join(f"{u:.2f},{v:.2f}" for u, v in zip(px[i, :-3], py[i, :-3]))
            body.append(f'<polygon points="{points}" '
                        f'fill="{_PALETTE[i % len(_PALETTE)]}" stroke="#333" '
                        'stroke-width="0.8"/>')
            if traj.moving[s, i] == 0 and i in latest:
                stop, label = latest[i]
                color = _LABEL_COLORS.get(label, "#888888")
                x, y = px[i, -1], py[i, -1]
                body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{2.0 * scale:.1f}" '
                            f'fill="none" stroke="{color}" stroke-width="2"/>')
                for cause in sorted(stop.cause_agents):
                    body.append(f'<line x1="{x:.2f}" y1="{y:.2f}" x2="{px[cause, -1]:.2f}" '
                                f'y2="{py[cause, -1]:.2f}" stroke="{color}" stroke-width="1" '
                                'stroke-dasharray="4 3"/>')
        frame_path = out_dir / f"frame_{s:06d}.svg"
        try:
            frame_path.write_text(_svg_document(size, size, body), encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write frame to {frame_path}: {exc}") from exc
        written.append(frame_path)
    return written
