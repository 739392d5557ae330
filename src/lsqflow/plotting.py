"""Dependency-free SVG rendering of recorded trajectories."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NothingToPlotError
from .simulate import Trajectory, component_series

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

WIDTH, HEIGHT = 860, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 150, 20, 50
MAX_POINTS = 2000  # per-series stride cap keeps documents small


@dataclass(frozen=True)
class PlotSpec:
    series: tuple                 # component names, "error", or "cost"
    xlabel: str = "t"
    ylabel: str = "value"
    path: Optional[str] = None    # destination; None = caller handles output


def _ticks(lo: float, hi: float, count: int = 6):
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def emit_plot(traj: Trajectory, spec: PlotSpec) -> str:
    """Self-contained SVG: one polyline per selected series, linear axes."""
    names = list(spec.series)
    if not names:
        raise NothingToPlotError("plot spec selects no series")
    t = np.asarray(traj.t_or_k, dtype=float)
    columns = [np.asarray(component_series(traj, n), dtype=float) for n in names]

    stride = max(1, int(np.ceil(len(t) / MAX_POINTS)))
    idx = np.arange(0, len(t), stride)
    if idx[-1] != len(t) - 1:
        idx = np.append(idx, len(t) - 1)
    t = t[idx]
    columns = [c[idx] for c in columns]

    x_lo, x_hi = float(t.min()), float(t.max())
    y_lo = min(float(c.min()) for c in columns)
    y_hi = max(float(c.max()) for c in columns)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        X = px(xt)
        parts.append(f'<line x1="{X:.2f}" y1="{MARGIN_T + plot_h}" x2="{X:.2f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{X:.2f}" y="{MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle">{xt:.4g}</text>')
    for yt in _ticks(y_lo, y_hi):
        Y = py(yt)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{Y:.2f}" x2="{MARGIN_L}" '
                     f'y2="{Y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{Y + 4:.2f}" '
                     f'text-anchor="end">{yt:.4g}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle">{spec.xlabel}</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.2f})">{spec.ylabel}</text>')

    # the pixel coordinates of whole columns, in the operation order of px and py
    xs = px(t)
    points = ("%.2f,%.2f " * len(t))[:-1]
    for k, (name, col) in enumerate(zip(names, columns)):
        color = PALETTE[k % len(PALETTE)]
        pts = points % tuple(np.column_stack([xs, py(col)]).ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.3"/>')
        ly = MARGIN_T + 14 + 16 * k
        lx = MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
