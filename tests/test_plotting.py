import re

import numpy as np

import lsqflow as lf
from lsqflow import plotting
from lsqflow.plotting import PlotSpec, emit_plot


def per_value_points(t, col) -> str:
    """Reference polyline: each point formatted on its own, as emit_plot
    did before it formatted whole columns."""
    x_lo, x_hi = float(t.min()), float(t.max())
    y_lo, y_hi = float(col.min()), float(col.max())
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = plotting.WIDTH - plotting.MARGIN_L - plotting.MARGIN_R
    plot_h = plotting.HEIGHT - plotting.MARGIN_T - plotting.MARGIN_B
    return " ".join(
        f"{plotting.MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo):.2f},"
        f"{plotting.MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo)):.2f}"
        for x, y in zip(t.tolist(), col.tolist()))


def test_polyline_points_match_per_value_format():
    # values from 1e-12 to 1e12 and their negatives: many points land
    # close to a rounding boundary of two decimals
    rng = np.random.default_rng(3)
    n = 1500
    series = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    traj = lf.Trajectory(t_or_k=np.cumsum(rng.uniform(0.0, 1.0, n)), x=series.reshape(n, 1),
                         v=np.zeros((n, 1)), error=np.zeros(n), cost=np.zeros(n),
                         y_ref=np.zeros(1), metadata={"n_nodes": 1, "dim": 1})
    svg = emit_plot(traj, PlotSpec(series=("x_1_1",)))
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    assert points == per_value_points(traj.t_or_k, series)
