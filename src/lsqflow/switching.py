"""Periodically switched network topologies for the saddle-point flow.

A switching signal cycles through a list of graphs, holding each for T
seconds. The dual variable then chases a different affine set of limits
per graph; when those sets are disjoint (the graphs' predicted limits
from one start differ, see :func:`lsqflow.spectral.predict_v_limit`) the
state keeps commuting between them, which is visible as an oscillation
of the consensus error at the switching frequency. Fast switching
between individually non-convergent graphs can nevertheless pull the
error into a small neighborhood of zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FingerprintMismatchError
from .graphs import Graph, _node_index, graph_from_dict, laplacian, spectrum, support_report
from .problem import NetworkLinearEquation
from .simulate import Trajectory, _run, _run_length
from .spectral import assemble


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant graph schedule: index(t) = floor(t/T) mod len."""

    period_T: float
    graphs: tuple

    def __post_init__(self):
        if not 0 < self.period_T < math.inf:
            raise ValueError("period_T must be positive and finite")
        if len(self.graphs) == 0:
            raise ValueError("signal needs at least one graph")
        sizes = {g.n_nodes for g in self.graphs}
        if len(sizes) != 1:
            raise DimensionMismatchError(f"graphs disagree on node count: {sizes}")

    def index_at(self, t: float) -> int:
        return int(t // self.period_T) % len(self.graphs)


def simulate_switching(problem: NetworkLinearEquation, signal: SwitchingSignal,
                       x0, v0, step_h: float, t_end: float,
                       record_every: int = 10) -> Trajectory:
    """Piecewise RK4 with switch instants aligned to the step grid.

    The state is continuous across switches; only the active Laplacian
    changes. Each dwell interval is one segment of the lifting engine, with
    consecutive intervals on the same graph merged, so a one-graph signal
    runs exactly like :func:`simulate_ct`. Alignment is a precondition,
    not a sub-stepping feature: step_h must divide period_T and t_end
    must be a whole number of periods.
    """
    steps, dwell = _run_length(step_h, t_end, record_every, signal.period_T)
    distinct = list(dict.fromkeys(signal.graphs))
    flows = [assemble(problem, g) for g in distinct]
    return _run(flows[0], [f.M for f in flows], [distinct.index(g) for g in signal.graphs],
                steps, dwell, x0, v0, step_h, "rk4", record_every, t_end=t_end,
                period_T=signal.period_T,
                graphs=[g.label or f"custom-{g.n_nodes}" for g in signal.graphs])


def tail_sup_error(traj: Trajectory, tail_fraction: float = 0.2) -> float:
    """Supremum of the squared consensus error over the trailing window."""
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must be in (0, 1)")
    n = len(traj.error)
    if n == 0:
        raise ValueError("empty trajectory")
    return float(traj.error[int((1.0 - tail_fraction) * n):].max())


def oscillation_period(traj: Trajectory, lag_min: float, lag_max: float,
                       settle_fraction: float = 0.6) -> float:
    """Estimate the period of the error signal by self-matching lags.

    Over the samples after ``settle_fraction`` of the run, computes the
    mean absolute mismatch between the signal and its lagged copy for
    every lag in [lag_min, lag_max] and returns the smallest lag whose
    mismatch is within 5% of the best one. The run must be long enough
    for transients to have decayed out of the matched window.
    """
    t = traj.t_or_k
    if len(t) < 10:
        raise ValueError("trajectory too short for period estimation")
    dt = float(t[1] - t[0])
    if np.abs(np.diff(t) - dt).max() > 1e-9 * max(1.0, abs(dt)):
        raise ValueError("period estimation needs uniform sampling")
    tail = traj.error[int(settle_fraction * len(t)):]
    lo_lag = max(2, int(round(lag_min / dt)))
    hi_lag = int(round(lag_max / dt))
    if hi_lag >= len(tail):
        raise ValueError("lag_max exceeds the settled window")
    if hi_lag < lo_lag:
        raise ValueError(f"no lag of at least 2 samples lies in [{lag_min}, {lag_max}]")
    lags = np.arange(lo_lag, hi_lag + 1)
    mismatch = np.array([float(np.mean(np.abs(tail[l:] - tail[:-l]))) for l in lags])
    scale = float(np.mean(np.abs(tail - tail.mean())))
    best = mismatch.min()
    good = lags[mismatch <= best * 1.05 + 1e-9 * max(scale, 1e-300)]
    return float(good[0] * dt)


def check_support_fingerprint(graph: Graph, allowed_supports) -> None:
    """Verify that the eigenvector supports are exactly the declared ones.

    Requires a simple Laplacian spectrum (supports of repeated
    eigenspaces depend on the basis choice) and compares the set of
    supports of the eigenvector basis against ``allowed_supports``.
    Raises :class:`FingerprintMismatchError` on any deviation.
    """
    report = support_report(spectrum(laplacian(graph)))
    if not report.simple_spectrum:
        raise FingerprintMismatchError(
            f"{graph!r}: repeated Laplacian eigenvalues, supports are basis-dependent"
        )
    found = set(report.supports)
    wanted = {frozenset(map(_node_index, s)) for s in allowed_supports}
    if found != wanted:
        raise FingerprintMismatchError(
            f"{graph!r}: eigenvector supports {sorted(map(sorted, found))} "
            f"do not match declared {sorted(map(sorted, wanted))}"
        )


def load_graph_pair(path) -> tuple:
    """Load and fingerprint-validate the pinned switching graph pair.

    The fixture states, for each graph, the exact set of eigenvector
    supports it must produce; any candidate edge list that fails this
    spectral fingerprint is rejected at load time.
    """
    with open(path) as fh:
        data = json.load(fh)
    graphs = [graph_from_dict(g) for g in data["graphs"]]
    supports = data["required_supports"]
    if len(graphs) != len(supports):
        raise FingerprintMismatchError("fixture lists differ in length")
    for g, allowed in zip(graphs, supports):
        check_support_fingerprint(g, allowed)
    return tuple(graphs)
