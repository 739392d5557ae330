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

from dataclasses import dataclass

from .errors import DimensionMismatchError
from .problem import NetworkLinearEquation
from .simulate import DEFAULT_RECORD_EVERY, Trajectory, _is_number, _run, _run_length
from .spectral import assemble


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant graph schedule: index(t) = floor(t/T) mod len."""

    period_T: float
    graphs: tuple

    def __post_init__(self):
        if not (_is_number(self.period_T) and self.period_T > 0):
            raise ValueError("period_T must be positive and finite")
        if len(self.graphs) == 0:
            raise ValueError("signal needs at least one graph")
        sizes = {g.n_nodes for g in self.graphs}
        if len(sizes) != 1:
            raise DimensionMismatchError(f"graphs disagree on node count: {sizes}")


def simulate_switching(problem: NetworkLinearEquation, signal: SwitchingSignal,
                       x0, v0, step_h: float, t_end: float,
                       record_every: int = DEFAULT_RECORD_EVERY) -> Trajectory:
    """Piecewise RK4 with switch instants aligned to the step grid.

    The state is continuous across switches; only the active Laplacian
    changes. The schedule is built from one period of the signal: its
    dwell intervals, consecutive ones on the same graph merged, are one
    cycle of segments of the lifting engine that repeats between a head
    and a tail, and a one-graph signal is one segment, run exactly like
    :func:`simulate_ct`. The engine runs the schedule by the cycle: it
    reaches each cycle's start through the cycle map's powers of two and
    then runs each segment of the cycle for all cycles at once. Alignment
    is a precondition, not a sub-stepping feature: step_h must divide
    period_T and t_end must be a whole number of periods.
    """
    steps, dwell = _run_length(step_h, t_end, record_every, signal.period_T)
    distinct = list(dict.fromkeys(signal.graphs))
    flows = [assemble(problem, g) for g in distinct]
    return _run(flows[0], [f.M for f in flows], [distinct.index(g) for g in signal.graphs],
                steps, dwell, x0, v0, step_h, "rk4", record_every, t_end=t_end,
                period_T=signal.period_T,
                graphs=[g.name for g in signal.graphs])
