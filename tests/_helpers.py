"""Random instance generators and reference oracles shared across test
modules."""

import json
from dataclasses import dataclass

import numpy as np

import lsqflow as lf
from lsqflow.graphs import _eigenspace_members, _node_index, _support_of
from lsqflow.problem import RANK_RTOL
from lsqflow.simulate import component_series
from lsqflow.spectral import _costs

ROW_PATTERNS = ("generic", "pair", "blind3", "blind2")


def random_problem(seed, n=None, m=None):
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if m is None:
        m = int(rng.integers(1, 5))
    if n is None:
        n = m + int(rng.integers(1, 6))
    while True:
        H = rng.standard_normal((n, m))
        if np.linalg.matrix_rank(H) == m:
            break
    z = rng.standard_normal(n)
    return lf.NetworkLinearEquation(H, z)


def pattern_rows(pattern, n, seed=0):
    """Seeded rows with a structural defect: ``generic`` (m = 2, none),
    ``pair`` (m = 2, rows 1 and 3 parallel), ``blind3`` (m = 3, even nodes
    blind to the third axis), ``blind2`` (m = 2, every third node blind to
    the second axis)."""
    rng = np.random.default_rng([seed, n, ROW_PATTERNS.index(pattern)])
    H = rng.standard_normal((n, 3 if pattern == "blind3" else 2))
    if pattern == "pair":
        H[2] = 1.7 * H[0]
    elif pattern == "blind3":
        H[1::2, 2] = 0.0
    elif pattern == "blind2":
        H[2::3, 1] = 0.0
    return H


def laplacian_by_loop(graph):
    """Reference Laplacian: the per-edge loop ``L = D - A``."""
    n = graph.n_nodes
    L = np.zeros((n, n))
    for i, j in graph.edges:
        a, b = i - 1, j - 1
        L[a, a] += 1.0
        L[b, b] += 1.0
        L[a, b] -= 1.0
        L[b, a] -= 1.0
    return L


def members_of(basis):
    """Every member ``_eigenspace_members`` enumerates, one per row, in order."""
    return np.vstack(list(_eigenspace_members(basis)))


def pair_members_by_loop(basis):
    """Reference two-node member search: one SVD of the complement
    projector's columns i and j per node pair, in (i, j) order."""
    n = basis.shape[0]
    complement = np.eye(n) - basis @ basis.T
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            _, sv, vt = np.linalg.svd(complement[:, [i, j]], full_matrices=False)
            if sv[1] <= 1e-9:
                member = np.zeros(n)
                member[[i, j]] = vt[1]
                found.append((i, j, member))
    return found


def witness_by_loop(problem, spect, groups):
    """Reference witness search: one SVD of the support rows per member,
    in enumeration order; ``((r, eta), support)`` or ``(None, None)``."""
    for group in groups:
        for member in members_of(spect.eigenvectors[:, list(group)]):
            support = _support_of(member)
            rows = problem.rows[np.array(sorted(support)) - 1]
            _, sv, vt = np.linalg.svd(rows)
            if np.count_nonzero(sv > sv[0] * max(rows.shape) * RANK_RTOL) < problem.dim:
                return (float(spect.eigenvalues[group[0]]), vt[-1]), support
    return None, None


def simple_spectrum_verdict(problem, graph):
    """Reference verdict for a graph with distinct Laplacian eigenvalues:
    the row-span test per eigenvector, in ascending eigenvalue order. The
    first eigenvector whose support rows miss a direction eta gives the
    failing verdict's witness ``(r, eta)`` and support."""
    spect = lf.spectrum(lf.laplacian(graph))
    if len(spect.eigenspace_groups) != graph.n_nodes:
        raise ValueError("Laplacian spectrum has repeated eigenvalues")
    for r, vec in zip(spect.eigenvalues, spect.eigenvectors.T):
        support = _support_of(vec)
        rows = problem.rows[np.array(sorted(support)) - 1]
        _, sv, vt = np.linalg.svd(rows)
        if np.count_nonzero(sv > sv[0] * max(rows.shape) * RANK_RTOL) < problem.dim:
            return lf.ConditionVerdict(False, (float(r), vt[-1]), support)
    return lf.ConditionVerdict(True, None)


def residual_component(problem, y_star, i):
    """h_i . y* - z_i for a 1-based node index i."""
    if not 1 <= i <= problem.n_nodes:
        raise lf.InvalidNodeError(f"node index {i} outside 1..{problem.n_nodes}")
    h_i = problem.rows[i - 1]
    return float(h_i @ np.asarray(y_star, dtype=float) - problem.obs[i - 1])


def graph_to_dict(graph):
    """JSON form of a graph as an explicit edge list; ``graph_from_dict``
    reads it back."""
    return {
        "type": "custom",
        "n": graph.n_nodes,
        "edges": [list(e) for e in sorted(graph.edges)],
    }


def config_to_dict(config):
    """Canonical JSON-ready form of a run config; parsing
    ``serialize_config(c)`` reproduces c."""
    out = {"mode": config.mode}
    if config.problem is not None:
        out["problem"] = {
            "H": [list(map(float, row)) for row in config.problem.rows],
            "z": [float(v) for v in config.problem.obs],
        }
    if config.graph is not None:
        out["graph"] = graph_to_dict(config.graph)
    if config.switching is not None:
        out["switching"] = {
            "period_T": config.switching.period_T,
            "graphs": [graph_to_dict(g) for g in config.switching.graphs],
        }
    if config.x0 is not None:
        out["x0"] = [float(v) for v in config.x0]
    if config.v0 is not None:
        out["v0"] = [float(v) for v in config.v0]
    out["step_h"] = config.step_h
    out["t_end"] = config.t_end
    out["record_every"] = config.record_every
    out["max_steps"] = config.max_steps
    if config.epsilon is not None:
        out["epsilon"] = config.epsilon
    if config.alpha:
        out["alpha"] = config.alpha
    if config.rows is not None:
        out["rows"] = [[family, n] for family, n in config.rows]
    if config.out_csv is not None:
        out["out_csv"] = config.out_csv
    if config.out_json is not None:
        out["out_json"] = config.out_json
    if config.plot is not None:
        plot = {"series": list(config.plot.series), "xlabel": config.plot.xlabel,
                "ylabel": config.plot.ylabel}
        if config.plot.path is not None:
            plot["path"] = config.plot.path
        out["plot"] = plot
    return out


def serialize_config(config):
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True)


def normal_equations_solution(problem):
    """Reference least-squares solution: solve H^T H y = H^T z directly.
    It squares the condition number, so it serves as a cross-check only."""
    gram = problem.rows.T @ problem.rows
    return np.linalg.solve(gram, problem.rows.T @ problem.obs)


@dataclass(frozen=True)
class FlowState:
    t_or_k: float
    x: np.ndarray
    v: np.ndarray


def ct_rhs(flow, state):
    """Reference right-hand side ``(dx, dv)`` of the saddle-point flow at
    one state, from the blocks of the flow rather than from M."""
    dx = -flow.L_kron @ state.v - (flow.H_tilde @ state.x - flow.z_H)
    dv = flow.L_kron @ state.x
    return dx, dv


def error_trajectory(traj, y_star):
    """Pointwise ``(t, ||x - 1 (x) y_star||^2)`` of a trajectory."""
    if len(traj.t_or_k) == 0:
        raise ValueError("empty trajectory")
    target = np.tile(np.asarray(y_star, dtype=float), traj.n_nodes)
    diff = traj.x - target
    e = np.einsum("ij,ij->i", diff, diff)
    return [(float(t), float(val)) for t, val in zip(traj.t_or_k, e)]


def component_count(graph):
    """Reference connectivity: the number of components of a graph, by
    depth-first search over adjacency lists."""
    adj = {i: [] for i in range(1, graph.n_nodes + 1)}
    for i, j in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, count = set(), 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return count


def random_connected_graph(rng, n):
    possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    while True:
        k = int(rng.integers(n - 1, len(possible) + 1))
        idx = rng.choice(len(possible), size=k, replace=False)
        g = lf.make_graph(n, [possible[e] for e in idx])
        if component_count(g) == 1:
            return g


def random_simple_spectrum_graph(rng, n):
    while True:
        g = random_connected_graph(rng, n)
        spect = lf.spectrum(lf.laplacian(g))
        if all(len(group) == 1 for group in spect.eigenspace_groups):
            return g


def step_by_step(segments, b, u0, h, method="rk4", record_every=1, limit=1e9):
    """Reference integrator: one classical four-stage RK4 or forward-Euler
    step at a time, with the state checked after every step.

    ``segments`` is a list of ``(M, n_steps)`` applied in order to
    ``u' = M u + b``. Records step 0, every ``record_every``-th step and the
    last one. Returns ``(steps, states, bad_step, bad_indices)``; on the
    first state that is non-finite or beyond ``limit`` that state is
    recorded last and ``bad_step``/``bad_indices`` name it, otherwise both
    are None.
    """
    u = np.array(u0, dtype=float)
    total = sum(n for _, n in segments)
    steps, states = [0], [u.copy()]
    k = 0
    for M, n in segments:
        for _ in range(n):
            if method == "euler":
                u = u + h * (M @ u + b)
            else:
                k1 = M @ u + b
                k2 = M @ (u + 0.5 * h * k1) + b
                k3 = M @ (u + 0.5 * h * k2) + b
                k4 = M @ (u + h * k3) + b
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k += 1
            if not np.abs(u).max() <= limit:
                steps.append(k)
                states.append(u.copy())
                bad = np.flatnonzero(~(np.abs(u) <= limit))
                return np.array(steps), np.array(states), k, bad
            if k % record_every == 0 or k == total:
                steps.append(k)
                states.append(u.copy())
    return np.array(steps), np.array(states), None, None


def dwell_segments(slots, dwells, dwell):
    """The ``(slot, steps)`` segments of ``dwells`` dwells of ``dwell``
    steps on ``slots`` taken cyclically, consecutive dwells on one slot
    merged: the run-length encoding of ``np.resize(slots, dwells)``."""
    order = np.resize(slots, dwells)
    starts = np.flatnonzero(np.concatenate([[True], order[1:] != order[:-1]]))
    lengths = dwell * np.diff(starts, append=dwells)
    return list(zip(order[starts].tolist(), lengths.tolist()))


@dataclass(frozen=True)
class AugmentedSystem:
    """Square expansion [[H, -I],[0, H^T]] y_bar = [z; 0].

    Its unique solution stacks the least-squares minimizer on top of the
    residual vector, turning the inconsistent problem into an exactly
    solvable one at the cost of N + m unknowns.
    """

    H_bar: np.ndarray
    z_bar: np.ndarray

    def solve(self) -> np.ndarray:
        # general LU solve with partial pivoting
        return np.linalg.solve(self.H_bar, self.z_bar)


def build_state_expansion(problem):
    n, m = problem.n_nodes, problem.dim
    top = np.hstack([problem.rows, -np.eye(n)])
    bottom = np.hstack([np.zeros((m, m)), problem.rows.T])
    H_bar = np.vstack([top, bottom])
    z_bar = np.concatenate([problem.obs, np.zeros(m)])
    return AugmentedSystem(H_bar=H_bar, z_bar=z_bar)


def flow_cost(flow, x):
    """Half the sum of squared per-node measurement mismatches.

    The one-half factor makes the analytic gradient exactly
    ``H_tilde x - z_H``.
    """
    return float(_costs(flow.problem, np.reshape(x, (1, flow.state_dim)))[0])


def flow_gradient(flow, x):
    return flow.H_tilde @ np.asarray(x, dtype=float) - flow.z_H


def oscillates(traj, component, *, ratio=0.5):
    """Heuristic: does a component keep oscillating to the end of the run?

    Compares the peak-to-peak amplitude over the last fifth of the
    samples against the window between 40% and 60% of the run; fires
    when the tail amplitude is at least ``ratio`` times the mid-run
    amplitude and is not itself negligible.
    """
    s = component_series(traj, component)
    n = len(s)
    if n < 10:
        raise ValueError("trajectory too short for oscillation detection")
    mid = s[int(0.4 * n):int(0.6 * n)]
    tail = s[int(0.8 * n):]
    amp_mid = float(mid.max() - mid.min())
    amp_tail = float(tail.max() - tail.min())
    floor = 1e-8 * (1.0 + float(np.abs(s).max()))
    if amp_tail <= floor:
        return False
    return amp_tail >= ratio * amp_mid


def tail_sup_error(traj, tail_fraction=0.2):
    """Supremum of the squared consensus error over the trailing window."""
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must be in (0, 1)")
    n = len(traj.error)
    if n == 0:
        raise ValueError("empty trajectory")
    return float(traj.error[int((1.0 - tail_fraction) * n):].max())


def oscillation_period(traj, lag_min, lag_max, settle_fraction=0.6):
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


class FingerprintMismatchError(Exception):
    """A graph does not reproduce its declared eigenvector supports."""


def check_support_fingerprint(graph, allowed_supports):
    """Verify that the eigenvector supports are exactly the declared ones.

    Requires a simple Laplacian spectrum (supports of repeated
    eigenspaces depend on the basis choice) and compares the set of
    supports of the eigenvector basis against ``allowed_supports``.
    Raises :class:`FingerprintMismatchError` on any deviation.
    """
    report = lf.support_report(lf.spectrum(lf.laplacian(graph)))
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


def load_graph_pair(path):
    """Load and fingerprint-validate the pinned switching graph pair.

    The fixture states, for each graph, the exact set of eigenvector
    supports it must produce; any candidate edge list that fails this
    spectral fingerprint is rejected at load time.
    """
    with open(path) as fh:
        data = json.load(fh)
    graphs = [lf.graph_from_dict(g) for g in data["graphs"]]
    supports = data["required_supports"]
    if len(graphs) != len(supports):
        raise FingerprintMismatchError("fixture lists differ in length")
    for g, allowed in zip(graphs, supports):
        check_support_fingerprint(g, allowed)
    return tuple(graphs)
