"""Fixed-step simulators for the continuous flow and its Euler iteration.

All integrators are deterministic: fixed step, fixed recording stride,
no adaptivity. Each step of ``u' = M u + b`` is an exact affine map
``u -> P u + c`` (RK4 or Euler), and one binary-lifting engine applies
it for every run: continuous, discrete, damped and switching. The engine
squares its way to the maps of 2^i steps and reaches each state from its
anchor through the set bits of its offset, and computes only the
recorded states, the anchors and the segment ends, unless a norm bound
cannot rule out divergence. A switching run's schedule is built from one
period of its signal and stepped by that cycle: the cycle map is lifted
the same way, and each segment of the cycle runs for all cycles at once.
Divergence (any state component non-finite or beyond 1e9 in magnitude)
raises :class:`DivergedError` carrying the partial trajectory, so
callers can still inspect and serialize what happened.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DivergedError, StepAlignmentError
from .graphs import _is_int
from .spectral import AssembledFlow, _costs, _initial_states

DIVERGE_LIMIT = 1e9
# Binary-lifting engine: at most BLOCK_DOUBLES doubles of powers per step
# map's table, about as many per batch of states and per block of a
# trajectory's error and cost, at most as many multiply-adds per
# enumerated span; no table entry beyond POWER_LIMIT.
BLOCK_DOUBLES = 1 << 17
POWER_LIMIT = 1e150
CSV_CHUNK_CELLS = 8192
# Work bounds, checked before a run starts: integrator steps per run and
# recorded samples per trajectory (the initial state included).
MAX_STEPS = 10**8
MAX_SAMPLES = 10**6
# Run defaults of the simulators, DiscreteConfig and parse_config.
DEFAULT_RECORD_EVERY = 10
DEFAULT_MAX_STEPS = 40000


def _aligned_count(total: float, step: float, names: tuple) -> int:
    """``total / step`` as a whole number; raises StepAlignmentError on the
    numerator ``names[0]`` unless the ratio is a positive integer to
    1e-12 relative. ``names`` name the numerator and the denominator."""
    ratio = total / step
    count = int(round(ratio))
    if count < 1 or abs(ratio - count) > 1e-12 * max(1.0, abs(ratio)):
        raise StepAlignmentError(f"{' / '.join(names)}: {total} is not an integer multiple "
                                 f"of {step}", names[0])
    return count


def _is_number(value) -> bool:
    """A real number, not a bool, that is finite as a float; a JSON config
    also holds ``NaN``, ``Infinity`` and integers too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _run_length(step_h, t_end, record_every, period_T=None) -> tuple:
    """``(steps, steps per dwell)`` of a run of step step_h to t_end that
    records every record_every-th state; a run on one matrix is one dwell,
    and a discrete run of n steps is a run of step 1 to n.

    Raises ValueError before anything runs unless step_h and t_end are
    positive and finite, record_every is a positive integer, and the run
    takes 1 to MAX_STEPS steps (``t_end / step_h`` rounded) and records
    at most MAX_SAMPLES states. Raises StepAlignmentError unless t_end is
    a whole number of steps, or, with a switching period, of periods,
    each a whole number of steps.
    """
    if _is_int(t_end) and t_end > sys.float_info.max:      # t_end / step_h would overflow
        raise ValueError(f"asks for more than {MAX_STEPS:.0e} integrator steps, the limit")
    if not (_is_number(step_h) and _is_number(t_end) and step_h > 0 and t_end > 0):
        raise ValueError("step_h and t_end must be positive and finite")
    if not (_is_int(record_every) and record_every >= 1):
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    steps = t_end / step_h
    if not steps <= MAX_STEPS:           # also catches inf
        raise ValueError(f"asks for {steps:.4g} integrator steps; the limit is {MAX_STEPS:.0e}")
    count = round(steps)
    if count < 1:
        raise ValueError(f"asks for {steps:.4g} integrator steps; a run needs at least one")
    if 1 + count // record_every > MAX_SAMPLES:
        raise ValueError(f"asks for {1 + count // record_every:.4g} recorded samples; "
                         f"the limit is {MAX_SAMPLES:.0e}")
    if period_T is None:
        steps = _aligned_count(t_end, step_h, ("t_end", "step_h"))
        return steps, steps
    # periods first: then period_T <= t_end, and period_T / step_h is bounded too
    periods = _aligned_count(t_end, period_T, ("t_end", "period_T"))
    dwell = _aligned_count(period_T, step_h, ("period_T", "step_h"))
    return periods * dwell, dwell


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: times, stacked states, squared consensus error, cost.

    ``error[k] = ||x_k - 1 (x) y_ref||^2`` with ``y_ref`` stored
    alongside so the column can be recomputed and cross-checked. ``x``
    and ``v`` are views of one block of recorded states and share its
    memory: writing to one writes to that block.
    """

    t_or_k: np.ndarray
    x: np.ndarray          # (n_samples, N*m) view
    v: np.ndarray          # (n_samples, N*m) view
    error: np.ndarray
    cost: np.ndarray
    y_ref: np.ndarray
    metadata: dict = field(compare=False)

    @property
    def n_nodes(self) -> int:
        return int(self.metadata["n_nodes"])

    @property
    def dim(self) -> int:
        return int(self.metadata["dim"])


@dataclass(frozen=True)
class DiscreteConfig:
    epsilon: float
    max_steps: int = DEFAULT_MAX_STEPS
    record_every: int = DEFAULT_RECORD_EVERY

    def __post_init__(self):
        if not (_is_number(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if not (_is_int(self.max_steps) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be a positive integer, got {self.max_steps!r}")
        _run_length(1.0, self.max_steps, self.record_every)


def component_names(n_nodes: int, dim: int) -> list:
    """CSV/plot column names: x_1_1 .. x_N_m, v_1_1 .. v_N_m (1-based)."""
    names = []
    for block in ("x", "v"):
        for i in range(1, n_nodes + 1):
            for j in range(1, dim + 1):
                names.append(f"{block}_{i}_{j}")
    return names


def component_series(traj: Trajectory, name: str) -> np.ndarray:
    """Column of a trajectory by component name, 'error', or 'cost'."""
    if name == "error":
        return traj.error
    if name == "cost":
        return traj.cost
    try:
        idx = component_names(traj.n_nodes, traj.dim).index(name)
    except ValueError:
        raise DimensionMismatchError(f"unknown component name {name!r}") from None
    block, col = divmod(idx, traj.x.shape[1])
    return (traj.x, traj.v)[block][:, col]


def _plus_eye(X):
    """``I + X`` in place, bit for bit: 0.0 + -0.0 is +0.0, so X adds 0.0 first."""
    X += 0.0
    X.flat[::len(X) + 1] += 1.0
    return X


def _step_map(M, b, h, method="rk4"):
    """One fixed step of u' = M u + b as the exact affine map u -> P u + c.

    For RK4, ``P = sum_{k<=4} A^k/k!`` and ``c = h (I + A/2 + A^2/6 + A^3/24) b``
    with ``A = h M``; for Euler, ``P = I + h M`` and ``c = h b``. Each
    Horner step rebuilds ``A / k`` from M and adds I in place, so that an
    RK4 map holds three n x n matrices at once.
    """
    if method == "euler":
        return _plus_eye(h * M), h * b
    T = _plus_eye(h * M / 4.0)
    for k in (3.0, 2.0):
        T = _plus_eye(h * M / k @ T)
    return _plus_eye(h * M @ T), h * (T @ b)


def _finish_trajectory(flow, u, steps, time_of, metadata):
    # x and v view u; error and cost come from copies of about
    # BLOCK_DOUBLES doubles of x at a time, so no copy of u is held
    nm = flow.state_dim
    x, v = u[:, :nm], u[:, nm:]
    ref = np.tile(flow.y_ref, flow.problem.n_nodes)
    error, cost, block = np.empty(len(u)), np.empty(len(u)), max(1, BLOCK_DOUBLES // nm)
    for lo in range(0, len(u), block):
        xs = np.ascontiguousarray(x[lo:lo + block])
        diff = xs - ref
        error[lo:lo + block] = np.einsum("ij,ij->i", diff, diff)
        cost[lo:lo + block] = _costs(flow.problem, xs)
    return Trajectory(
        t_or_k=time_of(steps), x=x, v=v, error=error, cost=cost,
        y_ref=np.array(flow.y_ref), metadata=metadata,
    )


def _affine(A, w):
    """``A w`` for a homogeneous state ``w = (u, 1)`` or each row of a stack
    of them, so that ``A = [[T, g], [0, 1]]`` maps u to ``T u + g``: one
    gemv per state (``np.dot`` makes the BLAS call of a stacked matmul),
    so that a state's bits do not depend on the batch it is computed in."""
    return np.dot(A, w) if w.ndim == 1 else np.matmul(A, w[:, :, None])[:, :, 0]


def _fresh(x):
    """Where each run of equal values in x starts (where an ascending x
    first holds each of its values)."""
    return np.concatenate([[True], x[1:] != x[:-1]])


class _Beyond(Exception):
    """``args = (k, w)``: w, the state at step k, is the first beyond the limit."""


class _Run:
    """The recorded homogeneous states of a run of n state components,
    filled in as the engine reaches them; about BLOCK_DOUBLES doubles per
    batch of queued states, and BLOCK_DOUBLES // n^2 states per
    enumerated span."""

    def __init__(self, steps, u, every):
        n = len(u) - 1
        self.states = np.empty((len(steps), n + 1))
        self.states[0], self.every, self.total = u, every, int(steps[-1])
        self.batch, self.span_limit = BLOCK_DOUBLES // n or 1, BLOCK_DOUBLES // n ** 2 or 1

    def record(self, w, k):
        if k % self.every == 0 or k == self.total:
            self.states[-(-k // self.every)] = w

    def record_all(self, W, ks):
        """:meth:`record` for each state ``W[i]`` at step ``ks[i]``."""
        on = (ks % self.every == 0) | (ks == self.total)
        self.states[-(-ks[on] // self.every)] = W[on]


class _Lift:
    """A step map ``u -> P u + c`` lifted to powers of two steps, and the
    queue of its certified states.

    Level i holds ``A_i = [[T_i, g_i], [0, 1]]``, so that 2^i steps from u
    land on ``T_i u + g_i``: ``A_0`` holds P and c, and ``A_(i+1) = A_i
    A_i``, that is ``T_(i+1) = T_i T_i`` and ``g_(i+1) = T_i g_i + g_i``.
    With ``gain[0] = ||P||``, ``shift[0] = ||c||``, ``gain[L+1] = gain[L]
    max(1, ||T_L||)`` and ``shift[L+1] = shift[L] + gain[L] ||g_L||``
    (infinity norms, up to L = depth + 1), no state of the 2^L steps after
    u is beyond ``gain[L] ||u|| + shift[L]``. The levels stop at ``depth``,
    and before any entry passes POWER_LIMIT: past that, a power times a
    zero state component gives ``inf * 0`` instead of 0. A hugely
    unstable step thus falls back to plain stepping (depth 0).
    """

    def __init__(self, P, c, depth):
        n = len(c)
        self.A = np.zeros((depth + 1, n + 1, n + 1))
        self.A[0, :n, :n], self.A[0, :n, n], self.A[0, n, n] = P, c, 1.0
        self.gain, self.shift = [float(np.abs(P).sum(axis=1).max())], [float(np.abs(c).max())]
        self.starts, self.spans, self.pending, self.paths = [], [], 0, {}
        for i in range(depth + 1):
            T, g = self.A[i, :n, :n], self.A[i, :n, n]
            self.gain.append(self.gain[i] * max(1.0, float(np.abs(T).sum(axis=1).max())))
            self.shift.append(self.shift[i] + self.gain[i] * float(np.abs(g).max()))
            self.depth = i
            if i == depth:
                break
            # squared block by block: an n x n product threads as the step map's do
            self.A[i + 1, :n, :n], self.A[i + 1, :n, n], self.A[i + 1, n, n] = T @ T, T @ g + g, 1.0
            if not np.abs(self.A[i + 1]).max() <= POWER_LIMIT:
                break

    def path(self, offset: int) -> list:
        """The levels that reach the state ``offset`` steps on: one per set
        bit of the offset, highest first."""
        if offset not in self.paths:
            self.paths[offset] = [self.A[i] for i in
                                  range(offset.bit_length() - 1, -1, -1) if offset >> i & 1]
        return self.paths[offset]

    def resolve(self, run):
        """Compute and record the queued states, ``run.batch`` at a time
        with one product per level; states whose offsets from one span
        start share their high bits share the states on their way down.
        The queue is a list of span starts and ``(k0, first, last)``
        tuples, or a stack of starts and an array of those rows."""
        if not len(self.spans):
            return
        k0, first, last = np.array(self.spans).T
        counts = (last - first) // run.every + 1
        owner = np.repeat(np.arange(len(counts)), counts)
        offsets = first[owner] + run.every * (np.arange(len(owner))
                                              - np.repeat(np.cumsum(counts) - counts, counts))
        keys, rows = owner << 32 | offsets, (k0[owner] + offsets) // run.every   # ascending
        starts = np.array(self.starts)
        for lo in range(0, len(keys), run.batch):
            part, span_of = keys[lo:lo + run.batch], owner[lo:lo + run.batch]
            W = starts[span_of[_fresh(span_of)]]
            for i in range(int(offsets[lo:lo + run.batch].max()).bit_length() - 1, -1, -1):
                # W: the states at the distinct offsets with bits below i cleared
                nodes = part[_fresh(part >> i)] >> i
                if len(nodes) > len(W):
                    W = W[np.cumsum(_fresh(nodes >> 1)) - 1]
                at = np.flatnonzero(nodes & 1)
                W[at] = _affine(self.A[i], W[at])
            run.states[rows[lo:lo + run.batch]] = W
        self.starts, self.spans, self.pending = [], [], 0


def _span(run, lift, w, norm, level, k0, last, end=True):
    """Record the recorded states among the ``last < 2^level`` steps after
    w, the homogeneous state at step k0 with ``||w||_inf <= norm``; return
    the state ``last`` steps after w (if ``end``) and a bound on its norm.

    The span is certified when ``gain[level] norm + shift[level]`` is at
    most DIVERGE_LIMIT / 2 (the 1 of w counts in its norm): it only queues
    its recorded states. An uncertified span of at most ``run.span_limit``
    states is enumerated, one product per level, and checked at once; a
    longer one splits at its midpoint. The first state beyond the limit
    raises _Beyond.
    """
    gain, shift = lift.gain[level], lift.shift[level]
    if not gain * norm + shift <= 0.5 * DIVERGE_LIMIT:
        norm = float(np.abs(w).max())           # a carried bound may be loose
    if gain * norm + shift <= 0.5 * DIVERGE_LIMIT:
        first = run.every - k0 % run.every      # the offset of the first recorded step
        if first <= last - end:
            lift.starts.append(w)
            lift.spans.append((k0, first, last - end))
            lift.pending += (last - end - first) // run.every + 1
            if lift.pending >= run.batch:
                lift.resolve(run)
        if end:
            for A in lift.path(last):
                w = _affine(A, w)
            run.record(w, k0 + last)
        return w, gain * norm + shift
    if 1 << level > run.span_limit:
        half = 1 << level - 1
        if last < half:
            return _span(run, lift, w, norm, level - 1, k0, last, end)
        _span(run, lift, w, norm, level - 1, k0, half - 1, False)
        w = _affine(lift.A[level - 1], w)
        if not (norm := float(np.abs(w).max())) <= DIVERGE_LIMIT:    # also catches nan
            raise _Beyond(k0 + half, w)
        run.record(w, k0 + half)
        return (w, norm) if last == half else _span(run, lift, w, norm, level - 1,
                                                    k0 + half, last - half, end)
    W = w[None]                 # the states at offsets 0, 2^(i+1), ... up to last
    for i in range(level - 1, -1, -1):
        if last >> i:
            new = _affine(lift.A[i], W[:(last >> i) + 1 >> 1])
            W, old = np.empty((len(W) + len(new), len(w))), W
            W[0::2], W[1::2] = old, new
    bad = ~(np.abs(W[1:]) <= DIVERGE_LIMIT).all(axis=1)     # also catches nan
    stop = int(bad.argmax()) + 1 if bad.any() else last + 1
    offsets = np.arange(run.every - k0 % run.every, stop, run.every)
    run.states[(k0 + offsets) // run.every] = W[offsets]
    if stop <= last:
        raise _Beyond(k0 + stop, W[stop])
    run.record(W[last], k0 + last)
    return W[last], float(np.abs(W[last]).max())


def _segments(run, lifts, segments, u, bound, k):
    """Apply the ``(map, steps)`` pairs ``segments`` one after another from
    u, the homogeneous state at step k with ``||u||_inf <= bound``: each
    block of 2^b steps of a segment, b the depth of its map's table, is a
    :func:`_span` one level above b. Return the state after them, a bound
    on its norm and its step."""
    for index, seg_steps in segments:
        lift, stride = lifts[index], 1 << lifts[index].depth
        for start in range(k, k + seg_steps, stride):
            u, bound = _span(run, lift, u, bound, lift.depth + 1, start,
                             min(stride, k + seg_steps - start))
        k += seg_steps
    return u, bound, k


def _cycle_lift(lifts, cycle, K, depth):
    """The :class:`_Lift` of the given depth of the map ``[[T, g], [0, 1]]``
    of the segments ``cycle``: the product of the levels that reach each
    segment's end, in the order the states meet them. None unless each
    segment lies within one block of its map's table, composing and
    squaring the cycle map takes no more multiply-adds than the products
    of K cycles' segment ends, and the cycle map stays within POWER_LIMIT."""
    size = lifts[cycle[0][0]].A.shape[-1]       # n + 1
    products = sum(seg_steps.bit_count() for _, seg_steps in cycle)
    if (products + depth) * size > K * products or any(
            seg_steps > 1 << lifts[index].depth for index, seg_steps in cycle):
        return None
    phi = np.eye(size)
    for index, seg_steps in cycle:
        for A in lifts[index].path(seg_steps):
            phi = A @ phi
            if not np.abs(phi).max() <= POWER_LIMIT:
                return None
    return _Lift(phi[:-1, :-1], phi[:-1, -1], depth)


def _cycles(run, lifts, cycle_lift, cycle, K, w, k0):
    """Apply ``K <= 2^cycle_lift.depth`` repeats of the segments ``cycle``
    (each within one block of its map's table) from w, the homogeneous
    state at step k0; return the state after them and its step.

    ``cycle_lift`` is the cycle map's table, and the cycle starts ``c_0 = w,
    c_1, ..., c_K`` are the states of one :func:`_span` of it that records
    every state: ``c_k`` is reached from w through the set bits of k. Then
    each segment runs for all K cycles at once. Its start in cycle k is
    chained from ``c_k`` through the set bits of the segment lengths
    before it, and its recorded states are reached from that start
    through the set bits of their offsets, all queued for one
    :meth:`_Lift.resolve`; the last segment ends on ``c_(k+1)``. A segment
    is certified from the norm of its computed start; an uncertified one
    is a :func:`_span`, so that the first state beyond the limit still
    raises _Beyond at its exact step, and no cycle after a cycle start
    beyond the limit is run.
    """
    size = sum(seg_steps for _, seg_steps in cycle)
    cycles, live, beyond = _Run(np.arange(K + 1), w, 1), K, None
    try:
        _span(cycles, cycle_lift, w, float(np.abs(w).max()), cycle_lift.depth + 1, 0, K)
    except _Beyond as stop:
        live, w = stop.args
        beyond = _Beyond(k0 + live * size, w)
    cycle_lift.resolve(cycles)
    at = k0 + size * np.arange(K + 1)
    valid = live + (beyond is None)           # c_0 .. c_(valid - 1) are within the limit
    run.record_all(cycles.states[1:valid], at[1:valid])
    S, at = cycles.states[:live], at[:live]
    for j, (index, seg_steps) in enumerate(cycle):
        lift = lifts[index]
        level, end = lift.depth + 1, j < len(cycle) - 1
        last = seg_steps if end else seg_steps - 1
        norms = np.abs(S).max(axis=1)
        sure = lift.gain[level] * norms + lift.shift[level] <= 0.5 * DIVERGE_LIMIT
        first = run.every - at % run.every
        queue = sure & (first < seg_steps)
        if queue.any():
            lift.resolve(run)
            lift.starts, lift.spans = S[queue], np.column_stack(
                [at[queue], first[queue], np.full(np.count_nonzero(queue), seg_steps - 1)])
            lift.resolve(run)
        if end:
            ends, E = np.empty_like(S), S[sure]
            for A in lift.path(seg_steps):
                E = _affine(A, E)
            ends[sure] = E
        for i in np.flatnonzero(~sure).tolist():
            try:
                u, _ = _span(run, lift, S[i], float(norms[i]), level, int(at[i]), last, end)
            except _Beyond as stop:
                live, beyond = i, stop
                break
            if end:
                ends[i] = u
        if end:
            S, at = ends[:live], at[:live] + seg_steps
            run.record_all(S, at)
    if beyond is not None:
        raise beyond
    return cycles.states[K], k0 + K * size


def _propagate(ref_flow, step_maps, schedule, u0, time_of, record_every, metadata):
    """Apply the affine steps ``step_maps[i] = (P, c)`` over the segments
    ``(i, steps)`` of ``schedule = (head, cycle, K, tail)`` (:func:`_schedule`):
    head, cycle K times, tail; record every record_every-th state plus the
    first and last, and stop with a partial trajectory on divergence.

    Each step map gets a :class:`_Lift` of the least depth b with 2^b
    steps covering its longest segment, capped at BLOCK_DOUBLES doubles.
    Anchors sit every 2^b steps of a segment: ``a_0`` is its start and
    ``a_(j+1) = T_b a_j + g_b``. Step k of a segment, its last included, is
    reached from ``a_(k // 2^b)`` through the set bits of ``k mod 2^b``,
    highest first, so that its bits depend neither on the stride, nor on
    the run after it, nor on which other states are computed. Each block
    from an anchor to the next is a :func:`_span` one level above b; the
    first state that is non-finite or beyond DIVERGE_LIMIT ends the run at
    its exact step and is recorded last.

    When K >= 2 and :func:`_cycle_lift` lifts the cycle map, to the least
    depth d with 2^d cycles covering K, capped at BLOCK_DOUBLES doubles of
    powers and of cycle starts, each 2^d cycles from an anchor run in
    :func:`_cycles`; otherwise the cycles run segment by segment, as head
    and tail do.
    """
    head, cycle, K, tail = schedule
    longest = dict(sorted(head + cycle + tail, key=lambda seg: seg[1]))   # each map's longest
    cap = max(0, BLOCK_DOUBLES // len(u0) ** 2 - 1)
    lifts = {i: _Lift(*step_maps[i], min(cap, (s - 1).bit_length())) for i, s in longest.items()}
    total = sum(s for _, s in head + tail) + K * sum(s for _, s in cycle)
    steps = np.append(np.arange(0, total, record_every), total)
    u = np.append(u0, 1.0)
    run, bound = _Run(steps, u, record_every), float(np.abs(u).max())
    cycle_lift = _cycle_lift(lifts, cycle, K, min(
        cap, (K - 1).bit_length(), run.batch.bit_length() - 1)) if K >= 2 else None
    stride = 1 << cycle_lift.depth if cycle_lift else 1
    if cycle_lift is None:
        head, K = itertools.chain(head, itertools.chain.from_iterable(
            itertools.repeat(cycle, K))), 0
    try:
        u, bound, k = _segments(run, lifts, head, u, bound, 0)
        for start in range(0, K, stride):        # anchors every 2^d cycles
            u, k = _cycles(run, lifts, cycle_lift, cycle, min(stride, K - start), u, k)
            bound = float(np.abs(u).max())
        _segments(run, lifts, tail, u, bound, k)
    except _Beyond as beyond:
        k, u = beyond.args
        for lift in lifts.values():
            lift.resolve(run)
        rows, when = -(-k // record_every), time_of(k)
        names = component_names(ref_flow.problem.n_nodes, ref_flow.problem.dim)
        bad_names = [names[i] for i in np.flatnonzero(~(np.abs(u[:-1]) <= DIVERGE_LIMIT))]
        run.states[rows] = u
        traj = _finish_trajectory(ref_flow, run.states[:rows + 1, :-1],
                                  np.append(steps[:rows], k), time_of, metadata)
        raise DivergedError(f"state left the finite range at {when} (components "
                            f"{', '.join(bad_names)})", when, traj, bad_names) from None
    for lift in lifts.values():
        lift.resolve(run)
    return _finish_trajectory(ref_flow, run.states[:, :-1], steps, time_of, metadata)


def _schedule(slots, dwells, dwell) -> tuple:
    """``(head, cycle, K, tail)``, lists of ``(slot, steps)`` segments that
    run ``dwells`` dwells of ``dwell`` steps on ``slots[0], slots[1], ...``
    cyclically, consecutive dwells on one slot merged: head, cycle K times,
    tail. The cycle (empty if K = 0) is the shortest period P of the slots
    rotated to start on dwell r, the first that starts a segment, and the
    tail is its first ``(dwells - r) mod P`` dwells. A run on one slot is
    one segment."""
    P = next(p for p in range(1, len(slots) + 1)
             if len(slots) % p == 0 and slots[p:] == slots[:-p])
    r = min(dwells, next((i for i in range(P) if slots[i] != slots[i - 1]), dwells))
    turn = slots[r:P] + slots[:r]
    K, rest = divmod(dwells - r, P)
    cycle, tail = ([(slot, dwell * len(list(group))) for slot, group in itertools.groupby(order)]
                   for order in (turn * (K > 0), turn[:rest]))
    return [(slots[0], r * dwell)] * (r > 0), cycle, K, tail


def _run(flow, Ms, slots, steps, dwell, x0, v0, h, method, record_every, **extra):
    """Run ``steps`` steps of size h of ``u' = M u + b`` from u = (x0, v0),
    holding ``M = Ms[slots[0]]`` for ``dwell`` steps, then
    ``Ms[slots[1]]``, and so on cyclically; the engine runs the segments
    of :func:`_schedule`. A run on one matrix is ``Ms = [M], slots = [0],
    dwell = steps``. ``flow`` gives b, the reference and the metadata, to
    which ``extra`` is added.
    """
    x0, v0 = _initial_states(flow, x0, v0)
    b = np.concatenate([flow.z_H, np.zeros(flow.state_dim)])
    step_maps = [_step_map(M, b, h, method) for M in Ms]
    meta = {
        "n_nodes": flow.problem.n_nodes,
        "dim": flow.problem.dim,
        "problem": repr(flow.problem),
        "graph": flow.graph.name,
        "reference": "least-squares" if flow.problem.full_rank else "origin",
        "integrator": method, "step": h, "record_every": record_every, **extra,
    }
    time_of = (lambda k: k) if method == "euler" else (lambda k: k * h)
    return _propagate(flow, step_maps, _schedule(slots, steps // dwell, dwell),
                      np.concatenate([x0, v0]), time_of, record_every, meta)


def simulate_ct(flow: AssembledFlow, x0, v0, step_h: float, t_end: float,
                record_every: int = DEFAULT_RECORD_EVERY) -> Trajectory:
    """Classical fixed-step RK4 integration of the saddle-point flow.

    ``t_end`` must be a whole number of steps; otherwise
    :class:`StepAlignmentError` is raised before the first step.
    """
    return _run(flow, [flow.M], [0], *_run_length(step_h, t_end, record_every), x0, v0,
                step_h, "rk4", record_every, t_end=t_end)


def simulate_dt(flow: AssembledFlow, x0, v0, config: DiscreteConfig) -> Trajectory:
    """Forward-Euler iteration with step epsilon.

    Below the spectral threshold this converges to the same consensus
    as the flow; above it, some components blow up and the run ends in
    :class:`DivergedError` with the partial trajectory attached.
    """
    return _run(flow, [flow.M], [0], config.max_steps, config.max_steps, x0, v0,
                config.epsilon, "euler", config.record_every, max_steps=config.max_steps)


def simulate_damped(flow: AssembledFlow, alpha: float, x0, v0,
                       step_h: float, t_end: float,
                       record_every: int = DEFAULT_RECORD_EVERY) -> Trajectory:
    """Comparison flow with additional consensus damping -alpha L x.

    With alpha = 0 the extra term vanishes and the run delegates to
    :func:`simulate_ct`, so the trajectories agree bit for bit.
    """
    if not (_is_number(alpha) and alpha >= 0):
        raise ValueError("alpha must be nonnegative and finite")
    if alpha == 0.0:
        return simulate_ct(flow, x0, v0, step_h, t_end, record_every)
    nm = flow.state_dim
    M = flow.M.copy()
    M[:nm, :nm] -= alpha * flow.M[nm:, :nm]  # L_kron
    return _run(flow, [M], [0], *_run_length(step_h, t_end, record_every), x0, v0,
                step_h, "rk4", record_every, t_end=t_end, alpha=alpha)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with 17-significant-digit floats; byte-stable across runs.

    Every value is written exactly as ``'%.17g' % value`` would write it
    (see :func:`_format_17g`), in chunks of about CSV_CHUNK_CELLS values.
    """
    names = component_names(traj.n_nodes, traj.dim)
    header = "t," + ",".join(names) + ",error,cost\n"
    columns = (traj.t_or_k, traj.x, traj.v, traj.error, traj.cost)
    chunk_rows = max(1, CSV_CHUNK_CELLS // (len(names) + 3))
    work = _csv_work(chunk_rows * (len(names) + 3))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, len(traj.t_or_k), chunk_rows):
            rows = slice(start, start + chunk_rows)
            fh.write(_format_17g(np.column_stack([col[rows] for col in columns]), work))


# The CSV encoder. A value v with |v| in [1e-290, 1e291) has a decade e
# in [-290, 290], found exactly: the binary exponent of |v| leaves two
# candidates, and one comparison with the least double >= 10^(e+1)
# decides. Then x = |v| 10^(16-e) lies in [1e16, 1e17). For e in [-6, 16]
# the scale is a double and Dekker's two-product gives x exactly as
# p + err; elsewhere the scale is a double-double hi + lo (exact integer
# arithmetic builds it, hi stored pre-split so that no product
# overflows), and p + err + |v| lo has x to about 5e-15. With p > 2^53
# an even integer, D = p + rint(err) is the correctly rounded 17-digit
# integer, ties to even, as '%.17g' rounds, unless an inexact scale
# leaves the fraction within _NEAR_TIE of a tie; D = 10^17 carries into
# the next decade. Each value is laid out in _CSV_SLOTS byte slots: sign,
# the "0.000" of a fixed-notation value below 1, 17 digits with room for
# one decimal point, the exponent, the separator. Its layout class (fixed
# decade or scientific, digits left after stripping trailing zeros, sign)
# selects from three tables which slots keep a digit, a digit shifted
# right past the point, or a constant; the decade's exponent word
# ("e-07", "e+123") fills the exponent slots. The rest hold _CSV_DROP and
# are deleted. Values it cannot lay out (zeros, subnormals, nan, inf, |v|
# outside the range, and an inexact scale's near-ties) keep a NUL slot
# that _format_each fills in.
_CSV_SLOTS = 32
_CSV_BODY = 7            # slot of the first digit; the body holds 18 slots
_CSV_EXP = 25            # the exponent, at most "e-123"
_CSV_SEP = 31
_CSV_DROP = 0xFF
_E_MIN, _E_MAX = -290, 290
_FIXED = (-4, 16)        # the decades '%.17g' writes without an exponent
_LAYOUTS = _FIXED[1] - _FIXED[0] + 1
_NEAR_TIE = 1e-6
_SPLIT = float(2 ** 27 + 1)


def _veltkamp(x: float) -> tuple:
    """Veltkamp's split of x into hi + lo, 26 bits each, made on the
    mantissa of x, so that no product overflows near 1e306."""
    m, q = math.frexp(x)
    t = m * _SPLIT
    m_hi = t - (t - m)
    return math.ldexp(m_hi, q), math.ldexp(m - m_hi, q)


def _least_double_at_least(e: int) -> float:
    """The least double >= 10^e."""
    if e >= 0:
        t = float(10 ** e)
        return t if int(t) >= 10 ** e else math.nextafter(t, math.inf)
    t = 1 / 10 ** -e
    num, den = t.as_integer_ratio()
    return t if num * 10 ** -e >= den else math.nextafter(t, math.inf)


def _csv_decades():
    """Per decade index d (d = e - _E_MIN + 1 for the decades e of the
    table and for the carry past the last one, d = 0 for the fallback):
    the scale 10^(16-e) as the split hi_hi + hi_lo of its double hi, and
    lo = 10^(16-e) - hi; the largest |rint(f) - f| of a fraction f that
    is not a near-tie; the class before the decade's first; and the word
    of slots 24-31 with the exponent and a comma."""
    count = _E_MAX - _E_MIN + 3
    scale = np.zeros((3, count))
    half = np.full(count, 0.5)
    base = np.full(count, _LAYOUTS * 34 - 2, np.intp)
    exp_word = np.zeros((count, 8), np.uint8)
    exp_word[:, 1:7] = _CSV_DROP
    exp_word[:, 7] = ord(",")
    for d in range(1, count):
        e = d - 1 + _E_MIN
        k = 16 - e
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            hi = 1 / 10 ** -k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -k) / (den * 10 ** -k)
        scale[:, d] = [*_veltkamp(hi), lo]
        if lo != 0.0:
            half[d] = 0.5 - _NEAR_TIE
        fixed = _FIXED[0] <= e <= _FIXED[1]
        base[d] = ((e if fixed else 0) - _FIXED[0]) * 34 - 2
        if not fixed:
            text = b"e%+03d" % e
            exp_word[d, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
    return scale, half, base, exp_word.view(np.uint64).reshape(-1)


def _csv_binades():
    """The least doubles >= 10^_E_MIN and >= 10^(_E_MAX + 1), the ends of
    the table's range; and per biased binary exponent, the decade index
    of its binade's low end and the least double >= 10^(that decade + 1).
    A binade spans less than a decade, so a value's decade index is the
    first plus (value >= the second)."""
    edges = np.array([_least_double_at_least(e) for e in range(_E_MIN, _E_MAX + 2)])
    low = np.ldexp(1.0, np.arange(-1023, 1025).clip(max=1023))
    first = np.clip(np.searchsorted(edges, low, side="right"), 1, len(edges) - 1)
    return edges[0], edges[-1], first, edges[first]


def _csv_words():
    """Words of 8 slots: the 4-digit groups g < 10^4 in the low and in the
    high four slots, and the leading digits at slot _CSV_BODY."""
    g = np.arange(10000, dtype=np.int16)[:, None]
    digits = g // np.array([1000, 100, 10, 1], np.int16) % 10 + 48
    words = np.zeros((2, 10000, 8), np.uint8)
    words[0, :, :4] = digits
    words[1, :, 4:] = digits
    lead = np.zeros((10, 8), np.uint8)
    lead[:, _CSV_BODY] = np.arange(48, 58)
    low, high = words.view(np.uint64).reshape(2, -1)
    return low, high, lead.view(np.uint64).reshape(-1)


def _csv_last_digit():
    """Row i, entry g: twice the 1-based place among the 17 digits of the
    last nonzero digit of g as group i (digits 2+4i .. 5+4i), 0 for g = 0,
    but 2 in row 0: the leading digit is never zero."""
    g = np.arange(10000, dtype=np.int16)
    zeros = sum((g % d == 0).astype(np.int8) for d in (10, 100, 1000))
    place = np.where(g == 0, 0, 5 + 4 * np.arange(4, dtype=np.int8)[:, None] - zeros)
    place[0, 0] = 1
    return (2 * place).astype(np.int8)


def _csv_classes():
    """Per layout class (34 per layout: 17 digit counts, two signs) three
    tables of _CSV_SLOTS bytes: the mask of the digits, the mask of the
    digits shifted one slot right, past the decimal point, and the
    constant text, _CSV_DROP where the slot is empty. The mask keeps the
    exponent word and the separator. The last 34 classes are the
    fallback: a NUL, the exponent word and the separator."""
    c = np.arange(_LAYOUTS * 34)
    e = c // 34 + _FIXED[0]
    nd = c % 34 // 2 + 1
    below_one = e < 0                              # "0.000ddd", no point in the body
    before = np.where(below_one, nd, e + 1)
    point = ~below_one & (nd > before)
    end = np.maximum(nd, before) + point
    k = np.arange(_CSV_SLOTS) - _CSV_BODY
    unshifted = (k >= 0) & (k < np.where(point, before, end)[:, None])
    shifted = (k > before[:, None]) & (k < end[:, None])
    tables = np.zeros((3, len(c) + 34, _CSV_SLOTS), np.uint8)
    mask, smask, text = tables
    mask[:-34][unshifted] = 0xFF
    mask[:, _CSV_EXP:] = 0xFF
    smask[:-34][shifted] = 0xFF
    text[:] = _CSV_DROP
    text[:-34][unshifted | shifted] = 0
    text[np.flatnonzero(point), _CSV_BODY + before[point]] = ord(".")
    text[:-34][c % 2 == 1, 0] = ord("-")
    for decade in range(_FIXED[0], 0):
        text[:-34][e == decade, 1:2 - decade] = np.frombuffer(b"0.000"[:1 - decade], np.uint8)
    text[:, _CSV_EXP:] = 0
    text[-34:, 0] = 0
    return tuple(tables.view(np.uint64))


@functools.cache
def _csv_tables():
    """Built on the first CSV written, so other runs do not hold them."""
    return (*_csv_decades(), *_csv_binades(), *_csv_words(), _csv_last_digit(),
            *_csv_classes())


def _format_each(values: np.ndarray) -> list:
    """The per-value path: ``'%.17g' % v`` for each value."""
    return [b"%.17g" % x for x in values.tolist()]


def _csv_work(cells: int) -> np.ndarray:
    """Work space of :func:`_format_17g` for up to ``cells`` values: the
    frame, its shifted copy and one row gather. One per CSV file, so that
    no chunk allocates (and page-faults in) its own."""
    return np.empty((3, cells, _CSV_SLOTS // 8), np.uint64)


def _format_17g(values: np.ndarray, work: np.ndarray) -> bytes:
    """Rows of ``values`` as CSV lines, each value exactly ``'%.17g' % v``;
    ``work`` from :func:`_csv_work`, for at least as many values."""
    (scale, half, base, exp_word, least, beyond, binade_first, binade_edge,
     low_word, high_word, lead_word, last_digit, mask, smask, text) = _csv_tables()
    cols = values.shape[1]
    v = np.asarray(values, dtype=float).reshape(-1)
    n = len(v)
    a = np.abs(v)
    ok = (a >= least) & (a < beyond)
    a = np.where(ok, a, 1.0)
    # the decade index, from the binary exponent and one comparison
    biased = a.view(np.int64) >> 52
    d = binade_first.take(biased)
    d += a >= binade_edge.take(biased)
    # Dekker's two-product against the pre-split hi: a * hi == p + err
    # exactly; then err += a * lo, the part of the scale beyond hi
    b_hi = scale[0].take(d)
    b_lo = scale[1].take(d)
    p = a * (b_hi + b_lo)
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    err = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    err += a * scale[2].take(d)
    r = np.rint(err)
    D = p.astype(np.int64) + r.astype(np.int64)
    r -= err
    bad = np.abs(r) > half.take(d)
    bad |= ~ok
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    d += carry
    d[bad] = 0

    # the leading digit and four 4-digit groups
    hi = D // 10 ** 8
    lo = D - hi * 10 ** 8
    lead = hi // 10 ** 8
    mid = hi - lead * 10 ** 8
    g0 = mid // 10000
    g1 = mid - g0 * 10000
    g2 = lo // 10000
    g3 = lo - g2 * 10000
    digits = last_digit[0].take(g0)
    np.maximum(digits, last_digit[1].take(g1), out=digits)
    np.maximum(digits, last_digit[2].take(g2), out=digits)
    np.maximum(digits, last_digit[3].take(g3), out=digits)
    cls = base.take(d)
    cls += digits
    cls += v < 0

    # 8-slot words: the leading digit, two words of digit groups and the
    # exponent word; a copy shifted one slot right supplies the digits
    # past the decimal point
    frame, shifted, gather = work[:, :n]
    lead_word.take(lead, out=frame[:, 0], mode="clip")
    np.bitwise_or(low_word.take(g0), high_word.take(g1), out=frame[:, 1])
    np.bitwise_or(low_word.take(g2), high_word.take(g3), out=frame[:, 2])
    exp_word.take(d, out=frame[:, 3], mode="clip")
    shifted.view(np.uint8).reshape(-1)[1:] = frame.view(np.uint8).reshape(-1)[:-1]
    frame &= mask.take(cls, axis=0, out=gather, mode="clip")
    shifted &= smask.take(cls, axis=0, out=gather, mode="clip")
    frame |= shifted
    frame |= text.take(cls, axis=0, out=gather, mode="clip")
    frame.view(np.uint8)[cols - 1::cols, _CSV_SEP] = ord("\n")
    out = frame.tobytes().translate(None, bytes([_CSV_DROP]))
    if not bad.any():
        return out
    pieces = out.split(b"\0")
    joined = [b""] * (2 * len(pieces) - 1)
    joined[::2] = pieces
    joined[1::2] = _format_each(v[bad])
    return b"".join(joined)
