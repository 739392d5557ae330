"""Fixed-step simulators for the continuous flow and its Euler iteration.

All integrators are deterministic: fixed step, fixed recording stride,
no adaptivity. Each step of ``u' = M u + b`` is an exact affine map
``u -> P u + c`` (RK4 or Euler), and one block engine applies it for
every run: continuous, discrete, damped and switching. The engine
computes each state as its own product ``P^j u + c_j`` from the anchor
u of its block, and only the recorded states and the anchors, unless a
norm bound cannot rule out divergence within the block. Divergence (any
state component non-finite or beyond 1e9 in magnitude) raises
:class:`DivergedError` carrying the partial trajectory, so callers can
still inspect and serialize what happened.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import DimensionMismatchError, DivergedError, StepAlignmentError
from .spectral import AssembledFlow

DIVERGE_LIMIT = 1e9
# Block engine: at most BLOCK_STEPS steps per block, at most BLOCK_DOUBLES
# doubles of stacked powers per step map, no power entry beyond POWER_LIMIT.
BLOCK_STEPS = 64
BLOCK_DOUBLES = 1 << 17
POWER_LIMIT = 1e150
CSV_CHUNK_CELLS = 8192
# Work bounds, checked before a run starts: integrator steps per run and
# recorded samples per trajectory (the initial state included).
MAX_STEPS = 10**8
MAX_SAMPLES = 10**6


def _is_count(value) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


def _checked_steps(steps, record_every) -> int:
    """Step count of a run of ``steps`` steps (a ratio such as
    ``t_end / step_h`` is rounded) that records every ``record_every``-th
    state. Raises ValueError, before anything runs, unless record_every
    is a positive integer and the run takes 1 to MAX_STEPS steps and
    records at most MAX_SAMPLES states.
    """
    if not _is_count(record_every):
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    if not steps <= MAX_STEPS:           # also catches nan and inf
        raise ValueError(f"asks for {steps:.4g} integrator steps; the limit is {MAX_STEPS:.0e}")
    count = int(round(steps))
    if count < 1:
        raise ValueError(f"asks for {steps:.4g} integrator steps; a run needs at least one")
    if 1 + count // record_every > MAX_SAMPLES:
        raise ValueError(f"asks for {1 + count // record_every:.4g} recorded samples; "
                         f"the limit is {MAX_SAMPLES:.0e}")
    return count


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


def _run_length(step_h, t_end, record_every, period_T=None) -> tuple:
    """``(steps, steps per dwell)`` of a run of step step_h to t_end that
    records every record_every-th state; a run on one matrix is one dwell.
    Raises ValueError before anything runs unless step_h and t_end are
    positive and finite and the run passes :func:`_checked_steps`, and
    StepAlignmentError unless t_end is a whole number of steps, or, with
    a switching period, of periods, each a whole number of steps.
    """
    if not (0 < step_h < math.inf and 0 < t_end < math.inf):
        raise ValueError("step_h and t_end must be positive and finite")
    _checked_steps(t_end / step_h, record_every)
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
    alongside so the column can be recomputed and cross-checked.
    """

    t_or_k: np.ndarray
    x: np.ndarray          # (n_samples, N*m)
    v: np.ndarray          # (n_samples, N*m)
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
    max_steps: int = 40000
    record_every: int = 10

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not _is_count(self.max_steps):
            raise ValueError(f"max_steps must be a positive integer, got {self.max_steps!r}")
        _checked_steps(self.max_steps, self.record_every)


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
        block, i, j = name.split("_")
        idx = (int(i) - 1) * traj.dim + (int(j) - 1)
        source = {"x": traj.x, "v": traj.v}[block]
        if not (0 <= idx < source.shape[1]) or not (1 <= int(j) <= traj.dim):
            raise ValueError
    except (ValueError, KeyError):
        raise DimensionMismatchError(f"unknown component name {name!r}") from None
    return source[:, idx]


def _step_map(M, b, h, method="rk4"):
    """One fixed step of u' = M u + b as the exact affine map u -> P u + c.

    For RK4, ``P = sum_{k<=4} A^k/k!`` and ``c = h (I + A/2 + A^2/6 + A^3/24) b``
    with ``A = h M``; for Euler, ``P = I + h M`` and ``c = h b``.
    """
    eye = np.eye(len(b))
    if method == "euler":
        return eye + h * M, h * b
    A = h * M
    T = eye + A / 4.0
    T = eye + (A / 3.0) @ T
    T = eye + (A / 2.0) @ T
    return eye + A @ T, h * (T @ b)


def _block_powers(P, c, block):
    """Powers ``P, P^2, ..., P^B`` (shape ``(B, n, n)``) and offsets
    ``c_1..c_B`` with ``c_j = P c_{j-1} + c``, so that j steps from u
    land on ``P^j u + c_j``; and the bounds ``max_j ||P^j||_inf`` and
    ``max_j ||c_j||_inf`` of the divergence certificate.

    Extension stops before any entry passes POWER_LIMIT: past that, a
    power times a zero state component gives ``inf * 0`` instead of 0.
    A hugely unstable step thus falls back to plain stepping (B = 1).
    """
    n = len(c)
    powers = np.empty((block, n, n))
    offsets = np.empty((block, n))
    powers[0], offsets[0] = P, c
    gain, shift = np.abs(P).sum(axis=1).max(), np.abs(c).max()
    size = 1
    while size < block:
        np.matmul(P, powers[size - 1], out=powers[size])
        offsets[size] = P @ offsets[size - 1] + c
        entries, reach = np.abs(powers[size]), np.abs(offsets[size]).max()
        if not (entries.max() <= POWER_LIMIT and reach <= POWER_LIMIT):
            break
        gain, shift = max(gain, entries.sum(axis=1).max()), max(shift, reach)
        size += 1
    return powers[:size], offsets[:size], float(gain), float(shift)


def _pick(powers, offsets, first, size, every):
    """Powers and offsets of the recorded steps ``first, first + every,
    ... <= size`` of a block, then of its last step unless that is the
    last recorded one; and the number of recorded steps."""
    rows = slice(first - 1, size, every)
    recorded = len(range(size)[rows])
    if (size - first) % every:          # the last step is not a recorded one
        rows = np.append(np.arange(size)[rows], size - 1)
    return powers[rows], offsets[rows], recorded


def _finish_trajectory(flow, u, steps, time_of, metadata):
    nm = flow.state_dim
    x = np.ascontiguousarray(u[:, :nm])
    v = np.ascontiguousarray(u[:, nm:])
    diff = x - np.tile(flow.y_ref, flow.problem.n_nodes)
    error = np.einsum("ij,ij->i", diff, diff)
    nodes = x.reshape(len(x), flow.problem.n_nodes, flow.problem.dim)
    r = np.einsum("kj,ikj->ik", flow.problem.rows, nodes) - flow.problem.obs
    cost = 0.5 * np.einsum("ik,ik->i", r, r)
    return Trajectory(
        t_or_k=time_of(steps), x=x, v=v, error=error, cost=cost,
        y_ref=np.array(flow.y_ref), metadata=metadata,
    )


def _propagate(ref_flow, step_maps, schedule, u0, time_of, record_every, metadata):
    """Apply the affine steps ``step_maps[i] = (P, c)`` over the segments
    ``schedule = [(i, n_steps), ...]``; record every record_every-th state
    plus the first and last, and stop with a partial trajectory on
    divergence.

    Each segment advances in blocks of B steps from an anchor state u,
    anchored every B steps from the start of the segment whatever the
    recording stride. The state j steps on is the product ``P^j u + c_j``
    of one power, so its bits depend neither on the stride nor on which
    other states are computed. When ``max_j ||P^j|| * ||u|| + max_j ||c_j||``
    (infinity norms) is at most half of DIVERGE_LIMIT, no state of the
    block can leave the finite range, and only the recorded states and
    the next anchor are computed. Otherwise the block computes all its
    states, and the first of them that is non-finite or beyond
    DIVERGE_LIMIT ends the run at its exact step and is recorded last.
    """
    n = len(u0)
    seg_lengths = [steps for _, steps in schedule]
    block = max(1, min(BLOCK_STEPS, max(seg_lengths), BLOCK_DOUBLES // (n * n)))
    maps = [_block_powers(P, c, block) for P, c in step_maps]
    steps = np.append(np.arange(0, sum(seg_lengths), record_every), sum(seg_lengths))
    states = np.empty((len(steps), n))          # filled in block by block
    states[0], filled, picks = u0, 1, {}
    # bound >= ||u||_inf, carried from block to block and re-measured
    # only when it no longer certifies a block
    u, bound, k = u0, float(np.abs(u0).max()), 0
    for index, seg_steps in schedule:
        powers, offsets, gain, shift = maps[index]
        stop = k + seg_steps
        while k < stop:
            size = min(len(offsets), stop - k)
            # steps k + first, k + first + record_every, ... are recorded
            first = min(record_every - k % record_every, size + 1)
            if not gain * bound + shift <= 0.5 * DIVERGE_LIMIT:
                bound = float(np.abs(u).max())
            if gain * bound + shift <= 0.5 * DIVERGE_LIMIT:
                key = (index, first, size)
                if key not in picks:
                    picks[key] = _pick(powers, offsets, first, size, record_every)
                picked, shifts, recorded = picks[key]
                U = np.matmul(picked, u) + shifts
                rows = U[:recorded]
                bound = gain * bound + shift
            else:
                U = np.matmul(powers[:size], u) + offsets[:size]
                bad = ~(np.abs(U) <= DIVERGE_LIMIT)     # also catches nan
                if bad.any():
                    j = int(bad.any(axis=1).argmax())
                    rows = U[first - 1:j:record_every]
                    steps = np.append(steps[:filled + len(rows)], k + 1 + j)
                    names = component_names(ref_flow.problem.n_nodes, ref_flow.problem.dim)
                    bad_names = [names[i] for i in np.flatnonzero(bad[j])]
                    when = time_of(k + 1 + j)
                    traj = _finish_trajectory(ref_flow, np.vstack([states[:filled], rows, U[j]]),
                                              steps, time_of, metadata)
                    raise DivergedError(
                        f"state left the finite range at {when} "
                        f"(components {', '.join(bad_names)})",
                        when, traj, bad_names,
                    )
                rows = U[first - 1::record_every]
                bound = float(np.abs(U[-1]).max())
            states[filled:filled + len(rows)] = rows
            filled += len(rows)
            u = U[-1]
            k += size
    states[-1] = u          # the last step, on the stride or not
    return _finish_trajectory(ref_flow, states, steps, time_of, metadata)


def _run(flow, Ms, slots, steps, dwell, x0, v0, h, method, record_every, **extra):
    """Run ``steps`` steps of size h of ``u' = M u + b`` from u = (x0, v0),
    holding ``M = Ms[slots[0]]`` for ``dwell`` steps, then
    ``Ms[slots[1]]``, and so on cyclically; consecutive dwells on the same
    matrix form one segment of the block engine. A run on one matrix is
    ``Ms = [M], slots = [0], dwell = steps``. ``flow`` gives b, the
    reference and the metadata, to which ``extra`` is added.
    """
    nm = flow.state_dim
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    v0 = np.asarray(v0, dtype=float).reshape(-1)
    if x0.shape != (nm,) or v0.shape != (nm,):
        raise DimensionMismatchError(
            f"initial states must have shape ({nm},), got {x0.shape} and {v0.shape}"
        )
    if not (np.isfinite(x0).all() and np.isfinite(v0).all()):
        raise ValueError("initial states must be finite")
    b = np.concatenate([flow.z_H, np.zeros(nm)])
    step_maps = [_step_map(M, b, h, method) for M in Ms]
    order = (slots[p % len(slots)] for p in range(steps // dwell))
    schedule = [(index, dwell * len(list(run))) for index, run in groupby(order)]
    meta = {
        "n_nodes": flow.problem.n_nodes,
        "dim": flow.problem.dim,
        "problem": repr(flow.problem),
        "graph": flow.graph.label or f"custom-{flow.graph.n_nodes}",
        "reference": "least-squares" if flow.problem.full_rank else "origin",
        "integrator": method, "step": h, "record_every": record_every, **extra,
    }
    time_of = (lambda k: k) if method == "euler" else (lambda k: k * h)
    return _propagate(flow, step_maps, schedule, np.concatenate([x0, v0]), time_of,
                      record_every, meta)


def simulate_ct(flow: AssembledFlow, x0, v0, step_h: float, t_end: float,
                record_every: int = 10) -> Trajectory:
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
                       record_every: int = 10) -> Trajectory:
    """Comparison flow with additional consensus damping -alpha L x.

    With alpha = 0 the extra term vanishes and the run delegates to
    :func:`simulate_ct`, so the trajectories agree bit for bit.
    """
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be nonnegative and finite")
    if alpha == 0.0:
        return simulate_ct(flow, x0, v0, step_h, t_end, record_every)
    nm = flow.state_dim
    M = flow.M.copy()
    M[:nm, :nm] -= alpha * flow.L_kron
    return _run(flow, [M], [0], *_run_length(step_h, t_end, record_every), x0, v0,
                step_h, "rk4", record_every, t_end=t_end, alpha=alpha)


def oscillates(traj: Trajectory, component: str, *, ratio: float = 0.5) -> bool:
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


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with 17-significant-digit floats; byte-stable across runs.

    Every value is written exactly as ``'%.17g' % value`` would write it
    (see :func:`_format_17g`), in chunks of about CSV_CHUNK_CELLS values.
    """
    names = component_names(traj.n_nodes, traj.dim)
    header = "t," + ",".join(names) + ",error,cost\n"
    columns = (traj.t_or_k, traj.x, traj.v, traj.error, traj.cost)
    chunk_rows = max(1, CSV_CHUNK_CELLS // (len(names) + 3))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, len(traj.t_or_k), chunk_rows):
            rows = slice(start, start + chunk_rows)
            fh.write(_format_17g(np.column_stack([col[rows] for col in columns])))


# The CSV encoder. A value v with |v| in [1e-6, 1e17) has a decade e in
# [-6, 16], so v * 10^(16-e) scales by an exact power of ten (10^0..10^22
# are doubles) and Dekker's two-product gives it exactly as p + err. With
# p >= 1e16 an even integer, D = p + rint(err) is the correctly rounded
# 17-digit integer, ties to even, as '%.17g' rounds. Each value is laid
# out in _CSV_SLOTS byte slots: sign, the "0.000" of a fixed-notation
# value below 1, 17 digits with room for one decimal point, an "e-0k"
# exponent, the separator. Its layout class (decade, digits left after
# stripping trailing zeros, sign) selects from one table which slots keep
# a digit, a digit shifted right past the point, or a constant; the rest
# hold _CSV_DROP and are compressed out. Values it cannot lay out (zeros,
# nan, inf, |v| outside the range, a decade that log10 got wrong, or
# rounding up to 10^17) keep a NUL slot that '%.17g' fills in.
_CSV_SLOTS = 32
_CSV_BODY = 7            # slot of the first digit; the body holds 18 slots
_CSV_EXP = 25            # "e-0k" for the decades -5 and -6
_CSV_SEP = 29
_CSV_DROP = 0xFF
_E_MIN, _E_MAX = -6, 16
_POW10 = np.array([float(10 ** k) for k in range(_E_MAX - _E_MIN + 1)])
_SPLIT = float(2 ** 27 + 1)


# entries of the word table after the 10^4 digit groups
_W_ZERO, _W_LEAD, _W_COMMA, _W_NEWLINE = 10000, 10001, 10011, 10012


def _csv_words():
    """Content words of 4 slots: entry g < 10^4 holds the four digits of
    g; then a zero word, the leading digits 0-9 at slot _CSV_BODY and the
    two separators at slot _CSV_SEP, each at its place in its word."""
    words = np.zeros((_W_NEWLINE + 1, 4), np.uint8)
    g = np.arange(10000, dtype=np.int16)[:, None]
    words[:_W_ZERO] = g // np.array([1000, 100, 10, 1], np.int16) % 10 + 48
    words[_W_LEAD:_W_COMMA, _CSV_BODY % 4] = np.arange(48, 58)
    words[_W_COMMA:, _CSV_SEP % 4] = [ord(","), ord("\n")]
    return words.view(np.uint32).reshape(-1)


def _csv_last_digit():
    """Row i, entry g: the 1-based place among the 17 digits of the last
    nonzero digit of g as group i (digits 2+4i .. 5+4i); 0 for g = 0."""
    g = np.arange(10000, dtype=np.int16)
    zeros = sum((g % d == 0).astype(np.int8) for d in (10, 100, 1000))
    return np.where(g == 0, 0, 5 + 4 * np.arange(4, dtype=np.int8)[:, None] - zeros)


def _csv_classes():
    """Per layout class, three rows of _CSV_SLOTS bytes side by side: the
    mask of the digits, the mask of the digits shifted one slot right,
    past the decimal point, and the constant text, _CSV_DROP where the
    slot is empty. The last class is the fallback: a NUL and the
    separator."""
    c = np.arange((_E_MAX - _E_MIN + 1) * 17 * 2)
    e = c // 34 + _E_MIN
    nd = c % 34 // 2 + 1
    below_one = (e >= -4) & (e < 0)                # "0.000ddd", no point in the body
    before = np.where(e >= 0, e + 1, np.where(below_one, nd, 1))
    point = ~below_one & (nd > before)
    end = np.maximum(nd, before) + point
    k = np.arange(_CSV_SLOTS) - _CSV_BODY
    unshifted = (k >= 0) & (k < np.where(point, before, end)[:, None])
    shifted = (k > before[:, None]) & (k < end[:, None])
    tables = np.zeros((3, len(c) + 1, _CSV_SLOTS), np.uint8)
    tables[0, :-1][unshifted] = 0xFF
    tables[1, :-1][shifted] = 0xFF
    tables[0, :, _CSV_SEP] = 0xFF
    text = tables[2]
    text[:] = _CSV_DROP
    text[:-1][unshifted | shifted] = 0
    text[np.flatnonzero(point), _CSV_BODY + before[point]] = ord(".")
    text[:-1][c % 2 == 1, 0] = ord("-")
    for decade in range(-4, 0):
        text[:-1][e == decade, 1:2 - decade] = np.frombuffer(b"0.000"[:1 - decade], np.uint8)
    for decade in (-5, -6):
        text[:-1][e == decade, _CSV_EXP:_CSV_EXP + 4] = np.frombuffer(
            b"e-0" + bytes([48 - decade]), np.uint8)
    text[:, _CSV_SEP] = 0
    text[-1, 0] = 0
    return np.concatenate(tables, axis=1).view(np.uint64)


@functools.cache
def _csv_tables():
    """Built on the first CSV written, so other runs do not hold them."""
    return _csv_words(), _csv_classes(), _csv_last_digit()


def _format_17g(values: np.ndarray) -> bytes:
    """Rows of ``values`` as CSV lines, each value exactly ``'%.17g' % v``."""
    word_table, class_table, last_digit = _csv_tables()
    cols = values.shape[1]
    v = np.asarray(values, dtype=float).reshape(-1)
    n = len(v)
    a = np.abs(v)
    ok = (a >= 1e-6) & (a < 1e17)
    a[~ok] = 1.0
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.intp)
    # Dekker's two-product: a * b == p + err exactly
    b = _POW10[16 - e]
    p = a * b
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = b * _SPLIT
    b_hi = t - (t - b)
    b_lo = b - b_hi
    err = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    D = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # the decade was right: 1e16 <= p + err and D < 1e17
    ok &= ((p > 1e16) | ((p == 1e16) & (err >= 0))) & (D < 10 ** 17)

    # content: zero, leading digit, four 4-digit groups, zero, separator
    hi = D // 10 ** 8
    lo = (D - hi * 10 ** 8).astype(np.int32)
    hi = hi.astype(np.int32)
    lead = hi // 10 ** 8
    mid = hi - lead * 10 ** 8
    index = np.empty((n, _CSV_SLOTS // 4), np.int32)
    index[:, 0] = index[:, 6] = _W_ZERO
    index[:, 1] = lead + _W_LEAD
    groups = index[:, 2:6]
    groups[:, 0] = mid // 10000
    groups[:, 1] = mid - groups[:, 0] * 10000
    groups[:, 2] = lo // 10000
    groups[:, 3] = lo - groups[:, 2] * 10000
    index[:, 7] = _W_COMMA
    index[cols - 1::cols, 7] = _W_NEWLINE
    words = word_table.take(index).view(np.uint64)
    shifted = np.empty_like(words)
    shifted.view(np.uint8).reshape(-1)[1:] = words.view(np.uint8).reshape(-1)[:-1]

    digits = last_digit[0].take(groups[:, 0])
    for i in (1, 2, 3):
        np.maximum(digits, last_digit[i].take(groups[:, i]), out=digits)
    np.maximum(digits, 1, out=digits)
    cls = (e - _E_MIN) * 34 + digits * 2 - 2 + (v < 0)
    cls[~ok] = len(class_table) - 1
    table = class_table.take(cls, axis=0)
    w = _CSV_SLOTS // 8
    words &= table[:, :w]
    words |= shifted & table[:, w:2 * w]
    words |= table[:, 2 * w:]
    slots = words.view(np.uint8).reshape(-1)
    text = slots[slots != _CSV_DROP].tobytes()
    if ok.all():
        return text
    pieces = text.split(b"\0")
    joined = [b""] * (2 * len(pieces) - 1)
    joined[::2] = pieces
    joined[1::2] = [b"%.17g" % x for x in v[~ok].tolist()]
    return b"".join(joined)
