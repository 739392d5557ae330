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
from .spectral import AssembledFlow, _costs

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
    return Trajectory(
        t_or_k=time_of(steps), x=x, v=v, error=error, cost=_costs(flow.problem, x),
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


def _format_17g(values: np.ndarray, work=None) -> bytes:
    """Rows of ``values`` as CSV lines, each value exactly ``'%.17g' % v``;
    ``work`` from :func:`_csv_work`, or a new one."""
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
    if work is None:
        work = _csv_work(n)
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
