"""Independent output oracles.

Nothing here calls lsqflow. Every expected value is rebuilt from the raw
inputs with numpy, through references to ``numpy.linalg`` taken when this
module is imported, so the tracer's wrappers never count oracle work.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eig as _eig
from numpy.linalg import eigh as _eigh
from numpy.linalg import eigvals as _eigvals
from numpy.linalg import lstsq as _lstsq
from numpy.linalg import svd as _svd

DIVERGE_LIMIT = 1e9
# Eigenvalue classification of the step threshold: |lambda| below
# ZERO_REL * radius is a kernel mode, |Re| below IMAG_REL * |lambda| is
# an undamped mode; neither bounds the Euler step.
ZERO_REL = 1e-8
IMAG_REL = 1e-7
# Structural rank deficiencies in the generated inputs are exact (zero
# columns, scaled rows), so a loose relative tolerance separates them
# from generic full-rank cases with a wide margin.
RANK_REL = 1e-9


def laplacian(n: int, edges) -> np.ndarray:
    L = np.zeros((n, n))
    for i, j in edges:
        a, b = i - 1, j - 1
        L[a, a] += 1.0
        L[b, b] += 1.0
        L[a, b] -= 1.0
        L[b, a] -= 1.0
    return L


def family_edges(family: str, n: int) -> list:
    if family == "path":
        return [(i, i + 1) for i in range(1, n)]
    if family == "ring":
        return [(i, i + 1) for i in range(1, n)] + [(1, n)]
    if family == "star":
        return [(1, i) for i in range(2, n + 1)]
    if family == "complete":
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    raise ValueError(f"unknown family {family!r}")


def connected(n: int, edges) -> bool:
    root = list(range(n + 1))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for i, j in edges:
        root[find(i)] = find(j)
    return len({find(i) for i in range(1, n + 1)}) == 1


def system_matrix(H: np.ndarray, L: np.ndarray) -> np.ndarray:
    """M = [[-blockdiag(h_i h_i^T), -L (x) I], [L (x) I, 0]]."""
    n, m = H.shape
    H_tilde = np.zeros((n * m, n * m))
    for i in range(n):
        H_tilde[i * m:(i + 1) * m, i * m:(i + 1) * m] = np.outer(H[i], H[i])
    L_kron = np.kron(L, np.eye(m))
    return np.block([[-H_tilde, -L_kron], [L_kron, np.zeros((n * m, n * m))]])


def rank(matrix: np.ndarray) -> int:
    sv = _svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > sv[0] * max(matrix.shape) * RANK_REL))


def eigen_groups(w: np.ndarray) -> list:
    """Index lists of numerically equal eigenvalues (ascending input)."""
    tol = 1e-8 * max(1.0, float(w[-1]))
    groups = [[0]]
    for k in range(1, len(w)):
        if w[k] - w[groups[-1][0]] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def laplacian_spectrum(n: int, edges) -> tuple:
    w, V = _eigh(laplacian(n, edges))
    return w, V, eigen_groups(w)


def condition_holds(H: np.ndarray, n: int, edges) -> bool:
    """Convergence condition from the Laplacian side.

    Fails iff the graph is disconnected, or some eigenvalue r > 0 with
    eigenbasis B (n x d) leaves the n x (d m) matrix with rows
    ``B_i (x) h_i`` rank-deficient.
    """
    if not connected(n, edges):
        return False
    m = H.shape[1]
    w, V, groups = laplacian_spectrum(n, edges)
    for group in groups:
        if w[group[0]] <= 1e-8 * max(1.0, float(w[-1])):
            continue
        B = V[:, group]
        rows = np.einsum("id,im->idm", B, H).reshape(n, len(group) * m)
        if rank(rows) < len(group) * m:
            return False
    return True


def m_eigenvalues(H: np.ndarray, n: int, edges) -> np.ndarray:
    return _eigvals(system_matrix(H, laplacian(n, edges)))


def epsilon_star(eigs: np.ndarray):
    """min over damped nonzero modes of -2 Re(lambda) / |lambda|^2, or None."""
    mag = np.abs(eigs)
    radius = mag.max(initial=0.0)
    damped = (mag > ZERO_REL * max(radius, 1e-300)) & (np.abs(eigs.real) > IMAG_REL * mag)
    if not damped.any():
        return None
    return float(np.min(-2.0 * eigs.real[damped] / mag[damped] ** 2))


def growth_rate(eigs: np.ndarray, eps: float) -> float:
    """rho = max |1 + eps lambda|, the per-step growth of the Euler map."""
    return float(np.abs(1.0 + eps * eigs).max())


def step_for_growth(eigs: np.ndarray, eps_star: float, rho: float) -> float:
    """Smallest eps > eps_star whose growth rate reaches rho (bisection)."""
    lo, hi = eps_star, 2.0 * eps_star
    while growth_rate(eigs, hi) < rho:
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if growth_rate(eigs, mid) < rho:
            lo = mid
        else:
            hi = mid
    return hi


def growing_components(H: np.ndarray, n: int, edges, eps: float) -> set:
    """Stacked-state indices carried by modes with |1 + eps lambda| > 1."""
    w, vecs = _eig(system_matrix(H, laplacian(n, edges)))
    grow = np.abs(1.0 + eps * w) > 1.0 + 1e-12
    if not grow.any():
        return set()
    weight = np.abs(vecs[:, grow]).max(axis=1)
    return set(np.flatnonzero(weight > 1e-6 * weight.max()).tolist())


def least_squares(H: np.ndarray, z: np.ndarray) -> np.ndarray:
    return _lstsq(H, z, rcond=None)[0]


def consensus_projector(n: int, m: int) -> np.ndarray:
    """Dual-block zero-space projector of a connected graph: (1/n) 1 1^T (x) I."""
    return np.kron(np.full((n, n), 1.0 / n), np.eye(m))


def family_min_support(family: str, n: int) -> int:
    """Smallest eigenvector support over all members of every eigenspace."""
    if family in ("star", "complete"):
        return 2
    if family == "ring":
        return n - max(math.gcd(2 * k, n) for k in range(1, (n + 1) // 2))
    # path: simple spectrum, eigenvectors cos(pi k (i - 1/2) / n)
    i = np.arange(1, n + 1)
    return min(int(np.count_nonzero(np.abs(np.cos(np.pi * k * (i - 0.5) / n)) > 1e-9))
               for k in range(1, n))


def component_names(n: int, m: int) -> list:
    return [f"{block}_{i}_{j}" for block in ("x", "v")
            for i in range(1, n + 1) for j in range(1, m + 1)]


def check_analyze(payload: dict, H: np.ndarray, n: int, edges) -> list:
    """Failures of one analyze payload against the oracles above."""
    failures = []
    m = H.shape[1]
    holds = condition_holds(H, n, edges)
    cond = payload["condition"]
    if cond["holds"] != holds:
        failures.append(f"verdict {cond['holds']}, oracle {holds}")
    if not cond["holds"] and cond["witness"] is not None:
        support = cond["witness_support"] or []
        if not support or rank(H[[i - 1 for i in support]]) >= m:
            failures.append(f"witness support {support} rows are not rank-deficient")
        w, _, _ = laplacian_spectrum(n, edges)
        r = cond["witness"]["eigenvalue"]
        if np.abs(w - r).min() > 1e-8 * max(1.0, float(w[-1])):
            failures.append(f"witness eigenvalue {r} is not a Laplacian eigenvalue")
    spectral = payload["spectral"]
    expected = epsilon_star(m_eigenvalues(H, n, edges))
    got = spectral["epsilon_star"]
    if (got is None) != (expected is None) or (
            expected is not None and abs(got - expected) > 1e-7 * expected):
        failures.append(f"epsilon* {got}, oracle {expected}")
    if holds:
        if spectral["zero_space_dim"] != m:
            failures.append(f"zero space dim {spectral['zero_space_dim']}, expected {m}")
        W = spectral["projector_W"]
        if W is None or np.abs(np.array(W) - consensus_projector(n, m)).max() > 1e-8:
            failures.append("projector W differs from the consensus projector")
    elif spectral["projector_W"] is not None:
        failures.append("projector W reported for a failing condition")
    return failures


def read_csv(path) -> tuple:
    """(column names, float matrix) of a trajectory CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def column(header: list, data: np.ndarray, name: str) -> np.ndarray:
    return data[:, header.index(name)]


def final_node_deviation(header, data, y_star, n: int) -> float:
    m = len(y_star)
    x_last = np.array([data[-1, header.index(f"x_{i}_{j}")]
                       for i in range(1, n + 1) for j in range(1, m + 1)]).reshape(n, m)
    return float(np.abs(x_last - y_star).max())


def error_column_mismatch(header, data, y_star, n: int) -> float:
    """Largest relative gap between the error column and ||x - 1 (x) y*||^2."""
    m = len(y_star)
    cols = [header.index(f"x_{i}_{j}") for i in range(1, n + 1) for j in range(1, m + 1)]
    finite = np.isfinite(data).all(axis=1)
    diff = data[finite][:, cols] - np.tile(y_star, n)
    recomputed = np.einsum("ij,ij->i", diff, diff)
    reported = column(header, data, "error")[finite]
    return float((np.abs(recomputed - reported) / (1.0 + np.abs(recomputed))).max(initial=0.0))


def oscillates(series: np.ndarray, ratio: float = 0.5) -> bool:
    """Tail (last fifth) amplitude at least ``ratio`` of the mid-run amplitude."""
    n = len(series)
    mid = series[int(0.4 * n):int(0.6 * n)]
    tail = series[int(0.8 * n):]
    amp_tail = float(np.ptp(tail))
    if amp_tail <= 1e-8 * (1.0 + float(np.abs(series).max())):
        return False
    return amp_tail >= ratio * float(np.ptp(mid))


def period(t: np.ndarray, signal: np.ndarray, lag_min: float, lag_max: float) -> float:
    """Smallest lag in [lag_min, lag_max] whose self-mismatch is within 5% of the best,
    over the samples after 60% of the run."""
    dt = float(t[1] - t[0])
    tail = signal[int(0.6 * len(t)):]
    lags = np.arange(max(2, int(round(lag_min / dt))), int(round(lag_max / dt)) + 1)
    mismatch = np.array([np.mean(np.abs(tail[lag:] - tail[:-lag])) for lag in lags])
    good = lags[mismatch <= 1.05 * mismatch.min() + 1e-12]
    return float(good[0] * dt)


def tail_sup(series: np.ndarray, fraction: float = 0.2) -> float:
    return float(series[int((1.0 - fraction) * len(series)):].max())
