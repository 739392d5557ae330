"""Network linear equation and its centralized least-squares oracle.

A problem instance is the pair (H, z): N scalar observations
``z_i = h_i . y`` distributed over N nodes, each node holding one row
``h_i`` of H and one entry of z. With more equations than unknowns the
system is generally inconsistent and the object of interest is the
least-squares minimizer of ``||z - H y||^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError

# Relative threshold under which a singular value counts as zero.
RANK_RTOL = 1e-12


def _stacked_rank(stack: np.ndarray, scale=None) -> tuple:
    """(ranks, right singular vectors) of a stack of matrices, in one SVD
    call, each rank at the tolerance ``RANK_RTOL`` relative to ``scale``,
    by default its largest singular value. Each matrix's vectors are the
    rows of a square orthogonal matrix, by descending singular value, so
    the rows past the rank span its null space and the last is the unit
    null vector of the smallest singular value."""
    rows, cols = stack.shape[1:]
    _, sv, vt = np.linalg.svd(stack, full_matrices=rows < cols)
    tol = (sv[:, :1] if scale is None else scale) * max(rows, cols) * RANK_RTOL
    return np.count_nonzero(sv > tol, axis=1), vt


class NetworkLinearEquation:
    """Immutable (H, z) pair with per-node rows.

    Parameters
    ----------
    rows : (N, m) array-like
        Stacked row vectors h_i.
    obs : (N,) array-like
        Scalar observations z_i.
    check_rank : bool
        When True (default) the constructor rejects rank-deficient H.
        Diagnostic flows (e.g. zeroed measurement rows) pass False; the
        computed rank is still recorded in ``numerical_rank``.
    """

    def __init__(self, rows, obs, *, check_rank: bool = True):
        rows = np.array(rows, dtype=float)
        obs = np.array(obs, dtype=float)
        if rows.ndim != 2:
            raise DimensionMismatchError("rows must be a 2-d array of shape (N, m)")
        if obs.shape != (rows.shape[0],):
            raise DimensionMismatchError(
                f"obs has shape {obs.shape}, expected ({rows.shape[0]},)"
            )
        n, m = rows.shape
        if m == 0:
            raise DimensionMismatchError("rows must have at least one column")
        if n <= m:
            raise DimensionMismatchError(
                f"need more equations than unknowns: N={n} <= m={m}"
            )
        if not (np.isfinite(rows).all() and np.isfinite(obs).all()):
            raise ValueError("rows and obs must be finite")
        self.n_nodes = n
        self.dim = m
        self.numerical_rank = int(_stacked_rank(rows[None])[0][0])
        self.full_rank = self.numerical_rank == m
        if check_rank and not self.full_rank:
            raise RankDeficientError(
                f"measurement matrix has numerical rank {self.numerical_rank} < {m}",
                self.numerical_rank,
            )
        rows.setflags(write=False)
        obs.setflags(write=False)
        self.rows = rows
        self.obs = obs

    def __repr__(self) -> str:
        return f"NetworkLinearEquation(N={self.n_nodes}, m={self.dim})"


@dataclass(frozen=True)
class LeastSquaresSolution:
    y_star: np.ndarray
    residual: np.ndarray  # H y* - z
    objective: float      # ||residual||^2


def solve_least_squares(problem: NetworkLinearEquation) -> LeastSquaresSolution:
    """Minimize ||z - H y||^2 via orthogonal factorization.

    Raises :class:`RankDeficientError` unless the problem has full column
    rank (possible only for problems built with ``check_rank=False``).
    """
    if not problem.full_rank:
        raise RankDeficientError(
            f"measurement matrix has numerical rank {problem.numerical_rank} < {problem.dim}",
            problem.numerical_rank,
        )
    y_star = np.linalg.lstsq(problem.rows, problem.obs, rcond=RANK_RTOL)[0]
    residual = problem.rows @ y_star - problem.obs
    objective = float(residual @ residual)
    return LeastSquaresSolution(y_star=y_star, residual=residual, objective=objective)
