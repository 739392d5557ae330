"""System-matrix assembly and spectral convergence analysis.

The saddle-point flow for a problem (H, z) on a graph with Laplacian L
is affine: ``u' = M u + b`` for the stacked state ``u = [x; v]`` with

    M = [[-H_tilde, -L_kron],
         [ L_kron,      0  ]]

where ``H_tilde`` is the block diagonal of the per-node outer products
``h_i h_i^T`` and ``L_kron = L (x) I_m``. Whether every trajectory
reaches consensus on the least-squares solution is decided by L: M has
a nonzero purely imaginary eigenvalue ``i r`` iff the rows ``B_i (x) h_i``
of L's eigenspace at r > 0 lose rank. One rank pass over L's
eigenspaces gives M's spectrum in three exact parts: its kernel (the
consensus duals and the null vectors at r = 0), one pair ``+-i r`` per
null vector at r > 0, and the damped block, the rest of M written in
the eigenspaces' SVD bases, which is the one dense eigen-solve. The
damped block's decaying eigenvalues yield the exact step-size threshold
for the forward-Euler iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConditionViolatedError,
    DimensionMismatchError,
    EquilibriumInfeasibleError,
    InternalInconsistencyError,
    NoStableModesError,
    NumericalFailureError,
    RankDeficientError,
)
from .graphs import (Graph, LaplacianSpectrum, laplacian, spectrum, _eigenspace_members,
                     _require_apart, _support_mask, _support_of)
from .problem import RANK_RTOL, NetworkLinearEquation, _stacked_rank, solve_least_squares

# epsilon*'s floor: a decaying mode with |Re| <= TAU_IM |lambda| does not bound the step.
TAU_IM = 1e-7


@dataclass(frozen=True)
class AssembledFlow:
    """Matrices of the affine flow plus back-references to its inputs.

    ``y_ref`` is the consensus reference used for error trajectories:
    the least-squares solution for a full-rank problem, the origin for
    diagnostic problems built with ``check_rank=False``.
    """

    problem: NetworkLinearEquation
    graph: Graph
    H_tilde: np.ndarray
    z_H: np.ndarray
    L: np.ndarray                  # graph Laplacian
    L_kron: np.ndarray
    M: np.ndarray
    y_ref: np.ndarray

    @property
    def state_dim(self) -> int:
        return self.problem.n_nodes * self.problem.dim


@dataclass(frozen=True)
class ConditionVerdict:
    holds: bool
    witness: Optional[tuple]       # (eigenvalue r of L, unit vector eta)
    witness_support: Optional[frozenset] = None  # nodes backing the witness
    null_block: Optional[tuple] = None  # (r, n x m X) where no member witnesses


@dataclass(frozen=True)
class SpectralReport:
    m_eigenvalues: np.ndarray      # 2Nm complex values, sorted by (re, im)
    epsilon_star: Optional[float]  # None when no eigenvalue has Re != 0
    zero_space_dim: int
    projector_W: Optional[np.ndarray]  # v-block projector; None if condition fails
    condition: ConditionVerdict    # from the Laplacian


def _same_nodes(problem: NetworkLinearEquation, graph: Graph) -> None:
    if problem.n_nodes != graph.n_nodes:
        raise DimensionMismatchError(f"problem has {problem.n_nodes} nodes, "
                                     f"graph has {graph.n_nodes}")


def assemble(problem: NetworkLinearEquation, graph: Graph) -> AssembledFlow:
    _same_nodes(problem, graph)
    n, m = problem.n_nodes, problem.dim
    nm, nodes, rows = n * m, np.arange(n), problem.rows
    H_tilde = np.zeros((nm, nm))
    H_tilde.reshape(n, m, n, m)[nodes, :, nodes] = rows[:, :, None] * rows[:, None, :]
    z_H = (problem.obs[:, None] * rows).reshape(-1)
    L = laplacian(graph)
    L_kron = np.kron(L, np.eye(m))
    # the quadrants in place, each value and signed zero as np.block would copy it
    M = np.zeros((2 * nm, 2 * nm))
    np.negative(H_tilde, out=M[:nm, :nm])
    np.negative(L_kron, out=M[:nm, nm:])
    M[nm:, :nm] = L_kron
    y_ref = solve_least_squares(problem).y_star if problem.full_rank else np.zeros(m)
    for a in (H_tilde, z_H, L, L_kron, M, y_ref):
        a.setflags(write=False)
    return AssembledFlow(
        problem=problem, graph=graph,
        H_tilde=H_tilde, z_H=z_H, L=L, L_kron=L_kron, M=M, y_ref=y_ref,
    )


def _costs(problem: NetworkLinearEquation, x) -> np.ndarray:
    """Half the sum of squared per-node measurement mismatches
    ``h_i^T x_i - z_i``, one value per row of the states x."""
    nodes = np.asarray(x, dtype=float).reshape(-1, problem.n_nodes, problem.dim)
    r = np.einsum("kj,ikj->ik", problem.rows, nodes) - problem.obs
    return 0.5 * np.einsum("ik,ik->i", r, r)


def _initial_states(flow: AssembledFlow, *states) -> list:
    """The states as flat float arrays; raises DimensionMismatchError unless
    each has ``flow.state_dim`` entries, ValueError unless all are finite."""
    states = [np.asarray(u, dtype=float).reshape(-1) for u in states]
    if any(u.shape != (flow.state_dim,) for u in states):
        raise DimensionMismatchError(f"initial states must have shape ({flow.state_dim},), "
                                     f"got {' and '.join(str(u.shape) for u in states)}")
    if not all(np.isfinite(u).all() for u in states):
        raise ValueError("initial states must be finite")
    return states


def _damped_block(kept) -> np.ndarray:
    """A = [[-G^T G, -R], [R^T, 0]]: M in the basis ``B vt`` of each
    Laplacian eigenspace (r, B), the rows of the rank pass's SVD of K,
    less its kernel (the v-columns at r = 0 and K_0's null vectors) and
    its exact pairs (each null vector x of K_r, r > 0, has ``H_tilde x =
    0`` and ``L_kron x = r x``, so M acts on (x, 0) and (0, x) as [[0,
    -r], [r, 0]]). The x-columns are the kept ``Z_j = B vt[:rank]``; G's
    column j holds ``h_i^T Z_j[i]``, K's product with that row of vt, so
    ``G^T G = Z^T H_tilde Z``; R couples each x-column of r > 0 to its
    own v-column by r."""
    G, r = [], []
    for w, K, vts, ranks in kept:
        cols = np.arange(vts.shape[1]) < ranks[:, None]
        G.append(np.matmul(K, vts.transpose(0, 2, 1)).transpose(1, 0, 2)[:, cols])
        r.append(np.broadcast_to(w[:, None], cols.shape)[cols])
    G, r = np.concatenate(G, axis=1), np.concatenate(r)
    z, x = r.size, np.flatnonzero(r)  # r is exactly 0.0 on eigenspace 0 alone
    v = z + np.arange(x.size)
    A = np.zeros((v.size + z,) * 2)
    np.negative(np.matmul(G.T, G, out=A[:z, :z]), out=A[:z, :z])
    A[x, v], A[v, x] = -r[x], r[x]
    return A


def _m_parts(flow: AssembledFlow) -> tuple:
    """(spect, k, failing, eigenvalues, stable): the rank pass, M's sorted
    eigenvalues, and the damped block's with ``Re < -TAU_IM |lambda|``,
    which bound the Euler step. Raises :class:`InternalInconsistencyError`
    if one of the damped block grows, which no valid input can do."""
    spect = spectrum(flow.L)
    k, failing, kept = _rank_pass(flow.problem, spect, spect.eigenspace_groups)
    try:
        damped = np.linalg.eigvals(_damped_block(kept))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"dense eigen-solve failed: {exc}") from exc
    floor = TAU_IM * np.abs(damped)
    if np.any(damped.real > floor):
        raise InternalInconsistencyError(f"the damped block is growing: {damped.max():.3e}")
    up = [1j * np.repeat(r, len(X)) for r, X in failing.values()]
    # real parts +0.0, where -1j * r gives -0.0
    eigs = np.concatenate([np.zeros(k, dtype=complex), *up, *(u.conj() for u in up), damped])
    order = np.lexsort((eigs.imag, eigs.real))
    return spect, k, failing, eigs[order], damped[damped.real < -floor]


def m_spectrum(flow: AssembledFlow) -> np.ndarray:
    """All 2Nm eigenvalues of M, sorted by (real, imaginary) part: k exact
    zeros, one exact pair ``+-i r`` per null vector of a failing
    eigenspace, and the eigenvalues of :func:`_damped_block`."""
    return _m_parts(flow)[3]


def _rank_scale(problem) -> float:
    """H's largest row norm, the scale K and a member's support rows are
    ranked against (K itself is rounding noise where B lives on zero rows)."""
    return np.linalg.norm(problem.rows, axis=1).max()


def _rank_pass(problem, spect: LaplacianSpectrum, groups) -> tuple:
    """(k, failing, kept): the Laplacian-side rank test on the eigenspaces in
    ``groups``, one stacked SVD per eigenspace dimension d.

    For an eigenvalue r with orthonormal eigenbasis B (n x d), K is the
    n x (d m) matrix with rows ``B_i (x) h_i``, ranked relative to
    :func:`_rank_scale`. At r = 0, B spans the indicators of the c
    components; c counts only where the largest ``|r|`` there lies apart
    from the next Laplacian eigenvalue. A kernel vector of M has v constant per
    component and x = B C with ``h_i^T x_i = 0``, a null vector vec(C)
    of K: k = dim ker M = c m + nullity(K). For r > 0, M has the
    eigenvalue ``i r`` iff K is rank-deficient: ``failing`` maps each
    such group to (r, X), X the orthonormal null blocks B C (one n x m
    block per null vector vec(C) of K, the last for K's smallest
    singular value), so ``h_i^T x_i = 0`` and ``(X_j, -i X_j)`` is an
    eigenvector of M at ``i r``. ``kept`` holds, per eigenspace dimension
    d, the stacks (r, K, vt, rank) of its eigenspaces, r exactly 0.0 at
    eigenspace 0, for :func:`_damped_block`.
    """
    m = problem.dim
    zero, w = spect.eigenspace_groups[0], spect.eigenvalues
    c, scale = len(zero), _rank_scale(problem)
    _require_apart(np.abs(w[:c]).max(), w[c:c + 1],
                   f"{c} components, but Laplacian eigenvalues")
    k, failing, kept = c * m, {}, []
    for d in {len(g) for g in groups}:
        same = [g for g in groups if len(g) == d]
        bases = np.stack([spect.eigenvectors[:, list(g)] for g in same])
        K = (bases[..., None] * problem.rows[:, None, :]).reshape(len(same), -1, d * m)
        ranks, vts = _stacked_rank(K, scale)  # K's rows are B_i (x) h_i
        kept.append((np.array([0.0 if g == zero else w[g[0]] for g in same]), K, vts, ranks))
        for g, B, rank, vt in zip(same, bases, ranks, vts):
            if g == zero:
                k += d * m - int(rank)
            elif rank < d * m:
                failing[g] = float(w[g[0]]), B @ vt[rank:].reshape(-1, d, m)
    return k, failing, kept


def _deficient_pairs(rows: np.ndarray):
    """n x n mask of the node pairs whose two rows may fail to span the
    unknown space, or None where every pair may.

    Two rows cannot span R^m for m >= 3, and with m = 1 no pair is
    dropped. For m = 2 a pair is kept when ``|det [h_i; h_j]| <= 1e-6
    (|h_i|^2 + |h_j|^2)``: a rank-deficient pair at ``RANK_RTOL`` has
    ``|det| = sigma_1 sigma_2 <= 2e-12 sigma_1^2``, far inside the bound,
    so the mask is a superset of the exact test, which still decides.
    """
    if rows.shape[1] != 2:
        return None
    det = rows[:, None, 0] * rows[:, 1] - rows[:, None, 1] * rows[:, 0]
    norms = np.einsum("ij,ij->i", rows, rows)
    return np.abs(det) <= 1e-6 * (norms[:, None] + norms)


def _witness(problem, spect: LaplacianSpectrum, groups) -> tuple:
    """(witness, support) of the first member of the eigenspaces
    ``groups`` whose support rows do not span the unknown space; (None,
    None) if none.

    A member ``w = B c`` with ``h_i^T eta = 0`` on its support makes
    ``c (x) eta`` a null vector of K, so only the eigenspaces that
    :func:`_rank_pass` finds failing can hold one. The support rows of a
    block of members are tested together, one stacked SVD per support
    size. On a connected graph (the only kind searched) no eigenvector
    is supported on one node, so a two-node member's support is its pair,
    and the pairs :func:`_deficient_pairs` rules out are not confirmed."""
    pairs, scale = _deficient_pairs(problem.rows), _rank_scale(problem)
    for group in groups:
        for block in _eigenspace_members(spect.eigenvectors[:, list(group)], pairs):
            masks = _support_mask(block)
            sizes = masks.sum(axis=1)
            failing = {}  # member index -> eta
            for size in np.unique(sizes):
                picked = np.flatnonzero(sizes == size)
                nodes = np.nonzero(masks[picked])[1].reshape(picked.size, size)
                ranks, vts = _stacked_rank(problem.rows[nodes], scale)
                deficient = ranks < problem.dim
                failing.update(zip(picked[deficient], vts[deficient, -1]))
            if failing:
                k = min(failing)
                return (float(spect.eigenvalues[group[0]]), failing[k]), _support_of(block[k])
    return None, None


def _verdict(problem, spect: LaplacianSpectrum, failing) -> ConditionVerdict:
    """The condition verdict from the failing eigenspaces of :func:`_rank_pass`.

    A connected graph holds iff none fails. Else the member witness
    search runs on the failing eigenspaces; where no member witnesses the
    failure, the verdict carries the last null block of the smallest
    failing r. A graph is disconnected when eigenspace 0, as
    :func:`_rank_pass` checks it, has more than one dimension. Then no
    direction mixes across components, so the witness is the first unit
    vector at eigenvalue 0, backed by node 1's component: the support of
    the zero-eigenspace projection of the first node's indicator.
    """
    zero = spect.eigenvectors[:, list(spect.eigenspace_groups[0])]
    if zero.shape[1] > 1:
        return ConditionVerdict(False, (0.0, np.eye(problem.dim)[0]),
                                _support_of(zero @ zero[0]))
    if not failing:
        return ConditionVerdict(True, None)
    groups = sorted(failing)  # groups hold ascending eigenvalue indices
    witness, support = _witness(problem, spect, groups)
    if witness is not None:
        return ConditionVerdict(False, witness, support)
    r, X = failing[groups[0]]
    return ConditionVerdict(False, None, None, (r, X[-1]))


def check_condition(problem: NetworkLinearEquation, graph: Graph) -> ConditionVerdict:
    """Decide whether, for every Laplacian eigenvalue r > 0 with
    eigenbasis B, the rows ``B_i (x) h_i`` have full column rank (the
    same as every eigenvector support spanning the unknown space only
    where the spectrum is simple). A disconnected graph fails. Only the
    Laplacian is solved, not M.
    """
    _same_nodes(problem, graph)
    return _condition(problem, laplacian(graph))


def _condition(problem, L) -> ConditionVerdict:
    """:func:`check_condition` from the graph's Laplacian L."""
    spect = spectrum(L)
    return _verdict(problem, spect, _rank_pass(problem, spect, spect.eigenspace_groups)[1])


def _step_threshold(stable) -> Optional[float]:
    """min over the stable eigenvalues of -2 Re / |lambda|^2; None if none."""
    return float(np.min(-2.0 * stable.real / np.abs(stable) ** 2)) if stable.size else None


def epsilon_star(flow: AssembledFlow) -> float:
    """The Euler step threshold of the flow: :func:`_step_threshold` of
    the damped block's eigenvalues outside ``TAU_IM``'s floor."""
    eps = _step_threshold(_m_parts(flow)[4])
    if eps is None:
        raise NoStableModesError("no eigenvalue with nonzero real part")
    return eps


def equilibrium_dual(flow: AssembledFlow) -> np.ndarray:
    """Minimum-norm v* with L_kron v* = z_H - H_tilde (1 (x) y*)."""
    if not flow.problem.full_rank:
        raise RankDeficientError(
            "equilibrium needs a full-rank problem", flow.problem.numerical_rank
        )
    x_star = np.tile(flow.y_ref, flow.problem.n_nodes)
    rhs = flow.z_H - flow.H_tilde @ x_star
    v_star, _, _, _ = np.linalg.lstsq(flow.L_kron, rhs, rcond=RANK_RTOL)
    gap = np.linalg.norm(flow.L_kron @ v_star - rhs)
    if gap > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise EquilibriumInfeasibleError(
            f"stationarity system inconsistent (residual {gap:.3e})"
        )
    return v_star


def predict_v_limit(flow: AssembledFlow, v0) -> np.ndarray:
    """(I - W) v* + W v(0): the dual limit from v(0) = v0, with v* from
    :func:`equilibrium_dual`, W from :func:`_consensus_projector` and the
    verdict of :func:`check_condition` from the flow's Laplacian.
    v0 is checked first, as a simulator checks its initial states.

    The limits from all starts form the affine set v* + range(W), so two
    graphs' sets meet iff their limits from one v0 agree. Raises
    :class:`ConditionViolatedError` where the condition fails: the flow
    then has undamped oscillatory modes or the graph is disconnected.
    """
    v0, = _initial_states(flow, v0)
    if not _condition(flow.problem, flow.L).holds:
        raise ConditionViolatedError(
            "spanning condition fails; flow has undamped oscillatory modes or the graph "
            "is disconnected"
        )
    v_star = equilibrium_dual(flow)
    W = _consensus_projector(flow.problem)
    return (v_star - W @ v_star) + W @ v0


def _consensus_projector(problem: NetworkLinearEquation) -> np.ndarray:
    """W = (1 1^T / n) (x) I_m: where the condition holds, the kernels of M
    and M^T are ``{(0, 1 (x) eta)}``, and W is the v-block of the spectral
    projector onto them."""
    W = np.kron(np.full((problem.n_nodes,) * 2, 1.0 / problem.n_nodes), np.eye(problem.dim))
    W.setflags(write=False)
    return W


def build_spectral_report(flow: AssembledFlow) -> SpectralReport:
    """Eigen-data bundle serialized by the CLI's analyze mode: the verdict,
    kernel dimension, eigenvalues and step threshold from one rank pass and
    one dense eigen-solve; W is :func:`_consensus_projector` where it holds."""
    spect, zero_space_dim, failing, eigs, stable = _m_parts(flow)
    verdict = _verdict(flow.problem, spect, failing)
    W = _consensus_projector(flow.problem) if verdict.holds else None
    return SpectralReport(m_eigenvalues=eigs, epsilon_star=_step_threshold(stable),
                          zero_space_dim=zero_space_dim, projector_W=W, condition=verdict)
