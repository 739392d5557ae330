"""System-matrix assembly and spectral convergence analysis.

The saddle-point flow for a problem (H, z) on a graph with Laplacian L
is affine: ``u' = M u + b`` for the stacked state ``u = [x; v]`` with

    M = [[-H_tilde, -L_kron],
         [ L_kron,      0  ]]

where ``H_tilde`` is the block diagonal of the per-node outer products
``h_i h_i^T`` and ``L_kron = L (x) I_m``. Whether every trajectory
reaches consensus on the least-squares solution is decided entirely by
the eigenvalues of M: failure is equivalent to a nonzero purely
imaginary eigenvalue, and the stable part of the spectrum yields the
exact step-size threshold for the forward-Euler iteration.
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
    NotApplicableError,
    NumericalFailureError,
    RankDeficientError,
)
from .graphs import (Graph, LaplacianSpectrum, is_connected, laplacian, spectrum,
                     _eigenspace_members, _support_of)
from .problem import (
    RANK_RTOL,
    NetworkLinearEquation,
    solve_least_squares,
)

# |Re(lambda)| <= TAU_IM * |lambda| classifies an eigenvalue as purely
# imaginary; |lambda| <= TAU_ZERO_REL * spectral_radius classifies it as
# zero. Both guards keep the numerical kernel of M out of the stable set.
TAU_IM = 1e-7
TAU_ZERO_REL = 1e-8
TAU_KER_REL = 1e-9

CHECK_METHODS = ("simple_spectrum", "m_spectrum", "both")


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
    method: str
    witness_support: Optional[frozenset] = None  # nodes backing the witness


@dataclass(frozen=True)
class SpectralReport:
    m_eigenvalues: np.ndarray      # 2Nm complex values, sorted by (re, im)
    epsilon_star: Optional[float]  # None when no eigenvalue has Re != 0
    zero_space_dim: int
    projector_W: Optional[np.ndarray]  # v-block projector; None if condition fails
    condition: ConditionVerdict    # method "both", from the same spectrum


def assemble(problem: NetworkLinearEquation, graph: Graph) -> AssembledFlow:
    if problem.n_nodes != graph.n_nodes:
        raise DimensionMismatchError(
            f"problem has {problem.n_nodes} nodes, graph has {graph.n_nodes}"
        )
    n, m = problem.n_nodes, problem.dim
    H_tilde = np.zeros((n * m, n * m))
    for i in range(n):
        h = problem.rows[i]
        H_tilde[i * m:(i + 1) * m, i * m:(i + 1) * m] = np.outer(h, h)
    z_H = (problem.obs[:, None] * problem.rows).reshape(-1)
    L_kron = np.kron(laplacian(graph), np.eye(m))
    M = np.block([
        [-H_tilde, -L_kron],
        [L_kron, np.zeros((n * m, n * m))],
    ])
    try:
        y_ref = solve_least_squares(problem).y_star
    except RankDeficientError:
        y_ref = np.zeros(m)
    for a in (H_tilde, z_H, L_kron, M, y_ref):
        a.setflags(write=False)
    return AssembledFlow(
        problem=problem, graph=graph,
        H_tilde=H_tilde, z_H=z_H, L_kron=L_kron, M=M, y_ref=y_ref,
    )


def flow_cost(flow: AssembledFlow, x) -> float:
    """Half the sum of squared per-node measurement mismatches.

    The one-half factor makes the analytic gradient exactly
    ``H_tilde x - z_H``.
    """
    x = np.asarray(x, dtype=float).reshape(flow.problem.n_nodes, flow.problem.dim)
    r = np.einsum("ij,ij->i", flow.problem.rows, x) - flow.problem.obs
    return 0.5 * float(r @ r)


def flow_gradient(flow: AssembledFlow, x) -> np.ndarray:
    return flow.H_tilde @ np.asarray(x, dtype=float) - flow.z_H


def m_spectrum(flow: AssembledFlow) -> np.ndarray:
    """All 2Nm eigenvalues of M, sorted by (real, imaginary) part."""
    try:
        eigs = np.linalg.eigvals(flow.M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"dense eigen-solve failed: {exc}") from exc
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


def _nonzero_split(eigs) -> tuple:
    """(purely imaginary, stable) eigenvalues among those classified nonzero."""
    eigs = np.asarray(eigs, dtype=complex)
    radius = np.abs(eigs).max(initial=0.0)
    nonzero = eigs[np.abs(eigs) > TAU_ZERO_REL * max(radius, 1e-300)]
    imaginary = np.abs(nonzero.real) <= TAU_IM * np.abs(nonzero)
    return nonzero[imaginary], nonzero[~imaginary]


def _imaginary_nonzero(eigs: np.ndarray) -> np.ndarray:
    """Eigenvalues classified as nonzero and purely imaginary."""
    return _nonzero_split(eigs)[0]


def _holds(eigs: np.ndarray, graph: Graph) -> bool:
    """The spanning condition: a connected graph, and no nonzero purely
    imaginary eigenvalue of M (the equivalence assumes connectivity)."""
    return is_connected(graph) and _imaginary_nonzero(eigs).size == 0


def _rank_of_rows(rows: np.ndarray) -> tuple:
    """(rank, unit null vector for the smallest singular value)."""
    _, sv, vt = np.linalg.svd(rows)
    tol = sv[0] * max(rows.shape) * RANK_RTOL if sv.size else 0.0
    rank = int(np.count_nonzero(sv > tol))
    return rank, vt[-1]


def _witness(problem, spect: LaplacianSpectrum, groups) -> tuple:
    """(witness, support) of the first eigenspace member, over ``groups``,
    whose support rows do not span the unknown space; (None, None) if none."""
    for group in groups:
        basis = spect.eigenvectors[:, list(group)]
        for member in _eigenspace_members(basis):
            support = _support_of(member)
            rank, eta = _rank_of_rows(problem.rows[np.array(sorted(support)) - 1])
            if rank < problem.dim:
                return (float(spect.eigenvalues[group[0]]), eta), support
    return None, None


def _verdict(problem, graph, spect: LaplacianSpectrum, eigs, method: str) -> ConditionVerdict:
    """Verdict of the ``m_spectrum`` or ``both`` method from the spectrum of M.

    The Laplacian-side witness search runs only where it is needed: when
    the condition fails, or under ``both`` as the cross-check on a simple
    spectrum. On a disconnected graph no direction mixes across
    components, so the witness is the first unit vector at eigenvalue 0,
    backed by node 1's component: the support of the zero-eigenspace
    projection of the first node's indicator.
    """
    holds = _holds(eigs, graph)
    if not holds and not is_connected(graph):
        zero = spect.eigenvectors[:, list(spect.eigenspace_groups[0])]
        return ConditionVerdict(False, (0.0, np.eye(problem.dim)[0]), method,
                                _support_of(zero @ zero[0]))
    if method == "both" and all(len(g) == 1 for g in spect.eigenspace_groups):
        witness, support = _witness(problem, spect, spect.eigenspace_groups)
        if (witness is None) != holds:
            raise InternalInconsistencyError(
                f"checkers disagree: simple_spectrum={witness is None}, m_spectrum={holds}"
            )
        return ConditionVerdict(holds, witness, method, support)
    if holds:
        return ConditionVerdict(True, None, method)
    # the zero eigenspace of a connected graph holds only the constants
    witness, support = _witness(problem, spect, spect.eigenspace_groups[1:])
    return ConditionVerdict(False, witness, method, support)


def check_condition(problem: NetworkLinearEquation, graph: Graph,
                    method: str = "both") -> ConditionVerdict:
    """Decide whether every eigenvector support spans the unknown space.

    ``simple_spectrum`` checks row spans per eigenvector and requires all
    Laplacian eigenvalues distinct. ``m_spectrum`` detects nonzero purely
    imaginary eigenvalues of M on a connected graph and works
    unconditionally; it is the authoritative test. ``both`` runs the
    authoritative test and, when the spectrum is simple, also the direct
    one, raising :class:`InternalInconsistencyError` on disagreement. A
    disconnected graph fails under every method that applies to it.
    """
    if method not in CHECK_METHODS:
        raise ValueError(f"method must be one of {CHECK_METHODS}, got {method!r}")
    if problem.n_nodes != graph.n_nodes:
        raise DimensionMismatchError(
            f"problem has {problem.n_nodes} nodes, graph has {graph.n_nodes}"
        )
    spect = spectrum(laplacian(graph))
    if method == "simple_spectrum":
        if any(len(g) > 1 for g in spect.eigenspace_groups):
            raise NotApplicableError("Laplacian spectrum has repeated eigenvalues")
        witness, support = _witness(problem, spect, spect.eigenspace_groups)
        return ConditionVerdict(witness is None, witness, method, support)
    return _verdict(problem, graph, spect, m_spectrum(assemble(problem, graph)), method)


def epsilon_star_from_eigenvalues(eigenvalues) -> float:
    """min over eigenvalues with Re != 0 of -2 Re / |lambda|^2."""
    stable = _nonzero_split(eigenvalues)[1]
    if stable.size == 0:
        raise NoStableModesError("no eigenvalue with nonzero real part")
    return float(np.min(-2.0 * stable.real / np.abs(stable) ** 2))


def epsilon_star(flow: AssembledFlow) -> float:
    return epsilon_star_from_eigenvalues(m_spectrum(flow))


def _kernel_bases(flow: AssembledFlow):
    """Biorthogonalized right/left kernel bases of M from singular vectors."""
    U, sv, Vt = np.linalg.svd(flow.M)
    tol = TAU_KER_REL * sv[0] if sv.size else 0.0
    small = sv <= tol
    right = Vt[small, :].T
    left = U[:, small]
    return right, left


def _projector(flow: AssembledFlow, right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """v-block of the spectral projector onto the zero eigenspace."""
    d = right.shape[1]
    m = flow.problem.dim
    if d != m:
        raise InternalInconsistencyError(f"zero eigenspace has dimension {d}, expected {m}")
    nm = flow.state_dim
    if np.abs(right[:nm, :]).max(initial=0.0) > 1e-8:
        raise InternalInconsistencyError("zero eigenvectors have nonzero x-block")
    gram = left.T @ right
    projector = right @ np.linalg.solve(gram, left.T)
    W = projector[nm:, nm:]
    if np.abs(W @ W - W).max(initial=0.0) > 1e-8:
        raise InternalInconsistencyError("projector is not idempotent")
    W.setflags(write=False)
    return W


def zero_space_projector(flow: AssembledFlow) -> tuple:
    """Spectral projector onto the zero eigenspace, restricted to the v-block.

    Requires the spanning condition; with it the zero eigenspace has
    dimension m, zero x-block, and consensus-shaped v-block, so the full
    projector acts only on v and the returned matrix is N m x N m.
    """
    if not _holds(m_spectrum(flow), flow.graph):
        raise ConditionViolatedError(
            "spanning condition fails; flow has undamped oscillatory modes or the graph "
            "is disconnected"
        )
    return flow.problem.dim, _projector(flow, *_kernel_bases(flow))


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


def predict_v_limit(flow: AssembledFlow, v_star, v0) -> np.ndarray:
    """(I - W) v* + W v(0): the dual limit for a given start."""
    v_star = np.asarray(v_star, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    x_star = np.tile(flow.y_ref, flow.problem.n_nodes)
    rhs = flow.z_H - flow.H_tilde @ x_star
    gap = np.linalg.norm(flow.L_kron @ v_star - rhs)
    if gap > 1e-6 * (1.0 + np.linalg.norm(rhs)):
        raise EquilibriumInfeasibleError(
            f"v_star does not satisfy the stationarity system (residual {gap:.3e})"
        )
    _, W = zero_space_projector(flow)
    return (v_star - W @ v_star) + W @ v0


def build_spectral_report(flow: AssembledFlow) -> SpectralReport:
    """Eigen-data bundle serialized by the CLI's analyze mode.

    One eigen-solve of M yields the verdict (method ``both``), the step
    threshold and, when the condition holds, the projector.
    """
    eigs = m_spectrum(flow)
    verdict = _verdict(flow.problem, flow.graph, spectrum(laplacian(flow.graph)), eigs, "both")
    try:
        eps = epsilon_star_from_eigenvalues(eigs)
    except NoStableModesError:
        eps = None
    right, left = _kernel_bases(flow)
    W = _projector(flow, right, left) if verdict.holds else None
    return SpectralReport(m_eigenvalues=eigs, epsilon_star=eps, zero_space_dim=right.shape[1],
                          projector_W=W, condition=verdict)
