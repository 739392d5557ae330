"""Graph construction, Laplacian spectra, and eigenvector support analysis.

The convergence condition is a rank test on each Laplacian eigenspace:
with eigenbasis B, the matrix with rows ``B_i (x) h_i`` must have full
column rank. Only where the spectrum is simple is that the same as each
eigenvector's support (the nodes where it is nonzero) carrying rows
that span the unknown space. This module computes those support sets
and the minimum support over all eigenvectors, including members of
repeated eigenspaces that a fixed basis would miss.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InternalInconsistencyError,
    InvalidNodeError,
    NotCharacterizedError,
    NumericalFailureError,
    TooSmallError,
)

# Eigenvector entries below TAU_SUPP (after unit normalization) count as
# zero; for TAU_GAP see :func:`_require_apart`.
TAU_SUPP = 1e-9
TAU_GAP = 1e-3

FAMILIES = ("path", "ring", "star", "complete")


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 1..n_nodes with an unordered edge set."""

    n_nodes: int
    edges: frozenset
    label: str = field(default="", compare=False)

    def __post_init__(self):
        n = _node_index(self.n_nodes, "node count")
        if n < 1:
            raise TooSmallError("graph needs at least one node")
        seen = set()
        for e in self.edges:
            i, j = e
            # one chained test passes a new edge (i, j) of plain ints, 1 <= i < j <= n
            if type(i) is not int or type(j) is not int or not 1 <= i < j <= n or e in seen:
                _check_edge(e, n, seen)
            seen.add(e)

    @property
    def name(self) -> str:
        """The display name in reprs and run metadata: the label, else
        ``custom-<n_nodes>``."""
        return self.label or f"custom-{self.n_nodes}"

    def __repr__(self) -> str:
        return f"Graph({self.name}, {len(self.edges)} edges)"


def _node_index(value, what: str = "node index") -> int:
    """``value`` as an int; anything but an integer (bool included) raises
    :class:`InvalidNodeError` instead of being truncated."""
    if type(value) is int:              # the common case, without the ABC check
        return value
    if not _is_int(value):
        raise InvalidNodeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_edge(e, n: int, seen) -> None:
    """Raise for the first fault of edge ``e`` of a graph on n nodes
    that already has the edges ``seen``; an edge of integers (numpy
    integers too) with ``1 <= i < j <= n`` passes."""
    i, j = (_node_index(v) for v in e)
    if i == j:
        raise ValueError(f"self-loop at node {i}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidNodeError(f"edge {e} outside 1..{n}")
    if i > j:
        raise ValueError(f"edge {e} not normalized; use make_graph")
    if e in seen:
        raise ValueError(f"duplicate edge {e}")


def make_graph(n_nodes: int, edges, label: str = "") -> Graph:
    """Build a graph from arbitrary (i, j) pairs, normalizing i < j.

    The node count and indices must be integers (numpy integers too).
    """
    n_nodes = _node_index(n_nodes, "node count")
    normalized = []
    for i, j in edges:
        i, j = _node_index(i), _node_index(j)
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        normalized.append((min(i, j), max(i, j)))
    if len(set(normalized)) != len(normalized):
        raise ValueError("duplicate edges after normalization")
    return Graph(n_nodes=n_nodes, edges=frozenset(normalized), label=label)


def make_family(family: str, n: int) -> Graph:
    """One of the four fundamental families; star's hub is node 1. The
    edges come out normalized and distinct, so the graph is built once."""
    n = _node_index(n, "node count")
    if n < 3:
        raise TooSmallError(f"family graphs need n >= 3, got {n}")
    if family == "path":
        edges = [(i, i + 1) for i in range(1, n)]
    elif family == "ring":
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    elif family == "star":
        edges = [(1, i) for i in range(2, n + 1)]
    elif family == "complete":
        edges = itertools.combinations(range(1, n + 1), 2)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return Graph(n_nodes=n, edges=frozenset(edges), label=f"{family}-{n}")


def laplacian(graph: Graph) -> np.ndarray:
    """L = D - A: symmetric, zero row sums, diagonal = degrees."""
    n, edges = graph.n_nodes, graph.edges
    ends = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.intp,
                       count=2 * len(edges)).reshape(-1, 2).T - 1
    L = np.zeros((n, n))
    L[ends, ends[::-1]] = -1.0          # each edge once: a Graph's edges are distinct
    L[np.diag_indices(n)] += np.bincount(ends.ravel(), minlength=n)
    return L


@dataclass(frozen=True)
class LaplacianSpectrum:
    eigenvalues: np.ndarray        # ascending
    eigenvectors: np.ndarray       # orthonormal columns, same order
    eigenspace_groups: tuple       # tuple of index tuples, equal eigenvalues


@dataclass(frozen=True)
class SupportReport:
    supports: tuple       # per basis eigenvector: frozenset of 1-based nodes
    min_support: int
    simple_spectrum: bool


def spectrum(L: np.ndarray) -> LaplacianSpectrum:
    """Orthonormal eigen-decomposition of a symmetric matrix.

    Neighbouring eigenvalues within eigh's backward error ``n eps
    ||L||_inf`` form one eigenspace, whose spread must lie apart from its
    gaps to the next ones; consumers must not rely on any basis choice
    inside a group.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or not L.size:
        raise ValueError("expected a nonempty square matrix")
    if not np.isfinite(L).all():
        raise ValueError("expected a matrix of finite entries, got non-finite ones")
    if not np.abs(L - L.T).max() <= 1e-12 * max(1.0, float(np.abs(L).max())):
        raise ValueError("expected a symmetric matrix")
    try:
        w, V = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"symmetric eigen-solve failed: {exc}") from exc

    scale = float(np.abs(L).sum(axis=1).max(initial=0.0))  # inf-norm of L
    resid = np.abs(L @ V - V * w).max(initial=0.0)
    if resid > 1e-9 * max(scale, 1e-300):
        raise NumericalFailureError(f"eigenpair residual {resid:.3e} too large")

    step = w[1:] - w[:-1]
    cuts = np.flatnonzero(step > w.size * np.finfo(float).eps * scale)
    starts, ends = np.concatenate(([0], cuts + 1)), np.concatenate((cuts + 1, [w.size]))
    spread = w[ends - 1] - w[starts]
    _require_apart(np.maximum(spread[:-1], spread[1:]), step[cuts], "eigenspace spread and gap")
    for arr in (w, V):
        arr.setflags(write=False)
    groups = tuple(tuple(range(a, b)) for a, b in zip(starts.tolist(), ends.tolist()))
    return LaplacianSpectrum(eigenvalues=w, eigenvectors=V, eigenspace_groups=groups)


def _require_apart(inside, outside, what: str) -> None:
    """Raise :class:`InternalInconsistencyError` unless each cluster's size
    ``inside`` (spread or modulus) is below TAU_GAP times its gap ``outside``."""
    bad = np.flatnonzero(inside >= TAU_GAP * outside)
    if bad.size:
        inside, outside = np.broadcast_arrays(inside, outside)
        raise InternalInconsistencyError(f"{what} {inside.flat[bad[0]]:.3e} and "
                                         f"{outside.flat[bad[0]]:.3e} are not apart")


def _support_mask(vectors: np.ndarray) -> np.ndarray:
    """Row r, column k: node k + 1 is in the support of ``vectors[r]``."""
    return np.abs(vectors) > TAU_SUPP * np.linalg.norm(vectors, axis=1, keepdims=True)


def _support_of(vec: np.ndarray) -> frozenset:
    return frozenset((np.flatnonzero(_support_mask(vec[None])) + 1).tolist())


def _pair_members(basis: np.ndarray, pairs=None):
    """Members of the eigenspace spanned by the orthonormal columns of
    ``basis`` supported on two nodes: yields ``(i, j, members)`` per chunk
    of at most n node pairs ``i < j`` (0-based, in (i, j) order), with the
    members as rows. An n x n boolean ``pairs`` keeps only the node pairs
    it marks.

    Such a member is a null vector of the orthogonal projector
    ``C = I - B B^T`` restricted to columns i and j. The smallest
    eigenvalue of their Gram matrix ``[[C_ii, C_ij], [C_ij, C_jj]]``, in
    closed form, picks candidates loosely (<= 1e-10); one stacked SVD per
    chunk confirms them (sigma_2 <= 1e-9) and gives the members.
    """
    n = basis.shape[0]
    complement = np.eye(n) - basis @ basis.T
    diag = np.diag(complement)
    smallest = 0.5 * (diag[:, None] + diag) - np.hypot(0.5 * (diag[:, None] - diag), complement)
    candidates = smallest <= 1e-10
    if pairs is not None:
        candidates &= pairs
    rows, cols = np.nonzero(np.triu(candidates, k=1))
    for start in range(0, rows.size, n):
        i, j = rows[start:start + n], cols[start:start + n]
        stack = np.stack([complement[:, i].T, complement[:, j].T], axis=-1)
        _, sv, vt = np.linalg.svd(stack, full_matrices=False)
        keep = sv[:, 1] <= 1e-9
        members = np.zeros((np.count_nonzero(keep), n))
        np.put_along_axis(members, np.stack([i[keep], j[keep]], axis=1), vt[keep, 1], axis=1)
        yield i[keep], j[keep], members


def _eigenspace_members(basis: np.ndarray, pairs=None):
    """Members of the eigenspace spanned by the orthonormal columns of
    ``basis``, sparsest candidates first, as blocks of rows.

    One dimension: the basis vector. Two dimensions: for each node with a
    nonzero basis row, the member vanishing there, one per support,
    ordered by (support size, sorted support); any other member's support
    contains all of theirs, so the list is exact for the smallest support
    and for the first rank-deficient one. Three or more: the members
    supported on two nodes in (i, j) order, one block per chunk (only on
    the node pairs that ``pairs`` marks, if given), then the basis
    vectors. Consumers stop at the first block that settles them.
    """
    d = basis.shape[1]
    if d == 1:
        yield basis.T
        return
    if d == 2:
        nodes = basis[np.linalg.norm(basis, axis=1) > TAU_SUPP]
        members = (basis @ np.array([nodes[:, 1], -nodes[:, 0]])).T
        masks = _support_mask(members)
        first = {}  # support -> index of the first member with it
        for k, mask in enumerate(masks):
            first.setdefault(mask.tobytes(), k)
        supports = {k: np.flatnonzero(masks[k]).tolist() for k in first.values()}
        yield members[sorted(supports, key=lambda k: (len(supports[k]), supports[k]))]
        return
    for _, _, members in _pair_members(basis, pairs):
        yield members
    yield basis.T


def _min_support_in_group(basis: np.ndarray) -> int:
    """Smallest support over the members :func:`_eigenspace_members` yields.

    Exact for one- and two-dimensional eigenspaces and whenever the
    eigenspace contains a member supported on two nodes. Otherwise it is
    the smallest support among the basis vectors: an upper bound that
    depends on the eigen-solver's basis (Q3's eigenvalue-2 space gives 8,
    where chi_1 + chi_2 has support 4). A connected graph admits no
    eigenvector supported on a single node, so support two is a global
    floor for the search: the first candidate that reaches it ends it.
    """
    best = basis.shape[0]
    for block in _eigenspace_members(basis):
        sizes = _support_mask(block).sum(axis=1)
        floor = np.flatnonzero(sizes <= 2)
        if floor.size:
            return int(sizes[floor[0]])
        best = int(sizes.min(initial=best))
    return best


def support_report(spect: LaplacianSpectrum) -> SupportReport:
    """Support sets of the computed basis plus the eigenspace-wide minimum."""
    V = spect.eigenvectors
    supports = tuple(_support_of(V[:, k]) for k in range(V.shape[1]))
    simple = all(len(g) == 1 for g in spect.eigenspace_groups)
    min_support = min(_min_support_in_group(V[:, list(group)])
                      for group in spect.eigenspace_groups)
    return SupportReport(supports=supports, min_support=min_support, simple_spectrum=simple)


def _is_int(v) -> bool:
    """An integer (numpy integers too) that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _graph_spec(d) -> tuple:
    """``(type, n, edges)`` of a graph's JSON form, checked without
    building the graph: n an integer, type known, and for a custom graph
    edges a list of ``[i, j]`` integer pairs (None for a family).
    """
    if not isinstance(d, dict):
        raise ValueError("graph spec must be an object")
    kind, n, edges = d.get("type"), d.get("n"), d.get("edges")
    if not _is_int(n):
        raise ValueError("graph spec needs an integer 'n'")
    if kind in FAMILIES:
        return kind, n, None
    if kind != "custom":
        raise ValueError(f"graph type must be one of {FAMILIES + ('custom',)}, got {kind!r}")
    if not (isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2
                                            and all(map(_is_int, e)) for e in edges)):
        raise ValueError("custom graph spec needs an 'edges' list of [i, j] integer pairs")
    return kind, n, edges


def graph_from_dict(d: dict) -> Graph:
    """Build a graph from its JSON form.

    ``{"type": "path"|"ring"|"star"|"complete", "n": N}`` or
    ``{"type": "custom", "n": N, "edges": [[i, j], ...]}`` (1-based).
    """
    kind, n, edges = _graph_spec(d)
    return make_family(kind, n) if edges is None else make_graph(n, edges)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def family_min_support(family: str, n: int) -> int:
    """Catalogued closed-form minimum support for the covered cases.

    Covered: path with n a power of two or a multiple of three; ring with
    n prime, a multiple of three, or a power of two at least eight; star
    and complete for any n. Anything else raises
    :class:`NotCharacterizedError`. Rings with n divisible by three give
    2n/3, except when n is also divisible by four: then the frequency-n/4
    eigenplane (eigenvalue 2) holds ``cos(pi j / 2)``, which vanishes on
    every odd node, so the minimum is n/2. Every covered ring agrees with
    ``n - max_k gcd(2k, n)``, the support that ``support_report`` computes.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    n = _node_index(n, "node count")
    if n < 3:
        raise TooSmallError(f"family graphs need n >= 3, got {n}")
    if family == "star" or family == "complete":
        return 2
    if family == "path":
        if _is_power_of_two(n):
            return n
        if n % 3 == 0:
            return 2 * n // 3
        raise NotCharacterizedError(f"no closed form catalogued for path n={n}")
    # ring
    if _is_prime(n):
        return n - 1
    if n % 3 == 0:
        return n // 2 if n % 4 == 0 else 2 * n // 3
    if _is_power_of_two(n) and n >= 8:
        return n // 2
    raise NotCharacterizedError(f"no closed form catalogued for ring n={n}")
