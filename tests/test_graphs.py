import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsqflow as lf
from lsqflow.graphs import (
    _min_support_in_group,
    _pair_members,
    _support_of,
)

from _helpers import (graph_to_dict, laplacian_by_loop, members_of, pair_members_by_loop,
                      random_connected_graph)


def incidence_laplacian(graph):
    # independent construction: L = B^T B for the signed incidence matrix
    B = np.zeros((len(graph.edges), graph.n_nodes))
    for k, (i, j) in enumerate(sorted(graph.edges)):
        B[k, i - 1] = 1.0
        B[k, j - 1] = -1.0
    return B.T @ B


def component_count(graph):
    parent = list(range(graph.n_nodes + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in graph.edges:
        parent[find(i)] = find(j)
    return len({find(k) for k in range(1, graph.n_nodes + 1)})


def groups_by_loop(w, tol):
    """Eigenvalue indices split wherever a neighbour lies more than tol above."""
    groups = [[0]]
    for k in range(1, len(w)):
        if w[k] - w[k - 1] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return tuple(map(tuple, groups))


@st.composite
def arbitrary_graphs(draw):
    n = draw(st.integers(3, 8))
    possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(possible), max_size=len(possible)))
    return lf.make_graph(n, edges)


class TestConstruction:
    def test_families_tuple(self):
        assert lf.FAMILIES == ("path", "ring", "star", "complete")

    def test_path_edges_are_canonical(self):
        g = lf.make_family("path", 4)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_ring_closes_the_path(self):
        g = lf.make_family("ring", 5)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})

    def test_star_hub_is_node_one(self):
        g = lf.make_family("star", 4)
        assert g.edges == frozenset({(1, 2), (1, 3), (1, 4)})

    def test_complete_edge_count(self):
        g = lf.make_family("complete", 6)
        assert len(g.edges) == 15

    def test_family_too_small(self):
        with pytest.raises(lf.TooSmallError):
            lf.make_family("path", 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            lf.make_family("hypercube", 8)

    def test_edges_normalized(self):
        g = lf.make_graph(3, [(2, 1), (3, 2)])
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            lf.make_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(lf.InvalidNodeError):
            lf.make_graph(3, [(1, 4)])

    @pytest.mark.parametrize("n_nodes, edges", [
        (4, [(1.5, 2)]), (4, [("1", 2)]), (4, [(True, 2)]), (4, [(1, 2.0)]),
        (4.0, [(1, 2)]), (True, []), ("4", [(1, 2)]),
    ])
    def test_non_integer_nodes_rejected(self, n_nodes, edges):
        # no silent truncation: (1.5, 2) must not become the edge (1, 2)
        with pytest.raises(lf.InvalidNodeError):
            lf.make_graph(n_nodes, edges)

    @pytest.mark.parametrize("family, n", [
        ("path", 4.5), ("ring", 4.5), ("complete", 5.5), ("star", 6.0), ("ring", True),
    ])
    def test_family_rejects_non_integer_node_count(self, family, n):
        # no silent use of a float: ring 4.5 must not get minimum support 3.5
        with pytest.raises(lf.InvalidNodeError):
            lf.make_family(family, n)
        with pytest.raises(lf.InvalidNodeError):
            lf.family_min_support(family, n)

    def test_numpy_integer_nodes_accepted(self):
        g = lf.make_graph(np.int64(4), [(np.int64(2), np.int32(1)), (np.uint8(3), 4)])
        assert g == lf.make_graph(4, [(1, 2), (3, 4)])
        assert type(g.n_nodes) is int
        assert all(type(i) is int for e in g.edges for i in e)
        assert repr(g) == "Graph(custom-4, 2 edges)"

    @pytest.mark.parametrize("n_nodes, edges", [
        (4.5, {(1.5, 2), (2, 3)}), (4, {(1.5, 2)}), (4, {(1, 2.0)}), (4, {(True, 2)}),
        (4, {(1, np.float64(2))}), (4.0, {(1, 2)}), (np.float64(4), set()), (True, set()),
        (4, {(np.bool_(True), 2)}),
    ])
    def test_graph_rejects_non_integer_nodes(self, n_nodes, edges):
        # the dataclass itself checks types, not only make_graph
        with pytest.raises(lf.InvalidNodeError):
            lf.Graph(n_nodes=n_nodes, edges=frozenset(edges))

    def test_graph_accepts_numpy_integer_nodes(self):
        edges = frozenset({(np.int64(1), np.int32(2)), (np.uint8(3), 4)})
        g = lf.Graph(n_nodes=np.int64(4), edges=edges)
        plain = lf.make_graph(4, [(1, 2), (3, 4)])
        assert g == plain
        assert np.array_equal(lf.laplacian(g), lf.laplacian(plain))
        # ranges, order and self-loops are still checked on numpy integers
        with pytest.raises(lf.InvalidNodeError):
            lf.Graph(n_nodes=4, edges=frozenset({(np.int64(0), 1)}))
        with pytest.raises(ValueError, match="not normalized"):
            lf.Graph(n_nodes=4, edges=frozenset({(np.int64(2), 1)}))
        with pytest.raises(ValueError, match="self-loop"):
            lf.Graph(n_nodes=4, edges=frozenset({(np.int16(2), 2)}))

    def test_dict_round_trip_family(self):
        g = lf.make_family("ring", 7)
        assert lf.graph_from_dict(graph_to_dict(g)) == g

    def test_dict_round_trip_custom(self):
        g = lf.make_graph(5, [(1, 4), (2, 4), (3, 5), (4, 5)])
        assert lf.graph_from_dict(graph_to_dict(g)) == g

    def test_dict_custom_requires_edges(self):
        with pytest.raises((lf.LsqflowError, ValueError)):
            lf.graph_from_dict({"type": "custom", "n": 4})


class TestLaplacian:
    @given(arbitrary_graphs())
    @settings(max_examples=100)
    def test_matches_incidence_construction(self, graph):
        L = lf.laplacian(graph)
        assert np.array_equal(L, incidence_laplacian(graph))

    def test_bit_identical_to_edge_loop(self):
        graphs = [lf.make_family(family, n) for family in lf.FAMILIES for n in (3, 4, 7, 48)]
        graphs += [lf.make_graph(6, [(2, 1), (3, 5), (6, 1), (4, 6), (5, 1)]),
                   lf.make_graph(3, [])]
        for graph in graphs:
            assert lf.laplacian(graph).tobytes() == laplacian_by_loop(graph).tobytes()

    @given(arbitrary_graphs())
    @settings(max_examples=100)
    def test_symmetric_with_zero_row_sums(self, graph):
        L = lf.laplacian(graph)
        assert np.array_equal(L, L.T)
        assert np.abs(L.sum(axis=1)).max() == 0.0

    @given(arbitrary_graphs())
    @settings(max_examples=50)
    def test_zero_eigenvalue_multiplicity_counts_components(self, graph):
        L = lf.laplacian(graph)
        spect = lf.spectrum(L)
        scale = max(1.0, np.abs(L).max())
        n_zero = int(np.sum(np.abs(spect.eigenvalues) <= 1e-8 * scale))
        assert n_zero == component_count(graph)


class TestSpectrum:
    def test_path4_known_eigenvalues(self):
        spect = lf.spectrum(lf.laplacian(lf.make_family("path", 4)))
        expected = sorted(2.0 - 2.0 * math.cos(k * math.pi / 4.0) for k in range(4))
        assert np.abs(spect.eigenvalues - expected).max() < 1e-12

    def test_star_eigenvalues_and_grouping(self):
        spect = lf.spectrum(lf.laplacian(lf.make_family("star", 5)))
        assert np.abs(spect.eigenvalues - [0.0, 1.0, 1.0, 1.0, 5.0]).max() < 1e-12
        sizes = sorted(len(g) for g in spect.eigenspace_groups)
        assert sizes == [1, 1, 3]

    def test_complete_eigenvalues(self):
        n = 6
        spect = lf.spectrum(lf.laplacian(lf.make_family("complete", n)))
        expected = [0.0] + [float(n)] * (n - 1)
        assert np.abs(spect.eigenvalues - expected).max() < 1e-12

    @given(arbitrary_graphs())
    @settings(max_examples=50)
    def test_orthonormal_eigenvectors_and_small_residual(self, graph):
        L = lf.laplacian(graph)
        spect = lf.spectrum(L)
        V = spect.eigenvectors
        assert np.abs(V.T @ V - np.eye(graph.n_nodes)).max() < 1e-10
        resid = L @ V - V * spect.eigenvalues
        assert np.abs(resid).max() <= 1e-9 * max(1.0, np.abs(L).max())
        tol = graph.n_nodes * np.finfo(float).eps * np.abs(L).sum(axis=1).max()
        assert spect.eigenspace_groups == groups_by_loop(spect.eigenvalues, tol)

    def test_rejects_asymmetric_input(self):
        # the second is within 1e-5 relative, which a relative test let through
        for L in ([[1.0, 2.0], [0.0, 1.0]], [[1.0, 2.0], [2.00001, 1.0]]):
            with pytest.raises(ValueError, match="symmetric"):
                lf.spectrum(np.array(L))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="nonempty"):
            lf.spectrum(np.zeros((0, 0)))

    def test_grouping_tolerance_is_relative(self):
        # eigh's backward error n eps ||L||_inf groups 5 and 5 + 1e-14, and
        # keeps 1e-9 apart from 0 next to lambda_max = 1000
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 5)))
        spect = lf.spectrum(q @ np.diag([0.0, 1e-9, 5.0, 5.0 + 1e-14, 1e3]) @ q.T)
        assert spect.eigenspace_groups == ((0,), (1,), (2, 3), (4,))
        assert abs(spect.eigenvalues[1] - 1e-9) < 1e-11

    def test_groups_not_apart_raise(self):
        # 1 and 1 + 4e-16 group, but their spread is not apart from the
        # gap of 1e-13 to the next eigenvalue
        with pytest.raises(lf.InternalInconsistencyError, match="not apart"):
            lf.spectrum(np.diag([0.0, 1.0, 1.0 + 4e-16, 1.0 + 1e-13]))


class TestSupportReport:
    def test_star4_minimal_support_is_a_leaf_pair(self):
        spect = lf.spectrum(lf.laplacian(lf.make_family("star", 4)))
        report = lf.support_report(spect)
        assert report.min_support == 2
        assert not report.simple_spectrum
        # the repeated eigenvalue's eigenspace lives on the leaves only
        hubless = [s for s in report.supports if 1 not in s]
        assert len(hubless) == 2
        assert all(s <= {2, 3, 4} for s in hubless)

    def test_path4_supports_are_full(self):
        spect = lf.spectrum(lf.laplacian(lf.make_family("path", 4)))
        report = lf.support_report(spect)
        assert report.min_support == 4
        assert report.simple_spectrum

    def test_stars_all_have_support_two(self):
        for n in range(4, 11):
            spect = lf.spectrum(lf.laplacian(lf.make_family("star", n)))
            assert lf.support_report(spect).min_support == 2

    def test_complete_all_have_support_two(self):
        for n in range(4, 11):
            spect = lf.spectrum(lf.laplacian(lf.make_family("complete", n)))
            assert lf.support_report(spect).min_support == 2

    def test_ring_ground_truth_formula(self):
        # For a ring the sparsest eigenvector in the plane at rotation
        # frequency k zeroes out gcd(2k, n) nodes, so the family-wide
        # minimum over eigenvectors is n - max_k gcd(2k, n).
        for n in (5, 6, 7, 8, 9, 10, 11, 12, 13, 16):
            spect = lf.spectrum(lf.laplacian(lf.make_family("ring", n)))
            report = lf.support_report(spect)
            truth = n - max(math.gcd(2 * k, n) for k in range(1, (n + 1) // 2))
            assert report.min_support == truth, f"ring n={n}"

    def test_support_of_uses_relative_threshold(self):
        vec = np.array([1.0, 1e-12, -0.5, 0.0])
        assert _support_of(vec) == frozenset({1, 3})

    def test_pair_search_beats_random_sampling(self):
        # dim-3 eigenspace of star-5 leaves: sparsest member has support
        # 2, which random unit combinations almost surely miss.
        spect = lf.spectrum(lf.laplacian(lf.make_family("star", 5)))
        group = max(spect.eigenspace_groups, key=len)
        basis = spect.eigenvectors[:, list(group)]
        assert _min_support_in_group(basis) == 2


def hypercube(dim):
    n = 1 << dim
    return lf.make_graph(n, [(u + 1, (u ^ (1 << b)) + 1)
                             for u in range(n) for b in range(dim) if u < u ^ (1 << b)])


def petersen():
    outer = [(k, (k + 1) % 5) for k in range(5)]
    inner = [(5 + k, 5 + (k + 2) % 5) for k in range(5)]
    spokes = [(k, 5 + k) for k in range(5)]
    return lf.make_graph(10, [(i + 1, j + 1) for i, j in outer + inner + spokes])


def torus(a, b):
    def node(i, j):
        return (i % a) * b + (j % b) + 1
    return lf.make_graph(a * b, {tuple(sorted((node(i, j), node(i + di, j + dj))))
                                 for i in range(a) for j in range(b)
                                 for di, dj in ((1, 0), (0, 1))})


class TestWideEigenspacesWithoutPairs:
    # eigenspaces of dimension >= 3 with no member on two nodes: the search
    # ends with the basis vectors, so it reports their smallest support
    @staticmethod
    def wide_groups(graph):
        spect = lf.spectrum(lf.laplacian(graph))
        groups = [g for g in spect.eigenspace_groups if len(g) >= 3]
        assert groups
        return [(spect.eigenvalues[g[0]], spect.eigenvectors[:, list(g)]) for g in groups]

    @pytest.mark.parametrize("graph", [hypercube(3), petersen(), torus(4, 4)],
                             ids=["Q3", "petersen", "torus-4x4"])
    def test_reports_the_smallest_basis_support(self, graph):
        for _, basis in self.wide_groups(graph):
            assert not any(len(i) for i, _, _ in _pair_members(basis))
            smallest = min(len(_support_of(column)) for column in basis.T)
            assert _min_support_in_group(basis) == smallest

    def test_bound_is_at_least_the_true_minimum(self):
        # Q3, eigenvalue 2: the characters chi_k(u) = (-1)^(bit k of u)
        # span it, and chi_1 + chi_2 vanishes wherever bits 1 and 2 differ
        graph = hypercube(3)
        L = lf.laplacian(graph)
        chi = np.array([[(-1.0) ** ((u >> k) & 1) for u in range(8)] for k in range(3)])
        member = chi[0] + chi[1]
        assert np.abs(L @ member - 2.0 * member).max() < 1e-12
        assert len(_support_of(member)) == 4
        basis, = [b for r, b in self.wide_groups(graph) if abs(r - 2.0) < 1e-9]
        assert _min_support_in_group(basis) >= 4


class TestEigenspaceMembers:
    @staticmethod
    def largest_group(family, n):
        spect = lf.spectrum(lf.laplacian(lf.make_family(family, n)))
        group = max(spect.eigenspace_groups, key=len)
        return spect.eigenvalues[group[0]], spect.eigenvectors[:, list(group)]

    def test_members_are_eigenvectors(self):
        for family, n in (("ring", 12), ("star", 6), ("complete", 5)):
            r, basis = self.largest_group(family, n)
            L = lf.laplacian(lf.make_family(family, n))
            for member in members_of(basis):
                assert np.abs(L @ member - r * member).max() < 1e-9

    def test_plane_members_sorted_by_support(self):
        # ring-12, eigenvalue 2: one member per support, sparsest first;
        # cos(pi j / 2) vanishes on the six odd nodes
        spect = lf.spectrum(lf.laplacian(lf.make_family("ring", 12)))
        group = next(g for g in spect.eigenspace_groups
                     if abs(spect.eigenvalues[g[0]] - 2.0) < 1e-9)
        supports = [_support_of(m) for m in members_of(spect.eigenvectors[:, list(group)])]
        keys = [(len(s), sorted(s)) for s in supports]
        assert keys == sorted(keys)
        assert len(set(supports)) == len(supports)
        assert len(supports[0]) == 6

    def test_two_node_members_first_then_basis(self):
        # star-5 leaves: every e_i - e_j over leaves, in (i, j) order
        _, basis = self.largest_group("star", 5)
        members = members_of(basis)
        pairs = [sorted(_support_of(m)) for m in members[:-3]]
        assert pairs == [[i, j] for i in range(2, 6) for j in range(i + 1, 6)]
        assert np.array_equal(np.array(members[-3:]), basis.T)

    def test_complete_graph_pairs_found(self):
        # fewer kept rows than the eigenspace dimension: every pair qualifies
        _, basis = self.largest_group("complete", 6)
        members = members_of(basis)
        assert len(members) == 15 + 5
        assert all(len(_support_of(m)) == 2 for m in members[:15])


class TestPairMembers:
    @staticmethod
    def assert_matches_loop(basis):
        chunks = list(_pair_members(basis))
        assert all(len(i) <= basis.shape[0] for i, _, _ in chunks)
        pairs = [(a, b) for i, j, _ in chunks for a, b in zip(i.tolist(), j.tolist())]
        members = np.vstack([np.zeros((0, basis.shape[0]))] + [m for _, _, m in chunks])
        reference = pair_members_by_loop(basis)
        assert pairs == [(a, b) for a, b, _ in reference]
        assert members.shape == (len(reference), basis.shape[0])
        if reference:
            expected = np.array([member for _, _, member in reference])
            assert np.abs(members - expected).max() <= 1e-12
        return len(reference)

    def test_star_and_complete_match_per_pair_loop(self):
        for family in ("star", "complete"):
            for n in range(4, 25):
                spect = lf.spectrum(lf.laplacian(lf.make_family(family, n)))
                found = [self.assert_matches_loop(spect.eigenvectors[:, list(g)])
                         for g in spect.eigenspace_groups]
                # every node pair of the complete graph, every leaf pair of the star
                nodes = n if family == "complete" else n - 1
                assert max(found) == nodes * (nodes - 1) // 2

    def test_random_graph_with_repeated_eigenspace(self, rng):
        # four leaves on node 1 give an eigenvalue-1 eigenspace of dimension >= 3
        core = random_connected_graph(rng, 6)
        graph = lf.make_graph(10, sorted(core.edges) + [(1, k) for k in range(7, 11)])
        spect = lf.spectrum(lf.laplacian(graph))
        assert max(len(g) for g in spect.eigenspace_groups) >= 3
        found = [self.assert_matches_loop(spect.eigenvectors[:, list(g)])
                 for g in spect.eigenspace_groups]
        assert sum(found) >= 6


class TestFamilyMinSupport:
    def test_star_and_complete_closed_form(self):
        for n in range(4, 11):
            assert lf.family_min_support("star", n) == 2
            assert lf.family_min_support("complete", n) == 2

    def test_path_closed_form(self):
        assert lf.family_min_support("path", 4) == 4
        assert lf.family_min_support("path", 8) == 8
        assert lf.family_min_support("path", 16) == 16
        assert lf.family_min_support("path", 6) == 4
        assert lf.family_min_support("path", 12) == 8

    def test_ring_closed_form(self):
        assert lf.family_min_support("ring", 5) == 4
        assert lf.family_min_support("ring", 7) == 6
        assert lf.family_min_support("ring", 11) == 10
        assert lf.family_min_support("ring", 6) == 4
        assert lf.family_min_support("ring", 8) == 4
        assert lf.family_min_support("ring", 16) == 8
        assert lf.family_min_support("ring", 12) == 6
        assert lf.family_min_support("ring", 24) == 12

    def test_catalog_matches_computation_where_valid(self):
        cases = ([("path", n) for n in (4, 8, 16, 6, 12)]
                 + [("ring", n) for n in (5, 7, 11, 6, 8, 16, 12, 24)]
                 + [("star", n) for n in (4, 7, 10)]
                 + [("complete", n) for n in (4, 7, 10)])
        for family, n in cases:
            spect = lf.spectrum(lf.laplacian(lf.make_family(family, n)))
            computed = lf.support_report(spect).min_support
            assert computed == lf.family_min_support(family, n), (family, n)

    def test_ring_twelve_catalog_overstates_truth(self):
        # The catalog once gave 2n/3 = 8 for every ring with n divisible
        # by 3. That overstated ring-12: its frequency-3 eigenplane holds
        # cos(pi j / 2) = (1, 0, -1, 0, ...), which zeroes 6 nodes, so the
        # true minimum is n/2 = 6. Catalog and computed report now agree.
        spect = lf.spectrum(lf.laplacian(lf.make_family("ring", 12)))
        computed = lf.support_report(spect).min_support
        assert computed == 6
        assert lf.family_min_support("ring", 12) == 6

    def test_uncatalogued_cases_raise(self):
        with pytest.raises(lf.NotCharacterizedError):
            lf.family_min_support("path", 5)
        with pytest.raises(lf.NotCharacterizedError):
            lf.family_min_support("ring", 10)

    def test_too_small_and_unknown(self):
        with pytest.raises(lf.TooSmallError):
            lf.family_min_support("ring", 2)
        with pytest.raises(ValueError):
            lf.family_min_support("torus", 9)
