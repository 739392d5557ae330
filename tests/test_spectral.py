import dataclasses
import io
import json
import sys

import numpy as np
import pytest

import lsqflow as lf
from lsqflow import spectral
from lsqflow.graphs import TAU_GAP
from lsqflow.spectral import TAU_IM, _rank_pass, _step_threshold, _witness

from _helpers import (ROW_PATTERNS, component_count, flow_cost, flow_gradient, nonzero_split,
                      pattern_rows, random_connected_graph, random_problem,
                      random_simple_spectrum_graph, simple_spectrum_verdict, witness_by_loop)


def same_verdict(a, b) -> bool:
    """Whether two condition verdicts agree bit for bit, arrays included."""
    def parts(v):
        pairs = [p for p in (v.witness, v.null_block) if p is not None]
        return v.holds, v.witness_support, [(p[0], p[1].tobytes()) for p in pairs]
    return parts(a) == parts(b)


def matched_gap(a, b) -> float:
    """The largest distance when each value of a, in turn, takes the
    nearest value of b not yet taken: how far two spectra lie apart."""
    b, gap = list(b), 0.0
    for z in a:
        j = int(np.argmin(np.abs(np.asarray(b) - z)))
        gap = max(gap, abs(b.pop(j) - z))
    return gap


class TestAssemble:
    def test_block_structure(self, chain_problem, chain_graph, chain_flow):
        n, m = 4, 2
        assert chain_flow.M.shape == (2 * n * m, 2 * n * m)
        assert chain_flow.state_dim == n * m
        for i in range(n):
            h = chain_problem.rows[i]
            block = chain_flow.H_tilde[i * m:(i + 1) * m, i * m:(i + 1) * m]
            assert np.array_equal(block, np.outer(h, h))
        expected_zH = np.concatenate(
            [chain_problem.obs[i] * chain_problem.rows[i] for i in range(n)])
        assert np.array_equal(chain_flow.z_H, expected_zH)
        L = lf.laplacian(chain_graph)
        assert np.array_equal(chain_flow.L, L)
        assert np.array_equal(chain_flow.L_kron, np.kron(L, np.eye(m)))
        nm = n * m
        assert np.array_equal(chain_flow.M[:nm, :nm], -chain_flow.H_tilde)
        assert np.array_equal(chain_flow.M[:nm, nm:], -chain_flow.L_kron)
        assert np.array_equal(chain_flow.M[nm:, :nm], chain_flow.L_kron)
        assert np.array_equal(chain_flow.M[nm:, nm:], np.zeros((nm, nm)))

    def test_reference_is_lsq_solution(self, chain_flow, chain_problem):
        sol = lf.solve_least_squares(chain_problem)
        assert np.array_equal(chain_flow.y_ref, sol.y_star)

    def test_node_count_mismatch(self, chain_problem):
        with pytest.raises(lf.DimensionMismatchError):
            lf.assemble(chain_problem, lf.make_family("path", 5))

    def test_matrices_read_only(self, chain_flow):
        with pytest.raises(ValueError):
            chain_flow.M[0, 0] = 1.0

    def test_matrices_keep_every_bit_of_the_block_construction(self):
        # M is built in place; each value and each signed zero must be the
        # one np.block copies from -H_tilde, -L_kron, L_kron and zeros
        rng = np.random.default_rng(5)
        for family in ("path", "star", "complete"):
            for n, m in ((4, 1), (7, 2), (9, 3)):
                H = rng.standard_normal((n, m))
                H[::3, 0] = 0.0
                H[1::4, -1] = -0.0
                problem = lf.NetworkLinearEquation(H, rng.standard_normal(n))
                graph = lf.make_family(family, n)
                flow = lf.assemble(problem, graph)
                H_tilde = np.zeros((n * m, n * m))
                for i in range(n):
                    H_tilde[i * m:(i + 1) * m, i * m:(i + 1) * m] = np.outer(H[i], H[i])
                L_kron = np.kron(lf.laplacian(graph), np.eye(m))
                M = np.block([[-H_tilde, -L_kron], [L_kron, np.zeros((n * m, n * m))]])
                for got, want in ((flow.H_tilde, H_tilde), (flow.L_kron, L_kron), (flow.M, M)):
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCostAndGradient:
    def test_cost_at_consensus_is_half_objective(self, chain_flow, chain_problem):
        sol = lf.solve_least_squares(chain_problem)
        x = np.tile(sol.y_star, 4)
        assert abs(flow_cost(chain_flow, x) - 0.5 * sol.objective) < 1e-12

    def test_gradient_matches_finite_differences(self, chain_flow, rng):
        # central differences, elementwise, tolerance 1e-5
        for _ in range(10):
            x = rng.standard_normal(8)
            grad = flow_gradient(chain_flow, x)
            h = 1e-6
            for k in range(8):
                e = np.zeros(8)
                e[k] = h
                fd = (flow_cost(chain_flow, x + e)
                      - flow_cost(chain_flow, x - e)) / (2.0 * h)
                assert abs(grad[k] - fd) <= 1e-5

    def test_gradient_vanishes_only_on_stationary_points(self, chain_flow, chain_problem):
        sol = lf.solve_least_squares(chain_problem)
        # per-node stationarity: h_i (h_i . x_i - z_i) = 0 at any x_i
        # solving the node equation exactly; consensus on y* does not
        # zero the gradient in general
        x = np.tile(sol.y_star, 4)
        grad = flow_gradient(chain_flow, x)
        assert np.abs(grad).max() > 0.1


class TestMSpectrum:
    def test_sorted_and_conjugate_closed(self, chain_flow):
        eigs = lf.m_spectrum(chain_flow)
        assert eigs.shape == (16,)
        order = np.lexsort((eigs.imag, eigs.real))
        assert np.array_equal(order, np.arange(16))
        conj = np.sort_complex(eigs.conj())
        assert np.abs(np.sort_complex(eigs) - conj).max() < 1e-9

    def test_trace_identity(self, chain_flow, chain_problem):
        eigs = lf.m_spectrum(chain_flow)
        trace = -np.sum(chain_problem.rows ** 2)
        assert abs(eigs.sum().real - trace) < 1e-9
        assert abs(eigs.sum().imag) < 1e-9

    def test_left_half_plane(self, chain_flow, star_flow):
        for flow in (chain_flow, star_flow):
            eigs = lf.m_spectrum(flow)
            scale = np.abs(eigs).max()
            assert eigs.real.max() <= 1e-9 * scale

    def test_holding_flows_split_into_exact_kernel_and_damped_block(self, chain_flow):
        # no eigenspace fails: k exact zeros, no exact pair, and the damped
        # block's eigenvalues are the rest of M's
        flows = [chain_flow]
        for family in ("path", "ring"):
            for n in (8, 9, 24):
                for pattern in ROW_PATTERNS:
                    problem = lf.NetworkLinearEquation(pattern_rows(pattern, n), np.ones(n))
                    if lf.check_condition(problem, lf.make_family(family, n)).holds:
                        flows.append(lf.assemble(problem, lf.make_family(family, n)))
        assert {flow.problem.dim for flow in flows} == {2, 3} and len(flows) >= 12
        for flow in flows:
            k = flow.problem.dim
            eigs = lf.m_spectrum(flow)
            assert np.count_nonzero(eigs == 0) == k
            assert not np.any((eigs.real == 0) & (eigs.imag != 0))
            whole = np.linalg.eigvals(flow.M)
            assert matched_gap(whole, eigs) <= 1e-12 * np.abs(whole).max()

    def test_failing_flows_deflate_one_pair_per_null_vector(self):
        # each null vector of a failing eigenspace r is the exact pair +-i r;
        # with the solve of the part of M they leave, the spectrum is M's
        seen = 0
        for family in ("star", "complete", "ring"):
            for n in range(4, 17):
                graph = lf.make_family(family, n)
                spect = lf.spectrum(lf.laplacian(graph))
                for pattern in ("blind3", "blind2"):
                    problem = lf.NetworkLinearEquation(pattern_rows(pattern, n), np.ones(n))
                    failing = _rank_pass(problem, spect, spect.eigenspace_groups)[1]
                    if not failing:
                        continue
                    seen += 1
                    flow = lf.assemble(problem, graph)
                    eigs = lf.m_spectrum(flow)
                    whole = np.linalg.eigvals(flow.M)
                    assert matched_gap(whole, eigs) <= 1e-12 * np.abs(whole).max()
                    k = _rank_pass(problem, spect, spect.eigenspace_groups)[0]
                    assert np.count_nonzero(eigs == 0) == k == problem.dim
                    for r, X in failing.values():
                        for mode in (1j * r, -1j * r):
                            assert np.count_nonzero(eigs == mode) == len(X)
        assert seen >= 50

    def test_kernel_dimension_is_problem_dim(self, chain_flow):
        # the Laplacian-side count, M's numerical rank and the gap in the
        # spectrum all give a kernel of dimension 2
        spect = lf.spectrum(chain_flow.L)
        assert _rank_pass(chain_flow.problem, spect, spect.eigenspace_groups)[:2] == (2, {})
        assert chain_flow.M.shape[0] - np.linalg.matrix_rank(chain_flow.M) == 2
        size = np.sort(np.abs(lf.m_spectrum(chain_flow)))
        assert size[1] < TAU_GAP * size[2]


class TestCheckCondition:
    def test_chain_holds_all_methods(self, chain_problem, chain_graph):
        # the checker and the per-eigenvector row-span oracle
        for verdict in (lf.check_condition(chain_problem, chain_graph),
                        simple_spectrum_verdict(chain_problem, chain_graph)):
            assert verdict.holds
            assert verdict.witness is None

    def test_star_fails_with_certificate(self, chain_problem, star_graph):
        verdict = lf.check_condition(chain_problem, star_graph)
        assert not verdict.holds
        eigenvalue, eta = verdict.witness
        assert abs(eigenvalue - 1.0) < 1e-9
        assert abs(np.linalg.norm(eta) - 1.0) < 1e-12
        support = sorted(verdict.witness_support)
        assert set(support) <= {2, 3, 4}
        rows = chain_problem.rows[np.array(support) - 1]
        assert np.abs(rows @ eta).max() < 1e-9

    def test_verdict_and_dual_limit_solve_no_m(self, chain_problem, star_graph, chain_flow,
                                               monkeypatch):
        # the Laplacian decides: no dense eigen-solve of M, holding or not
        expected = (lf.check_condition(chain_problem, star_graph),
                    lf.predict_v_limit(chain_flow, np.ones(8)))

        def no_eigvals(a):
            raise AssertionError("eigvals called")
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        verdict = lf.check_condition(chain_problem, star_graph)
        assert verdict.holds is False and same_verdict(verdict, expected[0])
        assert lf.check_condition(chain_flow.problem, chain_flow.graph).holds
        assert np.array_equal(lf.predict_v_limit(chain_flow, np.ones(8)), expected[1])

    def test_zero_rows_fail_where_k_vanishes(self):
        # m = 1, the odd nodes blind: the eigenvector of r = 3 lives on
        # nodes 3 and 7, so its K is a column of rounding noise (~1e-17);
        # a rank test relative to K itself counted it as full rank. Rows
        # of 1e-20 there fail too: the witness's support rows are ranked
        # against H's largest row norm, not against their own size
        edges = [(1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (2, 10), (3, 7), (3, 9), (4, 6),
                 (4, 9), (5, 9), (6, 8), (6, 9), (7, 9), (8, 10), (9, 10)]
        graph = lf.make_graph(10, edges)
        for blind in (0.0, 1e-20):
            H = np.array([[blind], [0.06], [blind], [0.47], [blind], [0.92], [blind], [-0.61],
                          [blind], [0.27]])
            problem = lf.NetworkLinearEquation(H, np.ones(10), check_rank=False)
            verdict = lf.check_condition(problem, graph)
            assert verdict.holds is False
            assert abs(verdict.witness[0] - 3.0) < 1e-9 and verdict.witness_support == {3, 7}
            assert same_verdict(lf.build_spectral_report(lf.assemble(problem, graph)).condition,
                                verdict)

    def test_star_leaf_rows_span_one_dimension(self, chain_problem):
        rows = chain_problem.rows[1:]
        assert np.linalg.matrix_rank(rows) == 1

    def test_methods_agree_on_random_instances(self, rng, switch_pair):
        # 100 instances, each a connected graph with distinct Laplacian
        # eigenvalues; the checker, the report and the per-eigenvector
        # row-span oracle must return the same verdict and witness support. Every
        # tenth instance runs on a graph with a two-node eigenvector
        # support and a 3-dimensional unknown, which guarantees the
        # failing verdict is exercised too.
        holds_seen = fails_seen = 0
        for trial in range(100):
            if trial % 10 == 0:
                graph = switch_pair[(trial // 10) % 2]
                prob = random_problem(rng, n=5, m=3)
            else:
                n = int(rng.integers(4, 7))
                graph = random_simple_spectrum_graph(rng, n)
                prob = random_problem(rng, n=n, m=int(rng.integers(2, 4)))
            direct = simple_spectrum_verdict(prob, graph)
            verdict = lf.check_condition(prob, graph)
            assert direct.holds == verdict.holds
            assert direct.witness_support == verdict.witness_support
            assert same_verdict(lf.build_spectral_report(lf.assemble(prob, graph)).condition,
                                verdict)
            holds_seen += direct.holds
            fails_seen += not direct.holds
        assert holds_seen > 0
        assert fails_seen >= 10

    def test_random_rows_on_path8_always_pass(self, rng):
        # every path-8 eigenvector has full support, so eight generic
        # rows always span a 3-dimensional unknown: 200 of 200 pass
        graph = lf.make_family("path", 8)
        passes = 0
        for _ in range(200):
            prob = random_problem(rng, n=8, m=3)
            if lf.check_condition(prob, graph).holds:
                passes += 1
        assert passes == 200


class TestEpsilonStar:
    def test_real_eigenvalue_oracle(self):
        assert abs(_step_threshold(np.array([-1.0 + 0j])) - 2.0) < 1e-15
        # -2 Re / |l|^2 for l = -a +/- bi
        lam = complex(-0.5, 2.0)
        expected = -2.0 * lam.real / abs(lam) ** 2
        assert abs(_step_threshold(np.array([lam, lam.conjugate()])) - expected) < 1e-15
        assert _step_threshold(np.array([], dtype=complex)) is None

    def test_zero_eigenvalues_excluded(self, chain_flow):
        # the kernel's exact zeros take no part: epsilon* is the threshold
        # of every other eigenvalue of the holding chain
        eigs = lf.m_spectrum(chain_flow)
        assert lf.epsilon_star(chain_flow) == _step_threshold(eigs[eigs != 0])

    def test_pure_imaginary_only_raises(self):
        # zero rows: every mode is in the kernel or an exact pair +-i r
        problem = lf.NetworkLinearEquation(np.zeros((4, 2)), np.ones(4), check_rank=False)
        flow = lf.assemble(problem, lf.make_family("path", 4))
        with pytest.raises(lf.NoStableModesError):
            lf.epsilon_star(flow)
        report = lf.build_spectral_report(flow)
        # k = c m + nullity(K_0) = 2 + 2; each r > 0 gives two pairs
        assert report.epsilon_star is None and report.zero_space_dim == 4
        eigs = report.m_eigenvalues
        assert np.all(eigs.real == 0) and np.count_nonzero(eigs == 0) == 4

    def test_chain_value(self, chain_flow):
        assert abs(lf.epsilon_star(chain_flow) - 0.0362) < 5e-4

    def test_threshold_is_sharp_on_spectrum(self, chain_flow):
        # at eps*, the binding stable eigenvalue is mapped onto the unit
        # circle and no stable eigenvalue leaves it
        stable = nonzero_split(lf.m_spectrum(chain_flow), 2)[1]
        assert stable.size == 14
        eps = lf.epsilon_star(chain_flow)
        mapped = np.abs(1.0 + eps * stable)
        assert mapped.max() <= 1.0 + 1e-12
        assert abs(mapped.max() - 1.0) < 1e-12

    def test_star_has_threshold_despite_failure(self, star_flow):
        assert lf.epsilon_star(star_flow) > 0.0


class TestZeroSpaceProjector:
    # W is the v-block of the spectral projector onto the kernel of M; the
    # report carries it where the condition holds
    def test_chain_matches_consensus_averaging(self, chain_flow):
        report = lf.build_spectral_report(chain_flow)
        assert report.zero_space_dim == 2
        analytic = np.kron(np.full((4, 4), 0.25), np.eye(2))
        assert np.abs(report.projector_W - analytic).max() < 1e-8

    def test_idempotent(self, chain_flow):
        W = lf.build_spectral_report(chain_flow).projector_W
        assert np.abs(W @ W - W).max() <= 1e-8

    def test_condition_failure_raises(self, star_flow):
        assert lf.build_spectral_report(star_flow).projector_W is None
        with pytest.raises(lf.ConditionViolatedError):
            lf.predict_v_limit(star_flow, np.zeros(8))

    def test_random_instances_match_analytic_projector(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 7))
            graph = random_simple_spectrum_graph(rng, n)
            prob = random_problem(rng, n=n, m=2)
            if not lf.check_condition(prob, graph).holds:
                continue
            report = lf.build_spectral_report(lf.assemble(prob, graph))
            assert report.zero_space_dim == 2
            analytic = np.kron(np.full((n, n), 1.0 / n), np.eye(2))
            assert np.abs(report.projector_W - analytic).max() < 1e-7


class TestEquilibriumAndVLimit:
    def test_stationarity_system_residual(self, chain_flow):
        v_star = lf.equilibrium_dual(chain_flow)
        x_star = np.tile(chain_flow.y_ref, 4)
        rhs = chain_flow.z_H - chain_flow.H_tilde @ x_star
        assert np.linalg.norm(chain_flow.L_kron @ v_star - rhs) < 1e-10

    def test_minimum_norm_solution_has_no_consensus_component(self, chain_flow):
        v_star = lf.equilibrium_dual(chain_flow)
        block_sum = v_star.reshape(4, 2).sum(axis=0)
        assert np.abs(block_sum).max() < 1e-10

    def test_limit_splits_along_projector(self, chain_flow, rng):
        v_star = lf.equilibrium_dual(chain_flow)
        v0 = rng.standard_normal(8)
        limit = lf.predict_v_limit(chain_flow, v0)
        W = lf.build_spectral_report(chain_flow).projector_W
        assert np.abs((np.eye(8) - W) @ (limit - v_star)).max() < 1e-8
        assert np.abs(W @ (limit - v0)).max() < 1e-8

    def test_limit_rejects_a_v0_of_another_size_before_any_eigen_solve(self, chain_flow,
                                                                       monkeypatch):
        def solve(flow):
            raise AssertionError("M was eigen-solved")

        monkeypatch.setattr(spectral, "m_spectrum", solve)
        with pytest.raises(lf.DimensionMismatchError):
            lf.predict_v_limit(chain_flow, np.zeros(3))

    def test_limit_rejects_a_non_finite_v0(self, chain_flow):
        with pytest.raises(ValueError, match="finite"):
            lf.predict_v_limit(chain_flow, [np.nan] * 8)


class TestSpectralReport:
    def test_chain_report(self, chain_flow):
        report = lf.build_spectral_report(chain_flow)
        assert report.m_eigenvalues.shape == (16,)
        assert report.epsilon_star is not None
        assert report.zero_space_dim == 2
        assert report.projector_W is not None

    def test_star_report_has_no_projector(self, star_flow):
        report = lf.build_spectral_report(star_flow)
        assert report.projector_W is None
        assert report.zero_space_dim == 2
        assert report.epsilon_star is not None
        assert nonzero_split(report.m_eigenvalues, report.zero_space_dim)[0].size > 0

    def test_report_carries_the_both_verdict(self, chain_problem, star_graph, star_flow):
        verdict = lf.build_spectral_report(star_flow).condition
        direct = lf.check_condition(chain_problem, star_graph)
        assert verdict.holds is direct.holds is False
        assert verdict.witness_support == direct.witness_support
        assert np.array_equal(verdict.witness[1], direct.witness[1])

    def test_a_growing_damped_mode_is_an_internal_error(self, chain_flow, monkeypatch):
        # no valid input gives the damped block an eigenvalue with
        # Re > TAU_IM |lambda|; one that does is reported as a bug
        for grows in (1e-3, 2e-7):
            monkeypatch.setattr(spectral, "_damped_block",
                                lambda kept, a=grows: np.array([[a, -1.0], [1.0, a]]))
            for call in (lf.m_spectrum, lf.epsilon_star, lf.build_spectral_report):
                with pytest.raises(lf.InternalInconsistencyError, match="growing"):
                    call(chain_flow)
        # inside the floor it neither raises nor bounds the step
        monkeypatch.setattr(spectral, "_damped_block",
                            lambda kept: np.array([[5e-8, -1.0], [1.0, 5e-8]]))
        with pytest.raises(lf.NoStableModesError):
            lf.epsilon_star(chain_flow)


class TestWeaklyDampedMode:
    # The condition holds (sigma_min of K at the weak mode's eigenspace is
    # far above RANK_RTOL), yet M's weakest mode -1.24e-8 +- 4.30i has
    # |Re| / |lambda| = 2.9e-9, under TAU_IM. Classifying M's whole
    # spectrum by TAU_IM called it undamped, and analyze raised "checkers
    # disagree"; the rank pass places it in the damped block, where it
    # lies under epsilon*'s floor.
    H = [[1.36185344, 0.42163321, 0.70976266], [1.7541889, -1.70548457, -0.6134323],
         [-0.41374259, -0.10427959, -0.67065809], [1.02695236, -0.65781814, -0.6904797],
         [0.41949851, -0.7804475, -1.08938672], [-1.34546987, -0.17953885, 0.96729848]]
    EDGES = [[1, 4], [2, 3], [2, 4], [2, 6], [4, 6], [5, 6]]
    EPS = 0.0028199676515447115  # the whole-spectrum epsilon* and the benchmark oracle's

    @pytest.fixture
    def problem(self):
        return lf.NetworkLinearEquation(self.H, np.ones(6))

    def test_analyze_holds(self, problem):
        graph = lf.make_graph(6, self.EDGES)
        out, err = io.StringIO(), io.StringIO()
        config = lf.RunConfig(mode="analyze", problem=problem, graph=graph)
        assert lf.run(config, stdout=out, stderr=err) == 0, err.getvalue()
        payload = json.loads(out.getvalue())
        assert payload["condition"]["holds"] is True
        assert payload["spectral"]["zero_space_dim"] == 3
        assert abs(payload["spectral"]["epsilon_star"] - self.EPS) <= 1e-9 * self.EPS

    def test_weak_mode_lies_under_the_floor(self, problem):
        flow = lf.assemble(problem, lf.make_graph(6, self.EDGES))
        eigs = lf.m_spectrum(flow)
        weak = eigs[(eigs != 0) & (np.abs(eigs.real) <= TAU_IM * np.abs(eigs))]
        assert weak.size == 4 and np.all(weak.real < 0) and np.all(weak.imag != 0)
        weakest = weak[np.argmin(np.abs(weak.real) / np.abs(weak))]
        assert abs(abs(weakest.imag) - 4.30) < 5e-3 and abs(weakest.real) < 2e-8
        assert abs(lf.epsilon_star(flow) - self.EPS) <= 1e-9 * self.EPS


class TestDisconnectedGraph:
    # Two components, each of whose rows span the plane: M has no nonzero
    # purely imaginary eigenvalue, yet the components never reach a
    # common estimate, so the condition must fail.
    H = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    Z = [1.0, 2.0, 3.0, 4.0]

    @pytest.fixture
    def case(self):
        return lf.NetworkLinearEquation(self.H, self.Z), lf.make_graph(4, [(1, 2), (3, 4)])

    def test_verdict_fails_with_component_witness(self, case):
        problem, graph = case
        verdict = lf.check_condition(problem, graph)
        assert verdict.holds is False
        assert verdict.witness_support == frozenset({1, 2})
        eigenvalue, eta = verdict.witness
        assert eigenvalue == 0.0
        assert np.array_equal(eta, [1.0, 0.0])

    def test_verdict_matches_dynamics(self, case):
        problem, graph = case
        traj = lf.simulate_ct(lf.assemble(problem, graph), np.zeros(8), np.zeros(8),
                              step_h=0.005, t_end=200.0, record_every=1000)
        assert traj.error[-1] > 1.0

    def test_projector_and_limit_set_refuse(self, case):
        problem, graph = case
        flow = lf.assemble(problem, graph)
        assert lf.build_spectral_report(flow).projector_W is None
        with pytest.raises(lf.ConditionViolatedError):
            lf.predict_v_limit(flow, np.zeros(8))

    def test_analyze_reports_failure(self, case):
        problem, graph = case
        out, err = io.StringIO(), io.StringIO()
        config = lf.RunConfig(mode="analyze", problem=problem, graph=graph)
        assert lf.run(config, stdout=out, stderr=err) == 0
        payload = json.loads(out.getvalue())
        assert payload["condition"]["holds"] is False
        assert payload["condition"]["witness_support"] == [1, 2]
        assert payload["spectral"]["zero_space_dim"] == 4
        assert payload["spectral"]["projector_W"] is None


def spectral_components(graph):
    """Components as the analysis counts them: the size of Laplacian
    eigenspace 0, through the rank pass and its gap guard. With m = 1 and
    every row 1, the kernel dimension k is that count."""
    n = graph.n_nodes
    spect = lf.spectrum(lf.laplacian(graph))
    problem = lf.NetworkLinearEquation(np.ones((n, 1)), np.zeros(n))
    return _rank_pass(problem, spect, spect.eigenspace_groups[:1])[0]


# a two-dimensional eigenspace 0 that is not apart from the next eigenvalue
NOT_APART = np.diag([2e-13, 2e-13, 1e-10, 1.0])


def lollipop(clique, tail):
    """K_clique with a path of ``tail`` more nodes hanging off its last node."""
    n = clique + tail
    edges = [(i, j) for i in range(1, clique + 1) for j in range(i + 1, clique + 1)]
    return lf.make_graph(n, edges + [(i, i + 1) for i in range(clique, n)])


class TestConnectivity:
    def test_matches_search_on_random_graphs(self):
        rng = np.random.default_rng(16)
        seen = {True: 0, False: 0}
        for _ in range(120):
            n = int(rng.integers(2, 31))
            possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            density = rng.uniform(0.0, 4.0 / n)
            graph = lf.make_graph(n, [e for e in possible if rng.random() < density])
            count = component_count(graph)
            assert spectral_components(graph) == count, graph
            seen[count == 1] += 1
        assert min(seen.values()) >= 20

    def test_verdict_follows_the_count(self):
        # a disconnected graph fails with the unit witness at eigenvalue
        # 0; on a connected one a witness, if any, lies at some r > 0
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            graph = lf.make_graph(n, [e for e in possible if rng.random() < 0.4])
            verdict = lf.check_condition(random_problem(rng, n=n, m=2), graph)
            if component_count(graph) > 1:
                assert verdict.holds is False and verdict.witness[0] == 0.0
                assert np.array_equal(verdict.witness[1], [1.0, 0.0])
            else:
                assert verdict.witness is None or verdict.witness[0] > 0.0

    @pytest.mark.parametrize("family", [*lf.FAMILIES, "lollipop", "lollipop-1600"])
    def test_large_graphs_are_connected(self, family):
        # n = 1000, and K800 with an 800-node path: its lambda_2 = 6.43e-6
        # fell inside the old grouping tolerance 1e-8 lambda_max = 8.01e-6
        sizes = {"lollipop": (500, 500), "lollipop-1600": (800, 800)}
        graph = lollipop(*sizes[family]) if family in sizes else lf.make_family(family, 1000)
        assert spectral_components(graph) == component_count(graph) == 1

    def test_guard_raises_when_eigenspace_zero_is_not_apart(self):
        # eigenvalues (2e-13, 2e-13, 1e-10, 1): the first two group as
        # eigenspace 0, and 2e-13 is not below TAU_GAP * 1e-10
        spect = lf.spectrum(NOT_APART)
        assert len(spect.eigenspace_groups[0]) == 2
        problem = lf.NetworkLinearEquation(np.ones((4, 1)), np.zeros(4))
        with pytest.raises(lf.InternalInconsistencyError, match="not apart"):
            _rank_pass(problem, spect, spect.eigenspace_groups)

    def test_analyze_and_epsilon_star_raise_without_a_verdict(self, chain_flow, monkeypatch):
        flow = dataclasses.replace(chain_flow, L=NOT_APART)
        with pytest.raises(lf.InternalInconsistencyError):
            lf.build_spectral_report(flow)
        with pytest.raises(lf.InternalInconsistencyError):
            lf.epsilon_star(flow)
        # through the analyze mode, with the Laplacian of every graph replaced
        monkeypatch.setattr("lsqflow.spectral.laplacian", lambda graph: NOT_APART)
        out = io.StringIO()
        config = lf.RunConfig(mode="analyze", problem=chain_flow.problem, graph=chain_flow.graph)
        with pytest.raises(lf.InternalInconsistencyError):
            lf.run(config, stdout=out, stderr=io.StringIO())
        assert out.getvalue() == ""


class TestCompleteGraphWitness:
    def test_parallel_rows_give_two_node_witness(self):
        # rows 1 and 3 are parallel, so e_1 - e_3 (eigenvalue 6) is a
        # member whose support rows miss a direction
        H = [[1, .2], [.3, 1], [2, .4], [-.5, .9], [.7, -1.1], [1.3, .6]]
        problem = lf.NetworkLinearEquation(H, np.ones(6))
        verdict = lf.check_condition(problem, lf.make_family("complete", 6))
        assert verdict.holds is False
        assert verdict.witness_support == frozenset({1, 3})
        eigenvalue, eta = verdict.witness
        assert abs(eigenvalue - 6.0) < 1e-9
        assert np.abs(problem.rows[[0, 2]] @ eta).max() < 1e-12


def witness_rows(n):
    """Row sets for the witness search on n nodes: the structural
    patterns, m = 1 with every third row zero, generic m = 3, and m = 2
    with rows 2 and n near-parallel, ``h_n = 1.3 h_2 + delta |h_2| e`` for
    e the unit normal of h_2, at delta = 0, 1e-14 (rank-deficient at
    RANK_RTOL), 1e-10 and 1e-6 (spanning, but inside the pair pre-filter)."""
    rng = np.random.default_rng([n, 15])
    yield from (pattern_rows(pattern, n) for pattern in ROW_PATTERNS)
    ones = rng.standard_normal((n, 1))
    ones[::3] = 0.0
    yield ones
    yield rng.standard_normal((n, 3))
    for delta in (0.0, 1e-14, 1e-10, 1e-6):
        H = rng.standard_normal((n, 2))
        normal = np.array([-H[1, 1], H[1, 0]])
        H[-1] = 1.3 * H[1] + delta * normal
        yield H


class TestBatchedWitness:
    def test_matches_per_member_loop(self):
        # the batched search walks only the eigenspaces that the rank pass
        # finds failing, and with m = 2 confirms only the node pairs whose
        # rows may be parallel; the loop walks every member of every
        # eigenspace with r > 0
        core = random_connected_graph(np.random.default_rng(15), 6)
        wide = lf.make_graph(10, sorted(core.edges) + [(1, k) for k in range(7, 11)])
        graphs = [lf.make_family(family, n) for family in ("star", "complete")
                  for n in range(4, 25)]
        found = {}
        for graph in graphs + [wide]:
            n = graph.n_nodes
            spect = lf.spectrum(lf.laplacian(graph))
            for rows in witness_rows(n):
                problem = lf.NetworkLinearEquation(rows, np.ones(n))
                failing = _rank_pass(problem, spect, spect.eigenspace_groups)[1]
                got = _witness(problem, spect, sorted(failing))
                want = witness_by_loop(problem, spect, spect.eigenspace_groups[1:])
                if want[0] is None:
                    assert got == (None, None)
                    continue
                found[problem.dim] = found.get(problem.dim, 0) + 1
                assert got[0][0] == want[0][0]
                assert np.array_equal(got[0][1], want[0][1])
                assert got[1] == want[1]
        # four leaves on node 1: an eigenvalue-1 eigenspace of dimension >= 3
        assert max(map(len, lf.spectrum(lf.laplacian(wide)).eigenspace_groups)) >= 3
        assert min(found.get(m, 0) for m in (1, 2, 3)) >= 20

    @staticmethod
    def pair_confirmations(monkeypatch) -> list:
        """Shapes of the stacked SVDs that confirm two-node members."""
        calls, svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_pair_members":
                calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    @pytest.mark.parametrize("family", ["complete", "star"])
    def test_spanning_pairs_are_not_confirmed(self, monkeypatch, family):
        # generic m = 2 rows: every pair spans the plane, so analyze
        # confirms no two-node member and reports the null block
        calls = self.pair_confirmations(monkeypatch)
        n = 48
        problem = lf.NetworkLinearEquation(pattern_rows("generic", n), np.ones(n))
        config = lf.RunConfig(mode="analyze", problem=problem, graph=lf.make_family(family, n))
        out = io.StringIO()
        assert lf.run(config, stdout=out, stderr=io.StringIO()) == 0
        condition = json.loads(out.getvalue())["condition"]
        assert condition["holds"] is False and condition["witness"] is None
        assert calls == []
        # the spy does see confirmations: two rows never span R^3
        problem = lf.NetworkLinearEquation(pattern_rows("blind3", 8), np.ones(8))
        assert lf.check_condition(problem, lf.make_family(family, 8)).witness is not None
        assert calls


class TestLaplacianChecker:
    def test_agrees_with_m_spectrum(self):
        # the M side alone: its kernel dimension from the rank of M, and no
        # nonzero purely imaginary eigenvalue outside that kernel
        outcomes = {True: 0, False: 0}
        for family in ("path", "ring", "star", "complete"):
            for n in range(4, 17):
                graph = lf.make_family(family, n)
                spect = lf.spectrum(lf.laplacian(graph))
                for pattern in ROW_PATTERNS:
                    problem = lf.NetworkLinearEquation(pattern_rows(pattern, n), np.ones(n))
                    M = lf.assemble(problem, graph).M
                    kernel_dim = M.shape[0] - np.linalg.matrix_rank(M)
                    holds = nonzero_split(np.linalg.eigvals(M), kernel_dim)[0].size == 0
                    k, failing, _ = _rank_pass(problem, spect, spect.eigenspace_groups)
                    assert k == kernel_dim, (family, n, pattern)
                    assert (not failing) == holds, (family, n, pattern)
                    assert lf.check_condition(problem, graph).holds == holds
                    outcomes[holds] += 1
        assert min(outcomes.values()) >= 50

    def test_star_null_block_is_an_imaginary_mode(self):
        # star-6 with m = 2: every leaf pair's rows span the plane, so no
        # single member witnesses the failure; the null block X does
        problem = lf.NetworkLinearEquation(pattern_rows("generic", 6), np.ones(6))
        graph = lf.make_family("star", 6)
        verdict = lf.check_condition(problem, graph)
        assert verdict.holds is False
        assert verdict.witness is None and verdict.witness_support is None
        r, X = verdict.null_block
        assert X.shape == (6, 2)
        assert abs(np.linalg.norm(X) - 1.0) < 1e-12
        assert np.abs(np.einsum("im,im->i", problem.rows, X)).max() < 1e-12
        M = lf.assemble(problem, graph).M
        u = np.concatenate([X.ravel(), -1j * X.ravel()])
        assert np.abs(M @ u - 1j * r * u).max() < 1e-9

    def test_member_witness_leaves_no_null_block(self, chain_problem, star_graph):
        verdict = lf.check_condition(chain_problem, star_graph)
        assert verdict.witness is not None
        assert verdict.null_block is None


class TestClosedFormKernel:
    def test_zero_space_dim_sums_component_nullities(self):
        # component {1, 2, 3}: rows along the first axis (nullity 1);
        # component {4, 5}: zero rows (nullity 2); m + nullity each
        H = [[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        problem = lf.NetworkLinearEquation(H, np.ones(5), check_rank=False)
        flow = lf.assemble(problem, lf.make_graph(5, [(1, 2), (2, 3), (4, 5)]))
        report = lf.build_spectral_report(flow)
        assert report.zero_space_dim == (2 + 1) + (2 + 2)
        assert report.zero_space_dim == flow.M.shape[0] - np.linalg.matrix_rank(flow.M)
        # those 7 zeros are exact, and the rest is M's spectrum
        eigs, whole = report.m_eigenvalues, np.linalg.eigvals(flow.M)
        assert np.count_nonzero(eigs == 0) == 7
        assert matched_gap(whole, eigs) <= 1e-12 * np.abs(whole).max()
        assert report.projector_W is None

    def test_projector_checked_against_spectrum(self, chain_flow):
        # the kernel's k = 2 zeros are exact, and the reference classifier
        # finds them apart from the 14 other eigenvalues
        eigs = lf.m_spectrum(chain_flow)
        assert np.count_nonzero(eigs == 0) == 2
        assert sum(map(len, nonzero_split(eigs, 2))) == 14
        W = lf.build_spectral_report(chain_flow).projector_W
        assert np.array_equal(W, np.kron(np.full((4, 4), 0.25), np.eye(2)))

    @pytest.mark.parametrize("n, slowest", [(200, (5.93e-8, 6.04e-8)), (400, (3.43e-9, 3.83e-9))],
                             ids=["path-200", "path-400"])
    def test_slow_modes_of_long_paths_are_stable(self, n, slowest):
        # the slowest modes of long paths lie far below the spectral
        # radius (about 8.9), yet outside the kernel of dimension 2: they
        # are stable, the condition holds and W is returned
        rng = np.random.default_rng(n)
        problem = lf.NetworkLinearEquation(rng.standard_normal((n, 2)), rng.standard_normal(n))
        report = lf.build_spectral_report(lf.assemble(problem, lf.make_family("path", n)))
        assert report.zero_space_dim == 2
        imaginary, stable = nonzero_split(report.m_eigenvalues, 2)
        assert imaginary.size == 0 and stable.size == 4 * n - 2
        slow = stable[np.argsort(np.abs(stable))[:2]]
        assert np.allclose(np.abs(slow), slowest, rtol=1e-2)
        assert np.all(slow.real < 0)
        assert report.condition.holds
        assert np.array_equal(report.projector_W, np.kron(np.full((n, n), 1.0 / n), np.eye(2)))
