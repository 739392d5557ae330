import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsqflow as lf
from lsqflow.problem import RANK_RTOL

from _helpers import (build_state_expansion, normal_equations_solution, random_problem,
                      residual_component)


class TestNetworkLinearEquation:
    def test_attributes(self, chain_problem):
        assert chain_problem.n_nodes == 4
        assert chain_problem.dim == 2
        assert chain_problem.full_rank
        assert chain_problem.numerical_rank == 2

    def test_rows_are_read_only(self, chain_problem):
        with pytest.raises(ValueError):
            chain_problem.rows[0, 0] = 99.0

    def test_requires_more_rows_than_columns(self):
        with pytest.raises(lf.DimensionMismatchError):
            lf.NetworkLinearEquation(np.eye(2), np.ones(2))

    def test_requires_a_column(self):
        for check_rank in (True, False):
            with pytest.raises(lf.DimensionMismatchError):
                lf.NetworkLinearEquation(np.zeros((3, 0)), np.ones(3), check_rank=check_rank)

    def test_rank_deficient_rejected(self):
        H = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(lf.RankDeficientError) as exc:
            lf.NetworkLinearEquation(H, np.ones(3))
        assert exc.value.numerical_rank == 1

    def test_rank_check_can_be_deferred(self):
        H = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        prob = lf.NetworkLinearEquation(H, np.ones(3), check_rank=False)
        assert not prob.full_rank

    def test_near_dependent_rows_but_full_rank_accepted(self):
        H = np.array([[1.0, 0.0], [1.0, 1e-6], [0.0, 1.0]])
        prob = lf.NetworkLinearEquation(H, np.zeros(3))
        assert prob.full_rank


class TestSolveLeastSquares:
    def test_known_solution(self, chain_problem):
        sol = lf.solve_least_squares(chain_problem)
        assert abs(sol.y_star[0] + 1.0 / 7.0) < 1e-12
        assert abs(sol.y_star[1] + 1.0) < 1e-12

    def test_residual_and_objective(self, chain_problem):
        sol = lf.solve_least_squares(chain_problem)
        expected = chain_problem.rows @ sol.y_star - chain_problem.obs
        assert np.allclose(sol.residual, expected, atol=1e-14)
        assert abs(sol.objective - 54.0 / 7.0) < 1e-12
        assert abs(sol.objective - sol.residual @ sol.residual) < 1e-12

    def test_agrees_with_normal_equations(self):
        for seed in range(50):
            prob = random_problem(seed)
            sol = lf.solve_least_squares(prob)
            y_ne = normal_equations_solution(prob)
            scale = 1.0 + np.abs(y_ne).max()
            assert np.abs(sol.y_star - y_ne).max() < 1e-8 * scale

    def test_orthogonality_invariant(self):
        # H^T (H y* - z) = 0 characterizes the minimizer.
        for seed in range(100):
            prob = random_problem(seed)
            sol = lf.solve_least_squares(prob)
            grad = prob.rows.T @ sol.residual
            tol = 1e-10 * (1.0 + np.abs(prob.rows.T @ prob.obs).max())
            assert np.abs(grad).max() <= tol

    def test_optimality_against_perturbations(self, rng, chain_problem):
        sol = lf.solve_least_squares(chain_problem)
        for _ in range(100):
            delta = rng.standard_normal(2)
            delta *= rng.uniform(1e-4, 1.0) / np.linalg.norm(delta)
            perturbed = chain_problem.rows @ (sol.y_star + delta) - chain_problem.obs
            assert perturbed @ perturbed >= sol.objective - 1e-12

    def test_rank_deficient_solve_raises(self):
        # the second H has rank 1 at RANK_RTOL, though lstsq's own rcond keeps 2e-12
        for H in ([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 2e-12], [0.0, 0.0]]):
            prob = lf.NetworkLinearEquation(np.array(H), np.ones(3), check_rank=False)
            with pytest.raises(lf.RankDeficientError) as exc:
                lf.solve_least_squares(prob)
            assert exc.value.numerical_rank == prob.numerical_rank == 1


class TestResidualComponent:
    def test_matches_full_residual(self, chain_problem):
        sol = lf.solve_least_squares(chain_problem)
        for i in range(1, 5):
            assert abs(residual_component(chain_problem, sol.y_star, i)
                       - sol.residual[i - 1]) < 1e-14

    def test_rejects_bad_node(self, chain_problem):
        sol = lf.solve_least_squares(chain_problem)
        with pytest.raises(lf.InvalidNodeError):
            residual_component(chain_problem, sol.y_star, 0)


class TestStateExpansion:
    def test_shapes(self, chain_problem):
        aug = build_state_expansion(chain_problem)
        assert aug.H_bar.shape == (6, 6)
        assert aug.z_bar.shape == (6,)
        assert np.array_equal(aug.z_bar[:4], chain_problem.obs)
        assert np.array_equal(aug.z_bar[4:], np.zeros(2))

    def test_square_system_recovers_lsq_solution(self, chain_problem):
        aug = build_state_expansion(chain_problem)
        sol = lf.solve_least_squares(chain_problem)
        w = aug.solve()
        assert np.abs(w[:2] - sol.y_star).max() < 1e-12
        assert np.abs(w[2:] - sol.residual).max() < 1e-12

    @given(st.integers(0, 99))
    @settings(max_examples=100)
    def test_equivalence_on_random_problems(self, seed):
        prob = random_problem(seed)
        sol = lf.solve_least_squares(prob)
        w = build_state_expansion(prob).solve()
        m = prob.dim
        scale = 1.0 + np.abs(sol.y_star).max()
        assert np.abs(w[:m] - sol.y_star).max() < 1e-8 * scale
        assert np.abs(w[m:] - sol.residual).max() < 1e-8 * (1.0 + np.abs(sol.residual).max())


def test_rank_tolerance_constant_unchanged():
    assert RANK_RTOL == 1e-12
