"""Solver checks against an independent brute-force oracle.

The oracle enumerates every support (subset of columns), solves the
unconstrained least-squares problem on it, keeps the feasible candidates,
and takes the best. The optimum of the constrained problem always appears
among these because its gradient vanishes on its own support.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_nnls import dense_nnls
from size_lens.errors import DegenerateColumnWarning, LengthMismatch
from size_lens.nnls import NnlsProblem, default_kkt_tolerance, kkt_residual, solve_nnls


def brute_force_best_residual(a, b, feas_tol=1e-12):
    m, k = a.shape
    best = float(np.linalg.norm(b))  # empty support
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            cols = a[:, support]
            x, *_ = np.linalg.lstsq(cols, b, rcond=None)
            if (x < -feas_tol).any():
                continue
            residual = float(np.linalg.norm(cols @ np.maximum(x, 0.0) - b))
            best = min(best, residual)
    return best


def random_problem(rng, m=None, k=None):
    if k is None:
        k = int(rng.integers(1, 9))
    if m is None:
        m = int(rng.integers(k, 13))
    a = rng.uniform(-1.0, 1.0, (m, k))
    b = rng.uniform(-1.0, 1.0, m)
    return NnlsProblem(a, b)


class TestWorkedExamples:
    def test_identity_clamps_negative_target(self):
        problem = NnlsProblem(np.eye(2), [3.0, -2.0])
        solution = solve_nnls(problem)
        assert solution.weights.tolist() == [3.0, 0.0]
        assert solution.residual_norm == pytest.approx(2.0, abs=1e-12)
        assert solution.active_set == (0,)
        assert solution.converged

    def test_single_column_fits_mean(self):
        problem = NnlsProblem([[1.0], [1.0]], [1.0, 2.0])
        solution = solve_nnls(problem)
        assert solution.weights.tolist() == pytest.approx([1.5], abs=1e-12)
        assert solution.residual_norm == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_constrained_corner(self):
        # Unconstrained solution is (-1, 3); clamping forces x1 = 0.
        problem = NnlsProblem([[1.0, 1.0], [1.0, 0.0]], [2.0, -1.0])
        solution = solve_nnls(problem)
        assert solution.weights.tolist() == pytest.approx([0.0, 2.0], abs=1e-12)
        assert solution.residual_norm == pytest.approx(1.0, abs=1e-12)
        assert solution.active_set == (1,)
        # the zero coordinate's gradient must come out non-negative (here +1)
        gradient = problem.design.T @ (problem.design @ solution.weights - problem.target)
        assert gradient[0] == pytest.approx(1.0, abs=1e-12)
        # cross-check the corner against the exhaustive oracle
        oracle = brute_force_best_residual(problem.design, problem.target)
        assert solution.residual_norm == pytest.approx(oracle, abs=1e-12)


class TestKktResidual:
    def test_zero_vector_violation_is_largest_negative_gradient(self):
        problem = NnlsProblem(np.eye(2), [3.0, -2.0])
        assert kkt_residual(problem, [0.0, 0.0]) == pytest.approx(3.0)

    def test_optimum_has_zero_residual(self):
        problem = NnlsProblem(np.eye(2), [3.0, -2.0])
        assert kkt_residual(problem, [3.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_weights(self):
        problem = NnlsProblem(np.eye(2), [3.0, -2.0])
        with pytest.raises(ValueError):
            kkt_residual(problem, [-1.0, 0.0])

    def test_rejects_wrong_length(self):
        problem = NnlsProblem(np.eye(2), [3.0, -2.0])
        with pytest.raises(LengthMismatch):
            kkt_residual(problem, [1.0])


class TestOracleEquivalence:
    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            problem = random_problem(rng)
            solution = solve_nnls(problem)
            assert solution.converged
            oracle = brute_force_best_residual(problem.design, problem.target)
            assert solution.residual_norm <= oracle + 1e-9
            assert kkt_residual(problem, solution.weights) <= 1e-8

    def test_duplicate_columns_are_harmless(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0, (8, 4))
            a = np.hstack([a, a[:, :2]])  # exact duplicates
            b = rng.uniform(-1.0, 1.0, 8)
            problem = NnlsProblem(a, b)
            solution = solve_nnls(problem)
            assert (solution.weights >= 0.0).all()
            assert kkt_residual(problem, solution.weights) <= 1e-8


class TestDenseOracle:
    def test_full_rank_instances_match_dense_solver(self):
        # m >= k uniform columns have full column rank, so the solution is
        # unique and both solvers must walk to the same active set.
        rng = np.random.default_rng(20260819)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            problem = random_problem(rng, m=int(rng.integers(k, 13)), k=k)
            solution = solve_nnls(problem)
            weights, active_set, _, converged = dense_nnls(problem.design, problem.target)
            assert solution.converged and converged
            assert solution.active_set == active_set
            scale = max(1.0, float(np.abs(weights).max()))
            assert float(np.abs(solution.weights - weights).max()) <= 1e-9 * scale

    def test_diagnostics_come_from_the_final_gradient(self):
        problem = NnlsProblem([[1.0, 1.0], [1.0, 0.0]], [2.0, -1.0])
        solution = solve_nnls(problem)
        assert solution.kkt_residual == pytest.approx(kkt_residual(problem, solution.weights))
        assert solution.gram_columns == 1  # column 0 never entered
        assert solution.degenerate_drops == 0
        assert solution.fitted.tolist() == pytest.approx([2.0, 0.0])
        # stopped early, the zero coordinates still violate
        problem = NnlsProblem(np.eye(3), [1.0, 2.0, 3.0])
        solution = solve_nnls(problem, max_iterations=1)
        assert solution.kkt_residual == kkt_residual(problem, solution.weights) == 2.0

    def test_dependent_entering_column_is_dropped_and_counted(self):
        # One row: once column 1 fits the target, column 0 is a multiple of
        # it, and with a tolerance below rounding it still looks violating.
        # It must be dropped each time it enters, never admitted.
        problem = NnlsProblem([[0.1, 0.3]], [0.1])
        with pytest.warns(DegenerateColumnWarning):
            solution = solve_nnls(problem, kkt_tolerance=1e-300)
        assert solution.degenerate_drops >= 1
        assert solution.active_set == (1,)
        assert solution.weights[1] == pytest.approx(1.0 / 3.0)


class TestSolutionInvariants:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_exact_feasibility_and_active_set(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng)
        solution = solve_nnls(problem)
        assert (solution.weights >= 0.0).all()
        # zero coordinates are exact zeros; the active set is exactly the support
        support = tuple(int(i) for i in np.flatnonzero(solution.weights > 0.0))
        assert support == solution.active_set
        zeros = [w for i, w in enumerate(solution.weights) if i not in solution.active_set]
        assert all(w == 0.0 for w in zeros)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(11)
        problem = random_problem(rng, m=10, k=6)
        first = solve_nnls(problem)
        second = solve_nnls(problem)
        assert first.weights.tobytes() == second.weights.tobytes()
        assert first.residual_norm == second.residual_norm
        assert first.active_set == second.active_set

    def test_iteration_limit_returns_tagged_best_iterate(self):
        problem = NnlsProblem(np.eye(3), [1.0, 2.0, 3.0])
        solution = solve_nnls(problem, max_iterations=1)
        assert not solution.converged
        assert (solution.weights >= 0.0).all()
        assert solution.iterations == 1

    def test_zero_iteration_budget(self):
        problem = NnlsProblem(np.eye(2), [1.0, 1.0])
        solution = solve_nnls(problem, max_iterations=0)
        assert not solution.converged
        assert solution.weights.tolist() == [0.0, 0.0]

    def test_default_tolerance_tracks_column_norms(self):
        a = np.array([[3.0, 0.0], [4.0, 1.0]])  # column norms 5 and 1
        assert default_kkt_tolerance(a) == pytest.approx(1e-10 * 6.0)

    def test_tie_break_prefers_lowest_index(self):
        # identical columns tie on the first selection; index 0 must enter
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        solution = solve_nnls(NnlsProblem(a, [1.0, 1.0]))
        assert solution.active_set == (0,)
        assert solution.weights[1] == 0.0

    def test_underdetermined_system_still_satisfies_kkt(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.0, 1.0, (3, 6))  # more columns than rows
        b = rng.uniform(-1.0, 1.0, 3)
        problem = NnlsProblem(a, b)
        solution = solve_nnls(problem)
        assert (solution.weights >= 0.0).all()
        assert kkt_residual(problem, solution.weights) <= 1e-8
