"""Complementarity solvers against hand values and the enumeration oracle."""

import numpy as np
import pytest

from nscontact import (
    InconsistentSpec,
    LcpProblem,
    NoSolutionFound,
    ZeroDiagonal,
    solve_enumeration,
    solve_lemke,
    solve_pgs,
)


def random_pd_problem(rng, s):
    a = rng.normal(size=(s, s))
    w = a @ a.T + 0.1 * np.eye(s)
    return LcpProblem(w, rng.normal(size=s) * 2.0)


class TestHandValues:
    def test_nonnegative_offset_gives_zero(self):
        sol = solve_lemke(LcpProblem([[1.0]], [2.0]))
        assert sol.solved
        assert sol.z == pytest.approx([0.0])
        assert sol.w_slack == pytest.approx([2.0])

    def test_single_pivot(self):
        sol = solve_lemke(LcpProblem([[1.0]], [-2.0]))
        assert sol.z == pytest.approx([2.0])
        assert sol.w_slack == pytest.approx([0.0], abs=1e-14)

    def test_coupled_pair(self):
        # enumeration oracle gives z = [1, 1]: W_AA z = -b on the full set
        problem = LcpProblem([[2.0, 1.0], [1.0, 2.0]], [-3.0, -3.0])
        oracle = solve_enumeration(problem)
        assert oracle.z == pytest.approx([1.0, 1.0], abs=1e-12)
        sol = solve_lemke(problem)
        assert sol.z == pytest.approx(oracle.z, abs=1e-12)

    def test_pgs_examples(self):
        assert solve_pgs(LcpProblem([[1.0]], [-2.0])).z == pytest.approx([2.0])
        sol = solve_pgs(LcpProblem([[2.0, 1.0], [1.0, 2.0]], [-3.0, -3.0]))
        assert sol.solved
        assert sol.z == pytest.approx([1.0, 1.0], abs=1e-8)
        decoupled = solve_pgs(LcpProblem(np.eye(2), [1.0, -1.0]))
        assert decoupled.z == pytest.approx([0.0, 1.0])

    def test_psd_with_nonnegative_offset(self, rng):
        for _ in range(10):
            s = int(rng.integers(1, 6))
            w = rng.normal(size=(s, s))
            problem = LcpProblem(w @ w.T, np.abs(rng.normal(size=s)))
            assert solve_enumeration(problem).z == pytest.approx(np.zeros(s))


class TestOracleAgreement:
    def test_one_dimensional_exhaustive(self, rng):
        for _ in range(50):
            problem = random_pd_problem(rng, 1)
            assert solve_lemke(problem).z == pytest.approx(
                solve_enumeration(problem).z, abs=1e-12)

    def test_random_pd_4x4(self, rng):
        for _ in range(100):
            problem = random_pd_problem(rng, 4)
            a = solve_lemke(problem)
            b = solve_enumeration(problem)
            assert a.solved and b.solved
            # positive definite W has a unique solution
            assert a.z == pytest.approx(b.z, abs=1e-9)
            scale = 1.0 + np.abs(problem.b).max()
            assert a.residual <= 1e-10 * scale
            assert b.residual <= 1e-10 * scale


class TestInvariants:
    def test_solution_feasibility(self, rng):
        for _ in range(60):
            s = int(rng.integers(1, 7))
            problem = random_pd_problem(rng, s)
            for solver in (solve_lemke, solve_pgs, solve_enumeration):
                sol = solver(problem)
                assert sol.solved
                scale = 1.0 + np.abs(problem.b).max()
                tol = 1e-9 * scale
                assert sol.z.min(initial=0.0) >= -tol
                assert sol.w_slack.min(initial=0.0) >= -tol
                assert abs(sol.z @ sol.w_slack) <= s * tol * scale

    def test_scaling_invariance(self, rng):
        for _ in range(20):
            problem = random_pd_problem(rng, 3)
            base = solve_lemke(problem)
            for c in (0.1, 7.5, 1234.0):
                scaled = solve_lemke(LcpProblem(c * problem.W, c * problem.b))
                assert scaled.z == pytest.approx(base.z, abs=1e-9 * (1 + np.abs(base.z).max()))

    def test_degenerate_duplicate_contacts_terminate(self):
        # rank-one W: lexicographic tie-breaking must not cycle
        problem = LcpProblem([[1.0, 1.0], [1.0, 1.0]], [-1.0, -1.0])
        sol = solve_lemke(problem)
        assert sol.solved
        assert sol.residual <= 1e-12
        assert sol.z.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_problem(self):
        sol = solve_lemke(LcpProblem(np.zeros((0, 0)), np.zeros(0)))
        assert sol.solved and sol.z.size == 0


class TestFailureModes:
    def test_pgs_zero_diagonal(self):
        with pytest.raises(ZeroDiagonal):
            solve_pgs(LcpProblem([[0.0]], [-1.0]))

    def test_enumeration_no_solution(self):
        with pytest.raises(NoSolutionFound):
            solve_enumeration(LcpProblem([[-1.0]], [-1.0]))

    def test_enumeration_size_cap(self):
        with pytest.raises(InconsistentSpec):
            solve_enumeration(LcpProblem(np.eye(13), np.ones(13)))

    def test_problem_shape_check(self):
        with pytest.raises(InconsistentSpec):
            LcpProblem(np.eye(3), np.ones(2))
