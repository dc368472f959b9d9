"""Complementarity solvers against hand values and the enumeration oracle."""

import numpy as np
import pytest

from nscontact import (
    InvalidInput,
    LcpFailure,
    LcpProblem,
    solve_enumeration,
    solve_lemke,
)


def random_pd_problem(rng, s):
    a = rng.normal(size=(s, s))
    w = a @ a.T + 0.1 * np.eye(s)
    return LcpProblem(w, rng.normal(size=s) * 2.0)


class TestHandValues:
    def test_nonnegative_offset_gives_zero(self):
        sol = solve_lemke(LcpProblem([[1.0]], [2.0]))
        assert sol.z == pytest.approx([0.0])
        assert sol.w_slack == pytest.approx([2.0])

    def test_single_pivot(self):
        sol = solve_lemke(LcpProblem([[1.0]], [-2.0]))
        assert sol.z == pytest.approx([2.0])
        assert sol.w_slack == pytest.approx([0.0], abs=1e-14)

    def test_coupled_pair(self):
        # enumeration oracle gives z = [1, 1]: W_AA z = -b on the full set,
        # which Lemke answers with one linear solve and no pivot
        problem = LcpProblem([[2.0, 1.0], [1.0, 2.0]], [-3.0, -3.0])
        oracle = solve_enumeration(problem)
        assert oracle.z == pytest.approx([1.0, 1.0], abs=1e-12)
        sol = solve_lemke(problem)
        assert sol.z == pytest.approx(oracle.z, abs=1e-12)
        assert sol.iterations == 0

    def test_mixed_support_pair_pivots(self):
        # W^-1 (-b) = [7/3, -5/3] is infeasible, so the full-support guess
        # misses and Lemke pivots to the oracle's z = [1.5, 0]
        problem = LcpProblem([[2.0, 1.0], [1.0, 2.0]], [-3.0, 1.0])
        oracle = solve_enumeration(problem)
        assert oracle.z == pytest.approx([1.5, 0.0], abs=1e-12)
        sol = solve_lemke(problem)
        assert sol.z == pytest.approx(oracle.z, abs=1e-12)
        assert sol.iterations > 0

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
            for solver in (solve_lemke, solve_enumeration):
                sol = solver(problem)
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
        # rank-one W: np.linalg.solve raises, so the full-support guess
        # falls through (tier-1 turns any warning into an error) and
        # lexicographic tie-breaking must not cycle
        problem = LcpProblem([[1.0, 1.0], [1.0, 1.0]], [-1.0, -1.0])
        sol = solve_lemke(problem)
        assert sol.iterations > 0
        assert sol.residual <= 1e-12
        assert sol.z.sum() == pytest.approx(1.0, abs=1e-12)

    def test_covering_variable_wins_a_near_tie(self):
        # b = -W z* lies in the range of the rank-one W, so after the first
        # pivot the covering variable's ratio ties z_1's up to roundoff;
        # preferring it ends the solve there, not through the fallback
        u = np.array([-1.04, 0.75])
        W = np.outer(u, u)
        problem = LcpProblem(W, -W @ np.array([0.0, 1.95]))
        sol = solve_lemke(problem)
        assert sol.iterations == 1
        assert sol.w_slack == pytest.approx(solve_enumeration(problem).w_slack, abs=1e-12)

    def test_empty_problem(self):
        sol = solve_lemke(LcpProblem(np.zeros((0, 0)), np.zeros(0)))
        assert sol.z.size == 0


class TestFailureModes:
    def test_enumeration_no_solution(self):
        with pytest.raises(LcpFailure, match="no feasible active subset"):
            solve_enumeration(LcpProblem([[-1.0]], [-1.0]))

    def test_lemke_ray_termination_raises(self):
        with pytest.raises(LcpFailure, match="ray termination"):
            solve_lemke(LcpProblem([[-1.0]], [-1.0]))

    # a NaN residual must fail the verification at either terminal exit;
    # the full-support guess is NaN here too and falls through to pivoting
    @pytest.mark.parametrize("W, b", [
        pytest.param([[1.0]], [np.nan], id="covering-exit"),
        pytest.param([[1.0, 0.5], [0.5, 1.0]], [-1.0, np.nan], id="covering-exit-s2"),
        pytest.param([[np.nan]], [-1.0], id="no-pivot-exit"),
    ])
    def test_lemke_rejects_a_nan_residual(self, W, b):
        with pytest.raises(LcpFailure, match="residual nan exceeds tolerance"):
            solve_lemke(LcpProblem(W, b))

    def test_lemke_pivot_limit_raises(self):
        # the mixed-support pair: the full-support guess misses, so Lemke
        # needs a pivot
        problem = LcpProblem([[2.0, 1.0], [1.0, 2.0]], [-3.0, 1.0])
        with pytest.raises(LcpFailure, match="pivot limit 0"):
            solve_lemke(problem, max_pivots=0)

    def test_enumeration_size_cap(self):
        with pytest.raises(InvalidInput, match="limited to 12 contacts, got 13"):
            solve_enumeration(LcpProblem(np.eye(13), np.ones(13)))

    def test_problem_shape_check(self):
        with pytest.raises(InvalidInput, match=r"W must be 2x2 to match b, got \(3, 3\)"):
            LcpProblem(np.eye(3), np.ones(2))
