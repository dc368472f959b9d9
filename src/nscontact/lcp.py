"""Linear complementarity solvers for the per-step contact problems.

Every scheme in this package reduces its contact unknowns to

    find z >= 0  with  W z + b >= 0  and  z^T (W z + b) = 0

on the active contact set, where W is the (near-)symmetric positive
semi-definite Delassus matrix of the step.  Lemke's complementary
pivoting is the default solver: it terminates in finitely many pivots
for this problem class and handles simultaneous impacts through a
lexicographic ratio test.  A projected Gauss-Seidel iteration and an
exhaustive enumeration oracle (for testing) complete the module.

All operations are stateless over immutable problem data.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InconsistentSpec, NoSolutionFound, NumericalBreakdown, ZeroDiagonal

PIVOT_FLOOR = 1e-12
DEFAULT_TOL = 1e-10


class LcpStatus(enum.Enum):
    SOLVED = "solved"
    MAX_ITERATIONS = "max_iterations"
    RAY_TERMINATION = "ray_termination"


@dataclass(frozen=True)
class LcpProblem:
    """One complementarity problem: matrix W (s x s) and offset b (s)."""

    W: np.ndarray
    b: np.ndarray
    size: int = field(init=False)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        s = b.shape[0]
        if W.shape != (s, s):
            raise InconsistentSpec(f"W must be {s}x{s} to match b, got {W.shape}")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "size", s)


@dataclass(frozen=True)
class LcpSolution:
    z: np.ndarray
    w_slack: np.ndarray
    status: LcpStatus
    iterations: int
    residual: float

    @property
    def solved(self) -> bool:
        return self.status is LcpStatus.SOLVED


def _empty_solution() -> LcpSolution:
    return LcpSolution(np.zeros(0), np.zeros(0), LcpStatus.SOLVED, 0, 0.0)


def _finish(problem: LcpProblem, z: np.ndarray, status: LcpStatus,
            iterations: int) -> LcpSolution:
    w = problem.W @ z + problem.b
    residual = float(np.abs(np.minimum(z, w)).max(initial=0.0))
    return LcpSolution(z, w, status, iterations, residual)


def solve_lemke(problem: LcpProblem, tol: float = DEFAULT_TOL,
                max_pivots: int | None = None) -> LcpSolution:
    """Complementary pivoting with a lexicographic ratio test.

    The lexicographic test (ratios taken against the inverse-basis
    columns) prevents cycling on degenerate problems such as several
    contacts closing with identical geometry in the same step.

    When no pivot is admissible, the current point is returned as solved
    if it solves the problem to tolerance.

    Raises:
        NumericalBreakdown: the only admissible pivots are below 1e-12
            and the current point does not solve the problem.
    """
    s = problem.size
    if s == 0:
        return _empty_solution()
    tol_eff = tol * (1.0 + np.abs(problem.b).max(initial=0.0))
    if problem.b.min() >= 0.0:
        return _finish(problem, np.zeros(s), LcpStatus.SOLVED, 0)
    if max_pivots is None:
        max_pivots = 50 * s + 100

    # Tableau columns: [w_0..w_{s-1} | z_0..z_{s-1} | z_aux | rhs].
    # Rows always satisfy T.[w; z; z_aux] = rhs under pivoting; the w
    # columns start as the identity and track the inverse basis, which
    # is exactly what the lexicographic comparison needs.
    zcol = lambda j: s + j
    aux = 2 * s
    T = np.empty((s, 2 * s + 2))
    T[:, :s] = np.eye(s)
    T[:, s:2 * s] = -problem.W
    T[:, aux] = -1.0
    T[:, -1] = problem.b
    basis = list(range(s))

    def pivot(r: int, c: int) -> None:
        T[r] /= T[r, c]
        for i in range(s):
            if i != r and T[i, c] != 0.0:
                T[i] -= T[i, c] * T[r]
        basis[r] = c

    # First pivot: bring the covering variable in on the most negative
    # row (lexicographic tie-break on the inverse-basis columns).
    cand = np.arange(s)
    keys = np.column_stack([T[cand, -1], T[np.ix_(cand, np.arange(s))]])
    order = np.lexsort(keys.T[::-1])
    r = int(cand[order[0]])
    entering = zcol(r)          # complement of the leaving w_r
    pivot(r, aux)

    for it in range(1, max_pivots + 1):
        col = T[:, entering]
        usable = col > PIVOT_FLOOR
        if not usable.any():
            # A degenerate tie can leave the covering variable basic at zero;
            # the ray (or roundoff-sized pivot) then starts from a solution.
            sol = _finish(problem, _extract_z(T, basis, s), LcpStatus.SOLVED, it)
            if sol.residual <= tol_eff:
                return sol
            if (col > 0.0).any():
                raise NumericalBreakdown(
                    f"all candidate pivots below {PIVOT_FLOOR:g} after {it} pivots")
            return replace(sol, status=LcpStatus.RAY_TERMINATION)
        cand = np.flatnonzero(usable)
        ratios = np.column_stack([T[cand, -1], T[np.ix_(cand, np.arange(s))]])
        ratios = ratios / col[cand, None]
        order = np.lexsort(ratios.T[::-1])
        r = int(cand[order[0]])
        leaving = basis[r]
        pivot(r, entering)
        if leaving == aux:
            z = _extract_z(T, basis, s)
            sol = _finish(problem, z, LcpStatus.SOLVED, it)
            if sol.residual > tol_eff or z.min(initial=0.0) < -tol_eff:
                raise NumericalBreakdown(
                    f"pivoting terminated but residual {sol.residual:.3e} "
                    f"exceeds tolerance {tol_eff:.3e}")
            return sol
        entering = zcol(leaving) if leaving < s else leaving - s

    return _finish(problem, _extract_z(T, basis, s), LcpStatus.MAX_ITERATIONS, max_pivots)


def _extract_z(T: np.ndarray, basis: list[int], s: int) -> np.ndarray:
    z = np.zeros(s)
    for row, var in enumerate(basis):
        if s <= var < 2 * s:
            z[var - s] = max(T[row, -1], 0.0)
    return z


def solve_pgs(problem: LcpProblem, tol: float = DEFAULT_TOL,
              max_sweeps: int = 5000) -> LcpSolution:
    """Projected Gauss-Seidel sweeps z_i <- max(0, z_i - (Wz+b)_i / W_ii).

    Raises:
        ZeroDiagonal: some W_ii is not strictly positive.
    """
    s = problem.size
    if s == 0:
        return _empty_solution()
    diag = np.diag(problem.W)
    if diag.min(initial=np.inf) <= PIVOT_FLOOR:
        raise ZeroDiagonal(f"diagonal entry {diag.min():.3e} not strictly positive")
    tol_eff = tol * (1.0 + np.abs(problem.b).max(initial=0.0))
    if problem.b.min() >= 0.0:
        return _finish(problem, np.zeros(s), LcpStatus.SOLVED, 0)

    W, b = problem.W, problem.b
    z = np.zeros(s)
    for sweep in range(1, max_sweeps + 1):
        for i in range(s):
            z[i] = max(0.0, z[i] - (W[i] @ z + b[i]) / diag[i])
        w = W @ z + b
        residual = np.abs(np.minimum(z, w)).max(initial=0.0)
        if residual <= tol_eff and w.min() >= -tol_eff:
            return LcpSolution(z, w, LcpStatus.SOLVED, sweep, float(residual))
    return _finish(problem, z, LcpStatus.MAX_ITERATIONS, max_sweeps)


def solve_enumeration(problem: LcpProblem, tol: float = DEFAULT_TOL) -> LcpSolution:
    """Exhaustive oracle: try every active subset, accept the first that
    is primal and dual feasible.  Intended for cross-checking the pivot
    solver on small problems (at most 12 contacts).

    Raises:
        NoSolutionFound: no subset works, which for positive
            semi-definite W indicates an assembly bug upstream.
    """
    s = problem.size
    if s == 0:
        return _empty_solution()
    if s > 12:
        raise InconsistentSpec(f"enumeration oracle limited to 12 contacts, got {s}")
    W, b = problem.W, problem.b
    tol_eff = tol * (1.0 + np.abs(b).max(initial=0.0))
    tried = 0
    for r in range(s + 1):
        for subset in itertools.combinations(range(s), r):
            tried += 1
            z = np.zeros(s)
            if subset:
                idx = list(subset)
                try:
                    z[idx] = np.linalg.solve(W[np.ix_(idx, idx)], -b[idx])
                except np.linalg.LinAlgError:
                    continue
                if z[idx].min() < -tol_eff:
                    continue
            w = W @ z + b
            if w.min() >= -tol_eff:
                residual = float(np.abs(np.minimum(z, w)).max(initial=0.0))
                return LcpSolution(z, w, LcpStatus.SOLVED, tried, residual)
    raise NoSolutionFound(f"no feasible active subset among {tried} candidates")


SOLVERS = {
    "lemke": solve_lemke,
    "pgs": solve_pgs,
    "enumeration": solve_enumeration,
}
