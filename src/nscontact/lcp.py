"""Linear complementarity solvers for the per-step contact problems.

Every scheme in this package reduces its contact unknowns to

    find z >= 0  with  W z + b >= 0  and  z^T (W z + b) = 0

on the active contact set, where W is the (near-)symmetric positive
semi-definite Delassus matrix of the step.  Lemke's method solves it in
the steps and has three exits: z = 0 when b >= 0; the full-support
point z = -W^-1 b (every contact carries an impulse), from one linear
solve, when it passes the verification; and otherwise complementary
pivoting, which terminates in finitely many pivots for this problem
class and handles simultaneous impacts through a lexicographic ratio
test.  An exhaustive enumeration oracle cross-checks it in tests.

A solver returns only a solution it has verified to tolerance, and
raises :class:`LcpFailure` otherwise.  All operations are stateless over
immutable problem data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, LcpFailure

PIVOT_FLOOR = 1e-12
# complementarity tolerance, relative to 1 + max |b|
TOL = 1e-10


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
            raise InvalidInput(f"W must be {s}x{s} to match b, got {W.shape}")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "size", s)


@dataclass(frozen=True)
class LcpSolution:
    """A verified solution: ``residual = max |min(z, w_slack)| <= TOL (1 + max |b|)``.

    ``iterations`` counts Lemke's pivots, 0 on both pivot-free exits, or
    the subsets the enumeration oracle tried.
    """

    z: np.ndarray
    w_slack: np.ndarray
    iterations: int
    residual: float


def _tol(problem: LcpProblem) -> float:
    return TOL * (1.0 + np.abs(problem.b).max(initial=0.0))


def _candidate(problem: LcpProblem, z: np.ndarray, iterations: int) -> LcpSolution:
    # |min(z_i, w_i)| <= tol bounds both z_i and w_i below by -tol, so the
    # residual alone checks sign and complementarity
    w = problem.W @ z + problem.b
    residual = float(np.abs(np.minimum(z, w)).max(initial=0.0))
    return LcpSolution(z, w, iterations, residual)


def solve_lemke(problem: LcpProblem, max_pivots: int | None = None) -> LcpSolution:
    """Complementary pivoting with a lexicographic ratio test.

    The lexicographic test (ratios taken against the inverse-basis
    columns) prevents cycling on degenerate problems such as several
    contacts closing with identical geometry in the same step.  A row
    of the covering variable whose ratio ties the least one (to within
    ``PIVOT_FLOOR`` relative) is preferred, so the solve ends there.

    Two exits need no pivot: b >= 0 returns z = 0, and otherwise the
    full-support point z = -W^-1 b (one ``np.linalg.solve``) returns if
    it passes the same tolerance check as every other exit.  A singular
    W, or a point that fails the check, goes on to pivoting.  The guess
    keeps no state between solves.  Every terminal point of the pivot
    sequence, the covering variable leaving or no admissible pivot,
    returns through one exit that verifies it to tolerance.

    Raises:
        LcpFailure: ray termination or only sub-floor pivots at a point
            that does not solve the problem, the pivot limit
            (default 50 s + 100), or a terminal point that fails the
            tolerance check.
    """
    s = problem.size
    if s == 0 or problem.b.min() >= 0.0:
        return _candidate(problem, np.zeros(s), 0)
    tol = _tol(problem)
    try:
        # every contact carries an impulse: w = 0, so W z = -b
        sol = _candidate(problem, np.linalg.solve(problem.W, -problem.b), 0)
        if sol.residual <= tol:
            return sol
    except np.linalg.LinAlgError:
        pass
    if max_pivots is None:
        max_pivots = 50 * s + 100

    # Tableau columns: [rhs | w_0..w_{s-1} | z_0..z_{s-1} | z_aux], so
    # w_i is column 1 + i and z_i its complement, column 1 + s + i.
    # Rows always satisfy T.[w; z; z_aux] = rhs under pivoting; the w
    # columns start as the identity and track the inverse basis, so the
    # lexicographic key of a row is its slice T[row, :s + 1] (reversed
    # for np.lexsort, which sorts on its last key first).
    aux = 2 * s + 1
    T = np.empty((s, aux + 1))
    T[:, 0] = problem.b
    T[:, 1:s + 1] = np.eye(s)
    T[:, s + 1:aux] = -problem.W
    T[:, aux] = -1.0
    basis = list(range(1, s + 1))

    def pivot(r: int, c: int) -> None:
        row = T[r] / T[r, c]
        T[:] -= np.outer(T[:, c], row)
        T[r] = row
        basis[r] = c

    def finish(it: int, reason: str) -> LcpSolution:
        # each basic variable takes its rhs, clamped at 0; the rest are 0
        values = np.zeros(aux + 1)
        values[basis] = np.where(T[:, 0] < 0.0, 0.0, T[:, 0])
        sol = _candidate(problem, values[s + 1:aux], it)
        if not sol.residual <= tol:     # a NaN residual fails too
            raise LcpFailure(f"Lemke: {reason} after {it} pivots, residual "
                             f"{sol.residual:.3e} exceeds tolerance {tol:.3e}")
        return sol

    # First pivot: bring the covering variable in on the most negative
    # row (lexicographic tie-break on the inverse-basis columns).
    r = int(np.lexsort(T[:, s::-1].T)[0])
    entering = r + s + 1        # complement of the leaving w_r
    pivot(r, aux)
    aux_row = r                 # the covering variable stays here until it leaves

    for it in range(1, max_pivots + 1):
        col = T[:, entering]
        usable = col > PIVOT_FLOOR
        if not usable.any():
            # A degenerate tie can leave the covering variable basic at zero;
            # the ray (or roundoff-sized pivot) then starts from a solution.
            return finish(it, f"all candidate pivots below {PIVOT_FLOOR:g}"
                          if (col > 0.0).any() else "ray termination")
        cand = np.flatnonzero(usable)
        ratios = T[cand, s::-1] / col[cand, None]
        r = int(cand[np.lexsort(ratios.T)[0]])
        least = T[r, 0] / col[r]
        if usable[aux_row] and (T[aux_row, 0] / col[aux_row]
                                <= least + PIVOT_FLOOR * (1.0 + abs(least))):
            r = aux_row
        leaving = basis[r]
        pivot(r, entering)
        if leaving == aux:
            return finish(it, "terminal point failed the tolerance check")
        entering = leaving + s if leaving <= s else leaving - s

    raise LcpFailure(f"Lemke: pivot limit {max_pivots} reached")


def solve_enumeration(problem: LcpProblem) -> LcpSolution:
    """Exhaustive oracle: try every active subset, accept the first that
    is primal and dual feasible.  Intended for cross-checking the pivot
    solver on small problems (at most 12 contacts).

    Raises:
        LcpFailure: no subset works, which for positive semi-definite W
            indicates an assembly bug upstream.
    """
    s = problem.size
    if s > 12:
        raise InvalidInput(f"enumeration oracle limited to 12 contacts, got {s}")
    W, b = problem.W, problem.b
    tol = _tol(problem)
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
            sol = _candidate(problem, z, tried)
            if sol.residual <= tol:
                return sol
    raise LcpFailure(f"enumeration: no feasible active subset among {tried} candidates")


SOLVERS = {"lemke": solve_lemke}
