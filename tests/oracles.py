"""Test-only reference solvers.

``solve_enumeration`` cross-checks Lemke's method on small problems;
tests swap it into the step through ``nscontact.lcp.SOLVERS``.
"""

import itertools

import numpy as np

from nscontact import InvalidInput, LcpFailure, LcpProblem, LcpSolution
from nscontact.lcp import _candidate, _tol


def solve_enumeration(problem: LcpProblem) -> LcpSolution:
    """Exhaustive oracle: try every active subset, accept the first that
    is primal and dual feasible, with the same verification as Lemke's
    exits.  Limited to small problems (at most 12 contacts).

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
