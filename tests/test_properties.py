"""Property tests: the per-step energy identity holds for every variant,
and Lemke agrees with the enumeration oracle on singular Delassus matrices.

For the identity, hypothesis draws the scheme parameters and a damped,
sinusoidally forced random model (see ``conftest.random_model``),
optionally with a stiffness scaled by 1e4 and with one contact column
duplicated, which makes the contact jacobian rank-deficient and the
Delassus matrix singular.  Every gap starts closed and closing, so the
first steps solve multi-contact LCPs.  The identity gate is the
unchanged 1e-10 default.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from nscontact import (
    LcpProblem,
    SchemeSpec,
    SchemeVariant,
    build_model,
    initial_state,
    simulate,
    solve_enumeration,
    solve_lemke,
)
from conftest import random_model

H = 1e-3
STEPS = 60


def unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


SPECS = st.one_of(
    unit().map(SchemeSpec.moreau_jean),
    unit().map(SchemeSpec.moreau_jean_variant),
    st.tuples(unit(0.5, 1.0), unit(0.0, 0.3)).map(
        lambda p: SchemeSpec.newmark(p[0], p[0] / 2 + p[1])),
    unit(0.0, 1.0 / 3.0).map(SchemeSpec.hht),
    unit().map(SchemeSpec.from_rho_infinity),
    unit().map(lambda rho: SchemeSpec.from_rho_infinity(
        rho, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)),
)


def hardened_model(seed, n, m, stiffness_scale, duplicate):
    base = random_model(np.random.default_rng(seed), n=n, m=m, damped=True)
    jac, offset, e = base.contact_jacobian, base.gap_offset, base.restitution
    if duplicate:
        jac = np.column_stack([jac, jac[:, 0]])
        offset, e = np.append(offset, offset[0]), np.append(e, e[0])
    return build_model(base.mass, base.damping, stiffness_scale * base.stiffness,
                       jac, offset, e, base.forcing)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=SPECS, seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5),
       m=st.integers(1, 3), stiffness_scale=st.sampled_from([1.0, 1e4]),
       duplicate=st.booleans())
def test_identity_holds_on_every_step(spec, seed, n, m, stiffness_scale, duplicate):
    model = hardened_model(seed, n, m, stiffness_scale, duplicate)
    jac_t = model.contact_jacobian.T
    q0 = -np.linalg.lstsq(jac_t, model.gap_offset, rcond=None)[0]
    v0 = -np.linalg.lstsq(jac_t, np.ones(model.m), rcond=None)[0]
    records = simulate(model, initial_state(model, q0, v0), H, spec, STEPS * H)
    assert len(records) == STEPS
    for rec in records:
        assert rec.report.identity_ok(), (rec.step_index, rec.report)


@st.composite
def degenerate_lcps(draw):
    """A solvable LCP on a rank-deficient Delassus matrix W = J^T A J.

    The first of the s <= 8 contact columns of J is fresh; each later one
    is fresh, a copy of an earlier column or zero, and at least one is
    not fresh.  J has at most s rows.  A complementary pair (z*, w*)
    fixes b = w* - W z*, so the problem has a solution by construction.
    Returns the problem and w*.
    """
    s = draw(st.integers(2, 8))
    kinds = ["fresh"] + draw(
        st.lists(st.sampled_from(("fresh", "copy", "zero")), min_size=s - 1, max_size=s - 1)
        .filter(lambda ks: any(k != "fresh" for k in ks)))
    roles = draw(st.lists(st.sampled_from(("z", "w", "both_zero")), min_size=s, max_size=s))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, s))
    a = rng.normal(size=(n, n))
    jac = np.zeros((n, s))
    for i, kind in enumerate(kinds):
        if kind == "fresh":
            jac[:, i] = rng.normal(size=n)
        elif kind == "copy":
            jac[:, i] = jac[:, int(rng.integers(0, i))]
    delassus = jac.T @ (a @ a.T + 0.1 * np.eye(n)) @ jac
    delassus = 0.5 * (delassus + delassus.T)
    z_star = np.array([rng.uniform(0.1, 2.0) if r == "z" else 0.0 for r in roles])
    w_star = np.array([rng.uniform(0.1, 2.0) if r == "w" else 0.0 for r in roles])
    return LcpProblem(delassus, w_star - delassus @ z_star), w_star


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=degenerate_lcps())
def test_lemke_slack_matches_enumeration(case):
    # z need not be unique on a singular W, but for symmetric positive
    # semi-definite W every solution has the same W z, hence the same slack
    problem, w_star = case
    assert np.linalg.matrix_rank(problem.W) < problem.size
    lemke, oracle = solve_lemke(problem), solve_enumeration(problem)
    assert lemke.solved and oracle.solved
    tol = 1e-8 * (1.0 + np.abs(problem.b).max() + np.abs(problem.W).max())
    assert lemke.residual <= tol and oracle.residual <= tol
    assert np.abs(lemke.w_slack - oracle.w_slack).max() <= tol
    assert np.abs(lemke.w_slack - w_star).max() <= tol
