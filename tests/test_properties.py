"""Property tests: the per-step energy identity holds for every variant,
schemes inside their parameter region dissipate on multi-contact models,
and Lemke agrees with the enumeration oracle on singular and on regular
Delassus matrices.

For the identity, hypothesis draws the scheme parameters (including
generalized-alpha, KH and HHT weights with gamma and beta off the
second-order balance) and a damped, sinusoidally forced random model
(see ``conftest.random_model``), optionally with a stiffness scaled by
1e4 and with one contact column duplicated, which makes the contact jacobian rank-deficient and the
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
    solve_lemke,
)
from conftest import random_model
from oracles import solve_enumeration

H = 1e-3
STEPS = 60


def unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def free_averaging(params):
    """Generalized-alpha weights with gamma and beta off the second-order balance."""
    variant, alpha_m, alpha_f, gamma, beta = params
    if variant is SchemeVariant.NONSMOOTH_HHT:
        alpha_m, alpha_f = 0.0, alpha_f * 2.0 / 3.0
    return SchemeSpec.generalized_alpha(alpha_m, alpha_f, gamma, beta, variant=variant)


SPECS = st.one_of(
    unit().map(SchemeSpec.moreau_jean),
    unit().map(SchemeSpec.moreau_jean_variant),
    st.tuples(unit(0.5, 1.0), unit(0.0, 0.3)).map(
        lambda p: SchemeSpec.newmark(p[0], p[0] / 2 + p[1])),
    unit(0.0, 1.0 / 3.0).map(SchemeSpec.hht),
    unit().map(SchemeSpec.from_rho_infinity),
    unit().map(lambda rho: SchemeSpec.from_rho_infinity(
        rho, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)),
    st.tuples(st.sampled_from([SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA,
                               SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA,
                               SchemeVariant.NONSMOOTH_HHT]),
              unit(-0.5, 0.4), unit(0.0, 0.5), unit(0.5, 1.0), unit(0.0, 1.0),
              ).map(free_averaging),
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


REGION_SPECS = [
    SchemeSpec.moreau_jean(0.5), SchemeSpec.moreau_jean(0.52),
    SchemeSpec.moreau_jean_variant(0.7), SchemeSpec.newmark(0.6, 0.4),
    SchemeSpec.hht(0.1, gamma=0.65, beta=0.4), SchemeSpec.from_rho_infinity(0.8),
    SchemeSpec.from_rho_infinity(0.8, SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5), m=st.integers(2, 3),
       damped=st.booleans())
def test_schemes_dissipate_inside_their_region(seed, n, m, damped):
    # Several contacts under constant load, started around the closed-gap
    # point with a random velocity, so some contacts penetrate while
    # they separate.  Inside its parameter region a scheme must not gain
    # energy on any step.
    rng = np.random.default_rng(seed)
    model = random_model(rng, n=n, m=m, damped=damped, forcing="constant")
    q0 = (-np.linalg.lstsq(model.contact_jacobian.T, model.gap_offset, rcond=None)[0]
          + 0.01 * rng.normal(size=n))
    state = initial_state(model, q0, rng.normal(size=n))
    for spec in REGION_SPECS:
        records = simulate(model, state, H, spec, 200 * H)
        if not records[0].report.condition_satisfied:
            continue
        for rec in records:
            assert rec.report.dissipation_satisfied and rec.report.identity_ok(), (
                spec, rec.step_index, rec.report)


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
    tol = 1e-8 * (1.0 + np.abs(problem.b).max() + np.abs(problem.W).max())
    assert lemke.residual <= tol and oracle.residual <= tol
    assert np.abs(lemke.w_slack - oracle.w_slack).max() <= tol
    assert np.abs(lemke.w_slack - w_star).max() <= tol


@st.composite
def regular_lcps(draw):
    """A solvable LCP on a full-rank, positive definite W of size s <= 8.

    Each contact's role in the solution (z* > 0, w* > 0 or both zero) is
    drawn, and on half the draws every contact carries an impulse.  As in
    ``degenerate_lcps``, b = w* - W z*.  Returns the problem and z*.
    """
    s = draw(st.integers(1, 8))
    roles = (["z"] * s if draw(st.booleans()) else
             draw(st.lists(st.sampled_from(("z", "w", "both_zero")), min_size=s, max_size=s)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(s, s))
    delassus = a @ a.T + 0.1 * np.eye(s)
    z_star = np.array([rng.uniform(0.1, 2.0) if r == "z" else 0.0 for r in roles])
    w_star = np.array([rng.uniform(0.1, 2.0) if r == "w" else 0.0 for r in roles])
    return LcpProblem(delassus, w_star - delassus @ z_star), z_star


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=regular_lcps())
def test_lemke_slack_matches_enumeration_on_regular_delassus(case):
    # a full-support solution is answered by one linear solve, without pivoting;
    # the guess keeps no state between solves, so it has no support to go stale
    problem, z_star = case
    lemke, oracle = solve_lemke(problem), solve_enumeration(problem)
    tol = 1e-8 * (1.0 + np.abs(problem.b).max() + np.abs(problem.W).max())
    assert lemke.residual <= tol and oracle.residual <= tol
    assert np.abs(lemke.w_slack - oracle.w_slack).max() <= tol
    assert np.abs(lemke.z - z_star).max() <= tol * (1.0 + np.abs(z_star).max())
    if z_star.min() > 0.0:
        assert lemke.iterations == 0
