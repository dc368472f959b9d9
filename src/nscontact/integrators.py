"""One-step maps for the event-capturing contact schemes.

Every scheme solves one weighted balance (see
:class:`IterationMatrixCache`); the two families differ only in the
per-run weights ``build_cache`` sets.  A step eliminates the smooth
unknowns onto the contact impulses through the inverse iteration
matrix, then runs one contact stage (``_solve_contact``): it forecasts
the active contact set and, when the set is nonempty, solves the
complementarity problem on it.  Lemke's method, looked up in
``lcp.SOLVERS`` (where tests swap in the enumeration oracle), returns
z = 0 at once when the free velocities already satisfy the impact law,
tries the point where every forecast contact carries an impulse (one
product with the inverse of the Delassus block) next, and pivots only
when that fails its check; it returns a verified solution or raises
``LcpFailure``.  Impulses (not forces) are the contact unknowns, so
the steps stay consistent when an impact happens inside the step.

The iteration matrix A = M + c_C C + c_K K has nonnegative weights
c_C and c_K that grow with h.  It is positive definite as long as M
outweighs the negative eigenvalues the model validator lets through in
C and K: semi-definite there means down to ``model.EIGENVALUE_RTOL``
times the largest eigenvalue, so a mass that is tiny in some direction
can lose against that floor at a large h, and ``build_cache`` then
raises ``SingularIterationMatrix`` (its Cholesky factorization fails),
as it does when an overflowing h leaves the matrix or its weights
non-finite.  The cache built per (model, scheme, h), and rebuilt
whenever any of them changes, holds every product and coefficient that
is fixed for the run: the products of sigma A^-1 with C and K, so the
free step is one product per nonzero damping or stiffness term; the
product of sigma A^-1 with the load amplitude, so a load, constant or
not, costs a step two scalar signal values and one scaled copy; the
filter gain and lag of the averaging family; the contact law's opening
coefficient; and the energy audit's coefficient row, so a run branches
on the scheme family once.  A zero C or K is never multiplied in a
step or its audit; ``build_cache`` decides all of this once per run.
The contact stage works in contact space: it forecasts the gaps as
g(q_k) + h U_k from the contact image U_k = G^T v_k and g(q_k) that the
state carries.  Each state's image is formed once, where its q and v
are made, by the model's ``contact_image`` from the rows of G^T the
model keeps (``model.contact_rows``).
The cache also keeps one entry for the contact stage: the last active
set's Delassus block and its inverse, replaced when the set changes;
Lemke takes the inverse as a hint and verifies its answer like any
other.  A step never mutates its input state; trajectories are bitwise
reproducible for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import energy as energy_audit
from .errors import SimulationError, SingularIterationMatrix
from .lcp import LcpProblem, SOLVERS
from .model import (
    THETA_FAMILY,
    LagrangianModel,
    SchemeSpec,
    SchemeVariant,
    StepRecord,
    SystemState,
)

# A forecast contact with U_k at most this is closing and takes the
# Newton law (resting contacts sit at numerical zero); above it, it is
# opening and takes the weighted law of ``_solve_contact``.
ACTIVATION_TOL = 1e-12

# The dissipation conditions are compared with this slack, because the
# standard parameter constructions sit exactly on their boundary (the
# second-order weight balance gives gamma - 1/2 equal to nu up to roundoff).
CONDITION_SLACK = 1e-12


@dataclass
class IterationMatrixCache:
    """Every product and coefficient a step needs, valid for one (model, spec, h).

    Both families solve one weighted balance for an unknown s,

        M s = sigma [(1 - alpha_c)(F_{k+1} - C v_{k+1}) + alpha_c (F_k - C v_k)
                     - (1 - alpha_f) K q_{k+1} - alpha_f K q_k]

    with v_{k+1} = pred_v + g s, q_{k+1} = pred_q + b s,
    pred_v = v_k + pred_v_a a_k and pred_q = q_k + h v_k + pred_q_a a_k.
    The theta family has s = dv, sigma = h, alpha_c = alpha_f = 1 - theta,
    g = 1, b = h w and no ``a`` terms; the averaging family has
    s = (1 - alpha_m) a_{k+1} + alpha_m a_k, sigma = 1 and the gains
    g = h gamma / (1 - alpha_m), b = h^2 beta / (1 - alpha_m).

    ``damping_map`` and ``stiffness_map`` are sigma A^-1 C and
    sigma A^-1 K for the iteration matrix A, each None when its matrix
    is all zero, with their subnormal entries set to zero (as in
    sigma A^-1 itself, which ``build_cache`` forms and does not keep).
    The free step is

        s = sigma A^-1 F_mix - damping_map v_c - stiffness_map x_c

    with F_mix, v_c and x_c the bracket's load, velocity and
    displacement mixes at the predictors; a step skips the product with
    a zero C or K.  The load F(t) = amplitude * signal(t) enters only
    through its amplitude and a scalar signal, so ``load_map`` is
    sigma A^-1 times the amplitude, exact zeros for a zero load, and the
    load term is

        sigma A^-1 F_mix = load_map * [(1 - alpha_c) signal(t_{k+1}) + alpha_c signal(t_k)]

    ``impulse_to_s``, ``impulse_to_velocity`` and
    ``impulse_to_displacement`` map the full impulse vector to its share
    of s, v_{k+1} and q_{k+1}.  A theta impulse enters the balance; an
    averaging impulse corrects the velocity by M^-1 G P and the
    displacement by half a step of that, and s responds through the
    balance.  ``delassus`` is G^T times the velocity map, restricted to
    the active set when the complementarity matrix is assembled; its
    G^T is the model's ``contact_rows``.

    The per-run coefficients, all derived here from the spec: the load
    weight ``alpha_c``, which is 1 - theta in the theta family, alpha_m
    for KH generalized-alpha (load and damping weighted like the inertia
    term) and alpha_f for Newmark, HHT and generalized-alpha (weighted
    like the stiffness term); ``filter_gain`` nu/(1/2 + nu) and
    ``filter_lag`` (1/2 - nu)/(1/2 + nu) of the averaging family's
    filters (zero in the theta family), with the filter constants
    nu = 1/2 - alpha_m and eta = alpha_f - alpha_m, which the
    coefficient row reads too; ``opening_coeff`` (1 - w)/w of the
    contact law of an opening contact, and ``opening_enters``,
    whether opening contacts join the active set at all (w > 0).

    The energy audit's coefficient row (see :mod:`nscontact.energy`):
    the work weight ``c``, the energy coefficients ``c_a`` and ``c_z``,
    the right side's ``k_v``, ``k_a``, ``k_q`` and ``k_z``, the filter
    work ``phi`` on the left (generalized-alpha) and ``filter_works``,
    the filter-work weight HHT's works absorb; unset weights are zero.
    ``condition`` says whether the scheme parameters meet the
    dissipation condition for every contact's restitution.  The audit
    multiplies C or K only when its map is not None.

    ``block`` is the contact stage's one memo entry: (active set, its
    Delassus block W, W^-1 or None when W is singular), replaced when
    the set changes.  The inverse is only a hint to Lemke's full-support
    exit, which verifies its answer, so a wrong entry costs pivots and
    never gives a wrong impulse.
    """

    model: LagrangianModel = field(repr=False)
    spec: SchemeSpec
    h: float
    damping_map: np.ndarray | None
    stiffness_map: np.ndarray | None
    load_map: np.ndarray
    minv_g: np.ndarray
    alpha_c: float
    alpha_f: float
    g: float
    b: float
    pred_v_a: float
    pred_q_a: float
    impulse_to_s: np.ndarray
    impulse_to_velocity: np.ndarray
    impulse_to_displacement: np.ndarray
    delassus: np.ndarray
    filter_gain: float
    filter_lag: float
    opening_coeff: float
    opening_enters: bool
    condition: bool
    c: float
    c_a: float = 0.0
    c_z: float = 0.0
    k_v: float = 0.0
    k_a: float = 0.0
    k_q: float = 0.0
    k_z: float = 0.0
    phi: float = 0.0
    filter_works: float = 0.0
    block: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def matches(self, model: LagrangianModel, spec: SchemeSpec, h: float) -> bool:
        # identity, not id(): holding the model keeps its id from being
        # reused by a different model while this cache is alive
        return self.model is model and self.spec == spec and self.h == h


def _flush_subnormals(out: np.ndarray) -> np.ndarray:
    # The inverse of a banded matrix decays away from its band, down to
    # subnormal entries, and a product with subnormal operands runs several
    # times slower (5x for a 200-mass bar).  Zeroing them changes a product
    # only where its result is itself near the smallest normal float.
    out[np.abs(out) < np.finfo(float).tiny] = 0.0
    return out


def _scaled_inverse(matrix: np.ndarray, scale: float) -> np.ndarray:
    """scale * matrix^-1, from the Cholesky factor that checks it is positive definite."""
    # numpy's cholesky passes inf and NaN through instead of raising
    if not np.isfinite(matrix).all():
        raise SingularIterationMatrix("iteration matrix is not finite")
    try:
        inv_chol = np.linalg.inv(np.linalg.cholesky(matrix))
    except np.linalg.LinAlgError as exc:
        raise SingularIterationMatrix(f"iteration matrix not factorizable: {exc}") from exc
    out = inv_chol.T @ inv_chol
    out *= scale
    return _flush_subnormals(out)


def build_cache(model: LagrangianModel, spec: SchemeSpec, h: float) -> IterationMatrixCache:
    M, C, K, G = model.mass, model.damping, model.stiffness, model.contact_jacobian
    minv_g = np.linalg.solve(M, G)
    w = spec.displacement_weight
    damped = bool(C.any())
    if spec.variant in THETA_FAMILY:
        th = spec.theta
        sigma, ac = h, 1.0 - th
        af, g, b = ac, 1.0, h * w
        pred_v_a = pred_q_a = 0.0
        # the impulse enters the balance and moves v and q only through s
        enters, direct_v, direct_q = 1.0, 0.0, 0.0
        gain = lag = 0.0
        # theta >= 1/2 and w <= 1/(1 + e) for every e; the bound is monotone
        # in e, so the largest coefficient decides.  The midpoint weight
        # w = 1/2 meets it for every e in [0, 1]
        condition = (th >= 0.5 - CONDITION_SLACK
                     and w <= 1.0 / (1.0 + model.restitution.max()) + CONDITION_SLACK)
        row = dict(c=th, k_v=0.5 - w, k_q=0.5 - th)
    else:
        am, af, gamma, beta = spec.alpha_m, spec.alpha_f, spec.gamma, spec.beta
        nu, eta = 0.5 - am, af - am
        # at alpha_m = alpha_f = 1/2 (spectral radius one) nu = eta = 0 and
        # the filter states stay zero; eta/nu's limit along the
        # spectral-radius family is 2/3
        ratio = eta / nu if nu != 0.0 else 2.0 / 3.0
        # KH weights load and damping like inertia, the others like stiffness
        kh = spec.variant is SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA
        sigma, ac = 1.0, am if kh else af
        # h * h, not h**2: a float ** raises OverflowError where * gives inf
        g, b = h * gamma / (1 - am), h * h * beta / (1 - am)
        pred_v_a, pred_q_a = h * (1 - gamma) - g * am, h * h * (0.5 - beta) - b * am
        enters, direct_v, direct_q = 0.0, 1.0, 0.5 * h
        # the midpoint filter rule; 1/2 + nu = 1 - alpha_m is positive
        gain, lag = nu / (0.5 + nu), (0.5 - nu) / (0.5 + nu)
        ga = spec.variant is SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA
        condition = 2 * beta >= gamma - CONDITION_SLACK and gamma >= 0.5 - CONDITION_SLACK
        if spec.variant is not SchemeVariant.NONSMOOTH_NEWMARK:
            condition = (condition and -CONDITION_SLACK <= eta <= gamma - 0.5 + CONDITION_SLACK
                         and gamma - 0.5 <= nu + CONDITION_SLACK)
        if ga:
            # the full averaging scheme only inherits the guarantee when the
            # load and velocity filter terms vanish: no damping, constant loading
            forcing = model.forcing
            constant = forcing.omega == 0.0 or not forcing.amplitude.any()
            condition = condition and not damped and constant
        accel = 2.0 * beta - gamma
        row = dict(c=gamma, c_a=0.25 * (h * h) * accel, k_q=eta + 0.5 - gamma,
                   # the filter state is identically zero for nu = 0
                   c_z=(0.0 if eta == 0.0 or nu == 0.0
                        else eta / (2.0 * nu**2) * (nu - (gamma - 0.5))),
                   k_a=-(0.5 * (h * h) * (gamma - 0.5) * accel),
                   k_z=0.0 if eta == 0.0 else ratio * (gamma - nu - 0.5),
                   phi=ratio if ga else 0.0,
                   filter_works=ratio if spec.variant is SchemeVariant.NONSMOOTH_HHT else 0.0)
    # an overflowing h leaves weights or entries non-finite (inf * 0 = nan),
    # which _scaled_inverse rejects; the warnings on the way would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = M + sigma * (1 - ac) * g * C + sigma * (1 - af) * b * K
        solve = _scaled_inverse(matrix, sigma)
    damping_map = _flush_subnormals(solve @ C) if damped else None
    stiffness_map = _flush_subnormals(solve @ K) if K.any() else None
    # impulse share of s: G P where the impulse enters the balance, less the
    # balance forces of its direct velocity and displacement corrections
    load = (1 - ac) * direct_v * C + (1 - af) * direct_q * K
    to_s = solve @ (enters / sigma * G - load @ minv_g)
    to_v = direct_v * minv_g + g * to_s
    to_q = direct_q * minv_g + b * to_s
    # no opening contact is in the set at w = 0, but (1 - 0) / 0 would raise
    opening = (1.0 - w) / w if w > 0.0 else 0.0
    return IterationMatrixCache(model, spec, h, damping_map, stiffness_map,
                                solve @ model.forcing.amplitude, minv_g, ac, af, g, b,
                                pred_v_a, pred_q_a, to_s, to_v, to_q,
                                model.contact_rows @ to_v,
                                gain, lag, opening, w > 0.0, bool(condition), **row)


def _solve_contact(cache, state, v_free):
    """The contact stage: forecast the active set, then solve the impact LCP on it.

    It works on contact-space (m-length) vectors: the state's contact
    image U_k = ``state.u`` and g(q_k) = ``state.g``, and the free
    velocities' image, one product with ``model.contact_rows``.  A
    contact enters the active set when its gap, forecast by one explicit
    step of the current velocity, g(q_k) + h U_k (equal to
    g(q_k + h v_k)), is nonpositive.  A closing
    contact (U_k <= ACTIVATION_TOL) takes the Newton law
    U_{k+1} + e U_k >= 0 _|_ P.  An opening one penetrates while it
    separates, and takes the weighted law
    U_w = (1 - w) U_k + w U_{k+1} >= 0 _|_ P with w the scheme's
    ``displacement_weight``, which makes its share of the energy
    identity's contact work U_w P zero: the same Delassus rows with the
    cache's ``opening_coeff`` (1 - w) / w in place of e.  With w = 0
    (Moreau-Jean at theta = 0) opening contacts stay out of the set.
    The Delassus block of the set and its inverse come from
    ``cache.block`` while the set is the one of the last solve, and
    replace it otherwise.  The solver is looked up in ``SOLVERS`` at
    call time; it returns a verified solution or raises ``LcpFailure``.
    Returns the impulse P and the active set.
    """
    model, u_prev = cache.model, state.u
    closing = u_prev <= ACTIVATION_TOL
    forecast = state.g + cache.h * u_prev <= 0.0
    idx = (forecast if cache.opening_enters else forecast & closing).nonzero()[0]
    act = tuple(idx.tolist())
    P = np.zeros(model.m)
    if act:
        memo = cache.block
        if memo is None or memo[0] != act:
            block = cache.delassus[np.ix_(idx, idx)]
            try:
                inverse = np.linalg.inv(block)
            except np.linalg.LinAlgError:
                inverse = None
            memo = cache.block = (act, block, inverse)
        _, block, inverse = memo
        coeff = np.where(closing, model.restitution, cache.opening_coeff)
        b = (model.contact_rows @ v_free + coeff * u_prev)[idx]
        P[idx] = SOLVERS["lemke"](LcpProblem(block, b, inverse)).z
    return P, act


def step(model, state, h, spec, *, cache=None, step_index=0):
    """Advance one step with the scheme ``spec`` names.

    Every scheme solves the one weighted balance of
    :class:`IterationMatrixCache` with the weights ``build_cache`` set
    for its family: a free step, then, when the active set is nonempty,
    the impulse tail v += V P, q += Q P.  The new state's contact image
    u = G^T v_{k+1} and g = G^T q_{k+1} + w is formed once, after the
    tail, by ``model.contact_image``; the record's ``U_prev`` and
    ``U_next`` are the two states' ``u`` and its penetration is read off
    the new ``g``.  Theta schemes
    carry ``a`` and the filters over from the start state; averaging
    steps add the impulse share S P to s, recover
    a_{k+1} = (s - alpha_m a_k) / (1 - alpha_m) and advance the
    filters.  Every load takes one path: its signal is evaluated at t_k
    and t_{k+1}, and the load term is the cache's ``load_map`` times
    their mix, so a step never forms F(t).

    The three filters z, x, y relax toward the displacement, velocity
    and load increments by the midpoint rule on the time scale nu*h,
    (1/2 + nu) s_{k+1} + (1/2 - nu) s_k = nu * increment, solved as
    s_{k+1} = gain * increment - lag * s_k with the cache's
    ``filter_gain`` nu/(1/2 + nu) and ``filter_lag`` (1/2 - nu)/(1/2 + nu);
    the load's increment enters as amplitude * (gain * d signal), with
    the gain on the scalar.  For nu = 1/2 the lag is zero and
    s_{k+1} = increment / 2; for nu = 0 the gain is zero and a
    zero-started filter stays at zero.
    """
    if cache is None or not cache.matches(model, spec, h):
        cache = build_cache(model, spec, h)
    ac, af = cache.alpha_c, cache.alpha_f
    t0, forcing = state.t, model.forcing
    sig0, sig1 = forcing.signal(t0), forcing.signal(t0 + h)
    s = cache.load_map * ((1 - ac) * sig1 + ac * sig0)

    # theta predictors carry no ``a`` terms: their weights are zero
    pred_v = state.v + cache.pred_v_a * state.a if cache.pred_v_a else state.v
    pred_q = state.q + h * state.v
    if cache.pred_q_a:
        pred_q += cache.pred_q_a * state.a
    if cache.damping_map is not None:
        s -= cache.damping_map @ ((1 - ac) * pred_v + ac * state.v)
    if cache.stiffness_map is not None:
        s -= cache.stiffness_map @ ((1 - af) * pred_q + af * state.q)
    v1 = pred_v + cache.g * s
    q1 = pred_q + cache.b * s

    P, act = _solve_contact(cache, state, v1)
    if act:
        v1 += cache.impulse_to_velocity @ P
        q1 += cache.impulse_to_displacement @ P
    u1, g1 = model.contact_image(q1, v1)
    # a_tilde, f_prev and v_prev are never advanced; a theta step carries
    # a and the filters over as well
    new_state = SystemState(t=t0 + h, q=q1, v=v1, u=u1, g=g1, a=state.a, a_tilde=state.a_tilde,
                            z=state.z, x=state.x, y=state.y, f_prev=state.f_prev,
                            v_prev=state.v_prev)
    if spec.variant not in THETA_FAMILY:
        if act:
            s += cache.impulse_to_s @ P
        gain, lag = cache.filter_gain, cache.filter_lag
        new_state.a = (s - spec.alpha_m * state.a) / (1 - spec.alpha_m)
        new_state.z = gain * (q1 - state.q) - lag * state.z
        new_state.x = gain * (v1 - state.v) - lag * state.x
        new_state.y = forcing.amplitude * (gain * (sig1 - sig0)) - lag * state.y

    pen = float(max(0.0, -new_state.g.min(initial=0.0)))
    return new_state, StepRecord(step_index=step_index, state_prev=state,
                                 state_next=new_state, P=P, U_prev=state.u,
                                 U_next=new_state.u, w_corr=cache.minv_g @ P,
                                 active_set=act, penetration=pen)


def simulate(model, initial_state, h, spec, t_end, *, audit=True,
             audit_tol=energy_audit.DEFAULT_AUDIT_TOL) -> list[StepRecord]:
    """Run fixed steps from the initial state until t_end.

    Each record carries the step dynamics; with ``audit=True`` its
    ``report`` holds the energy audit (works, energies, identity
    residual, dissipation flags).  One cache from ``build_cache``,
    built before the first step, serves every step and every audit.
    Identical inputs produce bitwise-identical trajectories.

    Raises:
        SingularIterationMatrix: unwrapped, before the first step, from
            ``build_cache``, when the iteration matrix is not positive
            definite or an overflowing h leaves it non-finite.
        SimulationError: ``step_index = -1`` when h is not positive and
            finite, too small to tell t_end - h from t_end or t0 + h
            from t0, or the step count (t_end - t0) / h is not finite,
            and when the initial state's contact image ``u``, ``g`` is
            not bit for bit G^T v and G^T q + w of ``model`` (a state
            made for another model, or one whose q or v was edited in
            place); otherwise wraps any step failure, an ``LcpFailure`` or a
            step whose new displacement or velocity is not finite
            included, with its step index.
    """
    if not 0.0 < h < math.inf:
        raise SimulationError("step size must be positive and finite", step_index=-1)
    if t_end - h == t_end or initial_state.t + h == initial_state.t:
        raise SimulationError(f"step size {h!r} is below the resolution of the time grid "
                              f"[{initial_state.t!r}, {t_end!r}]", step_index=-1)
    span = (t_end - initial_state.t) / h
    if not math.isfinite(span):
        raise SimulationError(f"the step count (t_end - t0) / h = {span} is not finite",
                              step_index=-1)
    n_steps = int(np.floor(span + 1e-9))
    records: list[StepRecord] = []
    state = initial_state
    cache = build_cache(model, spec, h)
    if not (state.q.shape == state.v.shape == (model.n,)
            and all(map(np.array_equal, (state.u, state.g),
                        model.contact_image(state.q, state.v)))):
        raise SimulationError("the initial state's contact image (u, g) is not G^T v and "
                              "G^T q + w of this model; make the state with "
                              "initial_state(model, q, v, t)", step_index=-1)
    # an overflowing step is reported by the finiteness check below (and a
    # NaN residual fails the audit gate), so numpy's warnings would only
    # repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            try:
                state, record = step(model, state, h, spec, cache=cache, step_index=k)
                if not (np.isfinite(state.q).all() and np.isfinite(state.v).all()):
                    raise FloatingPointError("the new displacement or velocity is not finite")
                if audit:
                    # tol by keyword: perfbench's audit hook reads it from there
                    record.report = energy_audit.audit_step(cache, record, tol=audit_tol)
            except SimulationError:
                raise
            except Exception as exc:
                raise SimulationError(f"step {k} (t={initial_state.t + k * h:g}) failed: "
                                      f"{exc}", step_index=k) from exc
            records.append(record)
    return records
