"""One-step maps for the event-capturing contact schemes.

Every scheme solves one weighted balance (see
:class:`IterationMatrixCache`); the two families differ only in the
per-run weights ``build_cache`` sets.  A step eliminates the smooth
unknowns onto the contact impulses through a factorized iteration
matrix, then runs one contact stage (``_solve_contact``): it forecasts
the active contact set and, when the set is nonempty, solves the
complementarity problem on it.  Lemke's method, looked up in
``lcp.SOLVERS`` (where tests swap in the enumeration oracle), returns
z = 0 at once when the free velocities already satisfy the impact law,
tries the point where every forecast contact carries an impulse (one
linear solve) next, and pivots only when that fails its check; it
returns a verified solution or raises ``LcpFailure``.  Impulses
(not forces) are the contact unknowns, so the steps stay consistent
when an impact happens inside the step.

The iteration matrix M + c_C C + c_K K has nonnegative weights c_C and
c_K that grow with h.  It is positive definite as long as M outweighs
the negative eigenvalues the model validator lets through in C and K:
semi-definite there means down to ``model.EIGENVALUE_RTOL`` times the
largest eigenvalue, so a mass that is tiny in some direction can lose
against that floor at a large h, and ``build_cache`` then raises
``SingularIterationMatrix``, as it does when an overflowing h leaves
the matrix or its weights non-finite.  The cache built per (model,
scheme, h), and rebuilt whenever any of them changes, holds L^-1 for
the lower Cholesky factor L of the matrix; every solve applies
L^-T (L^-1 x).
A step never mutates its input state; trajectories are bitwise
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
    StepRecord,
    SystemState,
    gap,
    local_velocity,
)

# A forecast contact with U_k at most this is closing and takes the
# Newton law (resting contacts sit at numerical zero); above it, it is
# opening and takes the weighted law of ``_solve_contact``.
ACTIVATION_TOL = 1e-12


@dataclass
class IterationMatrixCache:
    """Inverse iteration-matrix factor and step weights, valid for one (model, spec, h).

    Both families solve one weighted balance for an unknown s,

        M s = sigma [(1 - alpha_c)(F_{k+1} - C v_{k+1}) + alpha_c (F_k - C v_k)
                     - (1 - alpha_f) K q_{k+1} - alpha_f K q_k]

    with v_{k+1} = pred_v + g s, q_{k+1} = pred_q + b s,
    pred_v = v_k + pred_v_a a_k and pred_q = q_k + h v_k + pred_q_a a_k.
    The theta family has s = dv, sigma = h, alpha_c = alpha_f = 1 - theta,
    g = 1, b = h w and no ``a`` terms; the averaging family has
    s = (1 - alpha_m) a_{k+1} + alpha_m a_k, sigma = 1 and the gains
    g = h gamma / (1 - alpha_m), b = h^2 beta / (1 - alpha_m).

    ``impulse_to_s``, ``impulse_to_velocity`` and
    ``impulse_to_displacement`` map the full impulse vector to its share
    of s, v_{k+1} and q_{k+1}.  A theta impulse enters the balance; an
    averaging impulse corrects the velocity by M^-1 G P and the
    displacement by half a step of that, and s responds through the
    balance.  ``delassus`` is G^T times the velocity map, restricted to
    the active set when the complementarity matrix is assembled.
    ``inv_chol`` is L^-1 for the iteration matrix A = L L^T, so
    A^-1 x = L^-T (L^-1 x).
    """

    model: LagrangianModel = field(repr=False)
    spec: SchemeSpec
    h: float
    inv_chol: np.ndarray
    minv_g: np.ndarray
    sigma: float
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

    def matches(self, model: LagrangianModel, spec: SchemeSpec, h: float) -> bool:
        # identity, not id(): holding the model keeps its id from being
        # reused by a different model while this cache is alive
        return self.model is model and self.spec == spec and self.h == h


def _factor(matrix: np.ndarray) -> np.ndarray:
    """L^-1 for the lower Cholesky factor L of ``matrix``."""
    # numpy's cholesky passes inf and NaN through instead of raising
    if not np.isfinite(matrix).all():
        raise SingularIterationMatrix("iteration matrix is not finite")
    try:
        return np.linalg.inv(np.linalg.cholesky(matrix))
    except np.linalg.LinAlgError as exc:
        raise SingularIterationMatrix(f"iteration matrix not factorizable: {exc}") from exc


def build_cache(model: LagrangianModel, spec: SchemeSpec, h: float) -> IterationMatrixCache:
    M, C, K, G = model.mass, model.damping, model.stiffness, model.contact_jacobian
    minv_g = model.solve_mass(G)
    if spec.variant in THETA_FAMILY:
        sigma, ac = h, 1.0 - spec.theta
        af, g, b = ac, 1.0, h * spec.displacement_weight
        pred_v_a = pred_q_a = 0.0
        # the impulse enters the balance and moves v and q only through s
        enters, direct_v, direct_q = 1.0, 0.0, 0.0
    else:
        am, gamma, beta = spec.alpha_m, spec.gamma, spec.beta
        sigma, ac, af = 1.0, spec.load_weight, spec.alpha_f
        # h * h, not h**2: a float ** raises OverflowError where * gives inf
        g, b = h * gamma / (1 - am), h * h * beta / (1 - am)
        pred_v_a, pred_q_a = h * (1 - gamma) - g * am, h * h * (0.5 - beta) - b * am
        enters, direct_v, direct_q = 0.0, 1.0, 0.5 * h
    # an overflowing h leaves weights or entries non-finite (inf * 0 = nan),
    # which _factor rejects; the warnings on the way would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = M + sigma * (1 - ac) * g * C + sigma * (1 - af) * b * K
    inv_chol = _factor(matrix)
    # impulse share of s: G P where the impulse enters the balance, less the
    # balance forces of its direct velocity and displacement corrections
    load = sigma * (1 - ac) * direct_v * C + sigma * (1 - af) * direct_q * K
    to_s = inv_chol.T @ (inv_chol @ (enters * G - load @ minv_g))
    to_v = direct_v * minv_g + g * to_s
    to_q = direct_q * minv_g + b * to_s
    return IterationMatrixCache(model, spec, h, inv_chol, minv_g, sigma, ac, af, g, b,
                                pred_v_a, pred_q_a, to_s, to_v, to_q, G.T @ to_v)


def _solve_contact(model, state, h, cache, v_free):
    """The contact stage: forecast the active set, then solve the impact LCP on it.

    A contact enters the active set when its gap, forecast by one
    explicit step of the current velocity, g(q_k + h v_k), is
    nonpositive.  A closing contact (U_k <= ACTIVATION_TOL) takes the
    Newton law U_{k+1} + e U_k >= 0 _|_ P.  An opening one penetrates
    while it separates, and takes the weighted law
    U_w = (1 - w) U_k + w U_{k+1} >= 0 _|_ P with w the scheme's
    ``displacement_weight``, which makes its share of the energy
    identity's contact work U_w P zero: the same Delassus rows with
    (1 - w) / w in place of e.  With w = 0 (Moreau-Jean at theta = 0)
    opening contacts stay out of the set.  The solver is looked up in
    ``SOLVERS`` at call time; it returns a verified solution or raises
    ``LcpFailure``.  Returns the impulse P, the active set and U_k.
    """
    u_prev = local_velocity(model, state.v)
    w = cache.spec.displacement_weight
    closing = u_prev <= ACTIVATION_TOL
    forecast = gap(model, state.q + h * state.v) <= 0.0
    idx = np.flatnonzero(forecast if w > 0.0 else forecast & closing)
    P = np.zeros(model.m)
    if idx.size:
        # no opening contact is in the set at w = 0, but (1 - 0) / 0 would raise
        coeff = np.where(closing, model.restitution, (1.0 - w) / w if w > 0.0 else 0.0)
        b = local_velocity(model, v_free)[idx] + coeff[idx] * u_prev[idx]
        P[idx] = SOLVERS["lemke"](LcpProblem(cache.delassus[np.ix_(idx, idx)], b)).z
    return P, tuple(idx.tolist()), u_prev


def step(model, state, h, spec, *, cache=None, step_index=0):
    """Advance one step with the scheme ``spec`` names.

    Every scheme solves the one weighted balance of
    :class:`IterationMatrixCache` with the weights ``build_cache`` set
    for its family: a free step, then, when the active set is nonempty,
    the impulse tail v += V P, q += Q P, s += S P.  Theta schemes carry
    ``a`` and the filters over from the start state; averaging steps
    recover a_{k+1} = (s - alpha_m a_k) / (1 - alpha_m) and advance the
    filters.
    """
    if cache is None or not cache.matches(model, spec, h):
        cache = build_cache(model, spec, h)
    C, K = model.damping, model.stiffness
    ac, af = cache.alpha_c, cache.alpha_f
    t0 = state.t
    f_k = model.force(t0)
    f_k1 = model.force(t0 + h)

    pred_v = state.v + cache.pred_v_a * state.a
    pred_q = state.q + h * state.v + cache.pred_q_a * state.a
    rhs = cache.sigma * ((1 - ac) * f_k1 + ac * f_k
                         - C @ ((1 - ac) * pred_v + ac * state.v)
                         - K @ ((1 - af) * pred_q + af * state.q))
    s = cache.inv_chol.T @ (cache.inv_chol @ rhs)
    v1 = pred_v + cache.g * s
    q1 = pred_q + cache.b * s

    P, act, u_prev = _solve_contact(model, state, h, cache, v1)
    if act:
        v1 += cache.impulse_to_velocity @ P
        q1 += cache.impulse_to_displacement @ P
        s += cache.impulse_to_s @ P
    # a_tilde, f_prev and v_prev are never advanced; a theta step carries
    # a and the filters over as well
    new_state = SystemState(t=t0 + h, q=q1, v=v1, a=state.a, a_tilde=state.a_tilde,
                            z=state.z, x=state.x, y=state.y,
                            f_prev=state.f_prev, v_prev=state.v_prev)
    if spec.variant not in THETA_FAMILY:
        new_state.a = (s - spec.alpha_m * state.a) / (1 - spec.alpha_m)
        new_state.z, new_state.x, new_state.y = energy_audit.advance_filters(
            spec, state, new_state, f_k1 - f_k)

    pen = float(max(0.0, -gap(model, q1).min(initial=0.0)))
    return new_state, StepRecord(step_index=step_index, state_prev=state,
                                 state_next=new_state, P=P, U_prev=u_prev,
                                 U_next=local_velocity(model, v1), w_corr=cache.minv_g @ P,
                                 active_set=act, penetration=pen)


def simulate(model, initial_state, h, spec, t_end, *, audit=True,
             audit_tol=energy_audit.DEFAULT_AUDIT_TOL) -> list[StepRecord]:
    """Run fixed steps from the initial state until t_end.

    Each record carries the step dynamics; with ``audit=True`` its
    ``report`` holds the energy audit (works, energies, identity
    residual, dissipation flags).  Identical inputs produce
    bitwise-identical trajectories.

    Raises:
        SimulationError: ``step_index = -1`` when h is not positive and
            finite, too small to tell t_end - h from t_end or t0 + h
            from t0, or the step count (t_end - t0) / h is not finite;
            otherwise wraps any step failure, an ``LcpFailure`` or a
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
    constants = energy_audit.audit_constants(model, spec, h) if audit else None
    prev_energies = None
    for k in range(n_steps):
        try:
            state, record = step(model, state, h, spec, cache=cache, step_index=k)
            if not (np.isfinite(state.q).all() and np.isfinite(state.v).all()):
                raise FloatingPointError("the new displacement or velocity is not finite")
            if audit:
                record.report = report = energy_audit.audit_step(
                    model, spec, h, record, tol=audit_tol, constants=constants,
                    prev_energies=prev_energies)
                prev_energies = (report.E, report.H_alg)
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(f"step {k} (t={initial_state.t + k * h:g}) failed: {exc}",
                                  step_index=k) from exc
        records.append(record)
    return records
