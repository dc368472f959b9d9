"""One-step maps for the event-capturing contact schemes.

All schemes share the same skeleton: eliminate the smooth unknowns onto
the contact impulses through a factorized iteration matrix, forecast the
active contact set, try the free-flight step first, and only assemble
and solve the complementarity problem when the free velocities violate
the impact law.  Impulses (not forces) are the contact unknowns, so the
steps stay consistent when an impact happens inside the step.

The iteration matrices are positive definite for every step size h > 0
because the model validator guarantees a positive definite mass matrix
and positive semi-definite damping and stiffness; the Cholesky factor is
cached per (model, scheme, h) and rebuilt whenever any of them changes.
A step never mutates its input state; trajectories are bitwise
reproducible for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import energy as energy_audit
from .errors import (
    LcpFailure,
    NonFiniteValue,
    SimulationError,
    SingularIterationMatrix,
)
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

# Contacts count as non-separating when U_k is below this; admits
# resting contacts sitting at numerical zero.
ACTIVATION_TOL = 1e-12


def active_set(model: LagrangianModel, state: SystemState, h: float) -> tuple[int, ...]:
    """Contacts forecast to close within the step with non-separating velocity.

    The forecast moves the gap by one explicit step of the current
    velocity; a contact enters the set when that forecast gap is
    nonpositive and the contact is not already separating.
    """
    forecast = gap(model, state.q + h * state.v)
    u = local_velocity(model, state.v)
    return tuple(int(a) for a in range(model.m)
                 if forecast[a] <= 0.0 and u[a] <= ACTIVATION_TOL)


@dataclass
class IterationMatrixCache:
    """Factorized per-step linear algebra, valid for one (model, spec, h).

    ``impulse_to_velocity`` maps the full impulse vector to the velocity
    change it induces, and ``delassus`` is its contact-space restriction
    G^T V used to assemble the complementarity matrix on the active set.
    ``coupling`` carries the impulse influence on the acceleration-type
    unknown of the averaging schemes (zero columns for the theta schemes,
    where the velocity is the only eliminated unknown).
    """

    model: LagrangianModel = field(repr=False)
    spec: SchemeSpec
    h: float
    iter_cho: tuple
    minv_g: np.ndarray
    impulse_to_velocity: np.ndarray
    delassus: np.ndarray
    coupling: np.ndarray

    def matches(self, model: LagrangianModel, spec: SchemeSpec, h: float) -> bool:
        # identity, not id(): holding the model keeps its id from being
        # reused by a different model while this cache is alive
        return self.model is model and self.spec == spec and self.h == h


def _factor(matrix: np.ndarray) -> tuple:
    try:
        factor = cho_factor(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularIterationMatrix(f"iteration matrix not factorizable: {exc}") from exc
    return factor


def _gains(spec: SchemeSpec, h: float) -> tuple[float, float]:
    """Velocity and displacement gains g, b of the averaging unknown s."""
    return h * spec.gamma / (1 - spec.alpha_m), h**2 * spec.beta / (1 - spec.alpha_m)


def build_cache(model: LagrangianModel, spec: SchemeSpec, h: float) -> IterationMatrixCache:
    M, C, K, G = model.mass, model.damping, model.stiffness, model.contact_jacobian
    minv_g = model.solve_mass(G)
    if spec.variant in THETA_FAMILY:
        th = spec.theta
        iter_cho = _factor(M + h * th * C + h**2 * (th * spec.displacement_weight) * K)
        impulse_to_velocity = cho_solve(iter_cho, G)
        coupling = np.zeros_like(G)
    else:
        ac, af = spec.load_weight, spec.alpha_f
        g, b = _gains(spec, h)
        iter_cho = _factor(M + (1 - ac) * g * C + (1 - af) * b * K)
        load = (1 - ac) * C + (1 - af) * (h / 2) * K
        coupling = cho_solve(iter_cho, load @ minv_g)
        impulse_to_velocity = minv_g - g * coupling
    delassus = G.T @ impulse_to_velocity
    return IterationMatrixCache(model, spec, h, iter_cho, minv_g,
                                impulse_to_velocity, delassus, coupling)


def _solve_contact(model, state, h, cache, v_free, lcp_solver, lcp_tol):
    """Free flight first; assemble the LCP only when the impact law is violated.

    Accepting the free step when the free local velocities are feasible
    is exact, not an approximation: zero impulse solves that LCP, so the
    outcome is bitwise identical to always solving it.
    """
    m = model.m
    u_prev = local_velocity(model, state.v)
    act = active_set(model, state, h)
    P = np.zeros(m)
    if act:
        idx = list(act)
        b = (model.contact_jacobian.T @ v_free)[idx] + model.restitution[idx] * u_prev[idx]
        if b.min() < 0.0:
            problem = LcpProblem(cache.delassus[np.ix_(idx, idx)], b)
            solution = SOLVERS[lcp_solver](problem, lcp_tol)
            if not solution.solved:
                raise LcpFailure(
                    f"contact subproblem not solved at t={state.t:g}: "
                    f"status={solution.status.value}, residual={solution.residual:.3e}")
            P[idx] = solution.z
    return P, act, u_prev


def step(model, state, h, spec, *, cache=None, lcp_solver="lemke", lcp_tol=1e-10,
         step_index=0):
    """Advance one step with the scheme ``spec`` names.

    The theta family eliminates the end velocity: the velocity balance
    and both force-like terms are weighted between the step endpoints by
    theta, and the displacement follows the velocity weighted by
    ``spec.displacement_weight`` (theta for Moreau-Jean, 1/2 for the
    midpoint variant).  The averaging family (Newmark, HHT,
    generalized-alpha and KH) solves one generalized-alpha balance for
    s = (1 - alpha_m) a_{k+1} + alpha_m a_k:

        M s = (1 - alpha_c)(F_{k+1} - C v_{k+1}) + alpha_c (F_k - C v_k)
              - (1 - alpha_f) K q_{k+1} - alpha_f K q_k

    with alpha_c = ``spec.load_weight``; the variants differ only in
    their weights.  The velocity and displacement follow s with the
    gains h gamma / (1 - alpha_m) and h^2 beta / (1 - alpha_m).  In the
    averaging family the contact impulse corrects the velocity directly
    and the displacement with half a step's worth of that correction.
    """
    if cache is None or not cache.matches(model, spec, h):
        cache = build_cache(model, spec, h)
    M, C, K = model.mass, model.damping, model.stiffness
    theta_family = spec.variant in THETA_FAMILY
    t0 = state.t
    f_k = model.force(t0)
    f_k1 = model.force(t0 + h)

    if theta_family:
        th, w = spec.theta, spec.displacement_weight
        rhs = (M @ state.v - h * K @ (state.q + h * th * (1 - w) * state.v)
               - h * (1 - th) * C @ state.v + h * ((1 - th) * f_k + th * f_k1))
        v_free = cho_solve(cache.iter_cho, rhs, check_finite=False)
    else:
        am, af, ac = spec.alpha_m, spec.alpha_f, spec.load_weight
        gamma, beta = spec.gamma, spec.beta
        g, b = _gains(spec, h)
        # v_{k+1} = pred_v + g s and q_{k+1} = pred_q + b s before the impulse
        pred_v = state.v + (h * (1 - gamma) - g * am) * state.a
        pred_q = state.q + h * state.v + (h**2 * (0.5 - beta) - b * am) * state.a
        rhs = ((1 - ac) * f_k1 + ac * f_k - C @ ((1 - ac) * pred_v + ac * state.v)
               - K @ ((1 - af) * pred_q + af * state.q))
        s_free = cho_solve(cache.iter_cho, rhs, check_finite=False)
        v_free = pred_v + g * s_free

    P, act, u_prev = _solve_contact(model, state, h, cache, v_free, lcp_solver, lcp_tol)
    w_corr = cache.minv_g @ P
    if theta_family:
        v1 = v_free + cache.impulse_to_velocity @ P
        q1 = state.q + h * ((1 - w) * state.v + w * v1)
        a1 = state.a
    else:
        s = s_free - cache.coupling @ P
        a1 = (s - am * state.a) / (1 - am)
        v1 = pred_v + g * s + w_corr
        q1 = pred_q + b * s + 0.5 * h * w_corr
    # a_tilde, f_prev and v_prev are never advanced; a theta step carries
    # a and the filters over as well
    new_state = SystemState(t=t0 + h, q=q1, v=v1, a=a1, a_tilde=state.a_tilde,
                            z=state.z, x=state.x, y=state.y,
                            f_prev=state.f_prev, v_prev=state.v_prev)
    if not theta_family:
        new_state.z, new_state.x, new_state.y = energy_audit.advance_filters(
            spec, state, new_state, f_k1 - f_k)

    pen = float(max(0.0, -gap(model, q1).min(initial=0.0)))
    return new_state, StepRecord(step_index=step_index, state_prev=state,
                                 state_next=new_state, P=P, U_prev=u_prev,
                                 U_next=local_velocity(model, v1), w_corr=w_corr,
                                 active_set=act, penetration=pen)


def simulate(model, initial_state, h, spec, t_end, *, audit=True, audit_tol=1e-10,
             lcp_solver="lemke", lcp_tol=1e-10) -> list[StepRecord]:
    """Run fixed steps from the initial state until t_end.

    Each record carries the step dynamics; with ``audit=True`` its
    ``report`` holds the energy audit (works, energies, identity
    residual, dissipation flags).  Identical inputs produce
    bitwise-identical trajectories.

    Raises:
        SimulationError: wraps any step failure with its step index,
            including a step whose new displacement or velocity is not
            finite.
    """
    if h <= 0.0:
        raise SimulationError("step size must be positive", step_index=-1)
    n_steps = int(np.floor((t_end - initial_state.t) / h + 1e-9))
    records: list[StepRecord] = []
    state = initial_state
    cache = build_cache(model, spec, h)
    constants = energy_audit.audit_constants(model, spec, h) if audit else None
    prev_energies = None
    for k in range(n_steps):
        try:
            state, record = step(model, state, h, spec, cache=cache,
                                 lcp_solver=lcp_solver, lcp_tol=lcp_tol, step_index=k)
            if not (np.isfinite(state.q).all() and np.isfinite(state.v).all()):
                raise NonFiniteValue("the new displacement or velocity is not finite")
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
