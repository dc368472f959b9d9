"""Per-step energy audit: works, algorithmic energies, exact identities.

Each scheme satisfies an exact algebraic identity linking the change of
a (possibly augmented) energy to its discrete works and a contact term.
Because the identities are exact in exact arithmetic, their numerical
residual on a correctly implemented step is pure roundoff; the audit
therefore doubles as the primary correctness oracle for the integrators.

For the theta-schemes the audited energy is the total mechanical energy
E = (1/2) v^T M v + (1/2) q^T K q.  The averaging family instead tracks
an algorithmic energy H that augments E with an acceleration term and,
for the schemes with nonzero averaging shift, a quadratic form of the
displacement-increment filter state.  The filter states evolve by a
midpoint rule whose time scale is nu*h with nu = 1/2 - alpha_m.

Sign conventions: external work enters positively, damping work is
nonpositive for positive semi-definite damping, and the contact term is
provably nonpositive for the averaging family (half weighting).  A
dissipation check therefore asserts dE (or dH) - W_ext - W_damping <= 0
whenever the scheme parameters satisfy the relevant conditions.

All functions are pure over immutable inputs and safe to call
concurrently across steps and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotApplicable
from .model import (
    THETA_FAMILY,
    LagrangianModel,
    SchemeSpec,
    SchemeVariant,
    StepRecord,
    SystemState,
)

DEFAULT_AUDIT_TOL = 1e-10


@dataclass(frozen=True)
class EnergyReport:
    """Audit result for one step.

    ``E_prev``/``H_prev`` and ``E``/``H_alg`` are the energies at the
    step start and end; the identity relates their change to the works
    and the contact term.  For the theta-schemes H equals E.

    ``condition_satisfied`` reports the per-contact parameter condition
    of the scheme's dissipation statement; ``condition_satisfied_max_e``
    evaluates the same bound through the worst restitution coefficient
    only.  Quantified over every contact the two are equivalent; both
    are reported for transparency.
    """

    E_prev: float
    H_prev: float
    E: float
    H_alg: float
    W_ext: float
    W_damping: float
    W_contact_step: float
    W_impact_style: float
    identity_residual: float
    residual_scale: float
    energy_gain: float
    dissipation_satisfied: bool
    condition_satisfied: bool
    condition_satisfied_max_e: bool

    def identity_ok(self, tol: float = DEFAULT_AUDIT_TOL) -> bool:
        """Whether |residual| <= tol * residual_scale; a NaN or infinite residual fails."""
        r = self.identity_residual
        return math.isfinite(r) and abs(r) <= tol * self.residual_scale


class AuditConstants(NamedTuple):
    """Audit quantities fixed by (model, spec, h), computed once per run."""

    condition: bool
    condition_max_e: bool
    accel_coeff: float     # weight of a^T M a in H
    filter_coeff: float    # weight of z^T K z in H


def _h_weights(spec: SchemeSpec, h: float) -> tuple[float, float]:
    """Weights of a^T M a and z^T K z in H.

    The z weight is zero whenever eta or nu vanishes (the filter state
    is identically zero for nu = 0, so nothing is lost).
    """
    nu, eta = spec.nu, spec.eta
    accel = 0.25 * h**2 * (2.0 * spec.beta - spec.gamma)
    if eta == 0.0 or nu == 0.0:
        return accel, 0.0
    return accel, eta / (2.0 * nu**2) * (nu - (spec.gamma - 0.5))


def audit_constants(model: LagrangianModel, spec: SchemeSpec, h: float) -> AuditConstants:
    """Parameter conditions and energy weights shared by every step of a run."""
    cond, cond_max = _parameter_conditions(model, spec)
    if spec.variant in THETA_FAMILY:
        return AuditConstants(cond, cond_max, 0.0, 0.0)
    return AuditConstants(cond, cond_max, *_h_weights(spec, h))


def _energy(model: LagrangianModel, q: np.ndarray, v: np.ndarray) -> float:
    return 0.5 * float(v @ model.mass @ v) + 0.5 * float(q @ model.stiffness @ q)


def _algorithmic(model: LagrangianModel, state: SystemState, energy: float,
                 accel_coeff: float, filter_coeff: float) -> float:
    value = energy + accel_coeff * float(state.a @ model.mass @ state.a)
    if filter_coeff != 0.0:
        value += filter_coeff * float(state.z @ model.stiffness @ state.z)
    return value


def total_energy(model: LagrangianModel, q, v) -> float:
    """Total mechanical energy (1/2) v^T M v + (1/2) q^T K q.

    Constant external forces (gravity included) are not folded into a
    potential, so E is not conserved in free flight; the audit tracks
    dE = W_ext instead.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    if q.shape != (model.n,) or v.shape != (model.n,):
        raise DimensionMismatch(f"q, v must have length {model.n}")
    return _energy(model, q, v)


def algorithmic_energy(model: LagrangianModel, state: SystemState,
                       spec: SchemeSpec, h: float) -> float:
    """Energy functional the averaging schemes provably dissipate.

    H = E + (h^2/4)(2 beta - gamma) a^T M a + c_z z^T K z, with the
    filter term dropped when the averaging shift vanishes (Newmark) and
    the acceleration term alone remaining in that case.

    Raises:
        NotApplicable: theta-schemes have no H; use total_energy.
    """
    if spec.variant in THETA_FAMILY:
        raise NotApplicable("theta-schemes track the total mechanical energy only")
    return _algorithmic(model, state, total_energy(model, state.q, state.v),
                        *_h_weights(spec, h))


def update_filters(model: LagrangianModel, state_prev: SystemState,
                   state_next: SystemState, h: float, spec: SchemeSpec):
    """Advance the three first-order filter states by one midpoint step.

    Each filter relaxes toward the increment of its driving signal
    (displacement, velocity, load) on the time scale nu*h:

        (1/2 + nu) s_next + (1/2 - nu) s_prev = nu * (signal increment)

    For nu = 1/2 this collapses to 2 s_next = increment, and for nu = 0
    a zero-started filter stays at zero.
    """
    if spec.variant in THETA_FAMILY:
        raise NotApplicable("filters exist only for the averaging schemes")
    nu = spec.nu
    denom = 0.5 + nu
    dq = state_next.q - state_prev.q
    dv = state_next.v - state_prev.v
    df = model.force(state_next.t) - model.force(state_prev.t)
    z = (nu * dq - (0.5 - nu) * state_prev.z) / denom
    x = (nu * dv - (0.5 - nu) * state_prev.x) / denom
    y = (nu * df - (0.5 - nu) * state_prev.y) / denom
    return z, x, y


def _gamma_mix(prev: np.ndarray, next_: np.ndarray, gamma: float) -> np.ndarray:
    return gamma * next_ + (1.0 - gamma) * prev


def _works(model: LagrangianModel, spec: SchemeSpec, h: float, sp: SystemState,
           sn: SystemState, f_k: np.ndarray, f_k1: np.ndarray,
           dq: np.ndarray) -> tuple[float, float]:
    C = model.damping
    v = spec.variant
    if v is SchemeVariant.MOREAU_JEAN:
        th = spec.theta
        v_th = (1 - th) * sp.v + th * sn.v
        f_th = (1 - th) * f_k + th * f_k1
        return h * float(v_th @ f_th), -h * float(v_th @ C @ v_th)
    if v is SchemeVariant.MOREAU_JEAN_VARIANT:
        th = spec.theta
        v_th = (1 - th) * sp.v + th * sn.v
        f_th = (1 - th) * f_k + th * f_k1
        return float(dq @ f_th), -float(dq @ C @ v_th)
    gamma = spec.gamma
    f_mix = _gamma_mix(f_k, f_k1, gamma)
    v_mix = _gamma_mix(sp.v, sn.v, gamma)
    if v is SchemeVariant.NONSMOOTH_HHT:
        alpha = spec.alpha_f
        f_mix_prev = _gamma_mix(sp.f_prev, f_k, gamma)
        v_mix_prev = _gamma_mix(sp.v_prev, sp.v, gamma)
        w_ext = float(dq @ ((1 - alpha) * f_mix + alpha * f_mix_prev))
        w_damp = -float(dq @ C @ ((1 - alpha) * v_mix + alpha * v_mix_prev))
        return w_ext, w_damp
    return float(dq @ f_mix), -float(dq @ C @ v_mix)


def discrete_works(model: LagrangianModel, record: StepRecord,
                   spec: SchemeSpec, h: float) -> tuple[float, float]:
    """Scheme-consistent external and damping works over one step.

    Theta scheme: h v_{k+theta}^T F_{k+theta} and the matching damping
    quadrature.  Averaging family: increment-weighted works with the
    gamma mix of endpoint values; the HHT variant additionally averages
    the current and previous mixes with weights (1-alpha, alpha), using
    the cached previous-step force and velocity (the virtual step before
    t0 replicates the initial data).
    """
    sp, sn = record.state_prev, record.state_next
    return _works(model, spec, h, sp, sn, model.force(sp.t), model.force(sn.t),
                  sn.q - sp.q)


def _weighted(prev: float, next_: float, weight: float) -> float:
    return (1.0 - weight) * prev + weight * next_


def contact_work(U_prev, U_next, P, weight: float) -> float:
    """Work of the contact impulses against the weighted local velocity."""
    P = np.asarray(P, dtype=float)
    return _weighted(float(np.asarray(U_prev, dtype=float) @ P),
                     float(np.asarray(U_next, dtype=float) @ P), weight)


def _norm_sq(mat: np.ndarray, vec: np.ndarray) -> float:
    return float(vec @ mat @ vec)


def theta_upper_bound(restitution) -> float:
    """Largest theta for which the theta-scheme provably dissipates."""
    e = np.asarray(restitution, dtype=float)
    return float(1.0 / (1.0 + e.max(initial=0.0)))


def _parameter_conditions(model: LagrangianModel, spec: SchemeSpec) -> tuple[bool, bool]:
    """Per-contact and worst-restitution forms of the parameter condition.

    Comparisons carry a small slack because the standard parameter
    constructions sit exactly on the boundary of their conditions
    (e.g. the second-order weight balance gives gamma - 1/2 equal to the
    averaging shift up to roundoff).
    """
    slack = 1e-12
    v = spec.variant
    if v is SchemeVariant.MOREAU_JEAN:
        th = spec.theta
        per_contact = bool(th >= 0.5 - slack
                           and np.all(th <= 1.0 / (1.0 + model.restitution) + slack))
        max_e = bool(0.5 - slack <= th <= theta_upper_bound(model.restitution) + slack)
        return per_contact, max_e
    if v is SchemeVariant.MOREAU_JEAN_VARIANT:
        cond = bool(spec.theta >= 0.5 - slack)
        return cond, cond
    gamma, beta = spec.gamma, spec.beta
    base = 2 * beta >= gamma - slack and gamma >= 0.5 - slack
    if v is SchemeVariant.NONSMOOTH_NEWMARK:
        return bool(base), bool(base)
    if v is SchemeVariant.NONSMOOTH_HHT:
        alpha = spec.alpha_f
        cond = bool(base and -slack <= alpha <= gamma - 0.5 + slack
                    and gamma - 0.5 <= 0.5 + slack)
        return cond, cond
    region = bool(base and -slack <= spec.eta <= gamma - 0.5 + slack
                  and gamma - 0.5 <= spec.nu + slack)
    if v is SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA:
        return region, region
    # The full averaging scheme only inherits the guarantee when the
    # load/velocity filter terms vanish: no damping, constant loading.
    damping_free = not model.damping.any()
    constant_load = model.forcing.kind.value in ("zero", "constant")
    cond = bool(region and damping_free and constant_load)
    return cond, cond


def audit_step(model: LagrangianModel, spec: SchemeSpec, h: float,
               record: StepRecord, tol: float = DEFAULT_AUDIT_TOL, *,
               constants: AuditConstants | None = None,
               prev_energies: tuple[float, float] | None = None) -> EnergyReport:
    """Audit one step against the scheme's exact energy identity.

    Every term of the identity is computed once and shared by the
    identity residual, the energy gain dE (or dH) - W_ext - W_damping,
    its audit scale and the dissipation flag.  The residual is zero up
    to roundoff for a correct step; this is the primary correctness
    oracle of the package.

    A run passes ``constants`` from :func:`audit_constants` and
    ``prev_energies``, the (E, H) of ``record.state_prev``, which the
    previous step's report holds as ``E``/``H_alg``.  Without them both
    are computed here.  The record is not modified; the caller attaches
    the returned report.
    """
    consts = audit_constants(model, spec, h) if constants is None else constants
    sp, sn = record.state_prev, record.state_next
    M, K, C = model.mass, model.stiffness, model.damping
    v = spec.variant
    theta_family = v in THETA_FAMILY

    e_next = _energy(model, sn.q, sn.v)
    h_next = e_next if theta_family else _algorithmic(
        model, sn, e_next, consts.accel_coeff, consts.filter_coeff)
    if prev_energies is None:
        e_prev = _energy(model, sp.q, sp.v)
        h_prev = e_prev if theta_family else _algorithmic(
            model, sp, e_prev, consts.accel_coeff, consts.filter_coeff)
    else:
        e_prev, h_prev = prev_energies

    dq = sn.q - sp.q
    w_ext, w_damp = _works(model, spec, h, sp, sn, model.force(sp.t), model.force(sn.t), dq)
    # impulse work against the start and end local velocities
    up, un = float(record.U_prev @ record.P), float(record.U_next @ record.P)
    u_half = _weighted(up, un, 0.5)
    w_contact = u_half
    dE = e_next - e_prev
    gain = h_next - h_prev - w_ext - w_damp
    kdq = _norm_sq(K, dq)

    if v is SchemeVariant.MOREAU_JEAN:
        th = spec.theta
        w_contact = _weighted(up, un, th)
        quad = (0.5 - th) * (_norm_sq(M, sn.v - sp.v) + kdq)
        residual = gain - quad - w_contact
    elif v is SchemeVariant.MOREAU_JEAN_VARIANT:
        residual = gain - (0.5 - spec.theta) * kdq - u_half
    else:
        gamma, beta = spec.gamma, spec.beta
        mda = _norm_sq(M, sn.a - sp.a)
        if v is SchemeVariant.NONSMOOTH_NEWMARK:
            rhs = (0.5 - gamma) * (kdq + 0.5 * h**2 * (2 * beta - gamma) * mda)
            residual = gain - rhs - u_half
        else:
            accel_sq = 0.5 * h**2 * (gamma - 0.5) * (2 * beta - gamma) * mda
            kdz = _norm_sq(K, sn.z - sp.z)
            eta, nu = spec.eta, spec.nu
            if v is SchemeVariant.NONSMOOTH_HHT:
                alpha = spec.alpha_f
                rhs = (u_half - accel_sq - (gamma - 0.5 - alpha) * kdq
                       - 2 * alpha * (1 - gamma) * kdz)
                residual = gain - rhs
            elif v is SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA:
                rhs = (u_half - accel_sq - (gamma - 0.5 - eta) * kdq
                       - spec.eta_over_nu * (nu - gamma + 0.5) * kdz)
                residual = gain - rhs
            else:
                # full averaging scheme: the load/velocity filters appear on the left
                y_mix = _gamma_mix(sp.y, sn.y, gamma)
                x_mix = _gamma_mix(sp.x, sn.x, gamma)
                lhs = gain + spec.eta_over_nu * float(dq @ (y_mix - C @ x_mix))
                rhs = (u_half - accel_sq + (eta + 0.5 - gamma) * kdq
                       + spec.eta_over_nu * (gamma - nu - 0.5) * kdz)
                residual = lhs - rhs

    if theta_family:
        scale = 1.0 + max(abs(dE), abs(w_ext))
    else:
        scale = 1.0 + max(abs(dE), abs(h_next - h_prev), abs(w_ext))
    return EnergyReport(E_prev=e_prev, H_prev=h_prev, E=e_next, H_alg=h_next,
                        W_ext=w_ext, W_damping=w_damp,
                        W_contact_step=w_contact, W_impact_style=u_half,
                        identity_residual=residual, residual_scale=scale,
                        energy_gain=gain, dissipation_satisfied=bool(gain <= tol * scale),
                        condition_satisfied=consts.condition,
                        condition_satisfied_max_e=consts.condition_max_e)
