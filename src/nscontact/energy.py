"""Per-step energy audit: works, algorithmic energies, exact identities.

The six schemes form two families, and each family satisfies one exact
algebraic energy identity per step.  Its residual on a correctly
implemented step is pure roundoff, so the audit doubles as the primary
correctness oracle for the integrators.  Notation: |x|_A^2 = x^T A x,
dx = x_{k+1} - x_k, x_c = (1 - c) x_k + c x_{k+1}, and U = G^T v.

Theta family (Moreau-Jean: w = theta; midpoint variant: w = 1/2), with
E = (1/2)|v|_M^2 + (1/2)|q|_K^2, W_ext = h v_w.F_theta and
W_damping = -h v_w.C v_theta:

    E_{k+1} - E_k - W_ext - W_damping
        = (1/2 - w)|dv|_M^2 + (1/2 - theta)|dq|_K^2 + U_w.P

Averaging family (Newmark, HHT, generalized-alpha and KH, all cases of
generalized-alpha with nu = 1/2 - alpha_m, eta = alpha_f - alpha_m), with
H = E + (h^2/4)(2 beta - gamma)|a|_M^2 + c_z |z|_K^2, W_ext = dq.F_gamma
and W_damping = -dq.C v_gamma (HHT mixes in the previous step's works):

    H_{k+1} - H_k - W_ext - W_damping [+ (eta/nu) dq.(y_gamma - C x_gamma)]
        = U_w.P - (h^2/2)(gamma - 1/2)(2 beta - gamma)|da|_M^2
          + (eta + 1/2 - gamma)|dq|_K^2 + (eta/nu)(gamma - nu - 1/2)|dz|_K^2

The bracketed filter work enters for generalized-alpha only.  z, x, y
filter the displacement, velocity and load increments by a midpoint
rule on the time scale nu*h; the z term vanishes with eta (Newmark).
The averaging family's displacement weight is w = 1/2, so both families
share the one contact term U_w.P.

For w = 1/2 the contact term is provably nonpositive, as is the damping
work for positive semi-definite damping.  The dissipation flag asserts
gain = dE (or dH) - W_ext - W_damping <= 0; the condition flags report
whether the scheme parameters lie in the region that guarantees it.

All functions are pure over immutable inputs and safe to call
concurrently across steps and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def advance_filters(spec: SchemeSpec, state_prev: SystemState,
                    state_next: SystemState, df: np.ndarray):
    """Advance the three first-order filter states by one midpoint step.

    Each filter relaxes toward the increment of its driving signal
    (displacement, velocity, load ``df``) on the time scale nu*h:

        (1/2 + nu) s_next + (1/2 - nu) s_prev = nu * (signal increment)

    For nu = 1/2 this collapses to 2 s_next = increment, and for nu = 0
    a zero-started filter stays at zero.
    """
    nu = spec.nu
    denom = 0.5 + nu
    dq = state_next.q - state_prev.q
    dv = state_next.v - state_prev.v
    z = (nu * dq - (0.5 - nu) * state_prev.z) / denom
    x = (nu * dv - (0.5 - nu) * state_prev.x) / denom
    y = (nu * df - (0.5 - nu) * state_prev.y) / denom
    return z, x, y


def _mix(prev: np.ndarray, next_: np.ndarray, weight: float) -> np.ndarray:
    return weight * next_ + (1.0 - weight) * prev


def _works(model: LagrangianModel, spec: SchemeSpec, h: float, sp: SystemState,
           sn: SystemState, f_k: np.ndarray, f_k1: np.ndarray,
           dq: np.ndarray) -> tuple[float, float]:
    C = model.damping
    if spec.variant in THETA_FAMILY:
        th = spec.theta
        v_w = _mix(sp.v, sn.v, spec.displacement_weight)
        v_th = _mix(sp.v, sn.v, th)
        return h * float(v_w @ _mix(f_k, f_k1, th)), -h * float(v_w @ C @ v_th)
    gamma = spec.gamma
    f_mix = _mix(f_k, f_k1, gamma)
    v_mix = _mix(sp.v, sn.v, gamma)
    if spec.variant is SchemeVariant.NONSMOOTH_HHT:
        alpha = spec.alpha_f
        f_mix_prev = _mix(sp.f_prev, f_k, gamma)
        v_mix_prev = _mix(sp.v_prev, sp.v, gamma)
        w_ext = float(dq @ ((1 - alpha) * f_mix + alpha * f_mix_prev))
        w_damp = -float(dq @ C @ ((1 - alpha) * v_mix + alpha * v_mix_prev))
        return w_ext, w_damp
    return float(dq @ f_mix), -float(dq @ C @ v_mix)


def _norm_sq(mat: np.ndarray, vec: np.ndarray) -> float:
    return float(vec @ mat @ vec)


def _parameter_conditions(model: LagrangianModel, spec: SchemeSpec) -> tuple[bool, bool]:
    """Per-contact and worst-restitution forms of the parameter condition.

    Comparisons carry a small slack because the standard parameter
    constructions sit exactly on the boundary of their conditions
    (e.g. the second-order weight balance gives gamma - 1/2 equal to the
    averaging shift up to roundoff).
    """
    slack = 1e-12
    if spec.variant in THETA_FAMILY:
        # theta >= 1/2 and w <= 1/(1 + e); the midpoint weight w = 1/2
        # meets the second bound for every e in [0, 1]
        lower = spec.theta >= 0.5 - slack
        w, e = spec.displacement_weight, model.restitution
        return (bool(lower and np.all(w <= 1.0 / (1.0 + e) + slack)),
                bool(lower and w <= 1.0 / (1.0 + e.max(initial=0.0)) + slack))
    gamma, beta = spec.gamma, spec.beta
    base = bool(2 * beta >= gamma - slack and gamma >= 0.5 - slack)
    if spec.variant is SchemeVariant.NONSMOOTH_NEWMARK:
        return base, base
    region = bool(base and -slack <= spec.eta <= gamma - 0.5 + slack
                  and gamma - 0.5 <= spec.nu + slack)
    if spec.variant is SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA:
        # The full averaging scheme only inherits the guarantee when the
        # load/velocity filter terms vanish: no damping, constant loading.
        region = (region and not model.damping.any()
                  and model.forcing.kind.value in ("zero", "constant"))
    return region, region


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
    theta_family = spec.variant in THETA_FAMILY

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
    w_contact = _mix(up, un, spec.displacement_weight)
    dE = e_next - e_prev
    gain = h_next - h_prev - w_ext - w_damp
    kdq = _norm_sq(K, dq)

    if theta_family:
        w = spec.displacement_weight
        residual = (gain - (0.5 - w) * _norm_sq(M, sn.v - sp.v)
                    - (0.5 - spec.theta) * kdq - w_contact)
    else:
        gamma, eta = spec.gamma, spec.eta
        accel_sq = (0.5 * h**2 * (gamma - 0.5) * (2 * spec.beta - gamma)
                    * _norm_sq(M, sn.a - sp.a))
        rhs = w_contact - accel_sq + (eta + 0.5 - gamma) * kdq
        if eta != 0.0:
            rhs += spec.eta_over_nu * (gamma - spec.nu - 0.5) * _norm_sq(K, sn.z - sp.z)
        lhs = gain
        if spec.variant is SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA:
            # full averaging scheme: the load/velocity filters appear on the left
            lhs += spec.eta_over_nu * float(
                dq @ (_mix(sp.y, sn.y, gamma) - C @ _mix(sp.x, sn.x, gamma)))
        residual = lhs - rhs

    if theta_family:
        scale = 1.0 + max(abs(dE), abs(w_ext))
    else:
        scale = 1.0 + max(abs(dE), abs(h_next - h_prev), abs(w_ext))
    return EnergyReport(E_prev=e_prev, H_prev=h_prev, E=e_next, H_alg=h_next,
                        W_ext=w_ext, W_damping=w_damp,
                        W_contact_step=w_contact,
                        identity_residual=residual, residual_scale=scale,
                        energy_gain=gain, dissipation_satisfied=bool(gain <= tol * scale),
                        condition_satisfied=consts.condition,
                        condition_satisfied_max_e=consts.condition_max_e)
