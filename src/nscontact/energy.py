"""Per-step energy audit: works, algorithmic energies, one exact identity.

Both scheme families satisfy one exact algebraic energy identity per
step, with a row of per-run coefficients (:class:`AuditConstants`) that
:func:`audit_constants` sets from the family.  Its residual on a
correctly implemented step is pure roundoff, so the audit doubles as
the primary correctness oracle for the integrators.  Notation:
|x|_A^2 = x^T A x, dx = x_{k+1} - x_k, x_c = (1 - c) x_k + c x_{k+1},
U = G^T v, E = (1/2)|v|_M^2 + (1/2)|q|_K^2 and
H = E + c_a |a|_M^2 + c_z |z|_K^2:

    H_{k+1} - H_k - W_ext - W_damping + phi dq.(y_c - C x_c)
        = U_w.P + k_v |dv|_M^2 + k_a |da|_M^2 + k_q |dq|_K^2 + k_z |dz|_K^2

with W_ext = dq.F_c and W_damping = -dq.C v_c, and w the scheme's
displacement weight.  The two rows, with nu = 1/2 - alpha_m and
eta = alpha_f - alpha_m:

    coefficient  theta family   averaging family
    c            theta          gamma
    c_a          0              (h^2/4)(2 beta - gamma)
    c_z          0              eta/(2 nu^2) (nu - (gamma - 1/2)), 0 if eta or nu is 0
    k_v          1/2 - w        0
    k_a          0              -(h^2/2)(gamma - 1/2)(2 beta - gamma)
    k_q          1/2 - theta    eta + 1/2 - gamma
    k_z          0              (eta/nu)(gamma - nu - 1/2), 0 if eta = 0

In the theta family dq = h v_w, so the works are h v_w.F_theta and
-h v_w.C v_theta, and H = E.  z, x, y filter the displacement,
velocity and load increments by a midpoint rule on the time scale
nu*h.  The filter work phi = eta/nu enters on the left for
generalized-alpha and is zero for Newmark, KH and the theta family.
HHT's averaged works dq.((1 - alpha) F_gamma + alpha F_gamma,prev) and
their damping twin absorb it instead: at nu = 1/2 the filters are
y = dF/2 and x = dv/2, so HHT reports W_ext = dq.(F_gamma - (eta/nu)
y_gamma) and W_damping = -dq.C(v_gamma - (eta/nu) x_gamma).

For w = 1/2 the contact term is provably nonpositive, as is the damping
work for positive semi-definite damping.  The dissipation flag asserts
gain = dH - W_ext - W_damping <= 0; the condition flag reports whether
the scheme parameters lie in the region that guarantees it.

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
    ForcingKind,
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

    ``condition_satisfied`` reports whether the scheme parameters meet
    the condition of the scheme's dissipation statement for every
    contact's restitution coefficient.
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

    def identity_ok(self, tol: float = DEFAULT_AUDIT_TOL) -> bool:
        """Whether |residual| <= tol * residual_scale; a NaN or infinite residual fails."""
        r = self.identity_residual
        return math.isfinite(r) and abs(r) <= tol * self.residual_scale


class AuditConstants(NamedTuple):
    """The identity's coefficient row, fixed by (model, spec, h) and computed once per run.

    Names follow the module docstring: ``accel_coeff`` and
    ``filter_coeff`` are c_a and c_z, ``work_weight`` is c, the ``d*``
    fields are k_v, k_a, k_q and k_z, ``filter_left`` is phi, and
    ``filter_works`` is the filter-work weight HHT's works absorb.
    Unset weights are zero.
    """

    condition: bool
    work_weight: float
    accel_coeff: float = 0.0
    filter_coeff: float = 0.0
    dv_coeff: float = 0.0
    da_coeff: float = 0.0
    dq_coeff: float = 0.0
    dz_coeff: float = 0.0
    filter_left: float = 0.0
    filter_works: float = 0.0


def audit_constants(model: LagrangianModel, spec: SchemeSpec, h: float) -> AuditConstants:
    """The parameter condition and coefficient row shared by every step of a run."""
    cond = _parameter_conditions(model, spec)
    if spec.variant in THETA_FAMILY:
        th = spec.theta
        return AuditConstants(cond, work_weight=th, dv_coeff=0.5 - spec.displacement_weight,
                              dq_coeff=0.5 - th)
    nu, eta, gamma, r = spec.nu, spec.eta, spec.gamma, spec.eta_over_nu
    accel = 2.0 * spec.beta - gamma
    return AuditConstants(
        cond, work_weight=gamma, accel_coeff=0.25 * h**2 * accel,
        # the filter state is identically zero for nu = 0, so nothing is lost
        filter_coeff=(0.0 if eta == 0.0 or nu == 0.0
                      else eta / (2.0 * nu**2) * (nu - (gamma - 0.5))),
        da_coeff=-(0.5 * h**2 * (gamma - 0.5) * accel), dq_coeff=eta + 0.5 - gamma,
        dz_coeff=0.0 if eta == 0.0 else r * (gamma - nu - 0.5),
        filter_left=r if spec.variant is SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA else 0.0,
        filter_works=r if spec.variant is SchemeVariant.NONSMOOTH_HHT else 0.0)


def _energy(model: LagrangianModel, q: np.ndarray, v: np.ndarray) -> float:
    return 0.5 * float(v @ model.mass @ v) + 0.5 * float(q @ model.stiffness @ q)


def _quad(coeff: float, mat: np.ndarray, vec: np.ndarray) -> float:
    """coeff |vec|_mat^2; a zero weight skips the matrix product."""
    return coeff * float(vec @ mat @ vec) if coeff else 0.0


def _algorithmic(model: LagrangianModel, state: SystemState, energy: float,
                 row: AuditConstants) -> float:
    return (energy + _quad(row.accel_coeff, model.mass, state.a)
            + _quad(row.filter_coeff, model.stiffness, state.z))


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


def _parameter_conditions(model: LagrangianModel, spec: SchemeSpec) -> bool:
    """Whether the parameters meet the dissipation condition for every contact.

    Comparisons carry a small slack because the standard parameter
    constructions sit exactly on the boundary of their conditions
    (e.g. the second-order weight balance gives gamma - 1/2 equal to the
    averaging shift up to roundoff).
    """
    slack = 1e-12
    if spec.variant in THETA_FAMILY:
        # theta >= 1/2 and w <= 1/(1 + e) for every e; the bound is
        # monotone in e, so the largest coefficient decides.  The
        # midpoint weight w = 1/2 meets it for every e in [0, 1]
        return bool(spec.theta >= 0.5 - slack and spec.displacement_weight
                    <= 1.0 / (1.0 + model.restitution.max()) + slack)
    gamma, beta = spec.gamma, spec.beta
    base = bool(2 * beta >= gamma - slack and gamma >= 0.5 - slack)
    if spec.variant is SchemeVariant.NONSMOOTH_NEWMARK:
        return base
    region = bool(base and -slack <= spec.eta <= gamma - 0.5 + slack
                  and gamma - 0.5 <= spec.nu + slack)
    if spec.variant is SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA:
        # The full averaging scheme only inherits the guarantee when the
        # load/velocity filter terms vanish: no damping, constant loading.
        region = (region and not model.damping.any()
                  and model.forcing.kind is ForcingKind.CONSTANT)
    return region


def audit_step(model: LagrangianModel, spec: SchemeSpec, h: float,
               record: StepRecord, tol: float = DEFAULT_AUDIT_TOL, *,
               constants: AuditConstants | None = None,
               prev_energies: tuple[float, float] | None = None) -> EnergyReport:
    """Audit one step against the exact energy identity of the module docstring.

    The identity is evaluated with the run's coefficient row, and every
    term is computed once and shared by the identity residual, the
    energy gain dH - W_ext - W_damping, its audit scale
    1 + max(|dE|, |dH|, |W_ext|) and the dissipation flag.  The residual
    is zero up to roundoff for a correct step; this is the primary
    correctness oracle of the package.

    A run passes ``constants`` from :func:`audit_constants` and
    ``prev_energies``, the (E, H) of ``record.state_prev``, which the
    previous step's report holds as ``E``/``H_alg``.  Without them both
    are computed here.  The record is not modified; the caller attaches
    the returned report.
    """
    row = audit_constants(model, spec, h) if constants is None else constants
    sp, sn = record.state_prev, record.state_next
    M, K = model.mass, model.stiffness
    c = row.work_weight

    e_next = _energy(model, sn.q, sn.v)
    h_next = _algorithmic(model, sn, e_next, row)
    if prev_energies is None:
        e_prev = _energy(model, sp.q, sp.v)
        h_prev = _algorithmic(model, sp, e_prev, row)
    else:
        e_prev, h_prev = prev_energies

    dq = sn.q - sp.q
    dq_c = dq @ model.damping
    filter_y = filter_x = 0.0
    if row.filter_left or row.filter_works:
        filter_y = float(dq @ _mix(sp.y, sn.y, c))
        filter_x = float(dq_c @ _mix(sp.x, sn.x, c))
    f_c = _mix(model.force(sp.t), model.force(sn.t), c)
    w_ext = float(dq @ f_c) - row.filter_works * filter_y
    w_damp = -float(dq_c @ _mix(sp.v, sn.v, c)) + row.filter_works * filter_x
    # impulse work against the start and end local velocities
    up, un = float(record.U_prev @ record.P), float(record.U_next @ record.P)
    w_contact = _mix(up, un, spec.displacement_weight)
    dH = h_next - h_prev
    gain = dH - w_ext - w_damp
    residual = gain + row.filter_left * (filter_y - filter_x) - (
        w_contact + _quad(row.dv_coeff, M, sn.v - sp.v) + _quad(row.da_coeff, M, sn.a - sp.a)
        + _quad(row.dq_coeff, K, dq) + _quad(row.dz_coeff, K, sn.z - sp.z))
    scale = 1.0 + max(abs(e_next - e_prev), abs(dH), abs(w_ext))
    return EnergyReport(E_prev=e_prev, H_prev=h_prev, E=e_next, H_alg=h_next,
                        W_ext=w_ext, W_damping=w_damp,
                        W_contact_step=w_contact,
                        identity_residual=residual, residual_scale=scale,
                        energy_gain=gain, dissipation_satisfied=bool(gain <= tol * scale),
                        condition_satisfied=row.condition)
