"""Per-step energy audit: works, algorithmic energies, one exact identity.

Both scheme families satisfy one exact algebraic energy identity per
step, with a row of per-run coefficients that
:func:`nscontact.integrators.build_cache` sets from the family and
keeps on the run's iteration-matrix cache.  Its residual on a
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
nu*h, s_{k+1} = gain * increment - lag * s_k with gain = nu/(1/2 + nu)
and lag = (1/2 - nu)/(1/2 + nu); the averaging step advances them
(:func:`nscontact.integrators.step`) and the audit reads them off the
record's two states.  The filter work phi = eta/nu enters on the left for
generalized-alpha and is zero for Newmark, KH and the theta family.
HHT's averaged works dq.((1 - alpha) F_gamma + alpha F_gamma,prev) and
their damping twin absorb it instead: at nu = 1/2 the filters are
y = dF/2 and x = dv/2, so HHT reports W_ext = dq.(F_gamma - (eta/nu)
y_gamma) and W_damping = -dq.C(v_gamma - (eta/nu) x_gamma).

For w = 1/2 the contact term is provably nonpositive, as is the damping
work for positive semi-definite damping.  The dissipation flag asserts
gain = dH - W_ext - W_damping <= 0; the condition flag, which
``build_cache`` sets with the row, reports whether the scheme
parameters lie in the region that guarantees it.

The audit of a step reads only that step's record.  It never forms
H_{k+1} - H_k as a difference of two end energies, which on a stiff
structure would leave the roundoff of eps |q|^T |K| |q| in the
residual.  Each change is read off the Gram matrix of the end values
and increments instead: |x_{k+1}|_A^2 - |x_k|_A^2 = (x_k + x_{k+1})^T A dx,
whose roundoff is relative to |x| |A dx|.  That needs A = A^T, which
``build_model`` makes exact for M, C and K.

All functions are pure over immutable inputs and safe to call
concurrently across steps and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import StepRecord

if TYPE_CHECKING:
    from .integrators import IterationMatrixCache

DEFAULT_AUDIT_TOL = 1e-10


@dataclass(frozen=True)
class EnergyReport:
    """Audit result for one step.

    ``E`` and ``H_alg`` are the energy and the algorithmic energy at the
    step end; for the theta-schemes H equals E.  The identity relates
    their changes over the step, which the audit reads off the record
    itself and not as differences of two end energies, to the works and
    the contact term.  ``energy_gain`` is dH - W_ext - W_damping and
    ``residual_scale`` the gate's 1 + max(|dE|, |dH|, |W_ext|).

    ``condition_satisfied`` reports whether the scheme parameters meet
    the condition of the scheme's dissipation statement for every
    contact's restitution coefficient.
    """

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


def _forms(mat: np.ndarray, x1: np.ndarray, dx: np.ndarray, aux, c_aux: float,
           k_x: float, k_aux: float) -> tuple[float, float, float, float, float]:
    """One matrix's share of the audit's quadratic forms, from one Gram product.

    ``x1`` and ``dx`` are the end value and increment of the energy's
    variable (v against M, q against K) and ``aux`` the (start, end)
    pair of its auxiliary variable (a against M, z against K), whose
    energy weight is ``c_aux``.  Returns (1/2)|x1|^2, its change
    (1/2)(|x1|^2 - |x0|^2), c_aux |aux1|^2, its change, and the right
    side's k_x |dx|^2 + k_aux |d aux|^2, all against ``mat``.

    G = (L mat) L^T for the stacked rows L = [x1, dx], followed by
    [aux1, d aux] only when c_aux or k_aux is nonzero, gives every form:
    |x1|^2 and |dx|^2 from its diagonal, and a change from
    |x1|^2 - |x0|^2 = (x0 + x1)^T mat dx = 2 G[x1, dx] - G[dx, dx],
    which holds because ``build_model`` makes ``mat`` exactly symmetric.
    """
    rows = [x1, dx]
    if c_aux or k_aux:
        rows += [aux[1], aux[1] - aux[0]]
    stacked = np.array(rows)
    g = ((stacked @ mat) @ stacked.T).tolist()
    x_form, dx_form = g[0][0], g[1][1]
    change = g[0][1] - 0.5 * dx_form
    if len(g) == 2:
        return 0.5 * x_form, change, 0.0, 0.0, k_x * dx_form
    aux_form, d_aux_form = g[2][2], g[3][3]
    aux_change = c_aux * (2.0 * g[2][3] - d_aux_form)
    return (0.5 * x_form, change, c_aux * aux_form, aux_change,
            k_x * dx_form + k_aux * d_aux_form)


def _mix(prev: np.ndarray, next_: np.ndarray, weight: float) -> np.ndarray:
    return weight * next_ + (1.0 - weight) * prev


def audit_step(cache: IterationMatrixCache, record: StepRecord,
               tol: float = DEFAULT_AUDIT_TOL) -> EnergyReport:
    """Audit one step against the exact energy identity of the module docstring.

    The identity is evaluated with the coefficient row of ``cache``, the
    run's :class:`~nscontact.integrators.IterationMatrixCache` for the
    record's (model, spec, h), from the record alone: the report is a
    function of (cache, record, tol).  Every term is computed once and
    shared by the identity residual, the energy gain dH - W_ext - W_damping,
    its audit scale 1 + max(|dE|, |dH|, |W_ext|) and the dissipation flag.
    The residual is zero up to roundoff for a correct step; this is the
    primary correctness oracle of the package.

    Every quadratic form, and every change of one, comes from one Gram
    product per matrix (see ``_forms``): the rows [v_{k+1}, dv] against M
    and [q_{k+1}, dq] against K, each followed by the auxiliary pair
    [a_{k+1}, da] or [z_{k+1}, dz] only when c_a or k_a (c_z or k_z) is
    nonzero, so the theta family stacks two rows per matrix.  K, and C in
    the damping work, are multiplied only when the cache holds their
    map, that is when they are nonzero.  The load's work is
    dq.F_c = (dq.amplitude)(c signal(t_{k+1}) + (1 - c) signal(t_k)),
    one dot product and two scalar signal values for every load.

    An offline re-audit is ``audit_step(build_cache(model, spec, h), record)``
    and equals the report ``simulate`` attached.  The record is not
    modified; the caller attaches the returned report.
    """
    model, c = cache.model, cache.c
    sp, sn = record.state_prev, record.state_next
    dq = sn.q - sp.q
    forms = _forms(model.mass, sn.v, sn.v - sp.v, (sp.a, sn.a),
                   cache.c_a, cache.k_v, cache.k_a)
    if cache.stiffness_map is not None:
        forms = [m + k for m, k in zip(forms, _forms(model.stiffness, sn.q, dq, (sp.z, sn.z),
                                                     cache.c_z, cache.k_q, cache.k_z))]
    e_next, dE, h_extra, dh_extra, dissipated = forms

    filters = bool(cache.phi or cache.filter_works)
    filter_y = float(dq @ _mix(sp.y, sn.y, c)) if filters else 0.0
    filter_x = w_damp = 0.0
    if cache.damping_map is not None:
        dq_c = dq @ model.damping
        if filters:
            filter_x = float(dq_c @ _mix(sp.x, sn.x, c))
        w_damp = -float(dq_c @ _mix(sp.v, sn.v, c)) + cache.filter_works * filter_x
    forcing = model.forcing
    w_ext = (float(dq @ forcing.amplitude) * _mix(forcing.signal(sp.t), forcing.signal(sn.t), c)
             - cache.filter_works * filter_y)
    # impulse work against the start and end local velocities
    up, un = float(record.U_prev @ record.P), float(record.U_next @ record.P)
    w_contact = _mix(up, un, cache.spec.displacement_weight)
    dH = dE + dh_extra
    gain = dH - w_ext - w_damp
    residual = gain + cache.phi * (filter_y - filter_x) - (w_contact + dissipated)
    scale = 1.0 + max(abs(dE), abs(dH), abs(w_ext))
    return EnergyReport(E=e_next, H_alg=e_next + h_extra, W_ext=w_ext, W_damping=w_damp,
                        W_contact_step=w_contact,
                        identity_residual=residual, residual_scale=scale,
                        energy_gain=gain, dissipation_satisfied=bool(gain <= tol * scale),
                        condition_satisfied=cache.condition)
