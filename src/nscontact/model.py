"""Linear Lagrangian systems with unilateral constraints.

A model bundles the constant matrices of a semi-discretized linear
structure (mass, damping, stiffness), a set of linear gap functions
``g(q) = G^T q + w >= 0`` with one restitution coefficient per contact,
and the external force history.  Models are validated once and immutable
afterwards; all integrators and audits consume them read-only, so a
single model can back any number of concurrent simulations.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInput

if TYPE_CHECKING:
    from .energy import EnergyReport

# Relative tolerances used by build_model validation.  A user-assembled
# matrix within SYMMETRY_RTOL of symmetric is accepted and made exactly
# symmetric; rank-deficient stiffness (free-free chains) must pass the
# semi-definiteness check.
SYMMETRY_RTOL = 1e-12
EIGENVALUE_RTOL = 1e-10


# ----------------------------------------------------------------------
# external forcing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ForcingTerm:
    """External force ``F(t) = amplitude * sin(omega t + phase)``.

    The load is its amplitude times the scalar ``signal(t)``, and a step
    and its audit use it in that factored form: they evaluate the
    signal at the two grid points and never form F(t).  A constant load
    is the zero-frequency case with phase pi/2, where
    ``math.sin(math.pi / 2)`` is exactly 1.0, so it evaluates to its
    amplitude bit for bit.  Only point evaluations are ever needed (the
    load filter of the energy audit consumes load increments between
    grid points), so no derivative interface exists.

    Raises:
        InvalidInput: naming the field, when omega or phase is not a
            real number; both are kept as Python floats.
    """

    amplitude: np.ndarray                      # n-vector
    omega: float
    phase: float

    def __post_init__(self):
        # the term owns a read-only copy, so a write into the caller's
        # array cannot change a model's load; a scalar is a 1-vector
        amplitude = np.array(self.amplitude, dtype=float, ndmin=1)
        amplitude.flags.writeable = False
        object.__setattr__(self, "amplitude", amplitude)
        # every step passes omega and phase to math.sin
        for name in ("omega", "phase"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise InvalidInput(f"forcing {name}={value!r} is not a real number")
            object.__setattr__(self, name, float(value))

    @staticmethod
    def zero(n: int) -> "ForcingTerm":
        return ForcingTerm.constant(np.zeros(n))

    @staticmethod
    def constant(amplitude) -> "ForcingTerm":
        return ForcingTerm(amplitude, 0.0, 0.5 * math.pi)

    @staticmethod
    def sinusoidal(amplitude, omega: float, phase: float = 0.0) -> "ForcingTerm":
        return ForcingTerm(amplitude, omega, phase)

    def signal(self, t: float) -> float:
        return math.sin(self.omega * t + self.phase)

    def evaluate(self, t: float) -> np.ndarray:
        return self.amplitude * self.signal(t)


# ----------------------------------------------------------------------
# scheme parameterization
# ----------------------------------------------------------------------

class SchemeVariant(str, enum.Enum):
    MOREAU_JEAN = "moreau_jean"
    MOREAU_JEAN_VARIANT = "moreau_jean_variant"
    NONSMOOTH_NEWMARK = "newmark"
    NONSMOOTH_HHT = "hht"
    NONSMOOTH_GENERALIZED_ALPHA = "generalized_alpha"
    NONSMOOTH_KH_GENERALIZED_ALPHA = "kh_generalized_alpha"


# The velocity-level theta schemes; every other variant is an averaging
# (acceleration-based) scheme.
THETA_FAMILY = (SchemeVariant.MOREAU_JEAN, SchemeVariant.MOREAU_JEAN_VARIANT)


@dataclass(frozen=True)
class SchemeSpec:
    """Which time-stepping scheme to run, and with which parameters.

    ``theta`` is only meaningful for the Moreau-Jean pair; the Newmark
    pair (gamma, beta) and the averaging weights (alpha_m, alpha_f)
    parameterize the acceleration-based family.  ``build_cache`` derives
    the load weight alpha_c and the filter constants nu and eta from
    them.
    """

    variant: SchemeVariant
    theta: float = 0.5
    gamma: float = 0.5
    beta: float = 0.25
    alpha_m: float = 0.0
    alpha_f: float = 0.0

    def __post_init__(self):
        # inputs before the gamma and beta derived from them
        for name in ("alpha_m", "alpha_f", "gamma", "beta", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"{name}={getattr(self, name)} is not finite")
        v = self.variant
        if v in THETA_FAMILY:
            if not 0.0 <= self.theta <= 1.0:
                raise InvalidInput(f"theta={self.theta} outside [0, 1]")
            return
        if self.alpha_m >= 1.0 or self.alpha_f >= 1.0:
            raise InvalidInput("averaging weights must stay below 1")
        if self.beta < 0.0 or self.gamma < 0.0:
            raise InvalidInput("gamma and beta must be nonnegative")
        if v is SchemeVariant.NONSMOOTH_NEWMARK and (self.alpha_m or self.alpha_f):
            raise InvalidInput("Newmark requires alpha_m = alpha_f = 0")
        if v is SchemeVariant.NONSMOOTH_HHT:
            if self.alpha_m != 0.0:
                raise InvalidInput("HHT requires alpha_m = 0")
            if not 0.0 <= self.alpha_f <= 1.0 / 3.0 + 1e-15:
                raise InvalidInput(f"HHT weight alpha={self.alpha_f} outside [0, 1/3]")

    @property
    def displacement_weight(self) -> float:
        """Weight w of the end-of-step velocity in the displacement update.

        theta for Moreau-Jean, 1/2 for every other variant: the midpoint
        variant advances q with the mean velocity, and the averaging
        family adds half a step of the impulse correction to q.  The
        contact work of the energy identity uses the same weight.
        """
        return self.theta if self.variant is SchemeVariant.MOREAU_JEAN else 0.5

    # ---- constructors ----

    @staticmethod
    def moreau_jean(theta: float = 0.5) -> "SchemeSpec":
        return SchemeSpec(SchemeVariant.MOREAU_JEAN, theta=float(theta))

    @staticmethod
    def moreau_jean_variant(theta: float = 0.5) -> "SchemeSpec":
        return SchemeSpec(SchemeVariant.MOREAU_JEAN_VARIANT, theta=float(theta))

    @staticmethod
    def newmark(gamma: float = 0.5, beta: float | None = None) -> "SchemeSpec":
        return SchemeSpec.generalized_alpha(0.0, 0.0, gamma, beta,
                                            variant=SchemeVariant.NONSMOOTH_NEWMARK)

    @staticmethod
    def hht(alpha: float, gamma: float | None = None,
            beta: float | None = None) -> "SchemeSpec":
        return SchemeSpec.generalized_alpha(0.0, alpha, gamma, beta,
                                            variant=SchemeVariant.NONSMOOTH_HHT)

    @staticmethod
    def generalized_alpha(alpha_m: float, alpha_f: float, gamma: float | None = None,
                          beta: float | None = None,
                          variant: SchemeVariant = SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA,
                          ) -> "SchemeSpec":
        alpha_m, alpha_f = float(alpha_m), float(alpha_f)
        # unspecified gamma: the second-order weight balance
        gamma = 0.5 + alpha_f - alpha_m if gamma is None else float(gamma)
        if beta is None:
            beta = 0.25 * (gamma + 0.5) ** 2
        return SchemeSpec(variant, gamma=gamma, beta=float(beta),
                          alpha_m=alpha_m, alpha_f=alpha_f)

    @staticmethod
    def kh_generalized_alpha(alpha_m: float, alpha_f: float, gamma: float | None = None,
                             beta: float | None = None) -> "SchemeSpec":
        return SchemeSpec.generalized_alpha(
            alpha_m, alpha_f, gamma, beta,
            variant=SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA)

    @staticmethod
    def from_rho_infinity(rho: float,
                          variant: SchemeVariant = SchemeVariant.NONSMOOTH_GENERALIZED_ALPHA,
                          ) -> "SchemeSpec":
        """High-frequency damping knob: rho = 1 none, rho = 0 maximal."""
        rho = float(rho)
        if not 0.0 <= rho <= 1.0:
            raise InvalidInput(f"spectral radius {rho} outside [0, 1]")
        alpha_m = (2.0 * rho - 1.0) / (rho + 1.0)
        alpha_f = rho / (rho + 1.0)
        return SchemeSpec.generalized_alpha(alpha_m, alpha_f, variant=variant)


# ----------------------------------------------------------------------
# model and state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianModel:
    """Validated linear model with unilateral constraints.

    Attributes:
        n: number of generalized coordinates.
        m: number of unilateral constraints (columns of the jacobian).
        mass, damping, stiffness: constant n-by-n matrices.
        contact_jacobian: n-by-m matrix mapping impulses to generalized
            forces; its transpose maps velocities to contact velocities.
        gap_offset: m-vector shifting the gaps, g(q) = G^T q + w.
        restitution: m-vector of Newton coefficients in [0, 1].
        forcing: external force history F(t).
        contact_rows: G^T as read-only C-contiguous rows, derived from
            ``contact_jacobian`` on first use and kept, so a model and
            every state and cache made from it multiply the same rows.
            ``contact_image`` forms a state's contact image from them.
    """

    n: int
    m: int
    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    contact_jacobian: np.ndarray
    gap_offset: np.ndarray
    restitution: np.ndarray
    forcing: ForcingTerm

    @functools.cached_property
    def contact_rows(self) -> np.ndarray:
        rows = np.ascontiguousarray(self.contact_jacobian.T)
        rows.flags.writeable = False
        return rows

    def contact_image(self, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The contact velocities G^T v and the gaps g(q) = G^T q + w."""
        return self.contact_rows @ v, self.contact_rows @ q + self.gap_offset


def _check_finite(a, name: str) -> None:
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} contains NaN or infinity")


def _symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` made exactly symmetric, or InvalidInput if its skew is beyond the tolerance.

    A symmetric matrix is returned as it is, bit for bit.  Otherwise the
    result is (a + a^T)/2 taken as a/2 + a^T/2, which stays finite for
    every finite a.  The energy audit's increment identity needs A = A^T.
    """
    if np.array_equal(a, a.T):
        return a
    skew = np.abs(a - a.T).max(initial=0.0)
    if skew > SYMMETRY_RTOL * (1.0 + np.abs(a).max(initial=0.0)):
        raise InvalidInput(f"{name} is not symmetric (max skew {skew:.3e})")
    return 0.5 * a + 0.5 * a.T


def _check_psd(a: np.ndarray, name: str) -> None:
    eigs = np.linalg.eigvalsh(a)
    floor = -EIGENVALUE_RTOL * max(np.abs(eigs).max(initial=0.0), 1e-300)
    if eigs.min(initial=0.0) < floor:
        raise InvalidInput(
            f"{name} has eigenvalue {eigs.min():.3e} below the semi-definite floor")


def build_model(mass, damping, stiffness, contact_jacobian, gap_offset,
                restitution, forcing: ForcingTerm) -> LagrangianModel:
    """Validate and assemble a model.

    The model owns copies of its matrices, offsets and restitution
    coefficients, all read-only: writing into one raises ``ValueError``.
    Its mass, damping and stiffness are exactly symmetric: a symmetric
    input is kept bit for bit, and one within the symmetry tolerance is
    replaced by its symmetric part.

    Raises:
        InvalidInput: naming the field, for inconsistent array shapes;
            NaN or infinity in any matrix, offset, restitution
            coefficient or forcing datum; mass, damping or stiffness
            beyond the symmetry tolerance; a mass that is not positive
            definite, or damping or stiffness with an eigenvalue below
            the semi-definite floor; or a restitution coefficient
            outside [0, 1].
    """
    mass = np.array(mass, dtype=float)
    damping = np.array(damping, dtype=float)
    stiffness = np.array(stiffness, dtype=float)
    contact_jacobian = np.array(contact_jacobian, dtype=float)
    gap_offset = np.atleast_1d(np.array(gap_offset, dtype=float))
    restitution = np.atleast_1d(np.array(restitution, dtype=float))

    if mass.ndim != 2 or mass.shape[0] != mass.shape[1] or mass.shape[0] < 1:
        raise InvalidInput(f"mass must be square and nonempty, got {mass.shape}")
    n = mass.shape[0]
    for name, mat in (("damping", damping), ("stiffness", stiffness)):
        if mat.shape != (n, n):
            raise InvalidInput(f"{name} must be {n}x{n}, got {mat.shape}")
    if contact_jacobian.ndim != 2 or contact_jacobian.shape[0] != n:
        raise InvalidInput(
            f"contact_jacobian must have {n} rows, got {contact_jacobian.shape}")
    m = contact_jacobian.shape[1]
    if m < 1:
        raise InvalidInput("at least one unilateral constraint is required")
    if gap_offset.shape != (m,):
        raise InvalidInput(f"gap_offset must have length {m}, got {gap_offset.shape}")
    if restitution.shape == (1,) and m > 1:
        restitution = np.full(m, restitution[0])
    if restitution.shape != (m,):
        raise InvalidInput(f"restitution must have length {m}, got {restitution.shape}")

    for name, arr in (("mass", mass), ("damping", damping), ("stiffness", stiffness),
                      ("contact_jacobian", contact_jacobian), ("gap_offset", gap_offset),
                      ("restitution", restitution)):
        _check_finite(arr, name)
    _check_finite(forcing.amplitude, "forcing amplitude")
    _check_finite([forcing.omega, forcing.phase], "forcing omega/phase")

    mass = _symmetric(mass, "mass")
    damping = _symmetric(damping, "damping")
    stiffness = _symmetric(stiffness, "stiffness")
    try:
        np.linalg.cholesky(mass)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"mass is not positive definite: {exc}") from exc
    _check_psd(damping, "damping")
    _check_psd(stiffness, "stiffness")

    if np.any(restitution < 0.0) or np.any(restitution > 1.0):
        raise InvalidInput(f"restitution {restitution} outside [0, 1]")

    if forcing.amplitude.shape != (n,):
        raise InvalidInput(
            f"forcing amplitude must have length {n}, got {forcing.amplitude.shape}")

    # the model owns these copies; read-only, they cannot drift from a
    # cache built on them
    for arr in (mass, damping, stiffness, contact_jacobian, gap_offset, restitution):
        arr.flags.writeable = False
    return LagrangianModel(n=n, m=m, mass=mass, damping=damping, stiffness=stiffness,
                           contact_jacobian=contact_jacobian, gap_offset=gap_offset,
                           restitution=restitution, forcing=forcing)


@dataclass
class SystemState:
    """Full per-instant state owned by one simulation run.

    Besides (t, q, v) it carries the auxiliary acceleration ``a`` of the
    averaging schemes and the three first-order filter states (z from
    displacement increments, x from velocity increments, y from load
    increments) that the energy audit tracks.  Only averaging steps
    advance them.  A theta step carries them over from its start state
    unchanged (the same arrays, not copies), so a state reached by theta
    steps is restarted under another scheme with
    ``initial_state(model, s.q, s.v, s.t)``.

    ``u`` and ``g`` are the contact-space image of (q, v): the contact
    velocities U = G^T v and the gaps g(q) = G^T q + w, formed once by
    the model's ``contact_image`` where q and v are made (by
    :func:`initial_state` and by each step) and read by the next step's
    contact stage and by the step records.
    They belong to the model the state was made for, so a state is
    stepped only with that model, and its q and v are never edited in
    place; ``simulate`` checks the image of its start state and rejects
    a stale one.

    ``a_tilde``, ``f_prev`` and ``v_prev`` are always None: nothing
    makes, advances or reads them.
    """

    t: float
    q: np.ndarray
    v: np.ndarray
    u: np.ndarray
    g: np.ndarray
    a: np.ndarray
    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    # declared only because perfbench/tracing.py reads them by name,
    # until ROADMAP item 2
    a_tilde: None = None
    f_prev: None = None
    v_prev: None = None


def initial_state(model: LagrangianModel, q0, v0, t0: float = 0.0) -> SystemState:
    """Consistent start state of ``model``: a0 balances the smooth equation of motion.

    Filter states start at zero, the contact image (u0, g0) is
    ``model.contact_image(q0, v0)``, as ``simulate``'s start check
    forms it, and ``a_tilde``, ``f_prev`` and ``v_prev`` stay None.  A
    state for another model, or a restart from a state reached under
    another scheme, is made here again:
    ``initial_state(model, s.q, s.v, s.t)``.

    Raises:
        InvalidInput: q0 or v0 of the wrong length, or NaN or infinity
            in q0, v0 or t0.
    """
    # copies: the state owns its q and v
    q0 = np.array(q0, dtype=float)
    v0 = np.array(v0, dtype=float)
    if q0.shape != (model.n,):
        raise InvalidInput(f"q0 must have length {model.n}, got {q0.shape}")
    if v0.shape != (model.n,):
        raise InvalidInput(f"v0 must have length {model.n}, got {v0.shape}")
    _check_finite(q0, "q0")
    _check_finite(v0, "v0")
    _check_finite(t0, "t0")
    f0 = model.forcing.evaluate(t0)
    a0 = np.linalg.solve(model.mass, f0 - model.stiffness @ q0 - model.damping @ v0)
    zeros = np.zeros(model.n)
    u0, g0 = model.contact_image(q0, v0)
    return SystemState(t=float(t0), q=q0, v=v0, u=u0, g=g0, a=a0,
                       z=zeros.copy(), x=zeros.copy(), y=zeros.copy())


@dataclass
class StepRecord:
    """Everything one step produced.

    The integrator fills the dynamic fields; ``report`` is the step's
    :class:`~nscontact.energy.EnergyReport` when the run was audited and
    None otherwise.  A record holds all the audit reads besides the
    run's cache: ``state_prev`` and ``state_next``, the impulse ``P`` and
    the local velocities ``U_prev`` and ``U_next``.  So an audit
    recomputed offline equals the one the run attached.  ``U_prev`` and
    ``U_next`` are the two states' ``u`` (the same arrays), so in a run
    a record's ``U_prev`` is the previous record's ``U_next``, and
    ``penetration`` is read off the end state's gaps ``g``.  ``w_corr``
    is always None: the impulse moves v and q only through the cache's
    impulse maps, so no step forms M^-1 G P.
    """

    step_index: int
    state_prev: SystemState
    state_next: SystemState
    P: np.ndarray
    U_prev: np.ndarray
    U_next: np.ndarray
    active_set: tuple[int, ...]
    penetration: float = 0.0
    report: EnergyReport | None = None
    # declared only because perfbench/tracing.py reads it by name, until
    # ROADMAP item 2
    w_corr: None = None
