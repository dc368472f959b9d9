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
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInput

if TYPE_CHECKING:
    from .energy import EnergyReport

# Relative tolerances used by build_model validation.  Strict bitwise
# symmetry would be brittle for user-assembled matrices; rank-deficient
# stiffness (free-free chains) must pass the semi-definiteness check.
SYMMETRY_RTOL = 1e-12
EIGENVALUE_RTOL = 1e-10


# ----------------------------------------------------------------------
# external forcing
# ----------------------------------------------------------------------

class ForcingKind(str, enum.Enum):
    CONSTANT = "constant"
    SINUSOIDAL = "sinusoidal"
    PIECEWISE_CONSTANT = "piecewise_constant"


@dataclass(frozen=True)
class ForcingTerm:
    """External force ``F(t)``, restricted to analytic forms.

    Only point evaluations are ever needed (the load filter of the
    energy audit consumes force increments between grid points), so no
    derivative interface exists.
    """

    kind: ForcingKind
    amplitude: np.ndarray                      # n-vector
    omega: float = 0.0
    phase: float = 0.0
    breakpoints: tuple[float, ...] = ()
    values: tuple[tuple[float, ...], ...] = ()  # len(breakpoints)+1 segments

    def __post_init__(self):
        # the term owns a read-only copy, so a write into the caller's
        # array cannot change a model's load
        amplitude = np.array(self.amplitude, dtype=float)
        amplitude.flags.writeable = False
        object.__setattr__(self, "amplitude", amplitude)

    @staticmethod
    def zero(n: int) -> "ForcingTerm":
        return ForcingTerm.constant(np.zeros(n))

    @staticmethod
    def constant(amplitude) -> "ForcingTerm":
        return ForcingTerm(ForcingKind.CONSTANT, amplitude)

    @staticmethod
    def sinusoidal(amplitude, omega: float, phase: float = 0.0) -> "ForcingTerm":
        return ForcingTerm(ForcingKind.SINUSOIDAL, amplitude, omega=float(omega),
                           phase=float(phase))

    @staticmethod
    def piecewise_constant(breakpoints, values) -> "ForcingTerm":
        """Segment ``i`` holds on [breakpoints[i-1], breakpoints[i])."""
        bp = tuple(float(b) for b in breakpoints)
        if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise InvalidInput("piecewise breakpoints must be strictly increasing")
        vals = tuple(tuple(float(x) for x in np.atleast_1d(v)) for v in values)
        if len(vals) != len(bp) + 1:
            raise InvalidInput(
                f"piecewise forcing needs {len(bp) + 1} segment values, got {len(vals)}")
        return ForcingTerm(ForcingKind.PIECEWISE_CONSTANT, vals[0], breakpoints=bp,
                           values=vals)

    def evaluate(self, t: float) -> np.ndarray:
        if self.kind is ForcingKind.CONSTANT:
            return self.amplitude.copy()
        if self.kind is ForcingKind.SINUSOIDAL:
            return self.amplitude * math.sin(self.omega * t + self.phase)
        seg = int(np.searchsorted(np.asarray(self.breakpoints), t, side="right"))
        return np.asarray(self.values[seg], dtype=float)


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
    parameterize the acceleration-based family.  The derived filter
    constants ``nu`` and ``eta`` drive the energy audit.
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

    @property
    def load_weight(self) -> float:
        """Weight alpha_c of the start-of-step load and damping force.

        The averaging twin of ``displacement_weight``: alpha_m for KH
        generalized-alpha, which weights load and damping like the
        inertia term, and alpha_f for Newmark, HHT and generalized-alpha,
        which weight them like the stiffness term.  Unused by the theta
        family.
        """
        if self.variant is SchemeVariant.NONSMOOTH_KH_GENERALIZED_ALPHA:
            return self.alpha_m
        return self.alpha_f

    # derived filter constants of the averaging family
    @property
    def nu(self) -> float:
        return 0.5 - self.alpha_m

    @property
    def eta(self) -> float:
        return self.alpha_f - self.alpha_m

    @property
    def eta_over_nu(self) -> float:
        """Finite ratio eta/nu.

        At the minimal-damping corner (alpha_m = alpha_f = 1/2, i.e.
        spectral radius one) both constants vanish; the limit along the
        spectral-radius parameterization is 2/3.  The filter states are
        identically zero there, so the placeholder never contributes.
        """
        if self.nu != 0.0:
            return self.eta / self.nu
        return 2.0 / 3.0

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

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs; a run needs it twice, for a_0 and for M^{-1} G."""
        return np.linalg.solve(self.mass, rhs)

    def force(self, t: float) -> np.ndarray:
        return self.forcing.evaluate(t)


def _check_finite(a, name: str) -> None:
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} contains NaN or infinity")


def _check_forcing_finite(forcing: ForcingTerm) -> None:
    _check_finite(forcing.amplitude, "forcing amplitude")
    _check_finite([forcing.omega, forcing.phase], "forcing omega/phase")
    _check_finite(forcing.breakpoints, "forcing breakpoints")
    for segment in forcing.values:
        _check_finite(segment, "forcing values")


def _check_symmetric(a: np.ndarray, name: str) -> None:
    skew = np.abs(a - a.T).max(initial=0.0)
    if skew > SYMMETRY_RTOL * (1.0 + np.abs(a).max(initial=0.0)):
        raise InvalidInput(f"{name} is not symmetric (max skew {skew:.3e})")


def _check_psd(a: np.ndarray, name: str) -> None:
    eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
    floor = -EIGENVALUE_RTOL * max(np.abs(eigs).max(initial=0.0), 1e-300)
    if eigs.min(initial=0.0) < floor:
        raise InvalidInput(
            f"{name} has eigenvalue {eigs.min():.3e} below the semi-definite floor")


def build_model(mass, damping, stiffness, contact_jacobian, gap_offset,
                restitution, forcing: ForcingTerm) -> LagrangianModel:
    """Validate and assemble a model.

    The model owns copies of its matrices, offsets and restitution
    coefficients, all read-only: writing into one raises ``ValueError``.

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
    _check_forcing_finite(forcing)

    _check_symmetric(mass, "mass")
    _check_symmetric(damping, "damping")
    _check_symmetric(stiffness, "stiffness")
    try:
        np.linalg.cholesky(mass)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput(f"mass is not positive definite: {exc}") from exc
    _check_psd(damping, "damping")
    _check_psd(stiffness, "stiffness")

    if np.any(restitution < 0.0) or np.any(restitution > 1.0):
        raise InvalidInput(f"restitution {restitution} outside [0, 1]")

    for i, segment in enumerate(forcing.values):
        if len(segment) != n:
            raise InvalidInput(
                f"forcing segment {i} must have length {n}, got {len(segment)}")
    f0 = np.atleast_1d(np.asarray(forcing.evaluate(0.0), dtype=float))
    if f0.shape != (n,):
        raise InvalidInput(f"forcing must evaluate to length {n}, got {f0.shape}")

    # the model owns these copies; read-only, they cannot drift from a
    # cache built on them
    for arr in (mass, damping, stiffness, contact_jacobian, gap_offset, restitution):
        arr.flags.writeable = False
    return LagrangianModel(n=n, m=m, mass=mass, damping=damping, stiffness=stiffness,
                           contact_jacobian=contact_jacobian, gap_offset=gap_offset,
                           restitution=restitution, forcing=forcing)


def gap(model: LagrangianModel, q: np.ndarray) -> np.ndarray:
    """Contact gaps g(q) = G^T q + w; nonnegative means separated."""
    q = np.asarray(q, dtype=float)
    if q.shape != (model.n,):
        raise InvalidInput(f"q must have length {model.n}, got {q.shape}")
    return model.contact_jacobian.T @ q + model.gap_offset


def local_velocity(model: LagrangianModel, v: np.ndarray) -> np.ndarray:
    """Normal relative velocities at the contacts, U = G^T v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n,):
        raise InvalidInput(f"v must have length {model.n}, got {v.shape}")
    return model.contact_jacobian.T @ v


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

    ``a_tilde``, ``f_prev`` and ``v_prev`` are set by
    :func:`initial_state` and no step advances or reads them: every step
    carries them over like a theta step carries ``a``.
    """

    t: float
    q: np.ndarray
    v: np.ndarray
    a: np.ndarray
    a_tilde: np.ndarray
    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    f_prev: np.ndarray
    v_prev: np.ndarray


def initial_state(model: LagrangianModel, q0, v0, t0: float = 0.0) -> SystemState:
    """Consistent start state: a0 balances the smooth equation of motion.

    Filter states start at zero.

    Raises:
        InvalidInput: q0 or v0 of the wrong length, or NaN or infinity
            in q0, v0 or t0.
    """
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if q0.shape != (model.n,):
        raise InvalidInput(f"q0 must have length {model.n}, got {q0.shape}")
    if v0.shape != (model.n,):
        raise InvalidInput(f"v0 must have length {model.n}, got {v0.shape}")
    _check_finite(q0, "q0")
    _check_finite(v0, "v0")
    _check_finite(t0, "t0")
    f0 = model.force(t0)
    a0 = model.solve_mass(f0 - model.stiffness @ q0 - model.damping @ v0)
    zeros = np.zeros(model.n)
    return SystemState(t=float(t0), q=q0.copy(), v=v0.copy(), a=a0, a_tilde=a0.copy(),
                       z=zeros.copy(), x=zeros.copy(), y=zeros.copy(),
                       f_prev=f0, v_prev=v0.copy())


@dataclass
class StepRecord:
    """Everything one step produced.

    The integrator fills the dynamic fields; ``report`` is the step's
    :class:`~nscontact.energy.EnergyReport` when the run was audited and
    None otherwise.  ``state_prev`` and ``state_next`` are kept so that
    audits can be recomputed offline.
    """

    step_index: int
    state_prev: SystemState
    state_next: SystemState
    P: np.ndarray
    U_prev: np.ndarray
    U_next: np.ndarray
    w_corr: np.ndarray
    active_set: tuple[int, ...]
    penetration: float = 0.0
    report: EnergyReport | None = None
