"""Exception hierarchy shared across the package.

Every error raised by nscontact derives from :class:`NscontactError`, so
callers can catch the whole family with one clause.  Validation errors
name the offending field in their message.
"""

from __future__ import annotations


class NscontactError(Exception):
    """Base class for all nscontact errors."""


class DimensionMismatch(NscontactError):
    """An array does not have the dimensions required by the model."""


class NonSymmetric(NscontactError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(NscontactError):
    """A matrix fails its (semi-)definiteness requirement."""


class NonFiniteValue(NscontactError):
    """An input or a computed state holds NaN or infinity."""


class RestitutionOutOfRange(NscontactError):
    """A restitution coefficient lies outside [0, 1]."""


class InconsistentSpec(NscontactError):
    """Scheme parameters violate the constraints of the chosen variant."""


class LcpFailure(NscontactError):
    """A contact subproblem could not be solved to tolerance; names the reason."""


class SingularIterationMatrix(NscontactError):
    """The per-step iteration matrix is not finite or admits no Cholesky factorization."""


class NotAvailable(NscontactError):
    """No closed-form reference solution exists for this scenario."""


class InvalidSpec(NscontactError):
    """A scenario definition is malformed or out of range."""


class ConfigError(NscontactError):
    """A run-configuration file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SimulationError(NscontactError):
    """A step failed inside a simulation run; carries the step index."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index
