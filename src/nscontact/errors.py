"""Exception hierarchy shared across the package.

Every error raised by nscontact derives from :class:`NscontactError`, so
callers can catch the whole family with one clause.  Validation errors
name the offending field in their message.
"""

from __future__ import annotations


class NscontactError(Exception):
    """Base class for all nscontact errors."""


class InvalidInput(NscontactError):
    """A model, scheme, scenario or LCP input is malformed or out of range.

    The message names the field.
    """


class LcpFailure(NscontactError):
    """A contact subproblem could not be solved to tolerance; names the reason."""


class SingularIterationMatrix(NscontactError):
    """The per-step iteration matrix is not finite or admits no Cholesky factorization."""


class NotAvailable(NscontactError):
    """No closed-form reference solution exists for this scenario."""


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
