"""Typed errors shared across the library.

Each error marks a specific contract violation; the CLI maps them onto
distinct exit codes (invalid input vs. internal cross-check vs. iteration
failure).
"""


class QopucError(Exception):
    """Base class for all library errors."""


class NotInImage(QopucError):
    """A 2x2 matrix failed the structural test for the quaternion embedding.

    Signals that a computation left the quaternionic subalgebra; a hard
    diagnostic, not a recoverable state.
    """


class NoConvergence(QopucError):
    """An iterative solver exhausted its iteration budget."""


class SingularConstantTerm(QopucError):
    """Series inversion attempted with a (near-)singular constant coefficient."""


class ShiftResidual(QopucError):
    """The degree-0 coefficient that should vanish before a shift did not."""


class NotContraction(QopucError):
    """A coefficient that must be a strict contraction is not."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ConstantMismatch(QopucError):
    """Schur-step input whose constant coefficient disagrees with alpha."""


class HorizonExceeded(QopucError):
    """A request needs moments beyond the stored horizon."""


class NotPositiveDefinite(QopucError):
    """A Toeplitz form required to be positive definite is not."""

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order


class RouteMismatch(QopucError):
    """Two independent computation routes disagreed beyond tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegreeTooSmall(QopucError):
    """Reversal requested at a degree below the polynomial degree."""
