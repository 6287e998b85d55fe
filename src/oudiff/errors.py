"""Exception types shared across the package."""


class OudiffError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(OudiffError, ValueError):
    """An argument lies outside the documented domain."""


class UnsupportedShape(OudiffError, TypeError):
    """A matrix or model lacks the structure an operation requires."""


class SingularMatrix(OudiffError, ArithmeticError):
    """Determinant too small for a reliable inverse."""


class NotPositiveDefinite(OudiffError, ArithmeticError):
    """A covariance block is not symmetric positive definite."""


class UnstableAtTime(OudiffError):
    """The confining condition on the reverse drift fails at some time."""

    def __init__(self, t: float, message: str | None = None):
        self.t = float(t)
        super().__init__(message or f"reverse drift not confining at t={self.t!r}")


class DegenerateDrift(OudiffError):
    """The drift operator M + sW2*C(t)^-1 is singular at some time."""

    def __init__(self, t: float, message: str | None = None):
        self.t = float(t)
        super().__init__(message or f"degenerate drift operator at t={self.t!r}")


class DegenerateRate(OudiffError, ArithmeticError):
    """sW2/s2 coincides with beta, so the t=0 closed form is singular."""


class CgfDomainError(OudiffError, ArithmeticError):
    """Cumulant generating function evaluated outside its domain."""


class NoCollapse(OudiffError):
    """No finite collapse time exists (entropy density not positive)."""


class KernelDegenerate(OudiffError, ArithmeticError):
    """Transition kernel has zero width (t=0), so weights are undefined."""


class UndefinedLabel(OudiffError):
    """A mode has no mean direction to project on, so labels are undefined."""
