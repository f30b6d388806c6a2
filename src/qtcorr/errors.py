"""Exception hierarchy shared by all qtcorr modules."""


class QtcorrError(Exception):
    """Base class for every error raised by this package."""


class DomainError(QtcorrError, ValueError):
    """Invalid argument: parameter out of range, malformed spec string, or
    an operation evaluated outside its mathematical domain."""


class UnsupportedOperationError(DomainError):
    """The requested computation is not available for this object
    (e.g. conditional inversion for a copula that samples another way)."""


class NumericalError(QtcorrError, ArithmeticError):
    """Quadrature non-convergence, tail-sensitive (likely divergent)
    integral, or a non-finite intermediate value."""


class DegenerateError(NumericalError):
    """A covariance denominator collapsed to (numerical) zero."""
