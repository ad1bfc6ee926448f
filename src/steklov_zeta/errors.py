"""Exception types shared across the library."""


class SteklovZetaError(Exception):
    """Base class for all library errors."""


class BackendMismatch(SteklovZetaError):
    """An operation received a mix of exact-rational and float data."""


class GridTooSmall(SteklovZetaError, ValueError):
    """A sampling grid cannot resolve the requested degree."""


class NotReal(SteklovZetaError):
    """A real (conjugate-symmetric) series was required."""


class NotPositive(SteklovZetaError):
    """A positive function on the circle was required."""


class NonZeroSum(SteklovZetaError, ValueError):
    """A zero-sum multi-index was required."""


class WrongSum(SteklovZetaError, ValueError):
    """A multi-index with a specific (nonzero) sum was required."""


class UnknownBracket(SteklovZetaError):
    """The requested generator pair is not in the bracket tables."""


class TruncationTooSmall(SteklovZetaError, ValueError):
    """Operator truncation is below the exactness threshold."""


class DegenerateDenominator(SteklovZetaError):
    """A normalizing denominator vanished (no frequencies >= 2)."""


class NotHermitian(SteklovZetaError):
    """A Hermitian matrix was required."""
