"""Exception types shared across the package, and the number form of their
messages."""
import sys


class HexdimerError(Exception):
    """Base class for all package-specific errors."""


class OracleSizeError(HexdimerError):
    """Brute-force enumeration request exceeds the combinatorial size guard."""


class EmbeddingError(HexdimerError):
    """Hexagon embedding failed a structural sanity check."""


class SingularMatrixError(HexdimerError):
    """Kasteleyn determinant vanished; the partition function is positive, so
    this indicates an embedding or weighting bug."""


class ConvergenceError(HexdimerError):
    """An iterative evaluation hit its cap before reaching the requested
    tolerance.  Carries the partial result when one is available."""

    def __init__(self, message, partial=None, achieved=None):
        super().__init__(message)
        self.partial = partial
        self.achieved = achieved


class IllConditionedBasisError(HexdimerError):
    """Least-squares design matrix condition estimate exceeded the guard."""


def _shown(x: float, spec: str) -> str:
    """x in spec form; an int beyond the float range, which float() and float
    formats cannot take, as a bound."""
    if isinstance(x, int) and x > sys.float_info.max:
        return f"over {sys.float_info.max:.4g}"
    return format(x, spec)
