"""Exception types shared across the package.

Validation errors always name the offending magnitude in their message so
that callers (and the CLI) can report exactly which invariant failed and by
how much.
"""


class CoherenceError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CoherenceError):
    """A domain-type invariant does not hold for the given input."""


class NotFiniteError(ValidationError):
    """Matrix has NaN or infinite entries."""


class NotHermitianError(ValidationError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class TraceNotOneError(ValidationError):
    """Trace deviates from 1 beyond tolerance."""


class NotPSDError(ValidationError):
    """Smallest eigenvalue is below the PSD tolerance."""


class NotOrthonormalError(ValidationError):
    """Vectors fail pairwise orthonormality beyond tolerance."""


class WeightsNotNormalizedError(ValidationError):
    """Weights are negative or do not sum to 1."""


class PointsNotDistinctError(ValidationError):
    """Two sample points coincide within the distinctness threshold."""


class DimensionMismatchError(CoherenceError):
    """Operands live in spaces of different dimensions."""


class DegenerateSpectrumError(CoherenceError):
    """An operation requiring a non-degenerate spectrum met a repeated eigenvalue."""


class ConvergenceFailureError(CoherenceError):
    """The eigensolver failed to converge or produced an unusable decomposition."""


class CounterexampleNotFoundError(CoherenceError):
    """A counterexample search exhausted its scan range without success."""


class MatrixParseError(CoherenceError):
    """A matrix text file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
