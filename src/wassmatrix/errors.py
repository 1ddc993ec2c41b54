"""Exception hierarchy shared across the package.

``WassmatrixError`` is the common base so callers can catch everything
from this library with a single except clause.  ``UsageError`` groups
bad-input conditions (wrong shapes, malformed files, inconsistent
configuration); ``NumericalError`` groups failures of the numerical
machinery itself (non-convergent solves, degenerate instances).
"""


class WassmatrixError(Exception):
    """Base class for all errors raised by wassmatrix."""


class UsageError(WassmatrixError):
    """Invalid input, file, or configuration."""


class NumericalError(WassmatrixError):
    """A numerical routine failed on an otherwise valid input."""


# --- input / construction errors -------------------------------------------

class DimensionMismatch(UsageError):
    """Operands live in different ambient dimensions."""


class AllPixelsBelowThreshold(UsageError):
    """No pixel exceeds the ingestion threshold, so no measure exists."""


class NonpositiveScale(UsageError):
    """Dilation factors must be strictly positive."""


class InvariantViolation(UsageError):
    """A domain type was constructed with inconsistent contents."""


class FormatError(UsageError):
    """A persisted file is malformed (bad magic, truncation, asymmetry)."""


class SizeMismatch(UsageError):
    """Two matrices that must share a size do not."""


class ShapeMismatch(UsageError):
    """Two arrays that must share a shape do not."""


class NotCentered(UsageError):
    """An embedding expected to have zero column means does not."""


class EmptyPlan(UsageError):
    """A sample plan or observation set came out empty."""


class CountOutOfRange(UsageError):
    """A requested column count is outside [1, N]."""


class DimensionOutOfRange(UsageError):
    """A requested embedding dimension is outside [1, N-1]."""


class IndexOutOfRange(UsageError):
    """An entry index falls outside the matrix."""


class UnsupportedInstance(UsageError):
    """The brute-force oracle only handles small uniform instances."""


class EmptyTrainSet(UsageError):
    """Classification needs at least one training point."""


class DegenerateClasses(UsageError):
    """LDA needs >= 2 classes with >= 2 training points each."""


class ConfigError(UsageError):
    """Mutually inconsistent experiment configuration."""


# --- numerical failures -----------------------------------------------------

class SolverFailure(NumericalError):
    """The transportation solver did not return an optimal plan."""


class Diverged(NumericalError):
    """The completion residual grew for the configured patience window."""


class DegenerateCore(NumericalError):
    """The Nystrom core block is identically zero while columns are not."""


class ZeroTruth(NumericalError):
    """Relative error against an identically-zero truth matrix."""
