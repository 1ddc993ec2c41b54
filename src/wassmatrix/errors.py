"""Exception hierarchy shared across the package: one family per exit code.

``WassmatrixError`` is the common base so callers can catch everything
from this library with a single except clause.  Below it are two
families, and ``wassmatrix`` (``cli.main``) maps each to an exit code:

* ``UsageError`` -- bad input: wrong shapes or sizes, out-of-range
  counts, malformed files, inconsistent configuration.  Exit 1.  It is
  also a ``ValueError``, so one ``except ValueError`` catches every
  bad-input path, including the plain ``ValueError`` raises.
* ``NumericalError`` -- the numerical machinery failed on a valid
  input: a solver without an optimal plan, a diverging completion, a
  degenerate Nystrom core, an all-zero truth matrix.  Exit 2.

A raise site names its condition in the message, not in a subclass.
The subclasses kept are the ones with a reader of their type or a
documented failure:

* ``InvariantViolation`` -- a domain type was built with inconsistent
  contents; ``matrixio.load`` re-raises it as ``FormatError``.
* ``FormatError`` -- the documented failure for a malformed file.
* ``SolverFailure`` and ``Diverged`` -- the documented failures of the
  transport LP and of matrix completion.
"""


class WassmatrixError(Exception):
    """Base class for all errors raised by wassmatrix."""


class UsageError(WassmatrixError, ValueError):
    """Invalid input, file, or configuration (exit 1)."""


class NumericalError(WassmatrixError):
    """A numerical routine failed on an otherwise valid input (exit 2)."""


class InvariantViolation(UsageError):
    """A domain type was constructed with inconsistent contents."""


class FormatError(UsageError):
    """A persisted file is malformed (bad magic, truncation, asymmetry)."""


class SolverFailure(NumericalError):
    """The transportation solver did not return an optimal plan."""


class Diverged(NumericalError):
    """The completion residual became non-finite (NaN or infinite)."""
