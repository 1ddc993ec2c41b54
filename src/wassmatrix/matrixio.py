"""Squared-distance matrix containers and bit-exact persistence.

A ``DistanceMatrix`` couples an N x N value array with an observation
mask and a kind tag: FULL (every entry computed), PARTIAL (only masked
entries are meaningful), or ESTIMATED (every entry filled in by a
completion algorithm).  A column-sampled matrix is a
``nystrom.ColumnBlock``: its columns C = D(:, I) and the indices I, a
PARTIAL one the computed columns of a column plan, an ESTIMATED one the
Nystrom estimate C U^+ C^T with U = C(I, :).  Both layouts round-trip
bitwise; all integers and floats are little-endian.

Dense (a ``DistanceMatrix``)::

    8 bytes  magic ``W2DMAT01``
    8 bytes  N as uint64
    8*N*N    values, row-major float64
    N*N      mask bytes (0/1)
    1 byte   kind (0=FULL, 1=PARTIAL, 2=ESTIMATED)

Columns (a ``nystrom.ColumnBlock``)::

    8 bytes  magic ``W2DCOL01``
    8 bytes  N as uint64
    8 bytes  c as uint64
    8*c      indices I, strictly increasing int64
    8*N*c    block C, row-major float64
    1 byte   kind (1=PARTIAL, 2=ESTIMATED)

``load`` returns a ``DistanceMatrix`` for either layout: a column file
expands to what its block's ``matrix()`` gives, the values and mask of
the column plan (PARTIAL, or FULL when c >= N - 1 columns cover every
entry) or the sanitized estimate ``ColumnBlock.estimate_rows`` gives
(ESTIMATED), as ``relative_error`` compares it.  ``load(path,
expand=False)`` returns a column file as its ``ColumnBlock``, without
forming the N x N matrix; a dense file comes back as it is.

Each N x N array is made once.  A ``DistanceMatrix`` copies an input
array only while a caller can still write it; the producers
(``ot.w2_matrix``, ``load``, ``sanitized_estimate``,
``ColumnBlock.matrix``) hand theirs over frozen, and a dense ``load``
keeps values and mask as views of the bytes it read, as ``save``
writes each array from its own memory.  The invariant checks and
``relative_error`` of a column estimate work in row blocks of at most
``BLOCK_ENTRIES`` entries instead of N x N temporaries.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantViolation, NumericalError, UsageError

MAGIC = b"W2DMAT01"
COLUMNS_MAGIC = b"W2DCOL01"


class MatrixKind(enum.Enum):
    FULL = 0
    PARTIAL = 1
    ESTIMATED = 2


CENTER_TOL = 1e-8  # largest column sum/mean accepted as centred


BLOCK_ENTRIES = 1 << 16  # entries per row block of a pass over an N x N array


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it (for frozen dataclass fields)."""
    a.flags.writeable = False
    return a


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only array of ``dtype``: ``a`` itself when no caller
    can write it any more (it and every array it views are read-only,
    down to memory of their own or a ``bytes`` object), else a frozen
    copy."""
    if isinstance(a, np.ndarray) and a.dtype == dtype:
        base = a
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None or isinstance(base, bytes):
            return a
    return freeze(np.array(a, dtype=dtype))


def row_blocks(n: int) -> list[tuple[int, int]]:
    """Row ranges (start, stop) covering an n x n array in blocks of at
    most ``BLOCK_ENTRIES`` entries (one row at least)."""
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    return [(start, min(start + step, n)) for start in range(0, n, step)]


# The checks of a DistanceMatrix, in the order they are made: the first
# one that fails anywhere in the matrix is the error raised.
_CHECKS = (
    "observed values must be finite",
    "values must be exactly symmetric",
    "mask must be exactly symmetric",
    "diagonal must be identically zero",
    "diagonal must be marked observed",
    "{kind} matrices need an all-true mask",
    "observed squared distances must be >= 0",
)


def _block_checks(values, mask, kind, start, stop):
    """Whether rows start:stop pass each of ``_CHECKS``, lazily and in
    order.  A symmetry check compares the block's rows from column
    ``start`` on with the matching columns, which covers every pair
    (i, j), i <= j, once the blocks cover every row."""
    rows, marks = values[start:stop], mask[start:stop]
    yield bool(np.all(np.isfinite(rows) | ~marks))
    yield np.array_equal(values[start:stop, start:], values[start:, start:stop].T)
    yield np.array_equal(mask[start:stop, start:], mask[start:, start:stop].T)
    yield not np.any(np.diagonal(rows, start) != 0.0)
    yield bool(np.all(np.diagonal(marks, start)))
    yield kind is MatrixKind.PARTIAL or bool(marks.all())
    yield kind is MatrixKind.ESTIMATED or not np.any((rows < 0) & marks)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric squared-distance matrix with observation mask."""

    values: np.ndarray
    mask: np.ndarray
    kind: MatrixKind

    def __init__(self, values, mask, kind: MatrixKind):
        values = _frozen(values, np.float64)
        mask = _frozen(mask, bool)
        kind = MatrixKind(kind)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise InvariantViolation(f"values must be square, got {values.shape}")
        if mask.shape != values.shape:
            raise InvariantViolation("mask shape differs from values shape")
        first = len(_CHECKS)
        for start, stop in row_blocks(values.shape[0]):
            checks = _block_checks(values, mask, kind, start, stop)
            first = next((k for k, ok in zip(range(first), checks) if not ok),
                         first)
        if first < len(_CHECKS):
            raise InvariantViolation(_CHECKS[first].format(kind=kind.name))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "kind", kind)

    # --- constructors -------------------------------------------------------

    @staticmethod
    def full(values) -> "DistanceMatrix":
        values = np.asarray(values, dtype=np.float64)
        return DistanceMatrix(values, freeze(np.ones(values.shape, bool)),
                              MatrixKind.FULL)

    @staticmethod
    def partial(values, mask) -> "DistanceMatrix":
        return DistanceMatrix(values, mask, MatrixKind.PARTIAL)

    @staticmethod
    def estimated(values) -> "DistanceMatrix":
        values = np.asarray(values, dtype=np.float64)
        return DistanceMatrix(values, freeze(np.ones(values.shape, bool)),
                              MatrixKind.ESTIMATED)

    # --- views ----------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def observed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) with i < j of observed off-diagonal entries,
        in row-major order."""
        return np.nonzero(np.triu(self.mask, 1))


def sanitized_rows(rows: np.ndarray, transposed: np.ndarray,
                   start: int) -> np.ndarray:
    """Rows start:start+k of the sanitized estimate of raw values V, made
    in place in ``rows`` (those rows of V) from the same rows of V^T:
    averaged, a zero diagonal, clamped at 0.  The one sanitizing rule,
    for ``sanitized_estimate`` (all rows) and
    ``ColumnBlock.estimate_rows`` (a row block at a time)."""
    rows += transposed
    rows *= 0.5
    k = rows.shape[0]
    rows[np.arange(k), np.arange(start, start + k)] = 0.0
    np.maximum(rows, 0.0, out=rows)
    return rows


def sanitized_estimate(values: np.ndarray) -> DistanceMatrix:
    """ESTIMATED matrix of raw ``values``: symmetrized, zero diagonal, >= 0."""
    return DistanceMatrix.estimated(
        freeze(sanitized_rows(np.array(values), values.T, 0)))


# --- persistence --------------------------------------------------------------

def save(obj, path) -> None:
    """Write a ``DistanceMatrix`` densely and a ``nystrom.ColumnBlock`` as
    its columns, each array straight from its memory to the file."""
    if isinstance(obj, DistanceMatrix):
        parts = [MAGIC + struct.pack("<Q", obj.size),
                 np.ascontiguousarray(obj.values, dtype="<f8"),
                 np.ascontiguousarray(obj.mask).view(np.uint8)]
    else:
        n, c = obj.columns.shape
        parts = [COLUMNS_MAGIC + struct.pack("<QQ", n, c),
                 obj.indices.astype("<i8"),
                 np.ascontiguousarray(obj.columns, dtype="<f8")]
    with open(path, "wb") as fh:
        for part in parts + [bytes([obj.kind.value])]:
            fh.write(part)


def load(path, *, expand: bool = True):
    """Read a ``.w2m`` file of either layout as a ``DistanceMatrix``.

    With ``expand=False`` a column file comes back as its
    ``nystrom.ColumnBlock``, without forming the N x N matrix.
    """
    data = Path(path).read_bytes()
    head = len(MAGIC) + 8
    if len(data) < head:
        raise FormatError(f"{path}: truncated header")
    magic = data[:len(MAGIC)]
    columns = magic == COLUMNS_MAGIC
    if columns:
        if len(data) < head + 8:
            raise FormatError(f"{path}: truncated header")
        n, c = struct.unpack_from("<QQ", data, len(MAGIC))
        head += 8
        need = head + 8 * c + 8 * n * c + 1
    elif magic == MAGIC:
        (n,) = struct.unpack_from("<Q", data, len(MAGIC))
        need = head + 8 * n * n + n * n + 1
    else:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if len(data) != need:
        raise FormatError(f"{path}: expected {need} bytes, got {len(data)}")
    kind_byte = data[-1]
    try:
        kind = MatrixKind(kind_byte)
    except ValueError as exc:
        raise FormatError(f"{path}: unknown kind byte {kind_byte}") from exc
    try:
        if columns:
            indices = np.frombuffer(data, dtype="<i8", count=c, offset=head)
            block = np.frombuffer(data, dtype="<f8", count=n * c,
                                  offset=head + 8 * c).reshape(n, c)
            from .nystrom import ColumnBlock  # imports this module
            stored = ColumnBlock(block, indices, kind)
            return stored.matrix() if expand else stored
        values = np.frombuffer(data, dtype="<f8", count=n * n, offset=head)
        mask = np.frombuffer(data, dtype=np.uint8, count=n * n,
                             offset=head + 8 * n * n)
        # bytes of 0 and 1 are bools as they stand; any other nonzero
        # byte reads as True, which takes a copy
        mask = mask.view(bool) if mask.max(initial=0) <= 1 else freeze(mask != 0)
        return DistanceMatrix(values.reshape(n, n), mask.reshape(n, n), kind)
    except InvariantViolation as exc:
        raise FormatError(f"{path}: {exc}") from exc


# --- evaluation ----------------------------------------------------------------

def relative_error(estimate, truth: DistanceMatrix) -> float:
    """Frobenius relative error ||D_est - D||_F / ||D||_F of a FULL or
    ESTIMATED estimate against a FULL truth.  An ESTIMATED
    ``nystrom.ColumnBlock`` is compared one row block at a time
    (``ColumnBlock.estimate_rows``), without forming its N x N matrix;
    its ``matrix()`` mirrors those rows' upper triangle, so the error of
    the block and of that matrix agree only to round-off once N spans
    more than one row block."""
    if estimate.size != truth.size:
        raise UsageError(f"estimate is {estimate.size}, truth {truth.size}")
    if estimate.kind is MatrixKind.PARTIAL:
        raise UsageError("estimate matrix must not be of kind PARTIAL")
    if truth.kind is not MatrixKind.FULL:
        raise UsageError("truth matrix must be of kind FULL")
    denom = float(np.linalg.norm(truth.values))
    if denom == 0.0:
        raise NumericalError("truth matrix has zero Frobenius norm")
    if isinstance(estimate, DistanceMatrix):
        return float(np.linalg.norm(estimate.values - truth.values) / denom)
    total = 0.0
    for start, stop, rows in estimate.estimate_rows():
        rows -= truth.values[start:stop]
        total += float(np.dot(rows.ravel(), rows.ravel()))
    return float(np.sqrt(total) / denom)
