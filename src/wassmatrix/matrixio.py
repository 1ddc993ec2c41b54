"""Squared-distance matrix containers and bit-exact persistence.

A ``DistanceMatrix`` couples an N x N value array with an observation
mask and a kind tag: FULL (every entry computed), PARTIAL (only masked
entries are meaningful), or ESTIMATED (every entry filled in by a
completion algorithm).  ``Columns`` holds a column-sampled matrix as its
block C = D(:, I) and the indices I: a PARTIAL one is the computed
columns of a column plan, an ESTIMATED one the Nystrom estimate
C U^+ C^T with U = C(I, :).  Both layouts round-trip bitwise; all
integers and floats are little-endian.

Dense (a ``DistanceMatrix``)::

    8 bytes  magic ``W2DMAT01``
    8 bytes  N as uint64
    8*N*N    values, row-major float64
    N*N      mask bytes (0/1)
    1 byte   kind (0=FULL, 1=PARTIAL, 2=ESTIMATED)

Columns (a ``Columns``)::

    8 bytes  magic ``W2DCOL01``
    8 bytes  N as uint64
    8 bytes  c as uint64
    8*c      indices I, strictly increasing int64
    8*N*c    block C, row-major float64
    1 byte   kind (1=PARTIAL, 2=ESTIMATED)

``load`` returns a ``DistanceMatrix`` for either layout: a PARTIAL
column file expands to the values and mask of the column plan, an
ESTIMATED one to the sanitized product ``nystrom.complete_nystrom``
gives.  ``load(path, expand=False)`` returns a column file as its
``Columns``, without forming the N x N matrix.
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


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it (for frozen dataclass fields)."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric squared-distance matrix with observation mask."""

    values: np.ndarray
    mask: np.ndarray
    kind: MatrixKind

    def __init__(self, values, mask, kind: MatrixKind):
        values = np.array(values, dtype=np.float64)
        mask = np.array(mask, dtype=bool)
        kind = MatrixKind(kind)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise InvariantViolation(f"values must be square, got {values.shape}")
        if mask.shape != values.shape:
            raise InvariantViolation("mask shape differs from values shape")
        if not np.all(np.isfinite(values[mask])):
            raise InvariantViolation("observed values must be finite")
        if not np.array_equal(values, values.T):
            raise InvariantViolation("values must be exactly symmetric")
        if not np.array_equal(mask, mask.T):
            raise InvariantViolation("mask must be exactly symmetric")
        if np.any(np.diagonal(values) != 0.0):
            raise InvariantViolation("diagonal must be identically zero")
        if not np.all(np.diagonal(mask)):
            raise InvariantViolation("diagonal must be marked observed")
        if kind in (MatrixKind.FULL, MatrixKind.ESTIMATED) and not mask.all():
            raise InvariantViolation(f"{kind.name} matrices need an all-true mask")
        if kind is not MatrixKind.ESTIMATED and np.any(values[mask] < 0):
            raise InvariantViolation("observed squared distances must be >= 0")
        object.__setattr__(self, "values", freeze(values))
        object.__setattr__(self, "mask", freeze(mask))
        object.__setattr__(self, "kind", kind)

    # --- constructors -------------------------------------------------------

    @staticmethod
    def full(values) -> "DistanceMatrix":
        values = np.asarray(values, dtype=np.float64)
        return DistanceMatrix(values, np.ones(values.shape, bool), MatrixKind.FULL)

    @staticmethod
    def partial(values, mask) -> "DistanceMatrix":
        return DistanceMatrix(values, mask, MatrixKind.PARTIAL)

    @staticmethod
    def estimated(values) -> "DistanceMatrix":
        values = np.asarray(values, dtype=np.float64)
        return DistanceMatrix(values, np.ones(values.shape, bool),
                              MatrixKind.ESTIMATED)

    # --- views ----------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def observed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) with i < j of observed off-diagonal entries."""
        iu, ju = np.triu_indices(self.size, k=1)
        sel = self.mask[iu, ju]
        return iu[sel], ju[sel]


def sanitized_estimate(values: np.ndarray) -> DistanceMatrix:
    """ESTIMATED matrix of raw ``values``: symmetrized, zero diagonal, >= 0."""
    d = 0.5 * (values + values.T)
    np.fill_diagonal(d, 0.0)
    np.maximum(d, 0.0, out=d)
    return DistanceMatrix.estimated(d)


@dataclass(frozen=True)
class Columns:
    """Columns C = D(:, I) of an N x N squared-distance matrix, with I.

    ``indices`` are strictly increasing and the core C(I, :) is exactly
    symmetric with a zero diagonal.  A PARTIAL block stands for the
    matrix that observes exactly its rows and columns, so it has at most
    N - 2 columns (N - 1 observe every entry), and its entries are
    finite and >= 0.  An ESTIMATED block stands for the Nystrom
    estimate; :meth:`matrix` gives the ``DistanceMatrix`` of either.
    """

    block: np.ndarray
    indices: np.ndarray
    kind: MatrixKind

    def __init__(self, block, indices, kind: MatrixKind):
        block = np.array(block, dtype=np.float64)
        indices = np.array(indices, dtype=np.int64)
        kind = MatrixKind(kind)
        if kind is MatrixKind.FULL:
            raise InvariantViolation("columns stand for a PARTIAL or ESTIMATED matrix")
        if block.ndim != 2 or indices.ndim != 1 or block.shape[1] != indices.size:
            raise InvariantViolation(f"block shape {block.shape} does not match "
                                     f"{indices.size} indices")
        n = block.shape[0]
        if (indices.size == 0 or indices[0] < 0 or indices[-1] >= n
                or np.any(np.diff(indices) <= 0)):
            raise InvariantViolation(
                f"column indices must be strictly increasing in [0, {n})")
        if kind is MatrixKind.PARTIAL and indices.size >= n - 1:
            raise InvariantViolation(f"{indices.size} columns observe every entry "
                                     f"of an {n} x {n} matrix")
        if not np.all(np.isfinite(block)):
            raise InvariantViolation("columns must be finite")
        if kind is MatrixKind.PARTIAL and np.any(block < 0):
            raise InvariantViolation("observed squared distances must be >= 0")
        core = block[indices]
        if not np.array_equal(core, core.T):
            raise InvariantViolation("core C(I, :) must be exactly symmetric")
        if np.any(np.diagonal(core) != 0.0):
            raise InvariantViolation("core diagonal must be zero")
        object.__setattr__(self, "block", freeze(block))
        object.__setattr__(self, "indices", freeze(indices))
        object.__setattr__(self, "kind", kind)

    @property
    def size(self) -> int:
        return self.block.shape[0]

    def matrix(self) -> DistanceMatrix:
        """The matrix this block stands for: the observed rows and
        columns of a PARTIAL block, zero elsewhere, or the sanitized
        Nystrom estimate of an ESTIMATED one."""
        if self.kind is MatrixKind.ESTIMATED:
            from .nystrom import ColumnBlock, complete_nystrom  # imports this module
            return complete_nystrom(ColumnBlock(self.block, self.indices))
        n, idx = self.size, self.indices
        values = np.zeros((n, n))
        values[:, idx] = self.block
        values[idx, :] = self.block.T
        mask = np.eye(n, dtype=bool)
        mask[:, idx] = True
        mask[idx, :] = True
        return DistanceMatrix(values, mask, MatrixKind.PARTIAL)


# --- persistence --------------------------------------------------------------

def save(matrix: DistanceMatrix | Columns, path) -> None:
    """Write a ``DistanceMatrix`` densely and ``Columns`` as its block."""
    if isinstance(matrix, Columns):
        n, c = matrix.block.shape
        parts = [COLUMNS_MAGIC, struct.pack("<QQ", n, c),
                 matrix.indices.astype("<i8").tobytes(),
                 np.ascontiguousarray(matrix.block, dtype="<f8").tobytes()]
    else:
        parts = [MAGIC, struct.pack("<Q", matrix.size),
                 np.ascontiguousarray(matrix.values, dtype="<f8").tobytes(),
                 matrix.mask.astype(np.uint8).tobytes()]
    Path(path).write_bytes(b"".join(parts + [bytes([matrix.kind.value])]))


def load(path, *, expand: bool = True) -> DistanceMatrix | Columns:
    """Read a ``.w2m`` file of either layout as a ``DistanceMatrix``.

    With ``expand=False`` a column file comes back as its ``Columns``,
    without forming the N x N matrix.
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
            stored = Columns(block, indices, kind)
            return stored.matrix() if expand else stored
        values = np.frombuffer(data, dtype="<f8", count=n * n, offset=head)
        mask = np.frombuffer(data, dtype=np.uint8, count=n * n,
                             offset=head + 8 * n * n)
        return DistanceMatrix(values.reshape(n, n), mask.reshape(n, n), kind)
    except InvariantViolation as exc:
        raise FormatError(f"{path}: {exc}") from exc


# --- evaluation ----------------------------------------------------------------

def relative_error(estimate: DistanceMatrix, truth: DistanceMatrix) -> float:
    """Frobenius relative error ||D_est - D||_F / ||D||_F of a FULL or
    ESTIMATED estimate against a FULL truth."""
    if estimate.size != truth.size:
        raise UsageError(f"estimate is {estimate.size}, truth {truth.size}")
    if estimate.kind is MatrixKind.PARTIAL:
        raise UsageError("estimate matrix must not be of kind PARTIAL")
    if truth.kind is not MatrixKind.FULL:
        raise UsageError("truth matrix must be of kind FULL")
    denom = float(np.linalg.norm(truth.values))
    if denom == 0.0:
        raise NumericalError("truth matrix has zero Frobenius norm")
    return float(np.linalg.norm(estimate.values - truth.values) / denom)
