"""Squared-distance matrix container and bit-exact persistence.

A ``DistanceMatrix`` couples an N x N value array with an observation
mask and a kind tag: FULL (every entry computed), PARTIAL (only masked
entries are meaningful), or ESTIMATED (every entry filled in by a
completion algorithm).  The binary format round-trips bitwise:

    8 bytes  magic ``W2DMAT01``
    8 bytes  N as unsigned 64-bit little-endian
    8*N*N    values, row-major float64 little-endian
    N*N      mask bytes (0/1)
    1 byte   kind (0=FULL, 1=PARTIAL, 2=ESTIMATED)
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantViolation, SizeMismatch, ZeroTruth

MAGIC = b"W2DMAT01"


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


# --- persistence --------------------------------------------------------------

def save(matrix: DistanceMatrix, path) -> None:
    n = matrix.size
    blob = b"".join([
        MAGIC,
        struct.pack("<Q", n),
        np.ascontiguousarray(matrix.values, dtype="<f8").tobytes(),
        matrix.mask.astype(np.uint8).tobytes(),
        bytes([matrix.kind.value]),
    ])
    Path(path).write_bytes(blob)


def load(path) -> DistanceMatrix:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8:
        raise FormatError(f"{path}: truncated header")
    if data[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:8]!r}")
    (n,) = struct.unpack_from("<Q", data, len(MAGIC))
    off = len(MAGIC) + 8
    need = off + 8 * n * n + n * n + 1
    if len(data) != need:
        raise FormatError(f"{path}: expected {need} bytes, got {len(data)}")
    values = np.frombuffer(data, dtype="<f8", count=n * n, offset=off)
    values = values.reshape(n, n).astype(np.float64)
    off += 8 * n * n
    mask = np.frombuffer(data, dtype=np.uint8, count=n * n, offset=off)
    mask = mask.reshape(n, n).astype(bool)
    kind_byte = data[-1]
    try:
        kind = MatrixKind(kind_byte)
    except ValueError as exc:
        raise FormatError(f"{path}: unknown kind byte {kind_byte}") from exc
    try:
        return DistanceMatrix(values, mask, kind)
    except InvariantViolation as exc:
        raise FormatError(f"{path}: {exc}") from exc


# --- evaluation ----------------------------------------------------------------

def relative_error(estimate: DistanceMatrix, truth: DistanceMatrix) -> float:
    """Frobenius relative error ||D_est - D||_F / ||D||_F."""
    if estimate.size != truth.size:
        raise SizeMismatch(f"estimate is {estimate.size}, truth {truth.size}")
    if truth.kind is not MatrixKind.FULL:
        raise SizeMismatch("truth matrix must be of kind FULL")
    denom = float(np.linalg.norm(truth.values))
    if denom == 0.0:
        raise ZeroTruth("truth matrix has zero Frobenius norm")
    return float(np.linalg.norm(estimate.values - truth.values) / denom)
