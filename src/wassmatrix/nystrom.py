"""Column-sampled completion of symmetric distance matrices.

Given the block of fully computed columns C = D(:, I) and its core
U = D(I, I), the completed matrix is the symmetric product C U^+ C^T
with U^+ the pseudoinverse truncated at ``PINV_TOLERANCE`` times the
core's largest singular value.  U is symmetric, so one ``eigh`` gives
U^+ = P_r L_r^-1 P_r^T from its r kept eigenpairs (|lambda| above the
cut), and the estimate is (C P_r L_r^-1)(C P_r)^T.  When rank(U)
equals rank(D) the product reproduces D exactly.  The product is the
estimate: sampled rows/columns are not re-imposed on it.

:class:`ColumnBlock` is the one column type: C and I, checked once.  A
PARTIAL block is the computed columns of any column plan (FULL once
c >= N - 1), an ESTIMATED one the estimate C U^+ C^T with P_r and
1 / lambda_r, which :func:`complete_nystrom` makes of it: building an
ESTIMATED block is the one place a core is decomposed.  ``matrixio``
saves and loads either as the ``W2DCOL01`` layout, and
``embedding.spectrum`` embeds an ESTIMATED block in O(N c r).  Every
entry of the estimate comes from :meth:`ColumnBlock.estimate_rows`,
sanitized (zero diagonal, symmetrization, negative clamp) a row block at
a time, for :meth:`ColumnBlock.matrix` and ``matrixio.relative_error``.

Also here: the Procrustes alignment distance used to compare
embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .errors import InvariantViolation, NumericalError, UsageError
from .matrixio import CENTER_TOL, DistanceMatrix, MatrixKind
from .matrixio import _frozen, freeze, row_blocks, sanitized_rows

PINV_TOLERANCE = 1e-10  # core |eigenvalues| up to this * the largest are cut


@dataclass(frozen=True)
class ColumnBlock:
    """Columns C = D(:, I) of an N x N squared-distance matrix, with I.

    ``indices`` are strictly increasing, the entries finite and the core
    U = C(I, :) exactly symmetric with a zero diagonal.  ``kind`` says
    which matrix the block stands for (see :meth:`matrix`): PARTIAL, the
    matrix that observes exactly its rows and columns, with entries
    >= 0 (FULL once c >= N - 1 columns cover every entry); or
    ESTIMATED, the Nystrom estimate C U^+ C^T, which
    :func:`complete_nystrom` makes of a PARTIAL block and ``matrixio``
    reads back from its file.  The kind has no default.

    An ESTIMATED block takes the one symmetric eigendecomposition of
    the core when it is built, truncated at ``PINV_TOLERANCE``:
    ``core_vectors`` holds the r kept eigenvectors P_r (c x r) and
    ``core_inverse_eigenvalues`` their 1 / lambda_r, so that
    U^+ = P_r diag(1 / lambda_r) P_r^T; ``core_singular_values`` is the
    core's spectrum |lambda| in descending order and ``effective_rank``
    is r; a PARTIAL block has None for each.  Like ``DistanceMatrix``,
    it copies C and I only while a caller can still write them, so an
    estimate shares them with its block and a loaded C views the file.
    """

    columns: np.ndarray
    indices: np.ndarray
    kind: MatrixKind
    core: np.ndarray
    core_vectors: np.ndarray | None
    core_inverse_eigenvalues: np.ndarray | None
    core_singular_values: np.ndarray | None

    def __init__(self, columns, indices, kind: MatrixKind):
        columns = _frozen(columns, np.float64)
        indices = _frozen(indices, np.int64)
        kind = MatrixKind(kind)
        if kind is MatrixKind.FULL:
            raise InvariantViolation("columns stand for a PARTIAL or ESTIMATED matrix")
        if columns.ndim != 2 or indices.ndim != 1 or columns.shape[1] != indices.size:
            raise InvariantViolation(f"columns shape {columns.shape} does not match "
                                     f"{indices.size} indices")
        n = columns.shape[0]
        if (indices.size == 0 or indices[0] < 0 or indices[-1] >= n
                or np.any(np.diff(indices) <= 0)):
            raise InvariantViolation(
                f"column indices must be strictly increasing in [0, {n})")
        if not np.all(np.isfinite(columns)):
            raise InvariantViolation("columns must be finite")
        if kind is MatrixKind.PARTIAL and np.any(columns < 0):
            raise InvariantViolation("observed squared distances must be >= 0")
        core = columns[indices]
        if not np.array_equal(core, core.T):
            raise InvariantViolation("core C(I, :) must be exactly symmetric")
        if np.any(np.diagonal(core) != 0.0):
            raise InvariantViolation("core diagonal must be zero")
        vectors = inverse = sigma = None
        if kind is MatrixKind.ESTIMATED:
            if not np.any(core) and np.any(columns):
                raise NumericalError("core block is identically zero")
            vectors, inverse, sigma = map(freeze, _truncated_eigh(core, PINV_TOLERANCE))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "core", freeze(core))
        object.__setattr__(self, "core_vectors", vectors)
        object.__setattr__(self, "core_inverse_eigenvalues", inverse)
        object.__setattr__(self, "core_singular_values", sigma)

    @property
    def size(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    @property
    def effective_rank(self) -> int | None:
        """r, the eigenpairs of the core an estimate keeps (None if PARTIAL)."""
        inverse = self.core_inverse_eigenvalues
        return None if inverse is None else inverse.size

    @staticmethod
    def from_matrix(matrix: DistanceMatrix, indices) -> "ColumnBlock":
        """The PARTIAL block of the sampled columns of a matrix that
        observes them: a FULL matrix, or a PARTIAL one whose mask covers
        the requested columns."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if np.any(indices < 0) or np.any(indices >= matrix.size):
            raise InvariantViolation("column indices out of range")
        if matrix.kind is MatrixKind.PARTIAL and not matrix.mask[:, indices].all():
            raise InvariantViolation("matrix does not observe all requested columns")
        return ColumnBlock(freeze(matrix.values.take(indices, axis=1)), indices,
                           MatrixKind.PARTIAL)

    def estimate_rows(self):
        """The sanitized Nystrom estimate C U^+ C^T in (start, stop, rows)
        blocks over ``matrixio.row_blocks``, never forming the N x N
        product.  With F = C P_r and G = F L_r^-1, rows start:stop of the
        product are G(start:stop) F^T and those of its transpose
        F(start:stop) G^T; ``sanitized_rows`` sanitizes them."""
        factor = self.columns @ self.core_vectors
        scaled = factor * self.core_inverse_eigenvalues
        for start, stop in row_blocks(self.size):
            yield start, stop, sanitized_rows(scaled[start:stop] @ factor.T,
                                              factor[start:stop] @ scaled.T,
                                              start)

    def matrix(self) -> DistanceMatrix:
        """The matrix this block stands for: the observed rows and
        columns of a PARTIAL block, zero elsewhere (FULL when they cover
        every entry, as ``ot.w2_matrix`` marks it), or the sanitized
        Nystrom estimate of an ESTIMATED one from :meth:`estimate_rows`,
        its upper triangle mirrored: BLAS may round (i, j) of one row
        block apart from (j, i) of another.  ``relative_error`` sums the
        rows as they stand, so once N spans more than one row block its
        value for the block and for this matrix agree only to
        round-off."""
        if self.kind is MatrixKind.ESTIMATED:
            values = np.empty((self.size, self.size))
            for start, stop, rows in self.estimate_rows():
                values[start:stop] = np.triu(rows, start)
                values[start:stop, :start] = values[:start, start:stop].T
                values[start:stop, start:stop] += values[start:stop, start:stop].T
            return DistanceMatrix.estimated(freeze(values))
        n, idx = self.size, self.indices
        values = np.zeros((n, n))
        values[:, idx] = self.columns
        values[idx, :] = self.columns.T
        mask = np.eye(n, dtype=bool)
        mask[:, idx] = True
        mask[idx, :] = True
        kind = MatrixKind.FULL if mask.all() else MatrixKind.PARTIAL
        return DistanceMatrix(freeze(values), freeze(mask), kind)


def _truncated_eigh(matrix: np.ndarray, rel_tolerance: float):
    """Kept eigenvectors, their inverse eigenvalues and the descending
    |eigenvalues| of one symmetric ``eigh``; an eigenpair is kept when
    |lambda| exceeds ``rel_tolerance`` times the largest |lambda|."""
    lam, vectors = np.linalg.eigh(matrix)
    magnitude = np.abs(lam)
    keep = magnitude > rel_tolerance * magnitude.max()
    return vectors[:, keep], 1.0 / lam[keep], np.sort(magnitude)[::-1]


def complete_nystrom(block: ColumnBlock) -> ColumnBlock:
    """The Nystrom estimate C U^+ C^T of a block's columns: the ESTIMATED
    block of the same C and I, whose constructor takes the one ``eigh``
    of the core; an ESTIMATED block is that already.  Its
    :meth:`ColumnBlock.matrix` is the dense sanitized estimate."""
    if block.kind is MatrixKind.ESTIMATED:
        return block
    return ColumnBlock(block.columns, block.indices, MatrixKind.ESTIMATED)


def procrustes_distance(Z: np.ndarray, Y: np.ndarray) -> float:
    """Spectral-norm discrepancy min over orthogonal R of ||Z - Y R||_2.

    Both configurations are rows-as-points and must be column-centered.
    The alignment starts from the SVD of Y^T Z (the Frobenius-optimal
    orthogonal Procrustes solution, reflections allowed); because that
    solution need not minimize the spectral norm, a short derivative-free
    descent over both connected components of O(d) tightens it.  The
    result never exceeds the SVD-aligned value.
    """
    Z = np.asarray(Z, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Z.shape != Y.shape or Z.ndim != 2:
        raise UsageError(f"configurations differ: {Z.shape} vs {Y.shape}")
    if (np.abs(Z.mean(axis=0)).max() > CENTER_TOL
            or np.abs(Y.mean(axis=0)).max() > CENTER_TOL):
        raise UsageError("both configurations must have zero column means")
    d = Z.shape[1]
    u, _, vt = np.linalg.svd(Y.T @ Z)
    flip = np.ones(d)
    flip[-1] = -1.0
    candidates = [u @ vt, (u * flip) @ vt]

    def value(rotation: np.ndarray) -> float:
        return float(np.linalg.norm(Z - Y @ rotation, 2))

    best = min(value(r) for r in candidates)
    if d == 1 or best <= 1e-12 * max(np.linalg.norm(Y, 2), 1.0):
        return best  # O(1) is enumerated exactly; or already at roundoff
    triu = np.triu_indices(d, 1)

    def polished(start: np.ndarray) -> float:
        def objective(theta: np.ndarray) -> float:
            skew = np.zeros((d, d))
            skew[triu] = theta
            return value(start @ expm(skew - skew.T))

        res = minimize(objective, np.zeros(d * (d - 1) // 2), method="Powell",
                       options={"maxiter": 200, "xtol": 1e-12, "ftol": 1e-12})
        return float(res.fun)

    return min([best] + [polished(r) for r in candidates])
