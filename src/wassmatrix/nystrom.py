"""Column-sampled completion of symmetric distance matrices.

Given the block of fully computed columns C = D(:, I) and its core
U = D(I, I), the completed matrix is the symmetric product C U^+ C^T
with U^+ the pseudoinverse truncated at ``PINV_TOLERANCE`` times the
core's largest singular value.  When rank(U) equals rank(D) the product
reproduces D exactly; the estimate is sanitized afterwards (zero
diagonal, symmetrization, negative clamp) so it satisfies the
distance-matrix invariants.  The product is the estimate: sampled
rows/columns are not re-imposed on it.

:class:`ColumnBlock` keeps the estimate as its factors C and U^+, the
latter from the one SVD of the core taken when the block is built;
``embedding.spectrum`` embeds it directly in O(N c^2) without forming
the N x N product.

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
from .matrixio import freeze, sanitized_estimate

PINV_TOLERANCE = 1e-10  # core singular values below this * sigma_max are cut


@dataclass(frozen=True)
class ColumnBlock:
    """Fully observed columns D(:, I), their core U = D(I, I) and U^+.

    The one SVD of the core is taken when the block is built:
    ``core_pinv`` is the pseudoinverse U^+ truncated at
    ``PINV_TOLERANCE``, ``core_singular_values`` the core's spectrum and
    ``effective_rank`` the number of singular values U^+ keeps.
    """

    columns: np.ndarray
    indices: np.ndarray
    core: np.ndarray
    core_pinv: np.ndarray
    core_singular_values: np.ndarray
    effective_rank: int

    def __init__(self, columns, indices):
        columns = np.array(columns, dtype=np.float64)
        indices = np.array(indices, dtype=np.int64).ravel()
        if columns.ndim != 2 or columns.shape[1] != indices.shape[0]:
            raise InvariantViolation(
                f"columns shape {columns.shape} does not match "
                f"{indices.shape[0]} indices"
            )
        n = columns.shape[0]
        if indices.size == 0 or np.any(indices < 0) or np.any(indices >= n):
            raise InvariantViolation("column indices out of range")
        if np.unique(indices).size != indices.size:
            raise InvariantViolation("duplicate column indices")
        core = columns[indices, :]
        if not np.array_equal(core, core.T):
            raise InvariantViolation("core must be symmetric")
        if np.any(np.diagonal(core) != 0.0):
            raise InvariantViolation("core diagonal must be zero")
        if not np.any(core) and np.any(columns):
            raise NumericalError("core block is identically zero")
        pinv, sigma, rank = _truncated_svd_pinv(core, PINV_TOLERANCE)
        object.__setattr__(self, "columns", freeze(columns))
        object.__setattr__(self, "indices", freeze(indices))
        object.__setattr__(self, "core", freeze(core))
        object.__setattr__(self, "core_pinv", freeze(pinv))
        object.__setattr__(self, "core_singular_values", freeze(sigma))
        object.__setattr__(self, "effective_rank", rank)

    @property
    def size(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    @staticmethod
    def from_matrix(matrix: DistanceMatrix, indices) -> "ColumnBlock":
        """Extract sampled columns from a matrix that observes them.

        Works on FULL matrices and on PARTIAL matrices whose mask covers
        the requested columns.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if np.any(indices < 0) or np.any(indices >= matrix.size):
            raise InvariantViolation("column indices out of range")
        if matrix.kind is MatrixKind.PARTIAL and not matrix.mask[:, indices].all():
            raise InvariantViolation("matrix does not observe all requested columns")
        return ColumnBlock(matrix.values[:, indices], indices)

    def product(self) -> np.ndarray:
        """Dense N x N product (C U^+) C^T, unsanitized."""
        return (self.columns @ self.core_pinv) @ self.columns.T


def _truncated_svd_pinv(matrix: np.ndarray, rel_tolerance: float):
    """Truncated pseudoinverse, singular values and effective rank of one SVD."""
    u, s, vt = np.linalg.svd(matrix)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(matrix.T), s, 0
    keep = s > rel_tolerance * s[0]
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T, s, int(keep.sum())


def complete_nystrom(block: ColumnBlock) -> DistanceMatrix:
    """Sanitized Nystrom estimate C U^+ C^T from a column block."""
    return sanitized_estimate(block.product())


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
