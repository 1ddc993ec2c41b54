"""Squared-distance matrix completion through a centered Gram factor.

Observed entries D_ij enter through the sampling operator

    A(X)_alpha = X_ii + X_jj - 2 X_ij,        alpha = (i, j) in Omega,

which turns the Gram matrix QQ^T of a factor Q in R^{N x q} into
squared row distances.  Completion minimizes the augmented-Lagrangian
objective

    L(Q; lambda) = 1/2 || A(QQ^T) - b + lambda ||^2

by alternating blocks of Barzilai-Borwein gradient steps on Q with
multiplier ascent lambda += A(QQ^T) - b.

All three uses of the operator go through one sparse incidence matrix
E in R^{N x |Omega|}, whose column alpha is e_i - e_j.  With the row
differences P = E^T Q (row alpha is q_i - q_j):

    A(QQ^T) = rowsum(P * P),    As(v) = E diag(v) E^T,
    grad L  = 2 As(r) Q = 2 E (r * P),    r = A(QQ^T) - b + lambda.

Reading the residual off the row differences avoids the cancellation in
||q_i||^2 + ||q_j||^2 - 2 <q_i, q_j>.  One residual kernel and one
gradient kernel serve the solver and the public ``lagrangian_value`` and
``lagrangian_gradient`` alike, so the finite-difference test checks the
gradient the solver runs.  The
centering constraint Q^T 1 = 0 is maintained by projecting column means
to zero after every step (the objective is translation invariant, so
the projection never increases it).

The estimated matrix is read off as the squared row distances of the
final factor, then sanitized by :func:`matrixio.sanitized_estimate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import Diverged, UsageError
from .matrixio import DistanceMatrix, sanitized_estimate

BB_STEP_BOUNDS = (1e-12, 1e10)  # clamp on every gradient step length
DIVERGENCE_PATIENCE = 50  # consecutive growing blocks that raise Diverged


@dataclass(frozen=True)
class McConfig:
    """Solver knobs for :func:`complete_mc`.

    ``max_outer_iters * inner_steps`` caps the total number of BB steps.
    Each block's first step is 1 / ||grad||; ``BB_STEP_BOUNDS`` clamp it
    and the raw BB1 steps after it, and a nonpositive secant curvature
    falls back to the lower bound.  Between blocks the multipliers take
    the full residual.  The residual growing for ``DIVERGENCE_PATIENCE``
    consecutive blocks raises :class:`Diverged`.
    """

    rank_estimate: int = 10
    max_outer_iters: int = 300
    inner_steps: int = 100
    residual_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.rank_estimate < 1:
            raise ValueError("rank_estimate must be >= 1")
        if self.max_outer_iters < 1 or self.inner_steps < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.residual_tolerance <= 0:
            raise ValueError("residual_tolerance must be > 0")


@dataclass
class ConvergenceReport:
    iterations: int
    outer_iterations: int
    final_residual: float
    stop_reason: str
    residual_trace: list = field(default_factory=list)

    def to_json(self, max_trace: int = 200) -> dict:
        trace = self.residual_trace
        if len(trace) > max_trace:  # thin, always keeping the last point
            stride = -(-len(trace) // max_trace)
            trace = trace[::stride] + ([trace[-1]] if (len(trace) - 1) % stride else [])
        return {
            "iterations": self.iterations,
            "outer_iterations": self.outer_iterations,
            "final_residual": self.final_residual,
            "stop_reason": self.stop_reason,
            "residual_trace": [float(v) for v in trace],
        }


# --- sampling operator -----------------------------------------------------------

def apply_A(X: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """A(X)_alpha = X_ii + X_jj - 2 X_ij for each pair alpha = (i, j)."""
    X = np.asarray(X)
    n = X.shape[0]
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise UsageError(f"pair index out of range for {n}x{n} matrix")
    ii, jj = pairs[:, 0], pairs[:, 1]
    return X[ii, ii] + X[jj, jj] - 2.0 * X[ii, jj]


def _incidence(ii: np.ndarray, jj: np.ndarray,
               n: int) -> tuple[sparse.csr_array, sparse.csr_array]:
    """Incidence matrix E (N x |Omega|, column alpha = e_i - e_j) and E^T.

    Both are CSR: products with the transpose view ``E.T`` (CSC) are
    about twice as slow as with a CSR copy made once.
    """
    m = ii.size
    et = sparse.csr_array((np.tile([1.0, -1.0], m),
                           np.column_stack([ii, jj]).ravel(),
                           np.arange(0, 2 * m + 1, 2)), shape=(m, n))
    return et.T.tocsr(), et


def apply_A_adjoint(v: np.ndarray, pairs: np.ndarray, n: int) -> np.ndarray:
    """Adjoint As(v) = sum_alpha v_alpha (e_i - e_j)(e_i - e_j)^T (dense)."""
    E, et = _incidence(pairs[:, 0], pairs[:, 1], n)
    return (E @ sparse.diags_array(v) @ et).toarray()


def _residual(P: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Observed residual A(QQ^T) - b from the row differences P = E^T Q."""
    return np.einsum("ij,ij->i", P, P) - b


def _gradient(E: sparse.csr_array, P: np.ndarray, r: np.ndarray,
              work: sparse.csr_array) -> np.ndarray:
    """2 * As(r) Q = (E diag(2r)) P from the row differences P = E^T Q.

    ``work`` is a copy of E whose data this overwrites with the entries
    +-2 r_alpha of E diag(2r).  Scaling by 2 is exact, so this gives the
    bits of 2 E (r * P) without the (|Omega|, q) product or the 2 * pass.
    """
    np.multiply(E.data, r[E.indices], out=work.data)
    work.data *= 2.0
    return work @ P


def lagrangian_value(Q: np.ndarray, pairs: np.ndarray, b: np.ndarray,
                     lam: np.ndarray) -> float:
    _, et = _incidence(pairs[:, 0], pairs[:, 1], Q.shape[0])
    r = _residual(et @ Q, b) + lam
    return 0.5 * float(r @ r)


def lagrangian_gradient(Q: np.ndarray, pairs: np.ndarray, b: np.ndarray,
                        lam: np.ndarray) -> np.ndarray:
    """Analytic gradient 2 * As(r) Q of the augmented Lagrangian."""
    E, et = _incidence(pairs[:, 0], pairs[:, 1], Q.shape[0])
    P = et @ Q
    return _gradient(E, P, _residual(P, b) + lam, E.copy())


def bb_step(gradient_current: np.ndarray, gradient_previous: np.ndarray,
            iterate_current: np.ndarray, iterate_previous: np.ndarray,
            bounds: tuple = BB_STEP_BOUNDS) -> float:
    """BB1 step <dx, dx> / <dx, dg>, clamped to ``bounds``.

    Falls back to the lower bound when the secant curvature <dx, dg> is
    nonpositive (the quadratic model is unusable there).
    """
    dx = np.ravel(iterate_current) - np.ravel(iterate_previous)
    dg = np.ravel(gradient_current) - np.ravel(gradient_previous)
    denom = float(dx @ dg)
    lo, hi = bounds
    if denom <= 0.0:
        return lo
    step = float(dx @ dx) / denom
    return min(max(step, lo), hi)


# --- completion driver ------------------------------------------------------------

def complete_mc(d_obs: DistanceMatrix,
                cfg: McConfig) -> tuple[DistanceMatrix, ConvergenceReport]:
    """Estimate the full squared-distance matrix from observed entries.

    Runs blocks of ``cfg.inner_steps`` BB steps on the factor, checking
    the relative observed residual ||A(QQ^T) - b|| / ||b|| after each
    block and updating the multipliers between blocks.  E and E^T are
    built once; the row differences E^T Q and the residual are evaluated
    once per step, at the new iterate, and they feed the block-end check,
    the multiplier update and the next gradient.  Raises
    :class:`Diverged` when the block residual is non-finite or grows for
    ``DIVERGENCE_PATIENCE`` consecutive blocks.
    """
    n = d_obs.size
    q = cfg.rank_estimate
    if q > n:
        raise ValueError(f"rank estimate {q} exceeds matrix size {n}")
    ii, jj = d_obs.observed_pairs()
    if ii.size == 0:
        raise UsageError("no observed off-diagonal entries to fit")
    b = d_obs.values[ii, jj]
    bnorm = float(np.linalg.norm(b)) or 1.0  # absolute residual when b = 0

    rng = np.random.default_rng(cfg.seed)
    scale = float(np.sqrt(max(b.mean(), 0.0) / q))
    Q = rng.standard_normal((n, q)) * scale
    Q -= Q.mean(axis=0)
    lam = np.zeros_like(b)

    E, et = _incidence(ii, jj, n)
    work = E.copy()
    total_steps = 0
    trace: list[float] = []
    stop_reason = "max_iters"
    growth_run = 0
    outer_done = 0
    P = et @ Q  # always the row differences at the current Q
    res = _residual(P, b)
    current = float(np.linalg.norm(res)) / bnorm
    trace.append(current)
    if current <= cfg.residual_tolerance:
        stop_reason = "converged"
    else:
        for outer in range(cfg.max_outer_iters):
            Q_prev = g_prev = None
            for _ in range(cfg.inner_steps):
                g = _gradient(E, P, res + lam, work)
                if Q_prev is None:
                    gn = float(np.linalg.norm(g))
                    step = 1.0 / gn if gn > 0 else BB_STEP_BOUNDS[0]
                    step = min(max(step, BB_STEP_BOUNDS[0]), BB_STEP_BOUNDS[1])
                else:
                    step = bb_step(g, g_prev, Q, Q_prev, BB_STEP_BOUNDS)
                Q_prev, g_prev = Q, g
                Q = Q - step * g
                Q -= Q.sum(axis=0) / n
                P = et @ Q
                res = _residual(P, b)
                total_steps += 1
            outer_done = outer + 1
            previous, current = current, float(np.linalg.norm(res)) / bnorm
            trace.append(current)
            if not np.isfinite(current):
                raise Diverged(f"residual became non-finite at block {outer_done}")
            growth_run = growth_run + 1 if current > previous else 0
            if growth_run >= DIVERGENCE_PATIENCE:
                raise Diverged(
                    f"residual grew for {growth_run} consecutive blocks"
                )
            if current <= cfg.residual_tolerance:
                stop_reason = "converged"
                break
            lam = lam + res

    sq = np.einsum("ij,ij->i", Q, Q)
    report = ConvergenceReport(
        iterations=total_steps,
        outer_iterations=outer_done,
        final_residual=current,
        stop_reason=stop_reason,
        residual_trace=trace,
    )
    return sanitized_estimate(sq[:, None] + sq[None, :] - 2.0 * (Q @ Q.T)), report
