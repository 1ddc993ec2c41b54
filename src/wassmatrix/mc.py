"""Squared-distance matrix completion through a centered Gram factor.

Observed entries D_ij enter through the sampling operator

    A(X)_alpha = X_ii + X_jj - 2 X_ij,        alpha = (i, j) in Omega,

which turns the Gram matrix QQ^T of a factor Q in R^{N x q} into
squared row distances.  Completion minimizes the least-squares misfit

    f(Q) = 1/2 || r(Q) ||^2,        r(Q) = A(QQ^T) - b,

by a matrix-free Levenberg-Marquardt (LM) method with rank descent.

All uses of the operator go through one sparse incidence matrix
E in R^{N x |Omega|}, whose column alpha is e_i - e_j.  With the row
differences P = E^T Q (row alpha is q_i - q_j):

    r(Q) = rowsum(P * P) - b,         As(v) = E diag(v) E^T,
    J V  = 2 rowsum(P * E^T V),       J^T w = 2 As(w) Q = 2 E (w * P),

so the gradient of f is J^T r.  Reading the residual off the row
differences avoids the cancellation in ||q_i||^2 + ||q_j||^2 -
2 <q_i, q_j>.  One residual kernel and one J^T kernel serve the solver
and the public ``lagrangian_value`` and ``lagrangian_gradient`` alike
(f is their multiplier-free case), so the finite-difference test checks
the gradient the solver runs.

Each LM step solves (J^T J + mu I) delta = -J^T r by conjugate gradient
(CG) and takes the step only when it lowers the residual; the gain ratio
of actual to predicted decrease moves the damping mu.  Every product
with J^T J costs one E^T and one E product, and so does the residual
and gradient at a trial point; ``McConfig`` caps their total.  The
objective is invariant under translations of Q, so the solver keeps
Q^T 1 = 0 by projecting column means out of every CG vector.

Gradient methods on a factor wider than the rank of the answer converge
sublinearly, and LM started at the true rank can stall in a spurious
local minimum.  So the solver runs in two phases:

(a) LM at q = ``rank_estimate`` until the relative residual
    ||r|| / ||b|| is at most ``_RANK_SWITCH_RESIDUAL``;
(b) for r = 1, 2, ..., q - 1, LM polishes the top-r part of the SVD of
    Q for at most ``_POLISH_STEPS`` steps, and the first r that reaches
    the tolerance is kept.  If none does, LM goes on at q with the rest
    of the budget.

The estimated matrix is read off as the squared row distances of the
final factor, then sanitized by :func:`matrixio.sanitized_estimate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import Diverged, UsageError
from .matrixio import DistanceMatrix, sanitized_estimate

_RANK_SWITCH_RESIDUAL = 1e-3  # phase (a) residual that starts rank descent
_POLISH_STEPS = 25  # LM steps each candidate rank gets in rank descent
_DAMPING_START = 1e-3  # initial mu of each fit, per unit of ||r||
_CG_FORCING = 0.1  # CG stops at min(this, relative residual) * ||J^T r||
_CG_STEPS = 100  # cap on the CG iterations of one LM step


@dataclass(frozen=True)
class McConfig:
    """Solver knobs for :func:`complete_mc`.

    ``max_outer_iters * _CG_STEPS`` caps the operator products of the
    whole run: one CG iteration, or one residual and gradient at a trial
    point, is one product (one E^T and one E product).  ``_CG_STEPS``
    (100) also caps the CG iterations of each LM step.  The run stops
    once the relative observed residual ||A(QQ^T) - b|| / ||b|| is at most
    ``residual_tolerance``; ``rank_estimate`` is the width q of the
    factor that phase (a) fits, and ``seed`` draws its start.
    """

    rank_estimate: int = 10
    max_outer_iters: int = 300
    residual_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.rank_estimate < 1:
            raise ValueError("rank_estimate must be >= 1")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.residual_tolerance <= 0:
            raise ValueError("residual_tolerance must be > 0")


@dataclass
class ConvergenceReport:
    iterations: int
    outer_iterations: int
    final_residual: float
    stop_reason: str
    rank: int
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
            "rank": self.rank,
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


def _jacobian(et: sparse.csr_array, P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """J V = 2 rowsum(P * E^T V), the derivative of the residual along V."""
    return 2.0 * np.einsum("ij,ij->i", P, et @ V)


def _gradient(E: sparse.csr_array, P: np.ndarray, r: np.ndarray,
              work: sparse.csr_array) -> np.ndarray:
    """J^T r = 2 * As(r) Q = (E diag(2r)) P from the row differences P = E^T Q.

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
    """Analytic gradient 2 * As(r) Q of 1/2 ||A(QQ^T) - b + lam||^2."""
    E, et = _incidence(pairs[:, 0], pairs[:, 1], Q.shape[0])
    P = et @ Q
    return _gradient(E, P, _residual(P, b) + lam, E.copy())


def _centered(V: np.ndarray) -> np.ndarray:
    return V - V.sum(axis=0) / V.shape[0]


def _cg(E: sparse.csr_array, et: sparse.csr_array, work: sparse.csr_array,
        P: np.ndarray, g: np.ndarray, mu: float, max_iters: int,
        rtol: float) -> tuple[np.ndarray, int]:
    """CG on (J^T J + mu I) delta = -g over centered factors.

    ``g`` must be centered.  Stops when the CG residual is at most
    ``rtol * ||g||`` or after ``max_iters`` iterations, one J and one
    J^T product each.  Returns delta and the iterations run.
    """
    x = np.zeros_like(g)
    s = -g
    d = s
    ss = float(np.vdot(s, s))
    if ss == 0.0:  # stationary point: no descent direction
        return x, 0
    stop = rtol * rtol * ss
    for k in range(1, max_iters + 1):
        Ad = _centered(_gradient(E, P, _jacobian(et, P, d), work) + mu * d)
        curvature = float(np.vdot(d, Ad))
        if curvature <= 0.0:  # only by round-off, once mu has underflowed
            return x, k
        alpha = ss / curvature
        x = x + alpha * d
        s = s - alpha * Ad
        ss_new = float(np.vdot(s, s))
        if ss_new <= stop:
            return x, k
        d = s + (ss_new / ss) * d
        ss = ss_new
    return x, max_iters


class _Iterate(NamedTuple):
    Q: np.ndarray  # centered factor
    P: np.ndarray  # row differences E^T Q
    r: np.ndarray  # residual A(QQ^T) - b
    residual: float  # ||r|| / ||b||


class _Solver:
    """LM on one set of observations, under one budget of products."""

    def __init__(self, ii: np.ndarray, jj: np.ndarray, n: int, b: np.ndarray,
                 cfg: McConfig):
        self.E, self.et = _incidence(ii, jj, n)
        self.work = self.E.copy()
        self.b = b
        self.bnorm = float(np.linalg.norm(b)) or 1.0  # absolute when b = 0
        self.budget = cfg.max_outer_iters * _CG_STEPS
        self.products = 0
        self.steps = 0
        self.trace: list[float] = []

    def _evaluate(self, Q: np.ndarray) -> _Iterate:
        """The iterate at Q; one product with the gradient taken there."""
        self.products += 1
        P = self.et @ Q
        r = _residual(P, self.b)
        residual = float(np.linalg.norm(r)) / self.bnorm
        if not np.isfinite(residual):
            raise Diverged(f"residual became non-finite after {self.steps} LM steps")
        return _Iterate(Q, P, r, residual)

    def start(self, Q: np.ndarray) -> _Iterate:
        it = self._evaluate(Q)
        self.trace.append(it.residual)
        return it

    def fit(self, it: _Iterate, tol: float, max_steps: int) -> _Iterate:
        """LM steps from ``it`` until its relative residual is at most
        ``tol``, after ``max_steps`` steps, when the budget runs out, or
        when a rejected step no longer moves Q.  Only steps that lower
        the residual are taken.
        """
        mu = _DAMPING_START * float(np.linalg.norm(it.r))
        nu = 2.0
        g = None
        for _ in range(max_steps):
            cap = min(_CG_STEPS, self.budget - self.products - 1)
            if it.residual <= tol or cap < 1:
                break
            if g is None:
                g = _centered(_gradient(self.E, it.P, it.r, self.work))
            delta, k = _cg(self.E, self.et, self.work, it.P, g, mu, cap,
                           min(_CG_FORCING, it.residual))
            self.products += k
            self.steps += 1
            trial = self._evaluate(it.Q + delta)
            # gain ratio: actual over predicted decrease of 1/2 ||r||^2
            predicted = 0.5 * (mu * float(np.vdot(delta, delta))
                               - float(np.vdot(g, delta)))
            actual = 0.5 * (float(it.r @ it.r) - float(trial.r @ trial.r))
            rho = actual / predicted if predicted > 0.0 else -1.0
            if rho > 0.0:
                it, g = trial, None
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
            else:
                mu *= nu
                nu *= 2.0
            self.trace.append(it.residual)
            if it is not trial and np.array_equal(trial.Q, it.Q):
                break  # the damping has grown past round-off
        return it


def complete_mc(d_obs: DistanceMatrix,
                cfg: McConfig) -> tuple[DistanceMatrix, ConvergenceReport]:
    """Estimate the full squared-distance matrix from observed entries.

    Phase (a) fits a centered factor of width ``cfg.rank_estimate`` by
    LM until the relative residual is at most ``_RANK_SWITCH_RESIDUAL``;
    phase (b) then tries ranks r = 1, 2, ... from the SVD of that factor
    (see the module docstring).  The report's ``rank`` is the width of
    the returned factor, ``iterations`` the operator products of the
    run and ``outer_iterations`` its LM steps; ``stop_reason`` is
    ``"converged"`` when the tolerance was reached and ``"max_iters"``
    otherwise.  Raises :class:`Diverged` when a residual is non-finite.
    """
    n = d_obs.size
    q = cfg.rank_estimate
    if q > n:
        raise ValueError(f"rank estimate {q} exceeds matrix size {n}")
    ii, jj = d_obs.observed_pairs()
    if ii.size == 0:
        raise UsageError("no observed off-diagonal entries to fit")
    b = d_obs.values[ii, jj]

    rng = np.random.default_rng(cfg.seed)
    scale = float(np.sqrt(max(b.mean(), 0.0) / q))
    solver = _Solver(ii, jj, n, b, cfg)
    tol = cfg.residual_tolerance
    fit = solver.fit(solver.start(_centered(rng.standard_normal((n, q)) * scale)),
                     max(tol, _RANK_SWITCH_RESIDUAL), solver.budget)
    rank = q
    if tol < fit.residual <= _RANK_SWITCH_RESIDUAL:
        U, S, _ = np.linalg.svd(fit.Q, full_matrices=False)
        for r in range(1, q):
            if solver.products >= solver.budget:
                break
            polished = solver.fit(solver.start(U[:, :r] * S[:r]), tol, _POLISH_STEPS)
            if polished.residual <= tol:
                fit, rank = polished, r
                break
        else:
            fit = solver.fit(fit, tol, solver.budget)

    Q = fit.Q
    sq = np.einsum("ij,ij->i", Q, Q)
    report = ConvergenceReport(
        iterations=solver.products,
        outer_iterations=solver.steps,
        final_residual=fit.residual,
        stop_reason="converged" if fit.residual <= tol else "max_iters",
        rank=rank,
        residual_trace=solver.trace,
    )
    return sanitized_estimate(sq[:, None] + sq[None, :] - 2.0 * (Q @ Q.T)), report
