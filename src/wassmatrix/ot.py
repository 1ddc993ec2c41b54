"""Exact squared quadratic Wasserstein distances between discrete measures.

``w2_squared`` solves the transportation linear program exactly: uniform
measures with equal atom counts reduce to an assignment problem (solved
by the permutation minimum below up to 4 atoms, beyond that by scipy's
exact Jonker-Volgenant implementation); everything else goes through the
LP, solved by HiGHS dual simplex, no presolve.  HiGHS is called only
through the binding scipy bundles with it (``scipy.optimize._highspy``,
scipy >= 1.15).  Two independent routes exist for testing: a
permutation brute force for small uniform instances and the
sorted-quantile closed form for measures on the line.

``w2_matrix`` assembles the N x N matrix D_ij = W2(mu_i, mu_j)^2 for a
dataset, either in full or restricted to a sample plan (entry set or
column set).  Pairs of uniform measures with the same small atom count
m <= 4 and dimension are solved in the calling process, many at once:
their optimum sits at a permutation vertex (Birkhoff-von Neumann), so
the minimum over all m! permutation couplings is exact.  Only the
remaining pairs are solved one by one by ``w2_squared``, optionally
fanned out over a process pool.  Entries are pure functions of the two
measures, so the result is identical for any worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy import _core as _highs
from scipy.spatial.distance import cdist

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    SolverFailure,
    UnsupportedInstance,
)
from .matrixio import DistanceMatrix, MatrixKind
from .measures import DiscreteMeasure, MeasureDataset, uniform_weights
from .sampling import SamplePlan

# Largest atom count w2_matrix solves by permutation minimum (4! = 24
# vertices).  Per pair on one core, d = 2: 1.6 us at m = 4, 5.3 us at 5,
# 29 us at 6 and 100 us at 7, against ~35 us through linear_sum_assignment.
_BATCH_MAX_ATOMS = 4
_BATCH_PAIRS = 32768  # pairs per vectorised block; bounds its temporaries


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Quadratic ground cost C_ij = ||x_i - y_j||^2."""
    if mu.dimension != nu.dimension:
        raise DimensionMismatch(
            f"measures live in R^{mu.dimension} and R^{nu.dimension}"
        )
    return cdist(mu.points, nu.points, "sqeuclidean")


def _vertex_minimum(cost: np.ndarray) -> np.ndarray:
    """Exact W2^2 of uniform pairs from their (B, m, m) squared costs: the
    minimum over all m! permutation couplings, each summed over rows in
    index order."""
    m = cost.shape[1]
    best = np.full(cost.shape[0], np.inf)
    for perm in itertools.permutations(range(m)):
        total = cost[:, 0, perm[0]].copy()
        for r in range(1, m):
            total += cost[:, r, perm[r]]
        np.minimum(best, total, out=best)
    return best / m


def _solve_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Exact optimal value of the balanced transportation problem.  One
    atom on either side forces the coupling, square uniform instances
    are assignment problems (up to ``_BATCH_MAX_ATOMS`` atoms solved by
    the permutation minimum ``w2_matrix`` batches) and the rest go to
    the LP."""
    m, n = cost.shape
    if m == 1:  # coupling is forced by the column marginal
        return float(cost[0] @ b)
    if n == 1:
        return float(cost[:, 0] @ a)
    if m == n and uniform_weights(a) and uniform_weights(b):
        if m <= _BATCH_MAX_ATOMS:
            return float(_vertex_minimum(cost[None])[0])
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() / m)
    return _solve_lp(cost, a, b)


def _marginal_matrix(m: int, n: int) -> sparse.csc_matrix:
    """(m + n) x mn marginal constraints of the transportation LP, built
    directly as CSC: column i*n + j (the flow from atom i to atom j) has
    ones in row i and row m + j."""
    i, j = np.divmod(np.arange(m * n), n)
    return sparse.csc_matrix(
        (np.ones(2 * m * n), np.column_stack([i, m + j]).ravel(),
         np.arange(0, 2 * m * n + 1, 2)), shape=(m + n, m * n))


def _solve_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Exact optimal value of the transportation LP by HiGHS dual
    simplex, no presolve.  The LP has only m + n equality rows, which
    the dual simplex handles directly; presolve only adds time.  HiGHS
    is called through scipy's bundled binding, which skips the input
    checks and the per-column dual bookkeeping of ``linprog``; the same
    solver options give the same optimum to the bit."""
    m, n = cost.shape
    matrix = _marginal_matrix(m, n)
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = m * n
    lp.num_row_ = lp.a_matrix_.num_row_ = m + n
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    lp.col_cost_ = cost.ravel()
    lp.col_lower_ = np.zeros(m * n)
    lp.col_upper_ = np.full(m * n, np.inf)
    lp.row_lower_ = lp.row_upper_ = np.concatenate([a, b])
    options = _highs.HighsOptions()
    options.presolve = "off"
    options.solver = "simplex"
    options.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.output_flag = options.log_to_console = False
    solver = _highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    failed = solver.run() == _highs.HighsStatus.kError
    status = solver.getModelStatus()
    if failed or status != _highs.HighsModelStatus.kOptimal:
        raise SolverFailure("transportation LP failed: "
                            + solver.modelStatusToString(status))
    # costs are nonnegative, so a negative optimum can only be solver noise
    return max(float(solver.getInfo().objective_function_value), 0.0)


def w2_squared(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W2(mu, nu)^2 via the transportation linear program."""
    return _solve_transport(cost_matrix(mu, nu), mu.weights, nu.weights)


def w2_squared_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Closed-form W2^2 on the line via monotone (quantile) coupling.

    Independent of the LP route: sorts both supports and matches CDF mass
    front to back.  Exact for arbitrary weights and atom counts.
    """
    if mu.dimension != 1 or nu.dimension != 1:
        raise DimensionMismatch("quantile closed form requires measures on R")
    ix = np.argsort(mu.points[:, 0], kind="stable")
    iy = np.argsort(nu.points[:, 0], kind="stable")
    x, wx = mu.points[ix, 0], mu.weights[ix].copy()
    y, wy = nu.points[iy, 0], nu.weights[iy].copy()
    total = 0.0
    i = j = 0
    while i < x.size and j < y.size:
        mass = min(wx[i], wy[j])
        total += mass * (x[i] - y[j]) ** 2
        wx[i] -= mass
        wy[j] -= mass
        if wx[i] <= 0.0:
            i += 1
        if j < y.size and wy[j] <= 0.0:
            j += 1
    return float(total)


def w2_squared_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exhaustive minimum over all m! permutation couplings.

    Only valid for uniform measures with equal atom counts m <= 8, where
    the transportation polytope's vertices are permutation matrices / m.
    """
    m = mu.num_atoms
    if m != nu.num_atoms:
        raise UnsupportedInstance("brute force needs equal atom counts")
    if m > 8:
        raise UnsupportedInstance(f"brute force capped at 8 atoms, got {m}")
    if not (mu.is_uniform() and nu.is_uniform()):
        raise UnsupportedInstance("brute force needs uniform weights")
    cost = cost_matrix(mu, nu)
    idx = np.arange(m)
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, cost[idx, perm].sum())
    return float(best / m)


# --- matrix assembly -----------------------------------------------------------

def _permutation_minimum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact W2^2 of the uniform m-atom pairs (x[b], y[b]), x and y (B, m, d).

    Costs are summed over coordinates in index order, as cdist sums them.
    """
    cost = np.zeros((x.shape[0], x.shape[1], y.shape[1]))
    for k in range(x.shape[2]):
        gap = x[:, :, None, k] - y[:, None, :, k]
        cost += gap * gap
    return _vertex_minimum(cost)


def _solve_batched(data: MeasureDataset, pairs: np.ndarray,
                   vals: np.ndarray) -> np.ndarray:
    """Fill ``vals`` for the pairs of uniform measures of one shape (m <=
    _BATCH_MAX_ATOMS atoms in R^d); returns the mask of the pairs filled."""
    groups: dict[tuple, list[int]] = {}
    for k, mu in enumerate(data.measures):
        if mu.num_atoms <= _BATCH_MAX_ATOMS and uniform_weights(mu.weights):
            groups.setdefault(mu.points.shape, []).append(k)
    done = np.zeros(pairs.shape[0], bool)
    for members in groups.values():
        local = np.full(len(data), -1)
        local[members] = np.arange(len(members))
        li, lj = local[pairs[:, 0]], local[pairs[:, 1]]
        sel = np.flatnonzero((li >= 0) & (lj >= 0))
        stack = np.stack([data.measures[k].points for k in members])
        for start in range(0, sel.size, _BATCH_PAIRS):
            block = sel[start:start + _BATCH_PAIRS]
            vals[block] = _permutation_minimum(stack[li[block]],
                                               stack[lj[block]])
        done[sel] = True
    return done


def _solve_pairs(measures: tuple, pairs: np.ndarray) -> np.ndarray:
    out = np.empty(pairs.shape[0])
    for k, (i, j) in enumerate(pairs):
        out[k] = w2_squared(measures[i], measures[j])
    return out


_POOL_DATA: tuple | None = None  # set only inside pool worker processes


def _pool_init(measures: tuple) -> None:
    global _POOL_DATA
    _POOL_DATA = measures


def _pool_solve(pairs: np.ndarray) -> np.ndarray:
    return _solve_pairs(_POOL_DATA, pairs)


def _required_pairs(n: int, plan: SamplePlan | None) -> np.ndarray:
    if plan is None:
        iu, ju = np.triu_indices(n, k=1)
        return np.column_stack([iu, ju])
    if plan.size != n:
        raise IndexOutOfRange(f"plan is for size {plan.size}, dataset has {n}")
    if plan.is_entries:
        return plan.indices.copy()
    cols = np.zeros(n, bool)
    cols[plan.indices] = True
    iu, ju = np.triu_indices(n, k=1)
    sel = cols[iu] | cols[ju]
    return np.column_stack([iu[sel], ju[sel]])


def w2_matrix(data: MeasureDataset, plan: SamplePlan | None = None,
              workers: int = 1) -> DistanceMatrix:
    """Squared W2 distance matrix of a dataset.

    ``plan=None`` computes all N(N-1)/2 upper-triangle entries and
    mirrors them.  An entry plan computes exactly its pairs; a column
    plan computes every entry in the sampled columns (and, by symmetry,
    rows).  Pairs of uniform measures with equal atom count m <= 4 and
    equal dimension are solved in the calling process by a vectorised
    permutation minimum.  Only the remaining pairs may be distributed
    over ``workers`` processes, and a pool starts only when at least
    2 * workers of them are left.  The result does not depend on the
    worker count.
    """
    n = len(data)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    pairs = _required_pairs(n, plan)
    vals = np.empty(pairs.shape[0])
    rest = ~_solve_batched(data, pairs, vals)
    todo = pairs[rest]
    if workers == 1 or todo.shape[0] < 2 * workers:
        vals[rest] = _solve_pairs(data.measures, todo)
    else:
        chunks = np.array_split(todo, workers * 4)
        chunks = [c for c in chunks if c.shape[0]]
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(data.measures,)) as pool:
            vals[rest] = np.concatenate(list(pool.map(_pool_solve, chunks)))
    values = np.zeros((n, n))
    mask = np.eye(n, dtype=bool)
    ii, jj = pairs[:, 0], pairs[:, 1]
    values[ii, jj] = vals
    values[jj, ii] = vals
    mask[ii, jj] = True
    mask[jj, ii] = True
    kind = MatrixKind.FULL if mask.all() else MatrixKind.PARTIAL
    return DistanceMatrix(values, mask, kind)
