"""Exact squared quadratic Wasserstein distances between discrete measures.

``w2_squared`` solves the transportation linear program exactly: uniform
measures with equal atom counts reduce to an assignment problem (solved
by the permutation minimum below up to 4 atoms, beyond that by scipy's
exact Jonker-Volgenant implementation); everything else goes through the
LP, solved by HiGHS simplex without presolve.  The LP starts on a
shortlist of arcs (the nearest atoms of each row and column once both
supports are centred, plus a north-west-corner staircase that keeps it
feasible), solved by dual simplex with devex pricing.  It then adds
every arc whose reduced cost, from the row duals, is negative, and
re-runs by primal simplex from the kept basis until none is left.  That
certifies the optimum of the LP on every arc; the value lies within
about 1e-15 relative of it, not always on the same bits.  HiGHS is
called only through the binding scipy bundles with it
(``scipy.optimize._highspy``, scipy >= 1.15).  Two independent routes
exist for testing: a permutation brute force for small uniform instances
and the sorted-quantile closed form for measures on the line.

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
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy import _core as _highs
from scipy.spatial.distance import cdist

from .errors import SolverFailure, UsageError
from .matrixio import DistanceMatrix, MatrixKind
from .measures import DiscreteMeasure, MeasureDataset, uniform_weights
from .sampling import SamplePlan

# Largest atom count w2_matrix solves by permutation minimum (4! = 24
# vertices).  Per pair on one core, d = 2: 1.6 us at m = 4, 5.3 us at 5,
# 29 us at 6 and 100 us at 7, against ~35 us through linear_sum_assignment.
_BATCH_MAX_ATOMS = 4
_BATCH_PAIRS = 32768  # pairs per vectorised block; bounds its temporaries
# Nearest atoms per row and per column in the LP's first arc set.  On
# 60-pixel blob pairs it keeps about 20% of the arcs and needs at most
# one pricing round.  A side of this many atoms or fewer takes every arc:
# there the shortlist saves less than its pricing round costs.
_SHORTLIST_NEIGHBOURS = 8


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Quadratic ground cost C_ij = ||x_i - y_j||^2."""
    if mu.dimension != nu.dimension:
        raise UsageError(f"measures live in R^{mu.dimension} and R^{nu.dimension}")
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


def _north_west(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the north-west-corner staircase of marginals a and b: from
    (0, 0), step down a row when the row's cumulative mass is at most the
    column's, else right a column.  It always ends at (m - 1, n - 1)
    and spans every row and column, so an LP holding these arcs is
    feasible whatever the round-off in the cumulative sums."""
    m = a.size
    cuts = np.concatenate([np.cumsum(a)[:-1], np.cumsum(b)[:-1]])
    row_step = np.argsort(cuts, kind="stable") < m - 1
    return (np.concatenate([[0], np.cumsum(row_step)]),
            np.concatenate([[0], np.cumsum(~row_step)]))


def _shortlist(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """(m, n) mask of the arcs the LP starts from: the
    ``_SHORTLIST_NEIGHBOURS`` nearest atoms of each row and each column
    once both supports are centred at their means (a translation changes
    the optimal coupling of a quadratic cost not at all), plus the
    north-west staircase, which keeps the restricted LP feasible.  Every
    arc when either side has no more atoms than that."""
    m, n = mu.num_atoms, nu.num_atoms
    k = _SHORTLIST_NEIGHBOURS
    if min(m, n) <= k:
        return np.ones((m, n), bool)
    near = cdist(mu.points - mu.weights @ mu.points,
                 nu.points - nu.weights @ nu.points, "sqeuclidean")
    arcs = np.zeros((m, n), bool)
    np.put_along_axis(arcs, np.argpartition(near, k - 1, axis=1)[:, :k],
                      True, axis=1)
    np.put_along_axis(arcs, np.argpartition(near, k - 1, axis=0)[:k],
                      True, axis=0)
    arcs[_north_west(mu.weights, nu.weights)] = True
    return arcs


# The first run: dual simplex with devex pricing (Harris 1973), no
# presolve, silent.  Runs after addCols take primal simplex (_PRIMAL, see
# _solve_lp).  On 60-pixel blob pairs the two cut the simplex iterations
# per pair from about 350 to 240 against dual simplex with HiGHS's
# default pricing throughout.
_SIMPLEX = _highs.simplex_constants
_LP_OPTIONS = _highs.HighsOptions()
_LP_OPTIONS.presolve = "off"
_LP_OPTIONS.solver = "simplex"
_LP_OPTIONS.simplex_strategy = _SIMPLEX.SimplexStrategy.kSimplexStrategyDual
_LP_OPTIONS.simplex_dual_edge_weight_strategy = (
    _SIMPLEX.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex)
_LP_OPTIONS.output_flag = _LP_OPTIONS.log_to_console = False
_PRIMAL = int(_SIMPLEX.SimplexStrategy.kSimplexStrategyPrimal)


def _arc_columns(rows: np.ndarray, cols: np.ndarray, m: int) -> tuple:
    """Column starts, row indices and values of the LP columns of arcs
    (rows[k], cols[k]): column k has ones in rows rows[k] and m + cols[k]."""
    return (np.arange(0, 2 * rows.size, 2, dtype=np.int32),
            np.column_stack([rows, m + cols]).ravel().astype(np.int32),
            np.ones(2 * rows.size))


def _run(solver) -> None:
    failed = solver.run() == _highs.HighsStatus.kError
    status = solver.getModelStatus()
    if failed or status != _highs.HighsModelStatus.kOptimal:
        raise SolverFailure("transportation LP failed: "
                            + solver.modelStatusToString(status))


def _solve_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray,
              arcs: np.ndarray) -> float:
    """Exact optimal value of the transportation LP, solved on the arcs
    in the (m, n) mask ``arcs`` and certified against every arc.

    HiGHS dual simplex with devex pricing, no presolve, runs on the
    restricted LP: one column per arc, row-major, with ones in rows i and
    m + j.  The LP has only m + n equality rows, which the dual simplex
    handles directly; presolve only adds time.  After each run the
    reduced costs c_ij - y_i - y_{m+j} of the arcs left out come from the
    row duals y.  Every arc below -1e-12 max C is added (``addCols``) and
    the LP runs again from the basis HiGHS keeps, by primal simplex: the
    new columns leave that basis primal feasible but not dual feasible,
    so the dual simplex would first have to repair it.  When no such arc
    is left, the duals are feasible for the full LP, so the value is its
    optimum.  The arc set only grows, so the loop ends, at worst on the
    full LP.  With every arc in the mask the first run is the full LP,
    column for column, and no arc is priced.  HiGHS is called through
    scipy's bundled binding, and the model is passed as arrays (the
    ``HighsLp`` fields copy theirs element by element)."""
    m, n = cost.shape
    rows, cols = np.nonzero(arcs)
    marginals = np.concatenate([a, b])
    solver = _highs._Highs()
    solver.passOptions(_LP_OPTIONS)
    solver.passModel(rows.size, m + n, 2 * rows.size,
                     int(_highs.MatrixFormat.kColwise),
                     int(_highs.ObjSense.kMinimize), 0.0, cost[rows, cols],
                     np.zeros(rows.size), np.full(rows.size, np.inf),
                     marginals, marginals, *_arc_columns(rows, cols, m),
                     np.zeros(rows.size, np.int32))  # all continuous
    _run(solver)
    missing = ~arcs
    floor = -1e-12 * cost.max()
    while missing.any():
        dual = np.asarray(solver.getSolution().row_dual)
        rows, cols = np.nonzero(
            missing & (cost - dual[:m, None] - dual[None, m:] < floor))
        if not rows.size:
            break
        missing[rows, cols] = False
        solver.addCols(rows.size, cost[rows, cols], np.zeros(rows.size),
                       np.full(rows.size, np.inf), 2 * rows.size,
                       *_arc_columns(rows, cols, m))
        solver.setOptionValue("simplex_strategy", _PRIMAL)
        _run(solver)
    # costs are nonnegative, so a negative optimum can only be solver noise
    return max(float(solver.getInfo().objective_function_value), 0.0)


def w2_squared(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W2(mu, nu)^2.  One atom on either side forces the coupling,
    square uniform instances are assignment problems (up to
    ``_BATCH_MAX_ATOMS`` atoms solved by the permutation minimum
    ``w2_matrix`` batches) and the rest go to the transportation LP,
    started from the ``_shortlist`` arcs and priced until the reduced
    costs certify the full LP's optimum.  Its value lies within about
    1e-15 relative of the LP solved on every arc, not always on the same
    bits."""
    cost = cost_matrix(mu, nu)
    a, b = mu.weights, nu.weights
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
    return _solve_lp(cost, a, b, _shortlist(mu, nu))


def w2_squared_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Closed-form W2^2 on the line via monotone (quantile) coupling.

    Independent of the LP route: sorts both supports and matches CDF mass
    front to back.  Exact for arbitrary weights and atom counts.
    """
    if mu.dimension != 1 or nu.dimension != 1:
        raise UsageError("quantile closed form requires measures on R")
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
        raise UsageError("brute force needs equal atom counts")
    if m > 8:
        raise UsageError(f"brute force capped at 8 atoms, got {m}")
    if not (mu.is_uniform() and nu.is_uniform()):
        raise UsageError("brute force needs uniform weights")
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
        raise UsageError(f"plan is for size {plan.size}, dataset has {n}")
    if plan.is_entries:
        return plan.indices.copy()
    # the pairs (i, j), i < j, with i or j in I, in row-major order: the
    # c(c-1)/2 pairs inside I and the c(N-c) pairs of I with the rest
    cols = np.zeros(n, bool)
    cols[plan.indices] = True
    idx, rest = np.flatnonzero(cols), np.flatnonzero(~cols)
    a, b = np.triu_indices(idx.size, k=1)
    inner = idx[a] * n + idx[b]
    k, r = np.meshgrid(idx, rest)
    outer = np.minimum(k, r) * n + np.maximum(k, r)
    keys = np.sort(np.concatenate([inner, outer.ravel()]))
    return np.column_stack(np.divmod(keys, n))


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
