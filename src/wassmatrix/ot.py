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
the minimum over all m! permutation couplings is exact.  One broadcast
kernel, summing in the order the single-pair route does (so both give
the same bits), walks two ways.  The full matrix takes each group's
triangle in row blocks, written straight into the upper triangle; a
plan, entries or columns alike, is its pair list, and the batched pairs
of that list are gathered into the kernel.  Only the remaining pairs
are listed and solved one by one by ``w2_squared``, optionally fanned
out over a process pool.  Entries are pure functions of the two
measures (the first one of a pair i < j always mu_i), so the result is
identical for any worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy import _core as _highs
from scipy.spatial.distance import cdist

from .errors import SolverFailure, UsageError
from .matrixio import DistanceMatrix, MatrixKind, freeze, row_blocks
from .measures import DiscreteMeasure, MeasureDataset, uniform_weights
from .sampling import SamplePlan

# Largest atom count w2_matrix solves by permutation minimum (4! = 24
# vertices).  Per pair on one core, d = 2: 1.6 us at m = 4, 5.3 us at 5,
# 29 us at 6 and 100 us at 7, against ~35 us through linear_sum_assignment.
_BATCH_MAX_ATOMS = 4
# Pairs per vectorised block; bounds its temporaries (about 80 bytes a
# pair at m = d = 2).  For N = 1000 two-atom measures on one core, the
# full w2_matrix took 28-35, 19-20 and 18-22 ms at 2048, 8192 and 32768
# in two runs, with tracemalloc peaks of 9.2, 9.7 and 11.3 MB (the
# values and mask are 9 MB).
_BATCH_PAIRS = 8192
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


def _vertex_minimum(cost):
    """Exact W2^2 of uniform m-atom pairs from their m x m squared costs,
    cost[r][s] a number or one array over many pairs: the minimum over
    all m! permutation couplings, each summed over rows in index order."""
    m = len(cost)
    best = None
    for perm in itertools.permutations(range(m)):
        total = cost[0][perm[0]]
        for r in range(1, m):
            total = total + cost[r][perm[r]]
        best = total if best is None else np.minimum(best, total)
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
            return float(_vertex_minimum(cost))
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
    """Exact W2^2 of uniform m-atom pairs, x and y (..., m, d) arrays that
    broadcast: a pair list (B, m, d) against (B, m, d), or a row block
    (R, 1, m, d) against (1, C, m, d).  x is the first measure of each pair.

    Each of the m^2 costs is one plane over the whole block, its squared
    gaps summed over coordinates in index order from the first, as cdist
    sums them, so ``_vertex_minimum`` of the planes gives the bits
    ``w2_squared`` gives.  It sums each coupling over the rows of x, so
    for m >= 3 swapping x and y may change the last bit.
    """
    m, d = x.shape[-2:]
    cost = [[None] * m for _ in range(m)]
    for r, s in itertools.product(range(m), repeat=2):
        plane = x[..., r, 0] - y[..., s, 0]
        plane *= plane
        for k in range(1, d):
            gap = x[..., r, k] - y[..., s, k]
            gap *= gap
            plane += gap
        cost[r][s] = plane
    return _vertex_minimum(cost)


def _batch_groups(data: MeasureDataset):
    """The measures ``w2_matrix`` batches: uniform measures of m <=
    _BATCH_MAX_ATOMS atoms, grouped by shape (m, d), with one uniformity
    test per shape.  Returns each measure's group (-1: none), and per
    group its members in index order and the stack of their points,
    (size, m, d)."""
    shapes: dict[tuple, list[int]] = {}
    for k, mu in enumerate(data.measures):
        if mu.num_atoms <= _BATCH_MAX_ATOMS:
            shapes.setdefault(mu.points.shape, []).append(k)
    group = np.full(len(data), -1)
    members, stacks = [], []
    for ks in shapes.values():
        ks = np.array(ks)
        ks = ks[uniform_weights(np.array([data.measures[k].weights for k in ks]))]
        if ks.size:
            group[ks] = len(members)
            members.append(ks)
            stacks.append(np.array([data.measures[k].points for k in ks]))
    return group, members, stacks


def _triangle_rows(n: int):
    """Row blocks [a, b) of the strict upper triangle of an n x n array,
    each of at most ``_BATCH_PAIRS`` pairs (a whole row at least): row a
    has the most pairs of its block."""
    a = 0
    while a < n - 1:
        b = min(a + max(1, _BATCH_PAIRS // (n - 1 - a)), n - 1)
        yield a, b
        a = b


def _fill_group(values: np.ndarray, ks: np.ndarray, stack: np.ndarray) -> None:
    """Write every pair (ks[t], ks[u]), t < u, of a batch group into the
    upper triangle of ``values``, one row block of ``_triangle_rows`` at
    a time, the earlier member as x.  A block's entries on or below the
    diagonal are written as zeros, which is what those entries hold
    until ``_mirror_upper``."""
    for a, b in _triangle_rows(ks.size):
        values[np.ix_(ks[a:b], ks[a:])] = np.triu(
            _permutation_minimum(stack[a:b, None], stack[None, a:]), 1)


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle of the square ``a`` onto its lower
    triangle, in row blocks."""
    for start, stop in row_blocks(a.shape[0]):
        a[start:stop, :start] = a[:start, start:stop].T
        square = a[start:stop, start:stop]
        below = np.tril_indices(stop - start, -1)
        square[below] = square.T[below]


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


def _required_pairs(n: int, plan: SamplePlan) -> np.ndarray:
    """The (k, 2) pairs (i, j), i < j, a plan computes, in row-major
    order; the one place assembly reads the plan's kind."""
    if plan.is_entries:
        return plan.indices
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


def _pair_blocks(n: int, pairs: np.ndarray | None):
    """The pairs (i, j), i < j, to compute, in row-major order, as
    (ii, jj) blocks of at most ``_BATCH_PAIRS`` pairs: the upper triangle
    walked in the row blocks of ``_triangle_rows`` when ``pairs`` is
    None, else the (k, 2) list ``pairs`` in slices."""
    if pairs is not None:
        for start in range(0, pairs.shape[0], _BATCH_PAIRS):
            yield pairs[start:start + _BATCH_PAIRS].T
        return
    for a, b in _triangle_rows(n):
        rows, jj = np.nonzero(np.arange(n) > np.arange(a, b)[:, None])
        yield rows + a, jj


def w2_matrix(data: MeasureDataset, plan: SamplePlan | None = None,
              workers: int = 1) -> DistanceMatrix:
    """Squared W2 distance matrix of a dataset.

    ``plan=None`` computes all N(N-1)/2 upper-triangle entries.  An entry
    plan computes exactly its pairs; a column plan computes every entry
    in the sampled columns (and, by symmetry, rows).  Each pair (i, j),
    i < j, is solved with mu_i first and written into the upper triangle,
    which is mirrored onto the lower one once at the end.

    Uniform measures with equal atom count m <= 4 and equal dimension
    form a batch group, whose pairs are solved in the calling process by
    a vectorised permutation minimum.  Without a plan each group writes
    its pairs straight into the N x N values as row blocks of at most
    ``_BATCH_PAIRS`` entries, without listing them (``_fill_group``).  A
    plan's pairs are listed once by ``_required_pairs``, which also
    gives the mask (the diagonal and those pairs, mirrored), and its
    batched pairs go through the same kernel in slices of as many pairs.
    Only the pairs not inside one group are listed, in row-major order
    into one array, and solved one by one by ``w2_squared``, distributed
    over ``workers`` processes when at least 2 * workers of them are
    left.  The result does not depend on the worker count, and its
    values and mask are handed to the ``DistanceMatrix`` without a copy.
    """
    n = len(data)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if plan is not None and plan.size != n:
        raise UsageError(f"plan is for size {plan.size}, dataset has {n}")
    values = np.zeros((n, n))
    group, members, stacks = _batch_groups(data)
    if plan is None:
        pairs = None
        mask = np.ones((n, n), bool)
        for ks, stack in zip(members, stacks):
            _fill_group(values, ks, stack)
    else:
        pairs = _required_pairs(n, plan)
        mask = np.eye(n, dtype=bool)
        ii, jj = pairs.T
        mask[ii, jj] = mask[jj, ii] = True
    rest = [np.empty((0, 2), np.int64)]
    if pairs is not None or (group != 0).any():  # else group 0 holds every pair
        local = np.zeros(n, np.int64)
        for ks in members:
            local[ks] = np.arange(ks.size)
        for ii, jj in _pair_blocks(n, pairs):
            gi = group[ii]
            batched = (gi >= 0) & (gi == group[jj])
            if pairs is not None:  # a plan's batched pairs, gathered
                for g, stack in enumerate(stacks):
                    sel = np.flatnonzero(batched & (gi == g))
                    if sel.size:
                        bi, bj = ii[sel], jj[sel]
                        # take copies (m, d) rows ~10x faster than stack[idx]
                        x, y = (np.take(stack, local[k], 0) for k in (bi, bj))
                        values[bi, bj] = _permutation_minimum(x, y)
            rest.append(np.column_stack([ii[~batched], jj[~batched]]))
    todo = np.concatenate(rest)
    del rest  # one list of the remaining pairs lives through the solve
    if workers == 1 or todo.shape[0] < 2 * workers:
        vals = _solve_pairs(data.measures, todo)
    else:
        chunks = np.array_split(todo, workers * 4)
        chunks = [c for c in chunks if c.shape[0]]
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(data.measures,)) as pool:
            vals = np.concatenate(list(pool.map(_pool_solve, chunks)))
    values[todo[:, 0], todo[:, 1]] = vals
    _mirror_upper(values)
    kind = MatrixKind.FULL if mask.all() else MatrixKind.PARTIAL
    return DistanceMatrix(freeze(values), freeze(mask), kind)
