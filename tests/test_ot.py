import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from wassmatrix import (
    DiscreteMeasure,
    MatrixKind,
    MeasureDataset,
    measure_from_grid_image,
    sample_columns,
    sample_entries,
    synth_translation_family,
    w2_matrix,
    w2_squared,
    w2_squared_1d,
    w2_squared_bruteforce,
)
from wassmatrix.errors import SolverFailure, UsageError
from wassmatrix import ot
from wassmatrix.measures import two_atom_base
from wassmatrix.sampling import ENTRIES, SamplePlan


def random_uniform_pair(rng, max_atoms=6, max_dim=3):
    m = int(rng.integers(2, max_atoms + 1))
    dim = int(rng.integers(1, max_dim + 1))
    w = np.full(m, 1.0 / m)
    mu = DiscreteMeasure(rng.normal(size=(m, dim)) * 3, w)
    nu = DiscreteMeasure(rng.normal(size=(m, dim)) * 3, w)
    return mu, nu


def fail_the_lp(monkeypatch, calls, after=0):
    """Make the HiGHS runs ``ot._solve_lp`` takes report an infeasible
    model once ``after`` runs have succeeded, appending to ``calls`` once
    per run."""
    real = ot._highs

    class FailingHighs(real._Highs):
        def run(self):
            calls.append(1)
            if len(calls) <= after:
                return super().run()
            return real.HighsStatus.kError

        def getModelStatus(self):
            if len(calls) <= after:
                return super().getModelStatus()
            return real.HighsModelStatus.kInfeasible

    binding = {**vars(real), "_Highs": FailingHighs}
    monkeypatch.setattr(ot, "_highs", SimpleNamespace(**binding))


def random_1d_pair(rng, max_atoms=20):
    m = int(rng.integers(1, max_atoms + 1))
    n = int(rng.integers(1, max_atoms + 1))
    mu = DiscreteMeasure(rng.normal(size=m) * 2, rng.random(m) + 0.05)
    nu = DiscreteMeasure(rng.normal(size=n) * 2, rng.random(n) + 0.05)
    return mu, nu


class TestW2Squared:
    def test_identical_measure_is_zero(self):
        mu = DiscreteMeasure([[0.0, 1.0], [2.0, 3.0]], [0.3, 0.7])
        assert w2_squared(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_dirac_pair(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        nu = DiscreteMeasure([[3.0, 4.0]], [1.0])
        assert w2_squared(mu, nu) == pytest.approx(25.0, abs=1e-12)

    def test_two_to_one_atom(self):
        mu = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
        nu = DiscreteMeasure([1.0], [1.0])
        # both atoms of mu travel distance 1: cost 1/2 + 1/2
        assert w2_squared(mu, nu) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        nu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(UsageError, match=r"measures live in R\^1 and R\^2"):
            w2_squared(mu, nu)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu, nu = random_1d_pair(rng, max_atoms=8)
            assert abs(w2_squared(mu, nu) - w2_squared(nu, mu)) <= 1e-9

    def test_assignment_path_coupling(self):
        mu, nu = two_atom_base(), two_atom_base(center=(5.0, 0.0))
        assert w2_squared(mu, nu) == pytest.approx(25.0, abs=1e-12)

    def test_lp_failure_raises_solver_failure(self, tmp_path, capsys,
                                              monkeypatch):
        from wassmatrix.cli import main
        from wassmatrix.measures import save_dataset

        calls = []
        fail_the_lp(monkeypatch, calls)
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.3, 0.7])
        nu = DiscreteMeasure([[0.0, 1.0], [2.0, 1.0]], [0.6, 0.4])
        with pytest.raises(SolverFailure, match="(?i)infeasible"):
            w2_squared(mu, nu)
        assert len(calls) == 1  # the non-uniform pair took the LP path

        save_dataset(MeasureDataset([mu, nu]), tmp_path / "data")
        monkeypatch.delenv("WASSMATRIX_WORKERS", raising=False)
        assert main(["dist", "--data", str(tmp_path / "data"), "--full",
                     "--out", str(tmp_path / "full")]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "full.w2m").exists()

    def test_failure_after_pricing_raises_solver_failure(self, tmp_path,
                                                         capsys, monkeypatch):
        from wassmatrix.cli import main
        from wassmatrix.measures import save_dataset

        rng = np.random.default_rng(404)
        mu = blob_translate(rng, blob(2.8, 1.5))
        nu = blob_translate(rng, blob(1.5, 2.8))
        calls = []
        fail_the_lp(monkeypatch, calls, after=1)
        with pytest.raises(SolverFailure, match="(?i)infeasible"):
            w2_squared(mu, nu)
        assert len(calls) == 2  # the run after pricing added arcs failed

        calls.clear()
        save_dataset(MeasureDataset([mu, nu]), tmp_path / "data")
        monkeypatch.delenv("WASSMATRIX_WORKERS", raising=False)
        assert main(["dist", "--data", str(tmp_path / "data"), "--full",
                     "--out", str(tmp_path / "full")]) == 2
        assert len(calls) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "full.w2m").exists()


class TestBruteForceOracle:
    def test_identical_uniform(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert w2_squared_bruteforce(mu, mu) == 0.0

    def test_shifted_pair(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([2.0, 3.0], [0.5, 0.5])
        # both permutations computable by hand; identity matching wins
        assert w2_squared_bruteforce(mu, nu) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_nonuniform(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.25, 0.75])
        with pytest.raises(UsageError, match=r"brute force needs uniform weights"):
            w2_squared_bruteforce(mu, mu)

    def test_rejects_large(self):
        m = 9
        mu = DiscreteMeasure(np.arange(m, dtype=float), np.full(m, 1.0 / m))
        with pytest.raises(UsageError, match=r"brute force capped at 8 atoms, got 9"):
            w2_squared_bruteforce(mu, mu)

    def test_rejects_unequal_counts(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([0.0, 1.0, 2.0], [1 / 3] * 3)
        with pytest.raises(UsageError, match=r"brute force needs equal atom counts"):
            w2_squared_bruteforce(mu, nu)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(200):
            mu, nu = random_uniform_pair(rng)
            worst = max(worst,
                        abs(w2_squared(mu, nu) - w2_squared_bruteforce(mu, nu)))
        assert worst <= 1e-9


class TestQuantileOracle:
    def test_needs_1d(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(UsageError,
                           match=r"quantile closed form requires measures on R"):
            w2_squared_1d(mu, mu)

    def test_1d_equivalence(self):
        rng = np.random.default_rng(200)
        worst = 0.0
        for _ in range(200):
            mu, nu = random_1d_pair(rng)
            worst = max(worst, abs(w2_squared(mu, nu) - w2_squared_1d(mu, nu)))
        assert worst <= 1e-9


def uniform_family(rng, count, m, dim):
    return MeasureDataset([
        DiscreteMeasure(rng.normal(size=(m, dim)) * 3, np.full(m, 1.0 / m))
        for _ in range(count)])


def batched_matrix(data, monkeypatch):
    """w2_matrix with the per-pair routes disabled: every entry must come
    from the batched permutation minimum."""
    def no_solve(*_args, **_kwargs):
        raise AssertionError("pair left the batched route")

    with monkeypatch.context() as mp:
        mp.setattr(ot, "linear_sum_assignment", no_solve)
        mp.setattr(ot, "_solve_lp", no_solve)
        return w2_matrix(data).values


def assignment_value(mu, nu):
    """W2^2 of a uniform square pair by the assignment solver alone."""
    cost = ot.cost_matrix(mu, nu)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / mu.num_atoms)


class TestBatchedRoute:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_independent_routes(self, m, dim, monkeypatch):
        rng = np.random.default_rng(300 + 10 * m + dim)
        data = uniform_family(rng, 12, m, dim)
        vals = batched_matrix(data, monkeypatch)
        for i, j in zip(*np.triu_indices(len(data), k=1)):
            mu, nu = data[int(i)], data[int(j)]
            assert vals[i, j] == w2_squared(mu, nu)
            assert vals[i, j] == assignment_value(mu, nu)
            assert abs(vals[i, j] - w2_squared_bruteforce(mu, nu)) <= 1e-12
            if dim == 1:
                assert abs(vals[i, j] - w2_squared_1d(mu, nu)) <= 1e-9

    def test_exact_ties_match_assignment_route(self, monkeypatch):
        # (a - b) . (c - d) = 0: both couplings cost the same, and on
        # small integers every cost and sum is exact
        rng = np.random.default_rng(301)
        measures = []
        for _ in range(20):
            t = rng.integers(-5, 6, size=2).astype(float)
            measures.append(DiscreteMeasure([t + [1, 0], t - [1, 0]],
                                            [0.5, 0.5]))
            measures.append(DiscreteMeasure([t + [0, 2], t - [0, 2]],
                                            [0.5, 0.5]))
        data = MeasureDataset(measures)
        vals = batched_matrix(data, monkeypatch)
        for i, j in zip(*np.triu_indices(len(data), k=1)):
            mu, nu = data[int(i)], data[int(j)]
            assert vals[i, j] == w2_squared(mu, nu)
            assert vals[i, j] == assignment_value(mu, nu)

    def test_near_ties_take_the_smaller_vertex(self, monkeypatch):
        # every cross pair t + u vs s + v has several optimal couplings
        # whose costs differ only by round-off: 2-atom supports along
        # orthogonal lines, and point reflections (v = -u), whose cost
        # matrix is symmetric.  The assignment solver may return any of them.
        rng = np.random.default_rng(302)
        for m in (2, 3, 4):
            u = rng.normal(size=(m, 2))
            v = -u if m > 2 else u[:, ::-1] * [1.0, -1.0]
            w = np.full(m, 1.0 / m)
            shifts = rng.normal(size=(2, 20, 1, 2)) * 3
            data = MeasureDataset([DiscreteMeasure(t + u, w) for t in shifts[0]]
                                  + [DiscreteMeasure(s + v, w) for s in shifts[1]])
            vals = batched_matrix(data, monkeypatch)
            for i, j in zip(*np.triu_indices(len(data), k=1)):
                mu, nu = data[int(i)], data[int(j)]
                lsa = assignment_value(mu, nu)
                assert vals[i, j] == w2_squared_bruteforce(mu, nu)
                assert vals[i, j] <= lsa <= vals[i, j] * (1 + 1e-12)
                assert vals[i, j] == w2_squared(mu, nu)


def kron_marginal_matrix(m, n):
    """The marginal constraints built from Kronecker products, as
    ``_solve_lp`` once built them."""
    rows = sparse.kron(sparse.eye(m, format="csr"), np.ones((1, n)),
                       format="csr")
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n, format="csr"),
                       format="csr")
    return sparse.vstack([rows, cols], format="csr")


def lp_value(mu, nu):
    """W2^2 by the LP alone, started from the shortlist ``w2_squared``
    gives it."""
    return ot._solve_lp(ot.cost_matrix(mu, nu), mu.weights, nu.weights,
                        ot._shortlist(mu, nu))


def full_lp_value(mu, nu):
    """W2^2 by the LP on every arc: the reference the shortlist is
    checked against."""
    cost = ot.cost_matrix(mu, nu)
    return ot._solve_lp(cost, mu.weights, nu.weights,
                        np.ones(cost.shape, bool))


def pixel_measure(rng, atoms, side=12):
    """Non-uniform measure on ``atoms`` pixels of a side x side grid."""
    img = np.zeros(side * side)
    img[rng.choice(side * side, atoms, replace=False)] = rng.integers(
        1, 256, size=atoms)
    return measure_from_grid_image(img.reshape(side, side))


def linprog_value(cost, a, b):
    """The transportation LP through scipy's public ``linprog``, with the
    solver options of ``_solve_lp``'s first run: dual simplex, the dual
    pricing of ``ot._LP_OPTIONS``, no presolve."""
    m, n = cost.shape
    pricing = {0: "dantzig", 1: "devex", 2: "steepest"}[
        ot._LP_OPTIONS.simplex_dual_edge_weight_strategy]
    res = linprog(cost.ravel(), A_eq=kron_marginal_matrix(m, n),
                  b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs-ds",
                  options={"presolve": False,
                           "simplex_dual_edge_weight_strategy": pricing})
    assert res.status == 0, res.message
    return max(float(res.fun), 0.0)


def blob(sx, sy, size=15):
    """Anisotropic Gaussian on a size x size grid, cut at 10% of its peak
    (about 60 pixels at the default size), centred off the lattice."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy, cx = (size - 1) / 2 + 0.23, (size - 1) / 2 - 0.31
    img = np.exp(-0.5 * (((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))
    img[img < 0.1] = 0.0
    return img


def blob_translate(rng, img, shift=5):
    side = img.shape[0] + shift
    oy, ox = rng.integers(0, shift + 1, size=2)
    canvas = np.zeros((side, side))
    canvas[oy:oy + img.shape[0], ox:ox + img.shape[1]] = img
    return measure_from_grid_image(canvas)


def lp_instances():
    """(mu, nu) pairs of non-uniform and uniform LP instances: pixel grids,
    the line, uniform squares, unequal atom counts and lp-images-style
    translates of two 60-pixel blobs."""
    rng = np.random.default_rng(403)
    pairs = [(pixel_measure(rng, atoms), pixel_measure(rng, atoms))
             for atoms in (30, 45, 60)]
    for m, n in ((40, 70), (75, 52)):
        pairs.append((DiscreteMeasure(rng.normal(size=m) * 2,
                                      rng.random(m) + 0.05),
                      DiscreteMeasure(rng.normal(size=n) * 2 + 1,
                                      rng.random(n) + 0.05)))
    for m in (10, 25):
        w = np.full(m, 1.0 / m)
        pairs.append((DiscreteMeasure(rng.normal(size=(m, 2)) * 3, w),
                      DiscreteMeasure(rng.normal(size=(m, 2)) * 3, w)))
    pairs += [(pixel_measure(rng, 20), pixel_measure(rng, 55)),
              (pixel_measure(rng, 64), pixel_measure(rng, 33))]
    wide, tall = blob(2.8, 1.5), blob(1.5, 2.8)
    pairs += [(blob_translate(rng, wide), blob_translate(rng, tall)),
              (blob_translate(rng, tall), blob_translate(rng, wide)),
              (blob_translate(rng, wide), blob_translate(rng, wide))]
    return pairs


def scattered_pairs():
    """Pairs the shortlist meets less often than blobs: 150-atom random
    non-uniform measures in the plane, and 60 scattered pixels of a
    20 x 20 grid."""
    rng = np.random.default_rng(405)
    pairs = [(DiscreteMeasure(rng.normal(size=(150, 2)) * 3,
                              rng.random(150) + 0.05),
              DiscreteMeasure(rng.normal(size=(150, 2)) * 3 + 1,
                              rng.random(150) + 0.05)) for _ in range(3)]
    pairs += [(pixel_measure(rng, 60, side=20), pixel_measure(rng, 60, side=20))
              for _ in range(3)]
    return pairs


def north_west_stepwise(a, b):
    """The north-west-corner rule cell by cell: leave the row when its
    cumulative mass is at most the column's, else leave the column."""
    row_mass, col_mass = np.cumsum(a), np.cumsum(b)
    i = j = 0
    cells = [(0, 0)]
    while (i, j) != (a.size - 1, b.size - 1):
        if i < a.size - 1 and (j == b.size - 1 or row_mass[i] <= col_mass[j]):
            i += 1
        else:
            j += 1
        cells.append((i, j))
    return cells


def counting_runs(monkeypatch):
    """Record the LP's objective after every HiGHS run of ``_solve_lp``,
    one list per call."""
    values, run = [], ot._run

    def counting(solver):
        run(solver)
        values[-1].append(solver.getInfo().objective_function_value)

    def solve_lp(*args):
        values.append([])
        return solve(*args)

    solve = ot._solve_lp
    monkeypatch.setattr(ot, "_run", counting)
    monkeypatch.setattr(ot, "_solve_lp", solve_lp)
    return values


class TestLinearProgram:
    def test_matches_quantile_form_on_the_line(self):
        rng = np.random.default_rng(400)
        for _ in range(12):
            m, n = rng.choice(np.arange(40, 81), size=2, replace=False)
            mu = DiscreteMeasure(rng.normal(size=m) * 2, rng.random(m) + 0.05)
            nu = DiscreteMeasure(rng.normal(size=n) * 2 + 1,
                                 rng.random(n) + 0.05)
            assert abs(lp_value(mu, nu) - w2_squared_1d(mu, nu)) <= 1e-9

    def test_matches_assignment_on_uniform_squares(self):
        rng = np.random.default_rng(401)
        for m in range(5, 31, 5):
            for _ in range(3):
                w = np.full(m, 1.0 / m)
                mu = DiscreteMeasure(rng.normal(size=(m, 2)) * 3, w)
                nu = DiscreteMeasure(rng.normal(size=(m, 2)) * 3, w)
                lsa = assignment_value(mu, nu)
                assert abs(lp_value(mu, nu) - lsa) <= 1e-12 * lsa

    def test_integer_shift_of_pixel_measure(self):
        # W2^2(mu, mu + t) = |t|^2; integer coordinates make the LP
        # highly degenerate
        rng = np.random.default_rng(402)
        for atoms in (30, 45, 60):
            for _ in range(3):
                mu = pixel_measure(rng, atoms)
                t = rng.integers(-6, 7, size=2).astype(float)
                nu = mu.translated(t)
                assert abs(lp_value(mu, nu) - t @ t) <= 1e-12 * max(t @ t, 1)

    def test_matches_linprog_to_the_bit(self):
        for mu, nu in lp_instances():
            cost = ot.cost_matrix(mu, nu)
            assert (full_lp_value(mu, nu)
                    == linprog_value(cost, mu.weights, nu.weights))

    def test_unequal_mass_is_infeasible(self):
        cost = np.arange(12.0).reshape(3, 4)
        a = np.full(3, 1.0 / 3)
        b = np.full(4, 0.2)  # total mass 0.8 against 1
        with pytest.raises(SolverFailure, match="(?i)infeasible"):
            ot._solve_lp(cost, a, b, np.ones(cost.shape, bool))


class TestShortlist:
    def test_matches_full_lp(self, monkeypatch):
        runs = counting_runs(monkeypatch)
        for mu, nu in lp_instances() + scattered_pairs():
            full = full_lp_value(mu, nu)
            assert len(runs.pop()) == 1  # every arc: nothing to price
            assert abs(lp_value(mu, nu) - full) <= 1e-12 * full
        assert max(map(len, runs)) >= 3  # two pricing rounds added arcs

    def test_small_side_takes_every_arc(self):
        rng = np.random.default_rng(406)
        mu = pixel_measure(rng, ot._SHORTLIST_NEIGHBOURS)
        nu = pixel_measure(rng, 60)
        assert ot._shortlist(mu, nu).all()
        assert ot._shortlist(nu, mu).all()

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 6), (9, 4), (60, 60)])
    def test_north_west_matches_the_stepwise_rule(self, m, n):
        rng = np.random.default_rng(407 + m + n)
        for a, b in ((np.full(m, 1.0 / m), np.full(n, 1.0 / n)),
                     (rng.random(m) + 0.01, rng.random(n) + 0.01)):
            a, b = a / a.sum(), b / b.sum()
            rows, cols = ot._north_west(a, b)
            assert list(zip(rows, cols)) == north_west_stepwise(a, b)

    def test_pricing_certifies_a_truncated_start(self, monkeypatch):
        # the north-west staircase alone is a spanning tree: its one
        # feasible coupling misses the optimal support, so only pricing
        # reaches the optimum.  The last LP instance is left out: it pairs
        # translates of one blob, whose staircase is the optimal coupling
        runs = counting_runs(monkeypatch)
        for mu, nu in lp_instances()[:-1] + scattered_pairs():
            full = full_lp_value(mu, nu)
            cost = ot.cost_matrix(mu, nu)
            arcs = np.zeros(cost.shape, bool)
            arcs[ot._north_west(mu.weights, nu.weights)] = True
            value = ot._solve_lp(cost, mu.weights, nu.weights, arcs)
            first = runs[-1][0]
            assert first > full * (1 + 1e-9)
            assert len(runs[-1]) >= 2
            assert abs(value - full) <= 1e-12 * full

    def test_pricing_rounds_resume_by_primal_simplex(self, monkeypatch):
        # the first run is dual simplex; after addCols the kept basis is
        # still primal feasible, so every later run is primal simplex
        strategies, run = [], ot._run

        def recording(solver):
            strategies.append(solver.getOptionValue("simplex_strategy")[1])
            run(solver)

        monkeypatch.setattr(ot, "_run", recording)
        simplex = ot._highs.simplex_constants.SimplexStrategy
        dual = int(simplex.kSimplexStrategyDual)
        primal = int(simplex.kSimplexStrategyPrimal)
        rounds = 0
        for mu, nu in lp_instances() + scattered_pairs():
            strategies.clear()
            lp_value(mu, nu)
            assert strategies == [dual] + [primal] * (len(strategies) - 1)
            rounds = max(rounds, len(strategies) - 1)
        assert rounds >= 2


class TestW2Matrix:
    def test_full_matches_translation_oracle(self):
        base = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        data = synth_translation_family(
            base, [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)])
        full = w2_matrix(data)
        np.testing.assert_allclose(
            full.values,
            [[0.0, 4.0, 16.0], [4.0, 0.0, 4.0], [16.0, 4.0, 0.0]], atol=1e-9)
        assert full.kind is MatrixKind.FULL

    def test_all_columns_equals_full(self):
        data = synth_translation_family(two_atom_base(),
                                        np.arange(8.0)[:, None] * [[1.0, 0.0]])
        full = w2_matrix(data)
        plan = sample_columns(8, 8, seed=3)
        via_cols = w2_matrix(data, plan)
        assert via_cols.kind is MatrixKind.FULL
        np.testing.assert_array_equal(via_cols.values, full.values)

    def test_single_entry_plan(self):
        data = synth_translation_family(
            two_atom_base(), [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        plan = SamplePlan(ENTRIES, [[1, 2]], seed=0, size=3)
        part = w2_matrix(data, plan)
        assert part.kind is MatrixKind.PARTIAL
        ii, jj = part.observed_pairs()
        assert list(zip(ii, jj)) == [(1, 2)]
        assert part.values[1, 2] == pytest.approx(1.0)
        assert not part.mask[0, 1]

    def test_column_plan_masks_rows_and_columns(self):
        # the fully observed columns of a column-plan matrix are exactly
        # the plan's columns, until N-1 columns cover every entry
        n = 10
        data = synth_translation_family(
            two_atom_base(), np.arange(float(n))[:, None] * [[1.0, 0.0]])
        for c in range(1, n):
            plan = sample_columns(n, c, seed=5)
            part = w2_matrix(data, plan)
            for j in plan.indices:
                assert part.mask[:, j].all()
                assert part.mask[j, :].all()
            off = np.ones((n, n), bool)
            off[:, plan.indices] = False
            off[plan.indices, :] = False
            np.fill_diagonal(off, False)
            assert not part.mask[off].any()
            if c <= n - 2:
                assert part.kind is MatrixKind.PARTIAL
                np.testing.assert_array_equal(
                    np.flatnonzero(part.mask.all(axis=0)), plan.indices)
            else:
                assert part.kind is MatrixKind.FULL

    def test_entry_rate_plan_counts(self):
        data = synth_translation_family(
            two_atom_base(), np.arange(10.0)[:, None] * [[1.0, 0.0]])
        plan = sample_entries(10, 0.4, seed=9)
        part = w2_matrix(data, plan)
        ii, _ = part.observed_pairs()
        assert ii.size == plan.count == round(0.4 * 45)

    def test_metric_axioms_on_random_measures(self):
        # random non-uniform measures exercise the LP path
        rng = np.random.default_rng(42)
        measures = []
        for _ in range(10):
            m = int(rng.integers(2, 5))
            measures.append(DiscreteMeasure(rng.normal(size=(m, 2)) * 2,
                                            rng.random(m) + 0.1))
        full = w2_matrix(MeasureDataset(measures))
        vals = full.values
        assert np.all(vals >= 0)
        assert np.all(np.diagonal(vals) == 0)
        np.testing.assert_array_equal(vals, vals.T)
        root = np.sqrt(vals)
        n = len(measures)
        for i, j, k in itertools.product(range(n), repeat=3):
            assert root[i, j] <= root[i, k] + root[k, j] + 1e-7

    def test_parallel_determinism(self):
        data = synth_translation_family(
            two_atom_base(), np.random.default_rng(0).normal(size=(12, 2)))
        serial = w2_matrix(data, workers=1)
        parallel = w2_matrix(data, workers=8)
        assert serial.values.tobytes() == parallel.values.tobytes()
        assert serial.mask.tobytes() == parallel.mask.tobytes()

    def test_mixed_dataset_pool_determinism(self, monkeypatch):
        rng = np.random.default_rng(7)
        measures = []
        for m in (2, 3):  # batched
            measures += uniform_family(rng, 4, m, 2).measures
        for _ in range(4):  # LP
            measures.append(DiscreteMeasure(rng.normal(size=(3, 2)),
                                            rng.random(3) + 0.1))
        measures += uniform_family(rng, 2, 6, 2).measures  # assignment
        data = MeasureDataset(measures)
        batched_pairs = 2 * (4 * 3 // 2)  # all pairs within the 2 groups

        solved, started = [], []
        solve_pairs, pool = ot._solve_pairs, ot.ProcessPoolExecutor

        def counting_solve(measures, pairs):
            solved.append(pairs.shape[0])
            return solve_pairs(measures, pairs)

        def counting_pool(**kwargs):
            started.append(kwargs["max_workers"])
            return pool(**kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(ot, "_solve_pairs", counting_solve)
            serial = w2_matrix(data, workers=1)
        assert solved == [14 * 13 // 2 - batched_pairs]

        monkeypatch.setattr(ot, "ProcessPoolExecutor", counting_pool)
        for workers in (2, 8):
            parallel = w2_matrix(data, workers=workers)
            assert serial.values.tobytes() == parallel.values.tobytes()
            assert serial.mask.tobytes() == parallel.mask.tobytes()
        assert started == [2, 8]

    def test_lp_column_dist_same_bits(self, tmp_path, monkeypatch):
        # lp-images-style blob translates: every pair takes the priced
        # shortlist LP, and the .w2m bytes depend on neither the worker
        # count nor the run
        from wassmatrix.cli import main
        from wassmatrix.measures import save_dataset

        rng = np.random.default_rng(408)
        shapes = (blob(2.8, 1.5), blob(1.5, 2.8))
        save_dataset(MeasureDataset([blob_translate(rng, shapes[k % 2])
                                     for k in range(64)]), tmp_path / "data")
        monkeypatch.delenv("WASSMATRIX_WORKERS", raising=False)
        files = []
        for name, workers in (("one", 1), ("two", 2), ("again", 1)):
            assert main(["dist", "--data", str(tmp_path / "data"),
                         "--columns", "2", "--seed", "9", "--workers",
                         str(workers), "--out", str(tmp_path / name)]) == 0
            files.append((tmp_path / f"{name}.w2m").read_bytes())
        assert files[0] == files[1] == files[2]

    def test_all_batched_starts_no_pool(self, monkeypatch):
        data = synth_translation_family(
            two_atom_base(), np.random.default_rng(1).normal(size=(12, 2)))
        serial = w2_matrix(data, workers=1)

        def no_pool(**_kwargs):
            raise AssertionError("a pool started for batched pairs")

        monkeypatch.setattr(ot, "ProcessPoolExecutor", no_pool)
        parallel = w2_matrix(data, workers=2)
        assert serial.values.tobytes() == parallel.values.tobytes()

    def test_serial_assembly_leaves_no_module_state(self, monkeypatch):
        monkeypatch.setattr(ot, "_POOL_DATA", None)
        data = synth_translation_family(
            two_atom_base(), [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        full = w2_matrix(data, workers=1)
        assert full.values[0, 2] == pytest.approx(9.0)
        assert ot._POOL_DATA is None

    def test_plan_size_mismatch(self):
        data = synth_translation_family(two_atom_base(),
                                        [(0.0, 0.0), (1.0, 1.0)])
        plan = sample_columns(5, 2, seed=1)
        with pytest.raises(UsageError, match=r"plan is for size 5, dataset has 2"):
            w2_matrix(data, plan)

    def test_dimension_mismatch_propagates(self):
        bad = MeasureDataset([
            DiscreteMeasure([[0.0, 0.0]], [1.0]),
            DiscreteMeasure([[0.0]], [1.0]),
        ])
        with pytest.raises(UsageError, match=r"measures live in R\^2 and R\^1"):
            w2_matrix(bad)

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_column_pairs_match_triangle_selection(self, n):
        # the pairs of the strict upper triangle that touch a sampled
        # column, selected from all N(N-1)/2 of them
        iu, ju = np.triu_indices(n, k=1)
        for c in sorted({1, 2, n // 2, n - 1, n} - {0}):
            plan = sample_columns(n, c, seed=n + c)
            cols = np.zeros(n, bool)
            cols[plan.indices] = True
            sel = cols[iu] | cols[ju]
            expect = np.column_stack([iu[sel], ju[sel]])
            got = ot._required_pairs(n, plan)
            assert got.dtype == expect.dtype
            np.testing.assert_array_equal(got, expect)

    def test_column_pairs_do_not_list_the_triangle(self):
        # N = 1e5 has 5e9 upper-triangle pairs; two columns touch 2e5
        n, c = 100_000, 2
        plan = sample_columns(n, c, seed=4)
        t0 = time.perf_counter()
        pairs = ot._required_pairs(n, plan)
        elapsed = time.perf_counter() - t0
        assert pairs.shape == (c * (n - 1) - c * (c - 1) // 2, 2)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert (np.diff(pairs[:, 0] * n + pairs[:, 1]) > 0).all()  # distinct
        assert np.isin(pairs, plan.indices).any(axis=1).all()
        assert elapsed < 1.0
