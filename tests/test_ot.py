import itertools

import numpy as np
import pytest

from wassmatrix import (
    DiscreteMeasure,
    MatrixKind,
    MeasureDataset,
    sample_columns,
    sample_entries,
    synth_translation_family,
    w2_matrix,
    w2_squared,
    w2_squared_1d,
    w2_squared_bruteforce,
)
from wassmatrix.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    SolverFailure,
    UnsupportedInstance,
)
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
        with pytest.raises(DimensionMismatch):
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
        from types import SimpleNamespace
        from wassmatrix.cli import main
        from wassmatrix.measures import save_dataset

        calls = []

        def failing_linprog(*_args, **_kwargs):
            calls.append(1)
            return SimpleNamespace(status=2, message="infeasible", fun=None,
                                   x=None)

        monkeypatch.setattr(ot, "linprog", failing_linprog)
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.3, 0.7])
        nu = DiscreteMeasure([[0.0, 1.0], [2.0, 1.0]], [0.6, 0.4])
        with pytest.raises(SolverFailure, match="infeasible"):
            w2_squared(mu, nu)
        assert len(calls) == 1  # the non-uniform pair took the LP path

        save_dataset(MeasureDataset([mu, nu]), tmp_path / "data")
        monkeypatch.delenv("WASSMATRIX_WORKERS", raising=False)
        assert main(["dist", "--data", str(tmp_path / "data"), "--full",
                     "--out", str(tmp_path / "full")]) == 2
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
        with pytest.raises(UnsupportedInstance):
            w2_squared_bruteforce(mu, mu)

    def test_rejects_large(self):
        m = 9
        mu = DiscreteMeasure(np.arange(m, dtype=float), np.full(m, 1.0 / m))
        with pytest.raises(UnsupportedInstance):
            w2_squared_bruteforce(mu, mu)

    def test_rejects_unequal_counts(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([0.0, 1.0, 2.0], [1 / 3] * 3)
        with pytest.raises(UnsupportedInstance):
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
        with pytest.raises(DimensionMismatch):
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
        mp.setattr(ot, "linprog", no_solve)
        return w2_matrix(data).values


class TestBatchedRoute:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_independent_routes(self, m, dim, monkeypatch):
        rng = np.random.default_rng(300 + 10 * m + dim)
        data = uniform_family(rng, 12, m, dim)
        vals = batched_matrix(data, monkeypatch)
        for i, j in zip(*np.triu_indices(len(data), k=1)):
            mu, nu = data[int(i)], data[int(j)]
            assert vals[i, j] == w2_squared(mu, nu)  # same bits as the LSA
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
            assert vals[i, j] == w2_squared(data[int(i)], data[int(j)])

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
                lsa = w2_squared(mu, nu)
                assert vals[i, j] == w2_squared_bruteforce(mu, nu)
                assert vals[i, j] <= lsa <= vals[i, j] * (1 + 1e-12)


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
        data = synth_translation_family(
            two_atom_base(), np.arange(6.0)[:, None] * [[1.0, 0.0]])
        plan = sample_columns(6, 2, seed=5)
        part = w2_matrix(data, plan)
        for j in plan.indices:
            assert part.mask[:, j].all()
            assert part.mask[j, :].all()
        off = np.ones((6, 6), bool)
        off[:, plan.indices] = False
        off[plan.indices, :] = False
        np.fill_diagonal(off, False)
        assert not part.mask[off].any()

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

        def counting_solve(points, weights, pairs):
            solved.append(pairs.shape[0])
            return solve_pairs(points, weights, pairs)

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
        with pytest.raises(IndexOutOfRange):
            w2_matrix(data, plan)

    def test_dimension_mismatch_propagates(self):
        bad = MeasureDataset([
            DiscreteMeasure([[0.0, 0.0]], [1.0]),
            DiscreteMeasure([[0.0]], [1.0]),
        ])
        with pytest.raises(DimensionMismatch):
            w2_matrix(bad)
