import json
import math

import numpy as np
import pytest

from wassmatrix import budget_to_columns, sample_columns, sample_entries
from wassmatrix.errors import FormatError, InvariantViolation, UsageError
from wassmatrix.sampling import (
    COLUMNS,
    ENTRIES,
    SamplePlan,
    load_plan,
    save_plan,
)


def offdiag(c, n):
    return c * (c - 1) // 2 + c * (n - c)


def triu_entries(n, rate, seed):
    """Entry pairs drawn as ``sample_entries`` once drew them: the same
    ``rng.choice`` draw, mapped through ``np.triu_indices``."""
    total = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    sel = rng.choice(total, size=int(round(rate * total)), replace=False)
    sel.sort()
    iu, ju = np.triu_indices(n, k=1)
    return np.column_stack([iu[sel], ju[sel]])


class TestSamplePlan:
    def test_entry_pair_order_enforced(self):
        with pytest.raises(InvariantViolation):
            SamplePlan(ENTRIES, [[2, 1]], seed=0, size=4)

    def test_entry_duplicates_rejected(self):
        with pytest.raises(InvariantViolation):
            SamplePlan(ENTRIES, [[0, 1], [0, 1]], seed=0, size=4)

    def test_column_range_checked(self):
        with pytest.raises(InvariantViolation):
            SamplePlan(COLUMNS, [0, 4], seed=0, size=4)

    def test_column_duplicates_rejected(self):
        with pytest.raises(InvariantViolation):
            SamplePlan(COLUMNS, [1, 1], seed=0, size=4)

    def test_caller_array_stays_writable(self):
        a = np.array([7, 2, 5], dtype=np.int64)
        plan = SamplePlan(COLUMNS, a, 0, 10)
        assert a.flags.writeable and not plan.indices.flags.writeable
        a[0] = 9
        np.testing.assert_array_equal(plan.indices, [7, 2, 5])

    @pytest.mark.parametrize("obj", [
        {"variant": "columns", "indices": [1.7, 3.2], "seed": 0, "N": 10},
        {"variant": "columns", "indices": [1, 3], "seed": 0, "N": 10.9},
        {"variant": "columns", "indices": [True, False], "seed": 0, "N": 10},
        {"variant": "columns", "indices": [1, 3], "seed": 0, "N": "10"},
        {"variant": "columns", "indices": [0], "seed": 0, "N": True},
        {"variant": "columns", "indices": [1, 3], "seed": 1.7, "N": 10},
        {"variant": "columns", "indices": [1, 3], "seed": "x", "N": 10},
        {"variant": "entries", "indices": [[0.5, 2]], "seed": 0, "N": 10},
        {"variant": "columns", "indices": [], "seed": 0, "N": 10},
    ])
    def test_non_integral_or_empty_plan_rejected(self, tmp_path, obj):
        with pytest.raises(InvariantViolation):
            SamplePlan.from_json(obj)
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(InvariantViolation):
            load_plan(p)

    def test_json_round_trip(self, tmp_path):
        plan = sample_entries(12, 0.3, seed=77)
        p = tmp_path / "plan.json"
        save_plan(plan, p)
        back = load_plan(p)
        assert back.variant == plan.variant
        assert back.seed == plan.seed
        assert back.size == plan.size
        np.testing.assert_array_equal(back.indices, plan.indices)
        obj = json.loads(p.read_text())
        assert set(obj) == {"variant", "seed", "N", "indices"}

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(FormatError):
            load_plan(p)
        p.write_text('{"variant": "entries"}')
        with pytest.raises(FormatError):
            load_plan(p)


class TestSampleEntries:
    def test_exhaustive_rate(self):
        plan = sample_entries(3, 1.0, seed=0)
        assert sorted(map(tuple, plan.indices.tolist())) == [(0, 1), (0, 2), (1, 2)]

    def test_count_rounding(self):
        plan = sample_entries(2000, 0.25, seed=0)
        assert plan.count == 499750  # 0.25 * 2000 * 1999 / 2

    def test_seed_determinism(self):
        a = sample_entries(30, 0.2, seed=123)
        b = sample_entries(30, 0.2, seed=123)
        np.testing.assert_array_equal(a.indices, b.indices)
        c = sample_entries(30, 0.2, seed=124)
        assert not np.array_equal(a.indices, c.indices)

    def test_empty_plan(self):
        with pytest.raises(UsageError, match=r"rate 0\.01 yields no pairs for N=3"):
            sample_entries(3, 0.01, seed=0)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            sample_entries(10, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_entries(10, 1.5, seed=0)

    @pytest.mark.parametrize("n, rate, seed", [
        (2, 1.0, 0), (2, 0.7, 9), (3, 1.0, 4), (4, 0.5, 8), (10, 0.2, 5),
        (10, 1.0, 6), (57, 0.07, 11), (200, 0.3, 12), (2000, 0.05, 13)])
    def test_plans_match_triu_construction(self, n, rate, seed):
        plan = sample_entries(n, rate, seed)
        expected = triu_entries(n, rate, seed)
        assert plan.indices.dtype == expected.dtype
        np.testing.assert_array_equal(plan.indices, expected)

    def test_uniform_inclusion_frequencies(self):
        # empirical inclusion of each of the 45 pairs at N=10 over many
        # draws stays within 3 standard errors of m/45
        n, rate, draws = 10, 0.2, 100_000
        m = round(rate * 45)
        pair_pos = np.full((n, n), -1)
        pair_pos[np.triu_indices(n, k=1)] = np.arange(45)
        pairs = np.concatenate([sample_entries(n, rate, seed=seed).indices
                                for seed in range(draws)])
        positions = pair_pos[pairs[:, 0], pairs[:, 1]]
        assert positions.min() >= 0  # every pair is in the strict upper triangle
        counts = np.bincount(positions, minlength=45)
        p = m / 45
        se = math.sqrt(p * (1 - p) / draws)
        freq = counts / draws
        assert np.abs(freq - p).max() <= 3 * se


class TestSampleColumns:
    def test_all_columns(self):
        plan = sample_columns(7, 7, seed=0)
        np.testing.assert_array_equal(plan.indices, np.arange(7))

    def test_count_distinct(self):
        plan = sample_columns(2000, 268, seed=0)
        assert plan.count == 268
        assert np.unique(plan.indices).size == 268

    def test_seed_determinism(self):
        a = sample_columns(50, 9, seed=3)
        b = sample_columns(50, 9, seed=3)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_count_out_of_range(self):
        with pytest.raises(UsageError, match=r"need 1 <= c <= 5, got 0"):
            sample_columns(5, 0, seed=0)
        with pytest.raises(UsageError, match=r"need 1 <= c <= 5, got 6"):
            sample_columns(5, 6, seed=0)

    def test_observed_entry_count(self):
        plan = sample_columns(100, 10, seed=0)
        assert plan.observed_offdiagonal_entries() == offdiag(10, 100)


class TestBudgetToColumns:
    def test_published_counts(self):
        table = {0.25: 268, 0.20: 211, 0.10: 103, 0.05: 51, 0.03: 30}
        for rate, expected in table.items():
            assert budget_to_columns(2000, rate) == expected

    def test_full_rate_gives_all_columns(self):
        assert budget_to_columns(2000, 1.0) == 2000
        assert budget_to_columns(7, 1.0) == 7

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            budget_to_columns(100, 0.0)
        for n in (0, -5):
            for rate in (0.1, 1.0):
                with pytest.raises(ValueError, match="n >= 1"):
                    budget_to_columns(n, rate)
        assert budget_to_columns(1, 0.1) == 1

    def test_root_bracketing_property(self):
        # the returned c is within one step of the exact budget crossing:
        # offdiag(c-1) <= target <= offdiag(c+1), and c is the nearest
        # integer to the real root
        for n in (50, 100, 200, 500, 1000, 2000):
            for rate in np.linspace(0.01, 0.99, 25):
                target = rate * n * (n - 1) / 2
                c = budget_to_columns(n, rate)
                assert 1 <= c <= n
                assert offdiag(c - 1, n) <= target <= offdiag(c + 1, n)
                disc = (2 * n - 1) ** 2 - 4.0 * rate * n * (n - 1)
                root = ((2 * n - 1) - math.sqrt(disc)) / 2.0
                assert c == min(max(round(root), 1), n)
                if round(root) >= 1:
                    assert abs(c - root) <= 0.5 + 1e-9

    def test_against_scan_oracle(self):
        # brute-force scan for the two integers bracketing the budget;
        # the chosen count must be one of them
        for n in (50, 137, 400):
            for rate in (0.03, 0.1, 0.33, 0.7):
                target = rate * n * (n - 1) / 2
                c_up = 1
                while offdiag(c_up, n) < target:
                    c_up += 1
                assert budget_to_columns(n, rate) in (c_up - 1, c_up)
