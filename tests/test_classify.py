import math

import numpy as np
import pytest

from wassmatrix import (
    ColumnBlock,
    DistanceMatrix,
    StabilityConfig,
    choose_dimension,
    complete_nystrom,
    derive_seed,
    knn1_classify,
    lda_classify,
    mds,
    sample_columns,
    split_train_test,
    stability_experiment,
    synthetic_dataset,
    w2_matrix,
)
from wassmatrix.classify import (
    CLASSIFIERS,
    AccuracyReport,
    run_trial,
    save_reports_csv,
    save_series_csv,
    save_summary_json,
)
from wassmatrix.errors import InvariantViolation, UsageError


class TestSplit:
    def test_disjoint_and_covering(self):
        for seed in range(20):
            plan = split_train_test(37, 0.1, seed)
            both = np.concatenate([plan.train_indices, plan.test_indices])
            np.testing.assert_array_equal(np.sort(both), np.arange(37))
            assert np.intersect1d(plan.train_indices, plan.test_indices).size == 0

    def test_fraction_within_one_element(self):
        for n in (10, 37, 100, 301):
            plan = split_train_test(n, 0.1, 0)
            assert abs(plan.test_indices.size - 0.1 * n) <= 1

    def test_deterministic(self):
        a = split_train_test(50, 0.2, 9)
        b = split_train_test(50, 0.2, 9)
        np.testing.assert_array_equal(a.test_indices, b.test_indices)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            split_train_test(10, 0.0, 0)

    def test_overlap_rejected(self):
        from wassmatrix.classify import SplitPlan
        with pytest.raises(InvariantViolation):
            SplitPlan([0, 1], [1, 2], seed=0)


class TestKnn1:
    def test_exact_match_wins(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array([3, 7])
        pred = knn1_classify(train, labels, np.array([[5.0, 5.0]]))
        assert pred.tolist() == [7]

    def test_nearer_point_wins(self):
        train = np.array([[0.0], [10.0]])
        labels = np.array([0, 1])
        assert knn1_classify(train, labels, np.array([[2.0]])).tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        train = np.array([[-1.0], [1.0]])
        labels = np.array([5, 9])
        assert knn1_classify(train, labels, np.array([[0.0]])).tolist() == [5]

    def test_empty_train_set(self):
        with pytest.raises(UsageError, match=r"1-NN needs at least one training point"):
            knn1_classify(np.zeros((0, 2)), np.array([]), np.zeros((1, 2)))

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            train = rng.normal(size=(50, 3))
            labels = rng.integers(0, 4, size=50)
            test = rng.normal(size=(8, 3))
            pred = knn1_classify(train, labels, test)
            for t in range(8):
                best, best_d = None, np.inf
                for i in range(50):
                    dist = float(((test[t] - train[i]) ** 2).sum())
                    if dist < best_d:
                        best, best_d = labels[i], dist
                assert pred[t] == best


class TestLda:
    def test_separated_gaussians(self):
        rng = np.random.default_rng(32)
        a = rng.normal(size=(200, 2)) + [0.0, 0.0]
        b = rng.normal(size=(200, 2)) + [8.0, 8.0]
        X = np.vstack([a, b])
        y = np.array([0] * 200 + [1] * 200)
        test_a = rng.normal(size=(50, 2)) + [0.0, 0.0]
        test_b = rng.normal(size=(50, 2)) + [8.0, 8.0]
        pred = lda_classify(X, y, np.vstack([test_a, test_b]))
        truth = np.array([0] * 50 + [1] * 50)
        assert np.mean(pred == truth) >= 0.95

    def test_class_mean_classified_correctly(self):
        rng = np.random.default_rng(33)
        X = np.vstack([rng.normal(size=(20, 2)),
                       rng.normal(size=(20, 2)) + [6.0, 0.0]])
        y = np.array([0] * 20 + [1] * 20)
        mean1 = X[y == 1].mean(axis=0)
        assert lda_classify(X, y, mean1[None, :]).tolist() == [1]

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(600, 3))
        y = rng.integers(0, 3, size=600)  # labels carry no information
        test = rng.normal(size=(300, 3))
        truth = rng.integers(0, 3, size=300)
        acc = np.mean(lda_classify(X, y, test) == truth)
        # chance level 1/3; allow 3 sigma of binomial noise
        assert abs(acc - 1 / 3) <= 3 * np.sqrt((1 / 3) * (2 / 3) / 300)

    def test_degenerate_classes(self):
        with pytest.raises(UsageError, match=r"LDA needs >= 2 classes with "
                                             r">= 2 training points each"):
            lda_classify(np.zeros((3, 2)), np.array([0, 0, 0]), np.zeros((1, 2)))
        with pytest.raises(UsageError, match=r"LDA needs >= 2 classes with "
                                             r">= 2 training points each"):
            lda_classify(np.zeros((3, 2)), np.array([0, 0, 1]), np.zeros((1, 2)))

    def test_collinear_features_survive_ridge(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
        y = np.array([0, 0, 1, 1])
        pred = lda_classify(X, y, np.array([[0.05, 0.0], [4.9, 0.0]]))
        assert pred.tolist() == [0, 1]


@pytest.fixture(scope="module")
def small():
    data = synthetic_dataset("classes3:rand45", 3)
    return data, w2_matrix(data)


class TestStabilityExperiment:
    def test_full_fraction_matches_full_pipeline(self, small):
        data, full = small
        cfg = StabilityConfig(classifiers=("knn1",), seed=11)
        reports = stability_experiment(data, [1.0], 4, cfg, full_matrix=full)
        rep = reports[0]
        labels = np.asarray(data.labels)
        # independent pipeline: direct MDS of the exact matrix, same splits
        for t, acc in enumerate(rep.accuracies):
            trial_seed = derive_seed(11, "stability", repr(1.0), t)
            dim = choose_dimension(full, cfg.energy)
            emb = mds(full, min(dim, full.size - 1))
            split = split_train_test(full.size, cfg.test_fraction,
                                     derive_seed(trial_seed, "split"))
            pred = knn1_classify(emb.coords[split.train_indices],
                                 labels[split.train_indices],
                                 emb.coords[split.test_indices])
            direct = float(np.mean(pred == labels[split.test_indices]))
            assert acc == direct

    def test_rerun_reproduces_report(self, small):
        data, full = small
        cfg = StabilityConfig(seed=21)
        a = stability_experiment(data, [0.3], 1, cfg, full_matrix=full)
        b = stability_experiment(data, [0.3], 1, cfg, full_matrix=full)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_plateau_between_small_and_full_fraction(self, small):
        data, full = small
        cfg = StabilityConfig(classifiers=("knn1",), seed=31)
        reports = stability_experiment(data, [0.2, 1.0], 6, cfg,
                                       full_matrix=full)
        by_fraction = {r.fraction: r for r in reports}
        assert abs(by_fraction[0.2].mean - by_fraction[1.0].mean) <= 0.05

    def test_columns_count(self, small):
        data, full = small
        cfg = StabilityConfig(classifiers=("knn1",), seed=41)
        reports = stability_experiment(data, [0.1], 1, cfg, full_matrix=full)
        assert reports[0].columns == int(np.ceil(0.1 * len(data)))

    def test_needs_labels(self):
        data = synthetic_dataset("translations:grid3", 0)
        with pytest.raises(InvariantViolation):
            stability_experiment(data, [1.0], 1, StabilityConfig())

    def test_rejects_a_matrix_that_is_not_full(self, small):
        data, full = small
        partial = DistanceMatrix.partial(full.values, np.ones_like(full.mask))
        estimated = DistanceMatrix.estimated(full.values)
        for matrix in (partial, estimated):
            with pytest.raises(InvariantViolation, match=matrix.kind.name):
                stability_experiment(data, [1.0], 1, StabilityConfig(),
                                     full_matrix=matrix)

    def test_fraction_validated(self, small):
        data, full = small
        with pytest.raises(ValueError):
            stability_experiment(data, [0.0], 1, StabilityConfig(),
                                 full_matrix=full)

    def test_run_trial_deterministic(self, small):
        data, full = small
        cfg = StabilityConfig(seed=0)
        labels = np.asarray(data.labels)
        a = run_trial(full, labels, 9, 123, cfg)
        b = run_trial(full, labels, 9, 123, cfg)
        assert a == b


def dense_trial(full, labels, c, trial_seed, cfg):
    """run_trial through the dense route: the sanitised N x N Nystrom
    estimate, decomposed by choose_dimension and again by mds."""
    n = full.size
    plan = sample_columns(n, c, derive_seed(trial_seed, "columns"))
    d_est = complete_nystrom(ColumnBlock.from_matrix(full, plan.indices))
    emb = mds(d_est, min(choose_dimension(d_est, cfg.energy), n - 1))
    split = split_train_test(n, cfg.test_fraction, derive_seed(trial_seed, "split"))
    return {name: float(np.mean(
        CLASSIFIERS[name](emb.coords[split.train_indices],
                          labels[split.train_indices],
                          emb.coords[split.test_indices])
        == labels[split.test_indices])) for name in cfg.classifiers}


class TestFactoredTrial:
    def test_accuracies_equal_dense_route(self, small):
        data, full = small
        labels = np.asarray(data.labels)
        cfg = StabilityConfig(seed=51)
        for fraction in (0.2, 1.0):
            c = math.ceil(fraction * full.size)
            for t in range(5):
                trial_seed = derive_seed(51, "stability", repr(fraction), t)
                assert (run_trial(full, labels, c, trial_seed, cfg)
                        == dense_trial(full, labels, c, trial_seed, cfg))

    def test_fixed_dimension_beyond_columns(self, small):
        data, full = small
        labels = np.asarray(data.labels)
        cfg = StabilityConfig(fixed_dimension=30, seed=52)
        result = run_trial(full, labels, 9, 7, cfg)
        assert set(result) == {"knn1", "lda"}
        assert all(0.0 <= acc <= 1.0 for acc in result.values())


class TestReportFiles:
    def make_reports(self):
        return [AccuracyReport("knn1", 0.2, 9, [0.8, 0.9], [111, 222]),
                AccuracyReport("lda", 0.2, 9, [0.7, 0.75], [111, 222])]

    def test_accuracy_range_validated(self):
        with pytest.raises(InvariantViolation):
            AccuracyReport("knn1", 0.2, 9, [1.2], [1])

    def test_mean_std_consistent(self):
        rep = self.make_reports()[0]
        assert rep.mean == pytest.approx(np.mean([0.8, 0.9]))
        assert rep.std == pytest.approx(np.std([0.8, 0.9]))

    def test_csv_layout(self, tmp_path):
        save_reports_csv(self.make_reports(), tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "fraction,trial,seed,classifier,accuracy"
        assert lines[1] == "0.2,0,111,knn1,0.8"
        assert len(lines) == 5

    def test_series_layout(self, tmp_path):
        save_series_csv(self.make_reports(), tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == ("fraction,columns,classifier,"
                            "mean_accuracy,std_accuracy,trials")
        assert lines[1].startswith("0.2,9,knn1,")

    def test_summary_json(self, tmp_path):
        import json
        save_summary_json(self.make_reports(), tmp_path / "sum.json")
        obj = json.loads((tmp_path / "sum.json").read_text())
        assert len(obj["reports"]) == 2
        assert obj["reports"][0]["trial_seeds"] == [111, 222]
