"""Classification stability of MDS embeddings under column sampling.

The experiment mirrors the evaluation protocol of the column-completion
pipeline: for each column fraction, repeatedly (a) sample columns and
complete the distance matrix, (b) embed by MDS at a dimension chosen
from the retained spectral energy, (c) draw a train/test split, and
(d) score 1-nearest-neighbor and LDA accuracy on the embedding.  Every
trial's randomness derives from the experiment seed, so reports
reproduce bit-identically.

The full squared-distance matrix is computed once per experiment and
sampled column blocks are extracted from it; since every entry is a
deterministic function of two measures this is numerically identical to
recomputing each sampled column from scratch.

Trials embed the Nystrom column block directly, in O(N c^2) per trial:
a thin QR of the centred columns and one c x c eigenproblem give the
spectrum of B, and no N x N matrix is built.  The factored route embeds
the raw product C U^+ C^T, the paper's estimator, not the sanitised
matrix that ``complete_nystrom`` returns; the two agree to round-off
whenever rank(U) = rank(D).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .embedding import choose_dimension, mds, spectrum
from .errors import InvariantViolation, UsageError
from .matrixio import DistanceMatrix, MatrixKind, freeze
from .measures import MeasureDataset
from .nystrom import ColumnBlock
from .nystrom import complete_nystrom  # noqa: F401  (bench/tracing.py wraps it here)
from .ot import w2_matrix
from .sampling import sample_columns
from .seeding import derive_seed


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint train/test index sets covering [N]."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int

    def __init__(self, train_indices, test_indices, seed: int):
        train = np.array(train_indices, dtype=np.int64)
        test = np.array(test_indices, dtype=np.int64)
        if np.intersect1d(train, test).size:
            raise InvariantViolation("train and test sets overlap")
        n = train.size + test.size
        if not np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n)):
            raise InvariantViolation("train and test must partition [N]")
        object.__setattr__(self, "train_indices", freeze(train))
        object.__setattr__(self, "test_indices", freeze(test))
        object.__setattr__(self, "seed", int(seed))


def split_train_test(n: int, test_fraction: float, seed: int) -> SplitPlan:
    """Random split; the test share matches the request within one element."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n_test = min(max(int(round(n * test_fraction)), 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return SplitPlan(np.sort(perm[n_test:]), np.sort(perm[:n_test]), seed)


# --- classifiers -----------------------------------------------------------------

def knn1_classify(train_points: np.ndarray, train_labels: np.ndarray,
                  test_points: np.ndarray) -> np.ndarray:
    """Label of the Euclidean-nearest training point; ties go to the
    lowest training index."""
    train_points = np.atleast_2d(np.asarray(train_points, dtype=np.float64))
    test_points = np.atleast_2d(np.asarray(test_points, dtype=np.float64))
    train_labels = np.asarray(train_labels)
    if train_points.shape[0] == 0:
        raise UsageError("1-NN needs at least one training point")
    dists = cdist(test_points, train_points, "sqeuclidean")
    return train_labels[np.argmin(dists, axis=1)]


def lda_classify(train_points: np.ndarray, train_labels: np.ndarray,
                 test_points: np.ndarray,
                 ridge: float = 1e-6) -> np.ndarray:
    """Linear discriminant analysis with a shared covariance.

    The pooled within-class covariance is ridge-regularized by
    ``ridge * trace / dim`` to stay invertible; class priors are the
    training frequencies.  Ties resolve to the smallest class label.
    """
    X = np.atleast_2d(np.asarray(train_points, dtype=np.float64))
    T = np.atleast_2d(np.asarray(test_points, dtype=np.float64))
    y = np.asarray(train_labels)
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2 or counts.min() < 2:
        raise UsageError("LDA needs >= 2 classes with >= 2 training points each")
    n, p = X.shape
    means = np.stack([X[y == c].mean(axis=0) for c in classes])
    pooled = np.zeros((p, p))
    for c, mu in zip(classes, means):
        centered = X[y == c] - mu
        pooled += centered.T @ centered
    pooled /= n - classes.size
    lam = ridge * max(np.trace(pooled) / p, np.finfo(float).tiny)
    pooled += lam * np.eye(p)
    solved = np.linalg.solve(pooled, means.T)  # (p, K)
    scores = T @ solved - 0.5 * np.einsum("kp,pk->k", means, solved)
    scores = scores + np.log(counts / n)
    return classes[np.argmax(scores, axis=1)]


CLASSIFIERS = {"knn1": knn1_classify, "lda": lda_classify}


# --- stability experiment ----------------------------------------------------------

@dataclass(frozen=True)
class StabilityConfig:
    energy: float = 0.97
    test_fraction: float = 0.1
    classifiers: tuple = ("knn1", "lda")
    fixed_dimension: int | None = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for name in self.classifiers:
            if name not in CLASSIFIERS:
                raise ValueError(f"unknown classifier {name!r}")


@dataclass
class AccuracyReport:
    """Per-trial accuracies of one classifier at one column fraction."""

    classifier: str
    fraction: float
    columns: int
    accuracies: list
    trial_seeds: list

    def __post_init__(self):
        if any(not 0.0 <= a <= 1.0 for a in self.accuracies):
            raise InvariantViolation("accuracies must lie in [0, 1]")

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))

    def to_json(self) -> dict:
        return {
            "classifier": self.classifier,
            "fraction": self.fraction,
            "columns": self.columns,
            "accuracies": [float(a) for a in self.accuracies],
            "trial_seeds": [int(s) for s in self.trial_seeds],
            "mean": self.mean,
            "std": self.std,
        }


def run_trial(full: DistanceMatrix, labels: np.ndarray, c: int,
              trial_seed: int, cfg: StabilityConfig) -> dict:
    """One column-sampled pipeline pass; returns per-classifier accuracy."""
    n = full.size
    plan = sample_columns(n, c, derive_seed(trial_seed, "columns"))
    block = ColumnBlock.from_matrix(full, plan.indices)
    spec = spectrum(block)
    if cfg.fixed_dimension is not None:
        dim = min(max(cfg.fixed_dimension, 1), n - 1)
    else:
        dim = min(choose_dimension(spec, cfg.energy), n - 1)
    emb = mds(spec, dim)
    split = split_train_test(n, cfg.test_fraction, derive_seed(trial_seed, "split"))
    train_x = emb.coords[split.train_indices]
    train_y = labels[split.train_indices]
    test_x = emb.coords[split.test_indices]
    test_y = labels[split.test_indices]
    out = {}
    for name in cfg.classifiers:
        pred = CLASSIFIERS[name](train_x, train_y, test_x)
        out[name] = float(np.mean(pred == test_y))
    return out


def stability_experiment(data: MeasureDataset, fractions, trials: int,
                         cfg: StabilityConfig,
                         full_matrix: DistanceMatrix | None = None) -> list:
    """Accuracy reports for every (fraction, classifier) combination.

    Both the column sample and the train/test split are redrawn each
    trial from seeds derived off ``cfg.seed``; the returned reports
    record each trial seed so any single trial can be replayed.
    ``full_matrix``, when given, must be the exact FULL matrix of
    ``data``; a PARTIAL or ESTIMATED one raises InvariantViolation.
    """
    if data.labels is None:
        raise InvariantViolation("stability experiment needs a labeled dataset")
    labels = np.asarray(data.labels)
    n = len(data)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fractions = [float(f) for f in fractions]
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    full = full_matrix if full_matrix is not None else w2_matrix(
        data, workers=cfg.workers)
    if full.kind is not MatrixKind.FULL:
        raise InvariantViolation(
            f"stability needs the exact FULL matrix, got {full.kind.name}")
    if full.size != n:
        raise InvariantViolation("full matrix size does not match dataset")
    reports = []
    for fraction in fractions:
        c = min(max(math.ceil(fraction * n), 1), n)
        per_clf = {name: [] for name in cfg.classifiers}
        seeds = []
        for trial in range(trials):
            trial_seed = derive_seed(cfg.seed, "stability", repr(fraction), trial)
            seeds.append(trial_seed)
            result = run_trial(full, labels, c, trial_seed, cfg)
            for name, acc in result.items():
                per_clf[name].append(acc)
        for name in cfg.classifiers:
            reports.append(AccuracyReport(
                classifier=name, fraction=fraction, columns=c,
                accuracies=per_clf[name], trial_seeds=seeds))
    return reports


# --- report files --------------------------------------------------------------------

def save_reports_csv(reports, path) -> None:
    """Long-form rows ``fraction,trial,seed,classifier,accuracy``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "trial", "seed", "classifier", "accuracy"])
        for rep in reports:
            for t, (seed, acc) in enumerate(zip(rep.trial_seeds, rep.accuracies)):
                writer.writerow([repr(rep.fraction), t, seed, rep.classifier,
                                 repr(float(acc))])


def save_series_csv(reports, path) -> None:
    """Plot-ready mean +- std per (fraction, classifier)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "columns", "classifier",
                         "mean_accuracy", "std_accuracy", "trials"])
        for rep in reports:
            writer.writerow([repr(rep.fraction), rep.columns, rep.classifier,
                             repr(rep.mean), repr(rep.std),
                             len(rep.accuracies)])


def save_summary_json(reports, path) -> None:
    Path(path).write_text(json.dumps(
        {"reports": [rep.to_json() for rep in reports]},
        sort_keys=True) + "\n")
