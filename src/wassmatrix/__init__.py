"""Estimation of squared Wasserstein-2 distance matrices from samples.

The package computes exact pairwise squared W2 distances between
discrete measures, estimates full distance matrices from either a
random subset of entries (Gram-factor matrix completion) or a random
subset of columns (Nystrom completion), embeds the result by classical
MDS, and evaluates estimation error and classification stability.
"""

from .classify import (
    AccuracyReport,
    SplitPlan,
    StabilityConfig,
    knn1_classify,
    lda_classify,
    split_train_test,
    stability_experiment,
)
from .embedding import Embedding, Spectrum, choose_dimension, mds, spectrum
from .matrixio import DistanceMatrix, MatrixKind, relative_error
from .matrixio import load as load_matrix
from .matrixio import save as save_matrix
from .mc import ConvergenceReport, McConfig, apply_A, complete_mc
from .measures import (
    DiscreteMeasure,
    MeasureDataset,
    load_dataset,
    measure_from_grid_image,
    save_dataset,
    synth_dilation_family,
    synth_translation_family,
    synthetic_dataset,
)
from .nystrom import ColumnBlock, complete_nystrom, procrustes_distance
from .ot import (
    cost_matrix,
    w2_matrix,
    w2_squared,
    w2_squared_1d,
    w2_squared_bruteforce,
)
from .sampling import SamplePlan, budget_to_columns, sample_columns, sample_entries
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "ColumnBlock",
    "ConvergenceReport",
    "DiscreteMeasure",
    "DistanceMatrix",
    "Embedding",
    "MatrixKind",
    "McConfig",
    "MeasureDataset",
    "SamplePlan",
    "Spectrum",
    "SplitPlan",
    "StabilityConfig",
    "apply_A",
    "budget_to_columns",
    "choose_dimension",
    "complete_mc",
    "complete_nystrom",
    "cost_matrix",
    "derive_seed",
    "knn1_classify",
    "lda_classify",
    "load_dataset",
    "load_matrix",
    "mds",
    "measure_from_grid_image",
    "procrustes_distance",
    "relative_error",
    "sample_columns",
    "sample_entries",
    "save_dataset",
    "save_matrix",
    "spectrum",
    "split_train_test",
    "stability_experiment",
    "synth_dilation_family",
    "synth_translation_family",
    "synthetic_dataset",
    "w2_matrix",
    "w2_squared",
    "w2_squared_1d",
    "w2_squared_bruteforce",
]
