"""Classical multidimensional scaling of squared-distance matrices.

Double centering B = -1/2 H D H with H = I - (1/N) 1 1^T turns squared
distances into a Gram matrix; coordinates are eigenvector columns scaled
by the square roots of the d algebraically largest eigenvalues.
Negative eigenvalues (possible for estimated, non-Euclidean inputs)
contribute zero coordinates and are reported as negative tail mass
rather than producing imaginary axes.  A fixed sign convention (first
nonzero eigenvector entry positive) makes output deterministic.

Each input is decomposed once: :func:`spectrum` produces the eigenpairs
(densely, or from a Nystrom column block in O(N c^2)), and both
:func:`choose_dimension` and :func:`mds` read them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UsageError
from .matrixio import DistanceMatrix, MatrixKind
from .nystrom import ColumnBlock

_SIGN_TOL = 1e-12


def double_center(values: np.ndarray) -> np.ndarray:
    """B = -1/2 H D H without forming H; B annihilates the ones vector."""
    row = values.mean(axis=1, keepdims=True)
    col = values.mean(axis=0, keepdims=True)
    return -0.5 * (values - row - col + values.mean())


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.nonzero(np.abs(col) > _SIGN_TOL)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


@dataclass(frozen=True)
class Embedding:
    """MDS coordinates plus the retained spectrum.

    ``eigenvalues`` holds the d algebraically largest eigenvalues of B in
    nonincreasing order (negative ones are kept for reporting but give
    zero coordinates).  ``spectrum_energy`` is the retained fraction of
    the total singular-value mass of B; ``negative_tail_mass`` is the
    fraction carried by negative eigenvalues.
    """

    coords: np.ndarray
    eigenvalues: np.ndarray
    spectrum_energy: float
    negative_tail_mass: float
    dimension: int

    def to_metadata(self) -> dict:
        return {
            "dimension": self.dimension,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "spectrum_energy": self.spectrum_energy,
            "negative_tail_mass": self.negative_tail_mass,
        }


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of B in descending algebraic order, from one decomposition.

    ``eigenvectors`` holds one column per stored eigenvalue.  A spectrum
    of an N x N matrix may store fewer than N eigenpairs; the ones it
    omits are zero.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    size: int

    def top(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The d algebraically largest eigenpairs.  Omitted zero
        eigenvalues rank between the stored positive and negative ones
        and come with zero vectors (their coordinates are zero anyway)."""
        vals, vecs = self.eigenvalues, self.eigenvectors
        split = int(np.count_nonzero(vals >= 0.0))
        head = min(d, split)
        pad = min(d - head, self.size - vals.size)
        rest = slice(split, split + d - head - pad)
        return (np.concatenate([vals[:head], np.zeros(pad), vals[rest]]),
                np.hstack([vecs[:, :head], np.zeros((self.size, pad)), vecs[:, rest]]))


def _descending(evals: np.ndarray, evecs: np.ndarray, n: int) -> Spectrum:
    order = np.argsort(evals)[::-1]
    return Spectrum(evals[order], evecs[:, order], n)


def spectrum(source: DistanceMatrix | ColumnBlock | Spectrum) -> Spectrum:
    """The spectrum of B = -1/2 H D H, decomposed once.

    A :class:`DistanceMatrix` takes one dense ``eigh`` of B.  A
    :class:`ColumnBlock` (D = C W C^T, W = U^+) takes the O(N c^2) route:
    with the thin QR H C = Q R, B = Q (-1/2 R W R^T) Q^T, so the c x c
    eigenproblem gives every nonzero eigenvalue and Q lifts its vectors.
    A :class:`Spectrum` is returned as is.  A PARTIAL matrix raises
    :class:`UsageError`: its unobserved entries are not distances.
    """
    if isinstance(source, Spectrum):
        return source
    if isinstance(source, ColumnBlock):
        columns = source.columns
        q, r = np.linalg.qr(columns - columns.mean(axis=0))
        small = -0.5 * (r @ source.core_pinv @ r.T)
        evals, y = np.linalg.eigh(0.5 * (small + small.T))
        return _descending(evals, q @ y, source.size)
    if source.kind is MatrixKind.PARTIAL:
        raise UsageError("MDS needs a FULL or ESTIMATED matrix, got PARTIAL")
    evals, evecs = np.linalg.eigh(double_center(source.values))
    return _descending(evals, evecs, source.size)


def mds(source: DistanceMatrix | ColumnBlock | Spectrum, d: int) -> Embedding:
    """Embed a squared-distance matrix into R^d by classical MDS.

    Coordinate column k is v_k * sqrt(max(lambda_k, 0)) for the d
    algebraically largest eigenpairs of the double-centered matrix.
    ``source`` is anything :func:`spectrum` accepts.
    """
    spec = spectrum(source)
    n = spec.size
    if not 1 <= d <= n - 1:
        raise UsageError(f"need 1 <= d <= {n - 1}, got {d}")
    retained, vectors = spec.top(d)
    coords = _fix_signs(vectors) * np.sqrt(np.maximum(retained, 0.0))
    evals = spec.eigenvalues
    total = float(np.abs(evals).sum())
    energy = float(np.abs(retained).sum() / total) if total > 0 else 1.0
    negative = float(np.abs(evals[evals < 0]).sum() / total) if total > 0 else 0.0
    return Embedding(coords=coords, eigenvalues=retained,
                     spectrum_energy=energy, negative_tail_mass=negative,
                     dimension=d)


def choose_dimension(source: DistanceMatrix | ColumnBlock | Spectrum,
                     energy: float) -> int:
    """Smallest d whose top-d singular values of B reach ``energy`` of
    the total singular-value sum.  B is symmetric, so its singular
    values are the |lambda| of :func:`spectrum` (and zero beyond it)."""
    if not 0.0 < energy < 1.0:
        raise ValueError(f"energy must lie in (0, 1), got {energy}")
    spec = spectrum(source)
    sigma = np.sort(np.abs(spec.eigenvalues))[::-1]
    total = sigma.sum()
    if total <= 0.0:
        return 1
    fractions = np.cumsum(sigma) / total
    # cumsum/total can fall an ulp short of 1 at the end; then all N are needed
    k = int(np.searchsorted(fractions, energy))
    return k + 1 if k < sigma.size else spec.size


def save_embedding(embedding: Embedding, path, labels=None) -> None:
    """CSV export ``index,z1,..,zd[,label]`` plus a JSON metadata sidecar."""
    path = Path(path)
    n, d = embedding.coords.shape
    header = ["index"] + [f"z{k + 1}" for k in range(d)]
    if labels is not None:
        header.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            row = [i] + [repr(float(v)) for v in embedding.coords[i]]
            if labels is not None:
                row.append(int(labels[i]))
            writer.writerow(row)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta_path.write_text(json.dumps(embedding.to_metadata(), sort_keys=True) + "\n")


def load_embedding_coords(path) -> np.ndarray:
    """Read back the coordinate block of a saved embedding CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    zcols = [k for k, name in enumerate(header) if name.startswith("z")]
    return np.array([[float(r[k]) for k in zcols] for r in rows[1:]])
