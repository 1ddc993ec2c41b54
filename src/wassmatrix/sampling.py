"""Sample plans for distance-matrix estimation and budget matching.

Two plan variants exist: an entry set Omega drawn uniformly without
replacement from the strict upper triangle, and a column index set I.
``budget_to_columns`` converts an entry-sampling rate into the column
count whose off-diagonal footprint c(c-1)/2 + c(N-c) matches the same
budget, by rounding the real root of that quadratic to the nearest
integer (at N=2000 this maps rates 25/20/10/5/3% to 268/211/103/51/30
columns).

All draws use numpy's seeded PCG64 generator; plans serialize to JSON
with 0-based indices so experiments can be re-run bit-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantViolation, UsageError
from .matrixio import _frozen

ENTRIES = "entries"
COLUMNS = "columns"


@dataclass(frozen=True)
class SamplePlan:
    """Either an entry set (pairs i<j) or a column index set, with its seed."""

    variant: str
    indices: np.ndarray
    seed: int
    size: int

    def __init__(self, variant: str, indices, seed: int, size: int):
        if variant not in (ENTRIES, COLUMNS):
            raise InvariantViolation(f"unknown plan variant {variant!r}")
        idx = np.asarray(indices)
        integral = idx.size == 0 or idx.dtype.kind in "iu"
        if not integral or not all(type(v) is int or isinstance(v, np.integer)
                                   for v in (seed, size)):
            raise InvariantViolation("plan indices, seed and N must be integers")
        idx = _frozen(idx, np.int64)
        if variant == ENTRIES:
            if idx.ndim != 2 or idx.shape[1] != 2:
                raise InvariantViolation("entry plan needs an (m, 2) index array")
            if (idx[:, 0] >= idx[:, 1]).any():
                raise InvariantViolation("entry pairs must satisfy i < j")
            if (idx < 0).any() or (idx >= size).any():
                raise InvariantViolation("entry index out of range")
            flat = idx[:, 0] * size + idx[:, 1]
            if np.unique(flat).size != flat.size:
                raise InvariantViolation("duplicate entry pairs")
        else:
            if idx.ndim != 1 or idx.size == 0:
                raise InvariantViolation("column plan needs a nonempty 1-D index array")
            if (idx < 0).any() or (idx >= size).any():
                raise InvariantViolation("column index out of range")
            if np.unique(idx).size != idx.size:
                raise InvariantViolation("duplicate column indices")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "size", int(size))

    @property
    def is_entries(self) -> bool:
        return self.variant == ENTRIES

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    def observed_offdiagonal_entries(self) -> int:
        """Off-diagonal entry pairs this plan computes."""
        if self.is_entries:
            return self.count
        c, n = self.count, self.size
        return c * (c - 1) // 2 + c * (n - c)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "N": self.size,
            "indices": self.indices.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "SamplePlan":
        try:
            return SamplePlan(obj["variant"], obj["indices"],
                              obj["seed"], obj["N"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed sample plan: {exc}") from exc


def save_plan(plan: SamplePlan, path) -> None:
    Path(path).write_text(json.dumps(plan.to_json(), sort_keys=True) + "\n")


def load_plan(path) -> SamplePlan:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON") from exc
    return SamplePlan.from_json(obj)


# --- plan generation ------------------------------------------------------------

def sample_entries(n: int, rate: float, seed: int) -> SamplePlan:
    """Uniform sample of round(rate * N(N-1)/2) strict-upper-triangle pairs."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    total = n * (n - 1) // 2
    count = int(round(rate * total))
    if count < 1:
        raise UsageError(f"rate {rate} yields no pairs for N={n}")
    rng = np.random.default_rng(seed)
    sel = rng.choice(total, size=count, replace=False)
    sel.sort()
    # flat index k is pair (i, j) of the row-major strict upper triangle,
    # whose row i starts at k = i(2N - i - 1)/2
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, sel, side="right") - 1
    return SamplePlan(ENTRIES, np.column_stack([i, sel - starts[i] + i + 1]),
                      seed, n)


def sample_columns(n: int, c: int, seed: int) -> SamplePlan:
    """Uniform sample of c distinct column indices."""
    if not 1 <= c <= n:
        raise UsageError(f"need 1 <= c <= {n}, got {c}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=c, replace=False))
    return SamplePlan(COLUMNS, idx, seed, n)


def budget_to_columns(n: int, rate: float) -> int:
    """Column count whose off-diagonal footprint matches an entry rate.

    Solves c(c-1)/2 + c(N-c) = rate * N(N-1)/2 for the smaller root of
    the quadratic and rounds to the nearest integer.  rate=1 maps to N
    (the full matrix) even though N-1 columns already touch every
    off-diagonal entry.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    if rate == 1.0:
        return n
    disc = (2 * n - 1) ** 2 - 4.0 * rate * n * (n - 1)
    root = ((2 * n - 1) - math.sqrt(disc)) / 2.0
    return int(min(max(round(root), 1), n))
