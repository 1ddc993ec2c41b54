r"""The benchmark's workloads: inputs, CLI stages, references and checks.

Every workload derives all of its seeds from the workload seed, builds a
dataset directory in set-up, then runs a fixed list of ``wassmatrix``
CLI stages on it.  Stage outputs go to dot-free base names: the CLI
derives its file names with ``Path.with_suffix``, which silently cuts a
base name at its last dot (``--out run/e0.05`` writes ``run/e0.w2m``).
That truncation is a known defect of the CLI; the benchmark only steps
around it.

lp-images
    Why: it isolates the paper's motivating cost, exact LP solves.  The
    measures come from pixel grids with non-uniform weights (about 60
    atoms), so every solve takes the HiGHS LP path.  Stresses ``ot``
    (LP path); Nystrom, MDS and the matrix files are small at N=64,
    and it bypasses ``mc`` and ``classify``.  Every image is an integer
    translate of one of two anisotropic Gaussian blobs, so each entry
    has a known answer: ``|m_i - m_j|^2`` within a blob class and that
    plus one LP value across classes.  The known answers check the LP
    and give the exact matrix for ``rel_error`` without 2016 LP solves.
mc-translations
    Why: matrix completion is most of the run, with no LP and no O(N^3)
    spectral work.  Stresses ``mc``; ``ot`` sees only tiny assignment
    problems.  Each pass completes 7.5% and 10% entry samples for four
    sample seeds.  Known defect, left visible: MC can hit its step cap
    and still exit 0; this shows as ``mc.max_iters_hits``.  Steps to
    tolerance are chaotic in the sample: under the default 30,000-step
    cap, most 5% samples run to the cap, some converge in 2,000 steps
    and the odd 10% sample runs to the cap too, so pass times ranged
    from 1.7 s to 11.2 s on one seed.  The completions therefore run
    with a 5,000-step cap (``--max-outer-iters 50``), which a quarter
    to a third of the 7.5% samples hit, and the pass time varies by a
    few percent.
    Known defect, kept out of the runs: at 5% of entries MC can diverge
    (non-finite residual at block 29, exit 2), as in::

        wassmatrix synth --spec translations:rand200 --seed 1886562264 --out data
        wassmatrix dist --data data --rate 0.05 --seed 1158894405 --out e05
        wassmatrix complete --algorithm mc --input e05.w2m --rank-estimate 5 \
            --seed 1158894405 --out est

    A workload must not fail on any seed, so the low rate is 7.5%, where
    no divergence has been seen.
    The gated ``rel_error`` and ``accuracy`` use the 10% completions;
    the 7.5% errors are listed in the report.
stability-classes3
    Why: the paper's classification-stability experiment at the
    N=1000 size.  It uses ``ot`` the opposite way from lp-images: about
    500k trivial assignment solves, where per-pair Python overhead
    dominates.  Stresses ``ot`` (assignment path), ``classify``,
    ``embedding`` (N=1000 SVD and eigh per trial), ``nystrom`` and
    ``matrixio`` (each N=1000 ``.w2m`` is about 9 MB).  Bypasses ``mc``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import wassmatrix as wm
from wassmatrix import matrixio, measures
from wassmatrix.embedding import load_embedding_coords

def sub_seed(seed: int, *names) -> int:
    """A 31-bit seed for the stage path ``names`` under the workload seed."""
    h = hashlib.sha256(str(int(seed)).encode())
    for name in names:
        h.update(b"/" + str(name).encode())
    return int.from_bytes(h.digest()[:4], "little") >> 1


@dataclass
class Stage:
    """One CLI invocation; ``outputs`` maps each .w2m it writes to the
    kind the file must load with."""

    command: str
    argv: list
    outputs: dict = field(default_factory=dict)


@dataclass
class Context:
    """One pass: pass ``variant`` k of a run draws its inputs from
    (workload seed, k), so the medians of a run cover several inputs."""

    seed: int
    variant: int
    smoke: bool
    workers: int
    dataset: object = None
    labels: np.ndarray = None
    info: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.dataset)

    def seed_for(self, *names) -> int:
        return sub_seed(self.seed, self.variant, *names)

    def means(self) -> np.ndarray:
        return np.array([mu.weights @ mu.points for mu in self.dataset.measures])


class Workload:
    """Defaults shared by the workloads below."""

    name = ""
    why = ""
    # plan file of the dist stage the scaling pass re-runs; None: full matrix
    scaling_plan = None
    # whether the headline Nystrom estimate must equal the truth to round-off
    exact_recovery = False

    def evals(self, ctx: Context) -> list:
        """(estimate, eval JSON) pairs written by ``eval`` stages."""
        return []

    def synth(self, ctx: Context, span, spec: str) -> None:
        """Set-up through the CLI: write the dataset with ``synth``, read it."""
        from wassmatrix import cli
        with span("cli.synth"):
            ctx.info["synth_rc"] = cli.main([
                "synth", "--spec", spec, "--seed",
                str(ctx.seed_for(self.name, "data")), "--out", "data"])
        ctx.dataset = measures.load_dataset("data")

    def accuracy(self, ctx: Context) -> float:
        """Leave-one-out 1-NN accuracy of the headline embeddings."""
        return float(np.mean([loo_knn1(load_embedding_coords(emb), ctx.labels)
                              for _, emb in self.headline(ctx)]))


# --- lp-images -----------------------------------------------------------------

def _blob(sx: float, sy: float, size: int) -> np.ndarray:
    """Anisotropic Gaussian on a size x size grid, cut at 10% of its peak.

    The centre sits off the pixel lattice so the LP is not degenerate by
    symmetry.  The shape is fixed: the per-pair LP cost then depends on
    the pair, not on which blob a seed happened to draw.
    """
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy, cx = (size - 1) / 2 + 0.23, (size - 1) / 2 - 0.31
    img = np.exp(-0.5 * (((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))
    img[img < 0.1] = 0.0
    return img


class LpImages(Workload):
    name = "lp-images"
    why = ("pixel-grid measures with non-uniform weights: every exact "
           "solve takes the LP path, the paper's motivating cost")
    rate = 0.2
    scaling_plan = "cols.plan.json"

    def sizes(self, smoke: bool) -> dict:
        if smoke:
            return {"n": 20, "patch": 7, "sigmas": (1.4, 0.9), "shift": 2}
        return {"n": 64, "patch": 15, "sigmas": (2.8, 1.5), "shift": 5}

    def setup(self, ctx: Context, span) -> None:
        p = self.sizes(ctx.smoke)
        with span("measures.grid_images"):
            rng = np.random.default_rng(ctx.seed_for(self.name, "data"))
            sx, sy = p["sigmas"]
            bases = [_blob(sx, sy, p["patch"]), _blob(sy, sx, p["patch"])]
            side = p["patch"] + p["shift"]
            images, labels = [], []
            for k in range(p["n"]):
                cls = k % 2
                oy, ox = rng.integers(0, p["shift"] + 1, size=2)
                canvas = np.zeros((side, side))
                canvas[oy:oy + p["patch"], ox:ox + p["patch"]] = bases[cls]
                images.append(measures.measure_from_grid_image(canvas))
                labels.append(cls)
            data = measures.MeasureDataset(images, labels, name=self.name)
        measures.save_dataset(data, "data")
        ctx.dataset = measures.load_dataset("data")
        ctx.labels = np.asarray(ctx.dataset.labels)
        ctx.info["bases"] = [measures.measure_from_grid_image(b) for b in bases]

    def stages(self, ctx: Context) -> list:
        w = ctx.workers
        cols = wm.budget_to_columns(ctx.n, self.rate)
        s = ctx.seed_for(self.name, "plan")
        return [
            Stage("dist", ["dist", "--data", "data", "--columns", cols, "--seed", s,
                           "--workers", w, "--out", "cols"],
                  {"cols.w2m": "PARTIAL"}),
            Stage("complete", ["complete", "--algorithm", "nystrom", "--input",
                               "cols.w2m", "--out", "est"], {"est.w2m": "ESTIMATED"}),
            Stage("embed", ["embed", "--input", "est.w2m", "--out", "emb.csv"]),
        ]

    def known(self, ctx: Context):
        """Group of each measure and the offset matrix between groups: the
        two blobs, centred, are one LP solve apart."""
        h, v = ctx.info["bases"]
        gap = wm.w2_squared(h.translated(-(h.weights @ h.points)),
                            v.translated(-(v.weights @ v.points)))
        return ctx.labels, np.array([[0.0, gap], [gap, 0.0]])

    def truth(self, ctx: Context) -> np.ndarray:
        return known_matrix(ctx, *self.known(ctx))

    def headline(self, ctx: Context) -> list:
        return [("est.w2m", "emb.csv")]


# --- mc-translations -------------------------------------------------------------

class McTranslations(Workload):
    name = "mc-translations"
    why = ("tiny assignment solves, so MC completion at 7.5% and 10% of "
           "entries is most of the run")
    rates = ((0.075, "r075"), (0.10, "r10"))
    # 50 blocks of 100 steps: 5,000 steps instead of the default 30,000
    max_outer = 50

    def sizes(self, smoke: bool) -> dict:
        return {"n": 24, "seeds": 1} if smoke else {"n": 200, "seeds": 4}

    def setup(self, ctx: Context, span) -> None:
        self.synth(ctx, span, f"translations:rand{self.sizes(ctx.smoke)['n']}")
        # labels for the embedding check: which half of the [0, 10] shift box
        ctx.labels = (ctx.means()[:, 0] > 5.5).astype(int)

    def _runs(self, ctx: Context):
        for k in range(self.sizes(ctx.smoke)["seeds"]):
            for rate, tag in self.rates:
                yield rate, f"{tag}s{k}", ctx.seed_for(self.name, "sample", k)

    def stages(self, ctx: Context) -> list:
        w = ctx.workers
        out = [Stage("dist", ["dist", "--data", "data", "--full", "--workers", w,
                              "--out", "full"], {"full.w2m": "FULL"})]
        for rate, base, s in self._runs(ctx):
            out += [
                Stage("dist", ["dist", "--data", "data", "--rate", rate, "--seed", s,
                               "--workers", w, "--out", base],
                      {f"{base}.w2m": "PARTIAL"}),
                Stage("complete", ["complete", "--algorithm", "mc", "--input",
                                   f"{base}.w2m", "--rank-estimate", 5,
                                   "--max-outer-iters", self.max_outer, "--seed", s,
                                   "--out", f"{base}est"],
                      {f"{base}est.w2m": "ESTIMATED"}),
                Stage("eval", ["eval", "--estimate", f"{base}est.w2m", "--truth",
                               "full.w2m", "--out", f"{base}eval.json"]),
                Stage("embed", ["embed", "--input", f"{base}est.w2m", "--out",
                                f"{base}emb.csv"]),
            ]
        return out

    def known(self, ctx: Context):
        return np.zeros(ctx.n, int), np.zeros((1, 1))

    def truth(self, ctx: Context) -> np.ndarray:
        return matrixio.load("full.w2m").values

    def headline(self, ctx: Context) -> list:
        top = max(rate for rate, _ in self.rates)
        return [(f"{b}est.w2m", f"{b}emb.csv") for r, b, _ in self._runs(ctx) if r == top]

    def evals(self, ctx: Context) -> list:
        return [(f"{b}est.w2m", f"{b}eval.json") for _, b, _ in self._runs(ctx)]


# --- stability-classes3 ------------------------------------------------------------

class StabilityClasses3(Workload):
    name = "stability-classes3"
    why = ("the paper's N=1000 classification-stability run: 500k trivial "
           "solves, Nystrom, N=1000 spectral work per trial")
    rate = 0.10
    fractions = "0.05,0.2"
    scaling_plan = "cols.plan.json"
    # the squared distances are an EDM of rank 5 and 51 columns reach that
    # rank, so Nystrom must recover the matrix to round-off
    exact_recovery = True

    def sizes(self, smoke: bool) -> dict:
        return {"n": 150, "trials": 2} if smoke else {"n": 1000, "trials": 10}

    def setup(self, ctx: Context, span) -> None:
        self.synth(ctx, span, f"classes3:rand{self.sizes(ctx.smoke)['n']}")
        ctx.labels = np.asarray(ctx.dataset.labels)

    def stages(self, ctx: Context) -> list:
        w = ctx.workers
        s = ctx.seed_for(self.name, "plan")
        cols = wm.budget_to_columns(ctx.n, self.rate)
        trials = self.sizes(ctx.smoke)["trials"]
        return [
            Stage("dist", ["dist", "--data", "data", "--full", "--workers", w,
                           "--out", "full"], {"full.w2m": "FULL"}),
            Stage("dist", ["dist", "--data", "data", "--columns", cols, "--seed", s,
                           "--workers", w, "--out", "cols"], {"cols.w2m": "PARTIAL"}),
            Stage("complete", ["complete", "--algorithm", "nystrom", "--input",
                               "cols.w2m", "--out", "est"], {"est.w2m": "ESTIMATED"}),
            Stage("eval", ["eval", "--estimate", "est.w2m", "--truth", "full.w2m",
                           "--out", "eval.json"]),
            Stage("embed", ["embed", "--input", "est.w2m", "--labels-from", "data",
                            "--out", "emb.csv"]),
            Stage("classify", ["classify", "--data", "data", "--matrix", "full.w2m",
                               "--fractions", self.fractions, "--trials", trials,
                               "--seed", s, "--workers", w, "--out", "cls"]),
        ]

    def known(self, ctx: Context):
        """Within a class the measures are translates; across classes the
        atom separation differs, so no answer is claimed (NaN)."""
        off = np.full((3, 3), np.nan)
        np.fill_diagonal(off, 0.0)
        return ctx.labels, off

    def truth(self, ctx: Context) -> np.ndarray:
        return matrixio.load("full.w2m").values

    def headline(self, ctx: Context) -> list:
        return [("est.w2m", "emb.csv")]

    def evals(self, ctx: Context) -> list:
        return [("est.w2m", "eval.json")]

    def accuracy(self, ctx: Context) -> float:
        """Mean 1-NN and LDA accuracy over the classify fractions and trials."""
        reports = json.loads(Path("cls/summary.json").read_text())["reports"]
        return float(np.mean([a for r in reports for a in r["accuracies"]]))


WORKLOADS = {w.name: w for w in (LpImages(), McTranslations(), StabilityClasses3())}


# --- references ---------------------------------------------------------------------

def known_matrix(ctx: Context, groups: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """|m_i - m_j|^2 plus the group offset; NaN where no answer is known."""
    m = ctx.means()
    sq = ((m[:, None, :] - m[None, :, :]) ** 2).sum(axis=-1)
    return sq + offsets[groups[:, None], groups[None, :]]


def loo_knn1(coords: np.ndarray, labels: np.ndarray) -> float:
    """Leave-one-out 1-NN accuracy of embedding rows against labels."""
    g = np.einsum("ij,ij->i", coords, coords)
    d = g[:, None] + g[None, :] - 2.0 * coords @ coords.T
    np.fill_diagonal(d, np.inf)
    return float(np.mean(labels[np.argmin(d, axis=1)] == labels))
