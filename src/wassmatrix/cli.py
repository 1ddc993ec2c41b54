"""Command-line front end.

Subcommands compose the library into reproducible pipelines::

    wassmatrix synth     --spec classes3:rand300 --out data/
    wassmatrix dist      --data data/ --columns 60 --seed 7 --out run/cols
    wassmatrix complete  --algorithm nystrom --input run/cols.w2m --out run/est
    wassmatrix embed     --input run/est.w2m --energy 0.97 --out run/emb.csv
    wassmatrix eval      --estimate run/est.w2m --truth run/full.w2m
    wassmatrix classify  --data data/ --fractions 0.2,1.0 --trials 20 --out run/cls
    wassmatrix budget    --n 2000 --rate 0.10

Every command is deterministic given its configuration and seed; all
stage randomness derives from the single ``--seed`` by stage-name
hashing, and each command writes a manifest with enough to re-run it
bit-identically; output files append suffixes to the ``--out`` base.
Exit codes: 0 success (MC stopped at its iteration cap warns on stderr),
1 usage/configuration error, 2 numerical failure or a crashed worker
pool.  ``WASSMATRIX_WORKERS`` sets the default worker count for
distance-matrix assembly; small uniform pairs are batched in the main
process and only the remaining pairs go to the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import matrixio, sampling
from .classify import (
    StabilityConfig,
    save_reports_csv,
    save_series_csv,
    save_summary_json,
    stability_experiment,
)
from .embedding import choose_dimension, mds, save_embedding, spectrum
from .errors import ConfigError, NumericalError, UsageError
from .matrixio import MatrixKind
from .mc import McConfig, complete_mc
from .measures import load_dataset, save_dataset, synthetic_dataset
from .nystrom import PINV_TOLERANCE, ColumnBlock, NystromFactor, complete_nystrom
from .ot import w2_matrix
from .sampling import budget_to_columns, sample_columns, sample_entries
from .seeding import derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class ExperimentConfig:
    """Flat bag of pipeline parameters; each command validates the slice
    it uses.  Populated from defaults, then an optional JSON config file,
    then ``--set key=value`` overrides, then explicit flags."""

    data: str | None = None
    synthetic: str | None = None
    input: str | None = None
    truth: str | None = None
    labels_from: str | None = None
    n: int | None = None
    algorithm: str | None = None
    full: bool = False
    rate: float | None = None
    columns: int | None = None
    fractions: list | None = None
    trials: int = 10
    seed: int = 0
    workers: int | None = None
    energy: float = 0.97
    dim: int | None = None
    classifiers: list | None = None
    test_fraction: float = 0.1
    rank_estimate: int = 10
    max_outer_iters: int = 300
    inner_steps: int = 100
    residual_tolerance: float = 1e-6
    out: str | None = None

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return max(1, int(self.workers))
        env = os.environ.get("WASSMATRIX_WORKERS", "").strip()
        if env:
            try:
                return max(1, int(env))
            except ValueError as exc:
                raise ConfigError(f"bad WASSMATRIX_WORKERS value {env!r}") from exc
        return 1

    def mc_config(self) -> McConfig:
        return McConfig(
            rank_estimate=self.rank_estimate,
            max_outer_iters=self.max_outer_iters,
            inner_steps=self.inner_steps,
            residual_tolerance=self.residual_tolerance,
            seed=derive_seed(self.seed, "mc"),
        )


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
_LIST_KEYS = ("fractions", "classifiers")


def _parse_list(key: str, raw: str) -> list:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if key == "fractions":
        return [float(v) for v in items]
    return items


def _coerce(key: str, value):
    if key not in _FIELD_NAMES:
        raise ConfigError(f"unknown config key {key!r}")
    if isinstance(value, str):
        if key in _LIST_KEYS:
            return _parse_list(key, value)
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            return value
    return value


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    params: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: config must be a JSON object")
        for key, value in loaded.items():
            params[key] = _coerce(key, value)
    for pair in getattr(args, "set", None) or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key.strip()] = _coerce(key.strip(), value.strip())
    for key in _FIELD_NAMES:
        if hasattr(args, key) and getattr(args, key) is not None:
            value = getattr(args, key)
            if key in _LIST_KEYS and isinstance(value, str):
                value = _parse_list(key, value)
            params[key] = value
    try:
        return ExperimentConfig(**params)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _load_source_dataset(cfg: ExperimentConfig):
    _require(bool(cfg.data) != bool(cfg.synthetic),
             "exactly one of --data and --synthetic is required")
    if cfg.data:
        return load_dataset(cfg.data)
    return synthetic_dataset(cfg.synthetic, derive_seed(cfg.seed, "synth"))


def _out_path(base: str, suffix: str) -> Path:
    """``base + suffix`` (a dotted base stays whole), parent dir created."""
    path = Path(str(base) + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(path: Path, command: str, cfg: ExperimentConfig,
                    extra: dict, seconds: float) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in asdict(cfg).items() if v is not None},
        "timings": {"seconds": seconds},
    }
    manifest.update(extra)
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n")


# --- subcommands ---------------------------------------------------------------

def cmd_budget(cfg: ExperimentConfig) -> int:
    _require(cfg.n is not None, "--n is required")
    _require(cfg.rate is not None, "--rate is required")
    c = budget_to_columns(cfg.n, cfg.rate)
    if cfg.out:
        _out_path(cfg.out, "").write_text(json.dumps(
            {"n": cfg.n, "rate": cfg.rate, "columns": c}, sort_keys=True) + "\n")
    print(c)
    return EXIT_OK


def cmd_synth(cfg: ExperimentConfig) -> int:
    _require(cfg.synthetic is not None, "--spec is required")
    _require(cfg.out is not None, "--out is required")
    t0 = time.perf_counter()
    data = synthetic_dataset(cfg.synthetic, derive_seed(cfg.seed, "synth"))
    out = Path(cfg.out)
    save_dataset(data, out)
    (out / "dataset.json").write_text(json.dumps({
        "name": data.name,
        "spec": cfg.synthetic,
        "seed": cfg.seed,
        "size": len(data),
        "labeled": data.labels is not None,
    }, sort_keys=True) + "\n")
    _write_manifest(out / "synth.manifest.json", "synth", cfg,
                    {"size": len(data)}, time.perf_counter() - t0)
    print(f"wrote {len(data)} measures to {out}")
    return EXIT_OK


def cmd_dist(cfg: ExperimentConfig) -> int:
    _require(cfg.out is not None, "--out is required")
    t0 = time.perf_counter()
    data = _load_source_dataset(cfg)
    n = len(data)
    modes = sum([bool(cfg.full), cfg.rate is not None, cfg.columns is not None])
    _require(modes == 1, "exactly one of --full, --rate, --columns is required")
    plan_seed = derive_seed(cfg.seed, "plan")
    if cfg.full:
        plan = None
    elif cfg.rate is not None:
        plan = sample_entries(n, cfg.rate, plan_seed)
    else:
        plan = sample_columns(n, cfg.columns, plan_seed)
    matrix = w2_matrix(data, plan, cfg.resolved_workers())
    w2m = _out_path(cfg.out, ".w2m")
    matrixio.save(matrix, w2m)
    observed = (n * (n - 1) // 2 if plan is None
                else plan.observed_offdiagonal_entries())
    extra = {"size": n, "kind": matrix.kind.name, "observed_entries": observed}
    plan_path = _out_path(cfg.out, ".plan.json")
    if plan is None:  # complete would read a plan left by an earlier run
        plan_path.unlink(missing_ok=True)
    else:
        sampling.save_plan(plan, plan_path)
        extra["plan"] = {"variant": plan.variant, "count": plan.count,
                         "seed": plan.seed}
    _write_manifest(_out_path(cfg.out, ".manifest.json"), "dist", cfg, extra,
                    time.perf_counter() - t0)
    print(f"wrote {matrix.kind.name} matrix of size {n} to {w2m}")
    return EXIT_OK


def cmd_complete(cfg: ExperimentConfig) -> int:
    _require(cfg.input is not None, "--input is required")
    _require(cfg.out is not None, "--out is required")
    _require(cfg.algorithm in ("mc", "nystrom"),
             "--algorithm must be mc or nystrom")
    t0 = time.perf_counter()
    in_path = Path(cfg.input)
    matrix = matrixio.load(in_path)
    extra = {"algorithm": cfg.algorithm}
    if cfg.algorithm == "mc":
        estimate, report = complete_mc(matrix, cfg.mc_config())
        report_obj = report.to_json()
        extra["converged"] = report.stop_reason != "max_iters"
        if not extra["converged"]:
            print(f"wassmatrix: warning: MC did not converge: residual "
                  f"{report.final_residual:.3g} > {cfg.residual_tolerance:g} "
                  f"after {report.iterations} steps", file=sys.stderr)
    else:
        plan_path = in_path.with_suffix(".plan.json")
        if plan_path.exists():
            plan = sampling.load_plan(plan_path)
            _require(not plan.is_entries,
                     "nystrom needs a column plan, found an entry plan")
            indices = plan.indices
        else:
            _require(matrix.kind is MatrixKind.FULL,
                     f"no column plan found at {plan_path}")
            indices = np.arange(matrix.size)
        factor = NystromFactor.of(ColumnBlock.from_matrix(matrix, indices))
        estimate = complete_nystrom(factor)
        report_obj = {
            "columns": int(factor.indices.size),
            "pinv_tolerance": PINV_TOLERANCE,
            "core_effective_rank": factor.effective_rank,
        }
    w2m = _out_path(cfg.out, ".w2m")
    matrixio.save(estimate, w2m)
    _out_path(cfg.out, ".report.json").write_text(
        json.dumps(report_obj, sort_keys=True) + "\n")
    _write_manifest(_out_path(cfg.out, ".manifest.json"), "complete", cfg,
                    {**extra, "size": estimate.size}, time.perf_counter() - t0)
    print(f"wrote estimated matrix to {w2m}")
    return EXIT_OK


def cmd_embed(cfg: ExperimentConfig) -> int:
    _require(cfg.input is not None, "--input is required")
    _require(cfg.out is not None, "--out is required")
    t0 = time.perf_counter()
    matrix = matrixio.load(cfg.input)
    labels = None
    if cfg.labels_from:
        labels = load_dataset(cfg.labels_from).labels
        _require(labels is not None, f"{cfg.labels_from} has no labels.csv")
        _require(len(labels) == matrix.size,
                 "label count does not match matrix size")
    spec = spectrum(matrix)
    dim = cfg.dim if cfg.dim is not None else choose_dimension(spec, cfg.energy)
    dim = min(max(dim, 1), matrix.size - 1)
    emb = mds(spec, dim)
    out = _out_path(cfg.out, "")
    save_embedding(emb, out, labels)
    _write_manifest(_out_path(cfg.out, ".manifest.json"), "embed", cfg,
                    {"dimension": emb.dimension,
                     "spectrum_energy": emb.spectrum_energy,
                     "negative_tail_mass": emb.negative_tail_mass},
                    time.perf_counter() - t0)
    print(f"wrote {emb.dimension}-dimensional embedding to {out}")
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig) -> int:
    _require(cfg.input is not None, "--estimate is required")
    _require(cfg.truth is not None, "--truth is required")
    estimate = matrixio.load(cfg.input)
    truth = matrixio.load(cfg.truth)
    err = matrixio.relative_error(estimate, truth)
    if cfg.out:
        _out_path(cfg.out, "").write_text(json.dumps(
            {"relative_error": err}, sort_keys=True) + "\n")
    print(repr(err))
    return EXIT_OK


def cmd_classify(cfg: ExperimentConfig) -> int:
    _require(cfg.out is not None, "--out is required")
    _require(cfg.fractions is not None and len(cfg.fractions) > 0,
             "--fractions is required")
    t0 = time.perf_counter()
    data = _load_source_dataset(cfg)
    _require(data.labels is not None, "classification needs a labeled dataset")
    classifiers = tuple(cfg.classifiers) if cfg.classifiers else ("knn1", "lda")
    stab_cfg = StabilityConfig(
        energy=cfg.energy,
        test_fraction=cfg.test_fraction,
        classifiers=classifiers,
        fixed_dimension=cfg.dim,
        seed=cfg.seed,
        workers=cfg.resolved_workers(),
    )
    full = None
    if cfg.input:
        full = matrixio.load(cfg.input)
    reports = stability_experiment(data, cfg.fractions, cfg.trials, stab_cfg,
                                   full_matrix=full)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_reports_csv(reports, out / "trials.csv")
    save_series_csv(reports, out / "series.csv")
    save_summary_json(reports, out / "summary.json")
    _write_manifest(out / "classify.manifest.json", "classify", cfg,
                    {"size": len(data), "trials": cfg.trials},
                    time.perf_counter() - t0)
    for rep in reports:
        print(f"fraction {rep.fraction:g} ({rep.columns} cols) "
              f"{rep.classifier}: {rep.mean:.4f} +- {rep.std:.4f}")
    return EXIT_OK


# --- wiring -----------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None,
                     help="processes for the exact pairs that are not "
                          "batched in the main process")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wassmatrix", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("budget", help="match an entry rate to a column count")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--out", default=None, help="optional JSON output path")
    _add_common(p)
    p.set_defaults(func=cmd_budget)

    p = subs.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--spec", dest="synthetic", default=None)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("dist", help="compute a (sampled) W2^2 distance matrix")
    p.add_argument("--data", default=None, help="dataset directory")
    p.add_argument("--synthetic", default=None, help="synthetic dataset spec")
    p.add_argument("--full", action="store_true", default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--columns", type=int, default=None)
    p.add_argument("--out", default=None, help="output base path")
    _add_common(p)
    p.set_defaults(func=cmd_dist)

    p = subs.add_parser("complete", help="estimate the full matrix from samples")
    p.add_argument("--algorithm", choices=("mc", "nystrom"), default=None)
    p.add_argument("--input", default=None, help="observed .w2m file")
    p.add_argument("--out", default=None)
    p.add_argument("--rank-estimate", dest="rank_estimate", type=int, default=None)
    p.add_argument("--max-outer-iters", dest="max_outer_iters", type=int, default=None)
    p.add_argument("--inner-steps", dest="inner_steps", type=int, default=None)
    p.add_argument("--residual-tolerance", dest="residual_tolerance",
                   type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_complete)

    p = subs.add_parser("embed", help="classical MDS embedding of a matrix")
    p.add_argument("--input", default=None, help=".w2m file")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--labels-from", dest="labels_from", default=None,
                   help="dataset directory supplying a label column")
    p.add_argument("--out", default=None, help="embedding CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("eval", help="relative Frobenius error of an estimate")
    p.add_argument("--estimate", dest="input", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--out", default=None, help="optional JSON output path")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("classify", help="classification-stability experiment")
    p.add_argument("--data", default=None)
    p.add_argument("--synthetic", default=None)
    p.add_argument("--matrix", dest="input", default=None,
                   help="precomputed full .w2m for the dataset")
    p.add_argument("--fractions", default=None, help="comma-separated fractions")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--dim", type=int, default=None,
                   help="fixed embedding dimension (default: choose by energy)")
    p.add_argument("--classifiers", default=None, help="comma-separated names")
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=None)
    p.add_argument("--out", default=None, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        return args.func(cfg)
    except (np.linalg.LinAlgError, NumericalError, BrokenProcessPool) as exc:
        print(f"wassmatrix: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, UsageError, OSError, ValueError) as exc:
        print(f"wassmatrix: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
