"""Command-line front end.

Subcommands compose the library into reproducible pipelines::

    wassmatrix synth     --spec classes3:rand300 --out data/
    wassmatrix dist      --data data/ --columns 60 --seed 7 --out run/cols
    wassmatrix complete  --algorithm nystrom --input run/cols.w2m --out run/est
    wassmatrix embed     --input run/est.w2m --energy 0.97 --out run/emb.csv
    wassmatrix eval      --estimate run/est.w2m --truth run/full.w2m
    wassmatrix classify  --data data/ --fractions 0.2,1.0 --trials 20 --out run/cls
    wassmatrix budget    --n 2000 --rate 0.10

Every command is deterministic given its options; all stage randomness
derives from the single ``--seed`` by stage-name hashing.  ``synth``,
``dist``, ``complete``, ``embed`` and ``classify`` write a manifest of
their options with enough to re-run them bit-identically; ``eval`` and
``budget`` write only their optional JSON result.  Output files append
suffixes to the ``--out`` base.
``dist --columns`` writes the sampled columns C = D(:, I) and I, not
the N x N matrix, for every column count; ``complete --algorithm
nystrom`` takes only such a column file and writes its estimate
C U^+ C^T (``complete_nystrom``) as the same C and I (an estimate given
as input comes back unchanged); ``embed`` of that estimate embeds the
raw product from the block in O(N c r), r the core's effective rank, as
``classify`` does; MC output stays dense.  ``eval`` compares a Nystrom estimate with the
truth one row block at a time, without forming it; every other
``.w2m`` reads back as its N x N matrix (``eval``, ``classify
--matrix``, MC input); ``classify --matrix`` reads only the labels of
``--data``, not its measures.
``--config FILE`` (JSON) and ``--set key=value`` set the command's own
options by name: ``rank_estimate=5`` is ``--rank-estimate=5``, so a
value gets its flag's type, choices, required and exclusivity checks.
Flags win over ``--set``, which wins over the file.  Exit codes: 0
success (MC stopped at its iteration cap, or with points that have
fewer than rank + 1 observed distances, warns on stderr), 1
usage/configuration error, including a key the command does not take,
2 numerical failure or a crashed worker pool.  ``WASSMATRIX_WORKERS``
sets the default worker count for distance-matrix assembly; small
uniform pairs are batched in the main process and only the remaining
pairs go to the workers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import matrixio, sampling
from .matrixio import MatrixKind
from .classify import (
    StabilityConfig,
    save_reports_csv,
    save_series_csv,
    save_summary_json,
    stability_experiment,
)
from .embedding import choose_dimension, mds, save_embedding, spectrum
from .errors import NumericalError, UsageError
from .mc import McConfig, complete_mc
from .measures import (
    load_dataset,
    load_labels,
    save_dataset,
    synthetic_dataset,
)
from .nystrom import PINV_TOLERANCE, ColumnBlock, complete_nystrom
from .ot import w2_matrix
from .sampling import budget_to_columns, sample_columns, sample_entries
from .seeding import derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

# parser entries that are not options of the command
_NOT_OPTIONS = frozenset({"command", "func", "help", "config", "set"})
# complete options that only --algorithm mc reads
_MC_OPTIONS = ("rank_estimate", "max_outer_iters", "residual_tolerance")


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2, and a flag is
    spelled in full (so ``--conf`` is not a ``--config`` that only the
    command's parser sees)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def resolved_workers(workers: int | None) -> int:
    """``--workers``, else ``WASSMATRIX_WORKERS``, else 1."""
    source, value = "--workers", workers
    if value is None:
        source = "WASSMATRIX_WORKERS"
        value = os.environ.get(source, "").strip() or 1
    try:
        workers = int(value)
    except ValueError as exc:
        raise UsageError(f"bad {source} value {value!r}") from exc
    if workers < 1:
        raise UsageError(f"{source} must be >= 1, got {workers}")
    return workers


def _names(raw: str) -> list:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _fractions(raw: str) -> list:
    try:
        return [float(v) for v in _names(raw)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid comma-separated fractions: {raw!r}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _out_path(base: str, suffix: str) -> Path:
    """``base + suffix`` (a dotted base stays whole), parent dir created."""
    path = Path(str(base) + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(path: Path, args: argparse.Namespace, extra: dict,
                    seconds: float) -> None:
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items()
                   if k not in _NOT_OPTIONS and v is not None},
        "timings": {"seconds": seconds},
    }
    manifest.update(extra)
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n")


# --- subcommands ---------------------------------------------------------------

def cmd_budget(args: argparse.Namespace) -> int:
    c = budget_to_columns(args.n, args.rate)
    if args.out:
        _out_path(args.out, "").write_text(json.dumps(
            {"n": args.n, "rate": args.rate, "columns": c}, sort_keys=True) + "\n")
    print(c)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    data = synthetic_dataset(args.synthetic, derive_seed(args.seed, "synth"))
    out = Path(args.out)
    save_dataset(data, out)
    _write_manifest(out / "synth.manifest.json", args,
                    {"size": len(data)}, time.perf_counter() - t0)
    print(f"wrote {len(data)} measures to {out}")
    return EXIT_OK


def cmd_dist(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    data = load_dataset(args.data)
    n = len(data)
    plan_seed = derive_seed(args.seed, "plan")
    if args.full:
        plan = None
    elif args.rate is not None:
        plan = sample_entries(n, args.rate, plan_seed)
    else:
        plan = sample_columns(n, args.columns, plan_seed)
    matrix = w2_matrix(data, plan, resolved_workers(args.workers))
    w2m = _out_path(args.out, ".w2m")
    if args.columns is not None:
        matrixio.save(ColumnBlock.from_matrix(matrix, plan.indices), w2m)
    else:
        matrixio.save(matrix, w2m)
    observed = (n * (n - 1) // 2 if plan is None
                else plan.observed_offdiagonal_entries())
    extra = {"size": n, "kind": matrix.kind.name, "observed_entries": observed}
    plan_path = _out_path(args.out, ".plan.json")
    if plan is None:  # the files at one base describe one run
        plan_path.unlink(missing_ok=True)
    else:
        sampling.save_plan(plan, plan_path)
        extra["plan"] = {"variant": plan.variant, "count": plan.count,
                         "seed": plan.seed}
    _write_manifest(_out_path(args.out, ".manifest.json"), args, extra,
                    time.perf_counter() - t0)
    print(f"wrote {matrix.kind.name} matrix of size {n} to {w2m}")
    return EXIT_OK


def cmd_complete(args: argparse.Namespace) -> int:
    given = [key for key in _MC_OPTIONS if getattr(args, key) is not None]
    if args.algorithm != "mc" and given:
        raise UsageError(f"--{given[0].replace('_', '-')} is an option of "
                         f"--algorithm mc only")
    t0 = time.perf_counter()
    stored = matrixio.load(args.input, expand=args.algorithm == "mc")
    extra = {"algorithm": args.algorithm}
    if args.algorithm == "mc":
        config = McConfig(**{key: getattr(args, key) for key in given},
                          seed=derive_seed(args.seed, "mc"))
        # the manifest echoes the settings used, defaults included
        vars(args).update({key: getattr(config, key) for key in _MC_OPTIONS})
        estimate, report = complete_mc(stored, config)
        report_obj = report.to_json()
        extra["converged"] = report.stop_reason != "max_iters"
        if not extra["converged"]:
            print(f"wassmatrix: warning: MC did not converge: residual "
                  f"{report.final_residual:.3g} > {args.residual_tolerance:g} "
                  f"after {report.iterations} operator products "
                  f"({report.outer_iterations} LM steps)", file=sys.stderr)
        if report.underdetermined_points:
            print(f"wassmatrix: warning: MC estimate has "
                  f"{report.underdetermined_points} underdetermined point(s) with "
                  f"fewer than {report.rank + 1} observed distances at rank "
                  f"{report.rank}", file=sys.stderr)
    else:
        _require(isinstance(stored, ColumnBlock),
                 "nystrom needs a column file (dist --columns)")
        # an ESTIMATED file's own columns reproduce it
        estimate = complete_nystrom(stored)
        rank, sigma = estimate.effective_rank, estimate.core_singular_values
        report_obj = {
            "columns": estimate.count,
            "pinv_tolerance": PINV_TOLERANCE,
            "core_effective_rank": rank,
            # sigma_1 / sigma_r over the singular values U^+ keeps
            "core_condition": float(sigma[0] / sigma[rank - 1]) if rank else None,
        }
    w2m = _out_path(args.out, ".w2m")
    matrixio.save(estimate, w2m)
    _out_path(args.out, ".report.json").write_text(
        json.dumps(report_obj, sort_keys=True) + "\n")
    _write_manifest(_out_path(args.out, ".manifest.json"), args,
                    {**extra, "size": estimate.size}, time.perf_counter() - t0)
    print(f"wrote estimated matrix to {w2m}")
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    stored = matrixio.load(args.input, expand=False)
    labels = None
    if args.labels_from:
        labels = load_labels(args.labels_from)
        _require(labels is not None, f"{args.labels_from} has no labels.csv")
        _require(len(labels) == stored.size,
                 "label count does not match matrix size")
    spec = spectrum(stored)
    dim = args.dim if args.dim is not None else choose_dimension(spec, args.energy)
    dim = min(max(dim, 1), stored.size - 1)
    emb = mds(spec, dim)
    route = "columns" if isinstance(stored, ColumnBlock) else "dense"
    out = _out_path(args.out, "")
    save_embedding(emb, out, labels)
    _write_manifest(_out_path(args.out, ".manifest.json"), args,
                    {"dimension": emb.dimension,
                     "spectrum_energy": emb.spectrum_energy,
                     "negative_tail_mass": emb.negative_tail_mass,
                     "spectrum": {"route": route,
                                  "eigenpairs": int(spec.eigenvalues.size)}},
                    time.perf_counter() - t0)
    print(f"wrote {emb.dimension}-dimensional embedding to {out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    # a Nystrom estimate is compared row block by row block
    estimate = matrixio.load(args.input, expand=False)
    if isinstance(estimate, ColumnBlock) and estimate.kind is MatrixKind.PARTIAL:
        estimate = estimate.matrix()  # FULL once its columns cover D
    truth = matrixio.load(args.truth)
    err = matrixio.relative_error(estimate, truth)
    if args.out:
        _out_path(args.out, "").write_text(json.dumps(
            {"relative_error": err}, sort_keys=True) + "\n")
    print(repr(err))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    _require(bool(args.fractions), "--fractions is empty")
    t0 = time.perf_counter()
    if args.input:  # the matrix is given: only the labels are read
        data = labels = load_labels(args.data)
    else:
        data = load_dataset(args.data)
        labels = data.labels
    _require(labels is not None, "classification needs a labeled dataset")
    stab_cfg = StabilityConfig(
        energy=args.energy,
        test_fraction=args.test_fraction,
        classifiers=tuple(args.classifiers or StabilityConfig.classifiers),
        fixed_dimension=args.dim,
        seed=args.seed,
        workers=resolved_workers(args.workers),
    )
    full = matrixio.load(args.input) if args.input else None
    reports = stability_experiment(data, args.fractions, args.trials, stab_cfg,
                                   full_matrix=full)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_reports_csv(reports, out / "trials.csv")
    save_series_csv(reports, out / "series.csv")
    save_summary_json(reports, out / "summary.json")
    _write_manifest(out / "classify.manifest.json", args,
                    {"size": len(labels), "trials": args.trials},
                    time.perf_counter() - t0)
    for rep in reports:
        print(f"fraction {rep.fraction:g} ({rep.columns} cols) "
              f"{rep.classifier}: {rep.mean:.4f} +- {rep.std:.4f}")
    return EXIT_OK


# --- wiring -----------------------------------------------------------------------

@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """``make_parser()``, built once per process."""
    return make_parser()


def make_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each command's parser by name."""
    parser = _Parser(prog="wassmatrix", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("budget", help="match an entry rate to a column count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_budget)

    p = subs.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--spec", dest="synthetic", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("dist", help="compute a (sampled) W2^2 distance matrix")
    p.add_argument("--data", required=True, help="dataset directory")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--full", action="store_true")
    mode.add_argument("--rate", type=float)
    mode.add_argument("--columns", type=int)
    p.add_argument("--out", required=True, help="output base path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int,
                   help="processes for the exact pairs that are not "
                        "batched in the main process")
    p.set_defaults(func=cmd_dist)

    p = subs.add_parser("complete", help="estimate the full matrix from samples")
    p.add_argument("--algorithm", choices=("mc", "nystrom"), required=True)
    p.add_argument("--input", required=True, help="observed .w2m file")
    p.add_argument("--out", required=True)
    p.add_argument("--rank-estimate", dest="rank_estimate", type=int,
                   help=f"mc only (default {McConfig.rank_estimate})")
    p.add_argument("--max-outer-iters", dest="max_outer_iters", type=int,
                   help="mc only: times 100 (the cap on CG iterations of one "
                        "LM step), the cap on operator products (CG "
                        "iterations and trial points) of the run (default "
                        f"{McConfig.max_outer_iters})")
    p.add_argument("--residual-tolerance", dest="residual_tolerance", type=float,
                   help=f"mc only (default {McConfig.residual_tolerance:g})")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_complete)

    p = subs.add_parser("embed", help="classical MDS embedding of a matrix")
    p.add_argument("--input", required=True, help=".w2m file")
    p.add_argument("--dim", type=int)
    p.add_argument("--energy", type=float, default=StabilityConfig.energy)
    p.add_argument("--labels-from", dest="labels_from",
                   help="dataset directory supplying a label column")
    p.add_argument("--out", required=True, help="embedding CSV path")
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("eval", help="relative Frobenius error of an estimate")
    p.add_argument("--estimate", dest="input", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("classify", help="classification-stability experiment")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--matrix", dest="input",
                   help="precomputed full .w2m for the dataset")
    p.add_argument("--fractions", type=_fractions, required=True,
                   help="comma-separated fractions")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--energy", type=float, default=StabilityConfig.energy)
    p.add_argument("--dim", type=int,
                   help="fixed embedding dimension (default: choose by energy)")
    p.add_argument("--classifiers", type=_names,
                   help="comma-separated names (default: "
                        f"{','.join(StabilityConfig.classifiers)})")
    p.add_argument("--test-fraction", dest="test_fraction", type=float,
                   default=StabilityConfig.test_fraction)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int,
                   help="processes for the exact pairs that are not "
                        "batched in the main process")
    p.set_defaults(func=cmd_classify)

    for p in subs.choices.values():
        p.add_argument("--config", help="JSON file of option values")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="set an option by its key (repeatable)")
    return parser, subs.choices


def _read_config(path: str) -> dict:
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return loaded


def _config_flags(command: argparse.ArgumentParser, argv: list) -> list:
    """``argv`` after the command word, with the values of its
    ``--config`` file and then of its ``--set`` pairs put first as the
    flags they name, so that a later value wins.  A JSON list is a comma
    list, null is no flag, and a switch takes a bool or ``true``/``false``
    and is the bare flag or nothing."""
    pre = _Parser(prog=command.prog, add_help=False)
    pre.add_argument("--config")
    pre.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    known, rest = pre.parse_known_args(argv)
    values = _read_config(known.config) if known.config else {}
    for pair in known.set:
        key, sep, value = pair.partition("=")
        if not sep:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        values[key.strip()] = value.strip()
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.dest not in _NOT_OPTIONS}
    flags = []
    for key, value in values.items():
        if key not in options:
            raise UsageError(f"unknown config key {key!r}")
        flag = options[key].option_strings[0]
        if options[key].nargs == 0:  # a switch
            if value in ("true", "false"):
                value = value == "true"
            if not isinstance(value, bool):
                raise UsageError(f"{key} takes true or false, got {value!r}")
            flags += [flag] if value else []
        elif value is not None:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            flags.append(f"{flag}={value}")
    return flags + rest


def _parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv`` in one pass, with the command's ``--config`` and
    ``--set`` values as flags ahead of its own (see ``_config_flags``)."""
    parser, commands = _parsers()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in commands:
        argv[1:] = _config_flags(commands[argv[0]], argv[1:])
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        return int(exc.code or 0)
    except (np.linalg.LinAlgError, NumericalError, BrokenProcessPool) as exc:
        print(f"wassmatrix: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"wassmatrix: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
