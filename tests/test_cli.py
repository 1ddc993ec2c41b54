import json
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from wassmatrix import (
    ColumnBlock,
    StabilityConfig,
    choose_dimension,
    complete_nystrom,
    derive_seed,
    errors,
    load_dataset,
    mds,
    relative_error,
    sample_columns,
    stability_experiment,
    synthetic_dataset,
    w2_matrix,
)
import wassmatrix
from wassmatrix import cli, matrixio, mc, measures, nystrom
from wassmatrix.cli import main
from wassmatrix.embedding import load_embedding_coords, save_embedding
from wassmatrix.matrixio import DistanceMatrix, MatrixKind, load, save
from wassmatrix.sampling import load_plan


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """``synth --seed 0`` output directories for the commands that read
    ``--data``, by spec with ':' as '_' (``{classes3_rand24}`` in argv)."""
    root = tmp_path_factory.mktemp("datasets")
    dirs = {}
    for spec in ("translations:grid2", "translations:grid3",
                 "translations:rand10", "classes3:rand24", "classes3:rand30"):
        key = spec.replace(":", "_")
        dirs[key] = root / key
        assert run("synth", "--spec", spec, "--out", dirs[key]) == 0
    return dirs


def filled(argv, dirs):
    return [str(a).format(**dirs) for a in argv]


class TestBudget:
    def test_published_value(self, capsys):
        assert run("budget", "--n", 2000, "--rate", 0.10) == 0
        assert capsys.readouterr().out.strip() == "103"

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "budget.json"
        assert run("budget", "--n", 2000, "--rate", 0.25, "--out", out) == 0
        assert json.loads(out.read_text())["columns"] == 268

    def test_json_output_creates_parent_dir(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "b.json"
        assert run("budget", "--n", 100, "--rate", 0.1, "--out", out) == 0
        assert json.loads(out.read_text())["columns"] == int(
            capsys.readouterr().out.strip())

    def test_missing_args(self, capsys):
        assert run("budget", "--n", 100) == 1

    def test_size_below_one_rejected(self, capsys):
        assert run("budget", "--n", -5, "--rate", 0.1) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wassmatrix: error: need n >= 1, got -5\n"


class TestSynthAndDist:
    def test_grid_dataset_full_matrix(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run("synth", "--spec", "translations:grid3", "--out", data_dir) == 0
        manifest = json.loads((data_dir / "synth.manifest.json").read_text())
        assert manifest["config"] == {"synthetic": "translations:grid3",
                                      "seed": 0, "out": str(data_dir)}
        assert manifest["size"] == 9
        back = load_dataset(data_dir)
        assert len(back) == 9

        out = tmp_path / "full"
        assert run("dist", "--data", data_dir, "--full", "--out", out) == 0
        matrix = load(tmp_path / "full.w2m")
        assert matrix.size == 9
        assert matrix.kind is MatrixKind.FULL
        # matches direct pairwise solver calls on the same dataset
        direct = w2_matrix(back)
        np.testing.assert_array_equal(matrix.values, direct.values)

    def test_column_dist_deterministic(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        run("synth", "--spec", "translations:rand12", "--out", data_dir)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("dist", "--data", data_dir, "--columns", 5,
                   "--seed", 7, "--out", a) == 0
        assert run("dist", "--data", data_dir, "--columns", 5,
                   "--seed", 7, "--out", b) == 0
        assert (tmp_path / "a.w2m").read_bytes() == (tmp_path / "b.w2m").read_bytes()
        assert ((tmp_path / "a.plan.json").read_text()
                == (tmp_path / "b.plan.json").read_text())

    def test_synth_seed_reaches_dist(self, datasets, tmp_path, capsys):
        from wassmatrix.seeding import derive_seed
        out = tmp_path / "g3"
        assert run("dist", "--data", datasets["translations_grid3"], "--full",
                   "--seed", 0, "--out", out) == 0
        matrix = load(tmp_path / "g3.w2m")
        assert matrix.size == 9
        direct = w2_matrix(synthetic_dataset("translations:grid3",
                                             derive_seed(0, "synth")))
        np.testing.assert_array_equal(matrix.values, direct.values)

    def test_crashed_worker_pool_exits_2(self, datasets, tmp_path, capsys,
                                         monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def crash(*_args):
            raise BrokenProcessPool("a worker process terminated abruptly")

        monkeypatch.setattr(cli, "w2_matrix", crash)
        assert run("dist", "--data", datasets["translations_grid2"], "--full",
                   "--workers", 2, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("wassmatrix: numerical failure:")
        assert not (tmp_path / "x.w2m").exists()

    @pytest.mark.parametrize("line, message", [
        ("0.5 nan 0.0", "points must be finite"),
        ("-0.5 1.0 0.0", "weights must be finite and nonnegative"),
    ])
    def test_invalid_measure_exits_1_before_any_solve(self, tmp_path, capsys,
                                                      monkeypatch, line, message):
        data_dir = tmp_path / "data"
        assert run("synth", "--spec", "translations:rand12", "--out", data_dir) == 0
        bad = data_dir / "measure_0007.txt"
        bad.write_text(f"2 2\n0.5 0.0 0.0\n{line}\n")
        solves = []
        monkeypatch.setattr(cli, "w2_matrix", lambda *args: solves.append(args))
        capsys.readouterr()
        assert run("dist", "--data", data_dir, "--full", "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == f"wassmatrix: error: {bad}: {message}\n"
        assert solves == []
        assert not list(tmp_path.glob("x*"))

    def test_non_ascii_measure_file_exits_1_naming_it(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run("synth", "--spec", "translations:rand12", "--out", data_dir) == 0
        bad = data_dir / "measure_0003.txt"
        bad.write_bytes(b"2 2\n0.5 0.0 0.0\n0.5 1.0 \xc3\xa9\n")
        capsys.readouterr()
        assert run("dist", "--data", data_dir, "--full", "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == (
            f"wassmatrix: error: {bad}: not ASCII text: byte 0xc3 at offset 24\n")
        assert not list(tmp_path.glob("x*"))

    def test_mode_exclusivity(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        run("synth", "--spec", "translations:grid2", "--out", data_dir)
        assert run("dist", "--data", data_dir, "--full", "--rate", 0.5,
                   "--out", tmp_path / "x") == 1


@pytest.fixture()
def pipeline_dirs(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run("synth", "--spec", "translations:rand20", "--seed", 3, "--out", data_dir)
    full_out = tmp_path / "full"
    run("dist", "--data", data_dir, "--full", "--out", full_out)
    return tmp_path, data_dir


class TestComplete:
    def test_nystrom_round_trip(self, pipeline_dirs, capsys):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--columns", 8, "--seed", 5,
            "--out", tmp_path / "cols")
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "cols.w2m",
                   "--out", tmp_path / "est") == 0
        est = load(tmp_path / "est.w2m")
        truth = load(tmp_path / "full.w2m")
        assert est.kind is MatrixKind.ESTIMATED
        assert relative_error(est, truth) <= 1e-6
        report = json.loads((tmp_path / "est.report.json").read_text())
        assert report["columns"] == 8

    def test_nystrom_report_core_rank(self, pipeline_dirs, capsys):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--columns", 8, "--seed", 6,
            "--out", tmp_path / "cols6")
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "cols6.w2m",
                   "--out", tmp_path / "est6") == 0
        report = json.loads((tmp_path / "est6.report.json").read_text())
        cols = json.loads((tmp_path / "cols6.plan.json").read_text())["indices"]
        core = load(tmp_path / "cols6.w2m").values[np.ix_(cols, cols)]
        sigma = np.linalg.svd(core, compute_uv=False)
        assert report["columns"] == 8
        assert report["core_effective_rank"] == int(
            np.sum(sigma > report["pinv_tolerance"] * sigma[0]))
        assert report["core_effective_rank"] == 4  # planar translations
        assert report["core_condition"] == pytest.approx(
            sigma[0] / sigma[3], rel=1e-12, abs=0.0)

    def test_nystrom_decomposes_the_core_once(self, pipeline_dirs, capsys,
                                              monkeypatch):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--columns", 8, "--seed", 5,
            "--out", tmp_path / "cols")
        shapes, eigh = [], np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        # a PARTIAL column file, then the ESTIMATED one it gives
        for source, out in (("cols", "est"), ("est", "again")):
            shapes.clear()
            assert run("complete", "--algorithm", "nystrom",
                       "--input", tmp_path / f"{source}.w2m",
                       "--out", tmp_path / out) == 0
            assert shapes == [(8, 8)]
        assert ((tmp_path / "est.w2m").read_bytes()
                == (tmp_path / "again.w2m").read_bytes())
        assert ((tmp_path / "est.report.json").read_text()
                == (tmp_path / "again.report.json").read_text())

    def test_only_the_estimate_decomposes_its_core(self, datasets, tmp_path,
                                                   capsys, monkeypatch):
        calls, truncated_eigh = [], nystrom._truncated_eigh

        def counting(*args):
            calls.append(args)
            return truncated_eigh(*args)

        monkeypatch.setattr(nystrom, "_truncated_eigh", counting)
        assert run("dist", "--data", datasets["classes3_rand24"], "--columns", 5,
                   "--out", tmp_path / "cols") == 0
        assert calls == []
        assert load(tmp_path / "cols.w2m", expand=False).kind is MatrixKind.PARTIAL
        assert calls == []
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "cols.w2m", "--out", tmp_path / "est") == 0
        assert len(calls) == 1

    def test_nystrom_all_zero_input_has_no_condition(self, tmp_path, capsys):
        # an all-zero PARTIAL column file of N = 3, written byte by byte
        (tmp_path / "z.w2m").write_bytes(
            column_bytes(np.zeros((3, 2)), [0, 2], MatrixKind.PARTIAL))
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "z.w2m", "--out", tmp_path / "est") == 0
        report = json.loads((tmp_path / "est.report.json").read_text())
        assert report["core_effective_rank"] == 0
        assert report["core_condition"] is None
        np.testing.assert_array_equal(load(tmp_path / "est.w2m").values, 0.0)

    def test_mc_round_trip(self, pipeline_dirs, capsys):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--rate", 0.6, "--seed", 5,
            "--out", tmp_path / "ent")
        assert run("complete", "--algorithm", "mc",
                   "--input", tmp_path / "ent.w2m",
                   "--set", "rank_estimate=4",
                   "--out", tmp_path / "mcest") == 0
        est = load(tmp_path / "mcest.w2m")
        truth = load(tmp_path / "full.w2m")
        assert relative_error(est, truth) <= 1e-2
        report = json.loads((tmp_path / "mcest.report.json").read_text())
        assert report["stop_reason"] in ("converged", "max_iters")

    def test_mc_non_convergence_warns(self, pipeline_dirs, capsys):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--rate", 0.6, "--seed", 5,
            "--out", tmp_path / "ent")
        capsys.readouterr()
        assert run("complete", "--algorithm", "mc",
                   "--input", tmp_path / "ent.w2m", "--rank-estimate", 4,
                   "--max-outer-iters", 1, "--out", tmp_path / "cap") == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "warning: MC did not converge" in err
        report = json.loads((tmp_path / "cap.report.json").read_text())
        assert report["stop_reason"] == "max_iters"
        manifest = json.loads((tmp_path / "cap.manifest.json").read_text())
        assert manifest["converged"] is False

        assert run("complete", "--algorithm", "mc",
                   "--input", tmp_path / "ent.w2m", "--rank-estimate", 4,
                   "--residual-tolerance", 10, "--out", tmp_path / "loose") == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "loose.manifest.json").read_text())
        assert manifest["converged"] is True

    def test_mc_underdetermined_point_warns(self, tmp_path, capsys):
        # point 0 of a planar configuration has two observed distances:
        # the fit converges, but a point of R^2 needs three
        rng = np.random.default_rng(91)
        pts = rng.normal(size=(12, 2))
        truth = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        mask = np.ones((12, 12), dtype=bool)
        mask[0, 3:] = mask[3:, 0] = False
        save(DistanceMatrix.partial(np.where(mask, truth, 0.0), mask),
             tmp_path / "obs.w2m")
        capsys.readouterr()
        assert run("complete", "--algorithm", "mc", "--input", tmp_path / "obs.w2m",
                   "--rank-estimate", 3, "--out", tmp_path / "est") == 0
        report = json.loads((tmp_path / "est.report.json").read_text())
        assert report["underdetermined_points"] == 1
        rank = report["rank"]
        assert capsys.readouterr().err == (
            f"wassmatrix: warning: MC estimate has 1 underdetermined point(s) "
            f"with fewer than {rank + 1} observed distances at rank {rank}\n")
        manifest = json.loads((tmp_path / "est.manifest.json").read_text())
        assert manifest["converged"] is (report["stop_reason"] == "converged")

    def test_mc_diverged_exits_2(self, pipeline_dirs, capsys, monkeypatch):
        from wassmatrix.errors import Diverged

        def diverge(*_args):
            raise Diverged("residual became non-finite at block 1")

        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--rate", 0.6, "--seed", 5,
            "--out", tmp_path / "ent")
        monkeypatch.setattr(cli, "complete_mc", diverge)
        assert run("complete", "--algorithm", "mc",
                   "--input", tmp_path / "ent.w2m",
                   "--out", tmp_path / "div") == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "div.w2m").exists()

    def test_mc_non_finite_residual_exits_2(self, pipeline_dirs, capsys,
                                            monkeypatch):
        from wassmatrix import mc

        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--rate", 0.6, "--seed", 5,
            "--out", tmp_path / "ent")
        capsys.readouterr()
        monkeypatch.setattr(mc, "_residual",
                            lambda P, b: np.full(b.shape, np.inf))
        assert run("complete", "--algorithm", "mc",
                   "--input", tmp_path / "ent.w2m",
                   "--out", tmp_path / "div") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("wassmatrix: numerical failure: residual "
                                "became non-finite after 0 LM steps\n")
        assert not (tmp_path / "div.w2m").exists()

    def test_mc_budget_exhausted_warns(self, pipeline_dirs, capsys):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--rate", 0.6, "--seed", 5,
            "--out", tmp_path / "ent")
        capsys.readouterr()
        assert run("complete", "--algorithm", "mc",
                   "--input", tmp_path / "ent.w2m", "--rank-estimate", 4,
                   "--max-outer-iters", 2, "--out", tmp_path / "cap") == 0
        report = json.loads((tmp_path / "cap.report.json").read_text())
        assert report["stop_reason"] == "max_iters"
        assert 0 < report["iterations"] <= 2 * 100
        assert report["rank"] == 4
        err = capsys.readouterr().err
        assert err == (f"wassmatrix: warning: MC did not converge: residual "
                       f"{report['final_residual']:.3g} > 1e-06 after "
                       f"{report['iterations']} operator products "
                       f"({report['outer_iterations']} LM steps)\n")
        manifest = json.loads((tmp_path / "cap.manifest.json").read_text())
        assert manifest["converged"] is False

    def test_mc_documented_five_percent_case(self, tmp_path, capsys):
        # 5% of a 200-measure translation family: a sample on which the
        # multiplier method once diverged, and later ran to its step cap
        run("synth", "--spec", "translations:rand200", "--seed", 1886562264,
            "--out", tmp_path / "data")
        run("dist", "--data", tmp_path / "data", "--full",
            "--out", tmp_path / "full")
        run("dist", "--data", tmp_path / "data", "--rate", 0.05,
            "--seed", 1158894405, "--out", tmp_path / "e05")
        assert run("complete", "--algorithm", "mc",
                   "--input", tmp_path / "e05.w2m", "--rank-estimate", 5,
                   "--seed", 1158894405, "--out", tmp_path / "est") == 0
        manifest = json.loads((tmp_path / "est.manifest.json").read_text())
        assert manifest["converged"] is True
        report = json.loads((tmp_path / "est.report.json").read_text())
        assert report["stop_reason"] == "converged"
        assert report["rank"] == 2
        assert 0 < report["discarded_products"] <= report["iterations"]
        assert relative_error(load(tmp_path / "est.w2m"),
                              load(tmp_path / "full.w2m")) <= 1e-6

    def test_dotted_out_base_is_kept(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        run("synth", "--spec", "translations:rand12", "--out", data_dir)
        run_dir = tmp_path / "run"
        assert run("dist", "--data", data_dir, "--columns", 5, "--seed", 7,
                   "--out", run_dir / "e0.05") == 0
        assert run("complete", "--algorithm", "nystrom",
                   "--input", run_dir / "e0.05.w2m",
                   "--out", run_dir / "est0.05") == 0
        names = {p.name for p in run_dir.iterdir()}
        assert {"e0.05.w2m", "e0.05.plan.json", "e0.05.manifest.json",
                "est0.05.w2m", "est0.05.report.json",
                "est0.05.manifest.json"} == names
        assert json.loads((run_dir / "est0.05.report.json").read_text())[
            "columns"] == 5

    def test_full_dist_replaces_column_plan(self, pipeline_dirs, capsys):
        tmp_path, data_dir = pipeline_dirs
        base = tmp_path / "run" / "x"
        assert run("dist", "--data", data_dir, "--columns", 5,
                   "--out", base) == 0
        assert run("dist", "--data", data_dir, "--full", "--out", base) == 0
        assert not (tmp_path / "run" / "x.plan.json").exists()
        capsys.readouterr()
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "run" / "x.w2m",
                   "--out", tmp_path / "run" / "est") == 1
        assert "nystrom needs a column file" in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("est*"))

        # a column file completes with or without its plan
        assert run("dist", "--data", data_dir, "--columns", 5,
                   "--out", tmp_path / "run" / "y") == 0
        estimates = []
        for name in ("with_plan", "without_plan"):
            assert run("complete", "--algorithm", "nystrom",
                       "--input", tmp_path / "run" / "y.w2m",
                       "--out", tmp_path / "run" / name) == 0
            report = json.loads(
                (tmp_path / "run" / f"{name}.report.json").read_text())
            assert report["columns"] == 5
            estimates.append((tmp_path / "run" / f"{name}.w2m").read_bytes())
            (tmp_path / "run" / "y.plan.json").unlink(missing_ok=True)
        assert estimates[0] == estimates[1]

    def test_nystrom_rejects_entry_plan(self, pipeline_dirs, capsys):
        # an entry sample, a FULL matrix and an MC estimate are dense files
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--rate", 0.5, "--seed", 5,
            "--out", tmp_path / "ent2")
        run("complete", "--algorithm", "mc", "--input", tmp_path / "ent2.w2m",
            "--rank-estimate", 4, "--out", tmp_path / "mcest")
        capsys.readouterr()
        for name in ("ent2", "full", "mcest"):
            assert run("complete", "--algorithm", "nystrom",
                       "--input", tmp_path / f"{name}.w2m",
                       "--out", tmp_path / "bad") == 1
            assert (capsys.readouterr().err == "wassmatrix: error: nystrom needs "
                    "a column file (dist --columns)\n")
            assert not list(tmp_path.glob("bad*"))


class TestRemovedOptions:
    """Options whose only value is now a constant are usage errors that
    write nothing, whether given as a flag, by --set or in a config file."""

    @pytest.fixture()
    def inputs(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        run("synth", "--spec", "translations:grid3", "--out", data_dir)
        run("dist", "--data", data_dir, "--full", "--out", tmp_path / "full")
        run("dist", "--data", data_dir, "--rate", 0.5, "--out", tmp_path / "ent")
        (tmp_path / "cfg.json").write_text(json.dumps({"reimpose_observed": True}))
        capsys.readouterr()
        return tmp_path

    MC = ("complete", "--algorithm", "mc", "--input", "{d}/ent.w2m",
          "--rank-estimate", 2, "--max-outer-iters", 1)
    NYSTROM = ("complete", "--algorithm", "nystrom", "--input", "{d}/full.w2m")

    @pytest.mark.parametrize("argv, named", [
        (MC + ("--damping", 0.5), "--damping"),
        (MC + ("--set", "damping=0.5"), "'damping'"),
        (MC + ("--inner-steps", 1), "--inner-steps"),
        (MC + ("--set", "inner_steps=1"), "'inner_steps'"),
        (NYSTROM + ("--pinv-tolerance", 1e-8), "--pinv-tolerance"),
        (NYSTROM + ("--reimpose-observed",), "--reimpose-observed"),
        (NYSTROM + ("--config", "{d}/cfg.json"), "'reimpose_observed'"),
        (("dist", "--data", "{d}/data", "--n", 100, "--rate", 0.1), "--n"),
        (("dist", "--data", "{d}/data", "--synthetic", "translations:grid3",
          "--full"), "--synthetic"),
        (("classify", "--data", "{d}/data", "--synthetic", "classes3:rand24",
          "--fractions", 1.0), "--synthetic"),
    ], ids=["damping-flag", "damping-set", "inner-steps-flag", "inner-steps-set",
            "pinv-tolerance-flag", "reimpose-observed-flag",
            "reimpose-observed-config", "plan-only-dist", "synthetic-dist",
            "synthetic-classify"])
    def test_exits_1_and_writes_nothing(self, inputs, capsys, argv, named):
        argv = [str(a).format(d=inputs) for a in argv]
        assert run(*argv, "--out", inputs / "x") == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("wassmatrix: error:")]
        assert len(errors) == 1 and named in errors[0]
        assert not list(inputs.glob("x*"))


class TestMcOnlyOptions:
    """The options only MC reads are usage errors with nystrom that
    write nothing, whether given as a flag, by --set or in a config file."""

    @pytest.fixture()
    def inputs(self, tmp_path, capsys):
        run("synth", "--spec", "translations:grid3", "--out", tmp_path / "data")
        run("dist", "--data", tmp_path / "data", "--columns", 4,
            "--out", tmp_path / "cols")
        (tmp_path / "cfg.json").write_text(json.dumps({"max_outer_iters": 50}))
        capsys.readouterr()
        return tmp_path

    NYSTROM = ("complete", "--algorithm", "nystrom", "--input", "{d}/cols.w2m")

    @pytest.mark.parametrize("extra, named", [
        (("--rank-estimate", 7), "--rank-estimate"),
        (("--max-outer-iters", 300), "--max-outer-iters"),
        (("--residual-tolerance", 3), "--residual-tolerance"),
        (("--set", "rank_estimate=7"), "--rank-estimate"),
        (("--set", "residual_tolerance=3"), "--residual-tolerance"),
        (("--config", "{d}/cfg.json"), "--max-outer-iters"),
    ], ids=["rank-estimate-flag", "max-outer-iters-flag",
            "residual-tolerance-flag", "rank-estimate-set",
            "residual-tolerance-set", "max-outer-iters-config"])
    def test_exits_1_and_writes_nothing(self, inputs, capsys, extra, named):
        argv = [str(a).format(d=inputs) for a in self.NYSTROM + extra]
        assert run(*argv, "--out", inputs / "x") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("wassmatrix: error:")
        assert named in errors[0] and "mc" in errors[0]
        assert not list(inputs.glob("x*"))

    def test_mc_manifest_echoes_the_settings_used(self, inputs, capsys):
        assert run("complete", "--algorithm", "mc", "--input", inputs / "cols.w2m",
                   "--set", "rank_estimate=3", "--out", inputs / "mc") == 0
        config = json.loads((inputs / "mc.manifest.json").read_text())["config"]
        assert (config["rank_estimate"], config["max_outer_iters"],
                config["residual_tolerance"]) == (3, 300, 1e-6)
        assert run(*[str(a).format(d=inputs) for a in self.NYSTROM],
                   "--out", inputs / "ny") == 0
        config = json.loads((inputs / "ny.manifest.json").read_text())["config"]
        assert not {"rank_estimate", "max_outer_iters",
                    "residual_tolerance"} & set(config)


class TestEmbedAndEval:
    def test_embed_writes_csv_and_meta(self, pipeline_dirs, capsys):
        tmp_path, _ = pipeline_dirs
        out = tmp_path / "emb.csv"
        assert run("embed", "--input", tmp_path / "full.w2m", "--dim", 2,
                   "--out", out) == 0
        header = out.read_text().splitlines()[0]
        assert header == "index,z1,z2"
        meta = json.loads((tmp_path / "emb.csv.meta.json").read_text())
        assert meta["dimension"] == 2

    def test_embed_with_labels(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        run("synth", "--spec", "classes3:rand9", "--out", data_dir)
        run("dist", "--data", data_dir, "--full", "--out", tmp_path / "f")
        out = tmp_path / "emb.csv"
        assert run("embed", "--input", tmp_path / "f.w2m", "--dim", 2,
                   "--labels-from", data_dir, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,z1,z2,label"

    @pytest.mark.parametrize("rows", [
        "0,1\n0,2\n" + "".join(f"{k},0\n" for k in range(1, 9)),
        "".join(f"{k},0\n" for k in range(9)) + "9,1\n",
        "0,1\n1,1\n",
        None,  # labels of a 6-measure dataset for a 9 x 9 matrix
    ])
    def test_embed_rejects_bad_labels(self, tmp_path, capsys, rows):
        data_dir = tmp_path / "data"
        run("synth", "--spec", "classes3:rand9", "--out", data_dir)
        run("dist", "--data", data_dir, "--full", "--out", tmp_path / "f")
        labels_from = data_dir
        if rows is None:
            labels_from = tmp_path / "small"
            run("synth", "--spec", "classes3:rand6", "--out", labels_from)
        else:
            (data_dir / "labels.csv").write_text("index,label\n" + rows)
        capsys.readouterr()
        assert run("embed", "--input", tmp_path / "f.w2m", "--dim", 2,
                   "--labels-from", labels_from,
                   "--out", tmp_path / "emb.csv") == 1
        assert capsys.readouterr().err.strip()
        assert not (tmp_path / "emb.csv").exists()

    @pytest.mark.parametrize("command", ["embed", "eval"])
    def test_partial_matrix_rejected(self, pipeline_dirs, capsys, command):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--columns", 4, "--out", tmp_path / "cols")
        capsys.readouterr()
        argv = {"embed": ("--input", tmp_path / "cols.w2m"),
                "eval": ("--estimate", tmp_path / "cols.w2m",
                         "--truth", tmp_path / "full.w2m")}[command]
        assert run(command, *argv, "--out", tmp_path / "x.out") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("wassmatrix: error:")
        assert "PARTIAL" in captured.err
        assert not list(tmp_path.glob("x.out*"))

    def test_eval_prints_relative_error(self, pipeline_dirs, capsys):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--columns", 8, "--seed", 5,
            "--out", tmp_path / "cols")
        run("complete", "--algorithm", "nystrom",
            "--input", tmp_path / "cols.w2m", "--out", tmp_path / "est")
        capsys.readouterr()
        assert run("eval", "--estimate", tmp_path / "est.w2m",
                   "--truth", tmp_path / "full.w2m",
                   "--out", tmp_path / "err.json") == 0
        printed = float(capsys.readouterr().out.strip())
        expected = relative_error(load(tmp_path / "est.w2m"),
                                  load(tmp_path / "full.w2m"))
        assert printed == expected
        assert json.loads((tmp_path / "err.json").read_text())[
            "relative_error"] == expected

    def test_eval_out_creates_parent_dir(self, pipeline_dirs, capsys):
        tmp_path, _ = pipeline_dirs
        full = tmp_path / "full.w2m"
        out = tmp_path / "nodir3" / "x.json"
        assert run("eval", "--estimate", full, "--truth", full,
                   "--out", out) == 0
        assert json.loads(out.read_text())["relative_error"] == 0.0

    def test_eval_zero_truth_is_numerical_failure(self, tmp_path, capsys):
        zero = DistanceMatrix.full(np.zeros((3, 3)))
        save(zero, tmp_path / "z.w2m")
        assert run("eval", "--estimate", tmp_path / "z.w2m",
                   "--truth", tmp_path / "z.w2m") == 2


def column_bytes(columns, indices, kind):
    """A ``W2DCOL01`` file written byte by byte, unchecked."""
    indices = np.asarray(indices, dtype="<i8")
    return (b"W2DCOL01" + struct.pack("<QQ", columns.shape[0], indices.size)
            + indices.tobytes() + np.ascontiguousarray(columns, "<f8").tobytes()
            + bytes([kind.value]))


def nystrom_fixture(name):
    """The Nystrom estimate of a criterion-03 trial (the EDM of 200 points
    in R^3, 20 columns) or of criterion 07's classes3:rand300 at 20%."""
    if name == "criterion07":
        data = synthetic_dataset("classes3:rand300", 7)
        plan = sample_columns(300, 60, seed=derive_seed(42, "columns"))
        return complete_nystrom(
            ColumnBlock.from_matrix(w2_matrix(data, plan), plan.indices))
    trial = int(name.rsplit("-", 1)[1])
    rng = np.random.default_rng(3000 + trial)
    pts = rng.standard_normal((200, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    full = DistanceMatrix.full((diff * diff).sum(axis=-1))
    plan = sample_columns(200, 20, seed=derive_seed(3, "cols", trial))
    return complete_nystrom(ColumnBlock.from_matrix(full, plan.indices))


class TestColumnFiles:
    """Column files against the dense routes they replace."""

    @pytest.fixture()
    def run_dir(self, datasets, tmp_path, capsys):
        data = datasets["classes3_rand30"]
        assert run("dist", "--data", data, "--columns", 6, "--seed", 2,
                   "--out", tmp_path / "cols") == 0
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "cols.w2m", "--out", tmp_path / "est") == 0
        assert run("dist", "--data", data, "--full", "--out", tmp_path / "full") == 0
        capsys.readouterr()
        plan = load_plan(tmp_path / "cols.plan.json")
        return tmp_path, w2_matrix(load_dataset(data), plan), plan

    def test_loads_equal_the_dense_routes(self, run_dir):
        tmp_path, partial, plan = run_dir
        cols = load(tmp_path / "cols.w2m", expand=False)
        assert isinstance(cols, ColumnBlock) and cols.kind is MatrixKind.PARTIAL
        np.testing.assert_array_equal(cols.indices, plan.indices)
        est = load(tmp_path / "est.w2m", expand=False)
        assert isinstance(est, ColumnBlock) and est.kind is MatrixKind.ESTIMATED
        assert est.columns.tobytes() == cols.columns.tobytes()
        dense = complete_nystrom(
            ColumnBlock.from_matrix(partial, plan.indices)).matrix()
        for path, expect in (("cols.w2m", partial), ("est.w2m", dense)):
            got = load(tmp_path / path)
            assert got.kind is expect.kind
            assert got.values.tobytes() == expect.values.tobytes()
            assert got.mask.tobytes() == expect.mask.tobytes()

    def test_eval_prints_the_float_of_the_dense_file(self, run_dir, capsys):
        tmp_path, partial, plan = run_dir
        save(complete_nystrom(ColumnBlock.from_matrix(partial, plan.indices)).matrix(),
             tmp_path / "dense.w2m")
        printed = []
        for name in ("est.w2m", "dense.w2m"):
            assert run("eval", "--estimate", tmp_path / name,
                       "--truth", tmp_path / "full.w2m") == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_embed_manifest_names_the_route(self, run_dir):
        tmp_path, _, _ = run_dir
        # the block stores the r = 5 eigenpairs its core keeps, not c = 6
        assert load(tmp_path / "est.w2m", expand=False).effective_rank == 5
        for name, route, eigenpairs in (("est", "columns", 5),
                                        ("full", "dense", 30)):
            assert run("embed", "--input", tmp_path / f"{name}.w2m",
                       "--out", tmp_path / f"{name}.csv") == 0
            manifest = json.loads(
                (tmp_path / f"{name}.csv.manifest.json").read_text())
            assert manifest["spectrum"] == {"route": route, "eigenpairs": eigenpairs}

    def test_dense_input_gives_every_observed_column(self, datasets, tmp_path,
                                                     capsys):
        # at c = N - 1 and c = N every entry is computed: dist still writes
        # a column file, and it reads as the FULL matrix w2_matrix gives
        data = datasets["translations_rand10"]
        for c in (9, 10):
            w2m = tmp_path / f"c{c}.w2m"
            assert run("dist", "--data", data, "--columns", c,
                       "--out", tmp_path / f"c{c}") == 0
            cols = load(w2m, expand=False)
            assert isinstance(cols, ColumnBlock) and cols.kind is MatrixKind.PARTIAL
            plan = load_plan(tmp_path / f"c{c}.plan.json")
            expect, got = w2_matrix(load_dataset(data), plan), load(w2m)
            assert got.kind is expect.kind is MatrixKind.FULL
            assert got.values.tobytes() == expect.values.tobytes()
            assert got.mask.tobytes() == expect.mask.tobytes()
            assert run("embed", "--input", w2m, "--dim", 2,
                       "--out", tmp_path / f"emb{c}.csv") == 0
            assert run("complete", "--algorithm", "nystrom", "--input", w2m,
                       "--out", tmp_path / f"est{c}") == 0
            est = load(tmp_path / f"est{c}.w2m", expand=False)
            np.testing.assert_array_equal(est.indices, plan.indices)
            assert est.columns.tobytes() == cols.columns.tobytes()
            assert relative_error(est.matrix(), got) <= 1e-9  # the planar EDM

    def test_estimate_input_gives_back_its_own_columns(self, run_dir, capsys):
        # the estimate's columns I reproduce C U^+ C^T, so the file is kept
        tmp_path, _, _ = run_dir
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "est.w2m", "--out", tmp_path / "again") == 0
        assert ((tmp_path / "again.w2m").read_bytes()
                == (tmp_path / "est.w2m").read_bytes())
        report = json.loads((tmp_path / "again.report.json").read_text())
        assert report == json.loads((tmp_path / "est.report.json").read_text())

    @pytest.mark.parametrize("name", ["criterion03-0", "criterion03-1",
                                      "criterion03-2", "criterion07"])
    def test_factored_embed_matches_dense_mds(self, tmp_path, capsys, name):
        block = nystrom_fixture(name)
        save(block, tmp_path / "est.w2m")
        dense = block.matrix()
        dim = choose_dimension(dense, StabilityConfig.energy)
        assert run("embed", "--input", tmp_path / "est.w2m",
                   "--out", tmp_path / "emb.csv") == 0
        coords = load_embedding_coords(tmp_path / "emb.csv")
        expect = mds(dense, dim).coords
        assert coords.shape == expect.shape
        assert np.abs(coords - expect).max() <= 1e-10

    def test_library_estimate_embeds_as_the_cli_does(self, tmp_path, capsys):
        # complete_nystrom is the step complete takes, so the library's
        # embedding of the column file is emb.csv byte for byte
        assert run("synth", "--spec", "classes3:rand300",
                   "--out", tmp_path / "data") == 0
        assert run("dist", "--data", tmp_path / "data", "--columns", 30,
                   "--out", tmp_path / "cols") == 0
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "cols.w2m", "--out", tmp_path / "est") == 0
        assert run("embed", "--input", tmp_path / "est.w2m",
                   "--out", tmp_path / "emb.csv") == 0
        d = json.loads((tmp_path / "emb.csv.manifest.json").read_text())["dimension"]
        estimate = complete_nystrom(load(tmp_path / "cols.w2m", expand=False))
        save_embedding(mds(estimate, d), tmp_path / "lib.csv")
        assert ((tmp_path / "lib.csv").read_bytes()
                == (tmp_path / "emb.csv").read_bytes())

    @pytest.mark.parametrize("command", ["eval", "embed", "complete"])
    @pytest.mark.parametrize("defect", ["truncated", "bad-magic",
                                        "index-out-of-range", "duplicate-index",
                                        "asymmetric-core", "nan-entry",
                                        "core-diagonal", "negative-partial-entry"])
    def test_malformed_file_exits_1(self, run_dir, capsys, command, defect):
        tmp_path, _, plan = run_dir
        blob = bytearray((tmp_path / "cols.w2m").read_bytes())
        # N = 30, c = 6: I at bytes 24..72, row r of C from 72 + 48 r
        outside = 72 + 48 * int(np.setdiff1d(np.arange(30), plan.indices)[0])
        if defect == "truncated":
            blob = blob[:-8]
        elif defect == "bad-magic":
            blob[:8] = b"W2DCOLXX"
        elif defect == "index-out-of-range":
            blob[64:72] = struct.pack("<q", 30)
        elif defect == "duplicate-index":
            blob[24:32] = struct.pack("<q", int(plan.indices[1]))
        elif defect == "asymmetric-core":  # core (1, 0) no longer equals (0, 1)
            row = 72 + 48 * int(plan.indices[1])
            blob[row:row + 8] = struct.pack("<d", 1.5)
        elif defect == "nan-entry":
            blob[outside:outside + 8] = struct.pack("<d", float("nan"))
        elif defect == "core-diagonal":  # core entry (0, 0)
            row = 72 + 48 * int(plan.indices[0])
            blob[row:row + 8] = struct.pack("<d", 1.5)
        else:  # negative-partial-entry
            blob[outside:outside + 8] = struct.pack("<d", -1.0)
        bad = tmp_path / "bad.w2m"
        bad.write_bytes(bytes(blob))
        argv = {"eval": ("eval", "--estimate", bad, "--truth", tmp_path / "full.w2m"),
                "embed": ("embed", "--input", bad),
                "complete": ("complete", "--algorithm", "nystrom", "--input", bad)}
        assert run(*argv[command], "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"wassmatrix: error: {bad}")
        assert not list(tmp_path.glob("x*"))

    def test_all_zero_estimate_embeds_at_the_origin(self, tmp_path, capsys):
        # a rank-0 estimate: its core keeps no eigenpair, so B = 0
        save(complete_nystrom(ColumnBlock(np.zeros((30, 6)), [0, 5, 9, 14, 20, 27],
                                          MatrixKind.PARTIAL)),
             tmp_path / "zero.w2m")
        assert run("embed", "--input", tmp_path / "zero.w2m", "--dim", 2,
                   "--out", tmp_path / "emb.csv") == 0
        coords = load_embedding_coords(tmp_path / "emb.csv")
        assert coords.shape == (30, 2)
        np.testing.assert_array_equal(coords, 0.0)
        manifest = json.loads((tmp_path / "emb.csv.manifest.json").read_text())
        assert manifest["spectrum"] == {"route": "columns", "eigenpairs": 0}

    @pytest.mark.parametrize("command", ["eval", "embed", "complete"])
    def test_zero_core_estimate_exits_2(self, run_dir, capsys, command):
        # one column of a nonzero matrix: the 1 x 1 core is zero
        tmp_path, _, _ = run_dir
        full = load(tmp_path / "full.w2m").values
        bad = tmp_path / "zero.w2m"
        bad.write_bytes(column_bytes(full[:, [3]], [3], MatrixKind.ESTIMATED))
        argv = {"eval": ("eval", "--estimate", bad, "--truth", tmp_path / "full.w2m"),
                "embed": ("embed", "--input", bad),
                "complete": ("complete", "--algorithm", "nystrom", "--input", bad)}
        assert run(*argv[command], "--out", tmp_path / "x") == 2
        assert "core block is identically zero" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))


class TestClassify:
    def test_outputs_and_composition(self, datasets, tmp_path, capsys):
        out_dir = tmp_path / "cls"
        assert run("classify", "--data", datasets["classes3_rand24"],
                   "--fractions", "0.5,1.0", "--trials", 2,
                   "--classifiers", "knn1", "--seed", 13,
                   "--out", out_dir) == 0
        rows = (out_dir / "trials.csv").read_text().splitlines()
        assert rows[0] == "fraction,trial,seed,classifier,accuracy"
        assert len(rows) == 1 + 2 * 2  # two fractions x two trials
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["reports"]) == 2

        # the command reproduces a direct library run with the same seed
        from wassmatrix.seeding import derive_seed
        data = synthetic_dataset("classes3:rand24", derive_seed(0, "synth"))
        reports = stability_experiment(
            data, [0.5, 1.0], 2,
            StabilityConfig(classifiers=("knn1",), seed=13))
        assert summary["reports"] == [r.to_json() for r in reports]

    def test_matrix_reads_only_the_labels(self, tmp_path, capsys, monkeypatch):
        data_dir = tmp_path / "data"
        assert run("synth", "--spec", "classes3:rand24", "--seed", 1,
                   "--out", data_dir) == 0
        assert run("dist", "--data", data_dir, "--full",
                   "--out", tmp_path / "full") == 0
        common = ("classify", "--data", data_dir, "--fractions", "0.5",
                  "--trials", 2, "--seed", 3)
        assert run(*common, "--out", tmp_path / "solved") == 0

        def unread(path):
            raise errors.FormatError(f"{path}: measure file read")

        monkeypatch.setattr(measures, "load_measure", unread)
        capsys.readouterr()
        assert run(*common, "--matrix", tmp_path / "full.w2m",
                   "--out", tmp_path / "given") == 0
        assert capsys.readouterr().err == ""
        for name in ("trials.csv", "series.csv", "summary.json"):
            assert ((tmp_path / "given" / name).read_bytes()
                    == (tmp_path / "solved" / name).read_bytes())
        manifest = json.loads(
            (tmp_path / "given" / "classify.manifest.json").read_text())
        assert manifest["size"] == 24
        # without --matrix the measures are still read
        assert run(*common, "--out", tmp_path / "again") == 1
        assert "measure file read" in capsys.readouterr().err

    def test_labels_alone_need_the_matrix(self, datasets):
        labels = load_dataset(datasets["classes3_rand24"]).labels
        with pytest.raises(errors.UsageError,
                           match=r"labels alone need the full matrix"):
            stability_experiment(labels, [1.0], 1, StabilityConfig())

    def test_unknown_classifier(self, datasets, tmp_path, capsys):
        capsys.readouterr()
        assert run("classify", "--data", datasets["classes3_rand24"],
                   "--fractions", "1.0", "--trials", 1,
                   "--classifiers", "knn1,svm", "--out", tmp_path / "cls") == 1
        err = capsys.readouterr().err
        assert err == "wassmatrix: error: unknown classifier 'svm'\n"
        assert not (tmp_path / "cls").exists()

    def test_estimated_matrix_rejected(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run("synth", "--spec", "classes3:rand24", "--seed", 1,
                   "--out", data_dir) == 0
        assert run("dist", "--data", data_dir, "--columns", 12, "--seed", 2,
                   "--out", tmp_path / "cols") == 0
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "cols.w2m",
                   "--out", tmp_path / "est") == 0
        capsys.readouterr()
        assert run("classify", "--data", data_dir,
                   "--matrix", tmp_path / "est.w2m", "--fractions", "0.5",
                   "--trials", 1, "--out", tmp_path / "cls") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("wassmatrix: error:")
        assert not (tmp_path / "cls").exists()

    def test_needs_labels(self, datasets, tmp_path, capsys):
        assert run("classify", "--data", datasets["translations_grid3"],
                   "--fractions", "1.0", "--trials", 1,
                   "--out", tmp_path / "x") == 1


ERROR_CLASSES = [obj for obj in vars(errors).values() if isinstance(obj, type)
                 and issubclass(obj, errors.WassmatrixError)
                 and obj is not errors.WassmatrixError]


class TestExitCodes:
    def test_errors_module_defines_seven_classes(self):
        defined = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and obj.__module__ == errors.__name__}
        assert defined == {"WassmatrixError", "UsageError", "NumericalError",
                           "FormatError", "InvariantViolation",
                           "SolverFailure", "Diverged"}
        assert issubclass(errors.UsageError, ValueError)
        assert not issubclass(errors.NumericalError, ValueError)

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_exit_code(self, tmp_path, capsys, monkeypatch, cls):
        def fail(_path, **_kwargs):
            raise cls("injected")

        monkeypatch.setattr(cli.matrixio, "load", fail)
        code = run("eval", "--estimate", tmp_path / "a.w2m",
                   "--truth", tmp_path / "b.w2m")
        err = capsys.readouterr().err
        if issubclass(cls, errors.UsageError):
            assert code == 1
            assert err == "wassmatrix: error: injected\n"
        else:
            assert issubclass(cls, errors.NumericalError)
            assert code == 2
            assert err == "wassmatrix: numerical failure: injected\n"


class TestConfigHandling:
    CLASSIFY = ("classify", "--data", "{classes3_rand30}", "--fractions", 1.0)

    def test_config_file_and_set_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000, "rate": 0.5}))
        assert run("budget", "--config", cfg) == 0
        base = int(capsys.readouterr().out.strip())
        assert run("budget", "--config", cfg, "--set", "rate=0.1") == 0
        overridden = int(capsys.readouterr().out.strip())
        assert base != overridden
        # explicit flag beats --set
        assert run("budget", "--config", cfg, "--set", "n=100",
                   "--n", 2000, "--set", "rate=0.1") == 0
        assert capsys.readouterr().out.strip() == "103"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("budget", "--config", cfg, "--n", 10, "--rate", 0.5) == 1

    def test_bad_set_syntax(self, capsys):
        assert run("budget", "--set", "norate", "--n", 10) == 1

    @pytest.mark.parametrize("argv, config, named", [
        (("budget", "--rate", 0.5, "--set", "n=abc"), None, "--n"),
        (("budget",), {"n": "abc", "rate": 0.5}, "--n"),
        (("budget", "--n", 10, "--set", "rate=[0.5]"), None, "--rate"),
        (CLASSIFY + ("--set", "trials=abc"), None, "--trials"),
        (CLASSIFY, {"trials": 1.5}, "--trials"),
        (("classify", "--data", "{classes3_rand30}"),
         {"fractions": ["a", "b"]}, "--fractions"),
        (("classify", "--data", "{classes3_rand30}"), {"fractions": []},
         "--fractions"),
        (("dist", "--data", "{translations_rand10}", "--set", "full=abc"),
         None, "full"),
        (("dist", "--data", "{translations_rand10}"), {"full": 1}, "full"),
        (("complete", "--input", "a.w2m", "--set", "algorithm=foo"), None,
         "--algorithm"),
    ], ids=["budget-set", "budget-config", "budget-set-list", "classify-set",
            "classify-config", "fractions-config", "fractions-empty",
            "full-set", "full-config",
            "algorithm-set"])
    def test_value_of_wrong_type(self, datasets, tmp_path, capsys, argv,
                                 config, named):
        """A --set or --config value gets the option's type and choices:
        one error line that names the option, exit 1, no traceback."""
        argv = tuple(filled(argv, datasets))
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ("--config", tmp_path / "cfg.json")
        assert run(*argv, "--out", tmp_path / "x") == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and named in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("argv, key", [
        (("budget", "--n", 10, "--rate", 0.5), "rank_estimate"),
        (("budget", "--n", 10, "--rate", 0.5), "algorithm"),
        (("budget", "--n", 10, "--rate", 0.5), "seed"),
        (("dist", "--data", "{translations_rand10}", "--full"), "energy"),
        (("embed", "--input", "absent.w2m"), "workers"),
        (("eval", "--estimate", "a.w2m", "--truth", "b.w2m"), "seed"),
        (("synth", "--spec", "translations:rand10"), "workers"),
        (("budget", "--n", 10, "--rate", 0.5), "config"),
    ])
    def test_key_of_another_command(self, datasets, tmp_path, capsys, argv,
                                    key):
        """Each command takes exactly its own options as keys."""
        argv = filled(argv, datasets)
        (tmp_path / "cfg.json").write_text(json.dumps({key: 1}))
        for how in (("--set", f"{key}=1"), ("--config", tmp_path / "cfg.json")):
            assert run(*argv, *how, "--out", tmp_path / "x") == 1
            assert (capsys.readouterr().err
                    == f"wassmatrix: error: unknown config key '{key}'\n")
            assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("argv", [
        ("budget", "--n", 10, "--rate", 0.5, "--seed", 1),
        ("budget", "--n", 10, "--rate", 0.5, "--workers", 2),
        ("embed", "--input", "absent.w2m", "--seed", 1),
        ("eval", "--estimate", "a.w2m", "--truth", "b.w2m", "--workers", 2),
        ("synth", "--spec", "translations:rand10", "--workers", 2),
    ])
    def test_seed_and_workers_only_where_read(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", tmp_path / "x") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_manifest_config_is_own_options(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("synth", "--spec", "classes3:rand24", "--out", data) == 0
        assert run("dist", "--data", data, "--columns", 6,
                   "--out", tmp_path / "cols") == 0
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "cols.w2m",
                   "--out", tmp_path / "est") == 0
        assert run("embed", "--input", tmp_path / "est.w2m",
                   "--out", tmp_path / "emb.csv") == 0
        assert run("classify", "--data", data, "--fractions", "1.0",
                   "--trials", 1, "--out", tmp_path / "cls") == 0
        own = {
            "synth": {"synthetic", "out", "seed"},
            "dist": {"data", "full", "rate", "columns", "out", "seed",
                     "workers"},
            "complete": {"algorithm", "input", "out", "rank_estimate",
                         "max_outer_iters", "residual_tolerance", "seed"},
            "embed": {"input", "dim", "energy", "labels_from", "out"},
            "classify": {"data", "input", "fractions", "trials",
                         "energy", "dim", "classifiers", "test_fraction",
                         "out", "seed", "workers"},
        }
        manifests = [data / "synth.manifest.json", tmp_path / "cols.manifest.json",
                     tmp_path / "est.manifest.json",
                     tmp_path / "emb.csv.manifest.json",
                     tmp_path / "cls" / "classify.manifest.json"]
        for path in manifests:
            manifest = json.loads(path.read_text())
            assert set(manifest["config"]) <= own[manifest["command"]], path
        dist = json.loads((tmp_path / "cols.manifest.json").read_text())
        assert dist["config"] == {"data": str(data), "columns": 6, "full": False,
                                  "out": str(tmp_path / "cols"), "seed": 0}

    def test_config_lists_and_switches(self, datasets, tmp_path, capsys):
        """JSON lists in --config are the comma lists of the flags, and a
        switch takes true or false from --set and --config."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fractions": [0.5, 1.0],
                                   "classifiers": ["knn1"]}))
        common = ("classify", "--data", datasets["classes3_rand24"], "--trials", 2,
                  "--seed", 13)
        assert run(*common, "--config", cfg, "--out", tmp_path / "a") == 0
        assert run(*common, "--fractions", "0.5,1.0", "--classifiers", "knn1",
                   "--out", tmp_path / "b") == 0
        summary = (tmp_path / "a" / "summary.json").read_text()
        assert summary == (tmp_path / "b" / "summary.json").read_text()
        assert len(json.loads(summary)["reports"]) == 2

        dist = ("dist", "--data", datasets["translations_rand10"], "--columns", 3)
        assert run(*dist, "--set", "full=false", "--out", tmp_path / "c") == 0
        assert load(tmp_path / "c.w2m").kind is MatrixKind.PARTIAL
        cfg.write_text(json.dumps({"full": True, "columns": None}))
        assert run("dist", "--data", datasets["translations_rand10"],
                   "--config", cfg, "--out", tmp_path / "d") == 0
        assert load(tmp_path / "d.w2m").kind is MatrixKind.FULL

    def test_config_meets_required_options(self, tmp_path, capsys):
        """A file value is the flag it names, so it counts for the
        option's required check, and a missing one is named."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2000, "rate": 0.1}))
        assert run("budget", "--config", cfg) == 0
        assert capsys.readouterr().out.strip() == "103"
        cfg.write_text(json.dumps({"n": 2000, "rate": None}))
        assert run("budget", "--config", cfg) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith("required: --rate")

    @pytest.mark.parametrize("how, message", [
        (("--set", "rate=0.1", "--full"), "not allowed with"),
        (("--set", "full=true", "--columns", 3), "not allowed with"),
        (("--set", "columns=3", "--set", "rate=0.1"), "not allowed with"),
        (("--set", "full=false"), "one of the arguments"),
    ])
    def test_set_value_meets_mode_exclusivity(self, datasets, tmp_path,
                                              capsys, how, message):
        """``dist`` takes exactly one of --full, --rate and --columns,
        however each is given."""
        assert run("dist", "--data", datasets["translations_rand10"], *how,
                   "--out", tmp_path / "x") == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert captured.out == "" and not list(tmp_path.glob("x*"))

    def test_flags_are_spelled_in_full(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000}))
        assert run("budget", "--n", 10, "--rate", 0.5, "--conf", cfg) == 1
        assert "unrecognized arguments: --conf" in capsys.readouterr().err

    def test_workers_env(self, tmp_path, capsys, monkeypatch):
        data_dir = tmp_path / "data"
        run("synth", "--spec", "translations:rand10", "--out", data_dir)
        monkeypatch.setenv("WASSMATRIX_WORKERS", "2")
        assert run("dist", "--data", data_dir, "--full",
                   "--out", tmp_path / "env") == 0
        monkeypatch.setenv("WASSMATRIX_WORKERS", "not-a-number")
        assert run("dist", "--data", data_dir, "--full",
                   "--out", tmp_path / "env2") == 1

    @pytest.mark.parametrize("flag, env, message", [
        ("0", None, "--workers must be >= 1, got 0"),
        ("-3", None, "--workers must be >= 1, got -3"),
        (None, "0", "WASSMATRIX_WORKERS must be >= 1, got 0"),
    ])
    def test_workers_below_one_rejected(self, datasets, tmp_path, capsys,
                                        monkeypatch, flag, env, message):
        monkeypatch.delenv("WASSMATRIX_WORKERS", raising=False)
        if env is not None:
            monkeypatch.setenv("WASSMATRIX_WORKERS", env)
        workers = [] if flag is None else ["--workers", flag]
        assert run("dist", "--data", datasets["translations_rand10"], "--full",
                   *workers, "--out", tmp_path / "d") == 1
        assert run("classify", "--data", datasets["classes3_rand30"],
                   "--fractions", "1.0", "--trials", 1, *workers,
                   "--out", tmp_path / "cls") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 2 * f"wassmatrix: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_file(self, tmp_path, capsys):
        assert run("embed", "--input", tmp_path / "absent.w2m",
                   "--out", tmp_path / "e.csv") == 1

    def test_unknown_flag(self, capsys):
        assert run("budget", "--frobnicate", "1") == 1

    def test_entry_point_module(self):
        import os
        import subprocess
        import sys
        import wassmatrix
        # the subprocess imports the same package, installed or not
        src = str(Path(wassmatrix.__file__).parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "wassmatrix", "budget",
             "--n", "2000", "--rate", "0.05"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "51"


README = (Path(__file__).parents[1] / "README.md").read_text()


def readme_block(title: str, language: str) -> str:
    """The first ``language`` code block of README's ``## title`` section."""
    section = README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def documented_commands() -> list:
    """The argv of every ``wassmatrix`` command in README's "Command
    line" block and in the ``cli`` module docstring."""
    block = readme_block("Command line", "sh")
    lines = (block.replace("\\\n", " ") + cli.__doc__).splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.strip().startswith("wassmatrix ")]


class TestDocumentedCommands:
    """A doc that names a removed flag, or leaves out a required one,
    fails to parse."""

    COMMANDS = documented_commands()

    def test_every_command_is_documented(self):
        _, commands = cli.make_parser()
        assert {argv[0] for argv in self.COMMANDS} == set(commands)

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_parses(self, argv):
        assert cli._parse_args(argv).command == argv[0]

    def test_parser_is_built_once(self, monkeypatch, capsys):
        parser = cli._parsers()

        def rebuild():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "make_parser", rebuild)
        for rate in (0.1, 0.5):
            assert run("budget", "--n", 100, "--rate", rate) == 0
        assert cli._parsers() is parser
        assert run("budget", "--n", 100) == 1  # a usage error leaves it whole
        assert run("budget", "--n", 2000, "--rate", 0.1) == 0
        assert capsys.readouterr().out.split()[-1] == "103"


class TestDocumentedLibrary:
    """README's library example runs, and the names it cites exist."""

    def test_library_block_runs(self, capsys):
        exec(compile(readme_block("Library", "python"), "README.md", "exec"), {})
        assert 0.0 <= float(capsys.readouterr().out) <= 1e-6

    def test_cited_names_resolve(self):
        modules = {"wm": wassmatrix, "matrixio": matrixio, "nystrom": nystrom,
                   "mc": mc}
        cited = set(re.findall(r"\b(wm|matrixio|nystrom|mc)\.(\w+)", README))
        assert {("matrixio", "load"), ("nystrom", "PINV_TOLERANCE")} <= cited
        assert sorted(f"{module}.{name}" for module, name in cited
                      if not hasattr(modules[module], name)) == []
