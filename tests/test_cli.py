import json

import numpy as np
import pytest

from wassmatrix import (
    StabilityConfig,
    load_dataset,
    relative_error,
    stability_experiment,
    synthetic_dataset,
    w2_matrix,
)
from wassmatrix.cli import main
from wassmatrix.matrixio import MatrixKind, load, save
from wassmatrix.matrixio import DistanceMatrix


def run(*argv):
    return main([str(a) for a in argv])


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


class TestSynthAndDist:
    def test_grid_dataset_full_matrix(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run("synth", "--spec", "translations:grid3", "--out", data_dir) == 0
        assert (data_dir / "dataset.json").exists()
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

    def test_dist_synthetic_spec(self, tmp_path, capsys):
        from wassmatrix.seeding import derive_seed
        out = tmp_path / "g3"
        assert run("dist", "--synthetic", "translations:grid3", "--full",
                   "--seed", 0, "--out", out) == 0
        matrix = load(tmp_path / "g3.w2m")
        assert matrix.size == 9
        direct = w2_matrix(synthetic_dataset("translations:grid3",
                                             derive_seed(0, "synth")))
        np.testing.assert_array_equal(matrix.values, direct.values)

    def test_crashed_worker_pool_exits_2(self, tmp_path, capsys,
                                         monkeypatch):
        from concurrent.futures.process import BrokenProcessPool
        from wassmatrix import cli

        def crash(*_args):
            raise BrokenProcessPool("a worker process terminated abruptly")

        monkeypatch.setattr(cli, "w2_matrix", crash)
        assert run("dist", "--synthetic", "translations:grid2", "--full",
                   "--workers", 2, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("wassmatrix: numerical failure:")
        assert not (tmp_path / "x.w2m").exists()

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

    def test_mc_diverged_exits_2(self, pipeline_dirs, capsys, monkeypatch):
        from wassmatrix import cli
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
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "run" / "x.w2m",
                   "--out", tmp_path / "run" / "est") == 0
        report = json.loads((tmp_path / "run" / "est.report.json").read_text())
        assert report["columns"] == 20
        truth = load(tmp_path / "run" / "x.w2m")
        est = load(tmp_path / "run" / "est.w2m")
        assert relative_error(est, truth) <= 1e-9

        # a partial matrix whose plan is gone cannot be completed
        assert run("dist", "--data", data_dir, "--columns", 5,
                   "--out", tmp_path / "run" / "y") == 0
        (tmp_path / "run" / "y.plan.json").unlink()
        capsys.readouterr()
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "run" / "y.w2m",
                   "--out", tmp_path / "run" / "esty") == 1
        assert "no column plan found" in capsys.readouterr().err
        assert not (tmp_path / "run" / "esty.w2m").exists()

    def test_nystrom_rejects_entry_plan(self, pipeline_dirs, capsys):
        tmp_path, data_dir = pipeline_dirs
        run("dist", "--data", data_dir, "--rate", 0.5, "--seed", 5,
            "--out", tmp_path / "ent2")
        assert run("complete", "--algorithm", "nystrom",
                   "--input", tmp_path / "ent2.w2m",
                   "--out", tmp_path / "bad") == 1


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
          "--rank-estimate", 2, "--max-outer-iters", 1, "--inner-steps", 1)
    NYSTROM = ("complete", "--algorithm", "nystrom", "--input", "{d}/full.w2m")

    @pytest.mark.parametrize("argv, named", [
        (MC + ("--damping", 0.5), "--damping"),
        (MC + ("--set", "damping=0.5"), "'damping'"),
        (NYSTROM + ("--pinv-tolerance", 1e-8), "--pinv-tolerance"),
        (NYSTROM + ("--reimpose-observed",), "--reimpose-observed"),
        (NYSTROM + ("--config", "{d}/cfg.json"), "'reimpose_observed'"),
        (("dist", "--n", 100, "--rate", 0.1), "--n"),
    ], ids=["damping-flag", "damping-set", "pinv-tolerance-flag",
            "reimpose-observed-flag", "reimpose-observed-config",
            "plan-only-dist"])
    def test_exits_1_and_writes_nothing(self, inputs, capsys, argv, named):
        argv = [str(a).format(d=inputs) for a in argv]
        assert run(*argv, "--out", inputs / "x") == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("wassmatrix: error:")]
        assert len(errors) == 1 and named in errors[0]
        assert not list(inputs.glob("x*"))


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


class TestClassify:
    def test_outputs_and_composition(self, tmp_path, capsys):
        out_dir = tmp_path / "cls"
        assert run("classify", "--synthetic", "classes3:rand24",
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
        data = synthetic_dataset("classes3:rand24", derive_seed(13, "synth"))
        reports = stability_experiment(
            data, [0.5, 1.0], 2,
            StabilityConfig(classifiers=("knn1",), seed=13))
        assert summary["reports"] == [r.to_json() for r in reports]

    def test_unknown_classifier(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("classify", "--synthetic", "classes3:rand24",
                   "--fractions", "1.0", "--trials", 1,
                   "--classifiers", "knn1,svm", "--out", tmp_path / "cls") == 1
        err = capsys.readouterr().err
        assert err == "wassmatrix: error: unknown classifier 'svm'\n"
        assert not (tmp_path / "cls").exists()

    def test_needs_labels(self, tmp_path, capsys):
        assert run("classify", "--synthetic", "translations:grid3",
                   "--fractions", "1.0", "--trials", 1,
                   "--out", tmp_path / "x") == 1


class TestConfigHandling:
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

    def test_workers_env(self, tmp_path, capsys, monkeypatch):
        data_dir = tmp_path / "data"
        run("synth", "--spec", "translations:rand10", "--out", data_dir)
        monkeypatch.setenv("WASSMATRIX_WORKERS", "2")
        assert run("dist", "--data", data_dir, "--full",
                   "--out", tmp_path / "env") == 0
        monkeypatch.setenv("WASSMATRIX_WORKERS", "not-a-number")
        assert run("dist", "--data", data_dir, "--full",
                   "--out", tmp_path / "env2") == 1

    def test_missing_input_file(self, tmp_path, capsys):
        assert run("embed", "--input", tmp_path / "absent.w2m",
                   "--out", tmp_path / "e.csv") == 1

    def test_unknown_flag(self, capsys):
        assert run("budget", "--frobnicate", "1") == 1

    def test_entry_point_module(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "wassmatrix", "budget",
             "--n", "2000", "--rate", "0.05"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "51"
