"""The benchmark's tracer wraps package attributes by name, so a refactor
that drops or renames one breaks ``bench/run.py --trace 1``.  This test
installs the tracer and takes it off again, so the test suite sees that
too, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from wassmatrix import classify, cli, matrixio, measures, nystrom

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores():
    tracing = load_tracing()
    modules = (classify, cli, matrixio, measures)
    before = [dict(vars(m)) for m in modules]
    table = dict(classify.CLASSIFIERS)
    uninstall = tracing.install(tracing.Recorder())
    try:
        wrapped = {(m.__name__, name) for m, old in zip(modules, before)
                   for name, value in vars(m).items() if value is not old.get(name)}
        assert {("wassmatrix.cli", "complete_nystrom"), ("wassmatrix.cli", "mds"),
                ("wassmatrix.cli", "choose_dimension"),
                ("wassmatrix.matrixio", "save"),
                ("wassmatrix.matrixio", "load")} <= wrapped
    finally:
        uninstall()
    for module, old in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in old.items())
    assert classify.CLASSIFIERS == table


def test_wrapped_load_passes_keywords(tmp_path):
    tracing = load_tracing()
    recorder = tracing.Recorder()
    matrix = matrixio.DistanceMatrix.full([[0.0, 1.0], [1.0, 0.0]])
    uninstall = tracing.install(recorder)
    try:
        matrixio.save(matrix, tmp_path / "m.w2m")
        back = matrixio.load(tmp_path / "m.w2m", expand=False)
    finally:
        uninstall()
    assert back.values.tobytes() == matrix.values.tobytes()
    assert [s["name"] for s in recorder.spans] == ["matrixio.save", "matrixio.load"]
    assert recorder.spans[0]["attrs"]["bytes"] == (tmp_path / "m.w2m").stat().st_size


@pytest.mark.parametrize("mode", [["--full"], ["--columns", "3"]])
def test_dist_records_assembly_and_save(tmp_path, capsys, mode):
    # column assembly goes through cli.w2_matrix, so a traced pass sees it
    assert cli.main(["synth", "--spec", "classes3:rand12",
                     "--out", str(tmp_path / "data")]) == 0
    tracing = load_tracing()
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        assert cli.main(["dist", "--data", str(tmp_path / "data"), *mode,
                         "--out", str(tmp_path / "d")]) == 0
    finally:
        uninstall()
    names = [s["name"] for s in recorder.spans]
    assert names.count("ot.w2_matrix") == 1
    assert names.count("matrixio.save") == 1
    assert tracing.nesting_errors(recorder.spans) == []


def traced_span_names(*argv, recorder=None):
    """Names of the spans a traced ``cli.main(argv)`` records."""
    tracing = load_tracing()
    recorder = recorder or tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        assert cli.main([str(a) for a in argv]) == 0
    finally:
        uninstall()
    assert tracing.nesting_errors(recorder.spans) == []
    return [s["name"] for s in recorder.spans]


def test_nystrom_steps_are_traced(tmp_path, capsys, monkeypatch):
    # complete and each classify trial reach nystrom.complete_nystrom
    data = tmp_path / "data"
    assert cli.main(["synth", "--spec", "classes3:rand30", "--out", str(data)]) == 0
    assert cli.main(["dist", "--data", str(data), "--columns", "5",
                     "--out", str(tmp_path / "cols")]) == 0
    recorder, open_spans = load_tracing().Recorder(), []
    truncated_eigh = nystrom._truncated_eigh

    def recording(*args):
        open_spans.append([s["name"] for s in recorder.spans if s["end"] is None])
        return truncated_eigh(*args)

    monkeypatch.setattr(nystrom, "_truncated_eigh", recording)
    names = traced_span_names("complete", "--algorithm", "nystrom",
                              "--input", tmp_path / "cols.w2m",
                              "--out", tmp_path / "est", recorder=recorder)
    assert names.count("nystrom.complete_nystrom") == 1
    # the one core decomposition is inside the complete_nystrom span
    assert len(open_spans) == 1 and "nystrom.complete_nystrom" in open_spans[0]
    names = traced_span_names("classify", "--data", data, "--fractions", "0.3,1.0",
                              "--trials", 2, "--out", tmp_path / "cls")
    assert names.count("nystrom.complete_nystrom") == 4
