"""The benchmark's tracer wraps package attributes by name, so a refactor
that drops or renames one breaks ``bench/run.py --trace 1``.  This test
installs the tracer and takes it off again, so the test suite sees that
too, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

from wassmatrix import classify, cli, matrixio, measures

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
