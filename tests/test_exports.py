import wassmatrix


def test_every_export_resolves_once():
    names = wassmatrix.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(wassmatrix, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from wassmatrix import *", namespace)
    assert set(wassmatrix.__all__) <= set(namespace)
