"""Static checks of the package source, standard library only."""

import ast
import re
from pathlib import Path

import wassmatrix

SRC = Path(wassmatrix.__file__).parent


def unused_imports(source: str) -> list:
    """Names a module imports and never references, as (line, name).

    ``__future__`` imports do not count; a ``noqa`` marker exempts
    nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports_in_src():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from .matrixio import DistanceMatrix, MatrixKind\n"
              "from .nystrom import complete_nystrom  # noqa: F401\n"
              "KIND = MatrixKind.FULL\n"
              "ZERO = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "DistanceMatrix"),
                                      (5, "complete_nystrom")]


def private_definitions(tree: ast.Module) -> list:
    """Module-level private names a module defines, as (line, name):
    functions, classes and assignment targets whose name starts with one
    underscore (dunders such as ``__all__`` are not private)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.lineno, node.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.lineno, t.id) for n in nodes for t in ast.walk(n)
                       if isinstance(t, ast.Name)]
        else:
            continue
        found += [(line, name) for line, name in targets
                  if name.startswith("_") and not name.startswith("__")]
    return found


def unreferenced_private_names(sources: dict) -> list:
    """Module-level private names that no module of ``sources`` (file name
    to source text) reads, as (file, line, name).  A read is a loaded
    name or an attribute of that name, in any of the modules."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((file, line, name) for file, tree in trees.items()
                  for line, name in private_definitions(tree) if name not in read)


def test_every_private_name_in_src_is_used():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_an_unused_private_name_is_found():
    sources = {
        "a.py": ("__all__ = ['run']\n"
                 "_LIMIT = 3\n"
                 "_SPARE: int = 4\n"
                 "_seen, _spare = [], []\n"
                 "def _helper():\n"
                 "    _local = _LIMIT\n"
                 "    return _local\n"
                 "def _orphan():\n"
                 "    return 0\n"
                 "class _Shape:\n"
                 "    pass\n"
                 "def run():\n"
                 "    _seen.append(1)\n"
                 "    return _helper()\n"),
        "b.py": ("from . import a\n"
                 "SHAPE = a._Shape\n"
                 "_unused = a.run()\n"),
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", 3, "_SPARE"), ("a.py", 4, "_spare"), ("a.py", 8, "_orphan"),
        ("b.py", 3, "_unused")]


# ``_name`` in double backquotes, a private name (dunders are not)
_CITED = re.compile(r"``(_(?!_)\w*)``")


def undefined_cited_names(sources: dict) -> list:
    """Private names that a docstring or comment of ``sources`` (file name
    to source text) cites as ``_name`` but that no module of ``sources``
    defines at module level, as (file, line, name).  Double backquotes
    occur in Python source only inside strings and comments, so the
    whole text is searched."""
    defined = {name for text in sources.values()
               for _, name in private_definitions(ast.parse(text))}
    return sorted((file, text.count("\n", 0, hit.start()) + 1, hit[1])
                  for file, text in sources.items()
                  for hit in _CITED.finditer(text) if hit[1] not in defined)


def test_every_private_name_cited_in_src_is_defined():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert undefined_cited_names(sources) == []


def test_a_stale_private_name_is_found():
    sources = {
        "a.py": ('"""Uses ``_helper`` and ``b._LIMIT``; ``__all__`` and\n'
                 '``run`` are no private names."""\n'
                 "__all__ = ['run']\n"
                 "def _helper():\n"
                 '    """Was ``_retired``."""\n'
                 "    return 0\n"
                 "def run():\n"
                 "    return _helper()  # mirrors as ``_gone`` did\n"),
        "b.py": ("_LIMIT = 3  # read by ``_helper`` of a.py\n"
                 "X = 1  # see ``_old_name``\n"),
    }
    assert undefined_cited_names(sources) == [
        ("a.py", 5, "_retired"), ("a.py", 8, "_gone"), ("b.py", 2, "_old_name")]
