"""Static checks of the package source, standard library only."""

import ast
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
