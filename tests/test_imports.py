"""Every import in the package source is used, or marked as a deliberate re-export."""

import ast
import pathlib

import pytest

import deepdict

SOURCES = sorted(pathlib.Path(deepdict.__file__).parent.glob("*.py"))


def names_read(tree: ast.AST) -> set[str]:
    """Every name in ``tree``, including those inside quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= names_read(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that nothing in ``source`` reads.

    An import whose line carries ``# noqa: F401`` is exempt, as are
    ``from __future__`` and star imports. A name counts as read when it
    appears anywhere in the module, quoted annotations included.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # ``import scipy.linalg`` binds ``scipy``
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = names_read(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_and_honours_the_marker():
    source = (
        "from __future__ import annotations\n"
        "import csv\n"
        "import os.path\n"
        "from math import inf, pi  # noqa: F401\n"
        "from typing import (\n"
        "    Callable,\n"
        "    Iterator,\n"
        ")\n"
        "from .kernels import ridge_code  # noqa: F401\n"
        "from .intraclass import DdlicModel\n"
        "def f(x: Callable, m: 'DdlicModel') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["line 2: csv", "line 7: Iterator"]
