"""Every import in the package source and the tests is used, or marked as a
deliberate re-export."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import deepdict

SOURCES = sorted(pathlib.Path(deepdict.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.name)
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


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's ``deepdict``."""
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_package_imports_no_scipy_linalg_or_sparse():
    loaded = run_fresh(
        "import sys\n"
        "import deepdict, deepdict.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse'))))\n"
    )
    assert loaded == "['scipy.linalg._flapack']\n"


@pytest.mark.parametrize(
    "imports",
    ["import deepdict, deepdict.cli\nimport scipy.linalg\n",
     "import scipy.linalg\nimport deepdict, deepdict.cli\n"],
    ids=["deepdict-first", "scipy-first"],
)
def test_lapack_wrappers_are_scipys_own(imports):
    same = run_fresh(
        imports + "import numpy as np\n"
        "from deepdict import kernels\n"
        "potrf, potrs = scipy.linalg.get_lapack_funcs(('potrf', 'potrs'), dtype=np.float64)\n"
        "print(potrf is kernels._POTRF, potrs is kernels._POTRS)\n"
    )
    assert same == "True True\n"


def test_missing_lapack_module_is_named(tmp_path):
    """Without SciPy's wrapper module the import fails and names it; there is no fallback."""
    fake_init = tmp_path / "scipy" / "__init__.py"
    raised = run_fresh(
        "import scipy\n"
        f"scipy.__file__ = {str(fake_init)!r}\n"
        "try:\n"
        "    import deepdict\n"
        "except ImportError as exc:\n"
        "    print(exc.name, exc)\n"
    )
    assert raised == (
        "scipy.linalg._flapack cannot find SciPy's LAPACK wrapper module scipy.linalg._flapack\n"
    )


def test_active_set_routines_import_no_scipy_linalg_or_sparse():
    """Solving with the active-set rounds, which use ``dpocon`` and ``dpotri``
    as well, still loads nothing of SciPy but its LAPACK wrapper module."""
    loaded = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "import deepdict, deepdict.cli\n"
        "from deepdict import kernels\n"
        "d = np.random.default_rng(0).normal(size=(12, 4))\n"
        "print(kernels._spd_inverse(d.T @ d, kernels._ACTIVE_SET_RCOND)[1] is not None)\n"
        "kernels.ista_sparse_code(d, d @ np.ones((4, 3)), 0.1)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse'))))\n"
    )
    assert loaded == "True\n['scipy.linalg._flapack']\n"


def test_lapack_routines_are_scipy_lapacks_own_when_it_loaded_first():
    same = run_fresh(
        "import scipy.linalg.lapack as lapack\n"
        "from deepdict import kernels\n"
        "names = ('potrf', 'potrs', 'pocon', 'potri')\n"
        "print([getattr(kernels, '_' + n.upper()) is getattr(lapack, 'd' + n) for n in names])\n"
    )
    assert same == "[True, True, True, True]\n"
