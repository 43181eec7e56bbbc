"""Every module-level import in ``src/dpe`` is used by the module that makes it,
and the kernels call no Python-level numpy function or method that a C-level
ndarray method or ufunc replaces.

``__init__.py`` is exempt, as it imports names to re-export them, and so is
``from __future__``. A name that only a docstring or comment mentions is
unused.

At sweep sizes a kernel's cost is per call, and each ``np.*`` function below
goes through numpy's Python-level dispatch before it reaches the ndarray
method or C-level op that does the work (README, "How it runs"). The
reductions ``.max()``, ``.min()``, ``.sum()``, ``.all()`` and ``.any()`` are
Python-level too (``numpy._core._methods``); their ufunc's ``reduce`` is not.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dpe"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_a_dead_import():
    source = '"""Uses TOLERANCE."""\nimport os.path\nimport sys\nfrom x import TOLERANCE, y as z\nsys.exit(z)\n'
    assert unused_imports(source) == ["os", "TOLERANCE"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: numpy functions that wrap an ndarray method or a cheaper C-level op; the set
#: routines sort through Python-level code, where a mask or a sorted search serves
WRAPPERS = {
    "searchsorted", "argsort", "cumsum", "take", "repeat", "sort", "ones",
    "flatnonzero", "split", "stack", "unique", "append", "diff", "count_nonzero",
    "union1d", "intersect1d", "isin",
}

#: ndarray reductions that run Python-level code before their ufunc's ``reduce``
METHODS = {"max", "min", "sum", "all", "any"}


def wrapper_calls(source):
    """Each call ``np.<name>`` of a name in WRAPPERS or METHODS, each method call
    ``.<name>`` of a name in METHODS, and each use of ``sliding_window_view``, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "np":
                if func.attr in WRAPPERS | METHODS:
                    found.append(f"np.{func.attr}")
            elif func.attr in METHODS:
                found.append(f".{func.attr}")
        names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if "sliding_window_view" in names:  # a name read, an attribute or an import
            found.append("sliding_window_view")
    return sorted(found)


def test_the_check_finds_wrapper_calls():
    source = (
        "import numpy as np\nfrom numpy.lib.stride_tricks import sliding_window_view\n"
        "a = np.sort(np.arange(3))\na.sort()\nb = np.lib.stride_tricks.sliding_window_view(a, 2)\n"
        "c = np.flatnonzero(a)\nd = a.nonzero()[0]\n"
        "e = int(a.max(initial=0)) + a[1:].sum() + max(1, 2) + np.maximum.reduce(a) + np.add.reduce(a)\n"
        "f = np.ones(3, dtype=bool)\nf[:1] = (f == 0).all() or np.logical_and.reduce(f) or np.all(f)\n"
    )
    assert wrapper_calls(source) == [
        ".all", ".max", ".sum", "np.all", "np.flatnonzero", "np.ones", "np.sort",
        "sliding_window_view", "sliding_window_view",
    ]


def test_kernels_call_no_numpy_wrapper():
    assert wrapper_calls((SRC / "core.py").read_text(encoding="utf-8")) == []
