"""Every module-level import in ``src/dpe`` is used by the module that makes it.

``__init__.py`` is exempt, as it imports names to re-export them, and so is
``from __future__``. A name that only a docstring or comment mentions is
unused.
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
