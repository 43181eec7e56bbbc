"""The mutation kill list still fits the code: each mutant's text is there to
replace, and each of its tests names a file that exists and the class and
test, if any, that the file defines.

``tests/mutation.py`` runs the mutants themselves, which takes minutes; this
check catches a refactor that moved a mutant's target, or renamed a test it
names, in well under a second.
"""

import ast

import pytest
from mutation import MUTANTS, ROOT


def resolves(node):
    """Whether the file of the pytest node id ``node`` exists and defines each ``::`` part of it."""
    path, *names = node.split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for name in names:
        name = name.partition("[")[0]  # a parametrized test's id ends in [...]
        found = next((stmt for stmt in body if isinstance(stmt, kinds) and stmt.name == name), None)
        if found is None:
            return False
        body = found.body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_fits_the_code(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    for node in mutant.tests:
        assert resolves(node), node


@pytest.mark.parametrize("node, found", (
    ("tests/test_baselines.py::TestTopPair::test_halves_keep_their_order[3]", True),
    ("tests/test_golden.py::test_outputs_match_recorded_digests", True),
    ("tests/test_gone.py", False),
    ("tests/test_baselines.py::TestTopBytesPair", False),  # a class that is not there
    ("tests/test_baselines.py::TestTopPair::test_gone", False),
    ("tests/test_baselines.py::test_halves_keep_their_order", False),  # a method is not module-level
))
def test_stale_node_ids_do_not_resolve(node, found):
    assert resolves(node) == found
