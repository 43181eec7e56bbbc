"""The mutation kill list still fits the code: each mutant's text is there to
replace, and each of its tests names a file that exists.

``tests/mutation.py`` runs the mutants themselves, which takes minutes; this
check catches a refactor that moved a mutant's target in well under a second.
"""

import pytest
from mutation import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_fits_the_code(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    for node in mutant.tests:
        assert (ROOT / node.partition("::")[0]).is_file(), node
