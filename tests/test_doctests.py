"""Every docstring example of the steklov_zeta modules runs as written."""

import doctest
import importlib
import pkgutil

import pytest

import steklov_zeta

MODULES = ["steklov_zeta", *sorted(
    name for _, name, _ in pkgutil.iter_modules(steklov_zeta.__path__,
                                                "steklov_zeta."))]
EXAMPLES = [test for name in MODULES
            for test in doctest.DocTestFinder().find(importlib.import_module(name))
            if test.examples]


def test_the_package_has_docstring_examples():
    assert "steklov_zeta.scalars.RationalComplex" in {t.name for t in EXAMPLES}


@pytest.mark.parametrize("test", EXAMPLES, ids=lambda t: t.name)
def test_docstring_example(test):
    # a failing example prints its report to the captured stdout
    assert doctest.DocTestRunner().run(test).failed == 0
