"""Run the doctests embedded in the library's docstrings.

The usage examples in docstrings are part of the public contract; this
module keeps them honest.
"""

import doctest

import pytest

import repro.core.combined
import repro.core.pac
import repro.core.separation
import repro.core.set_agreement
import repro.objects.classic
import repro.objects.consensus
import repro.objects.register
import repro.objects.snapshot
import repro.objects.spec
import repro.runtime.process
import repro.types

MODULES = [
    repro.core.combined,
    repro.core.pac,
    repro.core.separation,
    repro.core.set_agreement,
    repro.objects.classic,
    repro.objects.consensus,
    repro.objects.register,
    repro.objects.snapshot,
    repro.objects.spec,
    repro.runtime.process,
    repro.types,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[module.__name__ for module in MODULES]
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"


def test_some_modules_actually_have_doctests():
    total_attempted = sum(
        doctest.testmod(module, verbose=False).attempted for module in MODULES
    )
    assert total_attempted >= 15
