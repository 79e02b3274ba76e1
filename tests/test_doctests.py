"""The docstring examples of every blobcell module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import blobcell

MODULES = ["blobcell"] + sorted(f"blobcell.{m.name}"
                                for m in pkgutil.iter_modules(blobcell.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} docstring examples failed in {name}"


def test_doctests_are_found():
    # The CycloNumber, LaurentPoly, packing, Hecke product, partition,
    # window and blob diagram examples exist, so a broken collection cannot
    # pass as "no failures".
    for name in ("blobcell.laurent", "blobcell.kronecker", "blobcell.hecke",
                 "blobcell.partitions", "blobcell.weylb", "blobcell.blob"):
        tests = doctest.DocTestFinder().find(importlib.import_module(name))
        assert sum(len(t.examples) for t in tests) > 0, name
