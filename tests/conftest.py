"""Fixtures shared by the test modules."""

import pytest

from blobcell import hecke


@pytest.fixture(scope="session")
def b5_basis():
    """The C-basis of W_5 (3,840 elements), built once for the n = 5 tests."""
    return hecke.compute_kl_basis(5, bound=5)
