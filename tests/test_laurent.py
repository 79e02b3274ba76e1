"""Exact Laurent-polynomial and cyclotomic arithmetic."""

import pytest
from hypothesis import given, strategies as st

from blobcell.laurent import (
    CycloNumber, InexactDivision, LaurentPoly, cyclotomic_root, gauss,
    quantum_factorial, quantum_integer, specialize,
)

polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                        max_size=6).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_basic_ring_ops():
    v = LaurentPoly.monomial(1)
    assert (v * v.bar()).is_one()
    assert (v + v.bar()).pretty() == "v + v^-1"
    assert LaurentPoly.zero().is_zero()
    assert (v - v).is_zero()
    assert v ** 3 == LaurentPoly.monomial(3)


@given(polys, polys)
def test_bar_is_ring_hom(a, b):
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()
    assert a.bar().bar() == a


@given(polys, nonzero_polys)
def test_divide_exact_roundtrip(a, b):
    assert (a * b).divide_exact(b) == a


def test_divide_exact_rejects_inexact():
    v = LaurentPoly.monomial(1)
    with pytest.raises(InexactDivision):
        (v + LaurentPoly.one()).divide_exact(v + v)


@given(polys)
def test_nonpositive_positive_split(p):
    assert p.nonpositive_part() + p.positive_part() == p
    assert all(e <= 0 for e, _ in p.nonpositive_part().items())
    assert all(e > 0 for e, _ in p.positive_part().items())


@given(polys)
def test_bar_symmetrize_nonpositive(p):
    """r is the unique bar-invariant poly with r ≡ p below degree 1."""
    r = p.bar_symmetrize_nonpositive()
    assert r.bar() == r
    assert (p - r).nonpositive_part().is_zero()


def test_quantum_integers():
    v = LaurentPoly.monomial(1)
    assert quantum_integer(2) == v + v.bar()
    assert quantum_integer(3) == v ** 2 + LaurentPoly.one() + v.bar() ** 2
    assert quantum_integer(-2) == -quantum_integer(2)
    assert quantum_factorial(3) == quantum_integer(2) * quantum_integer(3)


def test_gauss_balanced():
    # gauss(n, x) = x^{n-1} + x^{n-3} + ... + x^{1-n}
    v = LaurentPoly.monomial(1)
    assert gauss(3, v) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert gauss(1, v).is_one()
    assert gauss(0, v).is_zero()
    assert gauss(2, v).bar() == gauss(2, v)


def test_cyclotomic_basics():
    z = cyclotomic_root(12)
    assert (z ** 12).is_one()
    assert not (z ** 6).is_one()
    i = cyclotomic_root(12, 3)
    assert i * i == CycloNumber.const(12, -1)
    assert (z * z.inverse()).is_one()


def test_specialize_laurent_at_root():
    z = cyclotomic_root(12, 7)
    p = LaurentPoly({2: 1, -2: 1})  # v^2 + v^-2
    val = specialize(p, z)
    # v = zeta_12^7 gives v^2 = zeta_12^2, and zeta^2 + zeta^-2 = 1.
    assert val == CycloNumber.const(12, 1)


def test_pretty_and_json_deterministic():
    p = LaurentPoly({3: 2, 0: -1, -2: 5})
    assert p.pretty() == LaurentPoly(dict(reversed(list(p.items())))).pretty()
    assert p.to_json() == {"3": 2, "0": -1, "-2": 5}


def test_cyclotomic_coeffs_match_sympy():
    from sympy import Poly, Symbol, cyclotomic_poly

    from blobcell.laurent import _cyclotomic_coeffs

    x = Symbol("x")
    for n in range(1, 201):
        want = Poly(cyclotomic_poly(n, x), x).all_coeffs()
        assert _cyclotomic_coeffs(n) == tuple(int(c) for c in reversed(want))
