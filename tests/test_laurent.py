"""Exact Laurent-polynomial and cyclotomic arithmetic."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blobcell.laurent import (
    ConductorOverflow, CycloNumber, InexactDivision, LaurentPoly,
    cyclotomic_root, gauss, quantum_factorial, quantum_integer, specialize,
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
    positive = LaurentPoly({e: c for e, c in p.items() if e > 0})
    assert p.nonpositive_part() + positive == p
    assert all(e <= 0 for e, _ in p.nonpositive_part().items())


@given(polys, st.integers(0, 9))
def test_power_matches_repeated_products(p, k):
    want = LaurentPoly.one()
    for _ in range(k):
        want = want * p
    assert p ** k == want


def test_power_of_a_non_monomial():
    v, one = LaurentPoly.monomial(1), LaurentPoly.one()
    assert (v + one) ** 5 == LaurentPoly({5: 1, 4: 5, 3: 10, 2: 10, 1: 5,
                                          0: 1})
    assert (v - v.bar()) ** 0 == one
    assert (v - v.bar()) ** 2 == v ** 2 - one - one + v.bar() ** 2
    with pytest.raises(InexactDivision, match="non-monomial"):
        (v + one) ** -1
    with pytest.raises(InexactDivision, match="non-unit"):
        (v * 2) ** -1


def test_unit_monomials_have_every_power():
    # +-v^e is a unit of Z[v^+-1], with inverse +-v^-e.
    one = LaurentPoly.one()
    for e, sign, k in itertools.product(range(-3, 4), (1, -1), range(-4, 5)):
        u = LaurentPoly.monomial(e, sign)
        base = u if k >= 0 else one.divide_exact(u)
        want = one
        for _ in range(abs(k)):
            want = want * base
        got = u ** k
        assert got == want, (e, sign, k)
        assert one.divide_exact(u ** -k) == got, (e, sign, k)


def test_repr_lists_terms_by_increasing_exponent():
    v = LaurentPoly.monomial(1)
    assert repr(v + v.bar()) == repr(v.bar() + v) == "LaurentPoly({-1: 1, 1: 1})"
    assert repr(LaurentPoly({3: 2, -1: -1, 0: 5})) == (
        "LaurentPoly({-1: -1, 0: 5, 3: 2})")
    assert repr(LaurentPoly.zero()) == "LaurentPoly({})"


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
    # [n]_x = [n]_{1/x}, stored in one order: [2]_{Q/q} at Q/q = v^-1 has
    # the repr of [2]_v
    assert repr(gauss(3, v.bar())) == repr(gauss(3, v))


def test_cyclotomic_basics():
    z = cyclotomic_root(12)
    assert (z ** 12).is_one()
    assert not (z ** 6).is_one()
    i = cyclotomic_root(12, 3)
    assert i * i == CycloNumber.const(12, -1)
    assert (z * cyclotomic_root(12, -1)).is_one()
    assert cyclotomic_root(12, -1) == z ** 11 == cyclotomic_root(12, 23)


def test_specialize_laurent_at_root():
    p = LaurentPoly({2: 1, -2: 1})  # v^2 + v^-2
    val = specialize(p, 12, 7)
    # v = zeta_12^7 gives v^2 = zeta_12^2, and zeta^2 + zeta^-2 = 1.
    assert val == CycloNumber.const(12, 1)


def test_pretty_and_json_deterministic():
    p = LaurentPoly({3: 2, 0: -1, -2: 5})
    assert p.pretty() == LaurentPoly(dict(reversed(list(p.items())))).pretty()


def test_cyclotomic_coeffs_match_sympy():
    from sympy import Poly, Symbol, cyclotomic_poly

    from blobcell.laurent import _cyclotomic_coeffs

    x = Symbol("x")
    for n in range(1, 201):
        want = Poly(cyclotomic_poly(n, x), x).all_coeffs()
        assert _cyclotomic_coeffs(n) == tuple(int(c) for c in reversed(want))


# -- CycloNumber against Fraction lists modulo Phi_N, written here ----------

CONDUCTORS = (1, 2, 3, 4, 5, 8, 12, 15, 20)


def _phi(n):
    """The ascending coefficients of the monic Phi_n (checked against sympy above)."""
    from blobcell.laurent import _cyclotomic_coeffs

    return _cyclotomic_coeffs(n)


def _ref_mod(a, n):
    """The remainder of the Fraction list a modulo Phi_n, with phi(n) entries."""
    mod = _phi(n)
    deg = len(mod) - 1
    a = [Fraction(x) for x in a] + [Fraction(0)] * max(0, deg - len(a))
    while len(a) > deg:
        top = a.pop()
        for j in range(deg):
            a[len(a) - deg + j] -= top * mod[j]
    return a


def _ref_mul(a, b, n):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_mod(prod, n)


def _ref_one(n):
    return _ref_mod([1], n)


def _value(x):
    """x's phi(n) coefficients, after checking that they are ints."""
    assert all(type(a) is int for a in x._c), x._c
    return list(x._c)


def _random_coeffs(rng, n):
    deg = len(_phi(n)) - 1
    size = rng.randrange(1, 2 * deg + 2)  # longer than phi(n) on purpose
    return [rng.randint(-7, 7) if rng.random() < 0.8 else 0
            for _ in range(size)]


def _random_pairs(n, count=40):
    rng = random.Random(f"cyclo:{n}")
    for _ in range(count):
        a, b = _random_coeffs(rng, n), _random_coeffs(rng, n)
        yield a, b, CycloNumber(n, a), CycloNumber(n, b)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_cyclo_ring_ops_match_fraction_reference(n):
    for a, b, x, y in _random_pairs(n):
        ra, rb = _ref_mod(a, n), _ref_mod(b, n)
        assert _value(x) == ra and _value(y) == rb
        assert _value(x + y) == [p + q for p, q in zip(ra, rb)]
        assert _value(x - y) == [p - q for p, q in zip(ra, rb)]
        assert _value(-x) == [-p for p in ra]
        assert _value(x * y) == _ref_mul(ra, rb, n)
        assert _value(x * x) == _ref_mul(ra, ra, n)
        assert (x - x).is_zero() and _value(x - x) == [0] * len(ra)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_cyclo_scalars_match_fraction_reference(n):
    rng = random.Random(f"cyclo-scalar:{n}")
    for a, _, x, _ in _random_pairs(n):
        ra = _ref_mod(a, n)
        k = rng.randint(-9, 9)
        rk = _ref_mod([k], n)
        assert _value(x + k) == _value(k + x) == [p + q for p, q in zip(ra, rk)]
        assert _value(x - k) == [p - q for p, q in zip(ra, rk)]
        assert _value(k - x) == [q - p for p, q in zip(ra, rk)]
        assert _value(x * k) == _value(k * x) == [p * k for p in ra]
        assert _value(CycloNumber.const(n, k)) == rk
        assert (CycloNumber.const(n, k) == k) and (x + k == k + x)
    # Z[zeta_N] takes int coefficients and int scalars only.
    half = Fraction(1, 2)
    with pytest.raises(TypeError):
        CycloNumber(n, [1, half])
    with pytest.raises(TypeError):
        x + half
    with pytest.raises(TypeError):
        x * half


@pytest.mark.parametrize("n", CONDUCTORS)
def test_cyclo_pow_inverse_division_match_fraction_reference(n):
    # Powers match the reference; the ring has no inverse and no division.
    one = _ref_one(n)
    for a, b, x, y in _random_pairs(n, count=15):
        ra = _ref_mod(a, n)
        power = one
        for k in range(5):
            assert _value(x ** k) == power
            power = _ref_mul(power, ra, n)
        assert not hasattr(x, "inverse")
        with pytest.raises(TypeError):
            x / y
        with pytest.raises(TypeError):
            x / 2
        with pytest.raises(ValueError):
            x ** -1


@pytest.mark.parametrize("n", CONDUCTORS)
def test_cyclo_equal_values_have_equal_hashes(n):
    phi = _phi(n)
    for a, b, x, y in _random_pairs(n, count=15):
        same = [
            x,
            CycloNumber(n, [int(c) for c in _ref_mod(a, n)]),
            x + y - y,
            x * 6 - x * 5,
            (x + 1) * (x - 1) - x * x + 1 + x,
            # a + 3·zeta^2·Phi_n(zeta) reduces to a
            CycloNumber(n, [c + 3 * p for c, p in
                            itertools.zip_longest(a, [0, 0, *phi],
                                                  fillvalue=0)]),
        ]
        for z in same:
            assert z == x and hash(z) == hash(x) and repr(z) == repr(x)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_cyclo_constants_hash_as_their_rational_value(n):
    # x == k must give hash(x) == hash(k), so dicts and sets find either.
    rng = random.Random(f"cyclo-const:{n}")
    values = [0, 1, -1] + [rng.randint(-99, 99) for _ in range(10)]
    for k in values:
        # the second is Phi_n(zeta) + k: a constant reached by reduction
        for x in (CycloNumber.const(n, k), CycloNumber(n, _phi(n)) + k):
            assert x == k and hash(x) == hash(k)
            assert {x: "x"}.get(k) == "x" and {k: "k"}.get(x) == "k"
            assert k in {x} and x in {k}


def test_cyclo_repr_text():
    z = cyclotomic_root(12)
    assert repr(z) == "CycloNumber(12; 1*z^1)"
    assert repr((z + 2) * 4) == "CycloNumber(12; 8*z^0 + 4*z^1)"
    assert repr(-z * 6 + z * 0) == "CycloNumber(12; -6*z^1)"
    assert repr(CycloNumber.const(12, 0)) == "CycloNumber(12; 0)"
    assert repr(z ** 4) == "CycloNumber(12; -1*z^0 + 1*z^2)"


def test_cyclo_conductor_overflow():
    from blobcell.laurent import MAX_CONDUCTOR

    CycloNumber(MAX_CONDUCTOR, [1, 2])
    with pytest.raises(ConductorOverflow):
        CycloNumber(MAX_CONDUCTOR + 1, [1])
    with pytest.raises(ConductorOverflow):
        cyclotomic_root(MAX_CONDUCTOR + 1)
    with pytest.raises(ConductorOverflow):
        specialize(LaurentPoly.one(), 2 * MAX_CONDUCTOR, 1)


_V1 = LaurentPoly.monomial(1)
_LOW_CONDUCTOR_CALLS = {  # call -> (conductor, call)
    "CycloNumber(0, [1])": (0, lambda: CycloNumber(0, [1])),
    "CycloNumber(0, [7])": (0, lambda: CycloNumber(0, [7])),
    "CycloNumber(-3, [1, 2])": (-3, lambda: CycloNumber(-3, [1, 2])),
    "CycloNumber(-3, [5])": (-3, lambda: CycloNumber(-3, [5])),
    "specialize(v, 0, 1)": (0, lambda: specialize(_V1, 0, 1)),
    "cyclotomic_root(0)": (0, lambda: cyclotomic_root(0)),
    "cyclotomic_root(-4)": (-4, lambda: cyclotomic_root(-4)),
}


@pytest.mark.parametrize("call", list(_LOW_CONDUCTOR_CALLS))
def test_cyclo_conductor_below_one_is_refused(call):
    # These once compared equal across different values, raised IndexError
    # or divided by zero.
    conductor, make = _LOW_CONDUCTOR_CALLS[call]
    with pytest.raises(ValueError, match=f"conductor {conductor} "):
        make()


@pytest.mark.parametrize("n", CONDUCTORS)
def test_specialize_matches_ring_products(n):
    # specialize(p, n, k) = sum of c * zeta^(k e), each power of zeta (and
    # of zeta^-1 = zeta^(n-1) for e < 0) built by ring products.
    rng = random.Random(f"specialize:{n}")
    zeta = CycloNumber(n, [0, 1])
    zeta_inv = zeta ** (n - 1)
    assert (zeta * zeta_inv).is_one()
    for _ in range(10):
        p = LaurentPoly({rng.randint(-3 * n, 3 * n): rng.randint(-9, 9)
                         for _ in range(rng.randint(0, 6))})
        for k in (0, 1, rng.randrange(n), -rng.randint(1, 2 * n)):
            want = CycloNumber.const(n, 0)
            for e, c in p.items():
                unit = zeta if k * e >= 0 else zeta_inv
                want = want + unit ** abs(k * e) * c
            assert specialize(p, n, k) == want
