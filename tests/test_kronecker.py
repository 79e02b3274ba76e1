"""Kronecker-packed Laurent polynomials against LaurentPoly arithmetic."""

import copy
import json
import pickle
import random
from collections.abc import Mapping

import pytest
from hypothesis import given, strategies as st

from blobcell.kronecker import (
    Decoded, Frozen, Packed, bar_symmetric_low, decode, digits, largest_norm,
    low, norm, pack, repack, unpack, width,
)
from blobcell.laurent import LaurentPoly
from blobcell.weylb import InvariantViolation

WIDTHS = (6, 8, 13, 24, 32)


def _random_poly(rng, size=20):
    return LaurentPoly({rng.randint(-6, 6): rng.randint(-size, size)
                        for _ in range(rng.randint(0, 5))})


def _pairs(bits, count=60):
    rng = random.Random(f"kronecker:{bits}")
    size = min(20, (1 << bits - 2) // 64)  # sums and products stay in range
    for _ in range(count):
        yield _random_poly(rng, size), _random_poly(rng, size)


@pytest.mark.parametrize("bits", WIDTHS)
def test_pack_round_trip_sum_and_shifts(bits):
    for p, q in _pairs(bits):
        off = low([p, q]) + 2
        x, y = pack(p, bits, off), pack(q, bits, off)
        assert unpack(x, bits, off) == p
        assert unpack(x + y, bits, off) == p + q
        assert unpack(x - y, bits, off) == p - q
        assert unpack(3 * x, bits, off) == p * 3
        assert unpack(x << bits * 3, bits, off) == p.shift(3)
        assert unpack(x >> bits * 2, bits, off) == p.shift(-2)  # exact: off
        assert (x == 0) == p.is_zero()


@pytest.mark.parametrize("bits", WIDTHS)
def test_product_with_a_short_polynomial(bits):
    rng = random.Random(f"kronecker-short:{bits}")
    for p, _ in _pairs(bits):
        m = LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 2))
                         for _ in range(rng.randint(1, 3))})
        op, om = low([p]), low([m])
        assert unpack(pack(p, bits, op) * pack(m, bits, om), bits, op + om) \
            == p * m


def _bar_symmetrize_nonpositive(p):
    """
    The unique bar-symmetric polynomial congruent to p modulo terms with
    strictly positive exponents: keep exponents <= 0 and mirror the
    strictly negative ones (the reference for `bar_symmetric_low`).
    """
    negative = LaurentPoly({e: c for e, c in p.items() if e < 0})
    return p.nonpositive_part() + negative.bar()


@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                       max_size=6).map(LaurentPoly))
def test_bar_symmetrize_nonpositive(p):
    """r is the unique bar-invariant poly with r ≡ p below degree 1."""
    r = _bar_symmetrize_nonpositive(p)
    assert r.bar() == r
    assert (p - r).nonpositive_part().is_zero()


@pytest.mark.parametrize("bits", WIDTHS)
def test_bar_and_bar_symmetric_low(bits):
    for p, _ in _pairs(bits):
        off = max([0] + [e for e, _ in p.items()])
        assert unpack(pack(p, bits, off, -1), bits, off) == p.bar()
        off = low([p])
        assert unpack(bar_symmetric_low(pack(p, bits, off), bits, off),
                      bits, off) == _bar_symmetrize_nonpositive(p)


@pytest.mark.parametrize("bits", WIDTHS)
def test_digit_at_the_bound_raises_on_decode(bits):
    bound = 1 << bits - 2
    for c in (bound - 1, -(bound - 1)):
        p = LaurentPoly({-1: c, 2: 1})
        assert unpack(pack(p, bits, 1), bits, 1) == p
    for c in (bound, -bound, 2 * bound, 3 * bound - 1):
        # 2 * bound is a carry into the next digit: it must not wrap
        with pytest.raises(InvariantViolation):
            unpack(pack(LaurentPoly({-1: c, 2: 1}), bits, 1), bits, 1)
        with pytest.raises(InvariantViolation):
            digits(pack(LaurentPoly({0: c}), bits, 0), bits, 1)


def test_width_bounds_every_digit():
    for bound in (0, 1, 2, 3, 63, 64, 3 ** 16, 7 ** 25):
        for step in (1, 8, 16):
            b = width(bound, step)
            assert b % step == 0 and (1 << b - 2) > bound
            assert step > 1 or b == 2 or (1 << b - 3) <= bound  # least
    assert norm(LaurentPoly({-2: -3, 5: 4})) == 7
    assert low([LaurentPoly({3: 1}), LaurentPoly({-4: 2}), LaurentPoly()]) == 4


def test_decode_and_decoded_mapping():
    rng = random.Random("kronecker-decode")
    keys = ["a", "b", "c"]
    polys = [[_random_poly(rng) for _ in keys] for _ in keys]
    rows = [{i: pack(p, 24, 6) for i, p in enumerate(row)} for row in polys]
    memo: dict = {}
    for row, packed in zip(polys, rows):
        want = {k: p for k, p in zip(keys, row) if p}
        assert decode(packed, keys, 24, 6) == want
        assert decode(packed, keys, 24, 6, memo) == want
        assert Packed(packed, keys, 24, 6, 0).decode(memo) == want
    assert all(memo[x] == unpack(x, 24, 6) for x in memo)
    table = Decoded(rows, keys, {k: i for i, k in enumerate(keys)}, 24, 6)
    assert len(table) == 3 and list(table) == keys
    assert table["b"] is table["b"] and type(table["b"]) is Frozen
    assert table["b"] == decode(rows[1], keys, 24, 6)
    assert dict(table.items()) == {k: decode(r, keys, 24, 6)
                                   for k, r in zip(keys, rows)}
    assert "d" not in table
    for key, row, coeffs in zip(keys, rows, polys):
        packed = table[key].packed  # the row itself, with its largest Σ|c|
        assert packed.terms is row and (packed.bits, packed.off) == (24, 6)
        assert packed.big == max([0] + [norm(p) for p in coeffs])


def test_packed_is_read_only():
    packed = Packed({0: pack(LaurentPoly({1: 2}), 16, 0)}, ["a", "b"], 16, 0,
                    2)
    assert not isinstance(packed, (dict, Mapping))
    x = Frozen(packed.decode())
    x.packed = packed
    for change in (lambda: x.__setitem__("b", LaurentPoly.one()),
                   lambda: x.update({}), lambda: x.pop("a"),
                   lambda: x.setdefault("b"), x.clear, x.popitem,
                   lambda: x.__delitem__("a"), lambda: x.__ior__({})):
        with pytest.raises(TypeError):
            change()
    assert x == {"a": LaurentPoly({1: 2})} and x.packed is packed
    for copied in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                   copy.deepcopy(x), x.copy(), x | {}):
        assert type(copied) is dict and copied == x
    assert json.dumps(Frozen({"a": 1})) == '{"a": 1}'
    assert json.dumps(Frozen({})) == "{}"
    assert getattr(Frozen({}), "packed", None) is None


@pytest.mark.parametrize("bits", WIDTHS)
def test_repack_and_largest_norm(bits):
    rng = random.Random(f"kronecker-repack:{bits}")
    size = min(20, (1 << bits - 2) - 1)
    rows = [{i: pack(_random_poly(rng, size), bits, 6) for i in range(5)}
            for _ in range(4)]
    for row in rows:
        for c in row.values():
            assert unpack(repack(c, bits, 40), 40, 6) == unpack(c, bits, 6)
    assert largest_norm(rows, bits) == max(
        norm(unpack(c, bits, 6)) for row in rows for c in row.values())
