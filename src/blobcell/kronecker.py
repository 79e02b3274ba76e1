"""
Kronecker-packed Laurent polynomials: one Python int per polynomial.

A Laurent polynomial p = Σ c_e v^e is packed at digit width B and offset
off as the int p(2^B)·2^{B·off}: c_e is the balanced digit
(-2^{B-1} <= c_e < 2^{B-1}) at position e + off in base 2^B.  Packing is a
ring homomorphism, so sums, integer multiples and products of packed
polynomials are the sums and products of their ints, and multiplying by
v^k is a shift by B·k (exact downwards while no exponent falls below -off).
These are exact for any coefficients; only reading digits back can go
wrong, so `digits` raises InvariantViolation on a digit of magnitude
>= 2^{B-2} (the digit bound) instead of letting it wrap into its
neighbour.  A caller chooses B with `width` from a bound on the
coefficients it will read.  `Packed` carries a vector of packed
polynomials together with its width, offset and coefficient bound, so that
one routine can hand it to the next without decoding it; a `Frozen` dict
keeps it beside the decoded vector.

>>> p = LaurentPoly({-1: 2, 3: -1})
>>> x = pack(p, 8, 1)
>>> unpack(x * x, 8, 2) == p * p
True
>>> unpack(x << 8, 8, 1) == p.shift(1)
True
"""

from __future__ import annotations

from collections.abc import Mapping

from .laurent import LaurentPoly
from .weylb import InvariantViolation

__all__ = ["pack", "unpack", "repack", "digits", "width", "norm", "low",
           "bar_symmetric_low", "add_scaled", "decode", "Packed",
           "Frozen", "largest_norm", "Decoded"]


def pack(p: LaurentPoly, bits: int, off: int, sign: int = 1) -> int:
    """p (bar(p) for sign -1) as the int p(2^bits)·2^{bits·off}."""
    x = 0
    for e, c in p.items():  # a loop: most polynomials here have 1-3 terms
        x += c << bits * (sign * e + off)
    return x


def digits(x: int, bits: int, count: int | None = None) -> list[int]:
    """
    The balanced base-2^bits digits of x, lowest first: all of them, or the
    lowest `count`.  A digit at or beyond the bound 2^{bits-2} raises.
    """
    mask, half, bound = (1 << bits) - 1, 1 << bits - 1, 1 << bits - 2
    out = []
    while (len(out) < count) if count is not None else x:
        d = x & mask
        x >>= bits
        if d >= half:
            d -= mask + 1
            x += 1
        if not -bound < d < bound:
            raise InvariantViolation(
                f"packed digit {d} reaches the bound 2^{bits - 2}")
        out.append(d)
    return out


def unpack(x: int, bits: int, off: int) -> LaurentPoly:
    """The Laurent polynomial packed as x at width `bits` and offset `off`."""
    return LaurentPoly({e - off: d
                        for e, d in enumerate(digits(x, bits)) if d})


def repack(x: int, bits: int, new_bits: int) -> int:
    """The polynomial packed as x at width `bits`, packed at `new_bits`."""
    if bits == new_bits:
        return x
    return sum(d << new_bits * e for e, d in enumerate(digits(x, bits)) if d)


def width(bound: int, step: int = 1) -> int:
    """
    The least multiple of `step` that is a digit width whose digit bound
    exceeds `bound` (a bound on the magnitude of every coefficient read).
    """
    return -(-(bound.bit_length() + 2) // step) * step


def norm(p: LaurentPoly) -> int:
    """Σ |c_e| over the coefficients of p."""
    n = 0
    for _, c in p.items():
        n += abs(c)
    return n


def low(polys) -> int:
    """The least offset that packs every one of `polys` (0 or more)."""
    return -min([0] + [p.min_exp() for p in polys if p])


def bar_symmetric_low(h: int, bits: int, off: int) -> int:
    """
    The packed bar-symmetric polynomial congruent to h (offset off) modulo
    v·ℤ[v]: the digits of exponent <= 0, with the negative ones mirrored.
    """
    kept = digits(h, bits, off + 1)
    return (sum(d << bits * i for i, d in enumerate(kept))
            + sum(d << bits * (2 * off - i) for i, d in enumerate(kept[:off])))


def add_scaled(x: dict, y: dict, c: int) -> None:
    """x += c * y for sparse vectors of packed polynomials, in place."""
    get = x.get
    for w, a in y.items():
        x[w] = get(w, 0) + a * c


def decode(x: dict, keys, bits: int, off: int,
           memo: dict | None = None) -> dict:
    """
    The sparse vector x (index -> packed polynomial) as keys[index] ->
    LaurentPoly, zeros dropped; `memo` maps each packed int already decoded
    to its polynomial.
    """
    memo = {} if memo is None else memo
    out = {}
    for i, c in x.items():
        if c:
            p = memo.get(c)
            out[keys[i]] = p if p is not None else memo.setdefault(
                c, unpack(c, bits, off))
    return out


class Packed:
    """
    A sparse vector elements[i] -> LaurentPoly held as `terms`, index ->
    packed int at width `bits` and offset `off`; `big` bounds Σ|c| of every
    coefficient.  Routines that take a Packed vector read `terms`;
    `decode()` gives the vector as a dict.
    """

    __slots__ = ("terms", "elements", "bits", "off", "big")

    def __init__(self, terms: dict, elements: list, bits: int, off: int,
                 big: int):
        self.terms, self.elements = terms, elements
        self.bits, self.off, self.big = bits, off, big

    def decode(self, memo: dict | None = None) -> dict:
        """The vector as elements[i] -> LaurentPoly, zeros dropped."""
        return decode(self.terms, self.elements, self.bits, self.off, memo)


class Frozen(dict):
    """A read-only dict, pickled and copied as a plain dict.  Its `packed`,
    when it is set, is the Packed vector that the dict was decoded from."""

    __slots__ = ("packed",)

    def __reduce__(self):
        return dict, (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Frozen dict is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    update = pop = popitem = setdefault = clear = _read_only


def largest_norm(rows: list, bits: int) -> int:
    """The largest Σ|c| of a coefficient of the packed vectors `rows`."""
    values = {c for row in rows for c in row.values()}
    return max([0] + [sum(map(abs, digits(c, bits))) for c in values])


class Decoded(Mapping):
    """
    The read-only map keys[i] -> the vector rows[i] as a Frozen dict, made
    the first time it is read; its `packed` form carries the largest Σ|c|.
    """

    def __init__(self, rows: list, keys: list, index: dict, bits: int,
                 off: int):
        self._rows, self._keys, self._index = rows, keys, index
        self._bits, self._off = bits, off
        self._done: dict = {}
        self._memo: dict = {}  # packed int -> LaurentPoly
        self._norms: dict = {}  # packed int -> Σ|c|

    def __getitem__(self, key) -> Frozen:
        out = self._done.get(key)
        if out is None:
            memo, norms = self._memo, self._norms
            terms = self._rows[self._index[key]]
            out = self._done[key] = Frozen(
                decode(terms, self._keys, self._bits, self._off, memo))
            for c in terms.values():
                if c and c not in norms:
                    norms[c] = norm(memo[c])
            big = max([0] + [norms[c] for c in terms.values() if c])
            out.packed = Packed(terms, self._keys, self._bits, self._off, big)
        return out

    def packed_row(self, key) -> tuple:
        """
        (terms, keys, bits, off) of the vector at `key`: terms maps index ->
        packed int (0 for none), keys[index] is the key of a term, and bits
        and off are the digit width and offset.  Nothing is decoded or
        cached, and `terms` is the stored dict itself: do not change it.
        """
        return self._rows[self._index[key]], self._keys, self._bits, self._off

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)
