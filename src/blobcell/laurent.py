"""
Exact scalar arithmetic.

Two kinds of scalars are used throughout the library:

* ``LaurentPoly`` -- integer Laurent polynomials in one variable ``v``.
  The Hecke-algebra parameters are monomials in ``v``, defined once by
  ``hecke.type_b_weight``; the blob algebra uses a second instance of the
  same ring in the variable ``q`` (unit exponent 1).
* ``CycloNumber`` -- elements of the ring Z[zeta_N] of cyclotomic
  integers, represented as polynomials in zeta of degree < phi(N) with
  integer coefficients.  Equal values have equal representations, so
  equality (with zero too) is exactly decidable.  Laurent polynomials
  reach it through ``specialize``, v -> zeta_N^k, with no division.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

__all__ = [
    "LaurentPoly", "CycloNumber", "add_term",
    "gauss", "quantum_integer", "quantum_factorial",
    "specialize", "cyclotomic_root",
    "NegativeN", "InexactDivision", "ConductorOverflow",
]


class NegativeN(ValueError):
    """Raised when a Gaussian integer [n] is requested for n < 0."""


class InexactDivision(ArithmeticError):
    """Raised when an exact Laurent-polynomial division leaves a remainder."""


class ConductorOverflow(ValueError):
    """Raised when a cyclotomic conductor exceeds the configured bound."""


MAX_CONDUCTOR = 120


class LaurentPoly:
    """
    An integer Laurent polynomial, stored as a sparse map exponent -> coeff.

    Instances are immutable and hashable; all arithmetic is exact.

    >>> v = LaurentPoly.monomial(1)
    >>> print(v + v**-1)
    v + v^-1
    >>> (v * v**-1).is_one()
    True
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {e: int(x) for e, x in (coeffs or {}).items() if x != 0}
        self._c = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def monomial(exponent: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({exponent: coeff})

    # -- queries -----------------------------------------------------------

    def items(self):
        return self._c.items()

    def coeff(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def min_exp(self) -> int:
        return min(self._c)

    def max_exp(self) -> int:
        return max(self._c)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, x in other._c.items():
            y = c.get(e, 0) + x
            if y:
                c[e] = y
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -x for e, x in self._c.items()}
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """v^k times this polynomial: every exponent moves by k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e + k: x for e, x in self._c.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {e: x * other for e, x in self._c.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        for e1, x1 in a.items():
            for e2, x2 in b.items():
                e = e1 + e2
                y = c.get(e, 0) + x1 * x2
                if y:
                    c[e] = y
                elif e in c:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if len(self._c) == 1:
            ((e, x),) = self._c.items()
            if x == 1 or x == -1:  # a unit; (-1) ** -1 would be a float
                return LaurentPoly.monomial(e * k, x ** (k % 2))
            if k < 0:
                raise InexactDivision("negative power of a non-unit")
            return LaurentPoly.monomial(e * k, x**k)
        if k < 0:
            raise InexactDivision("negative power of a non-monomial")
        return _power(_ONE, self, k)

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return self/other, raising InexactDivision if not exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return _ZERO
        # Shift both to ordinary polynomials and long-divide.
        sa, sb = self.min_exp(), other.min_exp()
        da, db = self.max_exp() - sa, other.max_exp() - sb
        if da < db:
            raise InexactDivision("degree too small")
        a = [self.coeff(sa + i) for i in range(da + 1)]
        b = [other.coeff(sb + i) for i in range(db + 1)]
        lead = b[-1]
        qc: dict[int, int] = {}
        for i in range(da - db, -1, -1):
            top = a[i + db]
            if top == 0:
                continue
            if top % lead:
                raise InexactDivision("leading coefficient does not divide")
            f = top // lead
            qc[i] = f
            for j, bj in enumerate(b):
                a[i + j] -= f * bj
        if any(a):
            raise InexactDivision("nonzero remainder")
        return LaurentPoly({(sa - sb) + e: x for e, x in qc.items()})

    # -- structure maps ----------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The bar involution v -> v^-1 (exponent negation)."""
        return LaurentPoly({-e: x for e, x in self._c.items()})

    def nonpositive_part(self) -> "LaurentPoly":
        """Sum of terms with exponent <= 0."""
        return LaurentPoly({e: x for e, x in self._c.items() if e <= 0})

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"

    def __str__(self) -> str:
        return self.pretty("v")

    def pretty(self, var: str = "v") -> str:
        if not self._c:
            return "0"
        out = []
        for e in sorted(self._c, reverse=True):
            x = self._c[e]
            if e == 0:
                mon = str(abs(x))
            else:
                pw = var if e == 1 else f"{var}^{e}"
                mon = pw if abs(x) == 1 else f"{abs(x)}*{pw}"
            if not out:
                out.append(mon if x > 0 else f"-{mon}")
            else:
                out.append(f"+ {mon}" if x > 0 else f"- {mon}")
        return " ".join(out)


_ZERO = LaurentPoly({})
_ONE = LaurentPoly({0: 1})
_V = LaurentPoly({1: 1})


def _power(one, base, k: int):
    """base**k for k >= 0 by square-and-multiply, from the unit `one`."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def add_term(x: dict, key, c) -> None:
    """x[key] += c in a sparse vector x, whose values are never zero."""
    s = x.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        x.pop(key, None)
    else:
        x[key] = s


def gauss(n: int, x: LaurentPoly) -> LaurentPoly:
    """
    The balanced Gaussian integer [n]_x = x^(n-1) + x^(n-3) + ... + x^(1-n)
    for a monomial x with coefficient 1.

    >>> print(gauss(2, LaurentPoly.monomial(-1)))
    v + v^-1
    """
    if n < 0:
        raise NegativeN(f"gauss requires n >= 0, got {n}")
    if len(x._c) != 1 or next(iter(x._c.values())) != 1:
        raise ValueError("gauss base must be a coefficient-1 monomial")
    k = abs(x.min_exp())  # [n]_x = [n]_{x^-1}; exponents stored top down
    return LaurentPoly({k * e: 1 for e in range(n - 1, -n, -2)}) if n else _ZERO


def quantum_integer(n: int) -> LaurentPoly:
    """[n] = [n]_v for any integer n, with [-n] = -[n]."""
    if n >= 0:
        return gauss(n, _V)
    return -gauss(-n, _V)


@lru_cache(maxsize=None)
def quantum_factorial(a: int) -> LaurentPoly:
    """
    The quantum factorial [a]! = [1][2]...[a] in the variable v,
    used for divided powers.

    >>> print(quantum_factorial(2))
    v + v^-1
    """
    if a < 0:
        raise NegativeN(f"quantum_factorial requires a >= 0, got {a}")
    if a == 0:
        return _ONE
    return quantum_factorial(a - 1) * gauss(a, _V)


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """
    Integer coefficients (ascending) of the n-th cyclotomic polynomial:
    x^n - 1 divided exactly by the d-th one for every proper divisor d of n.
    """
    p = LaurentPoly({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            p = p.divide_exact(LaurentPoly(dict(enumerate(_cyclotomic_coeffs(d)))))
    return tuple(p.coeff(e) for e in range(p.max_exp() + 1))


@lru_cache(maxsize=None)
def _reducer(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero terms (j, c_j), j < phi(n), of the monic Phi_n."""
    mod = _cyclotomic_coeffs(n)
    deg = len(mod) - 1
    return deg, tuple((j, c) for j, c in enumerate(mod[:deg]) if c)


def _reduce(a: list[int], n: int) -> list[int]:
    """
    Reduce the integer polynomial a (ascending, changed in place) modulo the
    monic Phi_n, top degree first; the result has exactly phi(n) entries.
    """
    deg, low = _reducer(n)
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i]
        if c:
            base = i - deg
            for j, m in low:
                a[base + j] -= c * m
    del a[deg:]
    if len(a) < deg:
        a.extend([0] * (deg - len(a)))
    return a


def _check_conductor(n: int) -> None:
    if n > MAX_CONDUCTOR:
        raise ConductorOverflow(f"conductor {n} exceeds bound {MAX_CONDUCTOR}")


class CycloNumber:
    """
    An element of the ring Z[zeta_N], stored as phi(N) integer
    coefficients: a_0 + a_1 zeta + ... + a_{phi(N)-1} zeta^{phi(N)-1}.
    Powers of zeta form a basis of Z[zeta_N] over Z, so equal values have
    equal representations.  A product is an integer convolution reduced
    modulo the monic integer polynomial Phi_N.  There is no division: a
    power of zeta is inverted as zeta^(N-k) (`cyclotomic_root`).

    >>> z = cyclotomic_root(4)   # zeta_4 = i
    >>> (z * z).is_minus_one()
    True
    >>> (1 + z) * (1 - z)
    CycloNumber(4; 2*z^0)
    """

    __slots__ = ("n", "_c")

    def __init__(self, n: int, coeffs):
        _check_conductor(n)
        self.n = n
        self._c = tuple(_reduce([index(x) for x in coeffs], n))

    @staticmethod
    def const(n: int, value: int) -> "CycloNumber":
        return CycloNumber(n, [value])

    def _new(self, coeffs) -> "CycloNumber":
        """A number of this conductor from phi(N) reduced coefficients."""
        out = CycloNumber.__new__(CycloNumber)
        out.n = self.n
        out._c = tuple(coeffs)
        return out

    def _check(self, other: "CycloNumber"):
        if self.n != other.n:
            raise ValueError(f"conductor mismatch: {self.n} vs {other.n}")

    def _sum(self, other, sign: int):
        """self + sign * other, for a CycloNumber or int other."""
        if isinstance(other, CycloNumber):
            self._check(other)
        elif isinstance(other, int):
            other = CycloNumber.const(self.n, other)
        else:
            return NotImplemented
        return self._new([a + sign * b for a, b in zip(self._c, other._c)])

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-a for a in self._c])

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __mul__(self, other):
        if isinstance(other, CycloNumber):
            self._check(other)
            b = other._c
            prod = [0] * (2 * len(b) - 1)
            for i, a in enumerate(self._c):
                if a:
                    for j, y in enumerate(b, i):
                        prod[j] += a * y
            return self._new(_reduce(prod, self.n))
        if isinstance(other, int):
            return self._new([a * other for a in self._c])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power: Z[zeta_N] has no division here")
        return _power(CycloNumber.const(self.n, 1), self, k)

    def is_zero(self) -> bool:
        return not any(self._c)

    def _is_integer(self, k: int) -> bool:
        c = self._c
        return c[0] == k and not any(c[1:])

    def is_one(self) -> bool:
        return self._is_integer(1)

    def is_minus_one(self) -> bool:
        return self._is_integer(-1)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._is_integer(other)
        return (isinstance(other, CycloNumber) and self.n == other.n
                and self._c == other._c)

    def __hash__(self):
        # An integer constant equals its int, so it hashes as one.
        if not any(self._c[1:]):
            return hash(self._c[0])
        return hash((self.n, self._c))

    def __repr__(self):
        terms = [f"{a}*z^{i}" for i, a in enumerate(self._c) if a]
        return f"CycloNumber({self.n}; {' + '.join(terms) or '0'})"


def cyclotomic_root(n: int, power: int = 1) -> CycloNumber:
    """The root of unity zeta_n**power in Z[zeta_n], for any integer power."""
    return specialize(LaurentPoly.monomial(1), n, power)


def specialize(p: LaurentPoly, n: int, k: int) -> CycloNumber:
    """
    Evaluate a Laurent polynomial at v = zeta_n^k, exactly: each c_e goes
    into slot k*e mod n, so a negative exponent needs no division, and the
    sum is reduced once modulo Phi_n.
    """
    _check_conductor(n)
    slots = [0] * n
    for e, x in p.items():
        slots[k * e % n] += x
    return CycloNumber(n, slots)
