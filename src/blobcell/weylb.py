"""
The Weyl group of type B_n as signed permutations.

An element w is stored as its window (i_1, ..., i_n), a tuple of signed
integers meaning w(k) = i_k (and w(-k) = -i_k).  Generators are s_0 (sign
change in the first window slot under right multiplication) and s_1, ...,
s_{n-1} (adjacent transpositions); products of cycles act right-to-left,
calibrated against the worked example 2 3 -1 = s_0 s_1 s_2 in W_3.

The submonoid-of-interest W_b consists of the elements none of whose reduced
expressions contain three consecutive letters s_i s_j s_i with |i-j| = 1,
except that s_0 s_1 s_0 is allowed (s_1 s_0 s_1 is not).  Three equivalent
characterizations are implemented: reduced-word avoidance, a window-word
criterion, and (in module `domino`) the two-row shape condition.  The
avoidance test walks every prefix of every reduced word, and reads off the
window of each whether one of its reduced words ends in a forbidden triple:
by a rank-2 parabolic argument (see `_has_forbidden_word`) that happens
exactly when w_k > w_{k+1} > w_{k+2} for some k >= 1, or w_2 < w_1 < -w_2.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

__all__ = [
    "SignedPermutation", "identity", "apply_generator", "length",
    "right_descents", "reduced_word", "evaluate_word",
    "inverse", "multiply", "bruhat_leq", "iota",
    "is_in_wb_by_avoidance", "is_in_wb_by_words",
    "enumerate_wn", "enumerate_wb", "wb_count_formula",
    "IndexOutOfRange", "SizeMismatch", "BoundExceeded", "InvariantViolation",
    "NotInWb",
]

SignedPermutation = tuple[int, ...]
CoxeterWord = tuple[int, ...]


class IndexOutOfRange(ValueError):
    """Raised for a generator index outside 0..n-1."""


class SizeMismatch(ValueError):
    """Raised when elements of different W_n are combined."""


class BoundExceeded(ValueError):
    """Raised when an enumeration exceeds the configured size bound."""


class InvariantViolation(RuntimeError):
    """Raised when a construction breaks one of its own invariants."""


class NotInWb(ValueError):
    """Raised when an element that must lie in W_b lies outside it."""


DEFAULT_MAX_N = 8


def identity(n: int) -> SignedPermutation:
    return tuple(range(1, n + 1))


def _validate(w: SignedPermutation) -> SignedPermutation:
    w = tuple(w)
    if sorted(abs(x) for x in w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a signed permutation window: {w}")
    return w


def apply_generator(w: SignedPermutation, k: int) -> SignedPermutation:
    """Right multiplication w * s_k."""
    n = len(w)
    if not 0 <= k <= n - 1:
        raise IndexOutOfRange(f"generator index {k} out of range for n={n}")
    if k == 0:
        return (-w[0],) + w[1:]
    lst = list(w)
    lst[k - 1], lst[k] = lst[k], lst[k - 1]
    return tuple(lst)


def evaluate_word(n: int, word) -> SignedPermutation:
    """Evaluate a Coxeter word left-to-right from the identity."""
    w = identity(n)
    for k in word:
        w = apply_generator(w, k)
    return w


def length(w: SignedPermutation) -> int:
    """
    Coxeter length: inversions of the window plus the sum of the absolute
    values of the negative entries.

    >>> length((-1, -2))
    4
    """
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    return inv + sum(-x for x in w if x < 0)


def right_descents(w: SignedPermutation) -> set[int]:
    """{k >= 1 : i_k > i_{k+1}} together with 0 when i_1 < 0."""
    out = {k for k in range(1, len(w)) if w[k - 1] > w[k]}
    if w and w[0] < 0:
        out.add(0)
    return out


def inverse(w: SignedPermutation) -> SignedPermutation:
    out = [0] * len(w)
    for k, x in enumerate(w, start=1):
        if x > 0:
            out[x - 1] = k
        else:
            out[-x - 1] = -k
    return tuple(out)


def multiply(u: SignedPermutation, w: SignedPermutation) -> SignedPermutation:
    """The product u*w, i.e. the map x -> u(w(x))."""
    if len(u) != len(w):
        raise SizeMismatch(f"sizes {len(u)} and {len(w)} differ")

    def act(v, x):
        return v[x - 1] if x > 0 else -v[-x - 1]

    return tuple(act(u, x) for x in w)


def reduced_word(w: SignedPermutation) -> CoxeterWord:
    """
    A reduced expression obtained by repeatedly stripping the smallest right
    descent; evaluating it left-to-right returns w.

    >>> reduced_word((-1, 2, 3))
    (0,)
    """
    out = []
    w = _validate(w)
    while True:
        d = right_descents(w)
        if not d:
            break
        k = min(d)
        out.append(k)
        w = apply_generator(w, k)
    return tuple(reversed(out))


@lru_cache(maxsize=1 << 20)
def _bruhat_leq(u: SignedPermutation, w: SignedPermutation) -> bool:
    if u == w:
        return True
    lu, lw = length(u), length(w)
    if lu >= lw:
        return False
    s = min(right_descents(w))
    ws = apply_generator(w, s)
    us = apply_generator(u, s)
    if length(us) < lu:
        return _bruhat_leq(us, ws)
    return _bruhat_leq(u, ws)


def bruhat_leq(u: SignedPermutation, w: SignedPermutation) -> bool:
    """The Bruhat-Chevalley order, by the standard descent recursion."""
    if len(u) != len(w):
        raise SizeMismatch(f"sizes {len(u)} and {len(w)} differ")
    return _bruhat_leq(tuple(u), tuple(w))


def iota(w: SignedPermutation) -> tuple[int, ...]:
    """
    The embedding of W_n into the symmetric group on the 2n symbols
    -n < ... < -1 < 1 < ... < n, sending k -> i_k and -k -> -i_k.

    Returned in one-line form over the ordered alphabet, i.e. the window of
    the image read at -n, ..., -1, 1, ..., n; this equals the concatenation
    (-i_n, ..., -i_1, i_1, ..., i_n).
    """
    return tuple(-x for x in reversed(w)) + tuple(w)


# ---------------------------------------------------------------------------
# The three characterizations of W_b
# ---------------------------------------------------------------------------


def _ends_in_forbidden_triple(w: SignedPermutation) -> bool:
    """
    Whether some reduced word of w ends in a forbidden triple, read off the
    window (see `_has_forbidden_word`): w_k > w_{k+1} > w_{k+2} for some
    k >= 1 (1-based), or w_2 < w_1 < -w_2.

    >>> _ends_in_forbidden_triple((1, -2)), _ends_in_forbidden_triple((-2, -1))
    (True, False)
    """
    if len(w) < 2:
        return False
    x, y = w[0], w[1]
    if y < x < -y:
        return True
    for z in w[2:]:
        if x > y > z:
            return True
        x, y = y, z
    return False


@lru_cache(maxsize=1 << 20)
def _has_forbidden_word(w: SignedPermutation) -> bool:
    """
    True iff some reduced word of w has a forbidden triple, for a w whose
    window shows none at its end.

    The window test is the rank-2 parabolic argument (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 2.4).  For J = {s_a, s_b} write
    w = u * x with x in the parabolic subgroup W_J and u minimal in u W_J;
    lengths add, and w has a reduced word ending in s_a s_b s_a iff x has.
    u has no right descent in J, so it rises (and for s_0 is positive) on
    the slots that x moves, and those slots of w show the pattern of x:
    - J = {s_k, s_{k+1}}, k >= 1: x ends in s_k s_{k+1} s_k only as the
      longest element of S_3, i.e. w_k > w_{k+1} > w_{k+2};
    - J = {s_0, s_1}: x ends in s_1 s_0 s_1 as s_1 s_0 s_1 = (1, -2) or
      s_0 s_1 s_0 s_1 = (-1, -2), i.e. w_2 < w_1 < -w_2 (s_0 s_1 s_0 alone,
      (-2, -1), is allowed).

    A reduced word of w is one of w*s followed by s, for s a right descent,
    so descending through every right descent still walks every prefix of
    every reduced word of w and asks the window test at each.  Each w*s is
    tested by its window before any is descended from, so only the elements
    descended from are memoized.
    """
    below = [apply_generator(w, s) for s in right_descents(w)]
    return (any(map(_ends_in_forbidden_triple, below))
            or any(map(_has_forbidden_word, below)))


def is_in_wb_by_avoidance(w: SignedPermutation) -> bool:
    """Membership in W_b by exploring all reduced expressions (memoized)."""
    w = tuple(w)
    return not (_ends_in_forbidden_triple(w) or _has_forbidden_word(w))


def is_in_wb_by_words(w: SignedPermutation) -> bool:
    """
    Membership in W_b by the window-word criterion: the absolute values of
    the negative entries must strictly decrease along the window and be
    smaller than every positive entry occurring before the last negative one,
    and the word obtained by replacing the negative entries by their absolute
    values, prepended in reverse order, must avoid decreasing subsequences of
    length 3.

    One pass over the window.  The prepended absolute values rise, so a
    decreasing subsequence of the word uses at most one of them, best the
    largest (the first negative entry); the 321-test therefore reads that
    value followed by the positive entries, keeping the two tails of a greedy
    patience sort.

    >>> is_in_wb_by_words((2, 3, -1))
    True
    >>> is_in_wb_by_words((1, -2))
    False
    """
    first_neg = prev_neg = first_pos = prev_pos = None
    rising = True  # the positive entries read so far increase
    # largest possible last entry of a decreasing subsequence of length 1, 2
    top = low = None
    for x in w:
        if x < 0:
            x = -x
            if prev_neg is None:
                first_neg = x
            elif x > prev_neg:
                return False
            prev_neg = x
            # the positive entries read so far precede a negative one, so
            # they must rise from above first_neg
            if not rising or (first_pos is not None and first_pos < first_neg):
                return False
            # they rise above first_neg, so only the last of them, or
            # first_neg when there is none, ends a decreasing subsequence
            if top is None:
                top = first_neg
            continue
        if prev_pos is None:
            first_pos = x
        elif x < prev_pos:
            rising = False
        prev_pos = x
        if top is None or x > top:
            top = x
        elif low is None or x > low:
            low = x
        else:
            return False
    return True


def enumerate_wn(n: int):
    """
    All of W_n: for each permutation in lexicographic order, every sign
    pattern, the positive entry before the negative one in each slot.
    """
    return itertools.chain.from_iterable(
        itertools.product(*[(x, -x) for x in perm])
        for perm in itertools.permutations(range(1, n + 1)))


def enumerate_wb(n: int, bound: int = DEFAULT_MAX_N) -> list[SignedPermutation]:
    """All elements of W_b(n), sorted lexicographically by window."""
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds enumeration bound {bound}")
    return sorted(w for w in enumerate_wn(n) if is_in_wb_by_words(w))


def wb_count_formula(n: int) -> int:
    """Sum of binom(n, i)^2 = binom(2n, n)."""
    from math import comb

    return sum(comb(n, i) ** 2 for i in range(n + 1))
