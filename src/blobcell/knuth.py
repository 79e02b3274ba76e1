"""
Signed Knuth relations on windows and the plactic/coplactic classes.

Letters of a window are compared in the order -n < ... < -1 < 1 < ... < n.
Three elementary local moves are available:

  K1: x y z <-> x z y on consecutive letters when z < x < y
      (the middle letter of the pattern is largest and the first is between);
  K2: x y z <-> y x z on consecutive letters when x < z < y
      (the first letter is smallest and the last is between);
  K3: flip the sign of the first window entry when |i_1| > |i_2|.

Exhaustive computation shows that for n >= 4 the three local moves alone are
too fine: some insertion-tableau fibers split into several components under
them (the smallest examples occur at shapes (4, 2, 2) and (3, 3, 1, 1) in
W_4, where fibers of size 8 split 6 + 2).  The class computation therefore
also uses two calibrated exchange moves, each admissible precisely when it
leaves the insertion tableau unchanged:

  X1: flip the sign of a single window entry;
  X2: transpose two adjacent window entries.

Every move preserves the insertion tableau P, so each class is contained in
a P-fiber; the exhaustive tests verify the converse (each fiber is a single
class) for n <= 6, and the dual statement for Q (each Q-fiber is a single
coplactic class) for n <= 4.

One move set, `_moves(w, p_of)`, and one orbit search, `_orbit(w, p_of)`,
serve every class computation; they take the P lookup as an argument.
`extended_moves` and `knuth_class` pass `_p_tableau`, which inserts a single
window.  `knuth_classes(n)` passes the P numbers of `domino.p_numbers(n)`:
one depth-first insertion sweep over the window prefixes of W_n, so each
window costs an int lookup in place of an insertion and a tableau
comparison.  The `blobcell knuth class` command rejects a window longer
than BLOBCELL_MAX_N (default 8), with exit 2 before it loads this module.
"""

from __future__ import annotations

from functools import lru_cache

from . import domino, weylb

__all__ = [
    "knuth_moves", "extended_moves", "knuth_class", "knuth_classes",
    "coplactic_class",
]


def _k1_applicable(x: int, y: int, z: int) -> bool:
    return z < x < y


def _k2_applicable(x: int, y: int, z: int) -> bool:
    return x < z < y


@lru_cache(maxsize=1 << 18)
def _p_tableau(w: weylb.SignedPermutation):
    return domino.domino_insert(w)[0]


def knuth_moves(w: weylb.SignedPermutation) -> set[weylb.SignedPermutation]:
    """All windows reachable from w by a single elementary local move."""
    w = tuple(w)
    n = len(w)
    out: set[weylb.SignedPermutation] = set()
    for i in range(n - 2):
        x, y, z = w[i], w[i + 1], w[i + 2]
        # K1 forward: x y z -> x z y; backward: x z y -> x y z.
        if _k1_applicable(x, y, z) or _k1_applicable(x, z, y):
            out.add(w[:i] + (x, z, y) + w[i + 3:])
        # K2 forward: x y z -> y x z; backward likewise symmetric.
        if _k2_applicable(x, y, z) or _k2_applicable(y, x, z):
            out.add(w[:i] + (y, x, z) + w[i + 3:])
    if n >= 2 and abs(w[0]) > abs(w[1]):
        out.add((-w[0],) + w[1:])
    out.discard(w)
    return out


def _moves(w: weylb.SignedPermutation, p_of) -> set[weylb.SignedPermutation]:
    """The local and exchange moves of the window w; `p_of` maps a window to
    its insertion tableau, or to anything equal exactly when the tableaux
    are."""
    n = len(w)
    out = knuth_moves(w)
    pw = p_of(w)
    for k in range(n):
        v = w[:k] + (-w[k],) + w[k + 1:]
        if v not in out and p_of(v) == pw:
            out.add(v)
    for k in range(n - 1):
        v = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
        if v not in out and p_of(v) == pw:
            out.add(v)
    out.discard(w)
    return out


def _orbit(w: weylb.SignedPermutation, p_of) -> set[weylb.SignedPermutation]:
    """The orbit of the window w under `_moves(., p_of)`."""
    seen = {w}
    frontier = [w]
    while frontier:
        for v in _moves(frontier.pop(), p_of):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def extended_moves(w: weylb.SignedPermutation) -> set[weylb.SignedPermutation]:
    """
    Local moves together with the tableau-preserving exchange moves X1/X2.

    The exchange moves are admitted only when they leave the insertion
    tableau unchanged; this is the completion needed for the classes to
    exhaust the insertion fibers from n = 4 onwards.
    """
    return _moves(tuple(w), _p_tableau)


def knuth_class(w: weylb.SignedPermutation) -> set[weylb.SignedPermutation]:
    """The plactic class of w: its orbit under the (completed) moves."""
    return _orbit(tuple(w), _p_tableau)


def knuth_classes(n: int) -> list[set[weylb.SignedPermutation]]:
    """
    All plactic classes of W_n, each discovered once, in the order of their
    smallest elements.  The exchange moves compare the P numbers of
    `domino.p_numbers`, one insertion sweep of W_n, in place of tableaux.
    """
    number = domino.p_numbers(n)
    classes = []
    seen: set[weylb.SignedPermutation] = set()
    for w in number:  # in increasing order
        if w not in seen:
            cls = _orbit(w, number.__getitem__)
            classes.append(cls)
            seen |= cls
    return classes


def coplactic_class(w: weylb.SignedPermutation) -> set[weylb.SignedPermutation]:
    """The coplactic class: inverses of the plactic class of w^{-1}."""
    return {weylb.inverse(u) for u in knuth_class(weylb.inverse(w))}
