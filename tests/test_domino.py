"""Domino insertion, its inverse, and the two-row shape criterion."""

import itertools

import pytest
from hypothesis import given, strategies as st

from blobcell import domino, weylb
from blobcell.domino import DominoTableau, domino_insert, domino_reverse


def windows(n_max=6):
    return st.integers(1, n_max).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).flatmap(
            lambda p: st.lists(st.sampled_from([1, -1]),
                               min_size=n, max_size=n).map(
                lambda signs: tuple(s * x for s, x in zip(signs, p)))))


def test_single_letters():
    p, q = domino_insert((1,))
    assert p.shape() == (2,) and q.shape() == (2,)
    p, q = domino_insert((-1,))
    assert p.shape() == (1, 1) and q.shape() == (1, 1)


def test_worked_example():
    p, q = domino_insert((2, 3, -1))
    assert p.shape() == q.shape() == (4, 2)
    assert domino_reverse(p, q) == (2, 3, -1)


@given(windows(8))
def test_reverse_roundtrip(w):
    p, q = domino_insert(w)
    assert p.shape() == q.shape()
    p.check_standard()
    q.check_standard()
    assert domino_reverse(p, q) == w


@given(windows(5))
def test_q_is_p_of_inverse(w):
    _, q = domino_insert(w)
    p_inv, _ = domino_insert(weylb.inverse(w))
    assert q == p_inv


def test_bijection_small():
    for n in (1, 2, 3, 4):
        seen = {}
        for w in weylb.enumerate_wn(n):
            p, q = domino_insert(w)
            key = (tuple(p.dominoes), tuple(q.dominoes))
            assert key not in seen
            seen[key] = w
        assert len(seen) == 2 ** n * len(list(itertools.permutations(
            range(n))))


def _standard_domino_tableaux(n):
    """Every standard domino tableau with labels 1..n, as a label -> cells
    dict, grown label by label onto a partition (written for the tests)."""
    def grow(rows, tab, k):
        if k > n:
            yield dict(tab)
            return
        for r in range(len(rows) + 1):
            length = rows[r] if r < len(rows) else 0
            above = rows[r - 1] if r > 0 else float("inf")
            # horizontal: two cells at the end of row r
            if length + 2 <= above:
                new = list(rows[:r]) + [length + 2] + list(rows[r + 1:])
                tab[k] = ((r, length), (r, length + 1))
                yield from grow(tuple(new), tab, k + 1)
            # vertical: one cell at the end of rows r and r + 1
            below = rows[r + 1] if r + 1 < len(rows) else 0
            if length + 1 <= above and below == length:
                new = list(rows) + [0] * (r + 2 - len(rows))
                new[r] += 1
                new[r + 1] += 1
                tab[k] = ((r, length), (r + 1, length))
                yield from grow(tuple(new), tab, k + 1)
            tab.pop(k, None)

    return [DominoTableau.from_dict(t) for t in grow((), {}, 1)]


def test_insert_inverts_reverse_on_every_pair():
    # Every pair (P, Q) of same-shape standard domino tableaux, enumerated
    # without the insertion, is reached exactly once.
    for n in (1, 2, 3, 4):
        by_shape = {}
        for t in _standard_domino_tableaux(n):
            by_shape.setdefault(t.shape(), []).append(t)
        windows_seen = set()
        for tabs in by_shape.values():
            for p in tabs:
                for q in tabs:
                    w = domino_reverse(p, q)
                    assert domino_insert(w) == (p, q)
                    windows_seen.add(w)
        assert windows_seen == set(weylb.enumerate_wn(n))


def test_reverse_rejects_unequal_shapes():
    p, q = domino_insert((2, 3, -1))
    other, _ = domino_insert((-1, 2, 3))
    assert p.shape() != other.shape()
    with pytest.raises(domino.ShapeMismatch):
        domino_reverse(p, other)
    with pytest.raises(domino.ShapeMismatch):
        domino_reverse(DominoTableau(()), q)
    with pytest.raises(domino.ShapeMismatch):
        domino_reverse(p, DominoTableau(()))
    assert domino_reverse(DominoTableau(()), DominoTableau(())) == ()


def test_two_rows_iff_wb():
    for n in (1, 2, 3, 4):
        for w in weylb.enumerate_wn(n):
            assert (len(domino.domino_shape(w)) <= 2) \
                == weylb.is_in_wb_by_words(w)


def test_shape_matches_insertion():
    for n in range(1, 7):
        for w in weylb.enumerate_wn(n):
            assert domino.domino_shape(w) == domino_insert(w)[0].shape()


def test_json_roundtrip():
    p, _ = domino_insert((3, -1, 2, -4))
    assert DominoTableau.from_json(p.to_json()) == p


