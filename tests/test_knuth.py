"""Plactic and coplactic classes versus the insertion-tableau fibers."""

from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, strategies as st

from blobcell import domino, knuth, weylb


def windows(n_max=5):
    return st.integers(2, n_max).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).flatmap(
            lambda p: st.lists(st.sampled_from([1, -1]),
                               min_size=n, max_size=n).map(
                lambda signs: tuple(s * x for s, x in zip(signs, p)))))


@given(windows())
def test_moves_preserve_p(w):
    pw = domino.domino_insert(w)[0]
    for v in knuth.extended_moves(w):
        assert domino.domino_insert(v)[0] == pw


@given(windows())
def test_moves_symmetric(w):
    for v in knuth.extended_moves(w):
        assert w in knuth.extended_moves(v)


@lru_cache(maxsize=None)
def _p_fibers(n):
    """The windows of W_n grouped by P(w), each inserted on its own."""
    fibers = {}
    for w in weylb.enumerate_wn(n):
        fibers.setdefault(domino.domino_insert(w)[0], set()).add(w)
    return fibers


def _reference_classes(n):
    """The plactic classes of W_n by an orbit search over `extended_moves`,
    which compares tableaux, in the order of their smallest elements."""
    classes, seen = [], set()
    for w in sorted(weylb.enumerate_wn(n)):
        if w in seen:
            continue
        cls, frontier = {w}, [w]
        while frontier:
            for v in knuth.extended_moves(frontier.pop()):
                if v not in cls:
                    cls.add(v)
                    frontier.append(v)
        classes.append(cls)
        seen |= cls
    return classes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_p_numbers_are_the_p_fibers(n):
    number = domino.p_numbers(n)
    assert list(number) == sorted(weylb.enumerate_wn(n))
    assert len(number) == 2 ** n * factorial(n)
    by_number = {}
    for w, k in number.items():
        by_number.setdefault(k, set()).add(w)
    # numbered 0, 1, ... in the order the P first appear
    assert list(by_number) == list(range(len(by_number)))
    assert ({frozenset(c) for c in by_number.values()}
            == {frozenset(c) for c in _p_fibers(n).values()})


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_classes_match_the_reference_orbit_search(n):
    assert knuth.knuth_classes(n) == _reference_classes(n)


def test_classes_make_no_p_tableau_call(monkeypatch):
    def refuse(w):
        raise AssertionError(f"_p_tableau({w}) called")

    monkeypatch.setattr(knuth, "_p_tableau", refuse)
    assert len(knuth.knuth_classes(4)) == 76


def test_classes_are_p_fibers_small():
    for n in (2, 3, 4, 5, 6):
        fibers = {frozenset(c) for c in _p_fibers(n).values()}
        classes = {frozenset(c) for c in knuth.knuth_classes(n)}
        assert classes == fibers
    assert len(classes) == 1384


def test_coplactic_classes_are_q_fibers_small():
    for n in (2, 3):
        fibers = {}
        for w in weylb.enumerate_wn(n):
            fibers.setdefault(domino.domino_insert(w)[1], set()).add(w)
        for w in weylb.enumerate_wn(n):
            q = domino.domino_insert(w)[1]
            assert knuth.coplactic_class(w) == fibers[q]


def test_classes_partition_in_order_of_minima():
    # Each class starts at the smallest window not in an earlier class.
    for n in (2, 3, 4):
        left = sorted(weylb.enumerate_wn(n))
        for cls in knuth.knuth_classes(n):
            assert min(cls) == left[0]
            assert cls <= set(left)
            left = [w for w in left if w not in cls]
        assert not left


def test_wb_union_of_classes_small():
    for n in (2, 3, 4):
        wb = set(weylb.enumerate_wb(n))
        for cls in knuth.knuth_classes(n):
            inside = {w in wb for w in cls}
            assert len(inside) == 1  # entirely inside or entirely outside


def test_elementary_moves_examples():
    # K3: flip the first letter when |i1| > |i2|.
    assert (-2, 1, 3) in knuth.knuth_moves((2, 1, 3))
    assert (2, 1, 3) in knuth.knuth_moves((-2, 1, 3))
    assert (-1, 2, 3) not in knuth.knuth_moves((1, 2, 3))
    # K1 on 1 3 2 (z < x < y with x=1? no) -- use 2 3 1: z=1 < x=2 < y=3.
    assert (2, 1, 3) in knuth.knuth_moves((2, 3, 1))
