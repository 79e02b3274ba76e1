"""Plactic and coplactic classes versus the insertion-tableau fibers."""

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


def _p_fibers(n):
    fibers = {}
    for w in weylb.enumerate_wn(n):
        fibers.setdefault(domino.domino_insert(w)[0], set()).add(w)
    return fibers


def test_classes_are_p_fibers_small():
    for n in (2, 3, 4, 5):
        fibers = {frozenset(c) for c in _p_fibers(n).values()}
        classes = {frozenset(c) for c in knuth.knuth_classes(n)}
        assert classes == fibers


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
