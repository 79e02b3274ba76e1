"""Signed permutations, lengths, Bruhat order, and the subset W_b."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from blobcell import blob, domino, weylb


def windows(n_max=5):
    return st.integers(1, n_max).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).flatmap(
            lambda p: st.lists(st.sampled_from([1, -1]),
                               min_size=n, max_size=n).map(
                lambda signs: tuple(s * x for s, x in zip(signs, p)))))


def test_generator_action():
    # s_0 negates the first window entry; s_k swaps slots k, k+1.
    assert weylb.apply_generator((1, 2, 3), 0) == (-1, 2, 3)
    assert weylb.apply_generator((1, 2, 3), 1) == (2, 1, 3)
    assert weylb.apply_generator((-3, 1, 2), 2) == (-3, 2, 1)
    with pytest.raises(weylb.IndexOutOfRange):
        weylb.apply_generator((1, 2), 5)


@given(windows())
def test_length_equals_reduced_word(w):
    word = weylb.reduced_word(w)
    assert len(word) == weylb.length(w)
    assert weylb.evaluate_word(len(w), word) == w


@given(windows())
def test_inverse_and_multiply(w):
    n = len(w)
    wi = weylb.inverse(w)
    assert weylb.multiply(w, wi) == weylb.identity(n)
    assert weylb.multiply(wi, w) == weylb.identity(n)
    assert weylb.length(wi) == weylb.length(w)


@given(windows(4), windows(4))
def test_multiply_subadditive(u, w):
    if len(u) != len(w):
        return
    uw = weylb.multiply(u, w)
    assert weylb.length(uw) <= weylb.length(u) + weylb.length(w)
    assert (weylb.length(uw) - weylb.length(u) - weylb.length(w)) % 2 == 0


def test_descents():
    # right descent at k iff applying s_k shortens the element.
    for w in weylb.enumerate_wn(3):
        for k in range(3):
            shortens = weylb.length(weylb.apply_generator(w, k)) \
                < weylb.length(w)
            assert (k in weylb.right_descents(w)) == shortens


def test_bruhat_basics():
    n = 3
    e = weylb.identity(n)
    for w in weylb.enumerate_wn(n):
        assert weylb.bruhat_leq(e, w)
        assert weylb.bruhat_leq(w, w)
    longest = max(weylb.enumerate_wn(n), key=weylb.length)
    for w in weylb.enumerate_wn(n):
        assert weylb.bruhat_leq(w, longest)


@given(windows(4))
def test_iota_length_is_weighted(w):
    # The symmetric-group length of the image counts s_0 once and every
    # other generator twice (matching the unequal parameters q_0 = v,
    # q_i = v^2).
    img = weylb.iota(w)
    inv = sum(1 for i in range(len(img)) for j in range(i + 1, len(img))
              if img[i] > img[j])
    assert inv == sum(1 if k == 0 else 2 for k in weylb.reduced_word(w))


def test_wb_counts():
    for n in range(1, 6):
        wb = weylb.enumerate_wb(n)
        assert len(wb) == weylb.wb_count_formula(n) == math.comb(2 * n, n)


def test_wb_two_characterizations_small():
    for n in range(1, 7):
        for w in weylb.enumerate_wn(n):
            assert weylb.is_in_wb_by_avoidance(w) \
                == weylb.is_in_wb_by_words(w)


def test_w0_identity_in_all_three_characterizations():
    assert weylb.enumerate_wb(0) == [()]
    assert weylb.right_descents(()) == set()
    assert weylb.reduced_word(()) == ()
    assert weylb.is_in_wb_by_avoidance(()) and weylb.is_in_wb_by_words(())
    assert len(domino.domino_shape(())) <= 2
    assert blob.diagram_of(()) == blob.identity_diagram(0)


def _ends_in_forbidden_triple_by_moves(w):
    # Reference: w = x s b s with lengths adding, for a forbidden pair
    # (s, b), read off generator moves: s in D(w), b in D(ws), s in D(wsb).
    for s in weylb.right_descents(w):
        ws = weylb.apply_generator(w, s)
        for b in weylb.right_descents(ws):
            if abs(s - b) == 1 and (s, b) != (0, 1) and s in \
                    weylb.right_descents(weylb.apply_generator(ws, b)):
                return True
    return False


def test_window_condition_matches_generator_moves():
    for n in range(0, 7):
        for w in weylb.enumerate_wn(n):
            assert weylb._ends_in_forbidden_triple(w) \
                == _ends_in_forbidden_triple_by_moves(w), w


def test_window_decided_element_leaves_no_memo():
    weylb._has_forbidden_word.cache_clear()
    assert not weylb.is_in_wb_by_avoidance((3, 2, 1))
    assert weylb._has_forbidden_word.cache_info().currsize == 0


def test_enumerate_wn_reference_order():
    # Reference: permutations in lexicographic order; within each, the
    # sign patterns with the first slot varying slowest and + before -.
    def signs(n):
        if n == 0:
            return [()]
        return [(s,) + rest for s in (1, -1) for rest in signs(n - 1)]

    for n in range(0, 6):
        want = [tuple(s * x for s, x in zip(sg, perm))
                for perm in itertools.permutations(range(1, n + 1))
                for sg in signs(n)]
        assert list(weylb.enumerate_wn(n)) == want
        assert len(want) == 2 ** n * math.factorial(n)


def test_enumerate_wb_reads_no_environment(monkeypatch):
    # BLOBCELL_MAX_N is the CLI's: it passes the cap as `bound`
    monkeypatch.setenv("BLOBCELL_MAX_N", "2")
    assert len(weylb.enumerate_wb(3)) == 20
    with pytest.raises(weylb.BoundExceeded, match="n=3 exceeds enumeration "
                                                  "bound 2"):
        weylb.enumerate_wb(3, bound=2)
