"""Signed permutations, lengths, Bruhat order, and the subset W_b."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from blobcell import weylb


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


def test_max_n_env(monkeypatch):
    monkeypatch.setenv("BLOBCELL_MAX_N", "2")
    assert weylb.max_n() == 2
    with pytest.raises(weylb.BoundExceeded):
        weylb.enumerate_wb(3)
    monkeypatch.delenv("BLOBCELL_MAX_N")
    assert weylb.max_n() == weylb.DEFAULT_MAX_N
