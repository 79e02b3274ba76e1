"""Partitions, 2-cores/2-quotients, and the orders on bipartitions."""

import pytest
from hypothesis import given, strategies as st

from blobcell import partitions
from blobcell.partitions import (
    AmbientMismatch, NonEmptyCore, WeightOutOfRange, bip_order,
    bipartitions_of, blob_weight_of, dominance, in_lambda_n, lambda_n,
    one_line_bipartitions, one_line_of_weight, partitions_of, qh_order,
    two_core, two_quotient, two_quotient_inverse,
)


def _random_partition():
    return st.lists(st.integers(1, 8), max_size=6).map(
        lambda xs: tuple(sorted(xs, reverse=True)))


def test_two_core_examples():
    assert two_core(()) == ()
    assert two_core((1,)) == (1,)
    assert two_core((2,)) == ()
    assert two_core((3, 1)) == ()
    assert two_core((4, 2, 1)) == (1,)


@given(_random_partition())
def test_core_quotient_degree(p):
    core = two_core(p)
    if core == ():
        q = two_quotient(p)
        assert sum(q[0]) + sum(q[1]) == sum(p) // 2


@given(st.tuples(st.lists(st.integers(1, 6), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))),
    st.lists(st.integers(1, 6), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True)))))
def test_quotient_inverse_roundtrip(b):
    p = two_quotient_inverse(b)
    assert two_core(p) == ()
    assert two_quotient(p) == b
    assert sum(p) == 2 * (sum(b[0]) + sum(b[1]))


def test_quotient_rejects_nonempty_core():
    with pytest.raises(NonEmptyCore):
        two_quotient((1,))


def test_dominance():
    assert dominance((2, 2), (3, 1)) == "less"
    assert dominance((3, 1), (2, 2)) == "greater"
    assert dominance((2, 2), (2, 2)) == "equal"
    assert dominance((3, 1, 1), (2, 2, 2)) == "incomparable"
    assert dominance((3,), (2, 2)) == "incomparable"  # different degree


def test_bip_order_chain_on_one_line():
    """On one-line bipartitions of n the order is the printed total chain."""
    for n in (3, 4, 5, 6):
        chain = []
        for k in range(n, -1, -1):
            for b in (((k,) if k else (), (n - k,) if n - k else ()),
                      ((n - k,) if n - k else (), (k,) if k else ())):
                if b not in chain:
                    chain.append(b)
        # chain is (n),() > (),(n) > (n-1),(1) > (1),(n-1) > ...
        for i in range(len(chain) - 1):
            assert bip_order(chain[i], chain[i + 1]) == "greater"


def test_blob_weight_and_one_line():
    assert blob_weight_of(((6,), (4,))) == 2
    for n in (1, 2, 5):
        for lam in lambda_n(n):
            b = one_line_of_weight(n, lam)
            assert blob_weight_of(b) == lam
    with pytest.raises(WeightOutOfRange):
        one_line_of_weight(4, 1)


def test_qh_order_definition():
    # x < y iff |x| > |y|; ties in absolute value are incomparable.
    assert qh_order(-4, 2, 6) == "less"
    assert qh_order(2, -4, 6) == "greater"
    assert qh_order(4, -4, 6) == "incomparable"
    assert qh_order(2, 2, 6) == "equal"
    with pytest.raises(AmbientMismatch):
        qh_order(1, 3, 4)


def test_enumerations():
    assert len(partitions_of(5)) == 7
    assert len(bipartitions_of(3)) == 10
    assert len(one_line_bipartitions(4)) == 5
    assert lambda_n(3) == [-3, -1, 1, 3]


def test_lambda_membership_matches_one_line():
    for n in range(1, 7):
        assert sorted(blob_weight_of(b) for b in one_line_bipartitions(n)) \
            == lambda_n(n)
        assert [lam for lam in range(-n - 3, n + 4) if in_lambda_n(n, lam)] \
            == lambda_n(n)
