"""The map w ↦ D(w) from W_b onto the blob diagram basis, checked against
the group and domino insertion without the B_n engine."""

import pytest

from blobcell import blob, domino, partitions, weylb


def test_diagram_of_rejects_elements_outside_wb():
    # s_1 s_2 s_1 is not in W_b, yet U_1U_2U_1 = U_1 closes no loop
    assert issubclass(blob.NotInWb, ValueError)
    with pytest.raises(blob.NotInWb, match=r"\(3, 2, 1\) lies outside W_b"):
        blob.diagram_of((3, 2, 1))
    for n in range(1, 5):
        for w in set(weylb.enumerate_wn(n)) - set(weylb.enumerate_wb(n)):
            with pytest.raises(blob.NotInWb):
                blob.diagram_of(w)


def _flip(d):
    """d upside down: point c goes to 2n-1-c."""
    top = len(d.partner) - 1
    return blob.BlobDiagram(tuple(top - p for p in reversed(d.partner)),
                            int(f"{d.blobs:0{top + 1}b}"[::-1], 2))


@pytest.mark.parametrize("n, reverse", [(n, False) for n in range(1, 7)]
                         + [(n, True) for n in (2, 3, 4)])
def test_diagram_of_is_the_diagram_basis(n, reverse, monkeypatch):
    # On W_b, without the B_n engine: w ↦ D(w) is a bijection onto the
    # diagrams, the label of D(w) is the weight of w's domino shape, D(w⁻¹)
    # is D(w) upside down, and top half ↔ P(w), bottom half ↔ Q(w) both
    # ways.  From the reversed reduced word D(w) is D(w⁻¹): the halves fail.
    if reverse:
        word = weylb.reduced_word
        monkeypatch.setattr(weylb, "reduced_word", lambda w: word(w)[::-1])
    wb = weylb.enumerate_wb(n)
    ds = [blob.diagram_of(w) for w in wb]
    assert sorted(ds) == sorted(blob.all_diagrams(n))
    for w, d in zip(wb, ds):
        through = [c for c in range(n) if d.partner[c] >= n]
        sign = -1 if through and d.blobs >> through[0] & 1 else 1
        assert sign * len(through) == partitions.blob_weight_of(
            partitions.two_quotient(domino.domino_shape(w)))
        assert blob.diagram_of(weylb.inverse(w)) == _flip(d)
    ps, qs = zip(*map(domino.domino_insert, wb))
    tops, bottoms = zip(*((blob._top(d), blob._top(_flip(d))) for d in ds))
    assert all(len(set(zip(xs, ys))) == len(set(xs)) == len(set(ys))
               for xs, ys in ((tops, ps), (bottoms, qs))) != reverse


def test_diagram_of_raises_on_a_loop_or_a_merge(monkeypatch):
    # words that are not reduced: U_1U_1 closes a loop, U_0U_0 merges blobs
    for word in ((1, 1), (0, 0)):
        monkeypatch.setattr(weylb, "reduced_word", lambda w, word=word: word)
        with pytest.raises(weylb.InvariantViolation):
            blob.diagram_of((1, 2))
