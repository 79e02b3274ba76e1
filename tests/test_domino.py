"""Domino insertion, its inverse, and the two-row shape criterion."""

import bisect
import copy
import hashlib
import itertools
import pickle

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
    for n in (1, 2, 3, 4, 5):
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


def _label_swaps(n_max=4):
    """(t, s) for every standard tableau t with n <= n_max and every s
    obtained from t by exchanging two of its labels."""
    for n in range(2, n_max + 1):
        for t in _standard_domino_tableaux(n):
            d = t.as_dict()
            for i, j in itertools.combinations(d, 2):
                yield t, DominoTableau.from_dict({**d, i: d[j], j: d[i]})


def _reference_violation(t):
    """None if the labels of t increase along its rows and down its columns,
    else the message naming the first violation in reading order (rows top
    to bottom, each left to right; at one cell the row before the column).
    The shape of t must be a partition."""
    label_at = {cell: lab for lab, dom in t.dominoes for cell in dom}
    shape = t.shape()
    for r, width in enumerate(shape):
        for c in range(width):
            lab = label_at[r, c]
            if c + 1 < width and label_at[r, c + 1] < lab:
                return "labels not increasing along a row"
            if (r + 1 < len(shape) and c < shape[r + 1]
                    and label_at[r + 1, c] < lab):
                return "labels not increasing down a column"
    return None


def test_check_standard_matches_reference_on_label_swaps():
    verdicts = set()
    for _, s in _label_swaps():
        want = _reference_violation(s)
        verdicts.add(want)
        if want is None:
            s.check_standard()
        else:
            with pytest.raises(ValueError) as exc:
                s.check_standard()
            assert str(exc.value) == want
    assert verdicts == {None, "labels not increasing along a row",
                        "labels not increasing down a column"}


def test_check_standard_keeps_its_lengths_and_hands_out_fresh_lists():
    p, _ = domino_insert((2, 3, -1))
    want = ([4, 2] + [0] * 6, [2, 2, 1, 1] + [0] * 4)
    rows, cols = p.check_standard()
    assert (rows, cols) == want
    rows[0] = cols[0] = 99
    assert p.check_standard() == want
    assert p.check_standard()[0] is not p.check_standard()[0]


def test_check_standard_rejects_cells_off_a_partition():
    gap = DominoTableau.from_dict({1: ((0, 0), (1, 0)), 2: ((0, 2), (1, 2))})
    with pytest.raises(ValueError, match="partition shape"):
        gap.check_standard()


def test_reverse_rejects_non_standard_tableaux():
    rejected = 0
    for t, s in _label_swaps():
        if _reference_violation(s) is None:
            continue
        for p, q in ((s, t), (t, s)):
            with pytest.raises(ValueError):
                domino_reverse(p, q)
        rejected += 1
    assert rejected > 0


# SHA-256 of the sorted repr lines (w, P.dominoes, Q.dominoes) over all of
# W_1..W_6, and of the sorted lines (w, domino_shape(w)) over W_6.
_INSERT_DIGEST = \
    "327eda56ad9c9dd8e15d56b3acd1ed23d157d421bef2eea10cae779386452426"
_SHAPE_DIGEST = \
    "7815f7c41485200191bdae2a8042ed20f8895bb7366465cfc8187a2dd1e53e3a"


def _digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


@pytest.fixture(scope="module")
def inserted_up_to_6():
    """(w, domino_shape(w), P(w), Q(w)) for every w in W_1..W_6."""
    return [(w, domino.domino_shape(w), *domino_insert(w))
            for n in range(1, 7) for w in weylb.enumerate_wn(n)]


def test_insert_digest_up_to_6(inserted_up_to_6):
    assert len(inserted_up_to_6) == 50362
    assert _digest(repr((w, p.dominoes, q.dominoes))
                   for w, _, p, q in inserted_up_to_6) == _INSERT_DIGEST


def test_shape_digest_6(inserted_up_to_6):
    assert _digest(repr((w, shape)) for w, shape, *_ in inserted_up_to_6
                   if len(w) == 6) == _SHAPE_DIGEST


def test_q_is_p_of_inverse(inserted_up_to_6):
    # (P, Q)(w^{-1}) = (Q, P)(w) on all of W_1..W_6.
    pq = {w: (p, q) for w, _, p, q in inserted_up_to_6}
    for w, (p, q) in pq.items():
        assert pq[weylb.inverse(w)] == (q, p), w


def _schensted_shape(perm):
    """The shape of the Schensted row insertion tableau of a sequence of
    distinct numbers (written for the tests)."""
    rows = []
    for x in perm:
        for row in rows:
            i = bisect.bisect_left(row, x)
            if i == len(row):
                row.append(x)
                break
            row[i], x = x, row[i]
        else:
            rows.append([x])
    return tuple(map(len, rows))


def test_shape_is_the_schensted_shape_of_iota(inserted_up_to_6):
    # An oracle that shares no code with domino insertion: the shape of
    # P(w) is the row insertion shape of iota(w) in S_2n, so W_b (two rows)
    # is the set of w with iota(w) 321-avoiding.
    assert _schensted_shape((3, 1, 2)) == (2, 1)
    for w, shape, *_ in inserted_up_to_6:
        assert shape == _schensted_shape(weylb.iota(w)), w


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


@pytest.mark.parametrize("p, q", [
    ({1: ((0, 0), (0, 1)), 3: ((0, 2), (0, 3))},
     {1: ((0, 0), (0, 1)), 2: ((0, 2), (0, 3))}),
    ({5: ((0, 0), (0, 1))}, {7: ((0, 0), (0, 1))}),
], ids=["labels-1-3", "label-5-against-7"])
def test_reverse_rejects_labels_other_than_1_to_n(p, q):
    with pytest.raises(ValueError, match="not 1..n"):
        domino_reverse(DominoTableau.from_dict(p), DominoTableau.from_dict(q))


def test_two_rows_iff_wb():
    for n in (1, 2, 3, 4):
        for w in weylb.enumerate_wn(n):
            assert (len(domino.domino_shape(w)) <= 2) \
                == weylb.is_in_wb_by_words(w)


def test_shape_matches_insertion(inserted_up_to_6):
    for w, shape, p, _ in inserted_up_to_6:
        assert shape == p.shape(), w


def test_json_roundtrip():
    p, _ = domino_insert((3, -1, 2, -4))
    assert DominoTableau.from_json(p.to_json()) == p


def test_equal_entries_and_shapes_are_one_object():
    # P and Q of different windows, and JSON and pickle round trips, each
    # built by its own call: an entry equal to one seen before is that very
    # object, and so are the verified lengths of two tableaux of one shape.
    made = [t for w in weylb.enumerate_wn(3) for t in domino_insert(w)]
    made += [DominoTableau.from_json(t.to_json()) for t in made[:24]]
    made += [pickle.loads(pickle.dumps(t)) for t in made[:24]]
    first = {}
    for t in made:
        for entry in t.dominoes:
            assert first.setdefault(entry, entry) is entry, entry
    assert len(first) < sum(len(t.dominoes) for t in made) // 10
    lengths = {}
    for t in made:
        t.check_standard()
        assert lengths.setdefault(t.shape(), t._lengths) is t._lengths, t
    assert len(lengths) < len(made) // 10


def _shared_bound(n):
    """The bound of the module docstring on the shared table after
    tableaux with at most n labels: entries (k, domino) with k <= n and
    (r + 1)(c + 1) <= 2k for both cells (r, c), and one lengths tuple per
    shape, at most the number of partitions of 2m for m <= n."""
    entries = 0
    for k in range(1, n + 1):
        cells = {(r, c) for r in range(2 * k) for c in range(2 * k)
                 if (r + 1) * (c + 1) <= 2 * k}
        entries += sum((r, c + 1) in cells for r, c in cells)
        entries += sum((r + 1, c) in cells for r, c in cells)
    count = [1] + [0] * 2 * n  # partitions of m, by the largest part
    for part in range(1, 2 * n + 1):
        for m in range(part, 2 * n + 1):
            count[m] += count[m - part]
    return entries, sum(count[2 * m] for m in range(1, n + 1))


def test_shared_table_stays_within_its_bound(inserted_up_to_6, monkeypatch):
    entries, shapes = _shared_bound(6)
    assert (entries, shapes) == (130, 159)
    tableaux = [t for _, _, p, q in inserted_up_to_6 for t in (p, q)]
    assert len({id(e) for t in tableaux for e in t.dominoes}) <= entries
    monkeypatch.setattr(domino, "_SHARED", {})
    for t in tableaux:
        DominoTableau(t.dominoes).check_standard()
    kept = [key for key in domino._SHARED if isinstance(key[1], tuple)]
    assert 0 < len(kept) <= entries
    assert 0 < len(domino._SHARED) - len(kept) <= shapes


def test_refused_tableaux_leave_the_shared_table_as_it_was():
    # Each read carries entries the table has not seen: labels past n,
    # which domino_reverse refuses, or a domino below an empty first row,
    # which check_standard refuses.
    before = len(domino._SHARED)
    for k in range(2, 2002):
        t = DominoTableau.from_json({"dominoes": [[k + 998, [1, 1], [1, 2]]]})
        with pytest.raises(ValueError, match="not 1..n"):
            domino_reverse(t, t)
        t = DominoTableau.from_json({"dominoes": [[1, [k, 1], [k, 2]]]})
        with pytest.raises(ValueError, match="partition"):
            domino_reverse(t, t)
    assert len(domino._SHARED) == before


def test_tableau_is_a_read_only_value():
    t = domino_insert((2, 3, -1))[0]
    assert repr(t) == ("DominoTableau(dominoes=((1, ((0, 0), (1, 0))), "
                       "(2, ((0, 1), (1, 1))), (3, ((0, 2), (0, 3)))))")
    twin = DominoTableau.from_json(t.to_json())
    assert twin is not t and twin.dominoes is not t.dominoes
    assert twin == t and hash(twin) == hash(t)
    # the hash of the frozen dataclass it replaces, so set orders stay put
    assert hash(t) == hash((t.dominoes,))
    assert t != (t.dominoes,) and not isinstance(t, tuple)
    assert t != domino_insert((2, 3, -1))[1]
    with pytest.raises(AttributeError):
        t.dominoes = ()
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        del t.dominoes
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t),
                   copy.copy(t)):
        assert copied == t and copied.dominoes == t.dominoes
