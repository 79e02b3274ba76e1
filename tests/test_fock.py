"""The level-2 Fock space: operators, crystal, canonical basis, alcoves."""

import hashlib
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from blobcell import fock, kronecker, partitions
from blobcell.laurent import LaurentPoly, add_term, quantum_factorial
from blobcell.weylb import BoundExceeded, InvariantViolation


S_ANCHOR = (-1, 0)
E = 3
WORD = (0, 1, 0, 2, 2, 1, 1, 0, 0, 2)  # operator product, rightmost first


def _add_node(b, node):
    """b with the addable node (i, j, c) (the reference)."""
    i, j, c = node
    p = list(b[c - 1])
    if i == len(p) + 1:
        p.append(1)
    else:
        p[i - 1] += 1
    out = list(b)
    out[c - 1] = tuple(p)
    return tuple(out)


def _remove_nodes(b, nodes):
    """b without the given removable nodes (the reference)."""
    parts = [list(p) for p in b]
    for i, _, c in nodes:
        parts[c - 1][i - 1] -= 1
    return tuple(tuple(x for x in p if x) for p in parts)


def _apply_crystal(word, s, e):
    b = ((), ())
    for i in reversed(word):
        b = fock.crystal_f(i, b, s, e)
        assert b is not None
    return b


def test_crystal_anchor_geometric():
    assert _apply_crystal(WORD, S_ANCHOR, 3) == ((6,), (4,))


def test_crystal_anchor_asymptotic():
    assert _apply_crystal(WORD, (11, 0), 3) == ((6, 3), (1,))


def test_crystal_e_inverts_f():
    s, e = S_ANCHOR, 3
    b = ((), ())
    for i in reversed(WORD):
        nb = fock.crystal_f(i, b, s, e)
        assert fock.crystal_e(i, nb, s, e) == b
        b = nb


def _ref_signature(i, b, s, e):
    """Surviving (addable, removable) i-nodes after signature cancellation."""
    marked = [(fock.node_key(g, s), "A", g)
              for g in fock.addable_nodes(b) if fock.residue(g, s, e) == i]
    marked += [(fock.node_key(g, s), "R", g)
               for g in fock.removable_nodes(b) if fock.residue(g, s, e) == i]
    marked.sort()
    stack = []
    for _, kind, g in marked:
        if kind == "A" and stack and stack[-1][0] == "R":
            stack.pop()
        else:
            stack.append((kind, g))
    return ([g for k, g in stack if k == "A"],
            [g for k, g in stack if k == "R"])


def _ref_crystal_f(i, b, s, e):
    adds, _ = _ref_signature(i, b, s, e)
    return _add_node(b, adds[-1]) if adds else None


def _ref_crystal_e(i, b, s, e):
    _, rems = _ref_signature(i, b, s, e)
    return _remove_nodes(b, rems[:1]) if rems else None


def _ref_estrings(b, s, e):
    """Every maximal ẽ-string, walked one ẽ_i step at a time."""
    out = []
    for i in range(e):
        a, cur = 0, b
        while (nb := _ref_crystal_e(i, cur, s, e)) is not None:
            a, cur = a + 1, nb
        if a:
            out.append((i, a, cur))
    return out


def _ref_crystal_paths(n, s, e):
    paths, layer = {((), ()): ()}, [((), ())]
    for _ in range(n):
        nxt = []
        for b in layer:
            for i in range(e):
                fb = _ref_crystal_f(i, b, s, e)
                if fb is not None and fb not in paths:
                    paths[fb] = paths[b] + (i,)
                    nxt.append(fb)
        layer = nxt
    return paths


def _ref_descent_path(b, s, e):
    path = []
    while b != ((), ()):
        i, b = next((i, nb) for i in range(e)
                    if (nb := _ref_crystal_e(i, b, s, e)) is not None)
        path.append(i)
    return path[::-1]


CHARGES = ((0, 0), (-1, 0), (0, 1), (2, -3), (11, 0), (0, 9))
EDGE_CHARGES = ((-1, 0), (11, 0), (-3, 0), (0, 7))
K = 10 ** 9


def _bipartitions_up_to(n):
    return [b for d in range(n + 1) for b in partitions.bipartitions_of(d)]


def test_crystal_matches_reference_signature_rule():
    lams = _bipartitions_up_to(8)
    for e in range(2, 6):
        for s in CHARGES:
            for b in lams:
                for i in range(e):
                    assert (fock.crystal_f(i, b, s, e)
                            == _ref_crystal_f(i, b, s, e)), (i, b, s, e)
                    assert (fock.crystal_e(i, b, s, e)
                            == _ref_crystal_e(i, b, s, e)), (i, b, s, e)
                assert fock.estrings(b, s, e) == _ref_estrings(b, s, e)
            paths = fock.crystal_paths(8, s, e)
            assert list(paths.items()) == list(
                _ref_crystal_paths(8, s, e).items()), (s, e)
            for b in paths:
                assert (fock._descent_path(b, s, e)
                        == _ref_descent_path(b, s, e)), (b, s, e)


@pytest.mark.parametrize("s", EDGE_CHARGES)
def test_table_round_trips_every_bipartition_one_past_its_bound(s):
    for n in range(9):
        table = fock._Table(s, 3, n)
        # rows n + 2, …, 1 of the empty partition hold the low n + 2 bits of
        # each window of 2n + 5, and every position below is full
        floor = (1 << n + 2) - 1
        assert table.encode(((), ())) == floor | floor << 2 * n + 5
        lams = _bipartitions_up_to(n + 1)
        keys = [table.encode(b) for b in lams]
        assert len(set(keys)) == len(keys), (s, n)
        assert [table.decode(k) for k in keys] == lams, (s, n)
        for m in filter(None, (n, n + 1)):
            for b in (((m,), ()), ((1,) * m, ()), ((), (1,) * m)):
                assert table.decode(table.encode(b)) == b, (s, n, b)
        with pytest.raises(BoundExceeded):
            table.encode(((1,) * (n + 2), ()))
    assert fock.crystal_paths(-3, s, 3) == {((), ()): ()}


@pytest.mark.parametrize("s", EDGE_CHARGES)
def test_table_signatures_match_the_reference_one_past_its_bound(s):
    # every surviving node of the signature rule, at degrees n and n + 1 of
    # a table of bound n, where the window's floor and top are reached
    for e in (2, 3, 4):
        for n in range(9):
            table = fock._Table(s, e, n)
            for b in (partitions.bipartitions_of(n)
                      + partitions.bipartitions_of(n + 1)):
                key = table.encode(b)
                for i in range(e):
                    adds, rems = table.signatures[i, key]
                    ref_adds, ref_rems = _ref_signature(i, b, s, e)
                    assert ([table.decode(key ^ f) for f in adds]
                            == [_add_node(b, g) for g in ref_adds]), (b, i)
                    assert ([table.decode(key ^ f) for f in rems]
                            == [_remove_nodes(b, [g]) for g in ref_rems]), (
                        b, i)


@pytest.mark.parametrize("e, s", [(2, (0, 1)), (3, (-1, 0)), (5, (-2, 0))])
def test_canonical_basis_is_unchanged_by_shifting_both_charges_by_k_e(e, s):
    # node order and residues are the same at s + (K e, K e), and each
    # window holds its own component, so no key grows with K
    shifted = (s[0] + K * e, s[1] + K * e)
    assert (repr(fock.canonical_basis(8, shifted, e))
            == repr(fock.canonical_basis(8, s, e)))


def test_crystal_and_f_action_at_charge_10_to_the_9():
    s, lams = (K, 0), _bipartitions_up_to(5)
    weight = LaurentPoly({-1: 2, 3: -1})
    for e in (2, 3, 4):
        for i in range(e):
            for b in lams:
                assert (fock.crystal_f(i, b, s, e)
                        == _ref_crystal_f(i, b, s, e)), (i, b, e)
                assert (fock.crystal_e(i, b, s, e)
                        == _ref_crystal_e(i, b, s, e)), (i, b, e)
            x = dict.fromkeys(lams, weight)
            assert fock.f_action(i, x, s, e) == _ref_f_action(i, x, s, e)


def test_a_residue_outside_0_to_e_has_no_nodes():
    b, one = ((1,), (2,)), LaurentPoly.one()
    for i in (-1, 3, 4):
        assert fock.crystal_f(i, b, (0, 0), 3) is None
        assert fock.crystal_e(i, b, (0, 0), 3) is None
        assert fock.f_action(i, {b: one}, (0, 0), 3) == {}


def test_residues_and_node_order():
    s = (-1, 0)
    assert fock.residue((1, 1, 1), s, 3) == 2  # 1 - 1 - 1 mod 3
    assert fock.residue((1, 1, 2), s, 3) == 0
    # equal shifted content (both 0 here): the component-2 node is smaller
    assert fock.node_less((1, 1, 2), (1, 2, 1), s)
    assert not fock.node_less((1, 2, 1), (1, 1, 2), s)


def test_f_action_coefficients():
    s, e = (-1, 0), 3
    vec = {((), ()): LaurentPoly.one()}
    out = fock.f_action(0, vec, s, e)
    # two addable 0-nodes: (1,1,2) and none on component 1 (residue 2).
    assert out == {((), (1,)): LaurentPoly.one()}


def _ref_f_action(i, x, s, e):
    """f_i on a vector, one LaurentPoly product per term (the reference)."""
    out = {}
    for lam, coeff in x.items():
        adds = [g for g in fock.addable_nodes(lam)
                if fock.residue(g, s, e) == i]
        for g in adds:
            mu = _add_node(lam, g)
            above_add = sum(1 for h in adds if fock.node_less(g, h, s))
            above_rem = sum(1 for h in fock.removable_nodes(mu)
                            if fock.residue(h, s, e) == i
                            and fock.node_less(g, h, s))
            add_term(out, mu, coeff * LaurentPoly.monomial(
                above_add - above_rem))
    return out


def _ref_divided_f(i, a, x, s, e):
    for _ in range(a):
        x = _ref_f_action(i, x, s, e)
    fact = quantum_factorial(a)
    return {b: c.divide_exact(fact) for b, c in x.items()}


def test_divided_power_exact():
    lams = [b for n in range(6) for b in partitions.bipartitions_of(n)]
    weight = LaurentPoly({-1: 2, 3: -1})
    for e in (2, 3, 4):
        for s in ((0, 0), (-1, 2)):
            for i in range(e):
                assert (fock.f_action(i, dict.fromkeys(lams, weight), s, e)
                        == _ref_f_action(i, dict.fromkeys(lams, weight), s, e))
                for a in (1, 2, 3):
                    for lam in lams:
                        one = {lam: LaurentPoly.one()}
                        got = fock.divided_f(i, a, one, s, e)
                        assert got == _ref_divided_f(i, a, one, s, e), (
                            e, s, i, a, lam)
                        for c in got.values():
                            assert len(c.items()) == 1
                            assert c.coeff(c.min_exp()) == 1


def test_canonical_basis_unitriangular_small():
    for e, m in ((3, 2), (5, 3)):
        geom = fock.alcove_data(e, m)
        basis = fock.canonical_basis(6, geom.s, e)
        for mu, vec in basis.items():
            assert vec[mu].is_one()
            for b, c in vec.items():
                if b != mu:
                    assert c.nonpositive_part().is_zero()


# SHA-256 of the sorted (μ, [(λ, sorted coefficient items)]) text of the
# canonical basis, recorded with the LaurentPoly elimination the packed
# engine replaced.
BASIS_DIGESTS = {
    (2, (0, 1), 10):
        "e7eac6bd43f608db314bbed26f9e50a74314e1bca1c7d638b4d8b916d9c2679d",
    (2, (0, 0), 10):
        "48565c4da7a1dbcdc60a4144f1f79a98ceef1ce5a0be371735cfb68200ed4067",
    (3, (-1, 0), 12):
        "f76fb7924998f4a7b230a4b014f3b83bc72c7cf69095adadd075ea6f36abc7bb",
    (4, (0, 2), 10):
        "a73941a86b80bc067ee3d8557683155048829d356bab769f9467f72bb5fdb240",
    (5, (-2, 0), 10):
        "0fa174bc37870b061f330f71668b20920744110841243b02dc8334a417567549",
}


def _basis_digest(basis):
    text = repr(sorted((mu, sorted((b, sorted(c.items()))
                                   for b, c in vec.items()))
                       for mu, vec in basis.items()))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("e, s, n", sorted(BASIS_DIGESTS))
def test_canonical_basis_digest(e, s, n):
    basis = fock.canonical_basis(n, s, e)
    assert _basis_digest(basis) == BASIS_DIGESTS[e, s, n]


def test_canonical_basis_too_narrow_width_raises(monkeypatch):
    monkeypatch.setattr(fock, "width", lambda bound, step=1: 3)
    with pytest.raises(InvariantViolation):
        fock.canonical_basis(8, (-1, 0), 3)


def test_canonical_basis_widens_as_its_bound_grows(monkeypatch):
    # the least width for each bound: the digits widen several times,
    # also in the middle of an elimination
    want = fock.canonical_basis(10, (-1, 0), 3)
    monkeypatch.setattr(fock, "width",
                        lambda bound, step=1: kronecker.width(bound))
    assert fock.canonical_basis(10, (-1, 0), 3) == want


def test_canonical_basis_does_not_depend_on_the_chosen_string(monkeypatch):
    # G(μ) is unique, so building it from the first ẽ-string in residue
    # order in place of the shortest G(ν) gives the same basis, although
    # some G(μ) come from other strings
    chosen, add = {}, fock._Basis.add

    def spy(self, mu, i, a, nu):
        ok = add(self, mu, i, a, nu)
        if ok:
            chosen[mu] = i, a
        return ok

    def residue_order(self, strings):
        return [t for t in strings if t[2] in self.g]

    monkeypatch.setattr(fock._Basis, "add", spy)
    moved = 0
    for e, s, n in [(3, (-1, 0), 10), (2, (0, 1), 10), (5, (-2, 0), 10)]:
        chosen.clear()
        with monkeypatch.context() as m:
            want, fewest = fock.canonical_basis(n, s, e), dict(chosen)
            m.setattr(fock._Basis, "candidates", residue_order)
            got = fock.canonical_basis(n, s, e)
        assert list(got.items()) == list(want.items()), (e, s, n)
        moved += sum(fewest[mu] != chosen[mu] for mu in fewest)
    assert moved > 0, moved


class _FakeRows:
    """Rows given by hand, on ∅, NU, MU, Y, Z (keys 0-4)."""

    keys = [((), ()), ((1,), ()), ((2,), ()), ((1,), (1,)), ((), (2,))]

    def encode(self, lam):
        return self.keys.index(lam)

    def decode(self, key):
        return self.keys[key]

    rows = defaultdict(
        lambda: defaultdict(tuple, {1: ((2, 0), (3, 0), (3, 0), (4, 1))}))


def test_elimination_widens_for_what_an_offender_brings():
    # A(MU) = MU + 2·Y + v·Z from G(NU) = NU; the offender Y has
    # G(Y) = Y + 100·v·Z, so G(MU) = MU - 199·v·Z needs wider digits than
    # any G read so far
    basis = fock._Basis(_FakeRows())
    basis.bits = kronecker.width(100)
    basis.g = {1: {1: 1}, 3: {3: 1, 4: 100 << basis.bits}}
    basis.big = {1: (1, 1), 3: (100, 101)}
    assert basis.add(2, 0, 1, 1)
    assert basis.bits >= kronecker.width(199)
    keys = _FakeRows.keys
    assert basis.decode()[keys[2]] == {
        keys[2]: LaurentPoly.one(), keys[4]: LaurentPoly.monomial(1, -199)}


def test_candidates_put_the_fewest_terms_first():
    basis = fock._Basis(_FakeRows())
    basis.g = {0: {0: 1, 1: 1, 2: 1}, 1: {1: 1}, 3: {3: 1, 4: 1}, 4: {4: 1}}
    strings = [(0, 1, 0), (1, 2, 3), (2, 1, 2), (3, 1, 1), (4, 1, 4)]
    assert basis.candidates(strings) == [
        (3, 1, 1), (4, 1, 4), (1, 2, 3), (0, 1, 0)]


def _monomials(n, s, e):
    """
    A bar-invariant monomial M(b) = f_{i_1}^(a_1)⋯f_{i_k}^(a_k)·∅ for every
    b of degree <= n in the crystal, built with the reference operators from
    a maximal ẽ-string at b: M(b) has coefficient 1 at b, and every other
    crystal bipartition in its support comes before b in the order of
    _prec_key.
    """
    key = fock._prec_key
    paths = fock.crystal_paths(n, s, e)
    mono = {((), ()): {((), ()): LaurentPoly.one()}}
    for b in sorted(paths, key=lambda b: len(paths[b]))[1:]:
        for i, a, nu in fock.estrings(b, s, e):
            m = _ref_divided_f(i, a, mono[nu], s, e)
            if m.get(b) == LaurentPoly.one() and all(
                    key(x) < key(b) for x in m if x != b and x in paths):
                mono[b] = m
                break
        else:
            raise AssertionError(f"no unitriangular monomial at {b}")
    return mono


def _monomial_coefficients(vec, mono):
    """
    The coefficients β with vec = Σ β_b M(b), found from the leading
    crystal bipartition down, or None if vec is not such a sum.
    """
    key = fock._prec_key
    rest, beta = dict(vec), {}
    while rest:
        top = [b for b in rest if b in mono]
        if not top:
            return None
        b = max(top, key=key)
        c = beta[b] = rest[b]
        for x, m in mono[b].items():
            add_term(rest, x, -(c * m))
    return beta


@pytest.mark.parametrize("e, m", [(3, 2), (5, 3)])
def test_canonical_basis_is_bar_invariant(e, m):
    s = fock.alcove_data(e, m).s
    mono = _monomials(6, s, e)
    for mu, vec in fock.canonical_basis(6, s, e).items():
        beta = _monomial_coefficients(vec, mono)
        assert beta is not None, mu
        assert all(c.bar() == c for c in beta.values()), (mu, beta)


def test_bar_invariance_check_sees_a_shifted_coefficient():
    s, e = (-1, 0), 3
    mono = _monomials(6, s, e)
    shifted = 0
    for mu, vec in fock.canonical_basis(6, s, e).items():
        for b, c in vec.items():
            if b != mu:
                bad = {**vec, b: c.shift(1)}
                beta = _monomial_coefficients(bad, mono)
                assert beta is None or any(
                    x.bar() != x for x in beta.values()), (mu, b)
                shifted += 1
    assert shifted > 20


@pytest.mark.parametrize("e", range(2, 12))
def test_alcove_shift_is_the_largest_with_m_plus_pe_nonpositive(e):
    for m in range(-40, 41):
        geom = fock.AlcoveGeometry(e, m)
        assert m + geom.p * e <= 0 < m + (geom.p + 1) * e, (e, m)
        assert geom.s == (m + geom.p * e, 0)
        assert geom.m_minus < 0 <= geom.m_plus


def test_alcove_geometry_e3_m2():
    geom = fock.alcove_data(3, 2)
    assert geom.s == (-1, 0)
    assert geom.m_minus == -2
    assert geom.is_wall(-2) and geom.is_wall(1) and geom.is_wall(4)
    assert not geom.is_wall(0)
    assert geom.alcove_index(0) == 0
    assert geom.alcove_index(2) == 1
    assert geom.alcove_index(-4) == -1
    with pytest.raises(fock.SingularWeight):
        geom.alcove_index(1)


def test_linkage():
    geom = fock.alcove_data(5, 3)
    assert geom.s == (-2, 0)
    # lambda = 1 and mu = -1 both sit in the fundamental alcove but in
    # different orbits of the wall-reflection group.
    assert not geom.linked(1, -1)
    assert geom.linked(1, 1)
    assert geom.linked(0, -6)  # reflection of 0 across the wall -3
    assert fock.decomposition_number(geom, 1, -1).is_zero()
    assert fock.decomposition_number(geom, -1, 1).is_zero()


def test_decomposition_positive_orientation():
    geom = fock.alcove_data(3, 2)
    # 0 in the fundamental alcove, 6 two alcoves up, linked (6 = 0 + 2e).
    assert geom.linked(0, 6)
    d = fock.decomposition_number(geom, 0, 6)
    assert d == LaurentPoly.monomial(2)
    assert fock.decomposition_number(geom, 6, 0).is_zero()


def test_decomp_matches_llt_small():
    for e, m in ((3, 2), (5, 3)):
        geom = fock.alcove_data(e, m)
        basis = fock.canonical_basis(6, geom.s, e)
        for n in range(1, 7):
            lams = [l for l in partitions.lambda_n(n)
                    if not geom.is_wall(l)]
            for mu_w in lams:
                mu = partitions.one_line_of_weight(n, mu_w)
                vec = basis[mu]
                for lam_w in lams:
                    lam = partitions.one_line_of_weight(n, lam_w)
                    got = vec.get(lam, LaurentPoly.zero())
                    want = (LaurentPoly.one() if lam_w == mu_w else
                            fock.decomposition_number(geom, lam_w, mu_w))
                    assert got == want, (e, n, lam_w, mu_w)


def test_kleshchev_convert_sample():
    assert fock.kleshchev_convert(10, 3, 2, 2) == ((6, 3), (1,))
    assert fock.kleshchev_convert(10, 5, 3, -4) == ((4,), (6,))
    assert fock.kleshchev_convert(10, 7, 4, 0) == ((5, 2), (3,))
    assert fock.kleshchev_convert(10, 9, 5, -6) == ((3,), (7,))


def test_kleshchev_convert_small_n():
    # n = 1: the two simple modules.
    assert fock.kleshchev_convert(1, 3, 2, 1) == ((1,), ())
    assert fock.kleshchev_convert(1, 3, 2, -1) == ((), (1,))


@given(st.integers(1, 5), st.sampled_from([(3, 2), (5, 3)]))
@settings(max_examples=20, deadline=None)
def test_crystal_paths_reach_all_kleshchev(n, em):
    e, m = em
    geom = fock.alcove_data(e, m)
    paths = fock.crystal_paths(n, geom.s, e)
    for lam in partitions.lambda_n(n):
        if not geom.is_wall(lam):
            assert partitions.one_line_of_weight(n, lam) in paths


def _ref_kleshchev(n, e, m, lam, paths):
    """The conversion through a BFS path of the whole crystal (reference)."""
    target = partitions.one_line_of_weight(n, lam)
    if target not in paths:
        return fock.NotReachable
    s1 = m % e
    while s1 <= n - 1 - e:
        s1 += e
    ends = []
    for k in range(n + 3):
        b = ((), ())
        for r in paths[target]:
            b = fock.crystal_f(r, b, (s1 + k * e, 0), e)
        if ends and ends[-1] == b:
            return b
        ends.append(b)
    raise AssertionError(f"no stable replay for {(n, e, m, lam)}")


def test_kleshchev_convert_matches_bfs_replay():
    for e, m, top in ((2, 1, 10), (3, 1, 10), (4, 2, 10),
                      (3, 2, 12), (5, 3, 12), (7, 4, 12)):
        # the BFS path to a bipartition of size n lies in its first n
        # layers, so one walk to `top` serves every n
        paths = fock.crystal_paths(top, fock.alcove_data(e, m).s, e)
        for n in range(1, top + 1):
            for lam in partitions.lambda_n(n):
                want = _ref_kleshchev(n, e, m, lam, paths)
                if want is fock.NotReachable:
                    with pytest.raises(fock.NotReachable):
                        fock.kleshchev_convert(n, e, m, lam)
                else:
                    assert fock.kleshchev_convert(n, e, m, lam) == want, (
                        n, e, m, lam)
