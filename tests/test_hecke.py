"""The unequal-parameter C-basis, cells, the ideal, and the tensor action."""

import itertools

import pytest
import sympy

from blobcell import domino, hecke, laurent, weylb
from blobcell.hecke import (
    bar_involution, c_gen, compute_kl_basis, ideal_jn, left_cells,
    multiply_t, t_gen, type_a, type_b,
)
from blobcell.laurent import LaurentPoly


def test_quadratic_relations():
    # T_s^2 = (q_s - q_s^{-1}) T_s + 1 with q_0 = v, q_i = v^2.
    for n, s in ((2, 0), (2, 1), (3, 2)):
        cox = type_b(n)
        ts = t_gen(cox, s)
        sq = multiply_t(cox, ts, ts)
        qs = cox.weight(s)
        expected = {cox.identity: LaurentPoly.one()}
        e = cox._gen_elts[s]
        expected[e] = qs - qs.bar()
        assert sq == expected


def test_braid_relations():
    cox = type_b(3)
    for a, b, order in ((0, 1, 4), (1, 2, 3), (0, 2, 2)):
        x = {cox.identity: LaurentPoly.one()}
        y = {cox.identity: LaurentPoly.one()}
        for k in range(order):
            x = multiply_t(cox, x, t_gen(cox, a if k % 2 == 0 else b))
            y = multiply_t(cox, y, t_gen(cox, b if k % 2 == 0 else a))
        assert x == y


def test_bar_is_involution():
    cox = type_b(2)
    basis = compute_kl_basis(2)
    for w in basis.elements:
        x = basis.c[w]
        assert bar_involution(cox, bar_involution(cox, x)) == x


def _inversions(w):
    return sum(w[i] > w[j] for i in range(len(w)) for j in range(i + 1, len(w)))


def _perm_compose(u, w):
    """The permutation x -> u(w(x))."""
    return tuple(u[x - 1] for x in w)


def _perm_inverse(w):
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        out[x - 1] = i
    return tuple(out)


@pytest.mark.parametrize("group", ["B4", "S4"])
def test_window_descents_match_lengths(group):
    # The group tables against arithmetic written without them.
    if group == "B4":
        cox, length = type_b(4), weylb.length
        compose, inverse = weylb.multiply, weylb.inverse
        elements = list(weylb.enumerate_wn(4))
    else:
        cox, length = type_a(4), _inversions
        compose, inverse = _perm_compose, _perm_inverse
        elements = list(itertools.permutations(range(1, 5)))
    assert sorted(cox.elements) == sorted(elements)
    assert [cox.length[w] for w in cox.elements] \
        == sorted(length(w) for w in elements)
    gen = {k: weylb.evaluate_word(4, (k,)) for k in cox.gens}
    for w in elements:
        word = cox.words[w]
        assert weylb.evaluate_word(4, word) == w
        assert len(word) == cox.length[w] == length(w)
        assert cox.inverse[w] == inverse(w)
        shorter = [k for k in cox.gens if length(compose(w, gen[k])) < length(w)]
        assert word[-1:] == tuple(shorter[:1])
        for k in cox.gens:
            (right, right_desc), (left, left_desc) = cox.right[k], cox.left[k]
            assert right[w] == compose(w, gen[k])
            assert left[w] == compose(gen[k], w)
            assert (w in right_desc) == (length(right[w]) < length(w))
            assert (w in left_desc) == (length(left[w]) < length(w))


@pytest.mark.parametrize("group", ["B3", "S4"])
def test_bar_of_t_w_inverts_t_w_inverse(group):
    # bar(T_w) = T_{w^-1}^{-1}, so bar(T_w) T_{w^-1} = 1.
    if group == "B3":
        cox, inverse = type_b(3), weylb.inverse
        elements = list(weylb.enumerate_wn(3))
    else:
        cox, inverse = type_a(4), _perm_inverse
        elements = list(itertools.permutations(range(1, 5)))
    one = {cox.identity: LaurentPoly.one()}
    for w in elements:
        bar_tw = bar_involution(cox, {w: LaurentPoly.one()})
        assert multiply_t(cox, bar_tw, {inverse(w): LaurentPoly.one()}) == one


def test_bar_is_additive_and_bars_coefficients():
    cox = type_b(3)
    w1 = weylb.evaluate_word(3, (0, 1, 2, 1))
    w2 = weylb.evaluate_word(3, (1, 0))
    c1 = LaurentPoly({3: 2, -1: -1})
    c2 = LaurentPoly({2: 1, 0: 5})
    x = {w1: c1, w2: c2}
    expected = dict(bar_involution(cox, {w1: c1}))
    for u, c in bar_involution(cox, {w2: c2}).items():
        expected[u] = expected.get(u, LaurentPoly.zero()) + c
    assert bar_involution(cox, x) \
        == {u: c for u, c in expected.items() if not c.is_zero()}
    assert bar_involution(cox, bar_involution(cox, x)) == x


def test_kl_basis_defining_properties():
    basis = compute_kl_basis(3)
    for w in basis.elements:
        assert basis.check_bar_invariance(w)
        expansion = basis.c[w]
        assert expansion[w].is_one()
        for y, h in expansion.items():
            if y != w:
                assert h.nonpositive_part().is_zero()
                assert weylb.bruhat_leq(y, w)


def test_kl_closed_form_identities():
    cox = type_b(3)
    basis = compute_kl_basis(3)
    c0, c1, c2 = (c_gen(cox, k) for k in range(3))
    s1s2s1 = weylb.evaluate_word(3, (1, 2, 1))
    lhs = multiply_t(cox, multiply_t(cox, c1, c2), c1)
    rhs = dict(basis.c[s1s2s1])
    for w, c in c1.items():
        rhs[w] = rhs.get(w, LaurentPoly.zero()) + c
    assert {w: c for w, c in lhs.items() if not c.is_zero()} \
        == {w: c for w, c in rhs.items() if not c.is_zero()}

    s1s0s1 = weylb.evaluate_word(3, (1, 0, 1))
    lhs = multiply_t(cox, multiply_t(cox, c1, c0), c1)
    ratio2 = LaurentPoly({1: 1, -1: 1})
    rhs = dict(basis.c[s1s0s1])
    for w, c in c1.items():
        rhs[w] = rhs.get(w, LaurentPoly.zero()) + c * ratio2
    assert {w: c for w, c in lhs.items() if not c.is_zero()} \
        == {w: c for w, c in rhs.items() if not c.is_zero()}


@pytest.mark.parametrize("group", ["B2", "B3", "S4"])
def test_left_product_matches_t_basis_reference(group):
    if group == "S4":
        cox = type_a(4)
        basis = hecke.KLBasis(cox)
    else:
        basis = compute_kl_basis(int(group[1]))
        cox = basis.cox
    for w in basis.elements:
        for s in cox.gens:
            cs = c_gen(cox, s)
            assert basis.left_product(s, w) \
                == basis.c_coordinates(multiply_t(cox, cs, basis.c[w]))
            if group != "S4":
                right = {weylb.inverse(y): c for y, c in
                         basis.left_product(s, weylb.inverse(w)).items()}
                assert right \
                    == basis.c_coordinates(multiply_t(cox, basis.c[w], cs))


def test_c_coordinates_rejects_keys_outside_basis():
    basis = compute_kl_basis(2)
    with pytest.raises(weylb.SizeMismatch):
        basis.c_coordinates({(1, 2, 3): LaurentPoly.one()})


def test_broken_build_step_raises(monkeypatch):
    # Without the bar-symmetric correction some C_w keeps a coefficient
    # outside v Z[v]; the build must raise, not rely on `assert`.
    monkeypatch.setattr(LaurentPoly, "bar_symmetrize_nonpositive",
                        lambda self: LaurentPoly.zero())
    with pytest.raises(weylb.InvariantViolation):
        compute_kl_basis(3)


@pytest.mark.parametrize("n, count", [(2, 6), (3, 20), (4, 76)])
def test_left_cells_are_domino_q_fibers(n, count):
    fibers: dict = {}
    for w in weylb.enumerate_wn(n):
        fibers.setdefault(domino.domino_insert(w)[1], set()).add(w)
    cells = left_cells(compute_kl_basis(n))
    assert len(cells) == count
    assert set(cells) == {frozenset(f) for f in fibers.values()}


def test_cells_partition_group():
    basis = compute_kl_basis(3)
    cells = left_cells(basis)
    union = set().union(*cells)
    assert union == set(basis.elements)
    assert sum(len(c) for c in cells) == len(basis.elements)
    # every cell is entirely inside or entirely outside W_b
    for cell in cells:
        flags = {weylb.is_in_wb_by_words(w) for w in cell}
        assert len(flags) == 1


def test_ideal_small():
    basis = compute_kl_basis(3)
    ideal = ideal_jn(3, basis)
    assert ideal.verify_two_sided()
    for g in ideal.generators():
        assert ideal.contains(g)
    assert len(basis.elements) - len(ideal.outside) \
        == weylb.wb_count_formula(3)


def test_cell_module_dimensions():
    basis = compute_kl_basis(3)
    dims = sorted(len(c) for c in left_cells(basis)
                  if weylb.is_in_wb_by_words(min(c)))
    # Standard-module dims at n=3 are 1, 3, 3, 1; the left cells inside
    # W_b have those sizes and their total is |W_b(3)| = 20.
    assert sum(dims) == weylb.wb_count_formula(3)
    assert set(dims) <= {1, 3}
    cell_basis, mats = hecke.cell_module(basis, weylb.identity(3))
    assert len(cell_basis) == 1
    assert set(mats) == {0, 1, 2}


def test_type_a_compare_n2():
    report = hecke.type_a_kl_compare(2)
    assert report["violations"] == []
    assert report["cells_match"]


@pytest.mark.parametrize("n", [2, 3])
def test_type_a_two_rows_match_t_basis_product(n):
    # C̃_{ι(s_{n-1})} C̃_{ι(w)} from two W-graph rows, against the T-basis.
    cox = type_a(2 * n)
    basis = hecke.KLBasis(cox)
    iota_s = hecke._iota_perm(weylb.evaluate_word(n, (n - 1,)))
    for w in weylb.enumerate_wb(n):
        product = multiply_t(cox, basis.c[iota_s], basis.c[hecke._iota_perm(w)])
        assert hecke._iota_s_row(basis, n, w) == basis.c_coordinates(product)


def test_tensor_ideal_small():
    for n in (2, 3):
        assert hecke.tensor_ideal_annihilates(n)
    assert hecke.ideal_vanish_symbolic(3)


class _Sym:
    """A rational function of independent symbols, expanded after each step:
    the scalars of the symbolic check when it was computed with sympy."""

    def __init__(self, e):
        self.e = sympy.expand(sympy.cancel(e))

    def __add__(self, other):
        return _Sym(self.e + other.e)

    def __sub__(self, other):
        return _Sym(self.e - other.e)

    def __mul__(self, other):
        return _Sym(self.e * other.e)

    def __neg__(self):
        return _Sym(-self.e)

    def __eq__(self, other):
        return self.e == other.e

    def is_zero(self):
        return self.e == 0


def _sympy_ideal_vanish(n, two):
    """C_1 C_0 x = two(q, Q)·x with q, Q sympy symbols (the reference)."""
    q, big_q = sympy.symbols("q Q")
    sc = {"one": _Sym(1), "q": _Sym(q), "q_inv": _Sym(1 / q),
          "big_q": _Sym(big_q), "big_q_inv": _Sym(1 / big_q)}
    two = _Sym(two(q, big_q))
    for tail in itertools.product((1, 2), repeat=n - 2):
        x = {(1, 2) + tail: sc["one"], (2, 1) + tail: -sc["q"]}
        lhs = hecke.tensor_c_action(
            n, 1, hecke.tensor_c_action(n, 0, x, sc), sc)
        if lhs != {w: two * c for w, c in x.items()}:
            return False
    return True


# Each candidate scalar s for C_1 C_0 x = s·x: s(q, Q) for the reference,
# the base that takes the place of Q/q in `ideal_vanish_symbolic`'s
# gauss(2, Q/q) (q ↦ v there), and whether the identity holds with s.
_V = LaurentPoly.monomial(1)
_TWOS = {
    "[2]_Q/q": (lambda q, big_q: big_q / q + q / big_q, None, True),
    "[2]_q": (lambda q, big_q: q + 1 / q, lambda x: _V, False),
    "Q+1/Q": (lambda q, big_q: big_q + 1 / big_q, lambda x: x * _V, False),
}


@pytest.mark.parametrize("name", sorted(_TWOS))
def test_symbolic_check_matches_sympy_reference(name, monkeypatch):
    two, base, holds = _TWOS[name]
    if base is not None:
        monkeypatch.setattr(hecke, "gauss",
                            lambda a, x: laurent.gauss(a, base(x)))
    for n in (2, 3, 4):
        assert _sympy_ideal_vanish(n, two) is holds
        assert hecke.ideal_vanish_symbolic(n) is holds


def test_permutation_module_dims():
    from math import comb
    for n in (2, 3, 4, 5):
        for lam in range(-n, n + 1, 2):
            assert len(hecke.permutation_module(n, lam)) \
                == comb(n, (n - lam) // 2)
    with pytest.raises(hecke.WeightOutOfRange):
        hecke.permutation_module(3, 2)


def test_type_a_coxeter_sanity():
    cox = type_a(4)
    ts = t_gen(cox, 1)
    sq = multiply_t(cox, ts, ts)
    assert sq[cox.identity].is_one()
