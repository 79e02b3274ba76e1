"""The unequal-parameter C-basis, cells, the ideal, and the tensor action."""

import functools
import itertools
import random

import pytest
import sympy

from blobcell import blob, domino, hecke, laurent, partitions, tensor, weylb
from blobcell.hecke import (
    bar_involution, c_gen, compute_kl_basis, ideal_jn, left_cells,
    multiply_t, t_gen, type_a, type_b,
)
from blobcell.kronecker import digits
from blobcell.laurent import LaurentPoly, add_term

# -- Reference T-basis arithmetic on windows --------------------------------
#
# The LaurentPoly word walk the engine used before it packed coefficients,
# written here without the engine's tables: windows, `weylb.apply_generator`,
# lengths from `weylb.length` (type B) or inversions (type A) and reduced
# words found by descent search.  The engine is checked against it.


def _inversions(w):
    return sum(w[i] > w[j] for i in range(len(w)) for j in range(i + 1, len(w)))


_B_LENGTH = functools.lru_cache(maxsize=None)(weylb.length)
_A_LENGTH = functools.lru_cache(maxsize=None)(_inversions)


def _spec(group):
    """(generators, length, q_s) of B<n> (q_0 = v, q_i = v^2) or S<n> (v^2)."""
    n = int(group[1:])
    if group[0] == "B":
        return range(n), _B_LENGTH, \
            lambda k: LaurentPoly.monomial(1 if k == 0 else 2)
    return range(1, n), _A_LENGTH, lambda k: LaurentPoly.monomial(2)


def _ref_word(group, w):
    gens, length, _ = _spec(group)
    word = []
    while length(w):
        k = next(k for k in gens
                 if length(weylb.apply_generator(w, k)) < length(w))
        word.append(k)
        w = weylb.apply_generator(w, k)
    return word[::-1]


def _ref_times_gen(group, x, k, inverse=False):
    """x T_k, or x T_k^{-1} = x T_k - (q_k - q_k^{-1}) x."""
    _, length, q = _spec(group)
    twist = q(k) - q(k).bar()
    out = {}
    for w, c in x.items():
        u = weylb.apply_generator(w, k)
        add_term(out, u, c)
        if length(u) < length(w):
            add_term(out, w, c * twist)
        if inverse:
            add_term(out, w, -(c * twist))
    return out


def _ref_gen_times(group, k, x):
    """T_k x, with s_k w the product of windows (the twist when s_k w < w)."""
    _, length, q = _spec(group)
    twist = q(k) - q(k).bar()
    out = {}
    for w, c in x.items():
        gen = weylb.apply_generator(tuple(range(1, len(w) + 1)), k)
        u = (weylb.multiply if group[0] == "B" else _perm_compose)(gen, w)
        add_term(out, u, c)
        if length(u) < length(w):
            add_term(out, w, c * twist)
    return out


def _ref_multiply(group, x, y):
    """
    x*y: each term of the factor with fewer terms walked as a reduced word,
    of left passes over y (x) or of right passes over x (y).
    """
    out = {}
    if len(x) < len(y):
        for w, c in x.items():
            acc = {u: cu * c for u, cu in y.items()}
            for k in reversed(_ref_word(group, w)):
                acc = _ref_gen_times(group, k, acc)
            for u, cu in acc.items():
                add_term(out, u, cu)
        return out
    for w, c in y.items():
        acc = {u: cu * c for u, cu in x.items()}
        for k in _ref_word(group, w):
            acc = _ref_times_gen(group, acc, k)
        for u, cu in acc.items():
            add_term(out, u, cu)
    return out


def _ref_bar(group, x):
    """bar(T_w) = T_{k_1}^{-1} ... T_{k_r}^{-1} for w = s_{k_1} ... s_{k_r}."""
    identity = tuple(range(1, len(next(iter(x))) + 1)) if x else ()
    out = {}
    for w, c in x.items():
        acc = {identity: c.bar()}
        for k in _ref_word(group, w):
            acc = _ref_times_gen(group, acc, k, inverse=True)
        for u, cu in acc.items():
            add_term(out, u, cu)
    return out


def _random_element(rng, elements, terms, big=False):
    out = {}
    for w in rng.sample(elements, terms):
        coeffs = {rng.randint(-4, 4): rng.choice([-3, -2, -1, 1, 2, 3])
                  for _ in range(rng.randint(1, 3))}
        if big:
            coeffs[rng.randint(-4, 4)] = rng.choice([-1, 1]) * 7 ** 25
        out[w] = LaurentPoly(coeffs)
    return out


# The relations below run on type B, whose Coxeter names match `_spec`'s.
PRODUCTS = {"engine": lambda cox, x, y: multiply_t(cox, x, y).decode(),
            "reference": lambda cox, x, y: _ref_multiply(cox.name, x, y)}


def test_quadratic_relations():
    # T_s^2 = (q_s - q_s^{-1}) T_s + 1 with q_0 = v, q_i = v^2, for the
    # engine and for the reference.
    for (n, s), multiply in itertools.product(((2, 0), (2, 1), (3, 2)),
                                              PRODUCTS.values()):
        cox = type_b(n)
        ts = t_gen(cox, s)
        sq = multiply(cox, ts, ts)
        qs = cox.weight(s)
        expected = {cox.identity: LaurentPoly.one()}
        e = cox._gen_elts[s]
        expected[e] = qs - qs.bar()
        assert sq == expected


def test_braid_relations():
    cox = type_b(3)
    for (a, b, order), multiply in itertools.product(
            ((0, 1, 4), (1, 2, 3), (0, 2, 2)), PRODUCTS.values()):
        x = {cox.identity: LaurentPoly.one()}
        y = {cox.identity: LaurentPoly.one()}
        for k in range(order):
            x = multiply(cox, x, t_gen(cox, a if k % 2 == 0 else b))
            y = multiply(cox, y, t_gen(cox, b if k % 2 == 0 else a))
        assert x == y
        # and the same words multiplied from the left
        x = {cox.identity: LaurentPoly.one()}
        y = {cox.identity: LaurentPoly.one()}
        for k in range(order):
            x = multiply(cox, t_gen(cox, a if k % 2 == 0 else b), x)
            y = multiply(cox, t_gen(cox, b if k % 2 == 0 else a), y)
        assert x == y


@pytest.mark.parametrize("group", ["B3", "S4"])
def test_multiply_t_matches_reference_on_generator_products(group):
    # Every C_s C_w and C_w C_s: the engine walks C_s's two terms with
    # left passes in the first and right passes in the second.
    cox = type_b(3) if group == "B3" else type_a(4)
    basis = hecke.KLBasis(cox)
    for w in basis.elements:
        for s in cox.gens:
            cs, cw = c_gen(cox, s), basis.c[w]
            assert multiply_t(cox, cs, cw).decode() \
                == _ref_multiply(group, cs, cw)
            assert multiply_t(cox, cw, cs).decode() \
                == _ref_multiply(group, cw, cs)


@pytest.mark.parametrize("big", [False, True])
def test_multiply_t_and_bar_match_reference_on_random_elements(big):
    # Seeded random elements of 2-5 terms in B3; with `big`, one coefficient
    # of each term is 7^25, far beyond any fixed digit width.
    cox = type_b(3)
    elements = list(weylb.enumerate_wn(3))
    rng = random.Random(f"hecke-random:{big}")
    for _ in range(40):
        x = _random_element(rng, elements, rng.randint(2, 5), big)
        y = _random_element(rng, elements, rng.randint(2, 5), big)
        assert multiply_t(cox, x, y).decode() == _ref_multiply("B3", x, y)
        assert multiply_t(cox, y, x).decode() == _ref_multiply("B3", y, x)
        assert bar_involution(cox, x).decode() == _ref_bar("B3", x)


@pytest.mark.parametrize("group", ["B3", "S4"])
def test_bar_involution_matches_reference(group):
    cox = type_b(3) if group == "B3" else type_a(4)
    basis = hecke.KLBasis(cox)
    for w in basis.elements:
        t_w = {w: LaurentPoly({1: 2, -3: -1})}
        assert bar_involution(cox, t_w).decode() == _ref_bar(group, t_w)
        assert bar_involution(cox, basis.c[w]).decode() \
            == _ref_bar(group, basis.c[w])


def test_bar_involution_matches_reference_at_b4():
    # T_{w_0}, and seeded elements of 1-6 terms whose supports miss a word
    # prefix of one of their elements: Horner's rule on the tree of reduced
    # words must pass through nodes where the input has no term.
    cox = type_b(4)
    t_w0 = {cox.elements[-1]: LaurentPoly.one()}
    assert bar_involution(cox, t_w0).decode() == _ref_bar("B4", t_w0)
    rng = random.Random("hecke-bar:B4")
    for _ in range(30):
        x = {w: LaurentPoly({rng.randint(-8, 8): rng.choice([-3, -1, 1, 2])
                             for _ in range(rng.randint(1, 3))})
             for w in rng.sample(cox.elements, rng.randint(1, 6))}
        support = {cox.index[w] for w in x}
        assert any(cox.right[cox.words[i][-1]][0][i] not in support
                   for i in support if i)
        assert bar_involution(cox, x).decode() == _ref_bar("B4", x)


def test_bar_is_involution():
    cox = type_b(2)
    basis = compute_kl_basis(2)
    for w in basis.elements:
        x = basis.c[w]
        assert bar_involution(cox, bar_involution(cox, x)).decode() == x


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
    els = cox.elements  # numbered in (length, window) order
    assert els == sorted(elements, key=lambda w: (length(w), w))
    assert [cox.index[w] for w in els] == list(range(len(els)))
    assert cox.length == [length(w) for w in els]
    gen = {k: weylb.evaluate_word(4, (k,)) for k in cox.gens}
    for i, w in enumerate(els):
        word = cox.words[i]
        assert weylb.evaluate_word(4, word) == w
        assert len(word) == cox.length[i] == length(w)
        assert els[cox.inverse[i]] == inverse(w)
        shorter = [k for k in cox.gens if length(compose(w, gen[k])) < length(w)]
        assert word[-1:] == tuple(shorter[:1])
        for k in cox.gens:
            (right, right_desc), (left, left_desc) = cox.right[k], cox.left[k]
            assert els[right[i]] == compose(w, gen[k])
            assert els[left[i]] == compose(gen[k], w)
            assert (i in right_desc) == (length(els[right[i]]) < length(w))
            assert (i in left_desc) == (length(els[left[i]]) < length(w))


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
        assert multiply_t(cox, bar_tw,
                          {inverse(w): LaurentPoly.one()}).decode() == one


def test_bar_is_additive_and_bars_coefficients():
    cox = type_b(3)
    w1 = weylb.evaluate_word(3, (0, 1, 2, 1))
    w2 = weylb.evaluate_word(3, (1, 0))
    c1 = LaurentPoly({3: 2, -1: -1})
    c2 = LaurentPoly({2: 1, 0: 5})
    x = {w1: c1, w2: c2}
    expected = bar_involution(cox, {w1: c1}).decode()
    for u, c in bar_involution(cox, {w2: c2}).decode().items():
        expected[u] = expected.get(u, LaurentPoly.zero()) + c
    assert bar_involution(cox, x).decode() \
        == {u: c for u, c in expected.items() if not c.is_zero()}
    assert bar_involution(cox, bar_involution(cox, x)).decode() == x


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
    lhs = multiply_t(cox, multiply_t(cox, c1, c2), c1).decode()
    rhs = dict(basis.c[s1s2s1])
    for w, c in c1.items():
        rhs[w] = rhs.get(w, LaurentPoly.zero()) + c
    assert {w: c for w, c in lhs.items() if not c.is_zero()} \
        == {w: c for w, c in rhs.items() if not c.is_zero()}

    s1s0s1 = weylb.evaluate_word(3, (1, 0, 1))
    lhs = multiply_t(cox, multiply_t(cox, c1, c0), c1).decode()
    ratio2 = LaurentPoly({1: 1, -1: 1})
    rhs = dict(basis.c[s1s0s1])
    for w, c in c1.items():
        rhs[w] = rhs.get(w, LaurentPoly.zero()) + c * ratio2
    assert {w: c for w, c in lhs.items() if not c.is_zero()} \
        == {w: c for w, c in rhs.items() if not c.is_zero()}


@pytest.mark.parametrize("group", ["B2", "B3", "B4", "S4"])
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
                == basis.c_coordinates(_ref_multiply(group, cs, basis.c[w]))
            if group != "S4":
                right = {weylb.inverse(y): c for y, c in
                         basis.left_product(s, weylb.inverse(w)).items()}
                assert right \
                    == basis.c_coordinates(_ref_multiply(group, basis.c[w], cs))


@pytest.mark.parametrize("group, steps", [("B3", 33), ("B4", 229),
                                          ("S4", 16)])
def test_inverse_copies_match_the_elimination_step(group, steps, monkeypatch):
    # The build runs the elimination step for w with w⁻¹ >= w only, and
    # takes C_{w⁻¹} with T_y ↦ T_{y⁻¹} for the rest: (|W| + #involutions)/2
    # - 1 steps, and each copy is what the step would have made.
    cox = type_a(4) if group == "S4" else type_b(int(group[1]))
    real, calls = hecke.KLBasis._step, []

    def spy(self, s, w):
        calls.append(w)
        return real(self, s, w)

    monkeypatch.setattr(hecke.KLBasis, "_step", spy)
    basis = hecke.KLBasis(cox)
    inv = cox.inverse
    assert len(calls) == steps \
        == (len(inv) + sum(inv[w] == w for w in range(len(inv)))) // 2 - 1
    assert all(inv[w] >= w for w in calls)
    shift = basis._bits * basis._off
    for w in range(1, len(inv)):
        if inv[w] < w:
            s = min(k for k in cox.gens if w in cox.left[k][1])
            d = real(basis, s, w)[0]
            assert {y: h >> shift for y, h in d.items() if h} == basis._c[w]


def test_c_coordinates_of_packed_products_match_their_dicts():
    # A product passed straight from multiply_t to c_coordinates stays
    # packed; the same product as a plain dict is packed again.
    basis = compute_kl_basis(3)
    cox = basis.cox
    for w in basis.elements:
        for s in cox.gens:
            for prod in (multiply_t(cox, c_gen(cox, s), basis.c[w]),
                         multiply_t(cox, basis.c[w], c_gen(cox, s))):
                assert basis.c_coordinates(prod) \
                    == basis.c_coordinates(prod.decode())


def test_products_of_c_w_reach_c_coordinates_packed(monkeypatch):
    # multiply_t reads c[w] through its packed form, and c_coordinates reads
    # the packed product, so `_indexed` only ever sees C_s (2 terms); when
    # w is a generator the two factors tie, and C_s is still the one walked.
    # C_e has 1 term and is walked over C_s instead.
    basis = compute_kl_basis(3)
    cox, indexed, sizes = basis.cox, hecke._indexed, []

    def spy(cox, x):
        sizes.append(len(x.terms if isinstance(x, hecke.Packed) else x))
        return indexed(cox, x)

    monkeypatch.setattr(hecke, "_indexed", spy)
    for w in basis.elements[1:]:
        for s in cox.gens:
            for factors in ((c_gen(cox, s), basis.c[w]),
                            (basis.c[w], c_gen(cox, s))):
                sizes.clear()
                basis.c_coordinates(multiply_t(cox, *factors))
                assert sizes == [2], (w, s)


def test_left_product_rows_are_read_only():
    basis = compute_kl_basis(3)
    for w in basis.elements:
        for s in basis.cox.gens:  # rows with sw < w and with sw > w
            row = basis.left_product(s, w)
            want = dict(row)
            for change in (lambda: row.__setitem__(w, LaurentPoly.one()),
                           lambda: row.update({w: LaurentPoly.one()}),
                           lambda: row.pop(w), row.clear, row.popitem,
                           lambda: row.setdefault(basis.elements[-1]),
                           lambda: row.__delitem__(w)):
                with pytest.raises(TypeError):
                    change()
            again = basis.left_product(s, w)
            assert again is row and again == want


@pytest.mark.parametrize("group", ["B3", "S4"])
def test_left_product_rejects_a_generator_outside_the_group(group):
    basis = hecke.KLBasis(type_b(3) if group == "B3" else type_a(4))
    w = basis.elements[5]
    for s in (-1, 4, 1.5) + ((0,) if group == "S4" else (3,)):
        with pytest.raises(weylb.IndexOutOfRange):
            basis.left_product(s, w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bar_sweep_agrees_with_the_direct_check(n):
    basis = compute_kl_basis(n)
    swept = basis.verify_bar_invariance()
    assert list(swept) == basis.elements
    assert swept == {w: basis.check_bar_invariance(w) for w in basis.elements}
    assert all(swept.values())


def test_direct_bar_check_on_every_40th_element_of_b5(b5_basis):
    elements = b5_basis.elements[::40]
    assert len(elements) == 96
    assert [w for w in elements if not b5_basis.check_bar_invariance(w)] == []


def test_bar_sweep_holds_on_every_element_of_b5(b5_basis):
    # Criterion 5's full sweep at n = 5, on the session basis.
    swept = b5_basis.verify_bar_invariance()
    assert list(swept) == b5_basis.elements
    assert len(swept) == 3840
    assert all(swept.values())


def test_bar_sees_a_perturbed_coefficient_of_c_w0_in_b5(b5_basis):
    # A copy of C_{w_0} (all 3,840 terms), then the same with v added to the
    # coefficient of one element of middle length.
    cox = b5_basis.cox
    x = dict(b5_basis.c[cox.elements[-1]])
    assert bar_involution(cox, x).decode() == x
    x[cox.elements[len(x) // 2]] += LaurentPoly.monomial(1)
    assert bar_involution(cox, x).decode() != x


def _build_row(basis, depth=2):
    """(s, sw, w) of a build row of w with a μ at an element below w."""
    cox = basis.cox
    for w in range(1, len(basis.elements)):
        s = min(k for k in cox.gens if w in cox.left[k][1])
        sw = cox.left[s][0][w]
        if len(basis.left_product(s, basis.elements[sw])) >= depth:
            return s, sw, w
    raise AssertionError("no build row with a μ")


def test_bar_sweep_fails_on_a_mu_that_is_not_bar_invariant():
    basis = compute_kl_basis(3)
    s, sw, w = _build_row(basis)
    key = s, basis.elements[sw]
    row = basis.left_product(*key)
    y = next(y for y in row if y != basis.elements[w])
    # the memoized rows are read-only: replace this one with a changed copy
    basis._rows[key] = {**row, y: row[y] + LaurentPoly.monomial(1)}
    assert not all(basis.verify_bar_invariance().values())


def test_bar_sweep_fails_on_a_bar_invariant_change_to_a_mu():
    # v + v⁻¹ is bar-invariant, so the changed μ passes the μ check, and
    # only the identity C_s C_{sw} = C_w + Σ μ_y C_y rejects w.
    basis = compute_kl_basis(3)
    s, sw, w = _build_row(basis)
    key = s, basis.elements[sw]
    row = basis.left_product(*key)
    y = next(y for y in row if y != basis.elements[w])
    basis._rows[key] = {**row, y: row[y] + LaurentPoly({1: 1, -1: 1})}
    assert not basis.verify_bar_invariance()[basis.elements[w]]


def test_bar_sweep_fails_on_a_perturbed_coefficient():
    basis = compute_kl_basis(3)
    w = basis.elements.index(weylb.evaluate_word(3, (1, 0, 1)))
    y = min(basis._c[w])  # the identity: its coefficient gains a v
    basis._c[w][y] += 1 << basis._bits
    swept = basis.verify_bar_invariance()
    assert not swept[basis.elements[w]]
    assert not basis.check_bar_invariance(basis.elements[w])


def test_bar_sweep_fails_on_a_row_term_not_below_w():
    basis = compute_kl_basis(3)
    s, sw, w = _build_row(basis, depth=1)
    key = s, basis.elements[sw]
    basis._rows[key] = {**basis.left_product(*key),  # the memoized row
                        basis.elements[-1]: LaurentPoly.one()}  # the longest
    assert not basis.verify_bar_invariance()[basis.elements[w]]


def _nonpositive_digits(h, bits, off):
    """The digits of exponent <= 0 of h, not mirrored: μ not bar-invariant."""
    return sum(d << bits * i for i, d in enumerate(digits(h, bits, off + 1)))


def test_bar_sweep_checks_every_mu(monkeypatch):
    # With μ the nonpositive part alone, the build still ends in T_w plus
    # v·Z[v] and every row holds; only the μ check sees the fault.
    monkeypatch.setattr(hecke, "bar_symmetric_low", _nonpositive_digits)
    basis = compute_kl_basis(3)
    swept = basis.verify_bar_invariance()
    direct = {w: basis.check_bar_invariance(w) for w in basis.elements}
    assert not all(direct.values())
    assert not any(swept[w] for w, ok in direct.items() if not ok)


# elimination step -> the element it builds, in B3
_BROKEN = {14: (-1, -2, 3), 6: (2, 3, 1), 19: (-1, -3, 2)}


@pytest.mark.parametrize("broken", list(_BROKEN))
def test_bar_sweep_rejects_what_rests_on_a_broken_element(broken, monkeypatch):
    # C_w gains v·T_1 in the elimination step numbered `broken`; the
    # elements built on it are consistent with it, so only the induction
    # rejects them: through a μ-term alone (14: C_(-2, -3, 1)) or through
    # sw alone (6: C_(3, 2, 1)).  In 6 and 19 w has a copied inverse,
    # which is broken too.
    real, calls = hecke._c_s_times, []

    def step(cox, s, cw, bits, off):
        out = real(cox, s, cw, bits, off)
        calls.append(s)
        if len(calls) == broken:
            out[0] = out.get(0, 0) + (1 << bits * (off + 1))
        return out

    monkeypatch.setattr(hecke, "_c_s_times", step)
    basis = compute_kl_basis(3)
    swept = basis.verify_bar_invariance()
    direct = {w: basis.check_bar_invariance(w) for w in basis.elements}
    bad = [w for w, ok in direct.items() if not ok]
    first = _BROKEN[broken]
    assert bad[0] == first and weylb.inverse(first) in bad and len(bad) > 2
    assert not any(swept[w] for w in bad)


def _t_s_times(cox, s, cw, bits, off):
    """T_s C_w in place of C_s C_w: c T_y goes to c T_{sy} (+ twist)."""
    move, descents = cox.left[s]
    a = cox._exps[s]
    out = {}
    for y, c in cw.items():
        out[move[y]] = out.get(move[y], 0) + (c << bits * off)
        if y in descents:
            out[y] = out.get(y, 0) + (c << bits * (off + a)) \
                - (c << bits * (off - a))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_bar_sweep_needs_its_base_check(n, monkeypatch):
    # Built from T_s in place of C_s, the basis is unitriangular with
    # bar-invariant μ, and every row holds with T_s as the generator; only
    # bar(T_s) != T_s shows that it is not bar-invariant.
    monkeypatch.setattr(hecke, "_c_s_times", _t_s_times)
    monkeypatch.setattr(hecke, "c_gen", t_gen)
    basis = compute_kl_basis(n)
    swept = basis.verify_bar_invariance()
    direct = {w: basis.check_bar_invariance(w) for w in basis.elements}
    assert not all(direct.values())
    assert not any(swept[w] for w, ok in direct.items() if not ok)


def test_c_coordinates_rejects_keys_outside_basis():
    basis = compute_kl_basis(2)
    with pytest.raises(weylb.SizeMismatch):
        basis.c_coordinates({(1, 2, 3): LaurentPoly.one()})


_ONE = LaurentPoly.one()
_OUTSIDE_CALLS = {
    "multiply_t left": lambda cox, key: multiply_t(cox, {key: _ONE},
                                                   {(1, 2, 3): _ONE}),
    "multiply_t right": lambda cox, key: multiply_t(cox, {(1, 2, 3): _ONE},
                                                    {key: _ONE}),
    "bar_involution": lambda cox, key: bar_involution(cox, {key: _ONE}),
    "c_coordinates": lambda cox, key: hecke.KLBasis(cox).c_coordinates(
        {(2, 1, 3): _ONE, key: _ONE}),
    "left_product": lambda cox, key: hecke.KLBasis(cox).left_product(0, key),
    "check_bar_invariance":
        lambda cox, key: hecke.KLBasis(cox).check_bar_invariance(key),
}


@pytest.mark.parametrize("call", sorted(_OUTSIDE_CALLS))
@pytest.mark.parametrize("key", [(1, 1, 2), (1, 2, 3, 4), (1, 2), (0, 1, 2)])
def test_keys_outside_the_group_raise(call, key):
    with pytest.raises(weylb.SizeMismatch):
        _OUTSIDE_CALLS[call](type_b(3), key)


def test_multiply_t_with_plain_int_values_outside_the_group():
    # Once returned {(1, 1, 2): 1} unchanged.
    with pytest.raises(weylb.SizeMismatch):
        multiply_t(type_b(3), {(1, 1, 2): 1}, {(1, 2, 3): 1})


def test_c_is_a_read_only_mapping_decoded_on_first_read():
    basis = compute_kl_basis(3)
    c = basis.c
    assert len(c) == 48 and list(c) == basis.elements
    w = basis.elements[20]
    assert c[w] is c[w] and dict(c.items())[w] is c[w]
    assert sum(len(x) for x in c.values()) == 847
    assert w in c and (1, 1, 2) not in c and (1, 2, 3, 4) not in c
    with pytest.raises(TypeError):
        c[w] = {}


def test_c_coordinates_exact_beyond_the_table_digit_width():
    # Coefficients of 2^70 do not fit 24-bit digits: the table is repacked.
    basis = compute_kl_basis(3)
    big = LaurentPoly({0: 3 ** 40, -3: -(2 ** 70), 5: 1})
    for w in basis.elements[::7]:
        coords = basis.c_coordinates({w: LaurentPoly.one()})
        assert basis.c_coordinates({w: big}) \
            == {y: c * big for y, c in coords.items()}


def test_broken_build_step_raises(monkeypatch):
    # Without the bar-symmetric correction (the packed build's
    # symmetrization step) some C_w keeps a coefficient outside v Z[v]; the
    # build must raise, not rely on `assert`.
    monkeypatch.setattr(hecke, "bar_symmetric_low", lambda h, bits, off: 0)
    with pytest.raises(weylb.InvariantViolation):
        compute_kl_basis(3)


@pytest.mark.parametrize("n, count", [(2, 6), (3, 20), (4, 76), (5, 312)])
def test_left_cells_are_domino_q_fibers(n, count, request):
    fibers: dict = {}
    for w in weylb.enumerate_wn(n):
        fibers.setdefault(domino.domino_insert(w)[1], set()).add(w)
    # at n = 5 the session's basis, which keeps its cells for the next test
    basis = request.getfixturevalue("b5_basis") if n == 5 \
        else compute_kl_basis(n)
    cells = left_cells(basis)
    assert len(cells) == count
    assert set(cells) == {frozenset(f) for f in fibers.values()}


def test_left_cells_inside_wb_of_b5_have_one_domino_shape(b5_basis):
    inside = [cell for cell in left_cells(b5_basis)
              if any(weylb.is_in_wb_by_words(u) for u in cell)]
    assert all(weylb.is_in_wb_by_words(u) for cell in inside for u in cell)
    assert len(inside) == 32 and sum(map(len, inside)) == 252
    assert all(len({domino.domino_shape(u) for u in cell}) == 1
               for cell in inside)


def test_ideal_jn_of_b5_is_two_sided_with_corank_252(b5_basis):
    ideal = ideal_jn(5, b5_basis)
    assert ideal.verify_two_sided()
    assert len(b5_basis.elements) - len(ideal.outside) == 252


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


@pytest.mark.parametrize("w", [(1, 2), (1, 2, 4)])
def test_cell_module_rejects_a_window_outside_the_group(w):
    basis = compute_kl_basis(3)
    with pytest.raises(weylb.SizeMismatch, match="is not an element of B3"):
        hecke.cell_module(basis, w)


def test_ideal_jn_rejects_a_basis_of_another_rank():
    with pytest.raises(ValueError, match="the basis is of rank 3, not 2"):
        ideal_jn(2, compute_kl_basis(3))


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
        product = _ref_multiply(f"S{2 * n}", basis.c[iota_s],
                                basis.c[hecke._iota_perm(w)])
        assert hecke._iota_s_row(basis, n, w) == basis.c_coordinates(product)


def test_tensor_ideal_small():
    for n in (2, 3):
        assert hecke.tensor_ideal_annihilates(n)
    assert hecke.ideal_vanish_symbolic(3)


@pytest.mark.parametrize("n", [0, 1])
def test_ideal_checks_refuse_fewer_than_two_strands(n):
    for check in (hecke.tensor_ideal_annihilates, hecke.ideal_vanish_symbolic):
        with pytest.raises(ValueError, match="ideal generators need n >= 2"):
            check(n)


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
        lhs = tensor.tensor_c_action(
            n, 1, tensor.tensor_c_action(n, 0, x, sc), sc)
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


def test_type_b_weight_is_v_and_v2_as_two_fixed_objects():
    v = LaurentPoly.monomial
    assert hecke.type_b_weight(0) == v(1) and hecke.type_b_weight(1) == v(2)
    assert hecke.type_b_weight(0) is hecke.type_b_weight(0)
    assert hecke.type_b_weight(1) is hecke.type_b_weight(3)


def test_every_generic_scalar_follows_the_one_weight_definition(monkeypatch):
    # (q_{s_0}, q_{s_i}) = (v², v⁵) keeps b/a < 1 and moves every value
    # derived from the weights: Q/q = v⁻³.
    v = LaurentPoly.monomial
    big_q, q = v(2), v(5)
    monkeypatch.setattr(hecke, "type_b_weight",
                        lambda k: big_q if k == 0 else q)
    cox = type_b(2)
    assert [cox.weight(k) for k in cox.gens] == [big_q, q]
    cox = type_a(3)
    assert [cox.weight(k) for k in cox.gens] == [q, q]
    two = v(3) + v(-3)  # [2]_{Q/q}
    assert hecke._ideal_generator_pairs(3) == [(2, LaurentPoly.one()),
                                               (0, two)]
    assert blob.hecke_scalars() == {"delta_plain": -(v(5) + v(-5)),
                                    "blob_loop": two,
                                    "blob_merge": -(v(2) + v(-2))}
    assert tensor.generic_tensor_scalars() == {
        "one": LaurentPoly.one(), "q": v(5), "q_inv": v(-5),
        "big_q": v(2), "big_q_inv": v(-2)}


def test_permutation_module_dims():
    from math import comb
    for n in (2, 3, 4, 5):
        for lam in range(-n, n + 1, 2):
            assert len(tensor.permutation_module(n, lam)) \
                == comb(n, (n - lam) // 2)
    with pytest.raises(partitions.WeightOutOfRange):
        tensor.permutation_module(3, 2)


def test_type_a_coxeter_sanity():
    cox = type_a(4)
    ts = t_gen(cox, 1)
    sq = multiply_t(cox, ts, ts).decode()
    assert sq[cox.identity].is_one()
