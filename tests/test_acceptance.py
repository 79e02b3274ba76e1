"""
End-to-end acceptance checks.  Each test verifies one headline claim of
the library exhaustively at desk scale and emits a single PASS/FAIL line
directly to the terminal (bypassing capture) so the run log always shows
the thirteen-line scorecard.
"""

import itertools
import time
from math import comb

import pytest

from blobcell import blob, domino, fock, hecke, knuth, partitions, tables, \
    tensor, weylb
from blobcell.laurent import LaurentPoly


@pytest.fixture
def report(capfd):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)
        assert ok, detail
    return _report


def test_criterion_01_counting(report):
    t = time.time()
    ok = True
    for n in range(1, 8):
        count = sum(1 for w in weylb.enumerate_wn(n)
                    if weylb.is_in_wb_by_words(w))
        expected = sum(comb(n, i) ** 2 for i in range(n + 1))
        ok = ok and count == expected == comb(2 * n, n)
    elapsed = time.time() - t
    report(1, ok and elapsed < 60,
           f"|W_b(n)| = sum C(n,i)^2 for n=1..7 ({elapsed:.1f}s)")


def check_02(n_max: int = 6) -> tuple:
    t = time.time()
    mismatches = 0
    for n in range(1, n_max + 1):
        for w in weylb.enumerate_wn(n):
            a = weylb.is_in_wb_by_avoidance(w)
            b = weylb.is_in_wb_by_words(w)
            c = len(domino.domino_shape(w)) <= 2
            if not (a == b == c):
                mismatches += 1
    return mismatches == 0, (f"three-way W_b equivalence n<={n_max}, "
                             f"{mismatches} mismatches "
                             f"({time.time() - t:.1f}s)")


def test_criterion_02_three_way_equivalence(report):
    report(2, *check_02())


def test_criterion_03_insertion_bijection(report):
    t = time.time()
    ok = True
    for n in range(1, 6):
        seen = set()
        for w in weylb.enumerate_wn(n):
            p, q = domino.domino_insert(w)
            ok = ok and p.shape() == q.shape()
            ok = ok and domino.domino_reverse(p, q) == w
            qkey = tuple(q.dominoes)
            ok = ok and (tuple(p.dominoes), qkey) not in seen
            seen.add((tuple(p.dominoes), qkey))
            p_inv, _ = domino.domino_insert(weylb.inverse(w))
            ok = ok and q == p_inv
        ok = ok and len(seen) == 2 ** n * len(list(
            itertools.permutations(range(n))))
    report(3, ok, f"domino insertion bijective with Q(w) = P(w^-1), n<=5 "
                  f"({time.time() - t:.1f}s)")


def test_criterion_04_knuth_classes(report):
    t = time.time()
    ok = True
    for n in range(2, 5):
        p_fibers = {}
        q_fibers = {}
        for w in weylb.enumerate_wn(n):
            p, q = domino.domino_insert(w)
            p_fibers.setdefault(p, set()).add(w)
            q_fibers.setdefault(q, set()).add(w)
        classes = {frozenset(c) for c in knuth.knuth_classes(n)}
        ok = ok and classes == {frozenset(c) for c in p_fibers.values()}
        co_classes = {frozenset(knuth.coplactic_class(min(f)))
                      for f in q_fibers.values()}
        ok = ok and co_classes == {frozenset(c) for c in q_fibers.values()}
    union_ok = True
    for n in range(2, 6):
        wb = set(weylb.enumerate_wb(n))
        for w in sorted(wb):
            union_ok = union_ok and knuth.knuth_class(w) <= wb
            union_ok = union_ok and knuth.coplactic_class(w) <= wb
    report(4, ok and union_ok,
           f"Knuth classes = P/Q-fibers n<=4; W_b a union of both kinds of "
           f"classes n<=5 ({time.time() - t:.1f}s)")


def test_criterion_05_kl_basis(report):
    t = time.time()
    basis = hecke.compute_kl_basis(4)
    ok = len(basis.elements) == 384
    # bar-invariance of every C_w, by induction from the build's rows
    ok = ok and all(basis.verify_bar_invariance().values())
    for w in basis.elements:
        exp = basis.c[w]
        ok = ok and exp[w].is_one()
        ok = ok and all(h.nonpositive_part().is_zero()
                        for y, h in exp.items() if y != w)
    cox = hecke.type_b(3)
    b3 = hecke.compute_kl_basis(3)
    c0, c1, c2 = (hecke.c_gen(cox, k) for k in range(3))

    def plus(x, y, scale=LaurentPoly.one()):
        out = dict(x)
        for w, c in y.items():
            out[w] = out.get(w, LaurentPoly.zero()) + c * scale
        return {w: c for w, c in out.items() if not c.is_zero()}

    lhs = hecke.multiply_t(cox, hecke.multiply_t(cox, c1, c2), c1).decode()
    ok = ok and lhs == plus(b3.c[weylb.evaluate_word(3, (1, 2, 1))], c1)
    lhs = hecke.multiply_t(cox, hecke.multiply_t(cox, c1, c0), c1).decode()
    ok = ok and lhs == plus(b3.c[weylb.evaluate_word(3, (1, 0, 1))], c1,
                            LaurentPoly({1: 1, -1: 1}))
    report(5, ok, f"C-basis defining properties for all 384 elements of "
                  f"W_4 and the two closed-form identities "
                  f"({time.time() - t:.1f}s)")


def test_criterion_06_ideal(report):
    t = time.time()
    ok = True
    for n in range(2, 5):
        basis = hecke.compute_kl_basis(n)
        ideal = hecke.ideal_jn(n, basis)
        ok = ok and ideal.verify_two_sided()
        ok = ok and all(ideal.contains(g) for g in ideal.generators())
        corank = len(basis.elements) - len(ideal.outside)
        ok = ok and corank == sum(comb(n, i) ** 2 for i in range(n + 1))
    report(6, ok, f"span{{C_w : w outside W_b}} two-sided with the right "
                  f"generators and corank, n<=4 ({time.time() - t:.1f}s)")


def check_07() -> tuple:
    t = time.time()
    ok = True
    for n in range(1, 5):
        ok = ok and blob.verify_presentation(
            blob.regular_representation(n), 2)["all"]
    for n in range(1, 7):
        for lam in partitions.lambda_n(n):
            mod = blob.standard_module(n, lam)
            ok = ok and blob.verify_presentation(mod.matrices, 2)["all"]
            ok = ok and mod.dimension() == comb(n, (n - lam) // 2)
            if 2 <= n <= 5:
                rank = blob.localize_dimension(mod)
                expected = 0 if abs(lam) == n \
                    else comb(n - 2, (n - 2 - lam) // 2)
                ok = ok and rank == expected
    return ok, (f"blob relations on regular rep n<=4 and on all "
                f"standard modules n<=6; dims and localization ranks "
                f"({time.time() - t:.1f}s)")


def test_criterion_07_blob_presentation(report):
    report(7, *check_07())


def test_criterion_08_tensor_space(report):
    t = time.time()
    ok = all(hecke.tensor_ideal_annihilates(n) for n in range(2, 6))
    ok = ok and hecke.ideal_vanish_symbolic(3)
    for n in range(1, 6):
        for lam in partitions.lambda_n(n):
            ok = ok and len(tensor.permutation_module(n, lam)) \
                == len(blob.half_diagrams(n, lam))
    report(8, ok, f"ideal generators annihilate V^(x)n for n<=5, symbolic "
                  f"two-variable identity, dim M = dim Delta "
                  f"({time.time() - t:.1f}s)")


def test_criterion_09_cell_vs_standard(report):
    t = time.time()
    ok = True
    for n in range(1, 5):
        rep = blob.compare_cell_to_standard(n)
        ok = ok and rep["all_match"]
        ok = ok and rep.get("identity_cell_lam") == n
        ok = ok and rep.get("s0_cell_lam") == -n
    ok = ok and len(rep["cells"]) == 16
    ok = ok and sum(e["dim_cell"] for e in rep["cells"]) == comb(8, 4)
    report(9, ok, f"every left cell in W_b matches its standard module "
                  f"entry for entry over Z[v, v^-1] (scalar identities at "
                  f"m=2, l=6), n<=4 ({time.time() - t:.1f}s)")


def test_criterion_10_type_a_transfer(report):
    t = time.time()
    ok = True
    for n in (2, 3):
        rep = hecke.type_a_kl_compare(n)
        ok = ok and rep["violations"] == [] and rep["cells_match"]
    elapsed = time.time() - t
    report(10, ok and elapsed < 600,
           f"structure-constant transfer to the equal-parameter basis of "
           f"S_4/S_6: zero violations ({elapsed:.1f}s)")


def test_criterion_11_crystal_anchors(report):
    word = (0, 1, 0, 2, 2, 1, 1, 0, 0, 2)

    def run(s):
        b = ((), ())
        for i in reversed(word):
            b = fock.crystal_f(i, b, s, 3)
            if b is None:
                return None
        return b

    ok = run((-1, 0)) == ((6,), (4,)) and run((11, 0)) == ((6, 3), (1,))
    report(11, ok, "10-operator crystal sequence gives ((6),(4)) at "
                   "s=(-1,0) and ((6,3),(1)) at s=(11,0)")


def test_criterion_12_kleshchev_tables(report):
    t = time.time()
    ok = True
    for (e, m), table in sorted(tables.KLESHCHEV_TABLES.items()):
        for lam, want in table.items():
            got = fock.kleshchev_convert(10, e, m, lam)
            ok = ok and got == want
        computed = [(lam, fock.kleshchev_convert(10, e, m, lam))
                    for lam in range(10, -11, -2)]
        ok = ok and tables.format_table(e, m, rows=computed) \
            == tables.format_table(e, m)
    elapsed = time.time() - t
    report(12, ok and elapsed < 60,
           f"all four rank-10 tables (44 rows) byte-exact "
           f"({elapsed:.1f}s)")


def test_criterion_13_decomposition_matrices(report):
    t = time.time()
    ok = True
    order_ok = True
    for e, m in ((3, 2), (5, 3)):
        geom = fock.alcove_data(e, m)
        basis = fock.canonical_basis(10, geom.s, e)
        for n in range(1, 11):
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
                    ok = ok and got == want
                for b in vec:
                    if b != mu:
                        order_ok = order_ok \
                            and partitions.bip_order(b, mu) == "less"
    report(13, ok and order_ok,
           f"decomposition numbers from the canonical basis equal the "
           f"alcove formula with POSITIVE exponent v^(l(w_mu)-l(w_lambda)) "
           f"(the printed negative orientation is inconsistent with "
           f"unitriangularity; the computation is the arbiter), and every "
           f"support element precedes mu ({time.time() - t:.1f}s)")


def _merges_with_the_wrong_sign(monkeypatch):
    scalar = blob._scalar
    monkeypatch.setattr(blob, "_scalar", lambda key, sc, memo: (
        -scalar(key, sc, memo) if key[2] % 2 else scalar(key, sc, memo)))


def _nonzero_columns_for_the_rank(monkeypatch):
    # 10 of the 18 modules with 2 <= n <= 5 differ: (4, 0) gives 6, not 2
    monkeypatch.setattr(blob, "localize_dimension", lambda mod: len({
        j for row in mod.matrices[mod.n - 1]
        for j, x in enumerate(row) if not x.is_zero()}))


def _s0s1s0_forbidden_in_place_of_s1s0s1(monkeypatch):
    # ends in s_0 s_1 s_0 iff w_1, w_2 < 0: (1, -2) passes at n = 2
    monkeypatch.setattr(weylb, "_ends_in_forbidden_triple", lambda w: (
        len(w) > 1 and w[0] < 0 and w[1] < 0
        or any(x > y > z for x, y, z in zip(w, w[1:], w[2:]))))


def _type_a_triples_allowed(monkeypatch):
    # only the B_2 end is read: (3, 2, 1) passes at n = 3
    ends = weylb._ends_in_forbidden_triple
    monkeypatch.setattr(weylb, "_ends_in_forbidden_triple",
                        lambda w: ends(w[:2]))


CHECKS = {2: check_02, 7: check_07}
# each plant with the arguments of the smallest check that shows it
DEFECTS = {2: ((_s0s1s0_forbidden_in_place_of_s1s0s1, (2,)),
               (_type_a_triples_allowed, (3,))),
           7: ((_merges_with_the_wrong_sign, ()),
               (_nonzero_columns_for_the_rank, ()))}


@pytest.mark.parametrize("num", sorted(DEFECTS))
def test_criterion_fails_under_a_planted_defect(num, monkeypatch):
    for plant, args in DEFECTS[num]:
        assert CHECKS[num](*args)[0]
        # the W_b memo must neither answer the plant from earlier entries
        # nor keep the plant's entries for later tests
        weylb._has_forbidden_word.cache_clear()
        with monkeypatch.context() as patched:
            plant(patched)
            assert not CHECKS[num](*args)[0], plant.__name__
        weylb._has_forbidden_word.cache_clear()
