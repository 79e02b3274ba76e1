"""Blob diagrams, the diagram algebra, and its standard modules."""

import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from math import comb

import pytest

from blobcell import blob, hecke, laurent, partitions, weylb
from blobcell.blob import (
    all_diagrams, blob_algebra_dimension, blob_scalars, compose_diagrams,
    generator_diagram, half_diagrams, identity_diagram,
    regular_representation, standard_module, verify_presentation,
)
from blobcell.laurent import LaurentPoly, cyclotomic_root
from blobcell.weylb import BoundExceeded, SizeMismatch


def test_dimension_formula():
    for n in range(1, 8):
        assert len(all_diagrams(n)) == blob_algebra_dimension(n) \
            == comb(2 * n, n)
    with pytest.raises(BoundExceeded, match="n=9 exceeds diagram bound 8"):
        blob_algebra_dimension(9)
    assert blob_algebra_dimension(9, bound=9) == comb(18, 9)


def _reference_compose(a, b, m=2):
    """a·b by the adjacency-list straightening that `compose_diagrams`
    used before it walked the strands of the arrays: points c of a and
    2n + c of b, a's bottom column j (2n-1-j) joined to b's top column j,
    and every strand and loop followed through adjacency lists."""
    n, sc = a.n, blob_scalars(m)
    edges = [(off + p, off + q, x.blobs >> p & 1)
             for off, x in ((0, a), (2 * n, b)) for p, q in x.lines()]
    edges += [(2 * n - 1 - j, 2 * n + j, False) for j in range(n)]
    boundary = set(range(n)) | set(range(3 * n, 4 * n))
    adj = {}
    for u, v, blobs in edges:
        adj.setdefault(u, []).append((v, blobs))
        adj.setdefault(v, []).append((u, blobs))
    seen = set()

    def walk(start):
        total, prev, cur = 0, None, start
        while True:
            seen.add(cur)
            nxt, blobs = next(e for e in adj[cur] if e[0] != prev)
            total += blobs
            prev, cur = cur, nxt
            if cur == start or cur in boundary:
                seen.add(cur)
                return cur, total

    partner, blobbed, scalar = [0] * (2 * n), 0, LaurentPoly.one()
    for start in sorted(boundary):
        if start not in seen:
            end, k = walk(start)
            p, q = start % (2 * n), end % (2 * n)
            partner[p], partner[q] = q, p
            if k:
                blobbed |= 1 << p | 1 << q
                scalar = scalar * sc["blob_merge"] ** (k - 1)
    for start in adj:
        if start not in seen:
            k = walk(start)[1]
            scalar = scalar * (sc["blob_loop"] * sc["blob_merge"] ** (k - 1)
                               if k else sc["delta_plain"])
    return scalar, blob.BlobDiagram(tuple(partner), blobbed)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_compose_matches_the_frozenset_reference(m):
    pairs = [(a, b) for n in (1, 2, 3) for a in all_diagrams(n)
             for b in all_diagrams(n)]
    gens = [generator_diagram(4, k) for k in range(4)]
    pairs += [p for g in gens for d in all_diagrams(4) for p in ((g, d), (d, g))]
    for a, b in pairs:
        assert compose_diagrams(a, b, m) == _reference_compose(a, b, m), (a, b)


def test_a_blob_on_a_nested_line_raises():
    # the identity on 2 strands with a blob on its inner line {1, 2},
    # which {0, 3} encloses: its product with anything keeps that blob
    bad = blob.BlobDiagram(identity_diagram(2).partner, 1 << 1 | 1 << 2)
    for a, b in ((bad, identity_diagram(2)), (identity_diagram(2), bad)):
        with pytest.raises(blob.ExposureViolation):
            compose_diagrams(a, b)


def test_identity_neutral():
    for n in (2, 3):
        e = identity_diagram(n)
        for k in range(n):
            u = generator_diagram(n, k)
            for a, b in ((e, u), (u, e)):
                scalar, d = compose_diagrams(a, b)
                assert scalar.is_one() and d == u


def test_generator_squares():
    sc = blob_scalars(2)
    n = 3
    u0 = generator_diagram(n, 0)
    scalar, d = compose_diagrams(u0, u0)
    assert d == u0 and scalar == sc["blob_merge"]
    u1 = generator_diagram(n, 1)
    scalar, d = compose_diagrams(u1, u1)
    assert d == u1 and scalar == sc["delta_plain"]


def test_blob_braid_scalar():
    # U_1 U_0 U_1 = [m-1] U_1
    sc = blob_scalars(2)
    n = 2
    u0, u1 = generator_diagram(n, 0), generator_diagram(n, 1)
    s1, d = compose_diagrams(u1, u0)
    s2, d = compose_diagrams(d, u1)
    assert d == u1 and s1 * s2 == sc["blob_loop"]


def test_standard_module_dims():
    for n in range(1, 7):
        for lam in partitions.lambda_n(n):
            assert len(half_diagrams(n, lam)) == comb(n, (n - lam) // 2)
    with pytest.raises(blob.WeightOutOfRange):
        half_diagrams(3, 2)
    assert blob.WeightOutOfRange is partitions.WeightOutOfRange


def test_presentation_on_standard_modules():
    for n in (1, 2, 3):
        for lam in partitions.lambda_n(n):
            mod = standard_module(n, lam)
            rep = verify_presentation(mod.matrices, 2)
            assert rep["all"], (n, lam, rep)


# SHA-256 of the sorted nonzero entries (n, λ, k, row, column, coefficient
# items) of every Δ_n(λ) with n <= 6.  The values were recorded with a
# separate half-diagram gluing routine, so they check the compose_diagrams
# path against an independent computation.
_STANDARD_MODULE_DIGESTS = {
    1: "2c63acd676fd9db14a67e71e5b695e461028994bc2ab95028089f6e5b5ad1336",
    3: "e1fd622a53143a7af8b9e06c491b982539df1caa8616ca90e173dd28aa847e9b",
    4: "e9158f8a6c19f7035e544ccd28c51f5b4dc703d27337e9cf07f6f455faeeca78",
}


@pytest.mark.parametrize("m", sorted(_STANDARD_MODULE_DIGESTS))
def test_standard_modules_pinned_beyond_m_2(m):
    items = []
    for n in range(1, 7):
        for lam in partitions.lambda_n(n):
            mats = standard_module(n, lam, m).matrices
            assert verify_presentation(mats, m)["all"], (n, lam, m)
            items += [(n, lam, k, i, j, tuple(sorted(x.items())))
                      for k, mat in mats.items()
                      for i, row in enumerate(mat)
                      for j, x in enumerate(row) if not x.is_zero()]
    digest = hashlib.sha256(repr(sorted(items)).encode()).hexdigest()
    assert digest == _STANDARD_MODULE_DIGESTS[m]


def _lines(d, top):
    """d's lines on the points < top, and the blobbed ones among them."""
    lines = [l for l in d.lines() if l[1] < top]
    return lines, [l for l in lines if d.blobs >> l[0] & 1]


def _basis_items(family):
    """What the pins below read: each diagram of `all_diagrams(n)` as
    (lines, blobbed lines), each half-diagram of Δ_n(λ) as (arcs, blobbed
    arcs), and each nonzero entry of the regular representation's U_k."""
    if family == "all_diagrams":
        return [(n, *_lines(d, 2 * n))
                for n in range(1, 7) for d in all_diagrams(n)]
    if family == "half_diagrams":
        return [(n, lam, *_lines(h, n))
                for n in range(1, 7) for lam in partitions.lambda_n(n)
                for h in half_diagrams(n, lam)]
    return [(n, m, k, i, j, tuple(sorted(x.items())))
            for n in range(1, 5) for m in (1, 2, 3)
            for k, mat in regular_representation(n, m).items()
            for i, row in enumerate(mat)
            for j, x in enumerate(row) if not x.is_zero()]


# SHA-256 of `_basis_items`, in basis order: the relations alone would
# still hold on a permuted basis.
_BASIS_ORDER_DIGESTS = {
    "all_diagrams":
        "7af02ae425f3a65237f827d996771758da4c29a7a28c366d03f9ddf95e4ef22e",
    "half_diagrams":
        "39e7bca62ce24311306ce186d962d61e09aea1affd13f3425e988ddc9cf739c3",
    "regular_representation":
        "d2ac1c52e25ee654bdfd9c1a94e7a0a920302706e45385155f40e7ba7c460d94",
}


@pytest.mark.parametrize("family", sorted(_BASIS_ORDER_DIGESTS))
def test_basis_orders_pinned(family):
    digest = hashlib.sha256(repr(_basis_items(family)).encode()).hexdigest()
    assert digest == _BASIS_ORDER_DIGESTS[family]


def test_verify_presentation_rejects_unequal_or_ragged_shapes():
    z = LaurentPoly.zero()
    for mats in ({0: [[z]], 1: [[z, z], [z, z]]},
                 {0: [[z, z], [z]], 1: [[z, z], [z, z]]},
                 {0: [[z, z]], 1: [[z, z]]}):
        with pytest.raises(SizeMismatch, match="not all square of one size"):
            verify_presentation(mats)


def test_verify_presentation_sees_one_wrong_entry():
    # each relation family fails once a single entry of Δ_3(1) is changed
    mats = standard_module(3, 1).matrices
    for k, mat in mats.items():
        for i, j in itertools.product(range(len(mat)), repeat=2):
            wrong = {**mats, k: [list(row) for row in mat]}
            wrong[k][i][j] = mat[i][j] + LaurentPoly.one()
            assert not verify_presentation(wrong)["all"], (k, i, j)


def test_presentation_on_regular_representation():
    for n in (1, 2, 3):
        rep = verify_presentation(regular_representation(n), 2)
        assert rep["all"], (n, rep)


def test_localization_ranks():
    for n in range(2, 9):
        for lam in partitions.lambda_n(n):
            mod = standard_module(n, lam)
            rank = blob.localize_dimension(mod)
            expected = 0 if abs(lam) == n else comb(n - 2,
                                                    (n - 2 - lam) // 2)
            assert rank == expected, (n, lam, rank, expected)


def _column_counts(mat) -> Counter:
    return Counter(j for row in mat for j, x in enumerate(row)
                   if not x.is_zero())


def test_generators_have_monomial_columns():
    # U_k times a diagram is one diagram times a scalar: the premise of
    # localize_dimension, on every standard module and the regular action.
    actions = [regular_representation(n, m)
               for n in range(1, 5) for m in (1, 2, 3)]
    actions += [standard_module(n, lam, m).matrices
                for n in range(1, 9) for lam in partitions.lambda_n(n)
                for m in (1, 2, 3)]
    for mats in actions:
        for k, mat in mats.items():
            assert max(_column_counts(mat).values(), default=0) <= 1, k


def test_localize_dimension_rejects_a_column_with_two_entries():
    mod = standard_module(4, 0)
    mat = mod.matrices[3]
    j = next(iter(_column_counts(mat)))
    i = next(i for i, row in enumerate(mat) if row[j].is_zero())
    mat[i][j] = LaurentPoly.one()
    with pytest.raises(weylb.InvariantViolation, match="holds two"):
        blob.localize_dimension(mod)


def _random_poly(rng):
    if rng.random() < 0.3:
        return LaurentPoly.zero()
    return LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 1, 3))
                        for _ in range(rng.randint(1, 3))})


def _dense_mul(a, b):
    zero = LaurentPoly.zero()
    return [[sum((x * y[j] for x, y in zip(row, b)), zero)
             for j in range(len(b[0]))] for row in a]


def test_pair_products_match_sums():
    rng = random.Random(3)
    for size in range(1, 6):
        for _ in range(5):
            mats = {k: [[_random_poly(rng) for _ in range(size)]
                        for _ in range(size)] for k in range(3)}
            # row 0 of u_0·u_1 cancels: its two terms are p·r and p·(-r)
            if size > 1:
                p = _random_poly(rng) + LaurentPoly.one()
                mats[0][0] = [p, p] + [LaurentPoly.zero()] * (size - 2)
                mats[1][1] = [-x for x in mats[1][0]]
            got = blob._pair_products({k: blob._sparse(mat)
                                       for k, mat in mats.items()})
            assert got == {(i, j): blob._sparse(_dense_mul(a, b))
                           for i, a in mats.items() for j, b in mats.items()}
            if size > 1:
                assert got[0, 1][0] == {}


def test_blob_modules_do_not_import_sympy():
    # every module of the library, as tests/test_doctests.py finds them
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import importlib, pkgutil, sys\n"
            "import blobcell\n"
            "for m in pkgutil.iter_modules(blobcell.__path__):\n"
            "    importlib.import_module(f'blobcell.{m.name}')\n"
            "from blobcell import blob, hecke\n"
            "assert blob.localize_dimension(blob.standard_module(4, 0)) == 2\n"
            "assert hecke.ideal_vanish_symbolic(3)\n"
            "print('sympy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cyclotomic_spec():
    # v = zeta_N^k with q = v^2 and Q = v: q^l = 1, q^2 != 1, Q = i q^m and
    # q = -q^(2m), at l = 2(2m - 1), N = 2l.
    assert blob.cyclotomic_spec(2) == (12, 7)  # v = zeta_12^7 for l = 6
    for m in range(2, 16):
        big_n, k = blob.cyclotomic_spec(m)
        l = 2 * (2 * m - 1)
        assert big_n == 2 * l
        v, q = cyclotomic_root(big_n, k), cyclotomic_root(big_n, 2 * k)
        i = cyclotomic_root(big_n, big_n // 4)
        assert (i * i).is_minus_one()
        assert (q ** l).is_one()
        assert not (q * q).is_one()
        assert v == i * q ** m
        assert q == -(q ** (2 * m))
        # k is the least exponent with these four properties
        for j in range(1, k):
            qj = cyclotomic_root(big_n, 2 * j)
            assert (qj * qj).is_one() or cyclotomic_root(big_n, j) \
                != i * qj ** m or qj != -(qj ** (2 * m))
    for m in (-1, 0, 1):
        with pytest.raises(blob.SpecializationInvalid, match="no valid root"):
            blob.cyclotomic_spec(m)


def test_compare_cell_to_standard_n2():
    report = blob.compare_cell_to_standard(2)
    assert report["all_match"]
    assert report["identity_cell_lam"] == 2
    assert report["s0_cell_lam"] == -2


def test_w0_has_one_cell_matching_the_one_standard_module():
    basis = hecke.compute_kl_basis(0)
    assert basis.elements == [()]
    assert hecke.left_cells(basis) == [frozenset({()})]
    report = blob.compare_cell_to_standard(0)
    assert [cell["lam"] for cell in report["cells"]] == [0]
    assert report["all_match"] and report["identity_cell_lam"] == 0
    for mats in (blob.regular_representation(0),
                 blob.standard_module(0, 0).matrices):
        assert blob.verify_presentation(mats)["all"]


def test_compare_cell_to_standard_matches_the_32_cells_of_b5(b5_basis):
    report = blob.compare_cell_to_standard(5, bound=5, basis=b5_basis)
    assert report["all_match"]
    assert len(report["cells"]) == 32
    assert sum(cell["dim_cell"] for cell in report["cells"]) == 252


@pytest.fixture(scope="module")
def bases():
    """The C-bases of W_2, W_3 and W_4, built once for the comparisons."""
    return {n: hecke.compute_kl_basis(n) for n in (2, 3, 4)}


def test_compare_cell_to_standard_takes_a_built_basis(bases, monkeypatch):
    expected = blob.compare_cell_to_standard(3)

    def refuse(*args, **kwargs):
        raise AssertionError("a C-basis was built")

    monkeypatch.setattr(hecke, "compute_kl_basis", refuse)
    assert blob.compare_cell_to_standard(3, basis=bases[3]) == expected
    with pytest.raises(ValueError, match="rank 3, not 2"):
        blob.compare_cell_to_standard(2, basis=bases[3])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compare_cell_to_standard_sees_the_wrong_standard_module(
        n, bases, monkeypatch):
    # Negative control: every cell with λ != 0 compared with Δ_n(-λ), of the
    # same dimension, must fail: no top half of D(w) is a basis element.
    assert blob.compare_cell_to_standard(n, basis=bases[n])["all_match"]
    real = blob.half_diagrams
    monkeypatch.setattr(blob, "half_diagrams", lambda n, lam: real(n, -lam))
    report = blob.compare_cell_to_standard(n, basis=bases[n])
    assert not report["all_match"]
    for entry in report["cells"]:
        assert entry["dims_match"] and entry["relations"]
        assert entry["traces_match"] == (entry["lam"] == 0)


def _unit_with_the_wrong_sign(monkeypatch):
    """d = i(q - q⁻¹) taken as -d, by specializing i to -i."""
    real = laurent.cyclotomic_root
    monkeypatch.setattr(
        laurent, "cyclotomic_root",
        lambda n, power=1: -real(n, power) if power == n // 4
        else real(n, power))


def test_compare_cell_to_standard_sees_the_unit_with_the_wrong_sign(
        bases, monkeypatch):
    # Negative control: d = i(q - q⁻¹) taken as -d, by specializing i to -i:
    # the scalar identities fail, while every cell still equals its Δ_3(λ).
    _unit_with_the_wrong_sign(monkeypatch)
    report = blob.compare_cell_to_standard(3, basis=bases[3])
    assert not report["all_match"]
    assert all(entry[key] for entry in report["cells"]
               for key in ("dims_match", "relations", "traces_match"))


@pytest.mark.parametrize("m", range(2, 16))
def test_specialization_identities_hold_at_every_m_within_the_conductor(
        m, monkeypatch):
    # W_1 has two cells, so all_match is the check of the scalar identities
    # at cyclotomic_spec(m); m = 16 needs conductor 124 > 120.
    assert blob.compare_cell_to_standard(1, m)["all_match"]
    _unit_with_the_wrong_sign(monkeypatch)
    report = blob.compare_cell_to_standard(1, m)
    assert not report["all_match"]
    assert all(entry[key] for entry in report["cells"]
               for key in ("dims_match", "relations", "traces_match"))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("wrong, failing", [
    ({"blob_merge": blob.hecke_scalars()["blob_loop"]},
     ("relations", "traces_match")),
    ({"blob_loop": -blob.hecke_scalars()["delta_plain"]},
     ("relations", "traces_match")),
    ({}, ("traces_match",)),
], ids=["merge-plus-y", "loop-v2-plus-v-2", "reversed-word"])
def test_compare_cell_to_standard_sees_a_wrong_map(n, wrong, failing, bases,
                                                   monkeypatch):
    # Negative controls: the merge taken as +y, the blob loop as v² + v⁻²,
    # and D(w) from the reversed reduced word, which puts its bottom on top.
    real, word = blob.hecke_scalars(), weylb.reduced_word
    monkeypatch.setattr(blob, "hecke_scalars", lambda: {**real, **wrong})
    if not wrong:
        monkeypatch.setattr(weylb, "reduced_word", lambda w: word(w)[::-1])
    report = blob.compare_cell_to_standard(n, basis=bases[n])
    assert not report["all_match"]
    for key in failing:
        assert not all(entry[key] for entry in report["cells"]), key


def _frozen(rows):
    return tuple(tuple(sorted(row.items())) for row in rows)


def test_compare_multiplies_each_generator_pair_once_per_matrix_set(
        bases, monkeypatch):
    # Spy on the sparse product.  Each cell opens a matrix set, its C_s over
    # ℤ[v, v⁻¹]; within it, the products whose factors are both generator
    # matrices (no factor an earlier product) are each ordered pair once.
    n = 3
    sets, calls, made = [], [], []
    real_mul, real_cell = blob._sparse_mul, hecke.cell_module

    def cell_spy(basis, w):
        out = real_cell(basis, w)
        sets.append((len(calls), [_frozen(blob._sparse(out[1][s]))
                                  for s in range(n)]))
        return out

    def mul_spy(a, b):
        out = real_mul(a, b)
        made.append(out)  # kept alive, so no later matrix reuses its id
        if not {id(a), id(b)} & {id(x) for x in made[:-1]}:
            calls.append((_frozen(a), _frozen(b)))
        return out

    monkeypatch.setattr(hecke, "cell_module", cell_spy)
    monkeypatch.setattr(blob, "_sparse_mul", mul_spy)
    report = blob.compare_cell_to_standard(n, basis=bases[n])
    assert report["all_match"]
    assert len(sets) == len(report["cells"])
    for (start, gens), (stop, _) in zip(sets, sets[1:] + [(len(calls), 0)]):
        assert Counter(calls[start:stop]) \
            == Counter((a, b) for a in gens for b in gens)


def test_scalars():
    sc = blob_scalars(2)
    v = LaurentPoly.monomial(1)
    assert sc["delta_plain"] == -(v + v.bar())
    assert sc["blob_loop"] == LaurentPoly.one()   # [m-1] = [1] = 1
    assert sc["blob_merge"] == -(v + v.bar())     # -[m] = -[2]
    # C_s² = -(q_s + q_s⁻¹)C_s in hecke.type_b: q_{s_1} = v², q_{s_0} = v
    sc, q = blob.hecke_scalars(), hecke.type_b(2).weight
    assert sc["delta_plain"] == -(q(1) + q(1).bar())
    assert sc["blob_merge"] == -(q(0) + q(0).bar()) == -sc["blob_loop"]


def test_compare_cell_to_standard_builds_its_basis_within_its_bound(monkeypatch):
    # It once checked n against `bound` but built the C-basis with the
    # default KL bound 4, so n = 5 could not pass even with bound 5.  Now
    # `bound` only goes to compute_kl_basis, whose check is the one check.
    with pytest.raises(BoundExceeded, match="n=5 exceeds KL bound 4"):
        blob.compare_cell_to_standard(5)
    seen = []

    class Stop(Exception):
        pass

    def spy(n, bound=None):
        seen.append((n, bound))
        raise Stop

    monkeypatch.setattr(hecke, "compute_kl_basis", spy)
    with pytest.raises(Stop):
        blob.compare_cell_to_standard(5, bound=5)
    assert seen == [(5, 5)]
