"""
The in-process workloads: `hecke-products`, `fock-canonical` and
`combinatorics`.

Each is built from a seed into a list of tasks (see harness.Task).  A check
never trusts the code under test to judge itself: it uses closed-form facts
(descent identities, bar-invariance of the coordinates, known counts),
group arithmetic written here from scratch, and digests of the outputs
recorded at the seed commit.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from blobcell import blob, domino, fock, hecke, knuth, partitions, weylb
from blobcell.laurent import LaurentPoly

from harness import Scale, Task, check, random_window


# ---------------------------------------------------------------------------
# Signed permutations, written independently of `weylb`
# ---------------------------------------------------------------------------


def signed_perms(n: int) -> list[tuple]:
    return [tuple(s * x for s, x in zip(signs, perm))
            for perm in itertools.permutations(range(1, n + 1))
            for signs in itertools.product((1, -1), repeat=n)]


def b_length(w) -> int:
    """Björner-Brenti: inv(w) + neg(w) + nsp(w)."""
    n = len(w)
    pairs = [(w[i], w[j]) for i in range(n) for j in range(i + 1, n)]
    return (sum(a > b for a, b in pairs) + sum(x < 0 for x in w)
            + sum(a + b < 0 for a, b in pairs))


def left_mult(k: int, w) -> tuple:
    """s_k * w: s_0 negates the value 1, s_k swaps the values k and k+1."""
    def act(x):
        a = abs(x)
        if k == 0:
            return -x if a == 1 else x
        if a == k:
            return (k + 1) if x > 0 else -(k + 1)
        if a == k + 1:
            return k if x > 0 else -k
        return x
    return tuple(act(x) for x in w)


def right_mult(w, k: int) -> tuple:
    """w * s_k: s_0 negates the first slot, s_k swaps slots k and k+1."""
    if k == 0:
        return (-w[0],) + tuple(w[1:])
    lst = list(w)
    lst[k - 1], lst[k] = lst[k], lst[k - 1]
    return tuple(lst)


def signed_inverse(w) -> tuple:
    out = [0] * len(w)
    for k, x in enumerate(w, start=1):
        out[abs(x) - 1] = k if x > 0 else -k
    return tuple(out)


def _weight_exp(k: int) -> int:
    """q_{s_0} = v, q_{s_k} = v^2 for k >= 1."""
    return 1 if k == 0 else 2


def _is_bar_invariant(p: LaurentPoly) -> bool:
    c = dict(p.items())
    return all(c.get(-e, 0) == x for e, x in c.items())


def _only_positive(p: LaurentPoly) -> bool:
    return all(e > 0 for e, _ in p.items())


def table_form(table: dict) -> str:
    """Canonical text of a {key: {key: LaurentPoly}} table, for its digest."""
    return repr(sorted((k, sorted((y, sorted(p.items())) for y, p in row.items()))
                       for k, row in table.items()))


def _check_product(coords: dict, w, k: int, side: str) -> None:
    """
    C_s C_w (side 'L') or C_w C_s (side 'R'): -(q_s + q_s^-1) C_w when s is
    a descent of w on that side, otherwise C_{sw} + sum of mu C_z over z
    below w with s a descent of z, all coordinates bar-invariant.
    """
    mult = (lambda u: left_mult(k, u)) if side == "L" else \
        (lambda u: right_mult(u, k))
    lw = b_length(w)
    a = _weight_exp(k)
    tag = f"{side} s{k} {w}"
    if b_length(mult(w)) < lw:
        check(set(coords) == {w}, f"{tag}: support {sorted(coords)} != {{w}}")
        check(dict(coords[w].items()) == {a: -1, -a: -1},
              f"{tag}: coefficient {coords[w]} != -(q_s + q_s^-1)")
        return
    sw = mult(w)
    check(sw in coords and coords[sw].is_one(),
          f"{tag}: coefficient of C_sw is not 1")
    for z, p in coords.items():
        check(_is_bar_invariant(p), f"{tag}: coordinate at {z} not bar-invariant")
        if z != sw:
            check(b_length(z) < lw and b_length(mult(z)) < b_length(z),
                  f"{tag}: term {z} is not below w with s a descent")


# ---------------------------------------------------------------------------
# hecke-products
# ---------------------------------------------------------------------------


def _by_length(n: int) -> dict[int, list]:
    out: dict[int, list] = {}
    for w in signed_perms(n):
        out.setdefault(b_length(w), []).append(w)
    for ws in out.values():
        ws.sort()
    return out


def _stratified(rng: random.Random, levels: dict, lengths, per_level: int) -> list:
    out = []
    for ell in lengths:
        pool = levels[ell]
        out += rng.sample(pool, min(per_level, len(pool)))
    return out


def hecke_products(rng: random.Random, sc: Scale, population: bool = False) -> list[Task]:
    levels = _by_length(4)
    if population:
        products = sorted(w for ws in levels.values() for w in ws)
    else:
        products = _stratified(rng, levels, sc.product_lengths,
                               sc.product_per_length)
    bars = _stratified(rng, levels, sc.bar_lengths, sc.bar_per_length)
    order = 2 ** 4 * 24

    def build(state):
        state["b4"] = hecke.compute_kl_basis(4)
        return state["b4"]

    def check_build(basis, state):
        check(len(basis.elements) == order, f"|W_4| = {len(basis.elements)}")
        for w in basis.elements:
            cw = basis.c[w]
            check(cw.get(w) is not None and cw[w].is_one(),
                  f"C_{w}: T_w coefficient is not 1")
            for y, h in cw.items():
                if y != w:
                    check(_only_positive(h) and b_length(y) < b_length(w),
                          f"C_{w}: bad coefficient at {y}")
        return table_form(basis.c)

    def products_of(w):
        def call(state):
            b4 = state["b4"]
            cox = b4.cox
            left = {k: b4.c_coordinates(hecke.multiply_t(
                cox, hecke.c_gen(cox, k), b4.c[w])) for k in cox.gens}
            right = {k: b4.c_coordinates(hecke.multiply_t(
                cox, b4.c[w], hecke.c_gen(cox, k))) for k in cox.gens}
            return left, right

        def chk(result, state):
            left, right = result
            for k in range(4):
                _check_product(left[k], w, k, "L")
                _check_product(right[k], w, k, "R")
            return state["b4"].c[w], left, right
        return Task(f"products {w}", call, chk, f"hecke/products/{w}")

    def bar_of(w):
        def call(state):
            return state["b4"].check_bar_invariance(w)

        def chk(result, state):
            check(result is True, f"bar(C_{w}) != C_{w}")
        return Task(f"bar {w}", call, chk)

    def b3_cells(state):
        state["b3"] = hecke.compute_kl_basis(3)
        return hecke.left_cells(state["b3"])

    def check_cells(cells, state):
        check(len(cells) == 20, f"{len(cells)} left cells in B3, expected 20")
        members = [w for c in cells for w in c]
        check(sorted(members) == sorted(signed_perms(3)),
              "left cells do not partition W_3")
        q_fibers: dict = {}
        for w in signed_perms(3):
            q_fibers.setdefault(domino.domino_insert(w)[1], set()).add(w)
        check({frozenset(c) for c in cells}
              == {frozenset(f) for f in q_fibers.values()},
              "left cells of B3 are not the Q-fibers of domino insertion")
        return cells

    def ideal(state):
        idl = hecke.ideal_jn(3, state["b3"])
        return (idl.verify_two_sided(),
                [idl.contains(g) for g in idl.generators()],
                len(state["b3"].elements) - len(idl.outside))

    def check_ideal(result, state):
        two_sided, gens_inside, corank = result
        check(two_sided, "ideal J_3 is not two-sided")
        check(gens_inside and all(gens_inside), "a generator lies outside J_3")
        check(corank == comb(6, 3), f"corank {corank} != C(6,3)")
        return result

    def cell_modules(state):
        b3 = state["b3"]
        wb_cells = [c for c in hecke.left_cells(b3)
                    if weylb.is_in_wb_by_words(min(c))]
        return [hecke.cell_module(b3, min(c)) for c in wb_cells]

    def check_cell_modules(mods, state):
        check(len(mods) > 0, "no cell modules")
        for cell, mats in mods:
            for k, mat in mats.items():
                a = _weight_exp(k)
                for j, z in enumerate(cell):
                    if b_length(left_mult(k, z)) < b_length(z):
                        col = [mat[i][j] for i in range(len(cell))]
                        want = [dict(x.items()) for x in col]
                        check(all(want[i] == ({a: -1, -a: -1} if i == j else {})
                                  for i in range(len(cell))),
                              f"cell module of {cell[0]}: column {z} under C_{k}")
        return mods

    def check_type_a(rep, state):
        check(rep["violations"] == [] and rep["cells_match"]
              and rep["pairs_checked"] > 0, f"type-A transfer failed: {rep}")
        return rep

    def check_compare(rep, state):
        n = sc.compare_n
        check(rep["all_match"], "a cell module does not match its Delta")
        check(rep.get("identity_cell_lam") == n and rep.get("s0_cell_lam") == -n,
              "identity / s0 cells have the wrong weight")
        for e in rep["cells"]:
            check(e["dim_delta"] == comb(n, (n - e["lam"]) // 2),
                  f"dim Delta({e['lam']}) = {e['dim_delta']}")
        return rep

    tasks = [Task("kl_build B4", build, check_build, "hecke/kl_build/B4")]
    tasks += [products_of(w) for w in products]
    tasks += [bar_of(w) for w in bars]
    tasks += [
        Task("left_cells B3", b3_cells, check_cells, "hecke/left_cells/B3"),
        Task("ideal B3", ideal, check_ideal, "hecke/ideal/B3"),
        Task("cell_module B3", cell_modules, check_cell_modules,
             "hecke/cell_module/B3"),
        Task("type_a_kl_compare 2", lambda s: hecke.type_a_kl_compare(2),
             check_type_a, "hecke/type_a/2"),
        Task(f"compare_cell_to_standard {sc.compare_n}",
             lambda s: blob.compare_cell_to_standard(sc.compare_n),
             check_compare, f"blob/compare/{sc.compare_n}"),
    ]
    return tasks


# ---------------------------------------------------------------------------
# fock-canonical
# ---------------------------------------------------------------------------

CRYSTAL_WORD = (0, 1, 0, 2, 2, 1, 1, 0, 0, 2)
CRYSTAL_ANCHORS = {(-1, 0): ((6,), (4,)), (11, 0): ((6, 3), (1,))}


def _check_unitriangular(basis: dict) -> None:
    for mu, vec in basis.items():
        check(mu in vec and vec[mu].is_one(), f"G{mu}: coefficient at mu != 1")
        for b, c in vec.items():
            check(b == mu or _only_positive(c),
                  f"G{mu}: coefficient at {b} not in v Z[v]")


def fock_canonical(rng: random.Random, sc: Scale, goldens: dict) -> list[Task]:
    deg = sc.canonical_degree
    rows = goldens["kleshchev_rows"]
    tables = sorted(rows)[:sc.kleshchev_tables]
    words = [tuple(rng.randrange(3) for _ in range(10))
             for _ in range(sc.crystal_words)]

    def canonical(state):
        geom = fock.alcove_data(3, 2)
        return fock.canonical_basis(deg, geom.s, 3, bound=deg)

    def check_canonical(basis, state):
        check(((), ()) in basis, "empty bipartition missing")
        _check_unitriangular(basis)
        return table_form(basis)

    def decomp(e, m):
        def call(state):
            geom = fock.alcove_data(e, m)
            basis = fock.canonical_basis(10, geom.s, e)
            out, below = {}, {}
            for n in range(1, 11):
                lams = [x for x in partitions.lambda_n(n) if not geom.is_wall(x)]
                for mu_w in lams:
                    mu = partitions.one_line_of_weight(n, mu_w)
                    vec = basis[mu]
                    for lam_w in lams:
                        lam = partitions.one_line_of_weight(n, lam_w)
                        want = (LaurentPoly.one() if lam_w == mu_w else
                                fock.decomposition_number(geom, lam_w, mu_w))
                        out[(n, lam_w, mu_w)] = (
                            vec.get(lam, LaurentPoly.zero()), want)
                    below[(n, mu_w)] = all(partitions.bip_order(b, mu) == "less"
                                           for b in vec if b != mu)
            return basis, out, below

        def chk(result, state):
            basis, out, below = result
            _check_unitriangular(basis)
            for key, (got, want) in out.items():
                check(got == want, f"e={e}: d{key} = {got}, alcove formula {want}")
            for key, ok in below.items():
                check(ok, f"e={e}: support of G at {key} not below mu")
            return out
        return Task(f"decomp 10 e={e} m={m}", call, chk, f"fock/decomp/{e},{m}")

    def kleshchev(key):
        e, m = map(int, key.split(","))
        lams = list(range(10, -11, -2))
        rng.shuffle(lams)

        def call(state):
            return {lam: fock.kleshchev_convert(10, e, m, lam) for lam in lams}

        def chk(result, state):
            for lam, got in result.items():
                want = rows[key][str(lam)]
                check([list(p) for p in got] == want,
                      f"Kleshchev (e,m)=({key}) lambda={lam}: {got} != {want}")
        return Task(f"kleshchev e,m={key}", call, chk)

    def crystal(state):
        out = {}
        for s in CRYSTAL_ANCHORS:
            b = ((), ())
            for i in reversed(CRYSTAL_WORD):
                b = fock.crystal_f(i, b, s, 3)
            out[s] = b
        trips = []
        for word in words:
            b, path = ((), ()), []
            for i in word:
                b = fock.crystal_f(i, b, (-1, 0), 3)
                if b is None:
                    break
                path.append(i)
            back = b
            if b is not None:
                for i in reversed(path):
                    back = fock.crystal_e(i, back, (-1, 0), 3)
            trips.append((word, b, back))
        return out, trips

    def check_crystal(result, state):
        anchors, trips = result
        for s, want in CRYSTAL_ANCHORS.items():
            check(anchors[s] == want, f"crystal anchor at s={s}: {anchors[s]}")
        for word, b, back in trips:
            if b is not None:
                check(sum(map(sum, b)) == len(word), f"f~ word {word} size")
                check(back == ((), ()), f"e~ does not invert f~ on {word}")

    return [
        Task(f"canonical_basis deg={deg}", canonical, check_canonical,
             f"fock/canonical/{deg}"),
        decomp(3, 2),
        decomp(5, 3),
        *[kleshchev(key) for key in tables],
        Task("crystal anchors", crystal, check_crystal),
    ]


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------


def combinatorics(rng: random.Random, sc: Scale) -> list[Task]:
    sample6 = [random_window(rng, sc.three_way_sample_n)
               for _ in range(sc.three_way_sample)]
    windows = [random_window(rng, n) for n in sc.roundtrip_sample_ns
               for _ in range(sc.roundtrip_sample)]

    def wb_count(state):
        n = sc.wb_count_n
        return sum(1 for w in weylb.enumerate_wn(n) if weylb.is_in_wb_by_words(w))

    def check_count(count, state):
        n = sc.wb_count_n
        check(count == comb(2 * n, n), f"|W_b({n})| = {count}")
        return count

    def three_way(name, ws, golden=None, exhaustive_n=None):
        def call(state):
            return [(weylb.is_in_wb_by_avoidance(w), weylb.is_in_wb_by_words(w),
                     len(domino.domino_shape(w)) <= 2) for w in ws]

        def chk(result, state):
            bad = [w for w, r in zip(ws, result) if len(set(r)) != 1]
            check(not bad, f"three-way W_b mismatch at {bad[:3]}")
            if exhaustive_n is not None:
                count = sum(r[0] for r in result)
                check(count == comb(2 * exhaustive_n, exhaustive_n),
                      f"|W_b({exhaustive_n})| = {count}")
            return result
        return Task(name, call, chk, golden)

    full = signed_perms(sc.roundtrip_full_n)

    def roundtrip(state):
        out = []
        for w in full:
            p, q = domino.domino_insert(w)
            out.append((w, p, q, domino.domino_reverse(p, q)))
        return out

    def check_roundtrip(result, state):
        pairs = set()
        state["p_fibers"] = fibers = {}
        for w, p, q, back in result:
            check(back == w, f"reverse(insert({w})) = {back}")
            check(p.shape() == q.shape(), f"P, Q shapes differ for {w}")
            pairs.add((p, q))
            fibers.setdefault(p, set()).add(w)
        check(len(pairs) == len(result), "domino insertion is not injective")
        return [(w, p, q) for w, p, q, _ in result]

    def sample_roundtrip(state):
        out = []
        for w in windows:
            p, q = domino.domino_insert(w)
            out.append((w, p, q, domino.domino_reverse(p, q),
                        domino.domino_insert(signed_inverse(w))[0]))
        return out

    def check_sample_roundtrip(result, state):
        for w, p, q, back, p_inv in result:
            check(back == w, f"reverse(insert({w})) = {back}")
            check(q == p_inv, f"Q({w}) != P(w^-1)")

    def check_knuth(classes, state):
        members = sorted(w for c in classes for w in c)
        check(members == sorted(full), "Knuth classes do not partition W_n")
        fibers = state.get("p_fibers", {})
        check({frozenset(c) for c in classes}
              == {frozenset(f) for f in fibers.values()},
              "Knuth classes are not the P-fibers")
        return [sorted(c) for c in classes]

    def blob_rank(n):
        def call(state):
            out = {}
            for lam in partitions.lambda_n(n):
                mod = blob.standard_module(n, lam)
                rep = blob.verify_presentation(mod.matrices, 2)
                rank = blob.localize_dimension(mod) if 2 <= n <= 5 else None
                out[lam] = (mod.dimension(), rep, rank, mod.matrices)
            return out, blob.blob_algebra_dimension(n)

        def chk(result, state):
            mods, algebra_dim = result
            for lam, (dim, rep, rank, _) in mods.items():
                check(dim == comb(n, (n - lam) // 2), f"dim Delta_{n}({lam}) = {dim}")
                check(rep["all"], f"blob relations fail on Delta_{n}({lam})")
                if rank is not None:
                    want = 0 if abs(lam) == n else comb(n - 2, (n - 2 - lam) // 2)
                    check(rank == want, f"localized rank of Delta_{n}({lam})")
            check(sum(d * d for d, *_ in mods.values()) == algebra_dim
                  == comb(2 * n, n), f"dim b_{n} = {algebra_dim}")
            return {lam: (d, m) for lam, (d, _, _, m) in mods.items()}
        return Task(f"blob standard n={n}", call, chk, f"blob/standard/{n}")

    return [
        Task(f"wb count W{sc.wb_count_n}", wb_count, check_count,
             f"weylb/count/{sc.wb_count_n}"),
        three_way(f"three-way W{sc.three_way_full_n}",
                  signed_perms(sc.three_way_full_n),
                  f"weylb/three_way/{sc.three_way_full_n}", sc.three_way_full_n),
        three_way(f"three-way W{sc.three_way_sample_n} sample", sample6),
        Task(f"domino roundtrip W{sc.roundtrip_full_n}", roundtrip,
             check_roundtrip, f"domino/roundtrip/{sc.roundtrip_full_n}"),
        Task("domino roundtrip sample", sample_roundtrip, check_sample_roundtrip),
        Task(f"knuth_classes {sc.roundtrip_full_n}",
             lambda s: knuth.knuth_classes(sc.roundtrip_full_n), check_knuth,
             f"knuth/classes/{sc.roundtrip_full_n}"),
        *[blob_rank(n) for n in range(1, sc.blob_max_n + 1)],
    ]


def build(name: str, rng: random.Random, sc: Scale, goldens: dict) -> list[Task]:
    if name == "hecke-products":
        return hecke_products(rng, sc)
    if name == "fock-canonical":
        return fock_canonical(rng, sc, goldens)
    if name == "combinatorics":
        return combinatorics(rng, sc)
    raise ValueError(f"unknown workload {name!r}")
