"""
The blob algebra b_n(q, m): decorated Temperley-Lieb diagrams and the
standard modules Δ_n(λ) on half-diagrams.

Diagrams live on n top and n bottom points.  Points are put on a circle:
top column i (0-based, left to right) gets circular coordinate i, bottom
column j gets 2n-1-j, so the left wall sits in the gap between coordinates
2n-1 and 0.  A diagram is a non-crossing perfect matching of the 2n points,
together with a set of blobbed lines; a line {a, b} with a < b is *exposed*
(deformable to the left wall) iff no other line {c, d} satisfies c < a and
b < d, and only exposed lines may carry a blob (at most one each).

A diagram has one form, `BlobDiagram`: the tuple `partner`, partner[c]
the other end of c's line, and the int `blobs`, with bit c set at both
ends of every blobbed line; it equals the plain (partner, blobs) pair.
Enumeration, products, half-diagram bases and standard modules all build
and read this form.  `_straighten`, a walk along the strands of two
stacked diagrams, is the one straightening routine; every product it
makes passes the exposure check, one pass over the product's array.

Composition stacks one diagram over another and straightens.  Scalars, in
ℤ[q, q^{-1}] with [a] = (q^a - q^{-a})/(q - q^{-1}):

  * a closed loop with no blob contributes -[2];
  * two blobs meeting on one line merge into one with factor -[m];
  * a closed loop carrying one blob (after merges) contributes [m-1].

Standard modules Δ_n(λ), λ ∈ Λ_n = {-n, -n+2, ..., n}, are the cell
modules of the diagram basis.  A half-diagram h has |λ| defects (unmatched
points), non-crossing arcs not covering any defect, blobs on exposed arcs,
and a blob on the leftmost defect exactly when λ < 0.  It is stored as
the full diagram D_h, whose top is h and whose defects run down to bottom
columns 0..|λ|-1, the other bottom columns closed by adjacent cups.  U_k
acts by straightening U_k over D_h; the product is D_{h'} for a basis
element h' unless it has fewer than |λ| through-lines or its leftmost
through-line's blob state disagrees with sign(λ), and those terms are
discarded (cellular truncation).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from . import weylb
from .laurent import LaurentPoly, gauss, quantum_integer
from .partitions import WeightOutOfRange, check_weight
from .weylb import BoundExceeded, InvariantViolation, NotInWb, SizeMismatch

__all__ = [
    "BlobDiagram", "blob_scalars", "hecke_scalars", "diagram_of",
    "generator_diagram", "all_diagrams", "blob_algebra_dimension",
    "compose_diagrams", "StandardModule", "standard_module",
    "regular_representation", "verify_presentation", "localize_dimension",
    "compare_cell_to_standard", "NotInWb",
    "ExposureViolation", "WeightOutOfRange", "SpecializationInvalid",
]


class ExposureViolation(RuntimeError):
    """A blob landed on a non-exposed line (indicates a rule bug)."""


class SpecializationInvalid(ValueError):
    """Raised when the cyclotomic parameter conditions fail."""


def blob_scalars(m: int) -> dict:
    """Loop scalars over ℤ[q, q^{-1}]: -[2], [m-1], -[m]."""
    return {"delta_plain": -quantum_integer(2),
            "blob_loop": quantum_integer(m - 1),
            "blob_merge": -quantum_integer(m)}


def hecke_scalars() -> dict:
    """The loop, blob loop and merge scalars of C_s ↦ U_s on `hecke.type_b`
    at Q = q_{s_0}, q = q_{s_i} (`hecke.type_b_weight`): -(q + q⁻¹),
    [2]_{Q/q} and -(Q + Q⁻¹), as C_s² = -(q_s + q_s⁻¹)C_s."""
    from .hecke import type_b_weight

    big_q, q = type_b_weight(0), type_b_weight(1)
    return {"delta_plain": -(q + q.bar()),
            "blob_loop": gauss(2, big_q * q.bar()),
            "blob_merge": -(big_q + big_q.bar())}


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------


class BlobDiagram(namedtuple("BlobDiagram", "partner blobs")):
    """partner[c] is the other end of c's line; bit c of `blobs` is set at
    both ends of every blobbed line.  Equal to the plain (partner, blobs)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.partner) // 2

    def lines(self) -> list:
        """The lines (a, b) with a < b, by increasing a."""
        return [(a, b) for a, b in enumerate(self.partner) if a < b]


def _partners(pairing, size: int) -> tuple:
    """partner[c]: the other end of c's line."""
    partner = [0] * size
    for a, b in pairing:
        partner[a], partner[b] = b, a
    return tuple(partner)


def _exposed_mask(partner) -> int:
    """Both ends of every exposed line, as bits: one pass that keeps the
    depth of nesting, which is 0 exactly where an exposed line starts."""
    mask = depth = 0
    for a, b in enumerate(partner):
        if a < b:
            if not depth:
                mask |= 1 << a | 1 << b
            depth += 1
        else:
            depth -= 1
    return mask


def identity_diagram(n: int) -> BlobDiagram:
    return BlobDiagram(tuple(range(2 * n - 1, -1, -1)), 0)


def generator_diagram(n: int, k: int) -> BlobDiagram:
    """U_k: k = 0 blobs the leftmost line; k >= 1 is the cup/cap at k-1, k."""
    partner = list(range(2 * n - 1, -1, -1))
    if k:  # the cap on top columns k-1, k and the cup on bottom columns k, k-1
        for c in (k - 1, 2 * n - 1 - k):
            partner[c], partner[c + 1] = c + 1, c
    return BlobDiagram(tuple(partner), 0 if k else 1 | 1 << 2 * n - 1)


@lru_cache(maxsize=None)
def _noncrossing_matchings(points: tuple) -> tuple:
    """The non-crossing perfect matchings of `points` (increasing), each
    a tuple of pairs a < b."""
    if not points:
        return ((),)
    a = points[0]
    return tuple(((a, points[idx]),) + mi + mo
                 for idx in range(1, len(points), 2)
                 for mi in _noncrossing_matchings(points[1:idx])
                 for mo in _noncrossing_matchings(points[idx + 1:]))


def _blob_choices(lines, partner) -> list:
    """The blob mask of every set of exposed lines among `lines`."""
    mask = _exposed_mask(partner)
    exposed = [1 << a | 1 << b for a, b in lines if mask >> a & 1]
    return [sum(sub) for r in range(len(exposed) + 1)
            for sub in itertools.combinations(exposed, r)]


def _order(d: BlobDiagram, top: int) -> tuple:
    """d's lines on the points < top, then the blobbed ones among them."""
    lines = [(a, b) for a, b in d.lines() if b < top]
    return lines, [(a, b) for a, b in lines if d.blobs >> a & 1]


def all_diagrams(n: int, bound: int = 8) -> list[BlobDiagram]:
    """Every blob diagram on n strands, by lines, then blobbed lines."""
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds diagram bound {bound}")
    size = 2 * n
    out = [BlobDiagram(partner, blobs)
           for pairing in _noncrossing_matchings(tuple(range(size)))
           for partner in (_partners(pairing, size),)
           for blobs in _blob_choices(pairing, partner)]
    return sorted(out, key=lambda d: _order(d, size))


def blob_algebra_dimension(n: int, bound: int = 8) -> int:
    """Σ 2^(exposed lines) over the non-crossing matchings of 2n points:
    each exposed line carries a blob or not."""
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds diagram bound {bound}")
    return sum(1 << (_exposed_mask(_partners(p, 2 * n)).bit_count() // 2)
               for p in _noncrossing_matchings(tuple(range(2 * n))))


def _straighten(a, ab: int, b, bb: int):
    """
    The strand walk of a over b, (partner, blobs) arrays.  The stack has
    4n points, c for a's point c and 2n + c for b's: a's bottom column j
    (2n-1-j) is glued to b's top column j (2n+j), so the glue is
    y -> 4n-1-y.  Returns the product's arrays and (plain loops, blobbed
    loops, merges) for its scalar; raises ExposureViolation on a blob on a
    line that is not exposed.
    """
    size = len(a)
    n, mirror = size // 2, 2 * size - 1
    link = a + tuple([size + c for c in b])
    blob = ab | bb << size
    out, seen = [0] * size, bytearray(2 * size)
    blobs = plain = blobbed = merges = 0
    # the open strands, from a's top and b's bottom; then the closed loops,
    # each of which meets a's bottom
    for p in itertools.chain(range(n), range(3 * n, 2 * size), range(n, size)):
        if seen[p]:
            continue
        k, x = 0, p
        while True:
            k += blob >> x & 1
            y = link[x]
            seen[x] = seen[y] = 1
            if n <= y < 3 * n:
                x = mirror - y
                if x != p:
                    continue
            break
        if not n <= p < 3 * n:
            i, j = p % size, y % size
            out[i], out[j] = j, i
            if k:
                blobs |= 1 << i | 1 << j
                merges += k - 1
        elif k:
            blobbed += 1
            merges += k - 1
        else:
            plain += 1
    if blobs & ~_exposed_mask(out):
        raise ExposureViolation(f"blob on a non-exposed line of {out}")
    return tuple(out), blobs, (plain, blobbed, merges)


def _scalar(key, sc: dict, memo: dict):
    """(-[2])^plain [m-1]^blobbed (-[m])^merges, once per key in `memo`."""
    if key not in memo:
        scalar = LaurentPoly.one()
        for name, k in zip(("delta_plain", "blob_loop", "blob_merge"), key):
            for _ in range(k):
                scalar = scalar * sc[name]
        memo[key] = scalar
    return memo[key]


def compose_diagrams(a: BlobDiagram, b: BlobDiagram, m: int = 2):
    """The product a·b (a stacked above b), returning (scalar, BlobDiagram)."""
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n} differ")
    partner, blobs, key = _straighten(*a, *b)
    return _scalar(key, blob_scalars(m), {}), BlobDiagram(partner, blobs)


def diagram_of(w) -> BlobDiagram:
    """
    D(w), the product of the U_k along `weylb.reduced_word(w)`: NotInWb
    for w outside W_b, whose product may still be one diagram (U_1U_2U_1 =
    U_1), and InvariantViolation if a loop closes or two blobs merge.

    >>> diagram_of((-1, 2))
    BlobDiagram(partner=(3, 2, 1, 0), blobs=9)
    >>> diagram_of((3, 2, 1))
    Traceback (most recent call last):
    blobcell.weylb.NotInWb: (3, 2, 1) lies outside W_b
    """
    if not weylb.is_in_wb_by_words(w):
        raise NotInWb(f"{w} lies outside W_b")
    d = identity_diagram(len(w))
    for k in weylb.reduced_word(w):
        *d, key = _straighten(*d, *generator_diagram(len(w), k))
        if any(key):
            raise InvariantViolation(f"{w}: a loop or a merge in its word")
    return BlobDiagram(*d)


# ---------------------------------------------------------------------------
# Half-diagrams and standard modules
# ---------------------------------------------------------------------------


def half_diagrams(n: int, lam: int) -> list[BlobDiagram]:
    """The basis of Δ_n(λ): the diagram D_h of each half-diagram h (see the
    module docstring), by arcs, then blobbed arcs."""
    check_weight(n, lam)
    size, k = 2 * n, abs(lam)
    cups = tuple((size - 2 - j, size - 1 - j) for j in range(k, n, 2))
    out = []
    for cover in itertools.combinations(range(n), n - k):
        defects = [p for p in range(n) if p not in cover]
        through = tuple((p, size - 1 - i) for i, p in enumerate(defects))
        defect_blob = 1 << defects[0] | 1 << size - 1 if lam < 0 else 0
        for arcs in _noncrossing_matchings(cover):
            if any(a < d < b for a, b in arcs for d in defects):
                continue
            partner = _partners(arcs + through + cups, size)
            out += [BlobDiagram(partner, blobs | defect_blob)
                    for blobs in _blob_choices(arcs, partner)]
    return sorted(out, key=lambda d: _order(d, n))


def _top(d: BlobDiagram) -> tuple:
    """d's top half: the top points' partners, -1 at defects, and blobs."""
    n = d.n
    return tuple(p if p < n else -1 for p in d.partner[:n]), d.blobs % (1 << n)


def _left_action(n: int, basis: list, sc: dict) -> dict:
    """The matrices of U_0..U_{n-1} on `basis`, from the left.  A product
    outside `basis` is a zero term: for the D_h of Δ_n(λ), one with fewer
    than |λ| through-lines or the wrong blob on the leftmost of them."""
    index = {d: i for i, d in enumerate(basis)}
    size, memo, mats = len(basis), {}, {}
    for k in range(n):
        g = generator_diagram(n, k)
        mat = [[LaurentPoly.zero()] * size for _ in range(size)]
        for j, d in enumerate(basis):
            partner, blobs, key = _straighten(*g, *d)
            i = index.get((partner, blobs))
            if i is not None:
                mat[i][j] = _scalar(key, sc, memo)
        mats[k] = mat
    return mats


class StandardModule:
    """Δ_n(λ): ordered half-diagram basis and U_k action matrices."""

    def __init__(self, n: int, lam: int, m: int = 2):
        self.n, self.lam, self.m = n, lam, m
        self.scalars = blob_scalars(m)
        self.basis = half_diagrams(n, lam)
        self.matrices = _left_action(n, self.basis, self.scalars)

    def dimension(self) -> int:
        return len(self.basis)


def standard_module(n: int, lam: int, m: int = 2) -> StandardModule:
    return StandardModule(n, lam, m)


def regular_representation(n: int, m: int = 2) -> dict:
    """Left-multiplication matrices of U_0..U_{n-1} on the diagram basis."""
    return _left_action(n, all_diagrams(n), blob_scalars(m))


# ---------------------------------------------------------------------------
# Relation verification and localization
# ---------------------------------------------------------------------------


def _sparse(mat) -> list:
    """The nonzero entries of each row, as {column: entry}."""
    return [{j: x for j, x in enumerate(row) if not x.is_zero()}
            for row in mat]


def _sparse_mul(a, b) -> list:
    out = []
    for arow in a:
        acc = {}
        for k, c in arow.items():
            for j, x in b[k].items():
                acc[j] = acc[j] + c * x if j in acc else c * x
        out.append({j: x for j, x in acc.items() if not x.is_zero()})
    return out


def _sparse_scale(a, c) -> list:
    return [{j: y for j, x in row.items() if not (y := x * c).is_zero()}
            for row in a]


def _pair_products(u: dict) -> dict:
    """u_i·u_j for every ordered pair of the sparse generator matrices."""
    return {(i, j): _sparse_mul(u[i], u[j]) for i in u for j in u}


def _relations(mats: dict, sc: dict) -> dict:
    """The relation report of the generator matrices `mats` at the loop
    scalars `sc`, on their nonzero entries, each pair product formed once."""
    u = {k: _sparse(mat) for k, mat in mats.items()}
    n, uu, mm, scale = len(u), _pair_products(u), _sparse_mul, _sparse_scale
    report = {
        "squares": all(uu[i, i] == scale(u[i], sc["delta_plain"])
                       for i in range(1, n)),
        "blob_square": not u or uu[0, 0] == scale(u[0], sc["blob_merge"]),
        "braids": all(mm(uu[i, j], u[i]) == u[i]
                      for k in range(1, n - 1)
                      for i, j in ((k, k + 1), (k + 1, k))),
    }
    if n >= 2:
        report["blob_braid"] = (mm(uu[1, 0], u[1])
                                == scale(u[1], sc["blob_loop"]))
    report["commuting"] = all(uu[i, j] == uu[j, i]
                              for i in range(n) for j in range(i + 2, n))
    report["all"] = all(report.values())
    return report


def verify_presentation(mats: dict, m: int = 2) -> dict:
    """
    Substitute the action matrices of U_0..U_{n-1} over ℤ[v, v⁻¹] into
    every defining relation at the scalars of b_n(q, m); returns a report
    dict with a boolean per relation family (all must be True).  The
    matrices must be square and of one size.  Products and comparisons run
    on their nonzero entries only, each product of two generators once.
    """
    size = next(map(len, mats.values()), 0)
    if any(len(mat) != size or any(len(row) != size for row in mat)
           for mat in mats.values()):
        raise SizeMismatch("the matrices are not all square of one size")
    return _relations(mats, blob_scalars(m))


def localize_dimension(module: StandardModule) -> int:
    """
    The rank over ℚ(v) of U_{n-1} on Δ_n(λ): dim of the localized module
    e·Δ_n(λ) with e = -(1/[2])U_{n-1}, which must equal dim Δ_{n-2}(λ)
    (and 0 for λ = ±n).  U_{n-1} times a half-diagram is one diagram times
    a scalar, so each column holds at most one nonzero entry; the nonzero
    rows then have disjoint supports, are independent, and their number is
    the rank.  InvariantViolation if a column holds two entries.
    """
    entries = [(i, j) for i, row in enumerate(module.matrices[module.n - 1])
               for j, x in enumerate(row) if not x.is_zero()]
    if len({j for _, j in entries}) < len(entries):
        raise InvariantViolation(
            f"Δ_{module.n}({module.lam}): a column of U_{module.n - 1} "
            f"holds two nonzero entries")
    return len({i for i, _ in entries})


# ---------------------------------------------------------------------------
# Cell module vs standard module comparison
# ---------------------------------------------------------------------------


def cyclotomic_spec(m: int = 2) -> tuple[int, int]:
    """
    The specialization v ↦ ζ_N^k, l = 2(2m-1) and N = 2l, chosen so that
    q = v², Q = v satisfy q^l = 1, q² ≠ 1, Q = i·q^m and q = -q^{2m}.  As
    i = ζ_N^{N/4} and -1 = ζ_N^{N/2}, these read on exponents mod N:
    q^l = ζ_N^{kN} = 1 for every k, 4k ≢ 0, k ≡ N/4 + 2km and
    2k ≡ N/2 + 4km.  k is the least solution; for m = 2, l = 6 this is
    v ↦ ζ₁₂⁷.  Returns (N, k).
    """
    big_n = 4 * (2 * m - 1)
    for k in range(1, big_n):
        if (4 * k % big_n and (k - big_n // 4 - 2 * k * m) % big_n == 0
                and (2 * k - big_n // 2 - 4 * k * m) % big_n == 0):
            return big_n, k
    raise SpecializationInvalid(f"no valid root for m={m}")


def compare_cell_to_standard(n: int, m: int = 2, bound: int | None = None,
                             basis=None) -> dict:
    """
    For every left cell inside W_b(n), find Δ_n(λ) by the 2-quotient of the
    cell's domino shape and compare the two over ℤ[v, v⁻¹] at
    `hecke_scalars()`: `relations`, the cell's C_s satisfy the blob
    relations; `traces_match`, w ↦ the top half of `diagram_of(w)` is a
    bijection onto the basis of Δ_n(λ) under which each C_s matrix equals
    that of U_s (equal matrices have equal traces).  `all_match` also
    checks, once, that at v = ζ_N^k (`cyclotomic_spec(m)`) these are the
    scalars of b_n(q, m) with U_0 times d = i(q - q⁻¹): -[2] = -(v² + v⁻²),
    d·[m-1] = v + v⁻¹ and -d·[m] = -(v + v⁻¹).  `basis`, a built
    hecke.KLBasis of W_n, is used instead of building one; without it,
    `bound` goes to `hecke.compute_kl_basis` (None: its KL_MAX_N).
    """
    from . import domino, hecke, partitions
    from .laurent import cyclotomic_root, specialize

    big_n, k = cyclotomic_spec(m)
    i, q = cyclotomic_root(big_n, big_n // 4), cyclotomic_root(big_n, 2 * k)
    d = i * (q - cyclotomic_root(big_n, -2 * k))
    sc = hecke_scalars()
    plain, loop, merge = (specialize(x, big_n, 2 * k)
                          for x in blob_scalars(m).values())
    report = {"cells": [], "all_match": [plain, d * loop, d * merge]
              == [specialize(x, big_n, k) for x in sc.values()]}

    if basis is None:
        basis = hecke.compute_kl_basis(n, bound)
    elif len(basis.cox.gens) != n:
        raise ValueError(
            f"the basis is of rank {len(basis.cox.gens)}, not {n}")
    cells = [c for c in hecke.left_cells(basis)
             if weylb.is_in_wb_by_words(min(c))]
    for cell in cells:
        shapes = {domino.domino_shape(w) for w in cell}
        if len(shapes) != 1:
            raise InvariantViolation(f"cell of {min(cell)}: {sorted(shapes)}")
        lam = partitions.blob_weight_of(partitions.two_quotient(*shapes))
        tops = {_top(h): h for h in half_diagrams(n, lam)}
        members, cmats = hecke.cell_module(basis, min(cell))
        perm = [tops.get(_top(diagram_of(w))) for w in members]
        entry = {"cell_min": min(cell), "lam": lam,
                 "dim_cell": len(members), "dim_delta": len(tops)}
        entry["dims_match"] = entry["dim_cell"] == entry["dim_delta"]
        entry["relations"] = _relations(cmats, sc)["all"]
        entry["traces_match"] = (entry["dims_match"]
                                 and set(perm) == set(tops.values())
                                 and _left_action(n, perm, sc) == cmats)
        report["cells"].append(entry)
        report["all_match"] = report["all_match"] and all(
            entry[key] for key in ("dims_match", "relations", "traces_match"))
        if len(cell) == 1 and min(cell) == weylb.identity(n):
            report["identity_cell_lam"] = lam
        if len(cell) == 1 and min(cell) == (-1,) + tuple(range(2, n + 1)):
            report["s0_cell_lam"] = lam
    return report
