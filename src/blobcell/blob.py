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

Composition stacks one diagram over another and straightens.  Scalars, in
ℤ[q, q^{-1}] with [a] = (q^a - q^{-a})/(q - q^{-1}):

  * a closed loop with no blob contributes -[2];
  * two blobs meeting on one line merge into one with factor -[m];
  * a closed loop carrying one blob (after merges) contributes [m-1].

Standard modules Δ_n(λ), λ ∈ Λ_n = {-n, -n+2, ..., n}: half-diagrams with
|λ| defects (unmatched points propagating upward), non-crossing arcs not
covering any defect, blobs on exposed arcs, and a blob on the leftmost
defect exactly when λ < 0.  Generators act by stacking on top; any term
whose defect count drops, or whose defect-blob state disagrees with
sign(λ), is discarded (cellular truncation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .laurent import LaurentPoly
from .weylb import BoundExceeded, SizeMismatch

__all__ = [
    "BlobDiagram", "BlobHalfDiagram", "blob_scalars",
    "generator_diagram", "all_diagrams", "blob_algebra_dimension",
    "compose_diagrams", "StandardModule", "standard_module",
    "regular_representation", "verify_presentation", "localize_dimension",
    "compare_cell_to_standard",
    "ExposureViolation", "TwoNotInvertible", "WeightOutOfRange",
    "SpecializationInvalid",
]


class ExposureViolation(RuntimeError):
    """A blob landed on a non-exposed line (indicates a rule bug)."""


class TwoNotInvertible(ValueError):
    """Raised when localization needs 1/[2] but [2] is not invertible."""


class WeightOutOfRange(ValueError):
    """Raised for a weight outside Lambda_n."""


class SpecializationInvalid(ValueError):
    """Raised when the cyclotomic parameter conditions fail."""


def blob_scalars(m: int) -> dict:
    """Loop scalars over ℤ[q, q^{-1}]: -[2], [m-1], -[m]."""

    def brk(a: int) -> LaurentPoly:
        if a == 0:
            return LaurentPoly.zero()
        if a < 0:
            return -brk(-a)
        return LaurentPoly({a - 1 - 2 * k: 1 for k in range(a)})

    return {"delta_plain": -brk(2), "blob_loop": brk(m - 1),
            "blob_merge": -brk(m), "bracket": brk}


# ---------------------------------------------------------------------------
# Full diagrams
# ---------------------------------------------------------------------------

Line = frozenset


@dataclass(frozen=True)
class BlobDiagram:
    n: int
    pairing: frozenset  # of frozenset({a, b}) circular coordinates
    blobs: frozenset  # subset of pairing

    def lines(self):
        return sorted(tuple(sorted(l)) for l in self.pairing)


def _exposed(line, pairing) -> bool:
    a, b = sorted(line)
    return not any(min(o) < a and b < max(o) for o in pairing if o != line)


def exposed_lines(pairing) -> list:
    return [l for l in pairing if _exposed(l, pairing)]


def _validate_diagram(d: BlobDiagram) -> None:
    for l in d.blobs:
        if not _exposed(l, d.pairing):
            raise ExposureViolation(f"blob on non-exposed line {sorted(l)}")


def identity_diagram(n: int) -> BlobDiagram:
    pairing = frozenset(Line({k, 2 * n - 1 - k}) for k in range(n))
    return BlobDiagram(n, pairing, frozenset())


def generator_diagram(n: int, k: int) -> BlobDiagram:
    """U_k: k = 0 blobs the leftmost line; k >= 1 is the cup/cap at k-1, k."""
    if k == 0:
        d = identity_diagram(n)
        line = Line({0, 2 * n - 1})
        return BlobDiagram(n, d.pairing, frozenset({line}))
    i = k - 1
    pairs = {Line({i, i + 1}), Line({2 * n - 1 - i, 2 * n - 2 - i})}
    for c in range(n):
        if c not in (i, i + 1):
            pairs.add(Line({c, 2 * n - 1 - c}))
    return BlobDiagram(n, frozenset(pairs), frozenset())


@lru_cache(maxsize=None)
def _noncrossing_matchings(points: tuple) -> tuple:
    if not points:
        return (frozenset(),)
    out = []
    a = points[0]
    for idx in range(1, len(points), 2):
        b = points[idx]
        inner = points[1:idx]
        outer = points[idx + 1:]
        for mi in _noncrossing_matchings(inner):
            for mo in _noncrossing_matchings(outer):
                out.append(mi | mo | {Line({a, b})})
    return tuple(out)


def all_diagrams(n: int, bound: int = 8) -> list[BlobDiagram]:
    """Every blob diagram on n strands (enumerated, exposure-decorated)."""
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds diagram bound {bound}")
    out = []
    for pairing in _noncrossing_matchings(tuple(range(2 * n))):
        exposed = sorted(exposed_lines(pairing), key=sorted)
        for r in range(len(exposed) + 1):
            for sub in itertools.combinations(exposed, r):
                out.append(BlobDiagram(n, pairing, frozenset(sub)))
    return sorted(out, key=lambda d: (d.lines(), sorted(map(sorted, d.blobs))))


def blob_algebra_dimension(n: int) -> int:
    return len(all_diagrams(n))


def compose_diagrams(a: BlobDiagram, b: BlobDiagram, m: int = 2,
                     scalars: dict | None = None):
    """
    The product a·b (a stacked above b), returning (scalar, BlobDiagram).

    Point labels during straightening: ("a", c) and ("b", c) for circular
    coordinates of a and b; a's bottom column j is glued to b's top column j.
    """
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n} differ")
    n = a.n
    sc = scalars if scalars is not None else blob_scalars(m)

    adj: dict = {}
    blob_edge: dict = {}

    def connect(u, v, blobbed):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        blob_edge[frozenset({u, v})] = blobbed

    for l in a.pairing:
        u, v = sorted(l)
        connect(("a", u), ("a", v), l in a.blobs)
    for l in b.pairing:
        u, v = sorted(l)
        connect(("b", u), ("b", v), l in b.blobs)
    # glue a's bottom column j (coord 2n-1-j) to b's top column j (coord j)
    for j in range(n):
        connect(("a", 2 * n - 1 - j), ("b", j), False)

    boundary = {("a", c): c for c in range(n)}
    boundary.update({("b", 2 * n - 1 - j): 2 * n - 1 - j for j in range(n)})

    scalar = LaurentPoly.one()
    pairs = set()
    blobs = set()
    seen = set()
    for start in list(adj):
        if start in seen:
            continue
        if start not in boundary:
            continue
        # trace open path from one boundary point to the other
        path_blobs = 0
        prev, cur = None, start
        seen.add(start)
        while True:
            nxt = next(p for p in adj[cur] if p != prev)
            if blob_edge[frozenset({cur, nxt})]:
                path_blobs += 1
            prev, cur = cur, nxt
            seen.add(cur)
            if cur in boundary:
                break
        line = Line({boundary[start], boundary[cur]})
        pairs.add(line)
        if path_blobs:
            blobs.add(line)
            for _ in range(path_blobs - 1):
                scalar = scalar * sc["blob_merge"]
    for start in list(adj):
        if start in seen:
            continue
        # closed loop
        loop_blobs = 0
        prev, cur = None, start
        while True:
            nxt = next(p for p in adj[cur] if p != prev)
            if blob_edge[frozenset({cur, nxt})]:
                loop_blobs += 1
            prev, cur = cur, nxt
            seen.add(cur)
            if cur == start:
                break
        if loop_blobs == 0:
            scalar = scalar * sc["delta_plain"]
        else:
            scalar = scalar * sc["blob_loop"]
            for _ in range(loop_blobs - 1):
                scalar = scalar * sc["blob_merge"]
    result = BlobDiagram(n, frozenset(pairs), frozenset(blobs))
    _validate_diagram(result)
    return scalar, result


# ---------------------------------------------------------------------------
# Half-diagrams and standard modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlobHalfDiagram:
    n: int
    arcs: frozenset  # of frozenset({i, j}) on 0..n-1
    blobbed_arcs: frozenset
    defect_blob: bool  # blob on the leftmost defect

    def defects(self) -> tuple:
        covered = {p for arc in self.arcs for p in arc}
        return tuple(p for p in range(self.n) if p not in covered)

    def key(self):
        return (sorted(tuple(sorted(a)) for a in self.arcs),
                sorted(tuple(sorted(a)) for a in self.blobbed_arcs),
                self.defect_blob)


def _arc_exposed_half(arc, arcs, defects) -> bool:
    i, j = sorted(arc)
    if any(min(o) < i and j < max(o) for o in arcs if o != arc):
        return False
    return not any(d < i for d in defects)


def half_diagrams(n: int, lam: int) -> list[BlobHalfDiagram]:
    """The basis of Δ_n(λ)."""
    if abs(lam) > n or (n - lam) % 2:
        raise WeightOutOfRange(f"weight {lam} not in Lambda_{n}")
    k = (n - abs(lam)) // 2  # number of arcs
    out = []
    for cover in itertools.combinations(range(n), 2 * k):
        defects = tuple(p for p in range(n) if p not in cover)
        for arcs in _noncrossing_matchings(cover):
            if any(min(a) < d < max(a) for a in arcs for d in defects):
                continue
            exposed = sorted((a for a in arcs
                              if _arc_exposed_half(a, arcs, defects)),
                             key=sorted)
            for r in range(len(exposed) + 1):
                for sub in itertools.combinations(exposed, r):
                    out.append(BlobHalfDiagram(
                        n, frozenset(arcs), frozenset(sub), lam < 0))
    return sorted(out, key=lambda h: h.key())


def _act_half(d: BlobDiagram, h: BlobHalfDiagram, lam: int, sc: dict):
    """
    d acting on the half-diagram h (d stacked above h).  Returns
    (scalar, BlobHalfDiagram) or None when the term is truncated away.
    """
    n = d.n
    adj: dict = {}
    blob_edge: dict = {}

    def connect(u, v, blobbed):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        key = frozenset({u, v})
        blob_edge[key] = blob_edge.get(key, 0) + (1 if blobbed else 0)

    for l in d.pairing:
        u, v = sorted(l)
        connect(("d", u), ("d", v), l in d.blobs)
    for arc in h.arcs:
        u, v = sorted(arc)
        connect(("h", u), ("h", v), arc in h.blobbed_arcs)
    defects = h.defects()
    for j in range(n):
        connect(("d", 2 * n - 1 - j), ("h", j), False)

    top = {("d", c): c for c in range(n)}
    # endpoints of defect lines at the bottom
    defect_pts = {("def", p): p for p in defects}
    for p in defects:
        connect(("h", p), ("def", p), False)
    leftmost = min(defects) if defects else None

    scalar = LaurentPoly.one()
    new_arcs = []
    new_blobbed = []
    new_defects = {}
    seen = set()
    boundary = dict(top)
    boundary.update(defect_pts)
    for start in list(boundary):
        if start in seen:
            continue
        path_blobs = 0
        prev, cur = None, start
        seen.add(cur)
        while True:
            nxt = next(p for p in adj[cur] if p != prev)
            if blob_edge[frozenset({cur, nxt})]:
                path_blobs += 1
            prev, cur = cur, nxt
            seen.add(cur)
            if cur in boundary:
                break
        ends = (start, cur)
        kinds = sorted(e[0] for e in ends)
        if kinds == ["def", "def"]:
            return None  # two defects joined: defect count drops
        if kinds == ["d", "def"]:
            # a propagating defect line
            top_pt = ends[0] if ends[0][0] == "d" else ends[1]
            def_pt = ends[1] if top_pt is ends[0] else ends[0]
            new_defects[top[top_pt]] = (def_pt[1], path_blobs)
        else:  # new arc at the top
            line = tuple(sorted((top[ends[0]], top[ends[1]])))
            new_arcs.append(line)
            if path_blobs:
                new_blobbed.append(line)
                for _ in range(path_blobs - 1):
                    scalar = scalar * sc["blob_merge"]
    for start in list(adj):
        if start in seen:
            continue
        loop_blobs = 0
        prev, cur = None, start
        while True:
            nxt = next(p for p in adj[cur] if p != prev)
            if blob_edge[frozenset({cur, nxt})]:
                loop_blobs += 1
            prev, cur = cur, nxt
            seen.add(cur)
            if cur == start:
                break
        if loop_blobs == 0:
            scalar = scalar * sc["delta_plain"]
        else:
            scalar = scalar * sc["blob_loop"]
            for _ in range(loop_blobs - 1):
                scalar = scalar * sc["blob_merge"]

    # defect-blob bookkeeping: only the leftmost defect line may see blobs
    want = lam < 0
    new_leftmost = min(new_defects) if new_defects else None
    for pos, (src, nblobs) in new_defects.items():
        carried = want and src == leftmost
        total = nblobs + (1 if carried else 0)
        if pos != new_leftmost:
            if total:
                return None  # a blob on a non-leftmost (non-exposed) defect
            continue
        if total == 0:
            state = False
        else:
            for _ in range(total - 1):
                scalar = scalar * sc["blob_merge"]
            state = True
        if state != want:
            return None  # wrong defect-blob state: truncated
    result = BlobHalfDiagram(d.n, frozenset(Line(a) for a in new_arcs),
                             frozenset(Line(a) for a in new_blobbed),
                             want)
    for arc in result.blobbed_arcs:
        if not _arc_exposed_half(arc, result.arcs, result.defects()):
            raise ExposureViolation(f"blob on non-exposed arc {sorted(arc)}")
    return scalar, result


class StandardModule:
    """Δ_n(λ): ordered half-diagram basis and U_k action matrices."""

    def __init__(self, n: int, lam: int, m: int = 2):
        self.n, self.lam, self.m = n, lam, m
        self.scalars = blob_scalars(m)
        self.basis = half_diagrams(n, lam)
        self.index = {h: i for i, h in enumerate(self.basis)}
        self.matrices = {k: self._matrix(k) for k in range(n)}

    def _matrix(self, k: int):
        d = generator_diagram(self.n, k)
        size = len(self.basis)
        mat = [[LaurentPoly.zero()] * size for _ in range(size)]
        for j, h in enumerate(self.basis):
            res = _act_half(d, h, self.lam, self.scalars)
            if res is None:
                continue
            scalar, out = res
            mat[self.index[out]][j] = mat[self.index[out]][j] + scalar
        return mat

    def dimension(self) -> int:
        return len(self.basis)


def standard_module(n: int, lam: int, m: int = 2) -> StandardModule:
    return StandardModule(n, lam, m)


def regular_representation(n: int, m: int = 2) -> dict:
    """Left-multiplication matrices of U_0..U_{n-1} on the diagram basis."""
    diagrams = all_diagrams(n)
    index = {d: i for i, d in enumerate(diagrams)}
    sc = blob_scalars(m)
    mats = {}
    for k in range(n):
        g = generator_diagram(n, k)
        size = len(diagrams)
        mat = [[LaurentPoly.zero()] * size for _ in range(size)]
        for j, d in enumerate(diagrams):
            scalar, out = compose_diagrams(g, d, m, sc)
            mat[index[out]][j] = mat[index[out]][j] + scalar
        mats[k] = mat
    return mats


# ---------------------------------------------------------------------------
# Relation verification and localization
# ---------------------------------------------------------------------------


def _mat_mul(a, b, zero):
    size = len(a)
    # The nonzero entries of each row of b, as (column, entry).  Most zero
    # entries are the `zero` object itself, which skips the _is_zero call.
    b_rows = [[(j, x) for j, x in enumerate(row)
               if x is not zero and not _is_zero(x)] for row in b]
    out = [[zero] * size for _ in range(size)]
    for arow, orow in zip(a, out):
        for c, brow in zip(arow, b_rows):
            if not brow or c is zero or _is_zero(c):
                continue
            for j, x in brow:
                orow[j] = orow[j] + c * x
    return out


def _mat_scale(a, c, zero):
    return [[zero if _is_zero(x) else x * c for x in row] for row in a]


def _mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _is_zero(x) -> bool:
    if hasattr(x, "is_zero") and callable(x.is_zero):
        return x.is_zero()
    return not x


def verify_presentation(mats: dict, m: int = 2, scalars: dict | None = None,
                        zero=None) -> dict:
    """
    Substitute action matrices into every defining relation; returns a
    report dict with a boolean per relation family (all must be True).
    """
    sc = scalars if scalars is not None else blob_scalars(m)
    z = zero if zero is not None else LaurentPoly.zero()
    n = len(mats)
    mm = lambda a, b: _mat_mul(a, b, z)
    report = {}
    ok = True
    for i in range(1, n):
        ok = ok and _mat_eq(mm(mats[i], mats[i]),
                            _mat_scale(mats[i], sc["delta_plain"], z))
    report["squares"] = ok
    report["blob_square"] = _mat_eq(mm(mats[0], mats[0]),
                                    _mat_scale(mats[0], sc["blob_merge"], z))
    ok = True
    for i in range(1, n - 1):
        ok = ok and _mat_eq(mm(mm(mats[i], mats[i + 1]), mats[i]), mats[i])
        ok = ok and _mat_eq(mm(mm(mats[i + 1], mats[i]), mats[i + 1]),
                            mats[i + 1])
    report["braids"] = ok
    if n >= 2:
        report["blob_braid"] = _mat_eq(
            mm(mm(mats[1], mats[0]), mats[1]),
            _mat_scale(mats[1], sc["blob_loop"], z))
    ok = True
    for i in range(n):
        for j in range(i + 2, n):
            ok = ok and _mat_eq(mm(mats[i], mats[j]), mm(mats[j], mats[i]))
    report["commuting"] = ok
    report["all"] = all(v for v in report.values())
    return report


def _rank(mat) -> int:
    """
    The rank over ℚ(v) of a matrix of Laurent polynomials, by fraction-free
    (Bareiss) elimination in ℤ[v, v⁻¹]: after k pivots every entry left is
    a (k+1)-minor, so dividing by the previous pivot is exact.
    """
    mat = [list(row) for row in mat]
    rank, prev = 0, LaurentPoly.one()
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat))
                      if not mat[i][col].is_zero()), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for row in mat[rank + 1:]:
            c = row[col]
            for j in range(col + 1, len(row)):
                row[j] = (p * row[j] - c * top[j]).divide_exact(prev)
            row[col] = LaurentPoly.zero()
        prev = p
        rank += 1
    return rank


def localize_dimension(module: StandardModule):
    """
    The rank of U_{n-1} on Δ_n(λ): this is dim of the localized module
    e·Δ_n(λ) with e = -(1/[2])U_{n-1}, which must equal dim Δ_{n-2}(λ)
    (and 0 for λ = ±n).  Computed exactly over ℚ(v) by fraction-free
    elimination (`_rank`), without leaving ℤ[v, v⁻¹].
    """
    two = blob_scalars(module.m)["delta_plain"]
    if two.is_zero():
        raise TwoNotInvertible("[2] = 0 in the scalar ring")
    return _rank(module.matrices[module.n - 1])


# ---------------------------------------------------------------------------
# Cell module vs standard module comparison (cyclotomic specialization)
# ---------------------------------------------------------------------------


def cyclotomic_spec(m: int = 2):
    """
    The specialization for l = 2(2m-1): v ↦ ζ_{2l}^{?} chosen so that
    q = v², Q = v satisfy q^l = 1, Q = i·q^m, q = -q^{2m}.  For m = 2,
    l = 6 this is v ↦ ζ₁₂⁷ in ℚ(ζ₁₂).  Returns (zeta_v, q, i_unit, N).
    """
    from .laurent import CycloNumber, cyclotomic_root

    l = 2 * (2 * m - 1)
    big_n = 2 * l
    i_power = big_n // 4
    for k in range(1, big_n):
        zeta_v = cyclotomic_root(big_n, k)
        q = zeta_v * zeta_v
        if (q ** l).is_one() and not (q * q).is_one():
            i_unit = cyclotomic_root(big_n, i_power)
            if zeta_v == i_unit * q ** m and q == -(q ** (2 * m)):
                return zeta_v, q, i_unit, big_n
    raise SpecializationInvalid(f"no valid root for m={m}")


def compare_cell_to_standard(n: int, m: int = 2, bound: int = 3) -> dict:
    """
    For every left cell inside W_b(n): identify the matching standard
    module Δ_n(λ) via the 2-quotient of the cell's domino shape, check
    dimensions, the blob relations after rescaling C_0 by 1/(i(q - q^{-1})),
    and traces of all generator words of length <= 4.
    """
    from . import domino, hecke, partitions, weylb
    from .laurent import CycloNumber, specialize

    if n > bound:
        raise BoundExceeded(f"n={n} exceeds comparison bound {bound}")
    zeta_v, q, i_unit, big_n = cyclotomic_spec(m)
    one = CycloNumber.const(big_n, 1)
    zero = CycloNumber.const(big_n, 0)
    q_inv = q.inverse()
    rescale = (i_unit * (q - q_inv)).inverse()

    basis = hecke.compute_kl_basis(n)
    cells = [c for c in hecke.left_cells(basis)
             if weylb.is_in_wb_by_words(min(c))]
    report = {"cells": [], "all_match": True}
    for cell in cells:
        shapes = {domino.domino_shape(w) for w in cell}
        if len(shapes) != 1:
            raise weylb.InvariantViolation(
                f"left cell of {min(cell)} has domino shapes {sorted(shapes)}")
        bip = partitions.two_quotient(next(iter(shapes)))
        lam = partitions.blob_weight_of(bip)
        _, cmats = hecke.cell_module(basis, min(cell), spec=zeta_v)
        umats = {0: [[x * rescale for x in row] for row in cmats[0]]}
        for k in range(1, n):
            umats[k] = cmats[k]
        delta = standard_module(n, lam, m)
        dmats = {k: [[specialize(x, q) for x in row] for row in mat]
                 for k, mat in delta.matrices.items()}
        sc = {k: specialize(vpoly, q)
              for k, vpoly in blob_scalars(m).items() if k != "bracket"}
        entry = {
            "cell_min": min(cell),
            "lam": lam,
            "dim_cell": len(cmats[0]),
            "dim_delta": delta.dimension(),
        }
        entry["dims_match"] = entry["dim_cell"] == entry["dim_delta"]
        entry["relations"] = verify_presentation(
            umats, m, scalars=sc, zero=zero)["all"]
        entry["traces_match"] = _traces_match(umats, dmats, n, zero, one)
        report["cells"].append(entry)
        report["all_match"] = report["all_match"] and all(
            entry[k] for k in ("dims_match", "relations", "traces_match"))
        if len(cell) == 1 and min(cell) == weylb.identity(n):
            report["identity_cell_lam"] = lam
        if len(cell) == 1 and min(cell) == (-1,) + tuple(range(2, n + 1)):
            report["s0_cell_lam"] = lam
    return report


def _traces_match(umats, dmats, n, zero, one) -> bool:
    def trace_words(mats):
        """Traces of all words of length <= 4, each word's matrix built
        from the matrix of its prefix."""
        size = len(mats[0])
        eye = [[one if i == j else zero for j in range(size)]
               for i in range(size)]
        prods = {(): eye}
        out = {}
        for length in range(1, 5):
            for word in itertools.product(range(n), repeat=length):
                acc = prods[word] = _mat_mul(prods[word[:-1]], mats[word[-1]],
                                             zero)
                out[word] = sum((acc[i][i] for i in range(size)), zero)
        return out

    return trace_words(umats) == trace_words(dmats)
