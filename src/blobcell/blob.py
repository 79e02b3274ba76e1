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

Standard modules Δ_n(λ), λ ∈ Λ_n = {-n, -n+2, ..., n}, are the cell
modules of the diagram basis.  A half-diagram h has |λ| defects (unmatched
points), non-crossing arcs not covering any defect, blobs on exposed arcs,
and a blob on the leftmost defect exactly when λ < 0.  It is embedded as
the full diagram D_h, whose top is h and whose defects run down to bottom
columns 0..|λ|-1, the other bottom columns closed by adjacent cups.  U_k
acts by `compose_diagrams(U_k, D_h)`; the product is D_{h'} for a basis
element h' unless it has fewer than |λ| through-lines or its leftmost
through-line's blob state disagrees with sign(λ), and those terms are
discarded (cellular truncation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .laurent import LaurentPoly, quantum_integer
from .partitions import WeightOutOfRange, check_weight
from .weylb import BoundExceeded, SizeMismatch

__all__ = [
    "BlobDiagram", "BlobHalfDiagram", "blob_scalars",
    "generator_diagram", "all_diagrams", "blob_algebra_dimension",
    "compose_diagrams", "StandardModule", "standard_module",
    "regular_representation", "verify_presentation", "localize_dimension",
    "compare_cell_to_standard",
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


def _strands(edges, boundary):
    """
    Follow the lines of a stacked picture.  edges are (u, v, blobs) with
    every point on at most two edges, and the points of `boundary` on one.
    Returns the open strands as (start, end, blobs), both ends in
    `boundary`, and the blob count of each closed loop.
    """
    adj: dict = {}
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

    strands, loops = [], []
    for start in adj:
        if start in boundary and start not in seen:
            strands.append((start, *walk(start)))
    for start in adj:
        if start not in seen:
            loops.append(walk(start)[1])
    return strands, loops


def _loop_scalar(loops, merges: int, sc: dict):
    """
    (-[m])^merges times each closed loop's factor: -[2] without a blob,
    [m-1] (-[m])^(k-1) with k blobs.  Multiplies only for merges that happen.
    """
    scalar = LaurentPoly.one()
    for k in loops:
        scalar = scalar * (sc["blob_loop"] if k else sc["delta_plain"])
        merges += max(k - 1, 0)
    for _ in range(merges):
        scalar = scalar * sc["blob_merge"]
    return scalar


def compose_diagrams(a: BlobDiagram, b: BlobDiagram, m: int = 2,
                     scalars: dict | None = None):
    """
    The product a·b (a stacked above b), returning (scalar, BlobDiagram).

    Point labels during straightening: c for a's circular coordinate c and
    2n + c for b's; a's bottom column j is glued to b's top column j.
    """
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n} differ")
    n = a.n
    sc = scalars if scalars is not None else blob_scalars(m)
    edges = [(off + min(l), off + max(l), l in x.blobs)
             for off, x in ((0, a), (2 * n, b)) for l in x.pairing]
    edges += [(2 * n - 1 - j, 2 * n + j, False) for j in range(n)]
    boundary = set(range(n)) | set(range(3 * n, 4 * n))
    strands, loops = _strands(edges, boundary)
    pairs = set()
    blobs = set()
    merges = 0
    for start, end, k in strands:
        line = Line({start % (2 * n), end % (2 * n)})
        pairs.add(line)
        if k:
            blobs.add(line)
            merges += k - 1
    result = BlobDiagram(n, frozenset(pairs), frozenset(blobs))
    _validate_diagram(result)
    return _loop_scalar(loops, merges, sc), result


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

    def diagram(self) -> BlobDiagram:
        """
        D_h: the top is h, defect i runs down to bottom column i (carrying
        the defect blob if i = 0), and the remaining bottom columns are
        closed by adjacent cups.
        """
        n, defects = self.n, self.defects()
        through = [Line({p, 2 * n - 1 - i}) for i, p in enumerate(defects)]
        cups = [Line({2 * n - 1 - j, 2 * n - 2 - j})
                for j in range(len(defects), n, 2)]
        blobs = self.blobbed_arcs | ({through[0]} if self.defect_blob
                                     else frozenset())
        return BlobDiagram(n, self.arcs | frozenset(through + cups), blobs)


def half_diagrams(n: int, lam: int) -> list[BlobHalfDiagram]:
    """The basis of Δ_n(λ)."""
    check_weight(n, lam)
    k = (n - abs(lam)) // 2  # number of arcs
    out = []
    for cover in itertools.combinations(range(n), 2 * k):
        defects = tuple(p for p in range(n) if p not in cover)
        for arcs in _noncrossing_matchings(cover):
            if any(min(a) < d < max(a) for a in arcs for d in defects):
                continue
            bare = BlobHalfDiagram(n, arcs, frozenset(), lam < 0)
            lines = bare.diagram().pairing
            exposed = sorted((a for a in arcs if _exposed(a, lines)),
                             key=sorted)
            for r in range(len(exposed) + 1):
                for sub in itertools.combinations(exposed, r):
                    out.append(BlobHalfDiagram(n, arcs, frozenset(sub),
                                               lam < 0))
    return sorted(out, key=lambda h: h.key())


def _left_action(n: int, basis: list, sc: dict) -> dict:
    """
    The matrices of U_0..U_{n-1} multiplying the diagrams of `basis` from
    the left.  A product outside `basis` is a zero term: for the diagrams
    D_h of Δ_n(λ) those are the products with fewer than |λ|
    through-lines or with the wrong blob state on the leftmost one.
    """
    index = {d: i for i, d in enumerate(basis)}
    size = len(basis)
    mats = {}
    for k in range(n):
        g = generator_diagram(n, k)
        mat = [[LaurentPoly.zero()] * size for _ in range(size)]
        for j, d in enumerate(basis):
            scalar, out = compose_diagrams(g, d, scalars=sc)
            if out in index:
                mat[index[out]][j] = scalar
        mats[k] = mat
    return mats


class StandardModule:
    """Δ_n(λ): ordered half-diagram basis and U_k action matrices."""

    def __init__(self, n: int, lam: int, m: int = 2):
        self.n, self.lam, self.m = n, lam, m
        self.scalars = blob_scalars(m)
        self.basis = half_diagrams(n, lam)
        self.matrices = _left_action(
            n, [h.diagram() for h in self.basis], self.scalars)

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


def _mat_mul(a, b, zero):
    size = len(a)
    # The nonzero entries of each row of b, as (column, entry).  Most zero
    # entries are the `zero` object itself, which skips the is_zero call.
    b_rows = [[(j, x) for j, x in enumerate(row)
               if x is not zero and not x.is_zero()] for row in b]
    out = [[zero] * size for _ in range(size)]
    for arow, orow in zip(a, out):
        for c, brow in zip(arow, b_rows):
            if not brow or c is zero or c.is_zero():
                continue
            for j, x in brow:
                orow[j] = orow[j] + c * x
    return out


def _mat_scale(a, c, zero):
    return [[zero if x.is_zero() else x * c for x in row] for row in a]


def _mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


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


def compare_cell_to_standard(n: int, m: int = 2, bound: int = 4,
                             basis=None) -> dict:
    """
    For every left cell inside W_b(n): identify the matching standard
    module Δ_n(λ) via the 2-quotient of the cell's domino shape, check
    dimensions, the blob relations after rescaling C_0 by 1/(i(q - q^{-1})),
    and traces of all generator words of length <= 4.  `basis`, a built
    hecke.KLBasis of W_n, is used instead of building one.
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

    if basis is None:
        basis = hecke.compute_kl_basis(n, bound)
    elif len(basis.cox.gens) != n:
        raise ValueError(
            f"the basis is of rank {len(basis.cox.gens)}, not {n}")
    cells = [c for c in hecke.left_cells(basis)
             if weylb.is_in_wb_by_words(min(c))]
    sc = {k: specialize(vpoly, q) for k, vpoly in blob_scalars(m).items()}
    deltas: dict = {}  # λ -> (dim Δ_n(λ), traces of its words at q)
    report = {"cells": [], "all_match": True}
    for cell in cells:
        shapes = {domino.domino_shape(w) for w in cell}
        if len(shapes) != 1:
            raise weylb.InvariantViolation(
                f"left cell of {min(cell)} has domino shapes {sorted(shapes)}")
        bip = partitions.two_quotient(next(iter(shapes)))
        lam = partitions.blob_weight_of(bip)
        if lam not in deltas:
            delta = standard_module(n, lam, m)
            dmats = {k: [[specialize(x, q) for x in row] for row in mat]
                     for k, mat in delta.matrices.items()}
            deltas[lam] = (delta.dimension(),
                           _word_traces(dmats, n, zero, one))
        dim_delta, dtraces = deltas[lam]
        _, cmats = hecke.cell_module(basis, min(cell), spec=zeta_v)
        umats = {**cmats, 0: [[x * rescale for x in row] for row in cmats[0]]}
        entry = {
            "cell_min": min(cell),
            "lam": lam,
            "dim_cell": len(cmats[0]),
            "dim_delta": dim_delta,
        }
        entry["dims_match"] = entry["dim_cell"] == entry["dim_delta"]
        entry["relations"] = verify_presentation(
            umats, m, scalars=sc, zero=zero)["all"]
        entry["traces_match"] = _word_traces(umats, n, zero, one) == dtraces
        report["cells"].append(entry)
        report["all_match"] = report["all_match"] and all(
            entry[k] for k in ("dims_match", "relations", "traces_match"))
        if len(cell) == 1 and min(cell) == weylb.identity(n):
            report["identity_cell_lam"] = lam
        if len(cell) == 1 and min(cell) == (-1,) + tuple(range(2, n + 1)):
            report["s0_cell_lam"] = lam
    return report


def _trace_of_product(a, b, zero):
    """tr(AB) = Σ_ij A_ij B_ji, without forming AB."""
    total = zero
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x is zero or x.is_zero():
                continue
            y = b[j][i]
            if y is not zero and not y.is_zero():
                total = total + x * y
    return total


def _word_traces(mats, n, zero, one) -> dict:
    """Traces of all words of length <= 4 in the matrices.  Only the n²
    products of two generators are built: a word splits into two factors,
    each the identity, a generator or such a product, whose tr(AB) needs
    no AB; the rotations of a word share its trace."""
    size = len(mats[0])
    parts = {(): [[one if i == j else zero for j in range(size)]
                  for i in range(size)]}
    parts.update(((k,), mats[k]) for k in range(n))
    parts.update(((i, j), _mat_mul(mats[i], mats[j], zero))
                 for i in range(n) for j in range(n))
    out = {}
    for length in range(1, 5):
        for word in itertools.product(range(n), repeat=length):
            if word not in out:
                cut = (length + 1) // 2
                t = _trace_of_product(parts[word[:cut]], parts[word[cut:]],
                                      zero)
                for k in range(length):
                    out[word[k:] + word[:k]] = t
    return out
