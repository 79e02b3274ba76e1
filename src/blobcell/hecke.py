"""
Hecke algebras with a Kazhdan-Lusztig C-basis engine, cells and ideals.

The engine works over the ring 𝓐 = ℤ[v, v^{-1}].  It reads a finite Coxeter
group from one object, `Coxeter`, whose tables (elements by length, reduced
words, inverses, left and right multiplication by each generator with its
descent set) are built once, on integer indices, so that the same code
serves two groups:

  * the type-B group W_n of signed permutations with unequal parameters
    q_{s_0} = v, q_{s_i} = v^2 for i >= 1 (the Γ = ℤ, a = 2, b = 1 regime);
  * the symmetric group S_N with the equal parameter v^2, used for the
    comparison along the doubling embedding ι : W_n → S_{2n}.

T_s satisfies (T_s - q_s)(T_s + q_s^{-1}) = 0 and C_s := T_s - q_s.  The
C-basis is the unique family with bar(C_w) = C_w and C_w - T_w supported on
strictly positive powers of v; it is constructed by triangular correction.

Inside the engine an element maps index -> int, each coefficient a
Kronecker-packed Laurent polynomial (module `kronecker`): p(2^B)·2^{B·off},
balanced digits in base 2^B.  q_s and q_s - q_s^{-1} are shifts, a product
with a short polynomial is one int product, and "has an exponent <= 0" is
a mask test.  Offsets follow the exponents a table can reach (C-basis in
ℤ[v]: 0; bar(T_w): L(w_0)); the digit width B follows a bound on the
coefficients read back (24 bits for the C-basis).  A digit read back at or
beyond the bound 2^{B-2} raises InvariantViolation; it never wraps.
LaurentPoly appears only at the boundary: elements passed in or out,
`left_product` rows and `KLBasis.c` (each C_w decoded on first read) map
windows to LaurentPoly; a window outside the group raises SizeMismatch.
"""

from __future__ import annotations

import itertools

from . import weylb
from .kronecker import (Decoded, add_scaled, bar_symmetric_low, decode, low,
                        norm, pack, unpack, width)
from .laurent import LaurentPoly, add_term, gauss
from .partitions import WeightOutOfRange, check_weight
from .weylb import BoundExceeded, InvariantViolation, SizeMismatch

__all__ = [
    "Coxeter", "type_b", "type_a",
    "t_gen", "c_gen", "multiply_t", "bar_involution",
    "KLBasis", "compute_kl_basis", "left_cells", "IdealJn", "ideal_jn",
    "type_a_kl_compare",
    "tensor_identity", "tensor_action", "tensor_c_action",
    "permutation_module", "tensor_ideal_annihilates", "ideal_vanish_symbolic",
    "NotInWb", "WeightOutOfRange",
]

KL_MAX_N = 4
_C_BITS = 24  # digit width of the C-basis table


class NotInWb(ValueError):
    """Raised when a cell-module base point lies outside W_b."""


class Coxeter:
    """
    A finite Coxeter group as tables built once, by a breadth-first walk
    from the identity over `apply_right(w, k)` = w s_k (as in Geck's PyCox).
    Elements are numbered in (length, window) order; `elements[i]` is the
    window of element i and `index` maps a window back.  The tables are
    lists or sets on those numbers:

      * `length[i]`, and `words[i]`, the reduced word of i that ends in its
        smallest right descent;
      * `inverse[i]`;
      * `right[k]` and `left[k]`, each a pair (move, descents): the list
        i ↦ i s_k (resp. s_k i) and the set of i that it shortens.

    `weight(k)` is the parameter q_s = v^a of generator k.  The object also
    memoizes the bar(T_w) that `bar_involution` computes.
    """

    def __init__(self, name, gens, identity, apply_right, weight):
        self.name, self.gens, self.identity = name, tuple(gens), identity
        self.weight = weight  # gen index -> LaurentPoly q_s
        moves = {k: {} for k in self.gens}
        length = {identity: 0}
        layer = [identity]
        while layer:
            nxt = []
            for w in layer:
                for k, move in moves.items():
                    u = move[w] = apply_right(w, k)
                    if u not in length:
                        length[u] = length[w] + 1
                        nxt.append(u)
            layer = nxt
        els = self.elements = sorted(length, key=lambda w: (length[w], w))
        index = self.index = {w: i for i, w in enumerate(els)}
        self.length = [length[w] for w in els]
        moves = {k: [index[move[w]] for w in els] for k, move in moves.items()}

        def shortened(move):  # a move changes the length by one
            return {i for i, j in enumerate(move) if j < i}

        self.right = {k: (move, shortened(move)) for k, move in moves.items()}
        self._exps = {k: weight(k).max_exp() for k in self.gens}
        self.words, self.inverse, wlen = [()], [0], [0]
        for i in range(1, len(els)):
            k = min(k for k in self.gens if i in self.right[k][1])
            self.words.append(self.words[moves[k][i]] + (k,))
            wlen.append(wlen[moves[k][i]] + self._exps[k])
            i_inv = 0
            for j in reversed(self.words[i]):
                i_inv = moves[j][i_inv]
            self.inverse.append(i_inv)
        self._wlen, self._top = wlen, wlen[-1]  # L(w) and L(w_0)
        inv = self.inverse
        lefts = {k: [inv[move[inv[i]]] for i in range(len(els))]
                 for k, move in moves.items()}
        self.left = {k: (left, shortened(left)) for k, left in lefts.items()}
        self._gen_elts = {k: els[move[0]] for k, move in moves.items()}
        self._bars: dict = {}  # digit width -> {i: packed bar(T_i)}


def type_b(n: int) -> Coxeter:
    """W_n with unequal parameters q_{s_0} = v, q_{s_i} = v^2."""
    q = LaurentPoly.monomial(2)
    big_q = LaurentPoly.monomial(1)
    return Coxeter(f"B{n}", range(n), weylb.identity(n), weylb.apply_generator,
                   weight=lambda k: big_q if k == 0 else q)


def type_a(n_points: int) -> Coxeter:
    """
    The symmetric group S_N with the equal parameter v^2.  For k >= 1,
    `weylb.apply_generator` swaps window slots k and k+1, which is right
    multiplication by s_k on permutations too.
    """
    q = LaurentPoly.monomial(2)
    return Coxeter(f"A{n_points - 1}", range(1, n_points),
                   tuple(range(1, n_points + 1)), weylb.apply_generator,
                   weight=lambda k: q)


# ---------------------------------------------------------------------------
# T-basis arithmetic
# ---------------------------------------------------------------------------

HeckeElement = dict  # window -> LaurentPoly, no zero values stored


def t_gen(cox: Coxeter, k: int) -> HeckeElement:
    return {cox._gen_elts[k]: LaurentPoly.one()}


def c_gen(cox: Coxeter, k: int) -> HeckeElement:
    """C_s = T_s - q_s."""
    out = {cox._gen_elts[k]: LaurentPoly.one()}
    add_term(out, cox.identity, -cox.weight(k))
    return out


def _indexed(cox: Coxeter, x: HeckeElement) -> list:
    """x as (index, LaurentPoly) terms; SizeMismatch outside the group."""
    try:
        return [(cox.index[w], p) for w, p in x.items()]
    except KeyError as exc:
        raise SizeMismatch(f"{exc.args[0]} is not an element of {cox.name}") \
            from None


def _mult_gen(cox: Coxeter, side: dict, k: int, x: dict, bits: int,
              inverse: bool = False) -> dict:
    """x * T_k^{±1} (side cox.right) or T_k^{±1} * x (cox.left), packed."""
    move, descents = side[k]
    a = bits * cox._exps[k]
    out: dict = {}
    get = out.get
    for w, c in x.items():
        u = move[w]
        out[u] = get(u, 0) + c
        if (w in descents) != inverse:  # T_k^{-1} = T_k - (q_k - q_k^{-1})
            twist = (c << a) - (c >> a)
            out[w] = get(w, 0) + (-twist if inverse else twist)
    return out


def _c_s_times(cox: Coxeter, s: int, cw: dict, bits: int, off: int) -> dict:
    """
    C_s C_w = T_s C_w - q_s C_w from a packed C_w at offset 0, at offset
    off >= a (q_s = v^a): c T_y goes to c T_{sy} - q_s^{∓1} c T_y.
    """
    move, descents = cox.left[s]
    a = cox._exps[s]
    keep, down, up = bits * off, bits * (off - a), bits * (off + a)
    out: dict = {}
    get = out.get
    for y, c in cw.items():
        u = move[y]
        out[u] = get(u, 0) + (c << keep)
        out[y] = get(y, 0) - (c << (down if y in descents else up))
    return out


def _bar_t(cox: Coxeter, bits: int, w: int) -> dict:
    """bar(T_w) = bar(T_{ws}) T_s^{-1} at offset L(w_0), memoized per width."""
    bars = cox._bars.setdefault(bits, {0: {0: 1 << bits * cox._top}})
    out = bars.get(w)
    if out is None:
        s = cox.words[w][-1]
        out = bars[w] = _mult_gen(cox, cox.right, s,
                                  _bar_t(cox, bits, cox.right[s][0][w]),
                                  bits, inverse=True)
    return out


def multiply_t(cox: Coxeter, x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """
    The product x*y in the T-basis.  The factor with fewer terms is walked
    term by term, as reduced words, over the other: x by left passes
    T_k (...) over y, or y by right passes over x.  Each T_k at most
    triples Σ |coefficients|, which bounds the digits.
    """
    left = len(x) <= len(y)
    walk, other = _indexed(cox, x), _indexed(cox, y)
    if not left:
        walk, other = other, walk
    bits = width(sum(norm(p) * 3 ** cox.length[i] for i, p in walk)
                 * sum(norm(p) for _, p in other))
    off_w = low(p for _, p in walk)
    drop = max([0] + [cox._wlen[i] for i, _ in walk])  # v^{-L(u)} at worst
    off_o = drop + low(p for _, p in other)
    start = {i: pack(p, bits, off_o) for i, p in other}
    side = cox.left if left else cox.right
    out: dict = {}
    for u, p in walk:
        acc, word = start, cox.words[u]
        for k in (reversed(word) if left else word):
            acc = _mult_gen(cox, side, k, acc, bits)
        add_scaled(out, acc, pack(p, bits, off_w))
    return decode(out, cox.elements, bits, off_w + off_o)


def bar_involution(cox: Coxeter, x: HeckeElement) -> HeckeElement:
    """T_w ↦ T_{w^{-1}}^{-1}, v ↦ v^{-1}, extended additively."""
    terms = _indexed(cox, x)
    # a multiple of 16 bits, so that few widths need a table of bar(T_w)
    bits = width(sum(norm(p) * 3 ** cox.length[i] for i, p in terms), 16)
    off = max([0] + [p.max_exp() for _, p in terms if p])
    out: dict = {}
    for w, p in terms:
        add_scaled(out, _bar_t(cox, bits, w), pack(p, bits, off, -1))
    return decode(out, cox.elements, bits, off + cox._top)


# ---------------------------------------------------------------------------
# KL C-basis
# ---------------------------------------------------------------------------


class KLBasis:
    """
    The C-basis {C_w} of the Hecke algebra of `cox`, with the W-graph: the
    memoized C-coordinates of every product C_s C_w.  `c` maps w to C_w.
    """

    def __init__(self, cox: Coxeter):
        self.cox, self.elements, self._bits = cox, cox.elements, _C_BITS
        self._off = max(cox._exps.values())  # working exponents stay >= -off
        self._rows, self._row_memo = {}, {}  # rows, and their decode memo
        self._build()
        self._tables = {self._bits: self._c}
        self.c = Decoded(self._c, self.elements, cox.index, self._bits, 0)

    def _build(self) -> None:
        cox, bits, off = self.cox, self._bits, self._off
        shift, mask = bits * off, (1 << bits * (off + 1)) - 1
        els = cox.elements
        c = self._c = [{0: 1}]
        for w in range(1, len(els)):
            s = min(k for k in cox.gens if w in cox.left[k][1])
            d = _c_s_times(cox, s, c[cox.left[s][0][w]], bits, off)
            for y in sorted((y for y in d if y != w), reverse=True):
                if d[y] & mask:
                    add_scaled(d, c[y], -bar_symmetric_low(d[y], bits, off))
            if d.get(w) != 1 << shift:
                raise InvariantViolation(
                    f"C_{els[w]}: T_w coefficient is not 1")
            for y, h in d.items():
                if h & mask and y != w:
                    raise InvariantViolation(
                        f"C_{els[w]}: bad coefficient at {els[y]}")
            c.append({y: h >> shift for y, h in d.items() if h})

    @staticmethod
    def _coords(rest: dict, table: list) -> dict:
        """C-coordinates of a packed vector (consumed), at its own offset."""
        out = {}
        for w in range(max(rest, default=-1), -1, -1):
            coeff = rest.get(w)
            if coeff:
                out[w] = coeff
                add_scaled(rest, table[w], -coeff)
            rest.pop(w, None)  # zero now: the T_w coefficient of C_w is 1
            if not rest:
                break
        return out

    def check_bar_invariance(self, w) -> bool:
        return bar_involution(self.cox, self.c[w]) == self.c[w]

    def c_coordinates(self, x: HeckeElement) -> dict:
        """Expand x in the C-basis (one triangular pass, longest first)."""
        terms = _indexed(self.cox, x)
        big = max([0] + [norm(p) for _, p in terms])  # 16 bits of headroom
        bits = max(self._bits, width(big << 16, 8))
        if bits not in self._tables:  # repack once for large inputs
            self._tables[bits] = [{y: pack(unpack(c, self._bits, 0), bits, 0)
                                   for y, c in row.items()} for row in self._c]
        off = low(p for _, p in terms)
        rest = {i: pack(p, bits, off) for i, p in terms}
        return decode(self._coords(rest, self._tables[bits]), self.elements,
                      bits, off)

    def left_product(self, s: int, w) -> dict:
        """
        The C-coordinates of C_s C_w = T_s C_w - q_s C_w: the row (s, w) of
        the W-graph, computed once and memoized.  Every caller gets the same
        dict, so none may change it.  When sw < w, T_s C_w = -q_s^{-1} C_w,
        so the row is {w: -(q_s^{-1} + q_s)} without Hecke arithmetic.
        """
        row = self._rows.get((s, w))
        if row is None:
            cox = self.cox
            i = cox.index[w]
            if i in cox.left[s][1]:
                qs = cox.weight(s)
                row = {w: -(qs.bar() + qs)}
            else:
                prod = _c_s_times(cox, s, self._c[i], self._bits, self._off)
                row = decode(self._coords(prod, self._c), self.elements,
                             self._bits, self._off, self._row_memo)
            self._rows[s, w] = row
        return row

    def left_cell_edges(self) -> dict:
        """w -> {y != w : C_y appears in some C_s C_w}."""
        return {w: {y for s in self.cox.gens for y in self.left_product(s, w)
                    if y != w}
                for w in self.elements}


def compute_kl_basis(n: int, bound: int | None = None) -> KLBasis:
    """The unequal-parameter C-basis of W_n (default bound 4)."""
    cap = bound if bound is not None else KL_MAX_N
    if n > cap:
        raise BoundExceeded(f"n={n} exceeds KL bound {cap}")
    return KLBasis(type_b(n))


def _sccs(edges: dict) -> list[frozenset]:
    """Strongly connected components (iterative Tarjan)."""
    index: dict = {}  # node -> DFS number
    low: dict = {}
    on_stack, stack, out = set(), [], []
    counter = itertools.count()

    for root in edges:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    comp.add(u)
                    if u == node:
                        break
                out.append(frozenset(comp))
    return out


def left_cells(basis: KLBasis) -> list[frozenset]:
    """Left cells: strongly connected components of the ≤_L edge relation."""
    cached = getattr(basis, "_cells", None)
    if cached is None:
        cached = sorted(_sccs(basis.left_cell_edges()), key=lambda c: sorted(c))
        basis._cells = cached
    return cached


# ---------------------------------------------------------------------------
# The ideal spanned by {C_w : w outside W_b}
# ---------------------------------------------------------------------------


class IdealJn:
    """span{C_w : w ∉ W_b} with a membership test in C-coordinates."""

    def __init__(self, basis: KLBasis):
        self.basis = basis
        self.n = len(basis.cox.identity)
        self.outside = {w for w in basis.elements
                        if not weylb.is_in_wb_by_words(w)}

    def contains(self, x: HeckeElement) -> bool:
        coords = self.basis.c_coordinates(x)
        return all(w in self.outside for w in coords)

    def verify_two_sided(self) -> bool:
        """
        Closure under left and right multiplication by every C_s.  The left
        side reads W-graph rows.  The right side uses the anti-involution
        T_x ↦ T_{x⁻¹}, which fixes every T_s and so maps C_x to C_{x⁻¹}:
        the C-coordinates of C_w C_s are {y⁻¹ : y in the row (s, w⁻¹)}.
        """
        basis, cox = self.basis, self.basis.cox
        inverse = dict(zip(cox.elements, map(cox.elements.__getitem__,
                                             cox.inverse)))
        for w in self.outside:
            for s in cox.gens:
                if not self.outside.issuperset(basis.left_product(s, w)):
                    return False
                if not all(inverse[y] in self.outside
                           for y in basis.left_product(s, inverse[w])):
                    return False
        return True

    def generators(self) -> list[HeckeElement]:
        """C_1C_2C_1 - C_1 and C_1C_0C_1 - [2]_{Q/q} C_1."""
        cox = self.basis.cox
        c1 = c_gen(cox, 1)
        gens = []
        for k, scale in _ideal_generator_pairs(self.n):
            g = multiply_t(cox, multiply_t(cox, c1, c_gen(cox, k)), c1)
            for w, c in c1.items():
                add_term(g, w, -(c * scale))
            gens.append(g)
        return gens


def _ideal_generator_pairs(n: int) -> list:
    """
    The pairs (k, c) whose C_1C_kC_1 - c·C_1 generate J_n: (2, 1) when
    n >= 3, and (0, [2]_{Q/q}) with [2]_{Q/q} = Q/q + q/Q = v + v⁻¹.
    """
    pairs = [(2, LaurentPoly.one())] if n >= 3 else []
    return pairs + [(0, LaurentPoly({1: 1, -1: 1}))]


def ideal_jn(n: int, basis: KLBasis | None = None) -> IdealJn:
    if n < 2:
        raise ValueError("the ideal needs n >= 2")
    return IdealJn(basis if basis is not None else compute_kl_basis(n))


# ---------------------------------------------------------------------------
# Cell modules
# ---------------------------------------------------------------------------


def cell_module(basis: KLBasis, w, spec=None):
    """
    The left cell module of w in W_b: ordered basis {C_z : z ~_L w} and the
    matrix of each C_s acting by left multiplication, with coordinates
    outside the cell discarded.  `spec` maps v to a CycloNumber; when given
    the matrices are specialized, otherwise they stay over ℤ[v, v^{-1}].
    Returns (cell: ordered tuple, matrices: dict gen -> row-major matrix).
    """
    from .laurent import specialize

    if not weylb.is_in_wb_by_words(w):
        raise NotInWb(f"{w} lies outside W_b")
    cell = next(sorted(comp) for comp in left_cells(basis) if w in comp)
    zero = LaurentPoly.zero()
    mats = {}
    for s in basis.cox.gens:
        rows = [basis.left_product(s, z) for z in cell]
        mat = [[rows[j].get(y, zero) for j in range(len(cell))] for y in cell]
        if spec is not None:
            mat = [[specialize(entry, spec) for entry in row] for row in mat]
        mats[s] = mat
    return tuple(cell), mats


# ---------------------------------------------------------------------------
# Type-A comparison along the doubling embedding
# ---------------------------------------------------------------------------


def _iota_perm(w) -> tuple[int, ...]:
    """The image of w in S_{2n} as a window over 1..2n."""
    n = len(w)
    return tuple(x + n + 1 if x < 0 else x + n for x in weylb.iota(w))


def _iota_s_row(basis_a: KLBasis, n: int, w) -> dict:
    """
    The C-coordinates of C̃_{ι(s_{n-1})} C̃_{ι(w)} in S_{2n}.  Since
    ι(s_{n-1}) = s_1 s_{2n-1} and the two generators commute,
    C̃_{ι(s_{n-1})} = C̃_{s_1} C̃_{s_{2n-1}}: the row (2n-1, ι(w)) of the
    W-graph, then the row (1, y) of each of its terms y.
    """
    out: dict = {}
    for y, c in basis_a.left_product(2 * n - 1, _iota_perm(w)).items():
        for z, d in basis_a.left_product(1, y).items():
            add_term(out, z, c * d)
    return out


def type_a_kl_compare(n: int) -> dict:
    """
    Structure-constant transfer along ι: for every w ∈ W_b(n), expand
    C_{s_{n-1}} C_w in type B and C̃_{ι(s_{n-1})} C̃_{ι(w)} in the
    equal-parameter algebra of S_{2n}; report each z with a nonzero type-B
    coefficient whose type-A counterpart vanishes (expected: none).  Also
    check that each left cell of W_n inside W_b is ι^{-1} of the ι-image
    trace of a type-A left cell.  Both sides read W-graph rows.
    """
    if n < 2:
        return {"violations": [], "cells_match": True, "pairs_checked": 0}
    if n > 3:
        raise BoundExceeded(f"type-A comparison supported for n <= 3, got {n}")
    basis_b = KLBasis(type_b(n))
    basis_a = KLBasis(type_a(2 * n))

    s = n - 1
    violations = []
    pairs = 0
    wb = [w for w in basis_b.elements if weylb.is_in_wb_by_words(w)]
    for w in wb:
        na = _iota_s_row(basis_a, n, w)
        for z, coeff in basis_b.left_product(s, w).items():
            pairs += 1
            if not coeff.is_zero() and _iota_perm(z) not in na:
                violations.append((w, z))

    cells_b = [c for c in left_cells(basis_b) if min(c) in set(wb) and
               all(weylb.is_in_wb_by_words(u) for u in c)]
    cells_a = left_cells(basis_a)
    image = {_iota_perm(u): u for u in basis_b.elements}
    cells_match = True
    for cb in cells_b:
        target = {_iota_perm(u) for u in cb}
        hit = [ca for ca in cells_a if target <= ca]
        if len(hit) != 1 or {image[p] for p in hit[0] if p in image} != set(cb):
            cells_match = False
    return {"violations": violations, "cells_match": cells_match,
            "pairs_checked": pairs}


# ---------------------------------------------------------------------------
# Tensor representation on V^{⊗n}, dim V = 2
# ---------------------------------------------------------------------------
#
# Scalars are pluggable: anything with +, -, *, `is_zero()` and a `one`;
# `q`, `q_inv`, `big_q`, `big_q_inv` are passed in a small dict.  The
# default is the one-variable ring q = v^2, Q = v.


def generic_tensor_scalars() -> dict:
    return {
        "one": LaurentPoly.one(),
        "q": LaurentPoly.monomial(2),
        "q_inv": LaurentPoly.monomial(-2),
        "big_q": LaurentPoly.monomial(1),
        "big_q_inv": LaurentPoly.monomial(-1),
    }


def tensor_identity(word, scalars) -> dict:
    return {tuple(word): scalars["one"]}


def _apply_r(x: dict, slot: int, sc: dict, inverse: bool = False) -> dict:
    """R (or R^{-1}) acting on tensor slots slot, slot+1 (0-based)."""
    out: dict = {}
    qq, qi = sc["q"], sc["q_inv"]
    diff = qq - qi
    for w, c in x.items():
        a, b = w[slot], w[slot + 1]
        if a == b:
            add_term(out, w, c * (qi if inverse else qq))
        elif (a, b) == (2, 1):
            add_term(out, w[:slot] + (1, 2) + w[slot + 2:], c)
            if inverse:
                # R^{-1} = R - (q - q^{-1}): R(v2⊗v1) = v1⊗v2
                add_term(out, w, -c * diff)
        else:  # (1, 2)
            swapped = w[:slot] + (2, 1) + w[slot + 2:]
            add_term(out, swapped, c)
            if not inverse:
                add_term(out, w, c * diff)
    return out


def _apply_s(x: dict, k: int, sc: dict) -> dict:
    """S_k: multiply by q when letters k-1, k (1-based) agree, else swap."""
    out: dict = {}
    for w, c in x.items():
        if w[k - 1] == w[k]:
            add_term(out, w, c * sc["q"])
        else:
            add_term(out, w[:k - 1] + (w[k], w[k - 1]) + w[k + 1:], c)
    return out


def _apply_varpi(x: dict, sc: dict) -> dict:
    out: dict = {}
    for w, c in x.items():
        add_term(out, w, c * (sc["big_q"] if w[0] == 1 else -sc["big_q_inv"]))
    return out


def tensor_action(n: int, gen: int, x: dict, scalars: dict | None = None) -> dict:
    """Apply T_gen to the tensor vector x (words over {1,2} of length n)."""
    sc = scalars if scalars is not None else generic_tensor_scalars()
    if gen != 0:
        return _apply_r(x, gen - 1, sc)
    # T_0 = T_1^{-1} ... T_{n-1}^{-1} S_{n-1} ... S_1 ϖ, rightmost first.
    x = _apply_varpi(x, sc)
    for k in range(1, n):
        x = _apply_s(x, k, sc)
    for k in range(n - 1, 0, -1):
        x = _apply_r(x, k - 1, sc, inverse=True)
    return x


def tensor_c_action(n: int, gen: int, x: dict, scalars: dict | None = None) -> dict:
    """Apply C_gen = T_gen - q_gen."""
    sc = scalars if scalars is not None else generic_tensor_scalars()
    out = tensor_action(n, gen, x, sc)
    p = sc["big_q"] if gen == 0 else sc["q"]
    for w, c in x.items():
        add_term(out, w, -c * p)
    return out


def permutation_module(n: int, lam: int) -> list[tuple[int, ...]]:
    """Basis words of M_n(λ): #1s - #2s = λ."""
    check_weight(n, lam)
    ones = (n + lam) // 2
    return sorted(w for w in itertools.product((1, 2), repeat=n)
                  if w.count(1) == ones)


def tensor_ideal_annihilates(n: int) -> bool:
    """
    Both ideal generators C_1C_2C_1 - C_1 and C_1C_0C_1 - [2]_{Q/q} C_1
    kill every basis word of V^{⊗n} (in the one-variable generic ring).
    """
    if n < 2:
        raise ValueError("the ideal generators need n >= 2")
    sc = generic_tensor_scalars()
    for word in itertools.product((1, 2), repeat=n):
        c1x = tensor_c_action(n, 1, tensor_identity(word, sc), sc)
        for k, scale in _ideal_generator_pairs(n):
            # C_1 C_k C_1 x - scale C_1 x
            y = tensor_c_action(n, 1, tensor_c_action(n, k, dict(c1x), sc), sc)
            for w, c in c1x.items():
                add_term(y, w, -(c * scale))
            if y:
                return False
    return True


def ideal_vanish_symbolic(n: int = 3) -> bool:
    """
    The identity C_1 C_0 (v_1⊗v_2 - q v_2⊗v_1) ⊗ v̄ = [2]_{Q/q} (same),
    with q, Q independent, for every basis word v̄.

    q and Q are kept apart by the ring map q ↦ v, Q ↦ v^K, which sends
    q^a Q^b to v^(a+Kb).  It is injective on the monomials whose q-exponents
    lie in a range of fewer than K values, so the identity holds in ℤ[q^±, Q^±]
    iff its image holds.  The q-exponents: x has 0 and 1; ϖ adds 0, each of
    the n-1 S_k adds 0 or 1 and each of the n-1 R^{-1} adds -1, 0 or 1, so
    C_0 x = T_0 x - Q x lies in [-(n-1), 2n-1]; C_1 = R - q adds -1, 0 or 1,
    so C_1 C_0 x lies in [-n, 2n], as does [2]_{Q/q} x = (Q/q + q/Q) x.
    These 3n + 1 values need K > 3n; K = 3n + 1.
    """
    big_k = 3 * n + 1
    v = LaurentPoly.monomial
    sc = {"one": LaurentPoly.one(), "q": v(1), "q_inv": v(-1),
          "big_q": v(big_k), "big_q_inv": v(-big_k)}
    two = gauss(2, sc["big_q"] * sc["q_inv"])
    for tail in itertools.product((1, 2), repeat=n - 2):
        x = {(1, 2) + tail: sc["one"], (2, 1) + tail: -sc["q"]}
        lhs = tensor_c_action(n, 1, tensor_c_action(n, 0, x, sc), sc)
        if lhs != {w: two * c for w, c in x.items()}:
            return False
    return True
