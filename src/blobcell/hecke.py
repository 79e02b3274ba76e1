"""
Hecke algebras with a Kazhdan-Lusztig C-basis engine, cells and ideals.

The engine works over the ring 𝓐 = ℤ[v, v^{-1}].  It reads a finite Coxeter
group from one object, `Coxeter`, whose tables (elements by length, reduced
words, inverses, left and right multiplication by each generator with its
descent set) are built once, on integer indices, so that the same code
serves two groups:

  * the type-B group W_n of signed permutations with unequal parameters
    `type_b_weight` (Γ = ℤ, a = 2, b = 1), the source of every generic scalar;
  * the symmetric group S_N with the equal parameter q_{s_1} of W_n, used
    for the comparison along the doubling embedding ι : W_n → S_{2n}.

T_s satisfies (T_s - q_s)(T_s + q_s^{-1}) = 0 and C_s := T_s - q_s.  The
C-basis is the unique family with bar(C_w) = C_w and C_w - T_w supported on
strictly positive powers of v; it is constructed by triangular correction,
C_w = C_s C_{sw} - Σ μ_y C_y, for the w with w^{-1} >= w only.  Every other
C_w is the already-built C_{w^{-1}} with each key y replaced by y^{-1}: the
anti-involution T_y ↦ T_{y^{-1}} fixes every T_s and commutes with bar, and
L(w) = L(w^{-1}), so it sends C_{w^{-1}} to a bar-invariant T_w plus terms
in vℤ[v], which is C_w by uniqueness (Lusztig, Hecke algebras with unequal
parameters, ch. 5-6).

Inside the engine an element maps index -> int, each coefficient a
Kronecker-packed Laurent polynomial (module `kronecker`): p(2^B)·2^{B·off},
balanced digits in base 2^B.  q_s and q_s - q_s^{-1} are shifts, a product
with a short polynomial is one int product, and "has an exponent <= 0" is
a mask test.  Offsets follow the exponents a vector can reach (C-basis in
ℤ[v]: 0; bar(Σ p_y T_y): max deg p_y + max L(y)); the digit width B follows
a bound on the coefficients read back (32 bits for the C-basis).  A digit of
2^{B-2} or more in magnitude raises InvariantViolation; it never wraps.

At the boundary elements map windows to LaurentPoly; a window outside the
group raises SizeMismatch.  `multiply_t` and `bar_involution` return
`kronecker.Packed` vectors, which `decode()` turns into dicts; `KLBasis.c[w]`
and the rows of `left_product` are read-only `kronecker.Frozen` dicts, and
`c[w]` keeps its Packed form: C_s·C_w from `c[w]` into `c_coordinates` is
never decoded.  `bar_involution` is Horner's rule on the tree of reduced
words; `check_bar_invariance` compares packed ints.
"""

from __future__ import annotations

import itertools

from . import weylb
from .kronecker import (Decoded, Frozen, Packed, add_scaled,
                        bar_symmetric_low, decode, largest_norm, low, norm,
                        pack, repack, width)
from .laurent import LaurentPoly, add_term, gauss
from .weylb import BoundExceeded, InvariantViolation, NotInWb, SizeMismatch

__all__ = [
    "Coxeter", "type_b_weight", "type_b", "type_a",
    "t_gen", "c_gen", "multiply_t", "bar_involution",
    "KLBasis", "compute_kl_basis", "left_cells", "IdealJn", "ideal_jn",
    "type_a_kl_compare", "tensor_ideal_annihilates", "ideal_vanish_symbolic",
    "NotInWb",
]

KL_MAX_N = 4
_C_BITS = 32  # digit width of the C-basis table
_Q0, _QI = LaurentPoly.monomial(1), LaurentPoly.monomial(2)


def type_b_weight(k: int) -> LaurentPoly:
    """The r = 0 parameters q_{s_0} = v, q_{s_i} = v^2 (i >= 1), b/a = 1/2,
    as the same two objects on every call (`left_product` reads them)."""
    return _Q0 if k == 0 else _QI


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

    `weight(k)` is the parameter q_s = v^a of generator k.
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
        self._wlen = wlen  # L(w)
        inv = self.inverse
        lefts = {k: [inv[move[inv[i]]] for i in range(len(els))]
                 for k, move in moves.items()}
        self.left = {k: (left, shortened(left)) for k, left in lefts.items()}
        self._gen_elts = {k: els[move[0]] for k, move in moves.items()}


def type_b(n: int) -> Coxeter:
    """W_n with the unequal parameters `type_b_weight`."""
    return Coxeter(f"B{n}", range(n), weylb.identity(n), weylb.apply_generator,
                   weight=type_b_weight)


def type_a(n_points: int) -> Coxeter:
    """
    The symmetric group S_N with the equal parameter q_{s_1} of W_n.  For
    k >= 1, `weylb.apply_generator` swaps window slots k and k+1, which is
    right multiplication by s_k on permutations too.
    """
    q = type_b_weight(1)
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
    return {cox._gen_elts[k]: LaurentPoly.one(), cox.identity: -cox.weight(k)}


def _indexed(cox: Coxeter, x: HeckeElement | Packed) -> list:
    """x as (index, LaurentPoly) terms; SizeMismatch outside the group."""
    if isinstance(x, Packed):
        x = x.decode()
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


def _packed(cox: Coxeter, x, bits_for) -> tuple:
    """
    x as (terms, bits, off, big): index -> int at width bits and offset off,
    big bounding each Σ|c|.  A Packed x of cox, or the packed form of a c[w],
    is kept when bits_for(big) <= its width; the rest is packed at that.
    """
    p = x if isinstance(x, Packed) else getattr(x, "packed", None)
    if (p is not None and p.elements is cox.elements
            and bits_for(p.big) <= p.bits):
        return p.terms, p.bits, p.off, p.big
    terms = _indexed(cox, x)
    big = max([norm(p) for _, p in terms], default=0)
    bits, off = bits_for(big), low(p for _, p in terms)
    return {i: pack(p, bits, off) for i, p in terms}, bits, off, big


def multiply_t(cox: Coxeter, x: HeckeElement | Packed,
               y: HeckeElement | Packed) -> Packed:
    """
    The product x*y in the T-basis, as a Packed vector.  The factor with
    fewer terms is walked term by term, as reduced words, over the other: x
    by left passes T_k (...) over y, or y by right passes over x.  Each T_k
    at most triples the largest Σ|c| of a coefficient, which bounds the
    digits.  The other factor, when it is Packed or a c[w], is read packed.

    >>> cox = type_b(2)
    >>> multiply_t(cox, t_gen(cox, 0), t_gen(cox, 0)).decode()
    {(1, 2): LaurentPoly({0: 1}), (-1, 2): LaurentPoly({-1: -1, 1: 1})}
    """
    # sizes without decoding; on a tie, walk a factor that is not packed
    size_x, size_y = ((len(getattr(f, "terms", f)),
                       isinstance(f, Packed) or hasattr(f, "packed"))
                      for f in (x, y))
    left = size_x <= size_y
    walk = _indexed(cox, x if left else y)
    weight = sum(norm(p) * 3 ** cox.length[i] for i, p in walk)
    other, bits, off_o, big = _packed(cox, y if left else x,
                                      lambda big: width(weight * big))
    off_w = low(p for _, p in walk)
    drop = max([0] + [cox._wlen[i] for i, _ in walk])  # v^{-L(u)} at worst
    start = {i: c << bits * drop for i, c in other.items()}
    side = cox.left if left else cox.right
    out: dict = {}
    for u, p in walk:
        acc, word = start, cox.words[u]
        for k in (reversed(word) if left else word):
            acc = _mult_gen(cox, side, k, acc, bits)
        add_scaled(out, acc, pack(p, bits, off_w))
    return Packed({i: c for i, c in out.items() if c}, cox.elements, bits,
                  off_w + off_o + drop, weight * big)


def bar_involution(cox: Coxeter, x: HeckeElement | Packed) -> Packed:
    """
    T_w ↦ T_{w^{-1}}^{-1}, v ↦ v^{-1}, extended additively: Packed.  With
    words[y] = s_1⋯s_k it is Σ bar(p_y) T_{s_1}^{-1}⋯T_{s_k}^{-1}, by Horner's
    rule on the tree of reduced words (the parent of y is y s_k): longest
    first, each node's vector goes into its parent's by one left T_{s_k}^{-1}.
    """
    terms = _indexed(cox, x)
    bound = sum(norm(p) * 3 ** cox.length[i] for i, p in terms)
    bits = width(bound)
    off = (max([0] + [p.max_exp() for _, p in terms if p])
           + max([0] + [cox._wlen[i] for i, _ in terms]))  # v^{-L(y)} at worst
    acc = {i: {0: pack(p, bits, off, -1)} for i, p in terms}
    for y in range(max(acc, default=0), 0, -1):
        if y in acc:
            s = cox.words[y][-1]
            vec = _mult_gen(cox, cox.left, s, acc.pop(y), bits, inverse=True)
            parent = cox.right[s][0][y]
            # the shorter vector goes into the longer; a new parent is empty
            small, vec = sorted((acc.get(parent, {}), vec), key=len)
            add_scaled(vec, small, 1)
            acc[parent] = vec
    return Packed({i: c for i, c in acc.get(0, {}).items() if c},
                  cox.elements, bits, off, bound)


# ---------------------------------------------------------------------------
# KL C-basis
# ---------------------------------------------------------------------------


class KLBasis:
    """
    The C-basis {C_w} of the Hecke algebra of `cox`, with the W-graph: the
    memoized C-coordinates of every product C_s C_w.  `c` maps w to C_w.

    For w with w^{-1} >= w the build makes C_w = C_s C_{sw} - Σ μ_y C_y and
    keeps {w: 1} ∪ {y: μ_y} as the packed row (s, sw); for the other w it
    copies C_{w^{-1}} with T_y ↦ T_{y^{-1}} and keeps no row.  Every other
    row with su > u comes from the same elimination step, and the rows with
    su < u have a closed form.
    """

    def __init__(self, cox: Coxeter):
        self.cox, self.elements, self._bits = cox, cox.elements, _C_BITS
        self._off = max(cox._exps.values(), default=0)  # exponents >= -off
        # decoded rows, their memo, and the build's packed rows until decoded
        self._rows, self._row_memo, self._built = {}, {}, {}
        self._build()
        self._tables = {self._bits: self._c}
        self.c = Decoded(self._c, self.elements, cox.index, self._bits, 0)

    def _build(self) -> None:
        cox, els, inv = self.cox, self.cox.elements, self.cox.inverse
        shift = self._bits * self._off
        mask = (1 << shift + self._bits) - 1  # the digits of exponent <= 0
        c = self._c = [{0: 1}]
        one = {}.setdefault  # one int object per distinct coefficient
        for w in range(1, len(els)):
            if inv[w] < w:  # C_w is C_{w⁻¹} with T_y ↦ T_{y⁻¹}
                c.append({inv[y]: h for y, h in c[inv[w]].items()})
                continue
            s = min(k for k in cox.gens if w in cox.left[k][1])
            d, self._built[s, cox.left[s][0][w]] = self._step(s, w)
            # T_w has coefficient 1, every other T_y lies in v·ℤ[v]
            for y, h in d.items():
                if h != 1 << shift if y == w else h & mask:
                    raise InvariantViolation(
                        f"C_{els[w]}: bad coefficient at {els[y]}")
            c.append({y: one(h >> shift, h >> shift) for y, h in d.items()
                      if h})

    def _step(self, s: int, w: int) -> tuple:
        """
        Subtract μ_y C_y, longest y first, from the packed C_s C_{sw}
        (sw < w) until C_w is left: returns (C_w at offset off, the packed
        row {w: 1} ∪ {y: μ_y}).  The build checks what is left.
        """
        cox, bits, off, c = self.cox, self._bits, self._off, self._c
        d = _c_s_times(cox, s, c[cox.left[s][0][w]], bits, off)
        row, mask = {w: 1 << bits * off}, (1 << bits * (off + 1)) - 1
        # a μ_y can only sit at a y with sy < y (Lusztig, Theorem 6.6)
        for y in sorted((d.keys() & cox.left[s][1]) - {w}, reverse=True):
            if d[y] & mask:
                mu = row[y] = bar_symmetric_low(d[y], bits, off)
                add_scaled(d, c[y], -mu)
        return d, row

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
        """
        bar(C_w) = C_w from `bar_involution` alone, without the W-graph
        rows, compared as ints packed at the width of bar(C_w).  Whole-basis
        callers use `verify_bar_invariance`.  SizeMismatch outside the group.
        """
        _indexed(self.cox, {w: None})
        bar = bar_involution(self.cox, self.c[w])
        return bar.terms == {i: pack(p, bar.bits, bar.off)
                             for i, p in _indexed(self.cox, self.c[w])}

    def verify_bar_invariance(self) -> dict:
        """
        w -> whether bar(C_w) = C_w follows by induction on the length
        (Lusztig, Hecke algebras with unequal parameters, ch. 5-6), for
        every w: bar(C_s) = C_s for each s, checked directly; then for the
        row (s, sw) of `left_product`, s the least left descent of w, every
        μ is bar-invariant and sits at an element shorter than w, and
        `c_coordinates` expands C_s C_{sw}, from `multiply_t` on the packed
        C_{sw}, to that row: C_s C_{sw} = C_w + Σ μ_y C_y.
        """
        cox, els, bits = self.cox, self.elements, self._bits
        big = largest_norm(self._c, bits)  # bounds every Σ|c| of the table
        base = {s: bar_involution(cox, c_gen(cox, s)).decode() == c_gen(cox, s)
                for s in cox.gens}
        ok = [True]
        for w in range(1, len(els)):
            s = min(k for k in cox.gens if w in cox.left[k][1])
            sw = cox.left[s][0][w]
            row = self.left_product(s, els[sw])
            mus = {cox.index[y]: mu for y, mu in row.items()}
            prod = multiply_t(cox, c_gen(cox, s),
                              Packed(self._c[sw], els, bits, 0, big))
            ok.append(base[s] and ok[sw] and mus.get(w) == LaurentPoly.one()
                      and all(y == w or (cox.length[y] < cox.length[w]
                                         and mu.bar() == mu and ok[y])
                              for y, mu in mus.items())
                      and self.c_coordinates(prod) == row)
        return dict(zip(els, ok))

    def c_coordinates(self, x: HeckeElement | Packed) -> dict:
        """
        Expand x in the C-basis (one triangular pass, longest first).  A
        Packed x of this group, or a c[w], that is wide enough is not decoded.
        """
        terms, bits, off, _ = _packed(  # 16 bits of headroom
            self.cox, x, lambda big: max(self._bits, width(big << 16, 8)))
        if bits not in self._tables:  # repack once for other widths
            self._tables[bits] = [{y: repack(c, self._bits, bits)
                                   for y, c in row.items()} for row in self._c]
        return decode(self._coords(dict(terms), self._tables[bits]),
                      self.elements, bits, off)

    def left_product(self, s: int, w) -> Frozen:
        """
        The row (s, w) of the W-graph, C_s C_w in C-coordinates, as a memoized
        read-only dict.  When sw > w it is the build's row, or for a w the
        build copied, the row of the elimination step `_step(s, sw)`; when
        sw < w it is {w: -(q_s^{-1} + q_s)}, from T_s C_w = -q_s^{-1} C_w.
        SizeMismatch or IndexOutOfRange for a w or s outside the group.
        """
        row = self._rows.get((s, w))
        if row is None:
            cox = self.cox
            [(i, _)] = _indexed(cox, {w: None})
            if s not in cox.left:
                raise weylb.IndexOutOfRange(f"no generator {s} in {cox.name}")
            if i in cox.left[s][1]:
                qs = cox.weight(s)
                row = {w: -(qs.bar() + qs)}
            else:
                row = decode(self._built.pop((s, i), None)
                             or self._step(s, cox.left[s][0][i])[1],
                             self.elements, self._bits, self._off,
                             self._row_memo)
            row = self._rows[s, w] = Frozen(row)
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
    """Strongly connected components (iterative Kosaraju)."""
    order, seen = [], set()
    for root in edges:  # nodes in the order their depth-first walk ends
        if root not in seen:
            seen.add(root)
            stack = [(root, iter(edges[root]))]
            while stack:
                node, it = stack[-1]
                nxt = next((y for y in it if y not in seen), None)
                if nxt is None:
                    order.append(stack.pop()[0])
                else:
                    seen.add(nxt)
                    stack.append((nxt, iter(edges[nxt])))
    back: dict = {w: [] for w in edges}
    for w, ys in edges.items():
        for y in ys:
            back[y].append(w)
    out, done = [], set()
    for root in reversed(order):  # each walk back from a root is a component
        if root not in done:
            done.add(root)
            comp, todo = [root], [root]
            while todo:
                new = [y for y in back[todo.pop()] if y not in done]
                done.update(new)
                comp += new
                todo += new
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
            g = multiply_t(cox, multiply_t(cox, c1, c_gen(cox, k)), c1).decode()
            for w, c in c1.items():
                add_term(g, w, -(c * scale))
            gens.append(g)
        return gens


def _ideal_generator_pairs(n: int) -> list:
    """
    The pairs (k, c) whose C_1C_kC_1 - c·C_1 generate J_n: (2, 1) when
    n >= 3, and (0, [2]_{Q/q}), Q/q + q/Q for Q = q_{s_0}, q = q_{s_i}.
    """
    pairs = [(2, LaurentPoly.one())] if n >= 3 else []
    return pairs + [(0, gauss(2, type_b_weight(0) * type_b_weight(1).bar()))]


def ideal_jn(n: int, basis: KLBasis | None = None) -> IdealJn:
    if n < 2:
        raise ValueError("the ideal needs n >= 2")
    if basis is None:
        basis = compute_kl_basis(n)
    elif len(basis.cox.gens) != n:
        raise ValueError(
            f"the basis is of rank {len(basis.cox.gens)}, not {n}")
    return IdealJn(basis)


# ---------------------------------------------------------------------------
# Cell modules
# ---------------------------------------------------------------------------


def cell_module(basis: KLBasis, w):
    """
    The left cell module of w in W_b: ordered basis {C_z : z ~_L w} and the
    matrix of each C_s acting by left multiplication, with coordinates
    outside the cell discarded, over ℤ[v, v^{-1}].  SizeMismatch if w is
    not an element of the basis's group.
    Returns (cell: ordered tuple, matrices: dict gen -> row-major matrix).
    """
    _indexed(basis.cox, {w: None})
    if not weylb.is_in_wb_by_words(w):
        raise NotInWb(f"{w} lies outside W_b")
    cell = next(sorted(comp) for comp in left_cells(basis) if w in comp)
    zero = LaurentPoly.zero()
    mats = {}
    for s in basis.cox.gens:
        rows = [basis.left_product(s, z) for z in cell]
        mats[s] = [[rows[j].get(y, zero) for j in range(len(cell))]
                   for y in cell]
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

    s, violations, pairs = n - 1, [], 0
    wb = [w for w in basis_b.elements if weylb.is_in_wb_by_words(w)]
    for w in wb:
        na = _iota_s_row(basis_a, n, w)
        for z, coeff in basis_b.left_product(s, w).items():
            pairs += 1
            if not coeff.is_zero() and _iota_perm(z) not in na:
                violations.append((w, z))

    cells_b = [c for c in left_cells(basis_b)
               if all(weylb.is_in_wb_by_words(u) for u in c)]
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
# The ideal on tensor space (the action itself is in module `tensor`)
# ---------------------------------------------------------------------------


def tensor_ideal_annihilates(n: int) -> bool:
    """
    Both ideal generators C_1C_2C_1 - C_1 and C_1C_0C_1 - [2]_{Q/q} C_1
    kill every basis word of V^{⊗n} (in the one-variable generic ring).
    """
    if n < 2:
        raise ValueError("the ideal generators need n >= 2")
    from .tensor import generic_tensor_scalars, tensor_c_action

    sc = generic_tensor_scalars()
    for word in itertools.product((1, 2), repeat=n):
        c1x = tensor_c_action(n, 1, {word: sc["one"]}, sc)
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
    if n < 2:
        raise ValueError("the ideal generators need n >= 2")
    from .tensor import _scalars, tensor_c_action

    big_k = 3 * n + 1
    sc = _scalars(LaurentPoly.monomial(1), LaurentPoly.monomial(big_k))
    two = gauss(2, sc["big_q"] * sc["q_inv"])
    for tail in itertools.product((1, 2), repeat=n - 2):
        x = {(1, 2) + tail: sc["one"], (2, 1) + tail: -sc["q"]}
        lhs = tensor_c_action(n, 1, tensor_c_action(n, 0, x, sc), sc)
        if lhs != {w: two * c for w, c in x.items()}:
            return False
    return True
