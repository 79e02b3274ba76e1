"""
The level-2 v-deformed Fock space: residues, f/e operators, crystal
operators, the canonical basis of the submodule generated by the empty
bipartition, infinite-dihedral alcove combinatorics, decomposition numbers
and the conversion to Kleshchev bipartitions.

Conventions.  A node is (i, j, c): row i >= 1, column j >= 1, component
c ∈ {1, 2} of a bipartition.  With charge s = (s₁, s₂) and quantum
characteristic e, the residue of a node is (j - i + s_c) mod e.  Nodes are
totally ordered by the integer j - i + s_c, ties broken by the *inverted*
component comparison: on equal content, the component-2 node is smaller.

Crystal operators use the signature rule: list all addable and removable
i-nodes in increasing node order and repeatedly cancel an addable node
standing immediately to the right of a removable one; f̃_i acts on the
largest surviving addable node, ẽ_i on the smallest surviving removable
node, and ẽ_i^ε, with ε = ε_i the number of surviving removable nodes, on
all of them.  (The direction is calibrated against anchor sequences checked
in the test-suite; every competing convention fails at least one anchor.)

The canonical basis G(μ) of the degree-n layer is computed LLT-style,
degree by degree: the monomial A(μ) = f_i^(a) G(ν) with ν = ẽ_i^a μ a
maximal ẽ_i-string is bar-invariant; coefficients with a nonzero
v^{<=0}-part at bipartitions other than μ are then eliminated by
bar-symmetric multiples of already-computed G(ν') of the same degree.  A
candidate is accepted only if every offender could be eliminated and the
resulting vector has coefficient exactly 1 at μ — together with
bar-invariance these conditions characterize G(μ) uniquely, so the result
does not depend on the residue chosen or the elimination order.  Of the
ẽ-strings whose G(ν) is built, the one whose G(ν) has the fewest terms is
tried first (ties in residue order): a short G(ν) gives a short candidate
with few offenders, so less is eliminated and fewer candidates are
blocked.  Elements whose candidates are all blocked on a not-yet-computed
same-degree G are retried after the rest of the layer (the
dominance-style order on bipartitions is not always compatible with the
elimination).

One table.  Every function reads one table per (s, e, n) on charged-abacus
bead masks.  A bipartition is one int: component c holds the beads
{λ_r − r + s_c} in its own window of 2n + 5 bits, bit q at position
s_c − n − 2 + q, every position below it full; that holds any bipartition
of degree <= n + 1 with its nodes, whatever the charge.  Adding or removing
a node of content p flips positions p − 1 and p, so in a window M the
addable i-nodes are (M<<1|1) & ~M & R_i and the removable ones
M & ~(M<<1|1) & R_i, R_i the positions of residue i.  Nodes are ordered by
(position, −c), so the signatures and the rows come from the bits:
f_i^(a) λ = Σ v^N μ runs over the a-sets S of addable i-nodes, μ = λ + S,
with the Lascoux-Leclerc-Thibon exponent N = Σ_{γ∈S} (#(addable i-nodes
above γ not in S) − #(removable i-nodes above γ)); a = 1 is f_i.  Tuples
are decoded only for the output and the ≺ order, one window at a time: a
window's partition depends on its mask alone, and is memoized by it, so a
key costs two lookups.  kleshchev_convert walks
one ẽ-descent at the geometric charge and replays it once with f̃ at the
least charge past 2n in the residue class of m, where the endpoint no
longer depends on the charge.

The elimination runs on Kronecker-packed ints (`blobcell.kronecker`) over
the bipartition keys.  G(ν) is kept at offset 0 and a candidate at an
offset taken from its rows' lowest exponent, so v^N is a shift, the
offender test is a mask and the multiplier is `bar_symmetric_low`.  A bound
on Σ|c| of every candidate coefficient grows with each elimination step,
and all vectors are widened before it reaches the digit bound.  The basis
is decoded once, equal coefficients sharing one LaurentPoly.
"""

from __future__ import annotations

from itertools import combinations

from . import partitions
from .kronecker import (add_scaled, bar_symmetric_low, decode, digits,
                        repack, width)
from .laurent import LaurentPoly, add_term
from .partitions import Bipartition
from .weylb import BoundExceeded, InvariantViolation

__all__ = [
    "residue", "node_key", "node_less", "addable_nodes", "removable_nodes",
    "f_action", "divided_f", "crystal_f", "crystal_e",
    "crystal_paths", "estrings", "canonical_basis",
    "AlcoveGeometry", "alcove_data", "decomposition_number",
    "kleshchev_convert",
    "NotUnitriangular", "SingularWeight", "NotReachable",
]

Node = tuple  # (i, j, c)
FockVector = dict  # Bipartition -> LaurentPoly


class NotUnitriangular(RuntimeError):
    """
    No candidate of some bipartition could be eliminated to a G(μ): the
    elimination follows the ≺ order of `_prec_key`, which fits charges near
    the geometric one; far from it (e.g. s = (10, 0), e = 3 from degree 9)
    a bipartition can be left with every candidate blocked.
    """


class SingularWeight(ValueError):
    """A weight lying on an alcove wall was passed where regular is needed."""


class NotReachable(ValueError):
    """The requested bipartition is not in the crystal of the submodule."""


def residue(node: Node, s, e: int) -> int:
    i, j, c = node
    return (j - i + s[c - 1]) % e


def node_key(node: Node, s):
    i, j, c = node
    return (j - i + s[c - 1], -c)


def node_less(a: Node, b: Node, s) -> bool:
    return node_key(a, s) < node_key(b, s)


def addable_nodes(b: Bipartition) -> list[Node]:
    out = []
    for c, p in enumerate(b, start=1):
        for r in range(1, len(p) + 2):
            row = p[r - 1] if r <= len(p) else 0
            above = p[r - 2] if r >= 2 else None
            if above is None or above > row:
                out.append((r, row + 1, c))
    return out


def removable_nodes(b: Bipartition) -> list[Node]:
    out = []
    for c, p in enumerate(b, start=1):
        for r in range(1, len(p) + 1):
            below = p[r] if r < len(p) else 0
            if p[r - 1] > below:
                out.append((r, p[r - 1], c))
    return out


def f_action(i: int, x: FockVector, s, e: int) -> FockVector:
    """f_i: add an i-node γ with coefficient v^{N_i^>} (see module doc)."""
    return divided_f(i, 1, x, s, e)


def divided_f(i: int, a: int, x: FockVector, s, e: int) -> FockVector:
    """The divided power f_i^(a) = f_i^a / [a]!, read from the rows."""
    table = _Table(s, e, max([0] + [sum(map(sum, lam)) for lam in x]) + a)
    rows, out = table.rows[i, a], {}
    for lam, c in x.items():
        for mu, n in rows[table.encode(lam)]:
            add_term(out, table.decode(mu), c.shift(n))
    return out


class _Memo(dict):
    """A dict that fills a missing key k with make(k)."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, k):
        value = self[k] = self.make(k)
        return value


class _Table:
    """
    The bipartitions of degree <= n + 1 at one (s, e) as bead-mask keys (see
    the module docstring); a node is its flip, the int that moves its bead.
    """

    def __init__(self, s, e: int, n: int):
        if e < 2:
            raise ValueError(f"e must be >= 2, got {e}")
        self.e, self.n = e, max(n, 0)  # a bound below 0 holds ∅ alone
        n, w = self.n, 2 * self.n + 5
        self.w, self.full = w, (1 << w) - 1
        # R_0 of a window with bit 0 at residue 0; per component the window's
        # shift in the key, bit 0's position p and its order 2p + 2 - c
        self._step = ((1 << -(-w // e) * e) - 1) // ((1 << e) - 1)
        s1, s2 = s
        self._windows = ((0, s1 - n - 2, 2 * (s1 - n) - 3),
                         (w, s2 - n - 2, 2 * (s2 - n) - 4))
        # parts[mask]: the partition of one window's mask, either component
        self._parts = _Memo(self._window_parts)
        # signatures[i, key]: the flips (adds, rems) the signature rule leaves
        self.signatures = _Memo(self._signature)
        # rows[i, a][key]: the pairs (μ, N) of f_i^(a) λ = Σ v^N μ
        self.rows = _Memo(lambda ia: _Memo(lambda k: self._row(*ia, k)))

    def encode(self, lam: Bipartition) -> int:
        n, key = self.n, 0
        if sum(map(sum, lam)) > n + 1:
            raise BoundExceeded(f"{lam} is past the table's degree {n} + 1")
        for c, p in enumerate(lam):
            mask = (1 << n + 2 - len(p)) - 1
            for r, part in enumerate(p, 1):  # row r's bead
                mask |= 1 << part - r + n + 2
            key |= mask << c * self.w
        return key

    def decode(self, key: int) -> Bipartition:
        return self._parts[key & self.full], self._parts[key >> self.w]

    def _window_parts(self, mask: int) -> tuple:
        parts, t = [], self.n + 1
        while (q := mask.bit_length() - 1) > t:  # row r's part is q - t
            parts.append(q - t)
            mask ^= 1 << q
            t -= 1
        return tuple(parts)

    def _inodes(self, key: int, i: int) -> list:
        """The i-nodes of key as (order, addable?, flip), by node order."""
        out, full, e, step = [], self.full, self.e, self._step
        if not 0 <= i < e:  # no node has residue i
            return out
        for shift, bottom, order in self._windows:
            res = step << (i - bottom) % e & full
            mask = key >> shift & full
            below = mask << 1 | 1
            for bits, addable in ((below & ~mask & res, True),
                                  (mask & ~below & res, False)):
                while bits:
                    q = bits.bit_length() - 1
                    bits ^= 1 << q
                    out.append((order + 2 * q, addable, 3 << q - 1 + shift))
        out.sort()
        return out

    def _signature(self, ik: tuple) -> tuple:
        i, key = ik
        adds, rems = [], []
        for _, addable, flip in self._inodes(key, i):
            if not addable:
                rems.append(flip)
            elif rems:
                rems.pop()
            else:
                adds.append(flip)
        return tuple(adds), tuple(rems)

    def paths(self) -> dict:
        """crystal_paths on keys."""
        k = self.encode(((), ()))
        paths, layer = {k: ()}, [k]
        for _ in range(self.n):
            nxt = []
            for k in layer:
                for i in range(self.e):
                    adds = self.signatures[i, k][0]
                    if adds and (fk := k ^ adds[-1]) not in paths:
                        paths[fk] = paths[k] + (i,)
                        nxt.append(fk)
            layer = nxt
        return paths

    def estrings(self, key: int) -> list:
        """estrings on keys."""
        rems = [(i, self.signatures[i, key][1]) for i in range(self.e)]
        return [(i, len(r), key ^ sum(r)) for i, r in rems if r]

    def _row(self, i: int, a: int, key: int) -> tuple:
        """
        f_i^(a) λ: λ + S for each a-set S of addable i-nodes, with N the sum
        over γ ∈ S of #(addable i-nodes above γ not in S) − #(removable
        i-nodes above γ).  Adding an i-node changes only its neighbours,
        whose residues are i ± 1 ≠ i as e >= 2, so the a! orders of adding
        S give monomials that sum to v^N·[a]!.
        """
        adds, above = [], 0  # (addable i-node, removable i-nodes above)
        for _, addable, flip in reversed(self._inodes(key, i)):
            if addable:
                adds.append((flip, above))
            else:
                above += 1
        row = []
        for chosen in combinations(range(len(adds)), a):
            mu, n = key, 0
            for t, j in enumerate(chosen):  # j - t addable above, not in S
                flip, rem = adds[j]
                mu, n = mu ^ flip, n + j - t - rem
            row.append((mu, n))
        return tuple(row)


# ---------------------------------------------------------------------------
# Crystal operators
# ---------------------------------------------------------------------------


def crystal_f(i: int, b: Bipartition, s, e: int) -> Bipartition | None:
    table = _Table(s, e, sum(map(sum, b)))
    key = table.encode(b)
    adds = table.signatures[i, key][0]
    return table.decode(key ^ adds[-1]) if adds else None


def crystal_e(i: int, b: Bipartition, s, e: int) -> Bipartition | None:
    table = _Table(s, e, sum(map(sum, b)))
    key = table.encode(b)
    rems = table.signatures[i, key][1]
    return table.decode(key ^ rems[0]) if rems else None


def crystal_paths(n: int, s, e: int) -> dict:
    """
    BFS of the crystal of the submodule generated by the empty bipartition:
    maps every reachable bipartition of degree <= n to its residue path
    (the f̃-residue sequence from ((), ())).
    """
    table = _Table(s, e, n)
    return {table.decode(k): path for k, path in table.paths().items()}


def estrings(b: Bipartition, s, e: int) -> list[tuple[int, int, Bipartition]]:
    """All maximal ẽ-strings at b: (residue i, length ε_i, endpoint ẽ_i^ε b)."""
    table = _Table(s, e, sum(map(sum, b)))
    return [(i, a, table.decode(nu))
            for i, a, nu in table.estrings(table.encode(b))]


# ---------------------------------------------------------------------------
# Canonical basis (LLT elimination)
# ---------------------------------------------------------------------------


def _prec_key(b: Bipartition):
    """A linear extension of the ≺ order (dominance of 2-quotient inverses)."""
    return partitions.two_quotient_inverse(b)


def canonical_basis(n: int, s, e: int, bound: int = 12) -> dict:
    """
    G(μ) for every μ of degree <= n reachable in the crystal, as
    FockVectors, built degree by degree (see the module docstring).
    """
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds Fock bound {bound}")
    table = _Table(s, e, n)
    by_degree: dict[int, list] = {}
    for k, path in table.paths().items():
        by_degree.setdefault(len(path), []).append(k)
    basis = _Basis(table)
    for d in range(1, n + 1):
        pending = sorted(by_degree.get(d, []), key=basis.prec)
        stalled = 0
        while pending:
            mu = pending.pop(0)
            strings = table.estrings(mu)
            if not strings:
                raise NotReachable(f"{table.decode(mu)} is not connected to "
                                   "the empty bipartition")
            if not any(basis.add(mu, i, a, nu)
                       for i, a, nu in basis.candidates(strings)):
                pending.append(mu)
                stalled += 1
                if stalled > len(pending):
                    raise NotUnitriangular(
                        "no admissible candidate for any of "
                        f"{[table.decode(k) for k in pending]}")
                continue
            stalled = 0
    return basis.decode()


class _Basis:
    """
    The canonical basis under construction, on the bipartition keys of
    `table`: g[k] is G(k) as k' -> packed int at offset 0 and width `bits`,
    and big[k] = (largest Σ|c| of a coefficient of G(k), Σ|c| over all its
    coefficients).  A candidate's coefficients are bounded as it is built,
    and the width grows before that bound reaches the digit bound.
    """

    def __init__(self, table: _Table):
        self.table = table
        empty = table.encode(((), ()))
        self.g, self.big = {empty: {empty: 1}}, {empty: (1, 1)}
        self.bits = width(1, 16)
        self.names = _Memo(table.decode)  # k -> its bipartition
        self.prec = _Memo(lambda k: _prec_key(self.names[k])).__getitem__
        # norms[c]: Σ|c| of the packed int c at the current width
        self.norms = _Memo(lambda c: sum(map(abs, digits(c, self.bits))))

    def candidates(self, strings: list) -> list:
        """
        The ẽ-strings (i, a, ν) whose G(ν) is built, the G(ν) with the
        fewest terms first (ties in residue order): any of them gives the
        same G(μ), and a short G(ν) makes a short candidate.
        """
        g = self.g
        return sorted((t for t in strings if t[2] in g),
                      key=lambda t: len(g[t[2]]))

    def add(self, mu: int, i: int, a: int, nu: int) -> bool:
        """
        Build G(μ) from A(μ) = f_i^(a) G(ν), if every offender has its G
        already: whether G(μ) was added.
        """
        bound = self.big[nu][1]  # Σ|c| of G(ν) bounds every Σ|c| of A(μ)
        self._fit(bound)
        rows, bits = self.table.rows[i, a], self.bits
        terms = [(rows[lam], c) for lam, c in self.g[nu].items()]
        off = max([0] + [-n for r, _ in terms for _, n in r])
        vec: dict = {}
        get = vec.get
        for r, c in terms:
            for b, n in r:
                vec[b] = get(b, 0) + (c << bits * (n + off))
        mask = (1 << bits * (off + 1)) - 1
        for _ in range(10000):
            offenders = [b for b, c in vec.items() if c & mask and b != mu]
            if not offenders:
                break
            nb = max(offenders, key=self.prec)
            if nb not in self.g:
                return False
            mult = bar_symmetric_low(vec[nb], bits, off)
            bound += self.norms[mult] * self.big[nb][0]
            old = self._fit(bound)
            if old != self.bits:
                bits, mask = self.bits, (1 << self.bits * (off + 1)) - 1
                vec = {b: repack(c, old, bits) for b, c in vec.items()}
                mult = repack(mult, old, bits)
            add_scaled(vec, self.g[nb], -mult)
        else:
            return False
        shift = bits * off
        if vec.get(mu) != 1 << shift:
            return False
        self.g[mu] = out = {b: c >> shift for b, c in vec.items() if c}
        sizes = list(map(self.norms.__getitem__, out.values()))
        self.big[mu] = (max(sizes), sum(sizes))
        return True

    def _fit(self, bound: int) -> int:
        """
        Widen every G, if need be, so that digits up to `bound` read back:
        returns the width before.
        """
        old = self.bits
        if bound >> old - 2:
            self.bits = width(bound, 16)
            if bound >> self.bits - 2:
                raise InvariantViolation(
                    f"digit width {self.bits} cannot hold a coefficient "
                    f"bound of {bound}")
            self.g = {k: {b: repack(c, old, self.bits) for b, c in v.items()}
                      for k, v in self.g.items()}
            self.norms.clear()
        return old

    def decode(self) -> dict:
        names, memo = self.names, {}
        return {names[k]: decode(v, names, self.bits, 0, memo)
                for k, v in self.g.items()}


# ---------------------------------------------------------------------------
# Alcove geometry of the infinite dihedral group
# ---------------------------------------------------------------------------


class AlcoveGeometry:
    """Walls {m₋ + ke} with the fundamental alcove (m₋, m₋ + e) around 0."""

    def __init__(self, e: int, m: int):
        self.e, self.m = e, m
        p = self.p = -((m + e - 1) // e)  # largest p with m + pe <= 0
        self.s = (m + p * e, 0)
        self.m_minus = -(m + (p + 1) * e)
        self.m_plus = self.m_minus + e

    def is_wall(self, lam: int) -> bool:
        return (lam - self.m_minus) % self.e == 0

    def alcove_index(self, lam: int) -> int:
        if self.is_wall(lam):
            raise SingularWeight(f"{lam} lies on a wall")
        return (lam - self.m_minus) // self.e

    def linked(self, lam: int, mu: int) -> bool:
        """
        Whether μ lies in the orbit of λ under the infinite dihedral group
        generated by the reflections in the walls.  The orbit of λ is
        {λ + 2ke} ∪ {2m₋ − λ + 2ke}.
        """
        two_e = 2 * self.e
        return ((lam - mu) % two_e == 0
                or (lam + mu - 2 * self.m_minus) % two_e == 0)


def alcove_data(e: int, m: int) -> AlcoveGeometry:
    return AlcoveGeometry(e, m)


def _dihedral_leq(i: int, j: int) -> bool:
    """Bruhat order on the infinite dihedral group by alcove index."""
    return i == j or abs(i) < abs(j)


def decomposition_number(geom: AlcoveGeometry, lam: int, mu: int) -> LaurentPoly:
    """
    v^{ℓ(w_μ) - ℓ(w_λ)} when λ and μ are in the same linkage class (orbit
    of the wall-reflection group) and w_λ <= w_μ in Bruhat order, else 0
    (the positive-exponent orientation; cross-validated against the
    canonical basis computation in the tests).
    """
    wi, wj = geom.alcove_index(lam), geom.alcove_index(mu)
    if lam != mu and not geom.linked(lam, mu) or not _dihedral_leq(wi, wj):
        return LaurentPoly.zero()
    return LaurentPoly.monomial(abs(wj) - abs(wi))


# ---------------------------------------------------------------------------
# Kleshchev conversion
# ---------------------------------------------------------------------------


def _descent_path(b: Bipartition, s, e: int) -> list[int]:
    """
    The residues of an f̃-path from ((), ()) to b, read off a walk down
    from b by any ẽ_i that does not vanish: each step removes one node.
    In the crystal generated by ((), ()) the walk can only stop at ((), ()).
    """
    table = _Table(s, e, sum(map(sum, b)))
    k, path = table.encode(b), []
    for _ in range(table.n):
        for i in range(e):
            rems = table.signatures[i, k][1]
            if rems:
                break
        else:
            raise NotReachable(f"{b} is not reachable at charge {s}")
        path.append(i)
        k ^= rems[0]
    return path[::-1]


def kleshchev_convert(n: int, e: int, m: int, lam: int) -> Bipartition:
    """
    Convert the blob weight λ ∈ Λ_n to the Kleshchev bipartition of the
    corresponding simple module: find a crystal path of the one-line
    bipartition of weight λ at the geometric charge s = (m + pe, 0), then
    replay the same residue sequence once at the asymptotic charge
    (s₁', 0), s₁' the least integer ≡ m (mod e) with s₁' > 2n.  The two
    charges differ by a multiple of e, so their crystals are isomorphic and
    every path gives the same endpoint.  Every node of a bipartition of
    size <= n has content >= s₁' - n in component 1 and <= n in component
    2, so past 2n every component-1 node outranks every component-2 node:
    the signatures, and hence the endpoint, no longer depend on s₁'.
    """
    geom = alcove_data(e, m)
    path = _descent_path(partitions.one_line_of_weight(n, lam), geom.s, e)
    s1 = 2 * n + 1 + (m - 2 * n - 1) % e
    table = _Table((s1, 0), e, n)
    k = table.encode(((), ()))
    for i in path:
        adds = table.signatures[i, k][0]
        if not adds:
            raise NotReachable(
                f"replay at charge ({s1}, 0) died for weight {lam}")
        k ^= adds[-1]
    return table.decode(k)
