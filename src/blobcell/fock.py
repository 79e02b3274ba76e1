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
does not depend on the residue chosen or the elimination order.  Elements
whose candidates are all blocked on a not-yet-computed same-degree G are
retried after the rest of the layer (the dominance-style order on
bipartitions is not always compatible with the elimination).

One table.  A table per (s, e) numbers the bipartitions it meets and lists
each one's addable and removable nodes once, by residue and descending
node_key.  The signatures and the rows read that list: f_i^(a) λ = Σ v^N μ
runs over the a-sets S of addable i-nodes, μ = λ + S, with the
Lascoux-Leclerc-Thibon exponent N = Σ_{γ∈S} (#(addable i-nodes above γ not
in S) − #(removable i-nodes above γ)); a = 1 is the action of f_i.
canonical_basis walks the crystal, reads its ẽ-strings and builds its rows
on one table; every other function builds its own.  kleshchev_convert walks
one ẽ-descent at the geometric charge and replays it once with f̃ at the
least charge past 2n in the residue class of m, where the endpoint no
longer depends on the charge.

The elimination runs on Kronecker-packed ints (`blobcell.kronecker`) over
the numbered bipartitions.  G(ν) is kept at offset 0 and a candidate at an
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
    """The LLT monomial failed to be unitriangular (must not happen)."""


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


def _add_node(b: Bipartition, node: Node) -> Bipartition:
    i, j, c = node
    p = list(b[c - 1])
    if i == len(p) + 1:
        p.append(1)
    else:
        p[i - 1] += 1
    out = list(b)
    out[c - 1] = tuple(p)
    return tuple(out)


def _remove_nodes(b: Bipartition, nodes) -> Bipartition:
    """b without the given removable nodes."""
    parts = [list(p) for p in b]
    for i, _, c in nodes:
        parts[c - 1][i - 1] -= 1
    return tuple(tuple(x for x in p if x) for p in parts)


def f_action(i: int, x: FockVector, s, e: int) -> FockVector:
    """f_i: add an i-node γ with coefficient v^{N_i^>} (see module doc)."""
    return divided_f(i, 1, x, s, e)


def divided_f(i: int, a: int, x: FockVector, s, e: int) -> FockVector:
    """The divided power f_i^(a) = f_i^a / [a]!, read from the rows."""
    table = _Table(s, e)
    keys, number = table.keys, table.number
    out: FockVector = {}
    for lam, c in x.items():
        for mu, n in table.row(i, a, number(lam)):
            add_term(out, keys[mu], c.shift(n))
    return out


class _Table:
    """
    The bipartitions met at one (s, e), numbered in that order (`keys[k]`,
    `number(λ)`), each one's addable and removable nodes listed once.  They
    are read by `signature(k, i)` and by `row(i, a, k)`, the pairs (μ, N) of
    f_i^(a) λ = Σ v^N μ.
    """

    def __init__(self, s, e: int):
        if e < 2:
            raise ValueError(f"e must be >= 2, got {e}")
        self.s, self.e = s, e
        self.keys: list = []
        self.index: dict = {}
        self._nodes: dict = {}  # k -> {i: [(addable?, node), ...]}
        self._signatures: dict = {}  # (k, i) -> (addable, removable)
        self._rows: dict = {}  # (i, a, k) -> ((μ, N), ...)

    def number(self, lam: Bipartition) -> int:
        k = self.index.get(lam)
        if k is None:
            k = self.index[lam] = len(self.keys)
            self.keys.append(lam)
        return k

    def nodes(self, k: int, i: int) -> list:
        """The i-nodes of k as (addable?, node), by descending node_key."""
        table = self._nodes.get(k)
        if table is None:
            s, lam = self.s, self.keys[k]
            marked = sorted([(*node_key(g, s), True, g)
                             for g in addable_nodes(lam)]
                            + [(*node_key(g, s), False, g)
                               for g in removable_nodes(lam)], reverse=True)
            table = self._nodes[k] = {}
            for content, _, addable, g in marked:
                table.setdefault(content % self.e, []).append((addable, g))
        return table.get(i, ())

    def signature(self, k: int, i: int) -> tuple:
        """The i-nodes of k left by the signature rule: (addable, removable)."""
        sig = self._signatures.get((k, i))
        if sig is None:
            adds, rems = [], []
            for addable, g in reversed(self.nodes(k, i)):
                if not addable:
                    rems.append(g)
                elif rems:
                    rems.pop()
                else:
                    adds.append(g)
            sig = self._signatures[k, i] = (tuple(adds), tuple(rems))
        return sig

    def paths(self, n: int) -> dict:
        """crystal_paths on bipartition numbers."""
        k = self.number(((), ()))
        paths, layer = {k: ()}, [k]
        for _ in range(n):
            nxt = []
            for k in layer:
                for i in range(self.e):
                    adds = self.signature(k, i)[0]
                    if adds:
                        fk = self.number(_add_node(self.keys[k], adds[-1]))
                        if fk not in paths:
                            paths[fk] = paths[k] + (i,)
                            nxt.append(fk)
            layer = nxt
        return paths

    def estrings(self, k: int) -> list:
        """estrings on bipartition numbers."""
        sigs = [(i, self.signature(k, i)[1]) for i in range(self.e)]
        return [(i, len(r), self.number(_remove_nodes(self.keys[k], r)))
                for i, r in sigs if r]

    def row(self, i: int, a: int, k: int) -> tuple:
        """
        f_i^(a) λ: λ + S for each a-set S of addable i-nodes, with N the sum
        over γ ∈ S of #(addable i-nodes above γ not in S) − #(removable
        i-nodes above γ).  Adding an i-node changes only its neighbours,
        whose residues are i ± 1 ≠ i as e >= 2, so the a! orders of adding
        S give monomials that sum to v^N·[a]!.
        """
        key = (i, a, k)
        row = self._rows.get(key)
        if row is None:
            adds, above = [], 0  # (addable i-node, removable i-nodes above)
            for addable, g in self.nodes(k, i):
                if addable:
                    adds.append((g, above))
                else:
                    above += 1
            row = []
            for chosen in combinations(range(len(adds)), a):
                mu, n = self.keys[k], 0
                for t, j in enumerate(chosen):  # j - t addable above, not in S
                    g, rem = adds[j]
                    mu, n = _add_node(mu, g), n + j - t - rem
                row.append((self.number(mu), n))
            row = self._rows[key] = tuple(row)
        return row


# ---------------------------------------------------------------------------
# Crystal operators
# ---------------------------------------------------------------------------


def crystal_f(i: int, b: Bipartition, s, e: int) -> Bipartition | None:
    table = _Table(s, e)
    adds = table.signature(table.number(b), i)[0]
    return _add_node(b, adds[-1]) if adds else None


def crystal_e(i: int, b: Bipartition, s, e: int) -> Bipartition | None:
    table = _Table(s, e)
    rems = table.signature(table.number(b), i)[1]
    return _remove_nodes(b, rems[:1]) if rems else None


def crystal_paths(n: int, s, e: int) -> dict:
    """
    BFS of the crystal of the submodule generated by the empty bipartition:
    maps every reachable bipartition of degree <= n to its residue path
    (the f̃-residue sequence from ((), ())).
    """
    table = _Table(s, e)
    return {table.keys[k]: path for k, path in table.paths(n).items()}


def estrings(b: Bipartition, s, e: int) -> list[tuple[int, int, Bipartition]]:
    """All maximal ẽ-strings at b: (residue i, length ε_i, endpoint ẽ_i^ε b)."""
    table = _Table(s, e)
    return [(i, a, table.keys[nu])
            for i, a, nu in table.estrings(table.number(b))]


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
    table = _Table(s, e)
    by_degree: dict[int, list] = {}
    for k, path in table.paths(n).items():
        by_degree.setdefault(len(path), []).append(k)
    basis = _Basis(table)
    for d in range(1, n + 1):
        pending = sorted(by_degree.get(d, []), key=basis.prec)
        stalled = 0
        while pending:
            mu = pending.pop(0)
            strings = table.estrings(mu)
            if not strings:
                raise NotReachable(f"{table.keys[mu]} is not connected to "
                                   "the empty bipartition")
            if not any(basis.add(mu, i, a, nu)
                       for i, a, nu in strings if nu in basis.g):
                pending.append(mu)
                stalled += 1
                if stalled > len(pending):
                    raise NotUnitriangular(
                        "no admissible candidate for any of "
                        f"{[table.keys[k] for k in pending]}")
                continue
            stalled = 0
    return basis.decode()


class _Basis:
    """
    The canonical basis under construction, on the bipartition numbers of
    `table`: g[k] is G(k) as k' -> packed int at offset 0 and width `bits`,
    and big[k] = (largest Σ|c| of a coefficient of G(k), Σ|c| over all its
    coefficients).  A candidate's coefficients are bounded as it is built,
    and the width grows before that bound reaches the digit bound.
    """

    def __init__(self, table: _Table):
        self.table = table
        empty = table.number(((), ()))
        self.g = {empty: {empty: 1}}
        self.big = {empty: (1, 1)}
        self.bits = width(1, 16)
        self._prec: dict = {}  # k -> _prec_key
        self._norms: dict = {}  # packed int -> Σ|c|

    def prec(self, k: int):
        key = self._prec.get(k)
        if key is None:
            key = self._prec[k] = _prec_key(self.table.keys[k])
        return key

    def add(self, mu: int, i: int, a: int, nu: int) -> bool:
        """
        Build G(μ) from A(μ) = f_i^(a) G(ν), if every offender has its G
        already: whether G(μ) was added.
        """
        bound = self.big[nu][1]  # Σ|c| of G(ν) bounds every Σ|c| of A(μ)
        self._fit(bound)
        row, bits = self.table.row, self.bits
        terms = [(row(i, a, lam), c) for lam, c in self.g[nu].items()]
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
            bound += self._norm(mult) * self.big[nb][0]
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
        sizes = [self._norm(c) for c in out.values()]
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
            self._norms.clear()
        return old

    def _norm(self, c: int) -> int:
        size = self._norms.get(c)
        if size is None:
            size = self._norms[c] = sum(map(abs, digits(c, self.bits)))
        return size

    def decode(self) -> dict:
        keys, memo = self.table.keys, {}
        return {keys[k]: decode(v, keys, self.bits, 0, memo)
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
    if lam != mu and not geom.linked(lam, mu):
        return LaurentPoly.zero()
    if not _dihedral_leq(wi, wj):
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
    table = _Table(s, e)
    k, path = table.number(b), []
    for _ in range(sum(map(sum, b))):
        for i in range(e):
            rems = table.signature(k, i)[1]
            if rems:
                break
        else:
            raise NotReachable(f"{b} is not reachable at charge {s}")
        path.append(i)
        k = table.number(_remove_nodes(table.keys[k], rems[:1]))
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
    table = _Table((s1, 0), e)
    k = table.number(((), ()))
    for i in path:
        adds = table.signature(k, i)[0]
        if not adds:
            raise NotReachable(
                f"replay at charge ({s1}, 0) died for weight {lam}")
        k = table.number(_add_node(table.keys[k], adds[-1]))
    return table.keys[k]
