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
node.  (The direction is calibrated against anchor sequences checked in
the test-suite; every competing convention fails at least one anchor.)

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
bipartitions is not always compatible with the elimination).  f_i^(a) of a
single bipartition has monomial coefficients; each such row is built once
per canonical_basis call, so a monomial A(μ) is a sum of shifted rows.
"""

from __future__ import annotations

from . import partitions
from .laurent import InexactDivision, LaurentPoly, add_term, quantum_factorial
from .partitions import Bipartition
from .weylb import BoundExceeded, InvariantViolation

__all__ = [
    "residue", "node_key", "node_less", "addable_nodes", "removable_nodes",
    "f_action", "divided_f", "crystal_f", "crystal_e",
    "crystal_paths", "estrings", "canonical_basis",
    "AlcoveGeometry", "alcove_data", "decomposition_number",
    "kleshchev_convert",
    "NotUnitriangular", "SingularWeight", "NotReachable",
    "DividedPowerInexact",
]

Node = tuple  # (i, j, c)
FockVector = dict  # Bipartition -> LaurentPoly


class NotUnitriangular(RuntimeError):
    """The LLT monomial failed to be unitriangular (must not happen)."""


class SingularWeight(ValueError):
    """A weight lying on an alcove wall was passed where regular is needed."""


class NotReachable(ValueError):
    """The requested bipartition is not in the crystal of the submodule."""


class DividedPowerInexact(ArithmeticError):
    """Division by a quantum factorial was inexact (must not happen)."""


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


def _remove_node(b: Bipartition, node: Node) -> Bipartition:
    i, j, c = node
    p = list(b[c - 1])
    p[i - 1] -= 1
    if p[i - 1] == 0:
        p.pop()
    out = list(b)
    out[c - 1] = tuple(p)
    return tuple(out)


def f_action(i: int, x: FockVector, s, e: int,
             rows: dict | None = None) -> FockVector:
    """f_i: add an i-node γ with coefficient v^{N_i^>} (see module doc)."""
    return divided_f(i, 1, x, s, e, rows)


def divided_f(i: int, a: int, x: FockVector, s, e: int,
              rows: dict | None = None) -> FockVector:
    """
    The divided power f_i^(a) = f_i^a / [a]!, read from the rows of the
    bipartitions of x.  rows memoizes those rows; it is only valid for one
    (s, e), so a caller that keeps it passes the same charge every time.
    """
    if rows is None:
        rows = {}
    out: FockVector = {}
    for lam, c in x.items():
        for mu, n in _row(i, a, lam, s, e, rows):
            add_term(out, mu, c.shift(n))
    return out


def _row(i: int, a: int, lam: Bipartition, s, e: int, rows: dict) -> tuple:
    """
    f_i^(a) λ as ((μ, N), ...), meaning Σ v^N μ: its coefficients are
    monomials.  Built once per (i, a, λ): one step adds each i-node γ with
    exponent N_i^>; a steps are chained and divided by [a]! once.
    """
    key = (i, a, lam)
    row = rows.get(key)
    if row is not None:
        return row
    if a == 1:
        adds = [g for g in addable_nodes(lam) if residue(g, s, e) == i]
        row = []
        for g in adds:
            mu = _add_node(lam, g)
            above_add = sum(1 for g2 in adds if node_less(g, g2, s))
            above_rem = sum(1 for g2 in removable_nodes(mu)
                            if residue(g2, s, e) == i and node_less(g, g2, s))
            row.append((mu, above_add - above_rem))
    else:
        x = {lam: LaurentPoly.one()}
        for _ in range(a):
            x = f_action(i, x, s, e, rows)
        fact = quantum_factorial(a)
        row = []
        for mu, c in x.items():
            try:
                q = c.divide_exact(fact)
            except InexactDivision as exc:
                raise DividedPowerInexact(f"at {mu}: {c} / [{a}]!") from exc
            terms = list(q.items())
            if len(terms) != 1 or terms[0][1] != 1:
                raise DividedPowerInexact(
                    f"at {mu}: {c} / [{a}]! = {q} is not a monomial v^N")
            row.append((mu, terms[0][0]))
    row = rows[key] = tuple(row)
    return row


# ---------------------------------------------------------------------------
# Crystal operators
# ---------------------------------------------------------------------------


def _signature(i: int, b: Bipartition, s, e: int):
    """Surviving (addable, removable) i-nodes after signature cancellation."""
    marked = [(node_key(g, s), "A", g)
              for g in addable_nodes(b) if residue(g, s, e) == i]
    marked += [(node_key(g, s), "R", g)
               for g in removable_nodes(b) if residue(g, s, e) == i]
    marked.sort()
    stack = []
    for _, kind, g in marked:
        if kind == "A" and stack and stack[-1][0] == "R":
            stack.pop()
        else:
            stack.append((kind, g))
    return ([g for k, g in stack if k == "A"],
            [g for k, g in stack if k == "R"])


def crystal_f(i: int, b: Bipartition, s, e: int) -> Bipartition | None:
    adds, _ = _signature(i, b, s, e)
    if not adds:
        return None
    return _add_node(b, adds[-1])


def crystal_e(i: int, b: Bipartition, s, e: int) -> Bipartition | None:
    _, rems = _signature(i, b, s, e)
    if not rems:
        return None
    return _remove_node(b, rems[0])


def crystal_paths(n: int, s, e: int) -> dict:
    """
    BFS of the crystal of the submodule generated by the empty bipartition:
    maps every reachable bipartition of degree <= n to its residue path
    (the f̃-residue sequence from ((), ())).
    """
    empty = ((), ())
    paths = {empty: ()}
    layer = [empty]
    for _ in range(n):
        nxt = []
        for b in layer:
            for i in range(e):
                fb = crystal_f(i, b, s, e)
                if fb is not None and fb not in paths:
                    paths[fb] = paths[b] + (i,)
                    nxt.append(fb)
        layer = nxt
    return paths


# ---------------------------------------------------------------------------
# Canonical basis (LLT elimination)
# ---------------------------------------------------------------------------


def _prec_key(b: Bipartition):
    """A linear extension of the ≺ order (dominance of 2-quotient inverses)."""
    return partitions.two_quotient_inverse(b)


def estrings(b: Bipartition, s, e: int) -> list[tuple[int, int, Bipartition]]:
    """All maximal ẽ-strings at b: (residue i, length ε_i, endpoint ẽ_i^ε b)."""
    out = []
    for i in range(e):
        nb = crystal_e(i, b, s, e)
        a, cur = 0, b
        while nb is not None:
            cur, a = nb, a + 1
            nb = crystal_e(i, cur, s, e)
        if a:
            out.append((i, a, cur))
    return out


def canonical_basis(n: int, s, e: int, bound: int = 12) -> dict:
    """
    G(μ) for every μ of degree <= n reachable in the crystal, as
    FockVectors, built degree by degree (see the module docstring).
    """
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds Fock bound {bound}")
    paths = crystal_paths(n, s, e)
    by_degree: dict[int, list] = {}
    for b, path in paths.items():
        by_degree.setdefault(len(path), []).append(b)
    out: dict = {((), ()): {((), ()): LaurentPoly.one()}}
    rows: dict = {}

    def candidate(mu, i, a, nu):
        vec = divided_f(i, a, out[nu], s, e, rows)
        guard = 0
        while True:
            offenders = [b for b, c in vec.items()
                         if b != mu and c.min_exp() <= 0]
            if not offenders:
                break
            guard += 1
            if guard > 10000:
                return None
            nb = max(offenders, key=_prec_key)
            if nb not in out:
                return None
            mult = -vec[nb].bar_symmetrize_nonpositive()
            for b, c in out[nb].items():
                add_term(vec, b, c * mult)
        lead = vec.get(mu)
        if lead is None or not lead.is_one():
            return None
        return vec

    for d in range(1, n + 1):
        pending = sorted(by_degree.get(d, []), key=_prec_key)
        stalled = 0
        while pending:
            mu = pending.pop(0)
            built = None
            strings = estrings(mu, s, e)
            if not strings:
                raise NotReachable(
                    f"{mu} is not connected to the empty bipartition")
            for i, a, nu in strings:
                if nu not in out:
                    continue
                built = candidate(mu, i, a, nu)
                if built is not None:
                    break
            if built is None:
                pending.append(mu)
                stalled += 1
                if stalled > len(pending):
                    raise NotUnitriangular(
                        f"no admissible candidate for any of {pending}")
                continue
            stalled = 0
            out[mu] = built
    return out


# ---------------------------------------------------------------------------
# Alcove geometry of the infinite dihedral group
# ---------------------------------------------------------------------------


class AlcoveGeometry:
    """Walls {m₋ + ke} with the fundamental alcove (m₋, m₋ + e) around 0."""

    def __init__(self, e: int, m: int):
        self.e, self.m = e, m
        p = -((m + e - 1) // e)  # largest p with m + pe <= 0
        while m + (p + 1) * e <= 0:
            p += 1
        self.p = p
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
    target, path = b, []
    for _ in range(sum(map(sum, b))):
        for i in range(e):
            nb = crystal_e(i, b, s, e)
            if nb is not None:
                break
        else:
            raise NotReachable(f"{target} is not reachable at charge {s}")
        path.append(i)
        b = nb
    return path[::-1]


def kleshchev_convert(n: int, e: int, m: int, lam: int) -> Bipartition:
    """
    Convert the blob weight λ ∈ Λ_n to the Kleshchev bipartition of the
    corresponding simple module: find a crystal path of the one-line
    bipartition of weight λ at the geometric charge s = (m + pe, 0), then
    replay the same residue sequence at an asymptotic charge (s₁', 0) with
    s₁' ≡ m (mod e), s₁' > n - 1 - e, increased by e until the replayed
    endpoint stabilizes.  The two charges differ by a multiple of e, so
    their crystals are isomorphic and every path gives the same endpoint.
    """
    geom = alcove_data(e, m)
    target = partitions.one_line_of_weight(n, lam)
    path = _descent_path(target, geom.s, e)
    s1 = m % e
    while s1 <= n - 1 - e:
        s1 += e

    def replay(s1p: int) -> Bipartition:
        b = ((), ())
        for r in path:
            b2 = crystal_f(r, b, (s1p, 0), e)
            if b2 is None:
                raise NotReachable(
                    f"replay at charge ({s1p}, 0) died for weight {lam}")
            b = b2
        return b

    # Once s₁' > 2n, every component-1 node of a bipartition of size <= n
    # outranks every component-2 node, so the signatures, and the replay,
    # no longer depend on s₁'.
    prev = replay(s1)
    while s1 <= 2 * n + e:
        s1 += e
        cur = replay(s1)
        if cur == prev:
            return cur
        prev = cur
    raise InvariantViolation(
        f"replay for weight {lam} did not stabilize by charge ({s1}, 0)")
