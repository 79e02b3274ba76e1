"""
Integer partitions, bipartitions, 2-cores/2-quotients and partial orders.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  A bipartition is a pair of partitions.  Blob weights are
integers lambda with |lambda| <= n and lambda = n (mod 2), i.e. elements of
Lambda_n = {-n, -n+2, ..., n-2, n}.

The 2-quotient convention is calibrated so that for one-line bipartitions
((a), (b)) the inverse map produces (2a, 2b) when a >= b and (2b-1, 2a+1)
when a < b.
"""

from __future__ import annotations

__all__ = [
    "Partition", "Bipartition",
    "is_partition", "two_core", "two_quotient", "two_quotient_inverse",
    "dominance", "bip_order", "blob_weight_of", "qh_order", "lambda_n",
    "in_lambda_n", "check_weight", "bipartitions_of", "one_line_bipartitions",
    "NonEmptyCore", "NotOneLine", "AmbientMismatch", "WeightOutOfRange",
]

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]


class NonEmptyCore(ValueError):
    """Raised when a 2-quotient is requested for a partition with nonempty 2-core."""


class NotOneLine(ValueError):
    """Raised when a one-line bipartition is required."""


class AmbientMismatch(ValueError):
    """Raised when blob weights from different ambient sizes are compared."""


class WeightOutOfRange(ValueError):
    """Raised for a weight outside Lambda_n."""


def is_partition(p) -> bool:
    p = tuple(p)
    return all(isinstance(x, int) and x >= 1 for x in p) and all(
        p[i] >= p[i + 1] for i in range(len(p) - 1)
    )


def _validate(p: Partition) -> Partition:
    p = tuple(p)
    if not is_partition(p):
        raise ValueError(f"not a partition: {p}")
    return p


def _beta_numbers(p: Partition, rows: int) -> list[int]:
    """First-column hook lengths of p padded to `rows` parts: p_i + rows - i."""
    parts = list(p) + [0] * (rows - len(p))
    return [parts[i] + (rows - 1 - i) for i in range(rows)]


def _partition_from_betas(betas: list[int]) -> Partition:
    betas = sorted(betas, reverse=True)
    rows = len(betas)
    parts = [betas[i] - (rows - 1 - i) for i in range(rows)]
    return tuple(x for x in parts if x > 0)


def _even_rows(p: Partition) -> int:
    rows = max(2, len(p))
    return rows + (rows % 2)


def two_core(p: Partition) -> Partition:
    """
    The 2-core: the staircase left after removing dominoes in any order.

    >>> two_core((2, 2))
    ()
    >>> two_core((2, 1))
    (2, 1)
    """
    p = _validate(p)
    rows = _even_rows(p)
    betas = _beta_numbers(p, rows)
    evens = sorted((b for b in betas if b % 2 == 0), reverse=True)
    odds = sorted((b for b in betas if b % 2 == 1), reverse=True)
    core_betas = [2 * k for k in range(len(evens))] + [2 * k + 1 for k in range(len(odds))]
    return _partition_from_betas(core_betas)


def two_quotient(p: Partition) -> Bipartition:
    """
    The 2-quotient of an empty-core partition, as a bipartition.

    >>> two_quotient((10,))
    ((5,), ())
    >>> two_quotient((1, 1))
    ((), (1,))
    """
    p = _validate(p)
    if two_core(p) != ():
        raise NonEmptyCore(f"partition {p} has nonempty 2-core {two_core(p)}")
    rows = _even_rows(p)
    betas = _beta_numbers(p, rows)
    odds = [(b - 1) // 2 for b in betas if b % 2 == 1]
    evens = [b // 2 for b in betas if b % 2 == 0]
    return (_partition_from_betas(odds), _partition_from_betas(evens))


def two_quotient_inverse(b: Bipartition) -> Partition:
    """
    The unique empty-core partition with the given 2-quotient.

    >>> two_quotient_inverse(((5,), ()))
    (10,)
    >>> two_quotient_inverse(((1,), (3,)))
    (5, 3)
    """
    first, second = _validate(b[0]), _validate(b[1])
    half = max(1, len(first), len(second))
    odd_betas = [2 * x + 1 for x in _beta_numbers(first, half)]
    even_betas = [2 * x for x in _beta_numbers(second, half)]
    return _partition_from_betas(odd_betas + even_betas)


def dominance(p: Partition, q: Partition) -> str:
    """
    Dominance comparison of two partitions via partial sums; returns one of
    "less", "greater", "equal", "incomparable".  Partitions of different
    degree are incomparable.

    >>> dominance((2, 2), (3, 1))
    'less'
    >>> dominance((3, 1, 1), (2, 2, 2))
    'incomparable'
    """
    p, q = _validate(p), _validate(q)
    if sum(p) != sum(q):
        return "incomparable"
    if p == q:
        return "equal"
    le = ge = True
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp < sq:
            ge = False
        elif sp > sq:
            le = False
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


def bip_order(x: Bipartition, y: Bipartition) -> str:
    """
    The order on bipartitions obtained by comparing the 2-quotient inverses
    in dominance.

    >>> bip_order(((10,), ()), ((), (10,)))
    'greater'
    """
    return dominance(two_quotient_inverse(x), two_quotient_inverse(y))


def blob_weight_of(b: Bipartition) -> int:
    """
    The weight a - b of a one-line bipartition ((a), (b)).

    >>> blob_weight_of(((6,), (4,)))
    2
    """
    for comp in b:
        if len(comp) > 1:
            raise NotOneLine(f"component {comp} has more than one row")
    a = b[0][0] if b[0] else 0
    bb = b[1][0] if b[1] else 0
    return a - bb


def one_line_of_weight(n: int, lam: int) -> Bipartition:
    """The one-line bipartition ((a), (b)) of degree n with a - b = lam."""
    check_weight(n, lam)
    a, b = (n + lam) // 2, (n - lam) // 2
    return ((a,) if a else (), (b,) if b else ())


def lambda_n(n: int) -> list[int]:
    """Lambda_n = {-n, -n+2, ..., n-2, n}."""
    return list(range(-n, n + 1, 2))


def in_lambda_n(n: int, lam: int) -> bool:
    """Whether lam lies in Lambda_n."""
    return abs(lam) <= n and (n - lam) % 2 == 0


def check_weight(n: int, lam: int) -> None:
    """Raise WeightOutOfRange unless lam lies in Lambda_n."""
    if not in_lambda_n(n, lam):
        raise WeightOutOfRange(f"weight {lam} not in Lambda_{n}")


def qh_order(x: int, y: int, n: int) -> str:
    """
    The quasi-hereditary order on Lambda_n: x < y iff |x| > |y|;
    equal absolute values with x != y are incomparable.  This runs
    against the two-sided cell order of the W_b cells, which measures as
    the chain n > -n > n-2 > -(n-2) > ...: there the larger |λ| is
    higher, and λ sits above -λ for λ > 0.

    >>> qh_order(8, 2, 10)
    'less'
    >>> qh_order(-4, 4, 10)
    'incomparable'
    """
    for z in (x, y):
        if not in_lambda_n(n, z):
            raise AmbientMismatch(f"{z} is not in Lambda_{n}")
    if x == y:
        return "equal"
    if abs(x) > abs(y):
        return "less"
    if abs(x) < abs(y):
        return "greater"
    return "incomparable"


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in lexicographically decreasing order."""
    out: list[Partition] = []

    def rec(rest: int, cap: int, acc: list[int]):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, cap), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def bipartitions_of(n: int) -> list[Bipartition]:
    """All bipartitions of total degree n."""
    out = []
    for k in range(n + 1):
        for a in partitions_of(k):
            for b in partitions_of(n - k):
                out.append((a, b))
    return out


def one_line_bipartitions(n: int) -> list[Bipartition]:
    """Bip_1(n): bipartitions of n with one-line components, by decreasing weight."""
    return [one_line_of_weight(n, lam) for lam in range(n, -n - 1, -2)]
