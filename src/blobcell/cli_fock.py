"""The Fock-space commands of `blobcell` (`fock`, `decomp`, `kleshchev`,
`tables`); `cli.main` loads this module only when one of them is
invoked."""

from __future__ import annotations

import sys
from itertools import chain

from .cli import MISMATCH, _at_least, _cap, _check_em, _dumps, _emit


def fock_f_cmd(e: int, s1: int, s2: int, residues, fmt: str) -> None:
    """Apply the operator product f_{i1} f_{i2} ... to the empty
    bipartition (the rightmost factor acts first)."""
    _at_least(e, 2, "e")
    from . import fock
    from .laurent import LaurentPoly

    s = (s1, s2)
    vec = {((), ()): LaurentPoly.one()}
    for i in reversed(residues):
        vec = fock.f_action(i % e, vec, s, e)
    items = sorted(vec.items())
    _emit(fmt, lambda: {_dumps(b): c.pretty() for b, c in items},
          lambda: chain([["bipartition", "coefficient"]],
                        ([_dumps(b), c.pretty()] for b, c in items)),
          lambda: (f"{b}: {c.pretty()}" for b, c in items))


def fock_crystal_cmd(e: int, s1: int, s2: int, residues, fmt: str) -> None:
    """Apply the crystal operator product f~_{i1} f~_{i2} ... to the empty
    bipartition (the rightmost factor acts first)."""
    _at_least(e, 2, "e")
    from . import fock

    s = (s1, s2)
    b = ((), ())
    for i in reversed(residues):
        nb = fock.crystal_f(i % e, b, s, e)
        if nb is None:
            print(f"crystal operator f~_{i % e} vanishes at {b}",
                  file=sys.stderr)
            sys.exit(MISMATCH)
        b = nb
    _emit(fmt, lambda: {"bipartition": [list(p) for p in b]},
          lambda: [["bipartition"], [_dumps(b)]], lambda: [str(b)])


def fock_canonical_cmd(n: int, e: int, s1: int, s2: int, fmt: str) -> None:
    """The canonical basis elements of degree N at charge (S1, S2)."""
    _at_least(e, 2, "e")
    if n < 0:
        raise ValueError(f"n={n} out of range")
    from . import fock

    try:
        basis = fock.canonical_basis(n, (s1, s2), e, bound=_cap(12))
    except fock.NotUnitriangular as exc:  # a charge the elimination misses
        raise ValueError(f"no canonical basis at charge ({s1}, {s2}), "
                         f"e={e}: {exc}")
    degree_n = [(mu, sorted(basis[mu].items())) for mu in
                sorted(b for b in basis if sum(sum(p) for p in b) == n)]
    _emit(fmt,
          lambda: {_dumps(mu): lambda terms=terms: {
                       _dumps(b): c.pretty() for b, c in terms}
                   for mu, terms in degree_n},
          lambda: chain([["mu", "lambda", "coefficient"]],
                        ([_dumps(mu), _dumps(b), c.pretty()]
                         for mu, terms in degree_n for b, c in terms)),
          lambda: (f"G{mu} = " + " + ".join(f"({c.pretty()})|{b}>"
                                            for b, c in terms)
                   for mu, terms in degree_n))


def decomp_cmd(n: int, e: int, m: int, fmt: str) -> None:
    """The decomposition matrix at rank N: canonical-basis coefficients
    cross-checked against the alcove formula (exit 1 on any mismatch)."""
    _check_em(e, m)
    if n < 1:
        raise ValueError(f"n={n} out of range")
    from . import fock, partitions
    from .laurent import LaurentPoly

    geom = fock.alcove_data(e, m)
    basis = fock.canonical_basis(n, geom.s, e, bound=_cap(12))
    lams = [l for l in partitions.lambda_n(n) if not geom.is_wall(l)]
    entries = []  # (lambda, mu, canonical-basis d, alcove d, match)
    for mu_w in lams:
        mu = partitions.one_line_of_weight(n, mu_w)
        vec = basis[mu]
        for lam_w in lams:
            lam = partitions.one_line_of_weight(n, lam_w)
            got = vec.get(lam, LaurentPoly.zero())
            want = (LaurentPoly.one() if lam_w == mu_w
                    else fock.decomposition_number(geom, lam_w, mu_w))
            entries.append((lam_w, mu_w, got, want, got == want))
    ok = all(match for *_, match in entries)

    def text():
        yield f"n={n} e={e} m={m} charge={geom.s}"
        for lam_w, mu_w, got, want, match in entries:
            if not got.is_zero() or not match:
                yield (f"  d[{lam_w},{mu_w}] = {got.pretty()}"
                       + ("" if match else
                          f"  MISMATCH (alcove: {want.pretty()})"))
        yield "ok" if ok else "FAIL"

    _emit(fmt,
          lambda: {"n": n, "e": e, "m": m, "charge": list(geom.s),
                   "entries": {f"{lam_w},{mu_w}": got.pretty()
                               for lam_w, mu_w, got, *_ in entries},
                   "ok": ok},
          lambda: chain([["lambda", "mu", "d", "alcove", "match"]],
                        ([lam_w, mu_w, got.pretty(), want.pretty(), match]
                         for lam_w, mu_w, got, want, match in entries)),
          text)
    if not ok:
        sys.exit(MISMATCH)


def kleshchev_cmd(n: int, e: int, m: int, fmt: str) -> None:
    """The weight -> Kleshchev-bipartition table at rank N."""
    _check_em(e, m)
    if n < 1 or n > _cap(12):
        raise ValueError(f"n={n} out of range")
    from . import fock, tables

    computed = [(lam, fock.kleshchev_convert(n, e, m, lam))
                for lam in range(n, -n - 1, -2)]
    _emit(fmt, lambda: {str(lam): [list(p) for p in b] for lam, b in computed},
          lambda: chain([["lambda", "bipartition"]],
                        ([lam, _dumps(b)] for lam, b in computed)),
          lambda: [tables.format_table(e, m, rows=computed)])


def tables_cmd(paper: bool, fmt: str) -> None:
    """Print the four golden weight/bipartition tables."""
    from . import tables

    keys = sorted(tables.KLESHCHEV_TABLES)
    if not paper:
        _emit(fmt,
              lambda: {f"{e},{m}": {str(l): [list(p) for p in b]
                                    for l, b in tables.table_rows(e, m)}
                       for (e, m) in keys},
              lambda: chain([["e", "m", "lambda", "bipartition"]],
                            ([e, m, l, _dumps(b)] for (e, m) in keys
                             for l, b in tables.table_rows(e, m))),
              lambda: [tables.format_tables()])
        return
    from . import fock

    computed = {(e, m): [(lam, fock.kleshchev_convert(10, e, m, lam))
                         for lam in range(10, -11, -2)] for (e, m) in keys}
    diffs = [{"e": e, "m": m, "lambda": lam,
              "computed": [list(p) for p in got],
              "golden": [list(p) for p in want]}
             for (e, m) in keys
             for (lam, got), (_, want) in zip(computed[e, m],
                                              tables.table_rows(e, m))
             if got != want]
    ok = not diffs
    _emit(fmt, lambda: {"rows_checked": 44, "ok": ok, "diffs": diffs},
          lambda: [["rows_checked", "ok", "diffs"], [44, ok, len(diffs)]],
          lambda: chain((tables.format_table(e, m, rows=computed[e, m])
                         for (e, m) in keys),
                        [f"all 44 rows match: {ok}"]))
    if not ok:
        sys.exit(MISMATCH)
