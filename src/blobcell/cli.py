"""
Command-line frontend: every computation of the library behind one binary
with deterministic JSON/CSV/pretty output.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, which
includes any library ValueError (a bound, a specialization, an argument
the library rejects).  Negative window entries are passed after a `--`
sentinel, e.g. `blobcell domino insert -- 2 3 -1`.
The BLOBCELL_MAX_N environment variable overrides the size caps of every
command and is passed to the library bounds.

Each command imports the library modules it uses in its own body, after
its own argument checks, so a command, `--help` or a usage error loads no
module it does not need; `json` is imported only by the output that
writes or reads it.
"""

from __future__ import annotations

import io
import os
import sys

import click

from . import weylb

MISMATCH = 1


def _dumps(obj, **kwargs) -> str:
    """json.dumps, with json imported only by the output that needs it."""
    import json

    return json.dumps(obj, **kwargs)


def _emit(fmt: str, obj, rows, text) -> None:
    """
    One payload, three renderings; keys and row order are always sorted.
    `obj`, `rows` and `text` are zero-argument builders of the JSON object,
    the CSV rows and the pretty text: only the one `fmt` asks for runs.
    """
    if fmt == "json":
        click.echo(_dumps(obj(), sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows())
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo(text())


def _format_option(f):
    return click.option("--format", "fmt",
                        type=click.Choice(["json", "csv", "pretty"]),
                        default="pretty", help="Output format.")(f)


def _window(entries) -> tuple:
    if not entries:
        raise click.UsageError("empty window (entries go after `--`)")
    try:
        w = tuple(int(x) for x in entries)
    except ValueError as exc:
        raise click.UsageError(f"invalid window {list(entries)}: {exc}")
    if sorted(abs(x) for x in w) != list(range(1, len(w) + 1)):
        raise click.UsageError(
            f"invalid window {list(w)}: not a signed permutation")
    return w


def _wstr(w) -> str:
    return " ".join(str(x) for x in w)


def _check_em(e: int, m: int) -> None:
    if e < 2:
        raise click.UsageError(f"e must be >= 2, got {e}")
    if e != 2 * m - 1:
        raise click.UsageError(
            f"parameter consistency: e = 2m - 1 required (l = 2(2m-1)), "
            f"got e={e}, m={m}")


class _Command(click.Command):
    """
    A command whose library ValueErrors (bounds, specializations, invalid
    arguments) exit 2.  RuntimeError invariants still propagate.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Groups too


def _cap(default: int) -> int:
    """BLOBCELL_MAX_N as parsed by `main`, else the command's default."""
    cap = click.get_current_context().obj
    return default if cap is None else cap


@click.group(cls=_Group)
@click.pass_context
def main(ctx) -> None:
    """Exact computations for two-row signed-permutation combinatorics,
    the unequal-parameter C-basis, the blob diagram algebra and the
    level-2 Fock space."""
    try:
        ctx.obj = weylb.max_n(default=None)
    except ValueError:
        raise click.UsageError("BLOBCELL_MAX_N must be an integer, got "
                               f"{os.environ['BLOBCELL_MAX_N']!r}")


# ---------------------------------------------------------------------------
# wb
# ---------------------------------------------------------------------------


@main.group()
def wb() -> None:
    """The two-row subset W_b of the signed permutations."""


@wb.command("enumerate")
@click.argument("n", type=int)
@click.option("--count", is_flag=True, help="Print only the cardinality.")
@_format_option
def wb_enumerate(n: int, count: bool, fmt: str) -> None:
    """List (or count) the elements of W_b(N)."""
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    elements = weylb.enumerate_wb(n, bound=_cap(weylb.DEFAULT_MAX_N))
    total = len(elements)
    if count:
        _emit(fmt, lambda: {"n": n, "count": total},
              lambda: [["n", "count"], [n, total]], lambda: str(total))
        return
    _emit(fmt,
          lambda: {"n": n, "count": total,
                   "elements": [list(w) for w in elements]},
          lambda: [["window"]] + [[_wstr(w)] for w in elements],
          lambda: "\n".join(_wstr(w) for w in elements))


@wb.command("test")
@click.argument("n", type=int)
@_format_option
def wb_test(n: int, fmt: str) -> None:
    """Check the three characterizations of W_b(N) against each other."""
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    if n > _cap(weylb.DEFAULT_MAX_N):
        raise click.UsageError(f"n={n} exceeds enumeration bound")
    from . import domino

    mism = 0
    total = 0
    for w in weylb.enumerate_wn(n):
        total += 1
        a = weylb.is_in_wb_by_avoidance(w)
        b = weylb.is_in_wb_by_words(w)
        c = len(domino.domino_shape(w)) <= 2
        if not (a == b == c):
            mism += 1
    expected = weylb.wb_count_formula(n)
    actual = sum(1 for w in weylb.enumerate_wn(n)
                 if weylb.is_in_wb_by_words(w))
    ok = mism == 0 and actual == expected
    _emit(fmt,
          lambda: {"n": n, "group_order": total, "mismatches": mism,
                   "wb_count": actual, "wb_count_formula": expected,
                   "ok": ok},
          lambda: [["n", "group_order", "mismatches", "wb_count", "formula",
                    "ok"], [n, total, mism, actual, expected, ok]],
          lambda: f"n={n}: {total} elements, {mism} mismatches, "
                  f"|W_b|={actual} (formula {expected}) -> "
                  f"{'ok' if ok else 'FAIL'}")
    if not ok:
        sys.exit(MISMATCH)


# ---------------------------------------------------------------------------
# domino
# ---------------------------------------------------------------------------


@main.group("domino")
def domino_grp() -> None:
    """Domino insertion and its inverse."""


@domino_grp.command("insert")
@click.argument("entries", nargs=-1)
@_format_option
def domino_insert_cmd(entries, fmt: str) -> None:
    """Insert a window; prints the tableau pair (P, Q)."""
    from . import domino

    w = _window(entries)
    p, q = domino.domino_insert(w)
    _emit(fmt,
          lambda: {"window": list(w), "P": p.to_json(), "Q": q.to_json()},
          lambda: [["tableau", "json"],
                   ["P", _dumps(p.to_json(), sort_keys=True)],
                   ["Q", _dumps(q.to_json(), sort_keys=True)]],
          lambda: f"P:\n{p.pretty()}\nQ:\n{q.pretty()}")


@domino_grp.command("reverse")
@click.argument("pair", type=str)
@_format_option
def domino_reverse_cmd(pair: str, fmt: str) -> None:
    """Invert insertion; PAIR is the JSON {"P":..,"Q":..} ('-' = stdin)."""
    import json

    from . import domino

    raw = sys.stdin.read() if pair == "-" else pair
    try:
        d = json.loads(raw)
        if not isinstance(d, dict):
            raise ValueError('expected an object {"P": .., "Q": ..}')
        p = domino.DominoTableau.from_json(d["P"])
        q = domino.DominoTableau.from_json(d["Q"])
        w = domino.domino_reverse(p, q)
    except (KeyError, ValueError, domino.ShapeMismatch) as exc:
        raise click.UsageError(f"invalid tableau pair: {exc}")
    _emit(fmt, lambda: {"window": list(w)}, lambda: [["window"], [_wstr(w)]],
          lambda: _wstr(w))


@domino_grp.command("shape")
@click.argument("entries", nargs=-1)
@_format_option
def domino_shape_cmd(entries, fmt: str) -> None:
    """The shape of the insertion tableau of a window."""
    from . import domino

    w = _window(entries)
    shape = domino.domino_shape(w)
    text = " ".join(map(str, shape))
    _emit(fmt, lambda: {"window": list(w), "shape": list(shape)},
          lambda: [["shape"], [text]], lambda: text)


# ---------------------------------------------------------------------------
# knuth
# ---------------------------------------------------------------------------


@main.group("knuth")
def knuth_grp() -> None:
    """Plactic classes from the signed Knuth moves."""


@knuth_grp.command("class")
@click.argument("entries", nargs=-1)
@_format_option
def knuth_class_cmd(entries, fmt: str) -> None:
    """The plactic class of a window."""
    from . import knuth

    w = _window(entries)
    cls = sorted(knuth.knuth_class(w))
    _emit(fmt,
          lambda: {"window": list(w), "size": len(cls),
                   "class": [list(u) for u in cls]},
          lambda: [["window"]] + [[_wstr(u)] for u in cls],
          lambda: "\n".join(_wstr(u) for u in cls))


# ---------------------------------------------------------------------------
# klbasis / cells / ideal
# ---------------------------------------------------------------------------


def _kl_basis_checked(n: int):
    """The hecke.KLBasis of W_N, within the command's bound."""
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    from . import hecke

    return hecke.compute_kl_basis(n, bound=_cap(hecke.KL_MAX_N))


@main.command("klbasis")
@click.argument("n", type=int)
@_format_option
def klbasis_cmd(n: int, fmt: str) -> None:
    """The C-basis of the Hecke algebra of W_N in the T-basis."""
    basis = _kl_basis_checked(n)
    ws = {w: _wstr(w) for w in basis.elements}
    texts = {}  # id -> pretty: equal coefficients share one decoded object

    def terms(w):
        """(y, coefficient text) for every T_y term of C_w, unsorted."""
        for y, h in basis.c[w].items():
            t = texts.get(id(h))
            if t is None:
                t = texts[id(h)] = h.pretty()
            yield y, t

    def text():
        lines = []
        for w in basis.elements:
            body = " + ".join(f"({t}) T[{y}]" for y, t in
                              sorted((ws[y], t) for y, t in terms(w)))
            lines.append(f"C[{ws[w]}] = {body}")
        return "\n".join(lines)

    # pretty sorts each row's terms by window string, CSV by window tuple
    _emit(fmt,
          lambda: {ws[w]: {ws[y]: t for y, t in terms(w)}
                   for w in basis.elements},
          lambda: [["w", "y", "coefficient"]]
                  + [[ws[w], ws[y], t] for w in basis.elements
                     for y, t in sorted(terms(w))],
          text)


@main.command("cells")
@click.argument("n", type=int)
@_format_option
def cells_cmd(n: int, fmt: str) -> None:
    """Left cells of W_N, each flagged inside/outside W_b."""
    basis = _kl_basis_checked(n)
    from . import hecke

    cells = [sorted(cell) for cell in hecke.left_cells(basis)]
    in_wb = [all(weylb.is_in_wb_by_words(u) for u in members)
             for members in cells]
    _emit(fmt,
          lambda: [{"size": len(members), "in_wb": inside,
                    "members": [list(u) for u in members]}
                   for members, inside in zip(cells, in_wb)],
          lambda: [["cell", "size", "in_wb", "windows"]]
                  + [[k, len(members), inside,
                      "; ".join(_wstr(u) for u in members)]
                     for k, (members, inside) in enumerate(zip(cells, in_wb))],
          lambda: "\n".join(
              f"cell {k} (size {len(members)}, "
              f"{'inside' if inside else 'outside'} W_b): "
              + "; ".join(_wstr(u) for u in members)
              for k, (members, inside) in enumerate(zip(cells, in_wb))))


@main.group("ideal")
def ideal_grp() -> None:
    """The two-sided ideal spanned by the C_w outside W_b."""


@ideal_grp.command("check")
@click.argument("n", type=int)
@_format_option
def ideal_check_cmd(n: int, fmt: str) -> None:
    """Verify the ideal property, the generators, and the corank."""
    if n < 2:
        raise click.UsageError(f"n must be >= 2, got {n}")
    basis = _kl_basis_checked(n)
    from . import hecke

    ideal = hecke.ideal_jn(n, basis)
    two_sided = ideal.verify_two_sided()
    gens_inside = all(ideal.contains(g) for g in ideal.generators())
    corank = len(basis.elements) - len(ideal.outside)
    expected = weylb.wb_count_formula(n)
    ok = two_sided and gens_inside and corank == expected
    obj = {"n": n, "two_sided": two_sided, "generators_inside": gens_inside,
           "corank": corank, "corank_formula": expected, "ok": ok}
    _emit(fmt, lambda: obj, lambda: [list(obj.keys()), list(obj.values())],
          lambda: f"n={n}: two-sided={two_sided} "
                  f"generators_inside={gens_inside} "
                  f"corank={corank} (formula {expected}) -> "
                  f"{'ok' if ok else 'FAIL'}")
    if not ok:
        sys.exit(MISMATCH)


# ---------------------------------------------------------------------------
# blob
# ---------------------------------------------------------------------------


@main.group("blob")
def blob_grp() -> None:
    """The blob diagram algebra and its standard modules."""


@blob_grp.command("dims")
@click.argument("n", type=int)
@_format_option
def blob_dims_cmd(n: int, fmt: str) -> None:
    """dim of the algebra and of every standard module at rank N."""
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    cap = _cap(8)
    if n > cap:
        raise click.UsageError(f"n={n} exceeds diagram bound {cap}")
    from . import blob, partitions

    lams = partitions.lambda_n(n)
    dims = {lam: len(blob.half_diagrams(n, lam)) for lam in lams}
    total = len(blob.all_diagrams(n, bound=cap))
    ok = sum(d * d for d in dims.values()) == total
    _emit(fmt,
          lambda: {"n": n, "algebra_dim": total,
                   "standard_dims": {str(l): d for l, d in dims.items()},
                   "sum_of_squares_ok": ok},
          lambda: [["lambda", "dim"]] + [[l, dims[l]] for l in lams],
          lambda: "\n".join([f"dim b_{n} = {total}"]
                            + [f"  dim Delta({l}) = {dims[l]}"
                               for l in lams]))
    if not ok:
        sys.exit(MISMATCH)


@blob_grp.command("standard")
@click.argument("n", type=int)
@click.argument("lam", type=int)
@click.option("-m", "m", type=int, default=2, help="Blob parameter m.")
@_format_option
def blob_standard_cmd(n: int, lam: int, m: int, fmt: str) -> None:
    """The standard module Delta_N(LAM): dimension and action matrices."""
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    if n > _cap(8):  # the matrices hold N·C(N, N/2)^2 entries
        raise click.UsageError(f"n={n} exceeds diagram bound {_cap(8)}")
    from . import blob

    mod = blob.standard_module(n, lam, m)
    mats = {str(k): [[x.pretty() for x in row] for row in mat]
            for k, mat in sorted(mod.matrices.items())}
    dim = mod.dimension()

    def text():
        lines = [f"dim Delta_{n}({lam}) = {dim}"]
        for k, mat in sorted(mats.items()):
            lines.append(f"U_{k}:")
            lines += ["  [" + ", ".join(row) + "]" for row in mat]
        return "\n".join(lines)

    _emit(fmt,
          lambda: {"n": n, "lambda": lam, "m": m, "dim": dim,
                   "matrices": mats},
          lambda: [["generator", "row", "entries"]]
                  + [[k, r, "; ".join(row)]
                     for k, mat in sorted(mats.items())
                     for r, row in enumerate(mat)],
          text)


@blob_grp.command("verify")
@click.argument("n", type=int)
@click.option("-m", "m", type=int, default=2, help="Blob parameter m.")
@_format_option
def blob_verify_cmd(n: int, m: int, fmt: str) -> None:
    """Check the defining relations on every standard module (and, for
    small N, on the regular representation)."""
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    if n > _cap(6):
        raise click.UsageError(f"n={n} exceeds verification bound")
    from . import blob, partitions

    reports = {}
    ok = True
    for lam in partitions.lambda_n(n):
        mod = blob.standard_module(n, lam, m)
        rep = blob.verify_presentation(mod.matrices, m)
        reports[f"delta({lam})"] = rep["all"]
        ok = ok and rep["all"]
    if n <= 4:
        rep = blob.verify_presentation(blob.regular_representation(n, m), m)
        reports["regular"] = rep["all"]
        ok = ok and rep["all"]
    _emit(fmt, lambda: {"n": n, "m": m, "reports": reports, "ok": ok},
          lambda: [["module", "relations_ok"]] + sorted(reports.items()),
          lambda: "\n".join(f"{k}: {'ok' if v else 'FAIL'}"
                            for k, v in sorted(reports.items())))
    if not ok:
        sys.exit(MISMATCH)


# ---------------------------------------------------------------------------
# cellcompare / tensor
# ---------------------------------------------------------------------------


@main.command("cellcompare")
@click.argument("n", type=int)
@click.option("-m", "m", type=int, default=2, help="Blob parameter m.")
@_format_option
def cellcompare_cmd(n: int, m: int, fmt: str) -> None:
    """Match every left cell inside W_b with its standard module at the
    cyclotomic specialization (l = 2(2m-1))."""
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    from . import blob

    report = blob.compare_cell_to_standard(n, m, bound=_cap(4))
    entries = report["cells"]
    _emit(fmt,
          lambda: {"n": n, "m": m, "all_match": report["all_match"],
                   "cells": [{**e, "cell_min": list(e["cell_min"])}
                             for e in entries]},
          lambda: [["cell_min", "lambda", "dim_cell", "dim_delta",
                    "dims_match", "relations", "traces_match"]]
                  + [[_wstr(e["cell_min"]), e["lam"], e["dim_cell"],
                      e["dim_delta"], e["dims_match"], e["relations"],
                      e["traces_match"]] for e in entries],
          lambda: "\n".join(
              [f"cell of {_wstr(e['cell_min'])}: lambda={e['lam']} "
               f"dims {e['dim_cell']}/{e['dim_delta']} "
               f"relations={'ok' if e['relations'] else 'FAIL'} "
               f"traces={'ok' if e['traces_match'] else 'FAIL'}"
               for e in entries]
              + [f"all_match: {report['all_match']}"]))
    if not report["all_match"]:
        sys.exit(MISMATCH)


@main.group("tensor")
def tensor_grp() -> None:
    """The two-dimensional tensor-space representation."""


@tensor_grp.command("check")
@click.argument("n", type=int)
@_format_option
def tensor_check_cmd(n: int, fmt: str) -> None:
    """Verify that the ideal generators annihilate V^{(x)N} and that the
    permutation modules have the standard-module dimensions."""
    if n < 2:
        raise click.UsageError(f"n must be >= 2, got {n}")
    if n > _cap(5):
        raise click.UsageError(f"n={n} exceeds tensor bound")
    from . import blob, hecke, partitions

    annihilates = hecke.tensor_ideal_annihilates(n)
    symbolic = hecke.ideal_vanish_symbolic(min(n, 3))
    dims_ok = all(
        len(hecke.permutation_module(n, lam))
        == len(blob.half_diagrams(n, lam))
        for lam in partitions.lambda_n(n))
    ok = annihilates and symbolic and dims_ok
    obj = {"n": n, "ideal_annihilates": annihilates,
           "symbolic_identity": symbolic, "dims_match": dims_ok, "ok": ok}
    _emit(fmt, lambda: obj, lambda: [list(obj.keys()), list(obj.values())],
          lambda: f"n={n}: annihilates={annihilates} symbolic={symbolic} "
                  f"dims={dims_ok} -> {'ok' if ok else 'FAIL'}")
    if not ok:
        sys.exit(MISMATCH)


# ---------------------------------------------------------------------------
# fock
# ---------------------------------------------------------------------------


@main.group("fock")
def fock_grp() -> None:
    """The level-2 v-deformed Fock space."""


@fock_grp.command("f")
@click.argument("e", type=int)
@click.argument("s1", type=int)
@click.argument("s2", type=int)
@click.argument("residues", nargs=-1, type=int)
@_format_option
def fock_f_cmd(e: int, s1: int, s2: int, residues, fmt: str) -> None:
    """Apply the operator product f_{i1} f_{i2} ... to the empty
    bipartition (the rightmost factor acts first)."""
    if e < 2:
        raise click.UsageError(f"e must be >= 2, got {e}")
    from . import fock
    from .laurent import LaurentPoly

    s = (s1, s2)
    vec = {((), ()): LaurentPoly.one()}
    for i in reversed(residues):
        vec = fock.f_action(i % e, vec, s, e)
    items = sorted(vec.items())
    _emit(fmt, lambda: {_dumps(b): c.pretty() for b, c in items},
          lambda: [["bipartition", "coefficient"]]
                  + [[_dumps(b), c.pretty()] for b, c in items],
          lambda: "\n".join(f"{b}: {c.pretty()}" for b, c in items))


@fock_grp.command("crystal")
@click.argument("e", type=int)
@click.argument("s1", type=int)
@click.argument("s2", type=int)
@click.argument("residues", nargs=-1, type=int)
@_format_option
def fock_crystal_cmd(e: int, s1: int, s2: int, residues, fmt: str) -> None:
    """Apply the crystal operator product f~_{i1} f~_{i2} ... to the empty
    bipartition (the rightmost factor acts first)."""
    if e < 2:
        raise click.UsageError(f"e must be >= 2, got {e}")
    from . import fock

    s = (s1, s2)
    b = ((), ())
    for i in reversed(residues):
        nb = fock.crystal_f(i % e, b, s, e)
        if nb is None:
            click.echo(f"crystal operator f~_{i % e} vanishes at {b}",
                       err=True)
            sys.exit(MISMATCH)
        b = nb
    _emit(fmt, lambda: {"bipartition": [list(p) for p in b]},
          lambda: [["bipartition"], [_dumps(b)]], lambda: str(b))


@fock_grp.command("canonical")
@click.argument("n", type=int)
@click.argument("e", type=int)
@click.argument("s1", type=int)
@click.argument("s2", type=int)
@_format_option
def fock_canonical_cmd(n: int, e: int, s1: int, s2: int, fmt: str) -> None:
    """The canonical basis elements of degree N at charge (S1, S2)."""
    if e < 2:
        raise click.UsageError(f"e must be >= 2, got {e}")
    if n < 0:
        raise click.UsageError(f"n={n} out of range")
    from . import fock

    basis = fock.canonical_basis(n, (s1, s2), e, bound=_cap(12))
    degree_n = [(mu, sorted(basis[mu].items())) for mu in
                sorted(b for b in basis if sum(sum(p) for p in b) == n)]
    _emit(fmt,
          lambda: {_dumps(mu): {_dumps(b): c.pretty() for b, c in terms}
                   for mu, terms in degree_n},
          lambda: [["mu", "lambda", "coefficient"]]
                  + [[_dumps(mu), _dumps(b), c.pretty()]
                     for mu, terms in degree_n for b, c in terms],
          lambda: "\n".join(
              f"G{mu} = " + " + ".join(f"({c.pretty()})|{b}>"
                                       for b, c in terms)
              for mu, terms in degree_n))


# ---------------------------------------------------------------------------
# decomp / kleshchev / tables
# ---------------------------------------------------------------------------


@main.command("decomp")
@click.argument("n", type=int)
@click.argument("e", type=int)
@click.argument("m", type=int)
@_format_option
def decomp_cmd(n: int, e: int, m: int, fmt: str) -> None:
    """The decomposition matrix at rank N: canonical-basis coefficients
    cross-checked against the alcove formula (exit 1 on any mismatch)."""
    _check_em(e, m)
    if n < 1:
        raise click.UsageError(f"n={n} out of range")
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
        lines = [f"n={n} e={e} m={m} charge={geom.s}"]
        for lam_w, mu_w, got, want, match in entries:
            if not got.is_zero() or not match:
                lines.append(f"  d[{lam_w},{mu_w}] = {got.pretty()}"
                             + ("" if match else
                                f"  MISMATCH (alcove: {want.pretty()})"))
        return "\n".join(lines + ["ok" if ok else "FAIL"])

    _emit(fmt,
          lambda: {"n": n, "e": e, "m": m, "charge": list(geom.s),
                   "entries": {f"{lam_w},{mu_w}": got.pretty()
                               for lam_w, mu_w, got, *_ in entries},
                   "ok": ok},
          lambda: [["lambda", "mu", "d", "alcove", "match"]]
                  + [[lam_w, mu_w, got.pretty(), want.pretty(), match]
                     for lam_w, mu_w, got, want, match in entries],
          text)
    if not ok:
        sys.exit(MISMATCH)


@main.command("kleshchev")
@click.argument("n", type=int)
@click.argument("e", type=int)
@click.argument("m", type=int)
@_format_option
def kleshchev_cmd(n: int, e: int, m: int, fmt: str) -> None:
    """The weight -> Kleshchev-bipartition table at rank N."""
    _check_em(e, m)
    if n < 1 or n > _cap(12):
        raise click.UsageError(f"n={n} out of range")
    from . import fock, tables

    computed = [(lam, fock.kleshchev_convert(n, e, m, lam))
                for lam in range(n, -n - 1, -2)]
    _emit(fmt, lambda: {str(lam): [list(p) for p in b] for lam, b in computed},
          lambda: [["lambda", "bipartition"]]
                  + [[lam, _dumps(b)] for lam, b in computed],
          lambda: tables.format_table(e, m, rows=computed))


@main.command("tables")
@click.option("--paper", is_flag=True,
              help="Recompute all four rank-10 tables and diff against the "
                   "embedded golden copies.")
@_format_option
def tables_cmd(paper: bool, fmt: str) -> None:
    """Print the four golden weight/bipartition tables."""
    from . import tables

    keys = sorted(tables.KLESHCHEV_TABLES)
    if not paper:
        _emit(fmt,
              lambda: {f"{e},{m}": {str(l): [list(p) for p in b]
                                    for l, b in tables.table_rows(e, m)}
                       for (e, m) in keys},
              lambda: [["e", "m", "lambda", "bipartition"]]
                      + [[e, m, l, _dumps(b)] for (e, m) in keys
                         for l, b in tables.table_rows(e, m)],
              tables.format_tables)
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
          lambda: "\n".join([tables.format_table(e, m, rows=computed[e, m])
                             for (e, m) in keys]
                            + [f"all 44 rows match: {ok}"]))
    if not ok:
        sys.exit(MISMATCH)


if __name__ == "__main__":
    main()
