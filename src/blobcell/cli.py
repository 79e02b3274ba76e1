"""
Command-line frontend: every computation of the library behind one binary
with deterministic JSON/CSV/pretty output.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, which
includes a library bound or specialization error.  Negative window entries
are passed after a `--` sentinel, e.g. `blobcell domino insert -- 2 3 -1`.
The BLOBCELL_MAX_N environment variable overrides the size caps of every
command and is passed to the library bounds.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import os
import sys

import click

from . import blob, domino, fock, hecke, knuth, partitions, tables, weylb
from .laurent import LaurentPoly

MISMATCH = 1


def _emit(fmt: str, obj, rows, text: str) -> None:
    """One payload, three renderings; keys and row order are always sorted."""
    if fmt == "json":
        click.echo(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        buf = io.StringIO()
        _csv.writer(buf, lineterminator="\n").writerows(rows)
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo(text)


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
    """A command whose library bound or specialization errors exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (weylb.BoundExceeded, blob.SpecializationInvalid) as exc:
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
    if count:
        _emit(fmt, {"n": n, "count": len(elements)},
              [["n", "count"], [n, len(elements)]], str(len(elements)))
        return
    obj = {"n": n, "count": len(elements),
           "elements": [list(w) for w in elements]}
    rows = [["window"]] + [[_wstr(w)] for w in elements]
    _emit(fmt, obj, rows, "\n".join(_wstr(w) for w in elements))


@wb.command("test")
@click.argument("n", type=int)
@_format_option
def wb_test(n: int, fmt: str) -> None:
    """Check the three characterizations of W_b(N) against each other."""
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    if n > _cap(weylb.DEFAULT_MAX_N):
        raise click.UsageError(f"n={n} exceeds enumeration bound")
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
    obj = {"n": n, "group_order": total, "mismatches": mism,
           "wb_count": actual, "wb_count_formula": expected, "ok": ok}
    rows = [["n", "group_order", "mismatches", "wb_count", "formula", "ok"],
            [n, total, mism, actual, expected, ok]]
    _emit(fmt, obj, rows,
          f"n={n}: {total} elements, {mism} mismatches, "
          f"|W_b|={actual} (formula {expected}) -> {'ok' if ok else 'FAIL'}")
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
    w = _window(entries)
    p, q = domino.domino_insert(w)
    obj = {"window": list(w), "P": p.to_json(), "Q": q.to_json()}
    rows = [["tableau", "json"],
            ["P", json.dumps(p.to_json(), sort_keys=True)],
            ["Q", json.dumps(q.to_json(), sort_keys=True)]]
    _emit(fmt, obj, rows, f"P:\n{p.pretty()}\nQ:\n{q.pretty()}")


@domino_grp.command("reverse")
@click.argument("pair", type=str)
@_format_option
def domino_reverse_cmd(pair: str, fmt: str) -> None:
    """Invert insertion; PAIR is the JSON {"P":..,"Q":..} ('-' = stdin)."""
    raw = sys.stdin.read() if pair == "-" else pair
    try:
        d = json.loads(raw)
        if not isinstance(d, dict):
            raise ValueError('expected an object {"P": .., "Q": ..}')
        p = domino.DominoTableau.from_json(d["P"])
        q = domino.DominoTableau.from_json(d["Q"])
        p.check_standard()
        q.check_standard()
        w = domino.domino_reverse(p, q)
    except (KeyError, ValueError, domino.ShapeMismatch) as exc:
        raise click.UsageError(f"invalid tableau pair: {exc}")
    _emit(fmt, {"window": list(w)}, [["window"], [_wstr(w)]], _wstr(w))


@domino_grp.command("shape")
@click.argument("entries", nargs=-1)
@_format_option
def domino_shape_cmd(entries, fmt: str) -> None:
    """The shape of the insertion tableau of a window."""
    w = _window(entries)
    shape = domino.domino_shape(w)
    _emit(fmt, {"window": list(w), "shape": list(shape)},
          [["shape"], [" ".join(map(str, shape))]],
          " ".join(map(str, shape)))


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
    w = _window(entries)
    cls = sorted(knuth.knuth_class(w))
    obj = {"window": list(w), "size": len(cls),
           "class": [list(u) for u in cls]}
    rows = [["window"]] + [[_wstr(u)] for u in cls]
    _emit(fmt, obj, rows, "\n".join(_wstr(u) for u in cls))


# ---------------------------------------------------------------------------
# klbasis / cells / ideal
# ---------------------------------------------------------------------------


def _kl_basis_checked(n: int) -> hecke.KLBasis:
    if n < 1:
        raise click.UsageError(f"n must be >= 1, got {n}")
    return hecke.compute_kl_basis(n, bound=_cap(hecke.KL_MAX_N))


@main.command("klbasis")
@click.argument("n", type=int)
@_format_option
def klbasis_cmd(n: int, fmt: str) -> None:
    """The C-basis of the Hecke algebra of W_N in the T-basis."""
    basis = _kl_basis_checked(n)
    obj = {}
    rows = [["w", "y", "coefficient"]]
    lines = []
    for w in basis.elements:
        terms = {_wstr(y): h.pretty() for y, h in sorted(basis.c[w].items())}
        obj[_wstr(w)] = terms
        for y, h in sorted(basis.c[w].items()):
            rows.append([_wstr(w), _wstr(y), h.pretty()])
        body = " + ".join(f"({c}) T[{y}]" for y, c in sorted(terms.items()))
        lines.append(f"C[{_wstr(w)}] = {body}")
    _emit(fmt, obj, rows, "\n".join(lines))


@main.command("cells")
@click.argument("n", type=int)
@_format_option
def cells_cmd(n: int, fmt: str) -> None:
    """Left cells of W_N, each flagged inside/outside W_b."""
    basis = _kl_basis_checked(n)
    cells = hecke.left_cells(basis)
    obj = []
    rows = [["cell", "size", "in_wb", "windows"]]
    lines = []
    for k, cell in enumerate(cells):
        members = sorted(cell)
        in_wb = all(weylb.is_in_wb_by_words(u) for u in members)
        obj.append({"size": len(members), "in_wb": in_wb,
                    "members": [list(u) for u in members]})
        rows.append([k, len(members), in_wb,
                     "; ".join(_wstr(u) for u in members)])
        lines.append(f"cell {k} (size {len(members)}, "
                     f"{'inside' if in_wb else 'outside'} W_b): "
                     + "; ".join(_wstr(u) for u in members))
    _emit(fmt, obj, rows, "\n".join(lines))


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
    ideal = hecke.ideal_jn(n, basis)
    two_sided = ideal.verify_two_sided()
    gens_inside = all(ideal.contains(g) for g in ideal.generators())
    corank = len(basis.elements) - len(ideal.outside)
    expected = weylb.wb_count_formula(n)
    ok = two_sided and gens_inside and corank == expected
    obj = {"n": n, "two_sided": two_sided, "generators_inside": gens_inside,
           "corank": corank, "corank_formula": expected, "ok": ok}
    rows = [list(obj.keys()), list(obj.values())]
    _emit(fmt, obj, rows,
          f"n={n}: two-sided={two_sided} generators_inside={gens_inside} "
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
    lams = partitions.lambda_n(n)
    dims = {lam: len(blob.half_diagrams(n, lam)) for lam in lams}
    total = len(blob.all_diagrams(n, bound=cap))
    ok = sum(d * d for d in dims.values()) == total
    obj = {"n": n, "algebra_dim": total,
           "standard_dims": {str(l): d for l, d in dims.items()},
           "sum_of_squares_ok": ok}
    rows = [["lambda", "dim"]] + [[l, dims[l]] for l in lams]
    text = "\n".join([f"dim b_{n} = {total}"]
                     + [f"  dim Delta({l}) = {dims[l]}" for l in lams])
    _emit(fmt, obj, rows, text)
    if not ok:
        sys.exit(MISMATCH)


@blob_grp.command("standard")
@click.argument("n", type=int)
@click.argument("lam", type=int)
@click.option("-m", "m", type=int, default=2, help="Blob parameter m.")
@_format_option
def blob_standard_cmd(n: int, lam: int, m: int, fmt: str) -> None:
    """The standard module Delta_N(LAM): dimension and action matrices."""
    if n > _cap(8):  # the matrices hold N·C(N, N/2)^2 entries
        raise click.UsageError(f"n={n} exceeds diagram bound {_cap(8)}")
    try:
        mod = blob.standard_module(n, lam, m)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    mats = {str(k): [[x.pretty() for x in row] for row in mat]
            for k, mat in sorted(mod.matrices.items())}
    obj = {"n": n, "lambda": lam, "m": m, "dim": mod.dimension(),
           "matrices": mats}
    rows = [["generator", "row", "entries"]]
    lines = [f"dim Delta_{n}({lam}) = {mod.dimension()}"]
    for k, mat in sorted(mats.items()):
        lines.append(f"U_{k}:")
        for r, row in enumerate(mat):
            rows.append([k, r, "; ".join(row)])
            lines.append("  [" + ", ".join(row) + "]")
    _emit(fmt, obj, rows, "\n".join(lines))


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
    obj = {"n": n, "m": m, "reports": reports, "ok": ok}
    rows = [["module", "relations_ok"]] + sorted(reports.items())
    text = "\n".join(f"{k}: {'ok' if v else 'FAIL'}"
                     for k, v in sorted(reports.items()))
    _emit(fmt, obj, rows, text)
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
    report = blob.compare_cell_to_standard(n, m, bound=_cap(4))
    obj = {"n": n, "m": m, "all_match": report["all_match"],
           "cells": [{**e, "cell_min": list(e["cell_min"])}
                     for e in report["cells"]]}
    rows = [["cell_min", "lambda", "dim_cell", "dim_delta", "dims_match",
             "relations", "traces_match"]]
    lines = []
    for e in report["cells"]:
        rows.append([_wstr(e["cell_min"]), e["lam"], e["dim_cell"],
                     e["dim_delta"], e["dims_match"], e["relations"],
                     e["traces_match"]])
        lines.append(f"cell of {_wstr(e['cell_min'])}: lambda={e['lam']} "
                     f"dims {e['dim_cell']}/{e['dim_delta']} "
                     f"relations={'ok' if e['relations'] else 'FAIL'} "
                     f"traces={'ok' if e['traces_match'] else 'FAIL'}")
    lines.append(f"all_match: {report['all_match']}")
    _emit(fmt, obj, rows, "\n".join(lines))
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
    annihilates = hecke.tensor_ideal_annihilates(n)
    symbolic = hecke.ideal_vanish_symbolic(min(n, 3))
    dims_ok = all(
        len(hecke.permutation_module(n, lam))
        == len(blob.half_diagrams(n, lam))
        for lam in partitions.lambda_n(n))
    ok = annihilates and symbolic and dims_ok
    obj = {"n": n, "ideal_annihilates": annihilates,
           "symbolic_identity": symbolic, "dims_match": dims_ok, "ok": ok}
    rows = [list(obj.keys()), list(obj.values())]
    _emit(fmt, obj, rows,
          f"n={n}: annihilates={annihilates} symbolic={symbolic} "
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
    s = (s1, s2)
    vec = {((), ()): LaurentPoly.one()}
    for i in reversed(residues):
        vec = fock.f_action(i % e, vec, s, e)
    items = sorted(vec.items())
    obj = {json.dumps(b): c.pretty() for b, c in items}
    rows = [["bipartition", "coefficient"]]
    rows += [[json.dumps(b), c.pretty()] for b, c in items]
    _emit(fmt, obj, rows,
          "\n".join(f"{b}: {c.pretty()}" for b, c in items))


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
    s = (s1, s2)
    b = ((), ())
    for i in reversed(residues):
        nb = fock.crystal_f(i % e, b, s, e)
        if nb is None:
            click.echo(f"crystal operator f~_{i % e} vanishes at {b}",
                       err=True)
            sys.exit(MISMATCH)
        b = nb
    _emit(fmt, {"bipartition": [list(p) for p in b]},
          [["bipartition"], [json.dumps(b)]], str(b))


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
    basis = fock.canonical_basis(n, (s1, s2), e, bound=_cap(12))
    obj = {}
    rows = [["mu", "lambda", "coefficient"]]
    lines = []
    degree_n = sorted(b for b in basis if sum(sum(p) for p in b) == n)
    for mu in degree_n:
        terms = sorted(basis[mu].items())
        obj[json.dumps(mu)] = {json.dumps(b): c.pretty() for b, c in terms}
        for b, c in terms:
            rows.append([json.dumps(mu), json.dumps(b), c.pretty()])
        lines.append(f"G{mu} = "
                     + " + ".join(f"({c.pretty()})|{b}>" for b, c in terms))
    _emit(fmt, obj, rows, "\n".join(lines))


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
    geom = fock.alcove_data(e, m)
    basis = fock.canonical_basis(n, geom.s, e, bound=_cap(12))
    lams = [l for l in partitions.lambda_n(n) if not geom.is_wall(l)]
    ok = True
    obj = {"n": n, "e": e, "m": m, "charge": list(geom.s), "entries": {}}
    rows = [["lambda", "mu", "d", "alcove", "match"]]
    lines = [f"n={n} e={e} m={m} charge={geom.s}"]
    for mu_w in lams:
        mu = partitions.one_line_of_weight(n, mu_w)
        vec = basis[mu]
        for lam_w in lams:
            lam = partitions.one_line_of_weight(n, lam_w)
            got = vec.get(lam, LaurentPoly.zero())
            want = (LaurentPoly.one() if lam_w == mu_w
                    else fock.decomposition_number(geom, lam_w, mu_w))
            match = got == want
            ok = ok and match
            obj["entries"][f"{lam_w},{mu_w}"] = got.pretty()
            rows.append([lam_w, mu_w, got.pretty(), want.pretty(), match])
            if not got.is_zero() or not match:
                lines.append(f"  d[{lam_w},{mu_w}] = {got.pretty()}"
                             + ("" if match else
                                f"  MISMATCH (alcove: {want.pretty()})"))
    obj["ok"] = ok
    lines.append("ok" if ok else "FAIL")
    _emit(fmt, obj, rows, "\n".join(lines))
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
    computed = [(lam, fock.kleshchev_convert(n, e, m, lam))
                for lam in range(n, -n - 1, -2)]
    obj = {str(lam): [list(p) for p in b] for lam, b in computed}
    rows = [["lambda", "bipartition"]]
    rows += [[lam, json.dumps(b)] for lam, b in computed]
    _emit(fmt, obj, rows, tables.format_table(e, m, rows=computed))


@main.command("tables")
@click.option("--paper", is_flag=True,
              help="Recompute all four rank-10 tables and diff against the "
                   "embedded golden copies.")
@_format_option
def tables_cmd(paper: bool, fmt: str) -> None:
    """Print the four golden weight/bipartition tables."""
    if not paper:
        _emit(fmt,
              {f"{e},{m}": {str(l): [list(p) for p in b]
                            for l, b in tables.table_rows(e, m)}
               for (e, m) in sorted(tables.KLESHCHEV_TABLES)},
              [["e", "m", "lambda", "bipartition"]]
              + [[e, m, l, json.dumps(b)]
                 for (e, m) in sorted(tables.KLESHCHEV_TABLES)
                 for l, b in tables.table_rows(e, m)],
              tables.format_tables())
        return
    ok = True
    diffs = []
    blocks = []
    for (e, m) in sorted(tables.KLESHCHEV_TABLES):
        computed = [(lam, fock.kleshchev_convert(10, e, m, lam))
                    for lam in range(10, -11, -2)]
        golden = tables.table_rows(e, m)
        blocks.append(tables.format_table(e, m, rows=computed))
        for (lam, got), (_, want) in zip(computed, golden):
            if got != want:
                ok = False
                diffs.append({"e": e, "m": m, "lambda": lam,
                              "computed": [list(p) for p in got],
                              "golden": [list(p) for p in want]})
    obj = {"rows_checked": 44, "ok": ok, "diffs": diffs}
    rows = [["rows_checked", "ok", "diffs"], [44, ok, len(diffs)]]
    text = "\n".join(blocks + [f"all 44 rows match: {ok}"])
    _emit(fmt, obj, rows, text)
    if not ok:
        sys.exit(MISMATCH)


if __name__ == "__main__":
    main()
