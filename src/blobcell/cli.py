"""
Command-line frontend: every computation of the library behind one binary
with deterministic JSON/CSV/pretty output, on the standard library alone.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, which
includes any ValueError a command raises (a bound, a specialization, an
argument the library rejects).  Negative window entries are passed after a
`--` sentinel, e.g. `blobcell domino insert -- 2 3 -1`.
The BLOBCELL_MAX_N environment variable overrides the size caps of every
command and is passed to the library bounds.

Only the invoked command gets an argparse parser.  Each command imports
the library modules it uses after its own argument checks, so a command,
`--help` or a usage error loads no module it does not need.
"""

from __future__ import annotations

import io
import os
import sys

from . import weylb

MISMATCH = 1
BLOB_MAX_M = 64  # `blob standard` and `blob verify` reject a larger |m|

_COMMANDS: dict = {}  # "group name" or "name" -> (function, argument specs)
_GROUPS = {
    "wb": "The two-row subset W_b of the signed permutations.",
    "domino": "Domino insertion and its inverse.",
    "knuth": "Plactic classes from the signed Knuth moves.",
    "ideal": "The two-sided ideal spanned by the C_w outside W_b.",
    "blob": "The blob diagram algebra and its standard modules.",
    "tensor": "The two-dimensional tensor-space representation.",
    "fock": "The level-2 v-deformed Fock space.",
}
_OPTIONS = {  # option -> argparse keywords; every command also has --format
    "--count": {"action": "store_true", "help": "Print only the cardinality."},
    "--paper": {"action": "store_true",
                "help": "Recompute all four rank-10 tables and diff against "
                        "the embedded golden copies."},
    "-m": {"type": int, "default": 2, "help": "Blob parameter m."},
}


def _command(path: str, *specs: str):
    """Register a command.  A spec is an `_OPTIONS` key or a positional:
    an int, a str for `entries` and `pair`, variadic if it ends in `*`."""
    def register(func):
        _COMMANDS[path] = (func, specs)
        return func
    return register


def _below(path: str) -> dict:
    """{name: help line} of the commands and groups in the group `path`."""
    below = {}
    for key, (func, _) in _COMMANDS.items():
        *group, name = key.split()
        if group == path.split():
            below[name] = " ".join(func.__doc__.split())
        elif not path:
            below[group[0]] = _GROUPS[group[0]]
    return below


def _usage(prog: str, path: str, error: str | None = None):
    """The command list of the group `path` ("" for the top): on stdout
    for `--help` (exit 0), else on stderr followed by `error` (exit 2)."""
    where, below = f"{prog} {path}".rstrip(), _below(path)
    out, width = sys.stderr if error else sys.stdout, max(map(len, below))
    print(f"usage: {where} [--help] COMMAND [ARGS]...\n",
          _GROUPS.get(path) or " ".join(main.__doc__.split()), "\ncommands:",
          *(f"  {k:<{width}}  {below[k]}" for k in sorted(below)),
          sep="\n", file=out)
    if error:
        print(f"\n{where}: error: {error}", file=out)
    sys.exit(2 if error else 0)


def _parser(prog: str, path: str):
    """The argparse parser of the one command invoked."""
    import argparse

    func, specs = _COMMANDS[path]
    parser = argparse.ArgumentParser(prog=f"{prog} {path}", add_help=False,
                                     description=func.__doc__,
                                     allow_abbrev=False)
    for spec in specs:
        name = spec.rstrip("*")
        if spec in _OPTIONS:
            parser.add_argument(spec, **_OPTIONS[spec])
        else:
            parser.add_argument(name, metavar=name.upper(),
                                nargs="*" if spec != name else None,
                                type=str if name in ("entries", "pair")
                                else int)
    parser.add_argument("--format", dest="fmt", default="pretty",
                        choices=("json", "csv", "pretty"),
                        help="Output format.")
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    return parser


def main(args=None, prog_name=None) -> None:
    """Exact computations for two-row signed-permutation combinatorics,
    the unequal-parameter C-basis, the blob diagram algebra and the
    level-2 Fock space."""
    argv = sys.argv[1:] if args is None else list(args)
    prog = prog_name or os.path.basename(sys.argv[0])
    path = ""
    while path not in _COMMANDS:  # walk the group names to one command
        tok = argv.pop(0) if argv else None
        if tok == "--help":
            _usage(prog, path)
        if tok not in _below(path):
            _usage(prog, path, "missing command" if tok is None else
                   f"no such {'option' if tok[:1] == '-' else 'command'} "
                   f"{tok!r}")
        try:
            weylb.max_n(default=None)
        except ValueError:
            _usage(prog, "", "BLOBCELL_MAX_N must be an integer, got "
                             f"{os.environ['BLOBCELL_MAX_N']!r}")
        path = f"{path} {tok}".lstrip()
    parser = _parser(prog, path)
    # After the first `--` all is positional; before it a negative number
    # is an unknown option, where argparse would read a positional.
    cut = argv.index("--") if "--" in argv else len(argv)
    for k, tok in enumerate(argv):
        number = tok[1:].isdigit()
        value = argv[k - 1:k] in (["-m"], ["--format"])  # of the option
        if tok[:1] == "-" and (number and k < cut and not value
                               or not number and k > cut and tok != "-"):
            parser.error(f"unexpected {tok!r} (negative numbers go after "
                         "`--`, options before it)")
    del argv[cut:cut + 1]
    kwargs = vars(parser.parse_intermixed_args(argv))
    try:  # RuntimeError invariants propagate
        _COMMANDS[path][0](**kwargs)
        sys.stdout.flush()
    except ValueError as exc:
        parser.error(str(exc))
    except BrokenPipeError:  # the reader went away, as in `| head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


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
        print(_dumps(obj(), sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows())
        sys.stdout.write(buf.getvalue())
    else:
        print(text())


def _window(entries) -> tuple:
    if not entries:
        raise ValueError("empty window (entries go after `--`)")
    try:
        w = tuple(int(x) for x in entries)
    except ValueError as exc:
        raise ValueError(f"invalid window {list(entries)}: {exc}")
    if sorted(abs(x) for x in w) != list(range(1, len(w) + 1)):
        raise ValueError(f"invalid window {list(w)}: not a signed permutation")
    return w


def _wstr(w) -> str:
    return " ".join(str(x) for x in w)


def _check_em(e: int, m: int) -> None:
    _at_least(e, 2, "e")
    if e != 2 * m - 1:
        raise ValueError(
            f"parameter consistency: e = 2m - 1 required (l = 2(2m-1)), "
            f"got e={e}, m={m}")


def _at_least(value: int, low: int, name: str = "n") -> None:
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _cap(default: int) -> int:
    """BLOBCELL_MAX_N, which `main` has checked, else the command's default."""
    cap = weylb.max_n(default=None)
    return default if cap is None else cap


@_command("wb enumerate", "n", "--count")
def wb_enumerate(n: int, count: bool, fmt: str) -> None:
    """List (or count) the elements of W_b(N)."""
    _at_least(n, 1)
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


@_command("wb test", "n")
def wb_test(n: int, fmt: str) -> None:
    """Check the three characterizations of W_b(N) against each other."""
    _at_least(n, 1)
    if n > _cap(weylb.DEFAULT_MAX_N):
        raise ValueError(f"n={n} exceeds enumeration bound")
    from . import domino

    mism = total = actual = 0
    for w in weylb.enumerate_wn(n):
        b = weylb.is_in_wb_by_words(w)
        total, actual = total + 1, actual + b
        mism += not (weylb.is_in_wb_by_avoidance(w) == b
                     == (len(domino.domino_shape(w)) <= 2))
    expected = weylb.wb_count_formula(n)
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


@_command("domino insert", "entries*")
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


@_command("domino reverse", "pair")
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
        raise ValueError(f"invalid tableau pair: {exc}")
    _emit(fmt, lambda: {"window": list(w)}, lambda: [["window"], [_wstr(w)]],
          lambda: _wstr(w))


@_command("domino shape", "entries*")
def domino_shape_cmd(entries, fmt: str) -> None:
    """The shape of the insertion tableau of a window."""
    from . import domino

    w = _window(entries)
    shape = domino.domino_shape(w)
    text = " ".join(map(str, shape))
    _emit(fmt, lambda: {"window": list(w), "shape": list(shape)},
          lambda: [["shape"], [text]], lambda: text)


@_command("knuth class", "entries*")
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


def _kl_basis_checked(n: int):
    """The hecke.KLBasis of W_N, within the command's bound."""
    _at_least(n, 1)
    from . import hecke

    return hecke.compute_kl_basis(n, bound=_cap(hecke.KL_MAX_N))


@_command("klbasis", "n")
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


@_command("cells", "n")
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


@_command("ideal check", "n")
def ideal_check_cmd(n: int, fmt: str) -> None:
    """Verify the ideal property, the generators, and the corank."""
    _at_least(n, 2)
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


@_command("blob dims", "n")
def blob_dims_cmd(n: int, fmt: str) -> None:
    """dim of the algebra and of every standard module at rank N."""
    _at_least(n, 1)
    cap = _cap(8)
    if n > cap:
        raise ValueError(f"n={n} exceeds diagram bound {cap}")
    from . import blob, partitions

    lams = partitions.lambda_n(n)
    dims = {lam: len(blob.half_diagrams(n, lam)) for lam in lams}
    total = blob.blob_algebra_dimension(n, bound=cap)
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


def _check_blob_m(m: int) -> None:
    """The entries are polynomials of about |m| terms and the relation
    checks multiply them, so the time grows fast with |m| (`blob verify 2
    -m 2000` took 16 s on a 2-vCPU Xeon): |m| is capped."""
    if abs(m) > BLOB_MAX_M:
        raise ValueError(f"m={m} exceeds the blob parameter bound "
                         f"|m| <= {BLOB_MAX_M}")


@_command("blob standard", "n", "lam", "-m")
def blob_standard_cmd(n: int, lam: int, m: int, fmt: str) -> None:
    """The standard module Delta_N(LAM): dimension and action matrices."""
    _at_least(n, 1)
    _check_blob_m(m)
    if n > _cap(8):  # the matrices hold N·C(N, N/2)^2 entries
        raise ValueError(f"n={n} exceeds diagram bound {_cap(8)}")
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


@_command("blob verify", "n", "-m")
def blob_verify_cmd(n: int, m: int, fmt: str) -> None:
    """Check the defining relations on every standard module (and, for
    small N, on the regular representation)."""
    _at_least(n, 1)
    _check_blob_m(m)
    if n > _cap(6):
        raise ValueError(f"n={n} exceeds verification bound")
    from . import blob, partitions

    reports = {f"delta({lam})": blob.verify_presentation(
        blob.standard_module(n, lam, m).matrices, m)["all"]
        for lam in partitions.lambda_n(n)}
    if n <= 4:
        reports["regular"] = blob.verify_presentation(
            blob.regular_representation(n, m), m)["all"]
    ok = all(reports.values())
    _emit(fmt, lambda: {"n": n, "m": m, "reports": reports, "ok": ok},
          lambda: [["module", "relations_ok"]] + sorted(reports.items()),
          lambda: "\n".join(f"{k}: {'ok' if v else 'FAIL'}"
                            for k, v in sorted(reports.items())))
    if not ok:
        sys.exit(MISMATCH)


@_command("cellcompare", "n", "-m")
def cellcompare_cmd(n: int, m: int, fmt: str) -> None:
    """Match every left cell inside W_b with its standard module at the
    cyclotomic specialization (l = 2(2m-1))."""
    _at_least(n, 1)
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


@_command("tensor check", "n")
def tensor_check_cmd(n: int, fmt: str) -> None:
    """Verify that the ideal generators annihilate V^{(x)N} and that the
    permutation modules have the standard-module dimensions."""
    _at_least(n, 2)
    if n > _cap(5):
        raise ValueError(f"n={n} exceeds tensor bound")
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


@_command("fock f", "e", "s1", "s2", "residues*")
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
          lambda: [["bipartition", "coefficient"]]
                  + [[_dumps(b), c.pretty()] for b, c in items],
          lambda: "\n".join(f"{b}: {c.pretty()}" for b, c in items))


@_command("fock crystal", "e", "s1", "s2", "residues*")
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
          lambda: [["bipartition"], [_dumps(b)]], lambda: str(b))


@_command("fock canonical", "n", "e", "s1", "s2")
def fock_canonical_cmd(n: int, e: int, s1: int, s2: int, fmt: str) -> None:
    """The canonical basis elements of degree N at charge (S1, S2)."""
    _at_least(e, 2, "e")
    if n < 0:
        raise ValueError(f"n={n} out of range")
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


@_command("decomp", "n", "e", "m")
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


@_command("kleshchev", "n", "e", "m")
def kleshchev_cmd(n: int, e: int, m: int, fmt: str) -> None:
    """The weight -> Kleshchev-bipartition table at rank N."""
    _check_em(e, m)
    if n < 1 or n > _cap(12):
        raise ValueError(f"n={n} out of range")
    from . import fock, tables

    computed = [(lam, fock.kleshchev_convert(n, e, m, lam))
                for lam in range(n, -n - 1, -2)]
    _emit(fmt, lambda: {str(lam): [list(p) for p in b] for lam, b in computed},
          lambda: [["lambda", "bipartition"]]
                  + [[lam, _dumps(b)] for lam, b in computed],
          lambda: tables.format_table(e, m, rows=computed))


@_command("tables", "--paper")
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
