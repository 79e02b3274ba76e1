"""
Command-line frontend: every computation of the library behind one binary
with deterministic JSON/CSV/pretty output, on the standard library alone.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, which
includes any ValueError a command raises (a bound, a specialization, an
argument the library rejects), and 141 when the reader of stdout goes
away before the output ends (`blobcell klbasis 4 | head -1`): the status
a shell reports for a filter that SIGPIPE ended, with nothing on stderr.
Negative window entries are passed after a `--` sentinel, e.g.
`blobcell domino insert -- 2 3 -1`.  The BLOBCELL_MAX_N environment
variable overrides the size caps of every command and is passed to the
library bounds.

Every output is streamed: `_emit` writes the one rendering asked for as
its builder makes it, in chunks of about 64 KiB, so no command holds its
whole output and a reader that leaves early is the normal case.

This module is the dispatcher and the output helpers the commands share.
`_COMMANDS` is data: it maps each command path to the module that holds
its body, its argument specs and its help line, so `--help`, a usage
error or a group listing loads no command module.  The bodies live in one
flat module per library layer (`cli_wb`, `cli_domino`, `cli_hecke`,
`cli_blob`, `cli_fock`), and `main` imports only the invoked command's
module, so a process compiles one of them.  Only the invoked command gets
an argparse parser.  Each command imports the library modules it uses
after its own argument checks, so a command, `--help` or a usage error
loads no module it does not need.
"""

from __future__ import annotations

import importlib
import io
import itertools
import os
import sys
from collections.abc import Iterator

MISMATCH = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE

# Command path -> (module, argument specs, help line).  The body is the
# function `<path with _ for spaces>_cmd` of the module.  A spec is an
# `_OPTIONS` key or a positional: an int, a str for `entries` and `pair`,
# variadic if it ends in `*`.
_COMMANDS = {
    "wb enumerate": ("cli_wb", ("n", "--count"),
                     "List (or count) the elements of W_b(N)."),
    "wb test": ("cli_wb", ("n",), "Check the three characterizations of "
                "W_b(N) against each other."),
    "domino insert": ("cli_domino", ("entries*",),
                      "Insert a window; prints the tableau pair (P, Q)."),
    "domino reverse": ("cli_domino", ("pair",),
                       'Invert insertion; PAIR is the JSON {"P":..,"Q":..} '
                       "('-' = stdin)."),
    "domino shape": ("cli_domino", ("entries*",),
                     "The shape of the insertion tableau of a window."),
    "knuth class": ("cli_domino", ("entries*",),
                    "The plactic class of a window."),
    "klbasis": ("cli_hecke", ("n",),
                "The C-basis of the Hecke algebra of W_N in the T-basis."),
    "cells": ("cli_hecke", ("n",),
              "Left cells of W_N, each flagged inside/outside W_b."),
    "ideal check": ("cli_hecke", ("n",), "Verify the ideal property, the "
                    "generators, and the corank."),
    "tensor check": ("cli_hecke", ("n",), "Verify that the ideal generators "
                     "annihilate V^{(x)N} and that the permutation modules "
                     "have the standard-module dimensions."),
    "blob dims": ("cli_blob", ("n",), "dim of the algebra and of every "
                  "standard module at rank N."),
    "blob standard": ("cli_blob", ("n", "lam", "-m"), "The standard module "
                      "Delta_N(LAM): dimension and action matrices."),
    "blob verify": ("cli_blob", ("n", "-m"), "Check the defining relations "
                    "on every standard module (and, for small N, on the "
                    "regular representation)."),
    "cellcompare": ("cli_blob", ("n", "-m"), "Match every left cell inside "
                    "W_b with its standard module entry for entry over "
                    "Z[v, v^-1]; M only picks the specialization "
                    "(l = 2(2m-1)) at which the three scalar identities "
                    "are checked."),
    "fock f": ("cli_fock", ("e", "s1", "s2", "residues*"),
               "Apply the operator product f_{i1} f_{i2} ... to the empty "
               "bipartition (the rightmost factor acts first)."),
    "fock crystal": ("cli_fock", ("e", "s1", "s2", "residues*"),
                     "Apply the crystal operator product f~_{i1} f~_{i2} "
                     "... to the empty bipartition (the rightmost factor "
                     "acts first)."),
    "fock canonical": ("cli_fock", ("n", "e", "s1", "s2"), "The canonical "
                       "basis elements of degree N at charge (S1, S2)."),
    "decomp": ("cli_fock", ("n", "e", "m"), "The decomposition matrix at "
               "rank N: canonical-basis coefficients cross-checked against "
               "the alcove formula (exit 1 on any mismatch)."),
    "kleshchev": ("cli_fock", ("n", "e", "m"),
                  "The weight -> Kleshchev-bipartition table at rank N."),
    "tables": ("cli_fock", ("--paper",),
               "Print the four golden weight/bipartition tables."),
}
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


def _below(path: str) -> dict:
    """{name: help line} of the commands and groups in the group `path`."""
    below = {}
    for key, (_, _, text) in _COMMANDS.items():
        *group, name = key.split()
        if group == path.split():
            below[name] = text
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

    _, specs, text = _COMMANDS[path]
    parser = argparse.ArgumentParser(prog=f"{prog} {path}", add_help=False,
                                     description=text, allow_abbrev=False)
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


def _command(path: str):
    """The function of the command `path`, from its module."""
    module = importlib.import_module(f"{__package__}.{_COMMANDS[path][0]}")
    return getattr(module, path.replace(" ", "_") + "_cmd")


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
        from . import weylb

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
    command = _command(path)
    try:  # RuntimeError invariants propagate
        command(**kwargs)
        sys.stdout.flush()
    except ValueError as exc:
        parser.error(str(exc))
    except BrokenPipeError:  # the reader went away, as in `| head`
        # stdout's unwritten rest goes nowhere, not into an error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(BROKEN_PIPE)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


def _dumps(obj, **kwargs) -> str:
    """json.dumps, with json imported only by the output that needs it."""
    import json

    return json.dumps(obj, **kwargs)


_CHUNK = 1 << 16  # characters handed to stdout at once


def _emit(fmt: str, obj, rows, text) -> None:
    """
    One payload, three renderings, each written as it is made; keys and
    row order are always sorted.  `obj`, `rows` and `text` are
    zero-argument builders of the JSON value, of the CSV rows and of the
    pretty lines: only the one `fmt` asks for runs.  Its pieces go to
    stdout in chunks of about _CHUNK characters, so no rendering holds its
    whole output and a large one is a few writes per megabyte.
    """
    pieces = (itertools.chain(_json_pieces(obj()), ("\n",)) if fmt == "json"
              else _csv_pieces(rows()) if fmt == "csv"
              else _text_pieces(text()))
    parts, size = [], 0
    for piece in pieces:
        parts.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            sys.stdout.write("".join(parts))
            parts, size = [], 0
    if parts:
        sys.stdout.write("".join(parts))


def _json_pieces(obj):
    """
    json.dumps(obj, sort_keys=True, separators=(",", ":")) in pieces: a
    dict (str keys) one entry at a time in sorted-key order, anything else
    as an array one item at a time.  A value that is callable is called
    when its piece is made, and one that is an iterator streams as an
    array, so an object of thunks or a generator is never held whole.
    """
    if isinstance(obj, dict):
        sep, close = "{", "}"
        entries = ((_dumps(k) + ":", obj[k]) for k in sorted(obj))
    else:
        sep, close = "[", "]"
        entries = (("", x) for x in obj)
    for head, value in entries:
        if callable(value):
            value = value()
        if isinstance(value, Iterator):
            yield sep + head
            yield from _json_pieces(value)
        else:
            yield sep + head + _dumps(value, sort_keys=True,
                                      separators=(",", ":"))
        sep = ","
    yield close if sep == "," else sep + close


def _csv_pieces(rows):
    """The CSV text of `rows`, in pieces of 256 rows."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = iter(rows)
    while batch := list(itertools.islice(rows, 256)):
        writer.writerows(batch)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _text_pieces(lines):
    """Each of `lines` with a newline; a single one for no lines, as
    print("") writes."""
    empty = True
    for line in lines:
        yield line + "\n"
        empty = False
    if empty:
        yield "\n"


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
    from . import weylb

    cap = weylb.max_n(default=None)
    return default if cap is None else cap


if __name__ == "__main__":
    main()
