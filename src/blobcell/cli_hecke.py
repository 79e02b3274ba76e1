"""The Hecke-algebra commands of `blobcell` (`klbasis`, `cells`, `ideal
check`, `tensor check`); `cli.main` loads this module only when one of
them is invoked.

`klbasis` renders every format straight from the packed rows of the
build (`kronecker.Decoded.packed_row`): each distinct coefficient is
formatted once, each window once, and no C_w is decoded into, or cached
by, `basis.c`.  Like every command, its output is streamed by `cli._emit`
as it is made, so `klbasis 5` (109 MB) never holds its whole text."""

from __future__ import annotations

import sys
from itertools import chain

from .cli import MISMATCH, _at_least, _cap, _emit, _wstr


def _kl_basis_checked(n: int):
    """The hecke.KLBasis of W_N, within the command's bound."""
    _at_least(n, 1)
    from . import hecke

    return hecke.compute_kl_basis(n, bound=_cap(hecke.KL_MAX_N))


def klbasis_cmd(n: int, fmt: str) -> None:
    """The C-basis of the Hecke algebra of W_N in the T-basis."""
    basis = _kl_basis_checked(n)
    c = basis.c
    _, windows, bits, off = c.packed_row(basis.elements[0])
    ws = [_wstr(w) for w in windows]  # a term's index is its place here

    def terms(w, key: list, texts: _Texts) -> dict:
        """{key[y]: texts[coefficient]} over the T_y terms of C_w."""
        return {key[y]: texts[x] for y, x in c.packed_row(w)[0].items() if x}

    def ranked(order: list) -> tuple:
        """(the rank of each index in `order`, the windows in that order):
        a row's terms are sorted by their ranks."""
        rank = [0] * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        return rank, [ws[i] for i in order]

    def obj():  # C_w's terms are made when its entry is written
        texts = _Texts(bits, off, "{}")
        return {s: lambda w=w: terms(w, ws, texts)
                for w, s in zip(windows, ws)}

    def rows():  # each row's terms by window tuple
        texts = _Texts(bits, off, "{}")
        rank, ys = ranked(sorted(range(len(ws)), key=windows.__getitem__))
        yield ["w", "y", "coefficient"]
        for i, w in enumerate(windows):
            d = terms(w, rank, texts)
            yield from [[ws[i], ys[r], d[r]] for r in sorted(d)]

    def text():  # each row's terms by window string
        texts = _Texts(bits, off, "({}) ")
        rank, ys = ranked(sorted(range(len(ws)), key=ws.__getitem__))
        tee = [f"T[{y}]" for y in ys]
        for i, w in enumerate(windows):
            d = terms(w, rank, texts)
            yield f"C[{ws[i]}] = " + " + ".join([d[r] + tee[r]
                                                 for r in sorted(d)])

    _emit(fmt, obj, rows, text)


class _Texts(dict):
    """Packed int -> the text of its coefficient in `template`, made when
    first read."""

    def __init__(self, bits: int, off: int, template: str):
        super().__init__()
        self.bits, self.off, self.template = bits, off, template

    def __missing__(self, x: int) -> str:
        from .kronecker import unpack

        text = self[x] = self.template.format(
            unpack(x, self.bits, self.off).pretty())
        return text


def cells_cmd(n: int, fmt: str) -> None:
    """Left cells of W_N, each flagged inside/outside W_b."""
    basis = _kl_basis_checked(n)
    from . import hecke, weylb

    cells = [sorted(cell) for cell in hecke.left_cells(basis)]
    in_wb = [all(weylb.is_in_wb_by_words(u) for u in members)
             for members in cells]
    _emit(fmt,
          lambda: ({"size": len(members), "in_wb": inside,
                    "members": [list(u) for u in members]}
                   for members, inside in zip(cells, in_wb)),
          lambda: chain([["cell", "size", "in_wb", "windows"]],
                        ([k, len(members), inside,
                          "; ".join(_wstr(u) for u in members)]
                         for k, (members, inside)
                         in enumerate(zip(cells, in_wb)))),
          lambda: (f"cell {k} (size {len(members)}, "
                   f"{'inside' if inside else 'outside'} W_b): "
                   + "; ".join(_wstr(u) for u in members)
                   for k, (members, inside) in enumerate(zip(cells, in_wb))))


def ideal_check_cmd(n: int, fmt: str) -> None:
    """Verify the ideal property, the generators, and the corank."""
    _at_least(n, 2)
    basis = _kl_basis_checked(n)
    from . import hecke, weylb

    ideal = hecke.ideal_jn(n, basis)
    two_sided = ideal.verify_two_sided()
    gens_inside = all(ideal.contains(g) for g in ideal.generators())
    corank = len(basis.elements) - len(ideal.outside)
    expected = weylb.wb_count_formula(n)
    ok = two_sided and gens_inside and corank == expected
    obj = {"n": n, "two_sided": two_sided, "generators_inside": gens_inside,
           "corank": corank, "corank_formula": expected, "ok": ok}
    _emit(fmt, lambda: obj, lambda: [list(obj.keys()), list(obj.values())],
          lambda: [f"n={n}: two-sided={two_sided} "
                   f"generators_inside={gens_inside} "
                   f"corank={corank} (formula {expected}) -> "
                   f"{'ok' if ok else 'FAIL'}"])
    if not ok:
        sys.exit(MISMATCH)


def tensor_check_cmd(n: int, fmt: str) -> None:
    """Verify that the ideal generators annihilate V^{(x)N} and that the
    permutation modules have the standard-module dimensions."""
    _at_least(n, 2)
    if n > _cap(5):
        raise ValueError(f"n={n} exceeds tensor bound {_cap(5)}")
    from . import blob, hecke, partitions, tensor

    annihilates = hecke.tensor_ideal_annihilates(n)
    symbolic = hecke.ideal_vanish_symbolic(min(n, 3))
    dims_ok = all(
        len(tensor.permutation_module(n, lam))
        == len(blob.half_diagrams(n, lam))
        for lam in partitions.lambda_n(n))
    ok = annihilates and symbolic and dims_ok
    obj = {"n": n, "ideal_annihilates": annihilates,
           "symbolic_identity": symbolic, "dims_match": dims_ok, "ok": ok}
    _emit(fmt, lambda: obj, lambda: [list(obj.keys()), list(obj.values())],
          lambda: [f"n={n}: annihilates={annihilates} symbolic={symbolic} "
                   f"dims={dims_ok} -> {'ok' if ok else 'FAIL'}"])
    if not ok:
        sys.exit(MISMATCH)
