"""The Hecke-algebra commands of `blobcell` (`klbasis`, `cells`, `ideal
check`, `tensor check`); `cli.main` loads this module only when one of
them is invoked."""

from __future__ import annotations

import sys

from .cli import MISMATCH, _at_least, _cap, _emit, _wstr


def _kl_basis_checked(n: int):
    """The hecke.KLBasis of W_N, within the command's bound."""
    _at_least(n, 1)
    from . import hecke

    return hecke.compute_kl_basis(n, bound=_cap(hecke.KL_MAX_N))


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


def cells_cmd(n: int, fmt: str) -> None:
    """Left cells of W_N, each flagged inside/outside W_b."""
    basis = _kl_basis_checked(n)
    from . import hecke, weylb

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
          lambda: f"n={n}: two-sided={two_sided} "
                  f"generators_inside={gens_inside} "
                  f"corank={corank} (formula {expected}) -> "
                  f"{'ok' if ok else 'FAIL'}")
    if not ok:
        sys.exit(MISMATCH)


def tensor_check_cmd(n: int, fmt: str) -> None:
    """Verify that the ideal generators annihilate V^{(x)N} and that the
    permutation modules have the standard-module dimensions."""
    _at_least(n, 2)
    if n > _cap(5):
        raise ValueError(f"n={n} exceeds tensor bound")
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
          lambda: f"n={n}: annihilates={annihilates} symbolic={symbolic} "
                  f"dims={dims_ok} -> {'ok' if ok else 'FAIL'}")
    if not ok:
        sys.exit(MISMATCH)
