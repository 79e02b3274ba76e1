"""The `blob` and `cellcompare` commands of `blobcell`; `cli.main` loads
this module only when one of them is invoked."""

from __future__ import annotations

import sys
from itertools import chain

from .cli import MISMATCH, _at_least, _cap, _emit, _wstr

BLOB_MAX_M = 64  # `blob standard` and `blob verify` reject a larger |m|


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
          lambda: chain([["lambda", "dim"]], ([l, dims[l]] for l in lams)),
          lambda: chain([f"dim b_{n} = {total}"],
                        (f"  dim Delta({l}) = {dims[l]}" for l in lams)))
    if not ok:
        sys.exit(MISMATCH)


def _check_blob_m(m: int) -> None:
    """The entries are polynomials of about |m| terms and the relation
    checks multiply them, so the time grows fast with |m| (`blob verify 2
    -m 2000` took 16 s on a 2-vCPU Xeon): |m| is capped."""
    if abs(m) > BLOB_MAX_M:
        raise ValueError(f"m={m} exceeds the blob parameter bound "
                         f"|m| <= {BLOB_MAX_M}")


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
        yield f"dim Delta_{n}({lam}) = {dim}"
        for k, mat in sorted(mats.items()):
            yield f"U_{k}:"
            yield from ("  [" + ", ".join(row) + "]" for row in mat)

    _emit(fmt,
          lambda: {"n": n, "lambda": lam, "m": m, "dim": dim,
                   "matrices": mats},
          lambda: chain([["generator", "row", "entries"]],
                        ([k, r, "; ".join(row)]
                         for k, mat in sorted(mats.items())
                         for r, row in enumerate(mat))),
          text)


def blob_verify_cmd(n: int, m: int, fmt: str) -> None:
    """Check the defining relations on every standard module (and, for
    small N, on the regular representation)."""
    _at_least(n, 1)
    _check_blob_m(m)
    if n > _cap(6):
        raise ValueError(f"n={n} exceeds verification bound {_cap(6)}")
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
          lambda: (f"{k}: {'ok' if v else 'FAIL'}"
                   for k, v in sorted(reports.items())))
    if not ok:
        sys.exit(MISMATCH)


def cellcompare_cmd(n: int, m: int, fmt: str) -> None:
    """Match every left cell inside W_b with its standard module entry for
    entry over Z[v, v^-1]; M only picks the specialization (l = 2(2m-1)) at
    which the three scalar identities are checked."""
    _at_least(n, 1)
    from . import blob, hecke

    report = blob.compare_cell_to_standard(n, m, bound=_cap(hecke.KL_MAX_N))
    entries = report["cells"]
    _emit(fmt,
          lambda: {"n": n, "m": m, "all_match": report["all_match"],
                   "cells": [{**e, "cell_min": list(e["cell_min"])}
                             for e in entries]},
          lambda: chain([["cell_min", "lambda", "dim_cell", "dim_delta",
                          "dims_match", "relations", "traces_match"]],
                        ([_wstr(e["cell_min"]), e["lam"], e["dim_cell"],
                          e["dim_delta"], e["dims_match"], e["relations"],
                          e["traces_match"]] for e in entries)),
          lambda: chain(
              (f"cell of {_wstr(e['cell_min'])}: lambda={e['lam']} "
               f"dims {e['dim_cell']}/{e['dim_delta']} "
               f"relations={'ok' if e['relations'] else 'FAIL'} "
               f"traces={'ok' if e['traces_match'] else 'FAIL'}"
               for e in entries),
              [f"all_match: {report['all_match']}"]))
    if not report["all_match"]:
        sys.exit(MISMATCH)
