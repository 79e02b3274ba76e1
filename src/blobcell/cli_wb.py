"""The `wb` commands of `blobcell`; `cli.main` loads this module only when
one of them is invoked."""

from __future__ import annotations

import sys
from itertools import chain

from .cli import MISMATCH, _at_least, _cap, _emit, _wstr


def wb_enumerate_cmd(n: int, count: bool, fmt: str) -> None:
    """List (or count) the elements of W_b(N)."""
    from . import weylb

    _at_least(n, 1)
    elements = weylb.enumerate_wb(n, bound=_cap(weylb.DEFAULT_MAX_N))
    total = len(elements)
    if count:
        _emit(fmt, lambda: {"n": n, "count": total},
              lambda: [["n", "count"], [n, total]], lambda: [str(total)])
        return
    _emit(fmt,
          lambda: {"n": n, "count": total,
                   "elements": (list(w) for w in elements)},
          lambda: chain([["window"]], ([_wstr(w)] for w in elements)),
          lambda: map(_wstr, elements))


def wb_test_cmd(n: int, fmt: str) -> None:
    """Check the three characterizations of W_b(N) against each other."""
    from . import weylb

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
          lambda: [f"n={n}: {total} elements, {mism} mismatches, "
                   f"|W_b|={actual} (formula {expected}) -> "
                   f"{'ok' if ok else 'FAIL'}"])
    if not ok:
        sys.exit(MISMATCH)
