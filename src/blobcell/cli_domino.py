"""The `domino` and `knuth` commands of `blobcell`; `cli.main` loads this
module only when one of them is invoked."""

from __future__ import annotations

import sys
from itertools import chain

from .cli import _cap, _dumps, _emit, _window, _wstr


def domino_insert_cmd(entries, fmt: str) -> None:
    """Insert a window; prints the tableau pair (P, Q)."""
    w = _window(entries)
    from . import domino

    p, q = domino.domino_insert(w)
    _emit(fmt,
          lambda: {"window": list(w), "P": p.to_json(), "Q": q.to_json()},
          lambda: [["tableau", "json"],
                   ["P", _dumps(p.to_json(), sort_keys=True)],
                   ["Q", _dumps(q.to_json(), sort_keys=True)]],
          lambda: ["P:", p.pretty(), "Q:", q.pretty()])


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
          lambda: [_wstr(w)])


def domino_shape_cmd(entries, fmt: str) -> None:
    """The shape of the insertion tableau of a window."""
    w = _window(entries)
    from . import domino

    shape = domino.domino_shape(w)
    text = " ".join(map(str, shape))
    _emit(fmt, lambda: {"window": list(w), "shape": list(shape)},
          lambda: [["shape"], [text]], lambda: [text])


def knuth_class_cmd(entries, fmt: str) -> None:
    """The plactic class of a window."""
    w = _window(entries)
    from . import weylb

    cap = _cap(weylb.DEFAULT_MAX_N)
    if len(w) > cap:  # classes grow fast: one of W_12 holds 92,400 windows
        raise ValueError(f"window length {len(w)} exceeds enumeration "
                         f"bound {cap}")
    from . import knuth

    cls = sorted(knuth.knuth_class(w))
    _emit(fmt,
          lambda: {"window": list(w), "size": len(cls),
                   "class": (list(u) for u in cls)},
          lambda: chain([["window"]], ([_wstr(u)] for u in cls)),
          lambda: map(_wstr, cls))
