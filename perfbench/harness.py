"""
Pieces shared by every workload: tasks, checks, scales, digests, goldens.

This module imports nothing from `blobcell`, so that the `cli-session`
worker pays no library import of its own.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")


class CheckFailed(Exception):
    """A task's result is wrong."""


class ContractViolation(CheckFailed):
    """A CLI call broke the exit-code contract (0 ok, 1 mismatch, 2 usage)."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _no_check(result, state):
    return None


@dataclass
class Task:
    """
    One closed-loop request.  `call` is timed; `check` is not.  `check`
    raises CheckFailed on a wrong result and returns the output that is
    digested and compared with goldens[golden] when `golden` is set.
    """

    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], Any] = _no_check
    golden: str | None = None


@dataclass(frozen=True)
class Scale:
    product_per_length: int
    product_lengths: tuple
    bar_per_length: int
    bar_lengths: tuple
    compare_n: int
    canonical_degree: int
    kleshchev_tables: int
    crystal_words: int
    wb_count_n: int
    three_way_full_n: int
    three_way_sample_n: int
    three_way_sample: int
    roundtrip_full_n: int
    roundtrip_sample_ns: tuple
    roundtrip_sample: int
    blob_max_n: int
    cli_commands: tuple | None  # None = all of CLI_COMMANDS


# FULL is what the benchmark runs; SMALL is for the benchmark's own tests.
FULL = Scale(
    product_per_length=1, product_lengths=tuple(range(1, 13)),
    bar_per_length=2, bar_lengths=tuple(range(2, 11)), compare_n=3,
    canonical_degree=14, kleshchev_tables=4, crystal_words=40,
    wb_count_n=7, three_way_full_n=5, three_way_sample_n=6,
    three_way_sample=6000, roundtrip_full_n=5, roundtrip_sample_ns=(6, 7, 8),
    roundtrip_sample=60, blob_max_n=7, cli_commands=None,
)

SMALL = Scale(
    product_per_length=1, product_lengths=(1, 2, 3), bar_per_length=1,
    bar_lengths=(2, 3),
    compare_n=2, canonical_degree=8, kleshchev_tables=1, crystal_words=4,
    wb_count_n=5, three_way_full_n=4, three_way_sample_n=5,
    three_way_sample=200, roundtrip_full_n=4, roundtrip_sample_ns=(6,),
    roundtrip_sample=5, blob_max_n=4,
    cli_commands=("wb count", "ideal check 3", "usage nonsense"),
)

SCALES = {"full": FULL, "small": SMALL}

WORKLOADS = ("hecke-products", "fock-canonical", "combinatorics", "cli-session")


def _sorted(xs: list, key=lambda x: x) -> list:
    """Native order where the elements allow it, else by canonical JSON."""
    try:
        return sorted(xs, key=key)
    except TypeError:
        return sorted(xs, key=lambda x: json.dumps(canon(key(x))))


def random_window(rng, n: int) -> tuple:
    """A uniformly random signed permutation of 1..n."""
    return tuple(x * rng.choice((1, -1)) for x in rng.sample(range(1, n + 1), n))


def canon(obj):
    """A JSON-able form that depends only on the mathematical content."""
    if isinstance(obj, dict):
        items = _sorted(list(obj.items()), key=lambda kv: kv[0])
        return ["M", [[canon(k), canon(v)] for k, v in items]]
    if isinstance(obj, (set, frozenset)):
        return ["S", [canon(x) for x in _sorted(list(obj))]]
    if isinstance(obj, (list, tuple)):
        if all(x is None or isinstance(x, (int, str)) for x in obj):
            return obj
        return [canon(x) for x in obj]
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if hasattr(obj, "dominoes"):  # domino.DominoTableau
        return ["D", canon(obj.dominoes)]
    if hasattr(obj, "items"):  # laurent.LaurentPoly: exponent -> coefficient
        return ["L", sorted(obj.items())]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(canon(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as f:
        return json.load(f)
