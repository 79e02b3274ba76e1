"""
The tensor representation of the type-B Hecke algebra on V^{⊗n}, dim V = 2.

T_1 … T_{n-1} act by the R-matrix on adjacent slots, and
T_0 = T_1^{-1} ⋯ T_{n-1}^{-1} S_{n-1} ⋯ S_1 ϖ (see `tensor_action`).  Vectors
map words over {1, 2} to scalars.  The ideal checks on this space are in
`hecke`.

Scalars are pluggable: anything with +, -, *, `is_zero()` and a `one`;
`q`, `q_inv`, `big_q`, `big_q_inv` are passed in a small dict.
`generic_tensor_scalars` gives the one-variable ring at q = q_{s_i} and
Q = q_{s_0} of `hecke.type_b_weight`.
"""

from __future__ import annotations

import itertools

from .laurent import LaurentPoly, add_term
from .partitions import check_weight

__all__ = ["generic_tensor_scalars", "tensor_action", "tensor_c_action",
           "permutation_module"]


def _scalars(q: LaurentPoly, big_q: LaurentPoly) -> dict:
    """The scalar dict of the monomials q and Q, their inverses their bars."""
    return {"one": LaurentPoly.one(), "q": q, "q_inv": q.bar(),
            "big_q": big_q, "big_q_inv": big_q.bar()}


def generic_tensor_scalars() -> dict:
    """q = q_{s_i} and Q = q_{s_0} of `hecke.type_b_weight`."""
    from .hecke import type_b_weight

    return _scalars(type_b_weight(1), type_b_weight(0))


def _apply_r(x: dict, slot: int, sc: dict, inverse: bool = False) -> dict:
    """R (or R^{-1}) acting on tensor slots slot, slot+1 (0-based)."""
    out: dict = {}
    qq, qi = sc["q"], sc["q_inv"]
    diff = qq - qi
    for w, c in x.items():
        a, b = w[slot], w[slot + 1]
        if a == b:
            add_term(out, w, c * (qi if inverse else qq))
        elif (a, b) == (2, 1):
            add_term(out, w[:slot] + (1, 2) + w[slot + 2:], c)
            if inverse:
                # R^{-1} = R - (q - q^{-1}): R(v2⊗v1) = v1⊗v2
                add_term(out, w, -c * diff)
        else:  # (1, 2)
            swapped = w[:slot] + (2, 1) + w[slot + 2:]
            add_term(out, swapped, c)
            if not inverse:
                add_term(out, w, c * diff)
    return out


def _apply_s(x: dict, k: int, sc: dict) -> dict:
    """S_k: multiply by q when letters k-1, k (1-based) agree, else swap."""
    out: dict = {}
    for w, c in x.items():
        if w[k - 1] == w[k]:
            add_term(out, w, c * sc["q"])
        else:
            add_term(out, w[:k - 1] + (w[k], w[k - 1]) + w[k + 1:], c)
    return out


def _apply_varpi(x: dict, sc: dict) -> dict:
    out: dict = {}
    for w, c in x.items():
        add_term(out, w, c * (sc["big_q"] if w[0] == 1 else -sc["big_q_inv"]))
    return out


def tensor_action(n: int, gen: int, x: dict, sc: dict) -> dict:
    """Apply T_gen to the tensor vector x (words over {1,2} of length n)."""
    if gen != 0:
        return _apply_r(x, gen - 1, sc)
    # T_0 = T_1^{-1} ... T_{n-1}^{-1} S_{n-1} ... S_1 ϖ, rightmost first.
    x = _apply_varpi(x, sc)
    for k in range(1, n):
        x = _apply_s(x, k, sc)
    for k in range(n - 1, 0, -1):
        x = _apply_r(x, k - 1, sc, inverse=True)
    return x


def tensor_c_action(n: int, gen: int, x: dict, sc: dict) -> dict:
    """Apply C_gen = T_gen - q_gen."""
    out = tensor_action(n, gen, x, sc)
    p = sc["big_q"] if gen == 0 else sc["q"]
    for w, c in x.items():
        add_term(out, w, -c * p)
    return out


def permutation_module(n: int, lam: int) -> list[tuple[int, ...]]:
    """Basis words of M_n(λ): #1s - #2s = λ."""
    check_weight(n, lam)
    ones = (n + lam) // 2
    return sorted(w for w in itertools.product((1, 2), repeat=n)
                  if w.count(1) == ones)
