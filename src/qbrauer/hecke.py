"""Iwahori-Hecke algebra of a symmetric group on an alphabet window.

An element is a term dict {w: c} standing for the sum of c T_w, with w a
permutation of the window [lo, hi]; a zero coefficient is never stored,
as in the term dicts of coefficients.py.  The quadratic relation is
(T_i - q)(T_i + q^{-1}) = 0, so T_i^{-1} = T_i - (q-q^{-1}) and
T_w T_i = T_{w s_i} when the length goes up, T_{w s_i} + (q-q^{-1}) T_w
when it goes down.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .coefficients import A, Coeff, Q, add_term
from .combinatorics import (
    Partition,
    Perm,
    StandardTableau,
    compose,
    coset_word,
    image,
    invert,
    length,
    reduced_word,
    row_stabilizer_perms,
    s,
)


class HeckeError(ValueError):
    pass


Window = Tuple[int, int]


def mul_gen(
    h: Dict[Perm, Coeff], i: int, window: Window, inverse: bool = False
) -> Dict[Perm, Coeff]:
    """h . T_i (or h . T_i^{-1}), for T_i a generator of the window."""
    lo, hi = window
    if not (lo <= i < hi):
        raise HeckeError(f"generator {i} outside window {window}")
    out: Dict[Perm, Coeff] = {}
    si = s(i)
    for w, c in h.items():
        add_term(out, compose(w, si), c)
        wi = invert(w)  # the length goes up when i comes before i + 1 in w
        if image(wi, i) < image(wi, i + 1):
            if inverse:
                add_term(out, w, -A * c)
        elif not inverse:
            add_term(out, w, A * c)
    return out


def mul_word(
    h: Dict[Perm, Coeff], word: Sequence[int], window: Window
) -> Dict[Perm, Coeff]:
    """h . T_{i_1} ... T_{i_k} for word = (i_1, ..., i_k)."""
    for i in word:
        h = mul_gen(h, i, window)
    return h


def star(h: Dict[Perm, Coeff]) -> Dict[Perm, Coeff]:
    """The anti-automorphism T_w -> T_{w^{-1}}."""
    return {invert(w): c for w, c in h.items()}


def x_lambda(lam: Partition, window: Window) -> Dict[Perm, Coeff]:
    """x_lam = sum over the row stabilizer of q^(length) T_w, rows starting
    at the left end of the window."""
    lo, hi = window
    if sum(lam) != hi - lo + 1:
        raise HeckeError(f"partition {lam} does not fill window {window}")
    return {w: Q ** length(w) for w in row_stabilizer_perms(lam, lo)}


def murphy_x(
    sx: StandardTableau, tx: StandardTableau, window: Window
) -> Dict[Perm, Coeff]:
    """x_st = star(T_{d(s)}) x_lam T_{d(t)} = star(x_lam T_{d(s)}) T_{d(t)},
    by right products: x_lam is fixed by star (the row stabilizer is closed
    under inverses, which keep the length).  The dict is new on every call."""
    lam_s = tuple(len(r) for r in sx)
    lam_t = tuple(len(r) for r in tx)
    if lam_s != lam_t:
        raise HeckeError("tableaux must share a shape")
    x = mul_word(x_lambda(lam_s, window), reduced_word(coset_word(sx)), window)
    return mul_word(star(x), reduced_word(coset_word(tx)), window)
