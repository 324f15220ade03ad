"""Iwahori-Hecke algebra of a symmetric group on an alphabet window.

Basis {T_w} indexed by permutations of the window [lo, hi], with the
quadratic relation (T_i - q)(T_i + q^{-1}) = 0, so T_i^{-1} = T_i - (q-q^{-1})
and T_w T_i = T_{w s_i} when the length goes up, T_{w s_i} + (q-q^{-1}) T_w
when it goes down.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .coefficients import A, Coeff, Q, ZERO, add_term
from .combinatorics import (
    IDENTITY,
    Partition,
    Perm,
    StandardTableau,
    coset_word,
    row_stabilizer_perms,
    s,
)


class HeckeError(ValueError):
    pass


Window = Tuple[int, int]


class HeckeElt:
    """Sparse linear combination of T_w over a fixed alphabet window."""

    __slots__ = ("window", "terms")

    def __init__(self, window: Window, terms: Dict[Perm, Coeff] = None):
        self.window = window
        self.terms = {}
        if terms:
            lo, hi = window
            for w, c in terms.items():
                if not c:
                    continue
                if not w.supported_in(lo, hi):
                    raise HeckeError(f"{w} not supported in window {window}")
                self.terms[w] = c

    # -- linear structure ------------------------------------------------------

    def _check(self, other: "HeckeElt"):
        if self.window != other.window:
            raise HeckeError(
                f"window mismatch: {self.window} vs {other.window}"
            )

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        r = HeckeElt(self.window)
        r.terms = out
        return r

    def __neg__(self) -> "HeckeElt":
        r = HeckeElt(self.window)
        r.terms = {w: -c for w, c in self.terms.items()}
        return r

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + (-other)

    def scale(self, c: Coeff) -> "HeckeElt":
        r = HeckeElt(self.window)
        if c:
            r.terms = {w: c * v for w, v in self.terms.items()}
        return r

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElt)
            and self.window == other.window
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (w.length(), w.word())):
            parts.append(f"({self.terms[w]})*T{list(w.word())}")
        return " + ".join(parts)

    # -- multiplication ----------------------------------------------------------

    def mul_gen(self, i: int, inverse: bool = False) -> "HeckeElt":
        """Right-multiply by T_i (or T_i^{-1})."""
        lo, hi = self.window
        if not (lo <= i < hi):
            raise HeckeError(f"generator {i} outside window {self.window}")
        out: Dict[Perm, Coeff] = {}
        si = s(i)
        for w, c in self.terms.items():
            ws = w * si
            add_term(out, ws, c)
            if ws.length() > w.length():
                if inverse:
                    add_term(out, w, -A * c)
            elif not inverse:
                add_term(out, w, A * c)
        r = HeckeElt(self.window)
        r.terms = out
        return r

    def mul_word(self, word: Sequence[int]) -> "HeckeElt":
        out = self
        for i in word:
            out = out.mul_gen(i)
        return out

    # -- structural maps -----------------------------------------------------------

    def star(self) -> "HeckeElt":
        """The anti-automorphism T_w -> T_{w^{-1}}."""
        r = HeckeElt(self.window)
        r.terms = {w.inv(): c for w, c in self.terms.items()}
        return r

    def trace(self) -> Coeff:
        return self.terms.get(IDENTITY, ZERO)

    def coeff(self, w: Perm) -> Coeff:
        return self.terms.get(w, ZERO)


def x_lambda(lam: Partition, window: Window) -> HeckeElt:
    """x_lam = sum over the row stabilizer of q^(length) T_w, rows starting
    at the left end of the window."""
    lo, hi = window
    if sum(lam) != hi - lo + 1:
        raise HeckeError(f"partition {lam} does not fill window {window}")
    terms = {}
    for w in row_stabilizer_perms(lam, lo):
        terms[w] = Q ** w.length()
    return HeckeElt(window, terms)


def murphy_x(
    sx: StandardTableau, tx: StandardTableau, window: Window
) -> HeckeElt:
    """x_st = star(T_{d(s)}) x_lam T_{d(t)} = star(x_lam T_{d(s)}) T_{d(t)},
    by right products: x_lam is fixed by star (the row stabilizer is closed
    under inverses, which keep the length)."""
    lam_s = tuple(len(r) for r in sx)
    lam_t = tuple(len(r) for r in tx)
    if lam_s != lam_t:
        raise HeckeError("tableaux must share a shape")
    x = x_lambda(lam_s, window)
    return x.mul_word(coset_word(sx).word()).star().mul_word(coset_word(tx).word())
