"""Iwahori-Hecke algebra of a symmetric group on an alphabet window.

Basis {T_w} indexed by permutations of the window [lo, hi], with the
quadratic relation (T_i - q)(T_i + q^{-1}) = 0, so T_i^{-1} = T_i - (q-q^{-1})
and T_w T_i = T_{w s_i} when the length goes up, T_{w s_i} + (q-q^{-1}) T_w
when it goes down.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .coefficients import A, Coeff, ONE, Q, ZERO
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
            v = out.get(w, ZERO) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
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

        def add(w, c):
            v = out.get(w, ZERO) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)

        si = s(i)
        for w, c in self.terms.items():
            ws = w * si
            if ws.length() > w.length():
                add(ws, c)
                if inverse:
                    add(w, -A * c)
            else:
                add(ws, c)
                if not inverse:
                    add(w, A * c)
        r = HeckeElt(self.window)
        r.terms = out
        return r

    def mul_word(self, word: Sequence[int], inverse: bool = False) -> "HeckeElt":
        out = self
        if inverse:
            for i in reversed(word):
                out = out.mul_gen(i, inverse=True)
        else:
            for i in word:
                out = out.mul_gen(i)
        return out

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        result = HeckeElt(self.window)
        for v, c in other.terms.items():
            piece = self.scale(c).mul_word(v.word())
            result = result + piece
        return result

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


def hecke_one(window: Window) -> HeckeElt:
    return HeckeElt(window, {IDENTITY: ONE})


def hecke_T(w: Perm, window: Window) -> HeckeElt:
    return HeckeElt(window, {w: ONE})


def hecke_mul(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    return a * b


def trace(a: HeckeElt) -> Coeff:
    return a.trace()


def star(a: HeckeElt) -> HeckeElt:
    return a.star()


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
    """x_st = star(T_{d(s)}) x_lam T_{d(t)}."""
    lam_s = tuple(len(r) for r in sx)
    lam_t = tuple(len(r) for r in tx)
    if lam_s != lam_t:
        raise HeckeError("tableaux must share a shape")
    x = x_lambda(lam_s, window)
    ds, dt = coset_word(sx), coset_word(tx)
    out = hecke_T(ds.inv(), window) * x
    return out.mul_word(dt.word())
