"""The q-Brauer algebra: normal-form basis and rewriting multiplication.

Basis monomials are words sigma(T_{d1}) E^f T_w T_{d2} with d1, d2 in the
distinguished coset set D_{f,n} and w a permutation of the window
{2f+1, ..., n}.  Right multiplication by a generator is computed by two
mutually recursive rewriting primitives:

  * reduce(f, u): normal form of E^f T_u for an arbitrary permutation u,
    as a combination of E^f T_w T_d terms (the deficiency never changes);
  * sand(f, v):  normal form of E^f T_v E_1, a combination of layer-f
    (contraction) and layer-(f+1) (merge) terms.

The product of a basis word E^f T_w T_d by E_1 is sand(f, w d) itself,
before the left coset factor sigma(T_{d1}) is applied.  reduce first
factors u through the stabilizer coset of the f pair blocks; sand first
tries its contact cases, then the right descents of v (T_1 is absorbed as
q, T_k with k >= 3 commutes past E_1).  Both then apply the first of four
left-descent rules, for a left descent m of u (Engine._left_rule, shared
by the two):

  (a) m odd, m <= 2f-1: T_m is absorbed, E^f T_u = q E^f T_{s_m u};
  (b) m >= 2f+1: T_m commutes with E^f and moves to the window factor;
  (c) m even, m <= 2f-2, and u starts T_m T_{m+1}: the pair-block relation
      gives the length-preserving rewrite E^f T_m T_{m+1} X = E^f T_m T_{m-1} X;
  (d) m even, m <= 2f-2, otherwise: graft a pair block,
      E^f T_m X = E^f T_m T_{m+1} T_{m-1}^{-1} X.

Left multiplication is reduced to right multiplication through the
anti-involution sigma, which acts on basis words by an exact flip
(f, d1, w, d2) -> (f, d2, w^{-1}, d1).  Products in the Hecke algebra of
S_n (the quadratic rule) are expanded by hecke.mul_gen, also on
the left, through the anti-automorphism star; the merge anchor of sand is
one such product, of inverse letters (Engine._merge_anchor).

An element (AlgebraElt) is its own term dict {NormalWord: Coeff}, with no
zero coefficient, and carries only its rank n.  The engine memoizes reduce,
sand and the right action of each generator on each normal word.  Memo
values are shared between callers and are never mutated: every operation on
an element builds a new one.  Products of whole elements replay the
generator letters of the right factor's normal words (mul); a cell module
applies those same letters as its cached generator matrices instead
(cells.CellModule.act_elt).  Every sum and multiple of elements accumulates
its terms in one dict (_lin_comb, through coefficients.add_scaled).

MulTable is the regular representation: the action of every generator on
every normal word, as sparse rows of word indices and coefficients, cached
on disk in a checksummed file keyed by the digest of the rule sources.
verify-relations checks the defining relations on it, on vectors indexed by
word, and does not run the engine when the cache is warm.

Defining relations (the braid and quadratic relations of the T_i together
with):
    E_1^2 = delta E_1,   T_1 E_1 = E_1 T_1 = q E_1,   E_1 T_2 E_1 = z E_1,
    T_i E_1 = E_1 T_i (i >= 3),
    E^(k+1) = E_1 T_{2,2k+2} T_{2k+1,1}^{-1} E^k.
The rule set below is validated empirically: closure over the (2n-1)!!
normal words, the relations in the regular representation, and agreement
with an independent free-quotient oracle at small rank.
"""

from __future__ import annotations

import json
import os
import zlib
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .coefficients import (
    A,
    Coeff,
    DELTA,
    ONE,
    Q,
    Z,
    ZINV,
    add_scaled,
    add_term,
    parse_coeff,
)
from .combinatorics import (
    IDENTITY,
    Perm,
    compose,
    config_to_rep,
    coset_reps_D,
    d_config,
    invert,
    left_descents,
    length,
    min_window,
    reduced_word,
    right_descents,
    s,
    seg,
    seg_word,
    supported_in,
    window_perms,
)
from .hecke import mul_gen, star


class AlgebraError(ValueError):
    pass


class StuckWordError(AlgebraError):
    """The rewriting system could not bring a word to normal form."""


class NormalWord(NamedTuple):
    f: int
    d1: Perm
    w: Perm
    d2: Perm


# generator symbols
def T(i: int):
    return ("T", i)


def Tinv(i: int):
    return ("Tinv", i)


E1 = ("E",)


def check_letter(g, n: int):
    """g when it is a generator letter of the rank-n algebra: T_i or Tinv_i
    with 1 <= i <= n - 1, or E_1 with n >= 2; AlgebraError otherwise."""
    if g == E1:
        if n < 2:
            raise AlgebraError("E_1 requires n >= 2")
    elif not 1 <= g[1] <= n - 1:
        raise AlgebraError(f"generator index {g[1]} out of range for n={n}")
    return g


class AlgebraElt(dict):
    """Sparse combination of normal words of the rank-n algebra: its own term
    dict, where the constructor drops the zero coefficients of input terms."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: Dict[NormalWord, Coeff] = None):
        self.n = n
        if terms:
            self.update((w, c) for w, c in terms.items() if c)

    def _check(self, other):
        if self.n != other.n:
            raise AlgebraError(f"rank mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "AlgebraElt") -> "AlgebraElt":
        self._check(other)
        return _lin_comb(self.n, ((ONE, self), (ONE, other)))

    def __neg__(self):
        return AlgebraElt(self.n, {w: -c for w, c in self.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Coeff) -> "AlgebraElt":
        return _lin_comb(self.n, ((c, self),))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElt)
            and self.n == other.n
            and dict.__eq__(self, other)
        )

    def __ne__(self, other):  # dict.__ne__ would ignore the rank
        return not self == other

    def display_terms(self) -> List[Tuple]:
        """(f, d1, w, d2, coefficient) for each term, each permutation as its
        reduced word, sorted by (f, d1, w, d2): the order of reports."""
        return sorted(
            ((x.f, *map(reduced_word, x[1:]), c) for x, c in self.items()),
            key=lambda term: term[:4],
        )


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

_STEP_BOUND = 10**6


def _at(f: int, u: Perm) -> str:
    """The word E^f T_u as error messages spell it."""
    return f"E^{f} T_{list(reduced_word(u))}"


class Engine:
    """Rewriting engine for a fixed rank n; memoizes reduce, sand and the
    action of a generator on a normal word.  Memo values are shared, so
    they must never be mutated."""

    def __init__(self, n: int):
        if n < 1:
            raise AlgebraError("rank must be >= 1")
        self.n = n
        self._reduce_memo: Dict[Tuple[int, Perm], Dict] = {}
        self._sand_memo: Dict[Tuple[int, Perm], Dict] = {}
        self._rmul_memo: Dict[Tuple[NormalWord, Tuple], AlgebraElt] = {}
        self._steps = 0
        self._inflight = set()

    # -- helpers -----------------------------------------------------------------

    def _tick(self, f, u):
        self._steps += 1
        if self._steps > _STEP_BOUND:
            raise StuckWordError(f"step bound exceeded while normalizing {_at(f, u)}")

    # -- reduce: E^f T_u --------------------------------------------------------

    def reduce(self, f: int, u: Perm) -> Dict[Tuple[Perm, Perm], Coeff]:
        """Normal form of E^f T_u as {(w, d): coeff} with w in the window
        S_{2f+1,n} and d in D_{f,n}."""
        return self._memoised(self._reduce_memo, self._reduce_impl, f, u, "")

    def _memoised(self, memo: dict, impl, f: int, u: Perm, tail: str):
        """memo[(f, u)], computed by impl(f, u) on a miss.  A word met again
        while its own rewriting is in flight is a cycle; tail names the
        product (" E1" for sand) in that error."""
        key = (f, u)
        hit = memo.get(key)
        if hit is not None:
            return hit
        flight = (tail, f, u)
        if flight in self._inflight:
            raise StuckWordError(f"rewriting cycle at {_at(f, u)}{tail}")
        self._inflight.add(flight)
        try:
            out = impl(f, u)
        finally:
            self._inflight.discard(flight)
        memo[key] = out
        return out

    def _reduce_impl(self, f, u):
        self._tick(f, u)
        if f == 0:
            return {(u, IDENTITY): ONE}
        # factor through the stabilizer coset: u = omega . d, done when omega
        # is a pure window element and the factorization is reduced
        d = config_to_rep(f, self.n)[d_config(f, u)]
        omega = compose(u, invert(d))
        lo, hi = min_window(omega)
        if (lo > 2 * f or lo > hi) and length(u) == length(omega) + length(d):
            return {(omega, d): ONE}
        rule = self._left_rule(f, u)
        if rule is None:
            raise StuckWordError(f"no rule applies to {_at(f, u)}")
        kind, arg = rule
        out: Dict[Tuple[Perm, Perm], Coeff] = {}
        if kind == "window":
            for (omega, dd), c in self.reduce(f, compose(s(arg), u)).items():
                for sw, c2 in self._hecke_word_times([(arg, False)], omega).items():
                    add_term(out, (sw, dd), c * c2)
            return out
        for u2, c in arg.items():
            add_scaled(out, self.reduce(f, u2), c)
        return out

    def _left_rule(self, f, u):
        """The first of the left-descent rules (a)-(d) of the module
        docstring that applies to E^f T_u: ("window", m) for rule (b), where
        T_m commutes out of E^f T_{s_m u} to the window factor, ("expand",
        {u2: c}) for the others, where E^f T_u = sum c E^f T_{u2}, and None
        when no rule applies.  The tail E_1 of sand does not change them."""
        lds = left_descents(u)
        for m in lds:  # (a)
            if m <= 2 * f - 1 and m % 2 == 1:
                return "expand", {compose(s(m), u): Q}
        for m in lds:  # (b)
            if m >= 2 * f + 1:
                return "window", m
        for m in lds:  # (c)
            if m <= 2 * f - 2 and m % 2 == 0:
                v1 = compose(s(m), u)
                if m + 1 in left_descents(v1):
                    return "expand", self._hecke_word_times(
                        [(m, False), (m - 1, False)], compose(s(m + 1), v1)
                    )
        for m in lds:  # (d)
            if m <= 2 * f - 2 and m % 2 == 0:
                return "expand", self._hecke_word_times(
                    [(m, False), (m + 1, False), (m - 1, True)], compose(s(m), u)
                )
        return None

    def _hecke_word_times(self, letters, rest: Perm) -> Dict[Perm, Coeff]:
        """Expand T_{l1} ... T_{lk} . T_rest in the Hecke algebra of S_n as a
        combination of T_u, for letters = [(l, inverse?)], as the image under
        the anti-automorphism star of T_{rest^-1} . T_{lk} ... T_{l1}."""
        h = {invert(rest): ONE}
        for i, inverse in reversed(letters):
            h = mul_gen(h, i, (1, self.n), inverse)
        return star(h)

    # -- sand: E^f T_v E_1 ---------------------------------------------------------

    def sand(self, f: int, v: Perm) -> AlgebraElt:
        """Normal form of E^f T_v E_1 (terms have d1 = identity)."""
        return self._memoised(self._sand_memo, self._sand_impl, f, v, " E1")

    def _sand_impl(self, f, v) -> AlgebraElt:
        self._tick(f, v)
        n = self.n
        # contact cases first: they are specific short words that the
        # descent rules below would otherwise unfold indefinitely
        if f >= 1:
            if v == IDENTITY:
                # E^f E_1 = delta E^f
                return AlgebraElt(
                    n, {NormalWord(f, IDENTITY, IDENTITY, IDENTITY): DELTA}
                )
            if 2 * f + 2 <= n and v == compose(seg(2 * f + 1, 1), seg(2 * f + 2, 2)):
                return self._merge_anchor(f)
            # E^f T_{v''} T_2 E_1 = z E^f T_{v''} when v'' moves only {3..n}
            # (commute v'' past the outer E_1 factors and contract T_2);
            # v'' = 1 is the contraction E^f T_2 E_1 = z E^f
            vp = compose(v, s(2))
            if length(vp) < length(v) and supported_in(vp, 3, n):
                return AlgebraElt(n, {
                    NormalWord(f, IDENTITY, omega, dd): Z * c
                    for (omega, dd), c in self.reduce(f, vp).items()
                })
        # right descents: k = 1 absorbs into E_1, k >= 3 commutes past E_1;
        # then the left-descent rules
        for k in right_descents(v):
            if k == 1:
                return self.sand(f, compose(v, s(1))).scale(Q)
            if k >= 3:
                inner = self.sand(f, compose(v, s(k)))
                return self.right_mul_gen(inner, T(k))
        rule = self._left_rule(f, v)
        if rule is not None:
            kind, arg = rule
            if kind == "window":
                return self.left_mul_gen(T(arg), self.sand(f, compose(s(arg), v)))
            return _lin_comb(n, ((c, self.sand(f, u2)) for u2, c in arg.items()))
        if f == 0:
            # T_v E_1 = sigma(E_1 T_{v^{-1}}); needs v^{-1} in D_{1,n}
            vi = invert(v)
            if vi in set(coset_reps_D(1, n)):
                return AlgebraElt(
                    n, {NormalWord(1, vi, IDENTITY, IDENTITY): ONE}
                )
        raise StuckWordError(f"no rule applies to {_at(f, v)} E1")

    def _merge_anchor(self, f) -> AlgebraElt:
        """E^f T_{v0} E_1 for v0 = s_{2f+1,1} s_{2f+2,2}, via the recursion
        E^(f+1) = E^f T_{1,2f+1}^{-1} T_{2f+2,2} E_1:

        the Hecke product T_{1,2f+1}^{-1} T_{2f+2,2} is T_{v0}, with
        coefficient 1, plus strictly shorter terms, so the v0 sandwich is
        E^(f+1) minus the sandwiches of those shorter terms."""
        v0 = compose(seg(2 * f + 1, 1), seg(2 * f + 2, 2))
        # T_{1,2f+1}^{-1} = T_{2f}^{-1} ... T_1^{-1}
        letters = [(i, True) for i in range(2 * f, 0, -1)]
        pieces = [(ONE, e_power(f + 1, self.n))]
        for u, c in self._hecke_word_times(letters, seg(2 * f + 2, 2)).items():
            if u != v0:
                self._tick(f, u)
                pieces.append((-c, self.sand(f, u)))
        return _lin_comb(self.n, pieces)

    # -- right multiplication by a generator ------------------------------------------

    def right_mul_gen(self, x: AlgebraElt, g) -> AlgebraElt:
        return _lin_comb(
            self.n, ((c, self._rmul_word(word, g)) for word, c in x.items())
        )

    def _rmul_word(self, x: NormalWord, g) -> AlgebraElt:
        """x . g for a basis word x; the shared memo entry, never mutated."""
        key = (x, g)
        hit = self._rmul_memo.get(key)
        if hit is None:
            hit = self._rmul_memo[key] = self._rmul_word_impl(x, g)
        return hit

    def _rmul_word_impl(self, x: NormalWord, g) -> AlgebraElt:
        n = self.n
        check_letter(g, n)
        f, d1, w, d2 = x
        if g[0] == "Tinv":  # T_i^{-1} = T_i - (q - q^{-1})
            return _lin_comb(n, ((ONE, self._rmul_word(x, T(g[1]))), (-A, {x: ONE})))
        u = compose(w, d2)
        assert length(u) == length(w) + length(d2), (x,)
        if g[0] == "T":
            out = AlgebraElt(n)
            for u2, c in mul_gen({u: ONE}, g[1], (1, n)).items():
                for (omega, dd), c2 in self.reduce(f, u2).items():
                    add_term(out, NormalWord(f, d1, omega, dd), c * c2)
            return out
        # g == E1
        res = self.sand(f, u)
        if d1 != IDENTITY:
            res = self.left_mul_sigma_T(res, d1)
        return res

    # -- left multiplication via the anti-involution -----------------------------------

    def sigma(self, x: AlgebraElt) -> AlgebraElt:
        r = AlgebraElt(self.n)
        r.update((NormalWord(y.f, y.d2, invert(y.w), y.d1), c) for y, c in x.items())
        return r

    def left_mul_gen(self, g, x: AlgebraElt) -> AlgebraElt:
        """g . x with g a self-adjoint generator symbol (T_i, Tinv_i, E_1)."""
        return self.sigma(self.right_mul_gen(self.sigma(x), g))

    def left_mul_sigma_T(self, x: AlgebraElt, d: Perm) -> AlgebraElt:
        """sigma(T_d) . x computed as sigma(sigma(x) . T_d)."""
        letters = [T(i) for i in reduced_word(d)]
        return self.sigma(self.apply_letters(self.sigma(x), letters))

    # -- words and products ----------------------------------------------------------

    def word_letters(self, x: NormalWord) -> List[Tuple]:
        """Generator letters whose product is the basis word x."""
        letters: List[Tuple] = [T(i) for i in reversed(reduced_word(x.d1))]
        letters += e_power_letters(x.f)
        letters += [T(i) for i in reduced_word(x.w)]
        letters += [T(i) for i in reduced_word(x.d2)]
        return letters

    def apply_letters(self, x: AlgebraElt, letters: Iterable[Tuple]) -> AlgebraElt:
        for g in letters:
            x = self.right_mul_gen(x, g)
        return x

    def mul(self, a: AlgebraElt, b: AlgebraElt) -> AlgebraElt:
        a._check(b)
        return _lin_comb(self.n, (
            (c, self.apply_letters(a, self.word_letters(word)))
            for word, c in b.items()
        ))


def _lin_comb(n: int, pieces: Iterable[Tuple[Coeff, AlgebraElt]]) -> AlgebraElt:
    """The sum of c . x over pieces (c, x), accumulated in one dict."""
    out = AlgebraElt(n)
    for c, x in pieces:
        add_scaled(out, x, c)
    return out


def e_power_letters(f: int) -> List[Tuple]:
    """Generator letters of E^f from E^(k+1) = E_1 T_{2,2k+2} T_{2k+1,1}^{-1} E^k."""
    letters: List[Tuple] = []
    for k in range(f - 1, 0, -1):
        chunk = [E1]
        chunk += [T(i) for i in seg_word(2, 2 * k + 2)]
        # T_{2k+1,1}^{-1}: reversed letters, inverted
        chunk += [Tinv(i) for i in reversed(seg_word(2 * k + 1, 1))]
        letters += chunk
    if f >= 1:
        letters += [E1]
    return letters


_engines: Dict[int, Engine] = {}


def get_engine(n: int) -> Engine:
    if n not in _engines:
        _engines[n] = Engine(n)
    return _engines[n]


# ---------------------------------------------------------------------------
# public constructors and operations
# ---------------------------------------------------------------------------


def one_elt(n: int) -> AlgebraElt:
    return e_power(0, n)


def generator_elt(g, n: int) -> AlgebraElt:
    """T_i, Tinv_i or E_1 as a normal-form element."""
    eng = get_engine(n)
    return eng.right_mul_gen(one_elt(n), g)


def elt_from_letters(letters: Sequence[Tuple], n: int) -> AlgebraElt:
    return get_engine(n).apply_letters(one_elt(n), letters)


def mul(a: AlgebraElt, b: AlgebraElt) -> AlgebraElt:
    return get_engine(a.n).mul(a, b)


def right_mul_gen(x: AlgebraElt, g) -> AlgebraElt:
    return get_engine(x.n).right_mul_gen(x, g)


def sigma(x: AlgebraElt) -> AlgebraElt:
    return get_engine(x.n).sigma(x)


def e_power(k: int, n: int) -> AlgebraElt:
    if not (0 <= 2 * k <= n):
        raise AlgebraError(f"E^{k} requires n >= {2*k}")
    return AlgebraElt(n, {NormalWord(k, IDENTITY, IDENTITY, IDENTITY): ONE})


def e_index_letters(l: int) -> List[Tuple]:
    """Generator letters of E_l = T_{l,1} T_{2,l+1}^{-1} E_1 T_{2,l+1} T_{l,1}^{-1}."""
    letters: List[Tuple] = [T(i) for i in seg_word(l, 1)]
    letters += [Tinv(i) for i in reversed(seg_word(2, l + 1))]
    letters += [E1]
    letters += [T(i) for i in seg_word(2, l + 1)]
    letters += [Tinv(i) for i in reversed(seg_word(l, 1))]
    return letters


def e_index(l: int, n: int) -> AlgebraElt:
    """E_l as a normal-form element."""
    if not (1 <= l <= n - 1):
        raise AlgebraError(f"E_{l} out of range for n={n}")
    return elt_from_letters(e_index_letters(l), n)


def tilde_e1(n: int) -> AlgebraElt:
    """The idempotent q z^{-1} T_1^{-1} T_2 E_1."""
    return elt_from_letters([Tinv(1), T(2), E1], n).scale(Q * ZINV)


def jm_terms(i: int, n: int) -> List[Tuple[Coeff, List[Tuple]]]:
    """L_i = sum_{j<i} (j,i) - q^2 z^{-1} sum_{j<i} E_{j,i} as
    [(coeff, letters)], each letter string a product of generators."""
    if not (1 <= i <= n):
        raise AlgebraError(f"L_{i} out of range for n={n}")
    c = -(Q * Q * ZINV)
    out = []
    for j in range(1, i):
        # (j, i) = T_{j,i-1} T_{i-1} T_{i-1,j}
        tletters = (
            [T(k) for k in seg_word(j, i - 1)]
            + [T(i - 1)]
            + [T(k) for k in seg_word(i - 1, j)]
        )
        # E_{j,i} = T_{1,j}^{-1} T_{i,2} E_1 T_{2,i} T_{j,1}^{-1}
        eletters: List[Tuple] = [Tinv(k) for k in reversed(seg_word(1, j))]
        eletters += [T(k) for k in seg_word(i, 2)]
        eletters += [E1]
        eletters += [T(k) for k in seg_word(2, i)]
        eletters += [Tinv(k) for k in reversed(seg_word(j, 1))]
        out += [(ONE, tletters), (c, eletters)]
    return out


def jm(i: int, n: int) -> AlgebraElt:
    """Jucys-Murphy element L_i, from the letter strings of jm_terms."""
    return _lin_comb(
        n, ((c, elt_from_letters(letters, n)) for c, letters in jm_terms(i, n))
    )


def jm_recursive(i: int, n: int) -> AlgebraElt:
    """L_i via L_k = T_{k-1} L_{k-1} T_{k-1} + T_{k-1} - q^2 z^{-1} E_{k-1,k}."""
    eng = get_engine(n)
    out = AlgebraElt(n)  # L_1 = 0
    for k in range(2, i + 1):
        out = eng.left_mul_gen(T(k - 1), eng.right_mul_gen(out, T(k - 1)))
        out = out + generator_elt(T(k - 1), n)
        eletters: List[Tuple] = [
            Tinv(m) for m in reversed(seg_word(1, k - 1))
        ]
        eletters += [T(m) for m in seg_word(k, 2)]
        eletters += [E1]
        eletters += [T(m) for m in seg_word(2, k)]
        eletters += [Tinv(m) for m in reversed(seg_word(k - 1, 1))]
        out = out - elt_from_letters(eletters, n).scale(Q * Q * ZINV)
    return out


def phi_embed(x: AlgebraElt, n: int) -> AlgebraElt:
    """Embedding of the rank n-2 algebra into tilde_E1 . B_n . tilde_E1:
    1 -> tilde_E1, T_i -> tilde_E1 T_{i+2}, E_1 -> tilde_E1 E_3."""
    if x.n != n - 2:
        raise AlgebraError(f"phi_embed expects rank {n-2}, got {x.n}")
    eng, small = get_engine(n), get_engine(x.n)
    base, e3 = tilde_e1(n), e_index_letters(3)
    return _lin_comb(n, (
        (c, eng.apply_letters(base, [
            h for g in small.word_letters(word)
            for h in (e3 if g == E1 else [(g[0], g[1] + 2)])
        ]))
        for word, c in x.items()
    ))


def all_normal_words(n: int) -> List[NormalWord]:
    out = []
    for f in range(n // 2 + 1):
        D = coset_reps_D(f, n)
        ws = window_perms(2 * f + 1, n)
        for d1 in D:
            for w in ws:
                for d2 in D:
                    out.append(NormalWord(f, d1, w, d2))
    return out


# ---------------------------------------------------------------------------
# multiplication table with disk cache
# ---------------------------------------------------------------------------

_CACHE_VERSION = 2

# the modules whose code decides the entries of a table
_RULE_SOURCES = ("algebra.py", "coefficients.py", "combinatorics.py", "hecke.py")


def cache_dir() -> str:
    return os.environ.get(
        "QBRAUER_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "qbrauer"),
    )


@lru_cache(maxsize=None)
def rules_digest() -> int:
    """CRC-32 of the sources of the rewriting rules: a table file written
    under other rules is stale."""
    here = os.path.dirname(os.path.abspath(__file__))
    crc = 0
    for name in _RULE_SOURCES:
        with open(os.path.join(here, name), "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return crc


class MulTable:
    """Right action of each generator symbol on every normal word of a fixed
    rank: the regular representation on which verify-relations checks the
    defining relations.  Words are numbered in the order of
    all_normal_words(n); rows[g][i] lists the image of word i under g as
    pairs (word index, coefficient) in increasing word index.  Built once
    from the engine's memo, then immutable; right_mul_gen acts on vectors
    {word index: coefficient}.

    On disk (multable-v2-n<n>.json) a table is a header and one row per
    pair (word, generator), in the order of all_normal_words(n) x gens(n);
    a row lists its terms as [word index, coefficient string].  The header
    holds the format version, n, the digest of the rule sources and a
    CRC-32 of the rows text as written.  A stale file (other version, rank
    or rules) or one whose rows text fails its checksum is rebuilt and
    overwritten; a file that cannot be read or has the wrong shape raises
    AlgebraError."""

    def __init__(self, n: int, words: List[NormalWord], rows: Dict):
        self.n = n
        self.words = words
        self.rows = rows

    @staticmethod
    def gens(n: int) -> List[Tuple]:
        out: List[Tuple] = [T(i) for i in range(1, n)]
        out += [Tinv(i) for i in range(1, n)]
        if n >= 2:
            out.append(E1)
        return out

    @classmethod
    def build(cls, n: int) -> "MulTable":
        """The engine's memo entries, renumbered by word index."""
        eng = get_engine(n)
        words = all_normal_words(n)
        index = {w: i for i, w in enumerate(words)}
        rows = {
            g: [
                sorted((index[v], c) for v, c in eng._rmul_word(w, g).items())
                for w in words
            ]
            for g in cls.gens(n)
        }
        return cls(n, words, rows)

    @classmethod
    def load_or_build(cls, n: int, directory: str = None) -> "MulTable":
        directory = directory or cache_dir()
        path = os.path.join(directory, f"multable-v{_CACHE_VERSION}-n{n}.json")
        table = cls._load(n, path) if os.path.exists(path) else None
        if table is None:
            table = cls.build(n)
            table.save(path)
        return table

    @classmethod
    def _load(cls, n: int, path: str):
        """The table stored at path, or None if the file is stale or its
        rows fail their checksum.  The checksum covers the rows text as
        read, everything after ',"rows":' but the closing brace, which is
        exactly what save wrote."""
        try:
            with open(path) as fh:
                text = fh.read()
            data = json.loads(text)
            header = (data["version"], data["n"], data["rules"])
            if header != (_CACHE_VERSION, n, rules_digest()):
                return None
            stored = data["rows"]
            rows_text = text.partition(',"rows":')[2]
            if not rows_text.endswith("}") or data["rows_crc"] != zlib.crc32(
                rows_text[:-1].encode()
            ):
                return None
            words, gens = all_normal_words(n), cls.gens(n)
            if len(stored) != len(words) * len(gens):
                raise ValueError(f"{len(stored)} rows, not {len(words) * len(gens)}")
            rows = {g: [] for g in gens}
            by_position = [rows[g] for g in gens] * len(words)
            parse = lru_cache(maxsize=None)(parse_coeff)  # once per distinct string
            for out, row in zip(by_position, stored):
                terms = {}
                for i, c in row:
                    if type(i) is not int or not 0 <= i < len(words) or i in terms:
                        raise ValueError(f"bad word index {i!r}")
                    terms[i] = parse(c)
                out.append(list(terms.items()))
        except (OSError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise AlgebraError(
                f"unreadable or malformed multiplication-table cache at "
                f"{path}: {exc!r}"
            )
        return cls(n, words, rows)

    def save(self, path: str):
        quoted = lru_cache(maxsize=None)(lambda c: json.dumps(str(c)))
        gens = self.gens(self.n)
        rows_text = "[%s]" % ",".join(
            "[%s]" % ",".join(f"[{i},{quoted(c)}]" for i, c in self.rows[g][k])
            for k in range(len(self.words))
            for g in gens
        )
        text = (
            f'{{"version":{_CACHE_VERSION},"n":{self.n},"rules":{rules_digest()},'
            f'"rows_crc":{zlib.crc32(rows_text.encode())},"rows":{rows_text}}}'
        )
        tmp = path + ".tmp"
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError as exc:
            raise AlgebraError(
                f"cannot write multiplication-table cache at {path}: {exc}"
            )

    def right_mul_gen(self, vec: Dict[int, Coeff], g) -> Dict[int, Coeff]:
        """vec . g for a vector {word index: coefficient}."""
        rows = self.rows[g]
        out: Dict[int, Coeff] = {}
        for i, c in vec.items():
            for j, d in rows[i]:
                add_term(out, j, c * d)
        return out

    def apply_letters(self, vec: Dict[int, Coeff], letters: Iterable[Tuple]) -> dict:
        for g in letters:
            vec = self.right_mul_gen(vec, g)
        return vec
