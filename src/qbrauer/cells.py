"""Cell modules of the rank-n algebra.

A cell label is a pair (f, lam) with 0 <= f <= n//2 and lam a partition of
n - 2f.  The module C(f, lam) has the coset basis indexed by pairs (t, v)
with t a standard tableau of shape lam on the letters 2f+1..n and v a
distinguished representative in D_{f,n}; the basis vector is the class of
E^f x_lam T_{d(t)} T_v.  The Jucys-Murphy basis {m_t} is indexed by up-down
tableaux and is built by the add/remove recursion on the path.  That
recursion left-multiplies; the lifts are built on sigma(m_t) instead, by
right products with the reversed letters (sigma is an anti-automorphism
fixing every generator), and one sigma at the end gives m_t.  y_element is
built the same way: this module multiplies no two algebra elements.  The
basis comes in the order of combinatorics.ud_key, which refines the order
ud_dominates in which the Jucys-Murphy elements are triangular: L_k m_t =
c_t(k) m_t plus terms m_s with s strictly above t.  check_triangular
certifies the diagonal and checks each nonzero off-diagonal entry against
ud_dominates itself, so an entry at a pair the order leaves incomparable
fails even above the diagonal.  The segment words of the recursion and of
y_element come from algebra's builders seg_letters and seg_inv_letters.  A
layer of the restriction filtration is the run of the basis through one
level n-1 shape, and its spectrum is that certified diagonal of L_1 ...
L_{n-1} (filtration_check).

Reduction algorithm (vector): after multiplying a lifted basis element by a
generator, drop all words of deficiency > f, group the remaining words by
their right coset part d, expand each group in the Murphy basis of the
Hecke algebra on the window letters, discard the components of a shape
mu != lam that dominates lam (bigger cells), refuse any other mu != lam,
and keep the coefficient of x_{t^lam, t} T_d as the coordinate at (t, d).
A component of shape lam whose left tableau is not t^lam means the
element left the row x_{t^lam, .}, and is refused.  The Murphy basis of a
window is its cached pivot table (_murphy_pivots), and murphy_expand reads
an expansion off it by one triangular solve.

Element actions: a cell module is a right module, so the coordinates of
x . y are the coordinates of x times the matrix of y, and the matrix of a
product of generators is the product of the generator matrices act(g).
Only those matrices and the lifted Jucys-Murphy basis are reduced with
vector; act_elt, jm_matrix, the filtration invariance check and the radical
traces multiply cached generator matrices.  Cached matrices (like the
engine's memo values) are shared and never mutated.

Gram matrices come from the generator matrices too.  The form is invariant,
<x . a, y> = <x, y . sigma(a)>, and sigma fixes every generator, so with
basis vector j equal to e_ref . T_{a_1} ... T_{a_m} and sigma(e_ref) =
e_ref, column j of the Gram matrix is act(a_m) ... act(a_1) applied to the
column of e_ref.  gram states the pairing rule: the form is the coordinate
at a reference vector, and _pairing names that vector and the support that
e_ref's action may reach.

The f = 1 layer with its form phi (VLayer) is built by the same code: a
subclass with its own basis, reduction without a Murphy quotient, e_ref =
E_1 and pairing support.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from .coefficients import (
    A,
    Coeff,
    DELTA,
    IntegerExponent,
    NumericPoint,
    ONE,
    Specialization,
    ZERO,
    Q,
    Z,
    ZINV,
    add_scaled,
    specialize,
)
from .combinatorics import (
    IDENTITY,
    Partition,
    Perm,
    UpDownTableau,
    branching_list,
    check_label,
    config_to_rep,
    content,
    coset_reps_D,
    coset_word,
    dominates,
    label_key,
    length,
    partitions,
    reduced_word,
    shape_diff,
    std_tableaux,
    superstandard,
    ud_dominates,
    ud_step,
    updown_tableaux,
    window_perms,
)
from .hecke import murphy_x, x_lambda
from .algebra import (
    AlgebraElt,
    E1,
    NormalWord,
    T,
    _lin_comb,
    e_index_letters,
    elt_from_letters,
    get_engine,
    jm_terms,
    one_elt,
    right_mul_gen,
    seg_inv_letters,
    seg_letters,
    tilde_e1,
)
from .linalg import kernel_basis, mat_inverse, mat_mul, mat_rank


class CellError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Murphy expansion in a Hecke window
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _murphy_pivots(window: Tuple[int, int]) -> Dict[Perm, tuple]:
    """Forward elimination of the Murphy basis of a Hecke window, as the
    table {pivot: (normalized column, combination of keys (shape, s, t))}
    in insertion order.

    Columns are the Murphy elements x_{st} over all shapes.  Each is reduced
    against the pivots stored before it and stored with a new pivot, so a
    stored column is zero at every earlier pivot (there is no Jordan step:
    it may be nonzero at later ones).  Pivots are chosen among longest
    remaining words, which keeps the elimination close to the length
    grading; ties are broken by the image tuples, as any total order gives
    the same unique expansion.  A reduced column vanishes at every stored
    pivot, so each pivot is new."""
    lo, hi = window
    pivots: Dict[Perm, tuple] = {}
    for lam in partitions(hi - lo + 1):
        tabs = std_tableaux(lam, lo)
        for sx in tabs:
            for tx in tabs:
                col = murphy_x(sx, tx, window)  # a new dict, reduced in place
                combo: Dict[tuple, Coeff] = {(lam, sx, tx): ONE}
                for p, (pcol, pcombo) in pivots.items():
                    c = col.get(p)
                    if c:
                        add_scaled(col, pcol, -c)
                        add_scaled(combo, pcombo, -c)
                if not col:
                    raise CellError("dependent Murphy element")
                pivot = max(col, key=lambda w: (length(w), w))
                inv = ONE / col[pivot]
                col = {w: c * inv for w, c in col.items()}
                pivots[pivot] = (col, {k: c * inv for k, c in combo.items()})
    if len(pivots) != math.factorial(max(hi - lo + 1, 0)):
        raise CellError("Murphy elements do not form a basis of the window")
    return pivots


def murphy_expand(
    window: Tuple[int, int], h: Dict[Perm, Coeff]
) -> Dict[tuple, Coeff]:
    """Coefficients {(shape, s, t): coeff} of h, a Hecke element of the
    window, in its Murphy basis.

    One pass over the pivot table in insertion order is a triangular solve:
    subtracting a stored column leaves h unchanged at every earlier pivot."""
    work = dict(h)
    out: Dict[tuple, Coeff] = {}
    for p, (pcol, pcombo) in _murphy_pivots(window).items():
        c = work.get(p)
        if c:
            add_scaled(work, pcol, -c)
            add_scaled(out, pcombo, c)
    if work:
        raise CellError("element is not in the span of the Murphy basis")
    return out


# ---------------------------------------------------------------------------
# cell modules
# ---------------------------------------------------------------------------


def _lift_x_lambda(n: int, f: int, lam: Partition, window) -> AlgebraElt:
    """E^f x_lam in the rank-n algebra, x_lam taken on the letters of window."""
    return AlgebraElt(
        n,
        {
            NormalWord(f, IDENTITY, w, IDENTITY): c
            for w, c in x_lambda(lam, window).items()
        },
    )


def _removal_letters(i: int, f: int, b_k: int) -> list:
    """Letters of E_{2f-1} T_{i,2f}^{-1} T_{b_k,2f-1}^{-1}, the factor of a
    box removal that raises the deficiency to f."""
    return (e_index_letters(2 * f - 1) + seg_inv_letters(i, 2 * f)
            + seg_inv_letters(b_k, 2 * f - 1))


def ct_eigenvalue(t: UpDownTableau, k: int) -> Coeff:
    """Eigenvalue of the k-th Jucys-Murphy element on the basis vector of t."""
    kind, p = ud_step(t, k)
    c = content(p)
    if kind == "add":
        return (Q ** (2 * c) - ONE) / A
    return (ZINV**2 * Q ** (2 - 2 * c) - ONE) / A


class CellModule:
    """The cell module C(f, lam) of the rank-n algebra, with its coset basis,
    Jucys-Murphy basis, generator actions and Gram matrix."""

    def __init__(self, n: int, f: int, lam: Partition):
        lam = check_label(n, f, lam)
        self.lam = lam
        self.tlam = superstandard(lam, 2 * f + 1)
        tabs = std_tableaux(lam, 2 * f + 1)
        self._set_basis(n, f, {t: coset_word(t) for t in tabs})
        # in ud_key order, so Jucys-Murphy actions are upper triangular
        self.ud: List[UpDownTableau] = updown_tableaux(n, lam)
        if len(self.ud) != self.dim:
            raise CellError("up-down tableau count does not match dimension")
        self._transition: Optional[list] = None
        self._transition_inv: Optional[list] = None

    def _set_basis(self, n: int, f: int, lefts: Dict[object, Perm]):
        """The basis (a, v) for a in lefts and v in D_{f,n}, whose vector is
        e_ref T_{lefts[a]} T_v."""
        self.n = n
        self.f = f
        self.window = (2 * f + 1, n)
        self._lefts = lefts
        self.reps: List[Perm] = list(coset_reps_D(f, n))
        self.index = [(a, v) for a in lefts for v in self.reps]
        self.pos = {key: i for i, key in enumerate(self.index)}
        self.dim = len(self.index)
        self._elements: Optional[List[AlgebraElt]] = None
        self._act_cache: Dict[tuple, list] = {}
        self._gram: Optional[list] = None

    # -- lifted basis elements --------------------------------------------

    def _base(self) -> AlgebraElt:
        """The reference element e_ref = E^f x_lam; sigma fixes it."""
        return _lift_x_lambda(self.n, self.f, self.lam, self.window)

    def _words(self) -> List[Tuple[int, ...]]:
        """Letters (a_1, ..., a_m) with basis vector (a, v) equal to
        e_ref T_{a_1} ... T_{a_m}: the word of lefts[a], then that of v."""
        return [
            reduced_word(self._lefts[a]) + reduced_word(v) for a, v in self.index
        ]

    def elements(self) -> List[AlgebraElt]:
        """Lifts e_ref T_{a_1} ... T_{a_m} of the basis vectors."""
        if self._elements is None:
            eng = get_engine(self.n)
            base = self._base()
            self._elements = [
                eng.apply_letters(base, [T(i) for i in word])
                for word in self._words()
            ]
        return self._elements

    # -- reduction to coordinates ------------------------------------------

    def _layer_terms(self, x: AlgebraElt):
        """The terms (word, c) of x of deficiency f; words of bigger
        deficiency are dropped.  A word of smaller deficiency, or one with a
        nontrivial left coset part, is a reduction failure (right
        multiplication never produces one)."""
        for wd, c in x.items():
            if wd.f > self.f:
                continue
            if wd.f < self.f:
                raise CellError(
                    f"term of deficiency {wd.f} below the cell layer {self.f}"
                )
            if wd.d1 != IDENTITY:
                raise CellError("unexpected left coset part during reduction")
            yield wd, c

    def vector(self, x: AlgebraElt) -> List[Coeff]:
        """Coordinates of x modulo the span of bigger cells."""
        coords = [ZERO] * self.dim
        by_d: Dict[Perm, Dict[Perm, Coeff]] = {}
        for wd, c in self._layer_terms(x):
            by_d.setdefault(wd.d2, {})[wd.w] = c
        for d, terms in by_d.items():
            for (mu, sx, tx), c in murphy_expand(self.window, terms).items():
                if mu != self.lam:
                    if dominates(mu, self.lam):
                        continue  # strictly bigger cell
                    raise CellError(
                        f"reduction escaped the cell ideal: component {mu} "
                        f"is not above {self.lam}"
                    )
                if sx != self.tlam:
                    raise CellError(
                        "reduction left the row of the superstandard "
                        f"tableau: component with left tableau {sx}"
                    )
                key = (tx, d)
                if key not in self.pos:
                    raise CellError(f"coset part {d} is not a representative")
                coords[self.pos[key]] = coords[self.pos[key]] + c
        return coords

    # -- generator actions ---------------------------------------------------

    def act(self, g) -> list:
        """Matrix of the right action of a generator letter; row i is the
        image of basis vector i."""
        key = tuple(g)
        if key not in self._act_cache:
            self._act_cache[key] = [
                self.vector(right_mul_gen(e, g)) for e in self.elements()
            ]
        return self._act_cache[key]

    def act_elt(self, y: AlgebraElt) -> list:
        """Matrix of the right action of an arbitrary element, from the
        generator letters of its normal words."""
        if y.n != self.n:
            raise CellError(f"rank mismatch: {y.n} vs {self.n}")
        eng = get_engine(self.n)
        return self._terms_matrix(
            [(c, eng.word_letters(w)) for w, c in y.items()]
        )

    def _terms_matrix(self, terms) -> list:
        """Matrix of the right action of sum c . g_1 ... g_k, given as terms
        [(c, [g_1, ..., g_k])]: the sum of c . act(g_1) ... act(g_k)."""
        dim = self.dim
        out = [[ZERO] * dim for _ in range(dim)]
        for c, letters in terms:
            prod = None
            for g in letters:
                mat = self.act(g)
                prod = mat if prod is None else mat_mul(prod, mat)
            if prod is None:
                prod = [
                    [ONE if i == j else ZERO for j in range(dim)]
                    for i in range(dim)
                ]
            for o, r in zip(out, prod):
                for j, x in enumerate(r):
                    if x:
                        o[j] = o[j] + c * x
        return out

    # -- Gram matrix ---------------------------------------------------------

    def gram(self) -> list:
        """Gram matrix of the invariant form: entry (i, j) is the coordinate
        of element_i . sigma(element_j) at the reference vector, and its
        coordinates off the support of _pairing vanish.

        The form is invariant, <x . a, y> = <x, y . sigma(a)>, and sigma
        fixes every generator and e_ref, so column j, with element_j equal
        to e_ref . T_{a_1} ... T_{a_m}, is act(T(a_m)) ... act(T(a_1))
        applied to the column of e_ref.  The words share prefixes, so each
        distinct prefix's column is computed once.  The column of e_ref
        comes from the action of e_ref; by linearity, checking there that
        each row vanishes off the support checks it for every pair."""
        if self._gram is None:
            ref, support = self._pairing()
            base = []
            for row in self.act_elt(self.elements()[ref]):
                if any(c for k, c in enumerate(row) if k not in support):
                    raise CellError(
                        "pairing product left the support of the reference "
                        "basis vector"
                    )
                base.append([row[ref]])
            cols = {(): base}

            def column(word):
                col = cols.get(word)
                if col is None:
                    col = mat_mul(self.act(T(word[-1])), column(word[:-1]))
                    cols[word] = col
                return col

            columns = [[x for x, in column(w)] for w in self._words()]
            self._gram = [list(row) for row in zip(*columns)]
        return self._gram

    def _pairing(self) -> Tuple[int, set]:
        """The index of the reference vector e_ref, where gram reads the
        form, and the indices where a row of the action of e_ref may be
        nonzero: e_ref's alone, as element_k . e_ref is a multiple of e_ref
        modulo bigger cells."""
        ref = self.pos[(self.tlam, IDENTITY)]
        return ref, {ref}

    # -- Jucys-Murphy basis ----------------------------------------------------

    def jm_elements(self) -> List[AlgebraElt]:
        """Lifts m_t of the Jucys-Murphy basis, in the order of self.ud (not
        cached: transition keeps their coordinates)."""
        return [self._m_elt(t) for t in self.ud]

    def _m_elt(self, t: UpDownTableau) -> AlgebraElt:
        """m_t by the path recursion: adding a box at row k left-multiplies by
        sum_j q^{a_k - j} T_{j,i}; removing one left-multiplies by
        E_{2f-1} T_{i,2f}^{-1} T_{b_k,2f-1}^{-1}.  It runs on sm = sigma(m),
        which left-multiplying m by g_1 ... g_k right-multiplies by
        g_k ... g_1."""
        eng = get_engine(self.n)
        sm = one_elt(self.n)
        for i in range(1, self.n + 1):
            kind, node = ud_step(t, i)
            shape = t[i]
            fi = (i - sum(shape)) // 2
            k = node[0]
            if kind == "add":
                a_k = 2 * fi + sum(shape[:k])
                a_km1 = 2 * fi + sum(shape[: k - 1])
                sm = _lin_comb(self.n, [
                    (Q ** (a_k - j), eng.apply_letters(sm, seg_letters(i, j)))
                    for j in range(a_km1 + 1, a_k + 1)
                ])
            else:
                b_k = 2 * fi - 1 + sum(shape[:k])
                sm = eng.apply_letters(sm, reversed(_removal_letters(i, fi, b_k)))
        return eng.sigma(sm)

    def transition(self) -> list:
        """Row t = coordinates of m_t in the coset basis."""
        if self._transition is None:
            self._transition = [self.vector(e) for e in self.jm_elements()]
        return self._transition

    def transition_inv(self) -> list:
        if self._transition_inv is None:
            self._transition_inv = mat_inverse(self.transition())
        return self._transition_inv

    # -- Jucys-Murphy action -----------------------------------------------------

    def jm_matrix(self, k: int) -> list:
        """Matrix of the k-th Jucys-Murphy element in the Jucys-Murphy basis
        (rows/columns ordered by self.ud)."""
        if not (1 <= k <= self.n):
            raise CellError(f"L_{k} out of range for n={self.n}")
        return self._in_jm_basis(self._terms_matrix(jm_terms(k, self.n)))

    def _in_jm_basis(self, mat: list) -> list:
        """A coset-basis action matrix rewritten in the Jucys-Murphy basis:
        transition . mat . transition^-1."""
        return mat_mul(mat_mul(self.transition(), mat), self.transition_inv())

    def check_triangular(self, k: int) -> dict:
        """Certificate that L_k acts on the Jucys-Murphy basis as the order
        on up-down tableaux requires: the diagonal entry at t is the content
        eigenvalue c_t(k), and every nonzero off-diagonal entry, at row t
        and column s, has s strictly above t (ud_dominates(s, t))."""
        j = self.jm_matrix(k)
        failures = []
        diag = []
        for i, t in enumerate(self.ud):
            expected = ct_eigenvalue(t, k)
            if j[i][i] != expected:
                failures.append(
                    {
                        "kind": "diagonal",
                        "row": i,
                        "got": str(j[i][i]),
                        "expected": str(expected),
                    }
                )
            diag.append(str(j[i][i]))
            for col, value in enumerate(j[i]):
                if value and col != i and not ud_dominates(self.ud[col], t):
                    failures.append(
                        {"kind": "off-order", "row": i, "col": col, "value": str(value)}
                    )
        return {
            "label": [self.f, list(self.lam)],
            "k": k,
            "diagonal": diag,
            "ok": not failures,
            "failures": failures,
        }

    # -- branching filtration ------------------------------------------------------

    def filtration_check(self) -> dict:
        """Verify the restriction filtration layer by layer.  A layer is the
        run of self.ud through one level n-1 shape, in the reverse order of
        branching_list; its dimension, its invariance under the rank n-1
        subalgebra, and its spectrum: the diagonal of L_1 ... L_{n-1} that
        check_triangular certifies has no failure in its rows."""
        n, f, lam = self.n, self.f, self.lam
        mus = branching_list(f, lam, n)
        runs: List[Tuple[Partition, range]] = []
        for mu, run in groupby(self.ud, key=lambda t: t[n - 1]):
            start = runs[-1][1].stop if runs else 0
            runs.append((mu, range(start, start + sum(1 for _ in run))))
        contiguous = [mu for mu, _ in runs] == mus[::-1]
        layers = dict(runs)
        bad_rows = {
            x["row"]
            for k in range(1, n)
            for x in self.check_triangular(k)["failures"]
            if x["kind"] == "diagonal"
        }

        factors = []
        for mu in mus:
            ell = label_key(n - 1, mu)[0]
            rows = layers.get(mu, range(0))
            factors.append(
                {
                    "level": ell,
                    "mu": list(mu),
                    "dim": len(rows),
                    "dim_ok": len(rows)
                    == len(coset_reps_D(ell, n - 1)) * len(std_tableaux(mu)),
                    "spectrum_ok": bad_rows.isdisjoint(rows),
                }
            )
        total_dim_ok = sum(x["dim"] for x in factors) == self.dim

        # invariance: in Jucys-Murphy coordinates every rank n-1 generator
        # maps each layer into the union of itself and later blocks
        gens = [T(i) for i in range(1, n - 1)] + ([E1] if n > 2 else [])
        invariance_ok = contiguous and not any(
            any(jg[r][: rows.start])
            for jg in (self._in_jm_basis(self.act(g)) for g in gens)
            for _, rows in runs
            for r in rows
        )
        ok = contiguous and invariance_ok and total_dim_ok and all(
            x["dim_ok"] and x["spectrum_ok"] for x in factors
        )
        return {
            "label": [f, list(lam)],
            "factors": factors,
            "contiguous": contiguous,
            "invariance_ok": invariance_ok,
            "total_dim_ok": total_dim_ok,
            "ok": ok,
        }

    # -- induction functor -------------------------------------------------------

    def functor_F_check(self) -> dict:
        """Rank of the action of the idempotent tilde E_1: the image of the
        module under it must have the dimension of C(f-1, lam) two ranks
        lower (zero when f = 0)."""
        n, f, lam = self.n, self.f, self.lam
        # at n = 2 the conjugating generator of tilde E_1 does not exist and
        # E_1 itself spans the same right ideal
        mat = self.act(E1) if n == 2 else self.act_elt(tilde_e1(n))
        got = mat_rank(mat)
        if f == 0:
            expected = 0
        else:
            expected = len(coset_reps_D(f - 1, n - 2)) * len(std_tableaux(lam))
        return {
            "label": [f, list(lam)],
            "image_dim": got,
            "expected": expected,
            "ok": got == expected,
        }


@lru_cache(maxsize=None)
def cell_module(n: int, f: int, lam: Partition) -> CellModule:
    return CellModule(n, f, lam)


def clear_caches() -> None:
    """Empty every in-process cache: the engines, the cell modules, the
    Murphy pivot tables and the coset representatives."""
    for cached in (get_engine, cell_module, _murphy_pivots, coset_reps_D, config_to_rep):
        cached.cache_clear()


# ---------------------------------------------------------------------------
# y elements
# ---------------------------------------------------------------------------


def y_element(f: int, lam, mu, n: int) -> AlgebraElt:
    """The transition element y^lam_mu of the restriction filtration:
    E^f x_lam T_{a_k,n} for a removal, and
    E_{2f-1} T_{n,2f}^{-1} T_{b_k,2f-1}^{-1} E^{f-1} x_mu for an addition."""
    lam = check_label(n, f, lam)
    mu = tuple(mu)
    eng = get_engine(n)
    if sum(mu) == sum(lam) - 1:
        # removal: mu = lam minus a box in row k
        k = shape_diff(lam, mu)[0]
        a_k = 2 * f + sum(lam[:k])
        base = _lift_x_lambda(n, f, lam, (2 * f + 1, n))
        return eng.apply_letters(base, seg_letters(a_k, n))
    if sum(mu) == sum(lam) + 1:
        # addition: mu = lam plus a box in row k
        if f == 0:
            raise CellError("adding a box needs deficiency f >= 1")
        k = shape_diff(mu, lam)[0]
        b_k = 2 * f - 1 + sum(lam[:k])
        # sigma fixes the lift and every letter, so head . lift is
        # sigma(lift . the letters of head, reversed)
        lift = _lift_x_lambda(n, f - 1, mu, (2 * f - 1, n - 1))
        return eng.sigma(eng.apply_letters(lift, reversed(_removal_letters(n, f, b_k))))
    raise CellError("mu must differ from lam by exactly one box")


# ---------------------------------------------------------------------------
# the form on the f = 1 layer
# ---------------------------------------------------------------------------


class VLayer(CellModule):
    """The f = 1 layer: the module on {E_1 T_w T_d} with w on the letters
    3..n and d in D_{1,n}, modulo deficiency 2, carrying a right action of
    the whole algebra and the bilinear form phi(x, y) = identity coefficient
    of h with x sigma(y) = E_1 h.  It is built by the cell-module code with
    e_ref = E_1, every w of the window in place of the tableaux of a shape,
    and no Murphy quotient; it has no Jucys-Murphy basis."""

    def __init__(self, n: int):
        if n < 2:
            raise CellError("the f=1 layer needs n >= 2")
        ws = sorted(window_perms(3, n), key=lambda w: (length(w), reduced_word(w)))
        self._set_basis(n, 1, {w: w for w in ws})

    def _base(self) -> AlgebraElt:
        return elt_from_letters([E1], self.n)

    def vector(self, x: AlgebraElt) -> List[Coeff]:
        """Coordinates of x modulo deficiency 2, with no Murphy quotient."""
        coords = [ZERO] * self.dim
        for wd, c in self._layer_terms(x):
            coords[self.pos[(wd.w, wd.d2)]] += c
        return coords

    def _pairing(self) -> Tuple[int, set]:
        """phi reads the identity coefficient of h in x . E_1 = E_1 h, so a
        row of the action of E_1 may be nonzero at every (w, 1)."""
        support = {i for i, (_, d) in enumerate(self.index) if d == IDENTITY}
        return self.pos[(IDENTITY, IDENTITY)], support


def v_form_entry_shapes(n: int) -> dict:
    """Check the predicted entry shapes of the f=1 form: diagonal entries are
    delta plus (q - q^{-1}) z times a Laurent polynomial in q; off-diagonal
    entries are z times a Laurent polynomial in q."""

    def laurent_in_q(c: Coeff) -> bool:
        return c.den == {(0, 0): 1} and all(j == 0 for _, j in c.num)

    g = VLayer(n).gram()
    entries = [(i == j, x) for i, row in enumerate(g) for j, x in enumerate(row)]
    return {
        "n": n,
        "diagonal_ok": all(
            laurent_in_q((x - DELTA) / (A * Z)) for diag, x in entries if diag
        ),
        "off_diagonal_ok": all(
            laurent_in_q(x / Z) for diag, x in entries if not diag
        ),
    }


# ---------------------------------------------------------------------------
# admissibility and radicals
# ---------------------------------------------------------------------------


def skew_boxes(lam: Partition, mu: Partition) -> List[Tuple[int, int]]:
    """Boxes of lam not in mu, as (row, col) 1-based."""
    out = []
    for r in range(len(lam)):
        lo = mu[r] if r < len(mu) else 0
        if lo > lam[r]:
            raise CellError(f"{mu} is not contained in {lam}")
        for c in range(lo + 1, lam[r] + 1):
            out.append((r + 1, c))
    if len(mu) > len(lam):
        raise CellError(f"{mu} is not contained in {lam}")
    return out


def admissible_exponent(lam, mu) -> Optional[int]:
    """The exponent e with condition z^2 = q^e for the pair, or None when the
    two added boxes share a column (never admissible)."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu) + 2:
        raise CellError("lam must have exactly two boxes more than mu")
    boxes = skew_boxes(lam, mu)
    if len(boxes) != 2:
        raise CellError("skew shape is not two boxes")
    (r1, c1), (r2, c2) = boxes
    if c1 == c2:
        return None
    return 2 - 2 * (content((r1, c1)) + content((r2, c2)))


def admissible(lam, mu, spec: Optional[Specialization] = None) -> bool:
    """Whether lam is reachable from mu by two boxes not in one column with
    the parameter relation z^2 = q^{2 - 2(c(p1)+c(p2))} holding under spec
    (symbolically independent parameters never satisfy the relation)."""
    e0 = admissible_exponent(lam, mu)
    if e0 is None or spec is None:
        return False
    if not isinstance(spec, (IntegerExponent, NumericPoint)):
        raise CellError(f"unsupported specialization {spec!r}")
    return not specialize(Z * Z - Q**e0, spec)


def specialized_gram(mod: CellModule, spec: Optional[Specialization]) -> list:
    """The Gram matrix of mod, with entries specialized when spec is given
    (field elements at a NumericPoint, Coeff in q alone at an
    IntegerExponent); the cached matrix itself when spec is None."""
    g = mod.gram()
    if spec is None:
        return g
    return [[specialize(c, spec) for c in row] for row in g]


def radical_dim(n: int, f: int, lam, spec: Optional[Specialization] = None) -> int:
    """Corank of the (possibly specialized) Gram matrix of C(f, lam)."""
    mod = cell_module(n, f, lam)
    return mod.dim - mat_rank(specialized_gram(mod, spec))


def radical_factor_shape(n: int, mu, spec: Specialization):
    """For the label (1, mu): identify the shape lam with the radical of
    C(1, mu) isomorphic to the Hecke cell module of shape lam, by matching
    Jucys-Murphy traces on the radical.  Returns None when the radical is
    zero; raises CellError when the spectrum does not single out a shape."""
    mod = cell_module(n, 1, tuple(mu))
    kern = kernel_basis(specialized_gram(mod, spec))
    if not kern:
        return None
    # traces of each Jucys-Murphy element on the radical: an image in the
    # radical has its coordinates at the kernel's free columns (kernel_basis)
    free = [max(j for j, x in enumerate(v) if x) for v in kern]
    traces = []
    for k in range(1, n + 1):
        mk = [
            [specialize(c, spec) for c in row]
            for row in mod._terms_matrix(jm_terms(k, n))
        ]
        tr = None
        for i, img in enumerate(mat_mul(kern, mk)):
            coords = [img[j] for j in free]
            if mat_mul([coords], kern)[0] != img:
                raise CellError("radical is not invariant under L_k")
            tr = coords[i] if tr is None else tr + coords[i]
        traces.append(tr)
    # candidates: mu plus two boxes not in one column
    candidates = []
    for lam in partitions(sum(mu) + 2):
        try:
            if admissible_exponent(lam, mu) is None:
                continue
        except CellError:
            continue
        # the paths to lam, which has n boxes, only add
        paths = updown_tableaux(n, lam)
        expected = []
        for k in range(1, n + 1):
            tk = None
            for u in paths:
                val = specialize(ct_eigenvalue(u, k), spec)
                tk = val if tk is None else tk + val
            expected.append(tk)
        if expected == traces:
            candidates.append(tuple(lam))
    if len(candidates) == 1:
        # dimension cross-check
        lam = candidates[0]
        if len(kern) != len(std_tableaux(lam)):
            raise CellError("radical dimension does not match the matched shape")
        return lam
    if not candidates:
        raise CellError("no candidate shape matches the radical spectrum")
    raise CellError(f"radical spectrum is ambiguous between {candidates}")
