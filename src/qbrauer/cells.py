"""Cell modules of the rank-n algebra.

A cell label is a pair (f, lam) with 0 <= f <= n//2 and lam a partition of
n - 2f.  The module C(f, lam) has the coset basis indexed by pairs (t, v)
with t a standard tableau of shape lam on the letters 2f+1..n and v a
distinguished representative in D_{f,n}; the basis vector is the class of
E^f x_lam T_{d(t)} T_v.  The Jucys-Murphy basis {m_t} is indexed by up-down
tableaux and is built by the add/remove recursion on the path.

Reduction algorithm (vector): after multiplying a lifted basis element by a
generator, drop all words of deficiency > f, group the remaining words by
their right coset part d, expand each group in the Murphy basis of the
Hecke algebra on the window letters, discard the components above lam in
dominance (they lie in the span of bigger cells) and the components of
shape lam whose left tableau is not superstandard, and keep the coefficient
of x_{t^lam, t} T_d as the coordinate at (t, d).

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
column of e_ref (see _gram_from_base).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations as _iperms
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
    specialize,
)
from .combinatorics import (
    IDENTITY,
    Partition,
    Perm,
    StandardTableau,
    UpDownTableau,
    branching_list,
    content,
    coset_reps_D,
    coset_word,
    ct_eigenvalue,
    dominance,
    partitions,
    seg_word,
    std_tableaux,
    superstandard,
    updown_tableaux,
)
from .hecke import HeckeElt, murphy_x, x_lambda
from .algebra import (
    AlgebraElt,
    E1,
    NormalWord,
    T,
    Tinv,
    e_index,
    elt_from_letters,
    get_engine,
    jm_terms,
    one_elt,
    right_mul_gen,
    tilde_e1,
)
from .linalg import Fp, kernel_basis, in_row_span, mat_inverse, mat_mul, mat_rank

CellLabel = Tuple[int, Partition]


class CellError(ValueError):
    pass


def triangular_ud_key(t: UpDownTableau):
    """Sort key whose ascending order makes the Jucys-Murphy actions upper
    triangular: paths compared at the last differing position, where larger
    deficiency counts as larger and equal deficiencies compare by dominance.

    (This refines the partial order of the triangularity theorem; it treats
    cross-deficiency comparisons opposite to combinatorics.label_order, whose
    convention is fixed by its own contract.)"""
    from .combinatorics import dominance_key

    key = []
    for k in range(t.n, -1, -1):
        f = (k - sum(t.shapes[k])) // 2
        key.append((f, dominance_key(t.shapes[k])))
    return tuple(key)


# ---------------------------------------------------------------------------
# Murphy expansion in a Hecke window
# ---------------------------------------------------------------------------


class _MurphySolver:
    """Gauss-Jordan decomposition of the Murphy basis of a Hecke window.

    Columns are the Murphy elements x_{st} over all shapes; after the
    decomposition each group element h of the window algebra expands in one
    sparse pass.  Pivots are chosen among longest remaining words, which
    keeps the elimination close to the length grading."""

    def __init__(self, window: Tuple[int, int]):
        lo, hi = window
        m = hi - lo + 1
        self.window = window
        # (pivot perm) -> (normalized column, combination of original keys)
        self.pivots: Dict[Perm, Tuple[Dict[Perm, Coeff], Dict[tuple, Coeff]]] = {}
        count = 0
        for lam in partitions(m):
            for sx in std_tableaux(lam, lo):
                for tx in std_tableaux(lam, lo):
                    x = murphy_x(sx, tx, window)
                    self._insert((lam, sx, tx), dict(x.terms))
                    count += 1
        if count != math.factorial(max(m, 0)) or len(self.pivots) != count:
            raise CellError("Murphy elements do not form a basis of the window")

    def _insert(self, key: tuple, col: Dict[Perm, Coeff]):
        combo: Dict[tuple, Coeff] = {key: ONE}
        # reduce against existing pivots
        for p, (pcol, pcombo) in self.pivots.items():
            c = col.get(p)
            if c:
                _subtract(col, pcol, c)
                _subtract(combo, pcombo, c)
        if not col:
            raise CellError("dependent Murphy element")
        pivot = max(col, key=lambda w: (w.length(), w.word()))
        inv = ONE / col[pivot]
        col = {w: c * inv for w, c in col.items()}
        combo = {k: c * inv for k, c in combo.items()}
        # eliminate the new pivot from all stored columns (Jordan step)
        for p, (pcol, pcombo) in self.pivots.items():
            c = pcol.get(pivot)
            if c:
                _subtract(pcol, col, c)
                _subtract(pcombo, combo, c)
        self.pivots[pivot] = (col, combo)

    def expand(self, h: HeckeElt) -> Dict[tuple, Coeff]:
        """Coefficients {(shape, s, t): coeff} of h in the Murphy basis."""
        work = dict(h.terms)
        out: Dict[tuple, Coeff] = {}
        for p, (pcol, pcombo) in self.pivots.items():
            c = work.get(p)
            if c:
                _subtract(work, pcol, c)
                for k, v in pcombo.items():
                    val = out.get(k, ZERO) + c * v
                    if val:
                        out[k] = val
                    else:
                        out.pop(k, None)
        if work:
            raise CellError("element is not in the span of the Murphy basis")
        return out


def _rows_times(rows: list, mat: list) -> list:
    """rows . mat, visiting only the nonzero entries of both."""
    sparse = [[(j, a) for j, a in enumerate(r) if a] for r in mat]
    out = []
    for r in rows:
        acc = [ZERO] * len(mat[0])
        for i, x in enumerate(r):
            if x:
                for j, a in sparse[i]:
                    acc[j] = acc[j] + x * a
        out.append(acc)
    return out


def _gram_from_base(act, base: list, words: List[Tuple[int, ...]]) -> list:
    """Gram matrix of an invariant form on a right module whose basis vector
    j is e_ref . T_{a_1} ... T_{a_m} with (a_1, ..., a_m) = words[j] and
    sigma(e_ref) = e_ref: column j is act(T(a_m)) ... act(T(a_1)) . base,
    where base is the column of e_ref and act(g) is the matrix of the right
    action of the generator g (row i is the image of basis vector i)."""
    columns = []
    for word in words:
        col = base
        for a in word:
            mat = act(T(a))
            col = [
                sum((x * col[k] for k, x in enumerate(row) if x), ZERO)
                for row in mat
            ]
        columns.append(col)
    return [list(row) for row in zip(*columns)]


def _subtract(target: dict, source: dict, c: Coeff):
    for k, v in source.items():
        val = target.get(k, ZERO) - c * v
        if val:
            target[k] = val
        else:
            target.pop(k, None)


@lru_cache(maxsize=None)
def _murphy_solver(window: Tuple[int, int]) -> _MurphySolver:
    return _MurphySolver(window)


def murphy_expand(h: HeckeElt) -> Dict[tuple, Coeff]:
    return _murphy_solver(h.window).expand(h)


# ---------------------------------------------------------------------------
# cell modules
# ---------------------------------------------------------------------------


def _check_label(n: int, f: int, lam: Partition):
    lam = tuple(lam)
    if f < 0 or 2 * f > n:
        raise CellError(f"deficiency f={f} out of range for n={n}")
    if any(x <= 0 for x in lam) or any(
        lam[i] < lam[i + 1] for i in range(len(lam) - 1)
    ):
        raise CellError(f"{lam} is not a partition")
    if sum(lam) != n - 2 * f:
        raise CellError(f"({f}, {lam}) is not a cell label at rank {n}")
    return lam


class CellModule:
    """The cell module C(f, lam) of the rank-n algebra, with its coset basis,
    Jucys-Murphy basis, generator actions and Gram matrix."""

    def __init__(self, n: int, f: int, lam: Partition):
        lam = _check_label(n, f, lam)
        self.n = n
        self.f = f
        self.lam = lam
        self.window = (2 * f + 1, n)
        self.tlam = superstandard(lam, 2 * f + 1)
        self.tabs: List[StandardTableau] = std_tableaux(lam, 2 * f + 1)
        self.reps: List[Perm] = list(coset_reps_D(f, n))
        self.index = [(t, v) for t in self.tabs for v in self.reps]
        self.pos = {key: i for i, key in enumerate(self.index)}
        self.dim = len(self.index)
        # up-down tableaux sorted increasingly in the triangularity order,
        # so Jucys-Murphy actions become upper triangular
        self.ud: List[UpDownTableau] = sorted(
            updown_tableaux(n, lam), key=triangular_ud_key
        )
        if len(self.ud) != self.dim:
            raise CellError("up-down tableau count does not match dimension")
        self._elements: Optional[List[AlgebraElt]] = None
        self._jm_elements: Optional[List[AlgebraElt]] = None
        self._transition: Optional[list] = None
        self._transition_inv: Optional[list] = None
        self._act_cache: Dict[tuple, list] = {}
        self._gram: Optional[list] = None

    # -- lifted basis elements --------------------------------------------

    def _words(self) -> List[Tuple[int, ...]]:
        """Letters (a_1, ..., a_m) with basis vector (t, v) equal to
        E^f x_lam T_{a_1} ... T_{a_m}: the word of d(t), then that of v."""
        return [coset_word(t).word() + v.word() for t, v in self.index]

    def elements(self) -> List[AlgebraElt]:
        """Lifts E^f x_lam T_{d(t)} T_v of the coset basis vectors."""
        if self._elements is None:
            eng = get_engine(self.n)
            base = AlgebraElt(
                self.n,
                {
                    NormalWord(self.f, IDENTITY, w, IDENTITY): c
                    for w, c in x_lambda(self.lam, self.window).terms.items()
                },
            )
            out = []
            for word in self._words():
                x = base
                for i in word:
                    x = eng.right_mul_gen(x, T(i))
                out.append(x)
            self._elements = out
        return self._elements

    def element(self, i: int) -> AlgebraElt:
        return self.elements()[i]

    # -- reduction to coordinates ------------------------------------------

    def vector(self, x: AlgebraElt) -> List[Coeff]:
        """Coordinates of x modulo the span of bigger cells.

        Any word of deficiency f with a nontrivial left coset part is a
        reduction failure (right multiplication never produces one)."""
        f = self.f
        coords = [ZERO] * self.dim
        by_d: Dict[Perm, Dict[Perm, Coeff]] = {}
        for wd, c in x.terms.items():
            if wd.f > f:
                continue
            if wd.f < f:
                raise CellError(
                    f"term of deficiency {wd.f} below the cell layer {f}"
                )
            if not wd.d1.is_identity():
                raise CellError("unexpected left coset part during reduction")
            by_d.setdefault(wd.d2, {})[wd.w] = c
        for d, terms in by_d.items():
            h = HeckeElt(self.window)
            h.terms = dict(terms)
            for (mu, sx, tx), c in murphy_expand(h).items():
                if mu == self.lam:
                    if sx == self.tlam:
                        key = (tx, d)
                        if key not in self.pos:
                            raise CellError(
                                f"coset part {d} is not a representative"
                            )
                        coords[self.pos[key]] = coords[self.pos[key]] + c
                    # shape lam with a non-superstandard left tableau lies in
                    # the span of other rows of the same cell; discard
                    continue
                if dominance(mu, self.lam) == "gt":
                    continue  # strictly bigger cell
                raise CellError(
                    f"reduction escaped the cell ideal: component {mu} "
                    f"is not above {self.lam}"
                )
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
            [(c, eng.word_letters(w)) for w, c in y.terms.items()]
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
                prod = mat if prod is None else _rows_times(prod, mat)
            if prod is None:
                prod = [
                    [ONE if i == j else ZERO for j in range(dim)]
                    for i in range(dim)
                ]
            unit = c == ONE
            for o, r in zip(out, prod):
                for j, x in enumerate(r):
                    if x:
                        o[j] = o[j] + (x if unit else c * x)
        return out

    # -- Gram matrix ---------------------------------------------------------

    def gram(self) -> list:
        """Gram matrix of the canonical invariant form: entry (i, j) is the
        coefficient g with element_i . sigma(element_j) congruent to
        g . E^f x_lam modulo bigger cells.

        The column of e_ref = E^f x_lam comes from the action of e_ref; by
        linearity, checking there that element_k . e_ref is a multiple of
        e_ref checks it for every pair."""
        if self._gram is None:
            ref = self.pos[(self.tlam, IDENTITY)]
            base = []
            for row in self.act_elt(self.element(ref)):
                if any(c for k, c in enumerate(row) if k != ref):
                    raise CellError(
                        "pairing product is not a multiple of the "
                        "reference basis vector"
                    )
                base.append(row[ref])
            self._gram = _gram_from_base(self.act, base, self._words())
        return self._gram

    def gram_det(self) -> Coeff:
        from .linalg import mat_det

        return mat_det(self.gram())

    # -- Jucys-Murphy basis ----------------------------------------------------

    def jm_elements(self) -> List[AlgebraElt]:
        """Lifts m_t of the Jucys-Murphy basis, in the order of self.ud."""
        if self._jm_elements is None:
            self._jm_elements = [self._m_elt(t) for t in self.ud]
        return self._jm_elements

    def _m_elt(self, t: UpDownTableau) -> AlgebraElt:
        """m_t by the path recursion: adding a box at row k left-multiplies by
        sum_j q^{a_k - j} T_{j,i}; removing one left-multiplies by
        E_{2f-1} T_{i,2f}^{-1} T_{b_k,2f-1}^{-1}."""
        eng = get_engine(self.n)
        m = one_elt(self.n)
        for i in range(1, self.n + 1):
            kind, node = t.step(i)
            shape = t.shapes[i]
            fi = (i - sum(shape)) // 2
            k = node[0]
            if kind == "add":
                a_k = 2 * fi + sum(shape[:k])
                a_km1 = 2 * fi + sum(shape[: k - 1])
                acc = eng.zero()
                for j in range(a_km1 + 1, a_k + 1):
                    term = self._lmul_letters(
                        eng, [T(x) for x in seg_word(j, i)], m
                    )
                    acc = acc + term.scale(Q ** (a_k - j))
                m = acc
            else:
                b_k = 2 * fi - 1 + sum(shape[:k])
                m = self._lmul_letters(
                    eng,
                    [Tinv(x) for x in reversed(seg_word(b_k, 2 * fi - 1))],
                    m,
                )
                m = self._lmul_letters(
                    eng,
                    [Tinv(x) for x in reversed(seg_word(i, 2 * fi))],
                    m,
                )
                l = 2 * fi - 1
                if l == 1:
                    m = eng.left_mul_gen(E1, m)
                else:
                    m = eng.mul(e_index(l, self.n), m)
        return m

    @staticmethod
    def _lmul_letters(eng, letters, m: AlgebraElt) -> AlgebraElt:
        """Left-multiply by the product of the letters (in product order)."""
        for g in reversed(letters):
            m = eng.left_mul_gen(g, m)
        return m

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
        """Certificate that L_k is upper triangular on the Jucys-Murphy basis
        with the predicted content diagonal."""
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
            for col in range(i):
                if j[i][col]:
                    failures.append(
                        {
                            "kind": "below-diagonal",
                            "row": i,
                            "col": col,
                            "value": str(j[i][col]),
                        }
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
        """Verify the restriction filtration layer by layer: dimensions,
        invariance under the rank n-1 subalgebra, and the Jucys-Murphy
        spectrum of each layer."""
        n, f, lam = self.n, self.f, self.lam
        mus, split = branching_list(f, lam, n)
        m = len(mus)
        # block of each up-down tableau: position of its level n-1 shape
        layer_of = []
        for t in self.ud:
            mu = t.shapes[n - 1]
            layer_of.append(mus.index(mu))
        # layers must be contiguous and in reverse order along self.ud
        boundaries: List[Tuple[int, int, int]] = []  # (layer, start, stop)
        i = 0
        seen = []
        while i < self.dim:
            j = layer_of[i]
            start = i
            while i < self.dim and layer_of[i] == j:
                i += 1
            boundaries.append((j, start, i))
            seen.append(j)
        contiguous = seen == sorted(seen, reverse=True) and len(set(seen)) == len(
            seen
        )

        factors = []
        total = 0
        for j, mu in enumerate(mus):
            ell = f if j < split else f - 1
            expected = len(coset_reps_D(ell, n - 1)) * len(std_tableaux(mu))
            got = sum(1 for x in layer_of if x == j)
            total += got
            # layer spectrum: the n-1 Jucys-Murphy eigenvalue strings
            got_spec = sorted(
                str(tuple(str(ct_eigenvalue(t, k)) for k in range(1, n)))
                for t, lx in zip(self.ud, layer_of)
                if lx == j
            )
            want_spec = sorted(
                str(tuple(str(ct_eigenvalue(u, k)) for k in range(1, n)))
                for u in updown_tableaux(n - 1, mu)
            )
            factors.append(
                {
                    "level": ell,
                    "mu": list(mu),
                    "dim": got,
                    "dim_ok": got == expected,
                    "spectrum_ok": got_spec == want_spec,
                }
            )

        # invariance: in Jucys-Murphy coordinates every rank n-1 generator
        # maps each layer into the union of itself and later blocks
        gens = [T(i) for i in range(1, n - 1)]
        if n - 1 >= 2:
            gens.append(E1)
        invariance_ok = contiguous
        for g in gens:
            jg = self._in_jm_basis(self.act(g))
            for (lj, start, stop) in boundaries:
                for r in range(start, stop):
                    for c in range(start):
                        if jg[r][c]:
                            invariance_ok = False
        ok = (
            contiguous
            and invariance_ok
            and total == self.dim
            and all(x["dim_ok"] and x["spectrum_ok"] for x in factors)
        )
        return {
            "label": [f, list(lam)],
            "factors": factors,
            "contiguous": contiguous,
            "invariance_ok": invariance_ok,
            "total_dim_ok": total == self.dim,
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


_modules: Dict[tuple, CellModule] = {}


def cell_module(n: int, f: int, lam) -> CellModule:
    key = (n, f, tuple(lam))
    if key not in _modules:
        _modules[key] = CellModule(n, f, tuple(lam))
    return _modules[key]


def cell_basis(n: int, f: int, lam) -> dict:
    """Both bases of C(f, lam) with the transition matrix between them."""
    mod = cell_module(n, f, lam)
    return {
        "coset": mod.index,
        "jm": mod.ud,
        "transition": mod.transition(),
        "transition_inv": mod.transition_inv(),
        "dim": mod.dim,
    }


# ---------------------------------------------------------------------------
# y elements
# ---------------------------------------------------------------------------


def y_element(f: int, lam, mu, n: int) -> AlgebraElt:
    """The transition element y^lam_mu of the restriction filtration:
    E^f x_lam T_{a_k,n} for a removal, and
    E_{2f-1} T_{n,2f}^{-1} T_{b_k,2f-1}^{-1} E^{f-1} x_mu for an addition."""
    lam = _check_label(n, f, lam)
    mu = tuple(mu)
    eng = get_engine(n)
    base = AlgebraElt(
        n,
        {
            NormalWord(f, IDENTITY, w, IDENTITY): c
            for w, c in x_lambda(lam, (2 * f + 1, n)).terms.items()
        },
    )
    if sum(mu) == sum(lam) - 1:
        # removal: mu = lam minus a box in row k
        k = next(
            r + 1
            for r in range(len(lam))
            if (mu[r] if r < len(mu) else 0) != lam[r]
        )
        a_k = 2 * f + sum(lam[:k])
        x = base
        for i in seg_word(a_k, n):
            x = eng.right_mul_gen(x, T(i))
        return x
    if sum(mu) == sum(lam) + 1:
        # addition: mu = lam plus a box in row k
        k = next(
            r + 1
            for r in range(len(mu))
            if (lam[r] if r < len(lam) else 0) != mu[r]
        )
        b_k = 2 * f - 1 + sum(lam[:k])
        mu_base = AlgebraElt(
            n,
            {
                NormalWord(f - 1, IDENTITY, w, IDENTITY): c
                for w, c in x_lambda(mu, (2 * f - 1, n - 1)).terms.items()
            },
        )
        head = one_elt(n)
        l = 2 * f - 1
        if l == 1:
            head = eng.left_mul_gen(E1, head)
        else:
            head = eng.mul(e_index(l, n), head)
        for x in seg_word(n, 2 * f):
            head = eng.right_mul_gen(head, Tinv(x))
        for x in seg_word(b_k, 2 * f - 1):
            head = eng.right_mul_gen(head, Tinv(x))
        return eng.mul(head, mu_base)
    raise CellError("mu must differ from lam by exactly one box")


# ---------------------------------------------------------------------------
# the form on the f = 1 layer
# ---------------------------------------------------------------------------


class VLayer:
    """The free module on {E_1 T_w T_d} with w on the letters 3..n and d in
    D_{1,n}, carrying a right action of the whole algebra and the bilinear
    form phi(x, y) = identity coefficient of h with x sigma(y) = E_1 h."""

    def __init__(self, n: int):
        if n < 2:
            raise CellError("the f=1 layer needs n >= 2")
        self.n = n
        window_perms = (
            [Perm(p, 3) for p in _iperms(range(3, n + 1))] if n >= 3 else [IDENTITY]
        )
        window_perms.sort(key=lambda w: (w.length(), w.word()))
        self.ws = window_perms
        self.reps = list(coset_reps_D(1, n))
        self.index = [(w, d) for w in self.ws for d in self.reps]
        self.pos = {
            NormalWord(1, IDENTITY, w, d): i
            for i, (w, d) in enumerate(self.index)
        }
        self.dim = len(self.index)
        self._elements: Optional[List[AlgebraElt]] = None
        self._act_cache: Dict[tuple, list] = {}
        self._gram: Optional[list] = None

    def _words(self) -> List[Tuple[int, ...]]:
        """Letters (a_1, ..., a_m) with basis vector (w, d) equal to
        E_1 T_{a_1} ... T_{a_m}: the word of w, then that of d."""
        return [w.word() + d.word() for w, d in self.index]

    def elements(self) -> List[AlgebraElt]:
        if self._elements is None:
            self._elements = [
                elt_from_letters([E1] + [T(i) for i in word], self.n)
                for word in self._words()
            ]
        return self._elements

    def vector(self, x: AlgebraElt) -> List[Coeff]:
        coords = [ZERO] * self.dim
        for wd, c in x.terms.items():
            if wd.f >= 2:
                continue
            if wd.f == 0:
                raise CellError("the f=1 layer is not closed: deficiency 0 term")
            if not wd.d1.is_identity():
                raise CellError("unexpected left coset part in the f=1 layer")
            coords[self.pos[NormalWord(1, IDENTITY, wd.w, wd.d2)]] += c
        return coords

    def act(self, g) -> list:
        """Matrix of the right action of a generator letter; row i is the
        image of basis vector i."""
        key = tuple(g)
        if key not in self._act_cache:
            self._act_cache[key] = [
                self.vector(right_mul_gen(e, g)) for e in self.elements()
            ]
        return self._act_cache[key]

    def gram(self) -> list:
        """Entry (i, j) is phi(x_i, x_j).  The column of E_1 comes from
        x_k . E_1 = E_1 h_k, whose identity coefficient is phi(x_k, E_1); by
        linearity, checking there that E_1 h_k stays in the Hecke window
        checks it for every pair."""
        if self._gram is None:
            ref = self.pos[NormalWord(1, IDENTITY, IDENTITY, IDENTITY)]
            base = []
            outside = [not d.is_identity() for _, d in self.index]
            for row in self.act(E1):
                if any(c for c, out in zip(row, outside) if out):
                    raise CellError("sandwiched product left the Hecke window")
                base.append(row[ref])
            self._gram = _gram_from_base(self.act, base, self._words())
        return self._gram


def v_form_gram(n: int) -> list:
    return VLayer(n).gram()


def coeff_is_z_free(c: Coeff) -> bool:
    return all(j == 0 for (_, j) in c.num) and all(j == 0 for (_, j) in c.den)


def v_form_entry_shapes(n: int) -> dict:
    """Check the predicted entry shapes of the f=1 form: diagonal entries are
    delta plus (q - q^{-1}) z (Laurent in q); off-diagonal entries are z
    times a Laurent polynomial in q alone."""
    from .coefficients import Z

    g = VLayer(n).gram()
    diag_ok = True
    off_ok = True
    for i in range(len(g)):
        for j in range(len(g)):
            if i == j:
                rest = (g[i][j] - DELTA) / (A * Z) if g[i][j] != DELTA else ZERO
                if rest and not coeff_is_z_free(rest):
                    diag_ok = False
            else:
                if g[i][j]:
                    rest = g[i][j] / Z
                    if not coeff_is_z_free(rest):
                        off_ok = False
    return {"n": n, "diagonal_ok": diag_ok, "off_diagonal_ok": off_ok}


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
    if any(r < len(lam) + 1 and mu[r] for r in range(len(lam), len(mu))):
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
    if e0 is None:
        return False
    if spec is None:
        return False
    if isinstance(spec, IntegerExponent):
        return 2 * spec.a == e0
    if isinstance(spec, NumericPoint):
        p = spec.characteristic
        if p == 0:
            from fractions import Fraction

            return Fraction(spec.z0) ** 2 == Fraction(spec.q0) ** e0
        q0 = spec.q0 % p
        z0 = spec.z0 % p
        qe = pow(q0, e0, p) if e0 >= 0 else pow(pow(q0, -1, p), -e0, p)
        return (z0 * z0 - qe) % p == 0
    raise CellError(f"unsupported specialization {spec!r}")


def specialized_gram(mod: CellModule, spec: Optional[Specialization]) -> list:
    g = mod.gram()
    if spec is None:
        return g
    return [[specialize(c, spec) for c in row] for row in g]


def _to_field(x, spec):
    """Wrap a specialized scalar so the linear algebra has field operations."""
    if isinstance(spec, NumericPoint) and spec.characteristic:
        return Fp(x, spec.characteristic)
    return x


def radical_dim(n: int, f: int, lam, spec: Optional[Specialization] = None) -> int:
    """Corank of the (possibly specialized) Gram matrix of C(f, lam)."""
    mod = cell_module(n, f, lam)
    g = specialized_gram(mod, spec)
    g = [[_to_field(x, spec) for x in row] for row in g]
    if not g:
        return 0
    return mod.dim - mat_rank(g)


def radical_factor_shape(n: int, mu, spec: Specialization):
    """For the label (1, mu): identify the shape lam with the radical of
    C(1, mu) isomorphic to the Hecke cell module of shape lam, by matching
    Jucys-Murphy traces on the radical.  Returns None when the radical is
    zero; raises CellError when the spectrum does not single out a shape."""
    mod = cell_module(n, 1, tuple(mu))
    g = specialized_gram(mod, spec)
    g = [[_to_field(x, spec) for x in row] for row in g]
    kern = kernel_basis(g)
    if not kern:
        return None
    # traces of each Jucys-Murphy element on the radical
    traces = []
    for k in range(1, n + 1):
        mk = [
            [_to_field(specialize(c, spec), spec) for c in row]
            for row in mod._terms_matrix(jm_terms(k, n))
        ]
        rows = []
        for v in kern:
            img = [
                sum((v[i] * mk[i][j] for i in range(mod.dim) if v[i]), start=v[0] - v[0])
                for j in range(mod.dim)
            ]
            coeffs = in_row_span(kern, img)
            if coeffs is None:
                raise CellError("radical is not invariant under L_k")
            rows.append(coeffs)
        tr = rows[0][0] - rows[0][0]
        for i in range(len(kern)):
            tr = tr + rows[i][i]
        traces.append(tr)
    # candidates: mu plus two boxes not in one column
    candidates = []
    for lam in partitions(sum(mu) + 2):
        try:
            if admissible_exponent(lam, mu) is None:
                continue
        except CellError:
            continue
        expected = []
        for k in range(1, n + 1):
            tk = None
            for u in std_tableaux(lam):
                path = [
                    tuple(
                        x
                        for x in (
                            sum(1 for e in row if e <= m) for row in u
                        )
                        if x
                    )
                    for m in range(n + 1)
                ]
                cu = ct_eigenvalue(UpDownTableau(path), k)
                val = _to_field(specialize(cu, spec), spec)
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
