"""Acceptance suite: one test per acceptance criterion, so the verbose
report shows a single pass/fail line for each.

1.  basis closure at ranks 2..5 with exactly (2n-1)!! normal words
2.  defining relations hold in the regular representation, ranks 2..5
3.  agreement with the free-quotient oracle on all products, ranks 2..3
4.  commuting family: commutativity, non-centrality witness, triangular
    action with content eigenvalues, rank-2 closed form
5.  cell module dimensions match up-down tableau counts, ranks 2..6
6.  restriction filtration identified for every label, ranks 2..5
7.  bad-exponent scans, ranks 2..4 (rank 5 in a separate optional test)
8.  non-semisimplicity at small quantum characteristic
9.  radical is nonzero exactly at admissible exponents, with the factor
    shape identified by its spectrum, ranks 3..4
10. form on the deficiency-one layer: commutation and entry shapes
11. classical limit reproduces the diagram-algebra structure constants
12. image dimension under the corner-idempotent functor, ranks 2..5
"""

from fractions import Fraction

import pytest

from qbrauer.algebra import (
    E1,
    AlgebraElt,
    T,
    Tinv,
    all_normal_words,
    elt_from_letters,
    generator_elt,
    get_engine,
    jm,
    mul,
    tilde_e1,
)
from qbrauer.cells import (
    CellError,
    VLayer,
    admissible_exponent,
    cell_module,
    radical_dim,
    radical_factor_shape,
    v_form_entry_shapes,
)
from qbrauer.cli import _relation_pairs
from qbrauer.coefficients import (
    A,
    DELTA,
    IntegerExponent,
    NumericPoint,
    ONE,
    Q,
    QINV,
    Z,
    ZINV,
    classical_limit,
    quantum_characteristic,
)
from qbrauer.combinatorics import (
    coset_reps_D,
    labels,
    partitions,
    std_tableaux,
    updown_tableaux,
)
from qbrauer.linalg import mat_mul
from qbrauer.oracle import (
    FreeQuotientOracle,
    brauer_mul,
    diagram_of_letters,
)
from qbrauer.semisimple import brute_semisimple, scan


def double_factorial(n):
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def test_criterion_01_basis_closure():
    for n in (2, 3, 4, 5):
        words = all_normal_words(n)
        assert len(words) == double_factorial(n)
        assert len(set(words)) == len(words)
        eng = get_engine(n)
        allowed = set(words)
        gens = [T(i) for i in range(1, n)] + [Tinv(i) for i in range(1, n)] + [E1]
        for w in words:
            x = AlgebraElt(n, {w: ONE})
            for g in gens:
                assert set(eng.right_mul_gen(x, g).terms) <= allowed


def test_criterion_02_defining_relations():
    for n in (2, 3, 4, 5):
        eng = get_engine(n)
        words = all_normal_words(n)
        for _, left, right in _relation_pairs(n):
            for w in words:
                x = AlgebraElt(n, {w: ONE})
                assert eng.apply_letters(x, left) == eng.apply_letters(x, right)
        e1 = generator_elt(E1, n)
        assert mul(e1, e1) == e1.scale(DELTA)
        assert mul(generator_elt(T(1), n), e1) == e1.scale(Q)
        assert mul(e1, generator_elt(T(1), n)) == e1.scale(Q)
        if n >= 3:
            assert elt_from_letters([E1, T(2), E1], n) == e1.scale(Z)
            assert elt_from_letters([E1, Tinv(2), E1], n) == e1.scale(ZINV)


def _oracle_image(word, orc, n):
    vec = {(): ONE}
    for g in get_engine(n).word_letters(word):
        if g == E1:
            vec = orc.mul(vec, {("E",): ONE})
        elif g[0] == "T":
            vec = orc.mul(vec, {(f"T{g[1]}",): ONE})
        else:  # T_i^{-1} = T_i - (q - q^{-1})
            vec = orc.mul(vec, {(f"T{g[1]}",): ONE, (): -A})
    return vec


def test_criterion_03_oracle_agreement():
    for n in (2, 3):
        orc = FreeQuotientOracle(n)
        words = all_normal_words(n)
        images = {w: _oracle_image(w, orc, n) for w in words}
        for x in words:
            for y in words:
                prod = mul(AlgebraElt(n, {x: ONE}), AlgebraElt(n, {y: ONE}))
                mapped = {}
                for w, c in prod.terms.items():
                    for ow, oc in images[w].items():
                        v = mapped.get(ow, None)
                        v = c * oc if v is None else v + c * oc
                        if v:
                            mapped[ow] = v
                        else:
                            mapped.pop(ow, None)
                assert mapped == orc.mul(images[x], images[y]), (x, y)


def test_criterion_04_commuting_family():
    # pairwise commutativity at all ranks
    for n in (2, 3, 4, 5):
        ls = [jm(i, n) for i in range(2, n + 1)]
        for a in range(len(ls)):
            for b in range(a + 1, len(ls)):
                assert mul(ls[a], ls[b]) == mul(ls[b], ls[a])
    # the sum is not central at rank 4
    n = 4
    total = AlgebraElt(n)
    for i in range(2, n + 1):
        total = total + jm(i, n)
    assert any(
        mul(total, generator_elt(g, n)) != mul(generator_elt(g, n), total)
        for g in (T(1), T(2), T(3), E1)
    )
    # triangular action with content eigenvalues, every label and position
    for n in (2, 3, 4, 5):
        for f, lam in labels(n):
            m = cell_module(n, f, lam)
            for k in range(1, n + 1):
                cert = m.check_triangular(k)
                assert cert["ok"], cert
    # rank-2 closed form: eigenvalue (q^2 z^-2 - 1)/(q - q^-1)
    val = cell_module(2, 1, ()).jm_matrix(2)[0][0]
    assert val == (Q * Q * ZINV * ZINV - ONE) / (Q - QINV)


def test_criterion_05_dimensions():
    for n in range(2, 7):
        for f, lam in labels(n):
            m = cell_module(n, f, lam)
            expected = len(coset_reps_D(f, n)) * len(std_tableaux(lam, 2 * f + 1))
            assert m.dim == expected
            assert m.dim == len(updown_tableaux(n, lam))


def test_criterion_06_branching_filtration():
    for n in (2, 3, 4, 5):
        for f, lam in labels(n):
            r = cell_module(n, f, lam).filtration_check()
            assert r["ok"], r


def test_criterion_07_bad_exponent_scan():
    assert scan(2, -2, 2) == {0}
    assert scan(3, -4, 3) == {-2, 0, 1}
    assert scan(4, -6, 4) == {-4, -2, 0, 1, 2}


@pytest.mark.slow
def test_criterion_07_optional_rank_five_scan():
    assert scan(5, -8, 5) == {-6, -4, -2, -1, 0, 1, 2, 3}


def test_criterion_08_small_quantum_characteristic():
    p = 1009
    q0 = next(c for c in range(2, p) if quantum_characteristic(p, c) == 3)
    v = brute_semisimple(3, NumericPoint(p, q0, pow(q0, 5, p)))
    assert v["verdict"] == "not semisimple"
    assert v["predicted"] is False


def _contains(lam, mu):
    rows = max(len(lam), len(mu))
    return all(
        (mu[i] if i < len(mu) else 0) <= (lam[i] if i < len(lam) else 0)
        for i in range(rows)
    )


def test_criterion_09_admissibility_iff_radical():
    for n in (3, 4):
        for mu in partitions(n - 2):
            cands = {}
            for lam in partitions(n):
                if not _contains(lam, mu):
                    continue
                e0 = admissible_exponent(lam, mu)
                if e0 is not None:
                    cands.setdefault(e0 // 2, []).append(lam)
            for a in range(-5, 5):
                corank = radical_dim(n, 1, mu, IntegerExponent(a))
                assert (corank > 0) == (a in cands), (n, mu, a, corank)
                if a in cands and len(cands[a]) == 1:
                    shape = radical_factor_shape(n, mu, IntegerExponent(a))
                    assert shape == cands[a][0], (n, mu, a, shape)


def test_criterion_10_deficiency_one_form():
    for n in (3, 4):
        v = VLayer(n)
        g = v.gram()
        for k in range(1, n):
            ak = v.act(T(k))
            assert mat_mul(g, ak) == mat_mul(ak, g), (n, k)
        shapes = v_form_entry_shapes(n)
        assert shapes["diagonal_ok"], shapes
        assert shapes["off_diagonal_ok"], shapes


def test_criterion_11_classical_limit():
    n = 3
    words = all_normal_words(n)
    diagrams = {}
    for w in words:
        d, loops = diagram_of_letters(get_engine(n).word_letters(w), n)
        assert loops == 0
        diagrams[w] = d
    assert len(set(diagrams.values())) == len(words)
    for a in (-2, -1, 0, 1, 2, 3):
        # the loop parameter is the limit of delta at z = q^a
        assert classical_limit(DELTA, a) == Fraction(a)
        for x in words:
            for y in words:
                prod = mul(AlgebraElt(n, {x: ONE}), AlgebraElt(n, {y: ONE}))
                target, factor = brauer_mul(diagrams[x], diagrams[y], n, a)
                for w, c in prod.terms.items():
                    lim = classical_limit(c, a)
                    expect = factor if diagrams[w] == target else Fraction(0)
                    assert lim == expect, (a, x, y, w)


def test_criterion_12_functor_image_dimension():
    for n in (2, 3, 4, 5):
        for f, lam in labels(n):
            r = cell_module(n, f, lam).functor_F_check()
            assert r["ok"], r
