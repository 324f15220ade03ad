"""Tests for cell modules: dimensions, Gram matrices, Jucys-Murphy
triangularity, restriction filtrations, the deficiency-one form, and
radicals at special parameter values."""

import pytest

from qbrauer.algebra import (
    E1,
    NormalWord,
    T,
    Tinv,
    generator_elt,
    jm,
    mul,
    right_mul_gen,
    sigma,
    tilde_e1,
)
from qbrauer.cells import (
    CellError,
    VLayer,
    admissible,
    admissible_exponent,
    cell_basis,
    cell_module,
    murphy_expand,
    radical_dim,
    radical_factor_shape,
    specialized_gram,
    triangular_ud_key,
    v_form_entry_shapes,
    v_form_gram,
    y_element,
)
from qbrauer.coefficients import (
    A,
    DELTA,
    IntegerExponent,
    NumericPoint,
    ONE,
    Q,
    ZERO,
    specialize,
)
from qbrauer.combinatorics import (
    IDENTITY,
    coset_reps_D,
    labels,
    partitions,
    std_tableaux,
    updown_tableaux,
)
from qbrauer.hecke import hecke_T, murphy_x, x_lambda
from qbrauer.linalg import mat_det, mat_mul, mat_rank


def small_labels(n_max):
    for n in range(2, n_max + 1):
        for f, lam in labels(n):
            yield n, f, lam


# ---------------------------------------------------------------------------
# Murphy decomposition
# ---------------------------------------------------------------------------


def test_murphy_expand_roundtrip():
    window = (1, 3)
    for lam in partitions(3):
        for s in std_tableaux(lam, 1):
            for t in std_tableaux(lam, 1):
                h = murphy_x(s, t, window)
                exp = murphy_expand(h)
                assert exp.get((lam, s, t), ZERO) == ONE
                assert sum(1 for c in exp.values() if c) == 1


def test_murphy_expand_rejects_non_member():
    # T_1 alone is not in the span of the Murphy basis of the window (1, 2)?
    # It is (the basis spans the whole Hecke algebra), so use a genuine
    # non-member: the zero-extended element of a larger window restricted
    # wrongly is impossible to build, so instead check a random element IS
    # expandable (the Murphy basis is a basis).
    from qbrauer.combinatorics import perm_from_word

    h = hecke_T(perm_from_word([]), (1, 3)) + hecke_T(
        perm_from_word([1, 2, 1]), (1, 3)
    ).scale(Q)
    exp = murphy_expand(h)
    total = None
    for (lam, s, t), c in exp.items():
        term = murphy_x(s, t, (1, 3)).scale(c)
        total = term if total is None else total + term
    assert total.terms == h.terms


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_dimensions_match_updown_count():
    for n, f, lam in small_labels(6):
        m = cell_module(n, f, lam)
        expected = len(coset_reps_D(f, n)) * len(std_tableaux(lam, 2 * f + 1))
        assert m.dim == expected
        assert m.dim == len(updown_tableaux(n, lam))


def test_cell_basis_shape():
    b = cell_basis(3, 1, (1,))
    assert b["dim"] == 3
    assert len(b["coset"]) == 3
    assert len(b["jm"]) == 3
    assert len(b["transition"]) == 3
    ident = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert mat_mul(b["transition"], b["transition_inv"]) == ident


# ---------------------------------------------------------------------------
# the action is a representation
# ---------------------------------------------------------------------------


def gens(n):
    out = [E1] + [T(i) for i in range(1, n)]
    return out


def test_action_respects_products():
    for n, f, lam in small_labels(4):
        m = cell_module(n, f, lam)
        for g in gens(n):
            for h in gens(n):
                prod = mul(generator_elt(g, n), generator_elt(h, n))
                lhs = mat_mul(m.act(g), m.act(h))
                assert lhs == m.act_elt(prod), (n, f, lam, g, h)


# The algebra-product route: reduce each lifted basis element times y.  The
# module computes the same matrices from its cached generator matrices.


def product_route(mod, lifts, y):
    return [mod.vector(mul(e, y)) for e in lifts]


def labels_upto(n_max):
    for n in range(1, n_max + 1):
        for f, lam in labels(n):
            yield n, f, lam


def test_act_elt_matches_algebra_products():
    for n, f, lam in labels_upto(4):
        m = cell_module(n, f, lam)
        ys = [jm(k, n) for k in range(1, n + 1)]
        if n >= 2:
            ys.append(mul(generator_elt(E1, n), generator_elt(T(n - 1), n)))
        if n >= 3:
            ys.append(tilde_e1(n))
        for y in ys:
            assert m.act_elt(y) == product_route(m, m.elements(), y), (n, f, lam)


def test_jm_matrix_matches_algebra_products():
    for n, f, lam in labels_upto(4):
        m = cell_module(n, f, lam)
        for k in range(1, n + 1):
            rows = product_route(m, m.jm_elements(), jm(k, n))
            want = mat_mul(rows, m.transition_inv())
            assert m.jm_matrix(k) == want, (n, f, lam, k)


def test_filtration_matrices_match_algebra_products():
    for n, f, lam in labels_upto(4):
        m = cell_module(n, f, lam)
        sub_gens = [T(i) for i in range(1, n - 1)] + ([E1] if n >= 3 else [])
        for g in sub_gens:
            rows = [m.vector(right_mul_gen(e, g)) for e in m.jm_elements()]
            want = mat_mul(rows, m.transition_inv())
            assert m._in_jm_basis(m.act(g)) == want, (n, f, lam, g)


def test_act_elt_rejects_another_rank():
    with pytest.raises(CellError):
        cell_module(3, 1, (1,)).act_elt(jm(2, 4))


def test_action_satisfies_defining_relations():
    for n, f, lam in small_labels(4):
        m = cell_module(n, f, lam)
        dim = m.dim
        ident = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
        e = m.act(E1)
        # E_1^2 = delta E_1
        assert mat_mul(e, e) == [[DELTA * c for c in row] for row in e]
        for i in range(1, n):
            t = m.act(T(i))
            # T_i^2 = (q - q^{-1}) T_i + 1
            sq = mat_mul(t, t)
            aff = [
                [A * t[r][c] + ident[r][c] for c in range(dim)]
                for r in range(dim)
            ]
            assert sq == aff, (n, f, lam, i)
        for i in range(1, n - 1):
            a, b = m.act(T(i)), m.act(T(i + 1))
            assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def test_gram_one_throughline():
    m = cell_module(2, 1, ())
    assert m.gram() == [[DELTA]]
    assert m.gram_det() == DELTA
    assert m.act(E1) == [[DELTA]]
    assert m.act(T(1)) == [[Q]]


def test_gram_row_shape_is_poincare():
    # the trivial-deficiency one-row module is one dimensional with Gram
    # entry the Poincare polynomial of the symmetric group
    m = cell_module(2, 0, (2,))
    assert m.gram() == [[ONE + Q * Q]]
    m3 = cell_module(3, 0, (3,))
    expected = ONE
    from qbrauer.hecke import x_lambda as _x

    h = _x((3,), (1, 3))
    poincare = sum((Q ** w.length()) * c for w, c in h.terms.items())
    assert m3.gram() == [[poincare]]


def test_gram_symmetric_and_sigma_invariant():
    for n, f, lam in small_labels(4):
        m = cell_module(n, f, lam)
        g = m.gram()
        for i in range(m.dim):
            for j in range(i):
                assert g[i][j] == g[j][i], (n, f, lam, i, j)


def test_gram_contracts_action():
    # <x . a, y> = <x, y . sigma(a)> reads A_a G = G A_{sigma(a)}^tr, and
    # sigma fixes T_i, T_i^-1 and E_1.
    for n, f, lam in small_labels(4):
        m = cell_module(n, f, lam)
        g = m.gram()
        for gen in gens(n) + [Tinv(i) for i in range(1, n)]:
            ax = m.act(gen)
            assert mat_mul(ax, g) == mat_mul(g, _transpose(ax)), (n, f, lam, gen)


def test_gram_matches_algebra_products():
    # the product route: element_i . sigma(element_j) reduced in the module
    # is a multiple of the reference basis vector E^f x_lam
    for n, f, lam in labels_upto(4):
        m = cell_module(n, f, lam)
        ref = m.pos[(m.tlam, IDENTITY)]
        elts = m.elements()
        want = []
        for x in elts:
            row = []
            for y in elts:
                coords = m.vector(mul(x, sigma(y)))
                assert all(not c for k, c in enumerate(coords) if k != ref)
                row.append(coords[ref])
            want.append(row)
        assert m.gram() == want, (n, f, lam)


def _transpose(m):
    return [list(row) for row in zip(*m)]


def test_specialized_gram_det_nonzero_generic():
    m = cell_module(2, 1, ())
    g = specialized_gram(m, IntegerExponent(3))
    assert mat_det(g)  # delta at z = q^3 is nonzero


# ---------------------------------------------------------------------------
# Jucys-Murphy triangularity
# ---------------------------------------------------------------------------


def test_jm_matrix_examples():
    m = cell_module(2, 1, ())
    j = m.jm_matrix(2)
    zi2 = specialize(j[0][0], IntegerExponent(0))
    # at z = 1 the entry is (q^2 - 1)/(q - q^{-1}) = q
    assert zi2 == Q
    m2 = cell_module(2, 0, (2,))
    assert m2.jm_matrix(1) == [[ZERO]]
    assert m2.jm_matrix(2) == [[Q]]


def test_triangularity_all_labels_small():
    for n, f, lam in small_labels(4):
        m = cell_module(n, f, lam)
        for k in range(1, n + 1):
            cert = m.check_triangular(k)
            assert cert["ok"], cert


@pytest.mark.slow
def test_triangularity_rank_five():
    for f, lam in labels(5):
        m = cell_module(5, f, lam)
        for k in range(1, 6):
            cert = m.check_triangular(k)
            assert cert["ok"], cert


def test_triangular_order_sorts_by_deficiency_chain():
    ud = sorted(updown_tableaux(3, (1,)), key=triangular_ud_key)
    # the tableau staying at deficiency zero longest comes first
    fs = [sum(t.shapes[i]) for t in ud for i in (1,)]
    assert fs == sorted(fs, reverse=True)


# ---------------------------------------------------------------------------
# restriction filtration
# ---------------------------------------------------------------------------


def test_filtration_all_labels_small():
    for n, f, lam in small_labels(4):
        m = cell_module(n, f, lam)
        r = m.filtration_check()
        assert r["ok"], r


@pytest.mark.slow
def test_filtration_rank_five():
    for f, lam in labels(5):
        m = cell_module(5, f, lam)
        r = m.filtration_check()
        assert r["ok"], r


def test_filtration_examples():
    r = cell_module(3, 1, (1,)).filtration_check()
    assert sum(fac["dim"] for fac in r["factors"]) == 3
    r = cell_module(4, 2, ()).filtration_check()
    assert len(r["factors"]) == 1
    assert r["factors"][0]["dim"] == 3


# ---------------------------------------------------------------------------
# induction functor dimensions
# ---------------------------------------------------------------------------


def test_functor_image_dimensions():
    for n, f, lam in small_labels(4):
        r = cell_module(n, f, lam).functor_F_check()
        assert r["ok"], r


@pytest.mark.slow
def test_functor_image_dimensions_rank_five():
    for f, lam in labels(5):
        r = cell_module(5, f, lam).functor_F_check()
        assert r["ok"], r


# ---------------------------------------------------------------------------
# transition elements between branching layers
# ---------------------------------------------------------------------------


def test_y_element_nonzero():
    from qbrauer.combinatorics import branching_list

    for n, f, lam in small_labels(3):
        mus, split = branching_list(f, lam, n)
        for mu in mus:
            y = y_element(f, lam, mu, n)
            assert not y.is_zero(), (n, f, lam, mu)


def test_y_element_rejects_distant_shapes():
    with pytest.raises(CellError):
        y_element(1, (1,), (1,), 3)


# ---------------------------------------------------------------------------
# the form on the deficiency-one layer
# ---------------------------------------------------------------------------


def test_v_layer_gram_symmetric_and_action_selfadjoint():
    for n in (2, 3, 4):
        v = VLayer(n)
        g = v.gram()
        assert g == _transpose(g)
        for k in range(1, n):
            ak = v.act(T(k))
            assert ak == _transpose(ak), (n, k)
            assert mat_mul(g, ak) == mat_mul(ak, g), (n, k)


def test_v_layer_gram_matches_algebra_products():
    # phi(x, y) is the identity coefficient of x . sigma(y) = E_1 h
    for n in (2, 3, 4):
        v = VLayer(n)
        ident = NormalWord(1, IDENTITY, IDENTITY, IDENTITY)
        elts = v.elements()
        want = [[mul(x, sigma(y)).coeff(ident) for y in elts] for x in elts]
        assert v.gram() == want, n


def test_v_form_entry_shapes():
    for n in (2, 3, 4):
        r = v_form_entry_shapes(n)
        assert r["diagonal_ok"], r
        assert r["off_diagonal_ok"], r


def test_v_form_gram_dimensions():
    # dimension = (2n-3)!! * ... : count of deficiency-one normal words
    assert len(v_form_gram(2)) == 1
    assert len(v_form_gram(3)) == 3


# ---------------------------------------------------------------------------
# admissibility and radicals
# ---------------------------------------------------------------------------


def test_admissible_exponent_examples():
    # two boxes in one row of the first row: contents 0 and 1
    assert admissible_exponent((2,), ()) == 0
    # a vertical domino is never admissible
    assert admissible_exponent((1, 1), ()) is None
    # skew boxes of (2,1)/(1) have contents 1 and -1, so z^2 = q^2
    assert admissible_exponent((2, 1), (1,)) == 2


def test_admissible_with_specialization():
    assert admissible((2,), (), IntegerExponent(0)) is True
    assert admissible((2,), (), IntegerExponent(1)) is False
    assert admissible((1, 1), (), IntegerExponent(0)) is False
    # symbolic parameters never satisfy an algebraic relation
    assert admissible((2,), ()) is False


def test_radical_trivial_at_generic_exponent():
    assert radical_dim(2, 1, (), IntegerExponent(3)) == 0
    assert radical_dim(2, 1, (), IntegerExponent(0)) == 1


def test_radical_factor_identified():
    # at z = q the deficiency-one module of rank 3 has a radical whose
    # head comes from the cell labelled by the admissible shape (2, 1)
    spec = IntegerExponent(1)
    assert radical_dim(3, 1, (1,), spec) >= 1
    assert radical_factor_shape(3, (1,), spec) == (2, 1)


def test_radical_factor_rank_four():
    # mu = (2): admissible lam with z^2 = q^{e0}: skew (3,1)/(2) has
    # contents 2, -1 -> e0 = 0; skew (2,2)/(2) has contents 1, 0 -> e0 = 0
    # so test mu = () at rank 4 deficiency 2 ... use the rank-4 analogue of
    # the rank-3 case instead: mu = (2), lam = (3, 1)? e0((3,1)/(2)) =
    # 2 - 2(2 + (-1)) = 0 and e0((2,2)/(2)) = 2 - 2(1 + 0) = 0: both shapes
    # collide at a = 0, so the factor shape is ambiguous there and the
    # identification is expected to raise.
    spec = IntegerExponent(0)
    try:
        shape = radical_factor_shape(4, (2,), spec)
        # if identification succeeds it must name an admissible shape
        assert admissible(shape, (2,), spec)
    except CellError:
        pass
