"""Tests for cell modules: dimensions, Gram matrices, Jucys-Murphy
triangularity, restriction filtrations, the deficiency-one form, and
radicals at special parameter values."""

from itertools import permutations

import pytest
from conftest import hecke_product, hecke_scale, hecke_sum

from qbrauer.algebra import (
    E1,
    AlgebraElt,
    NormalWord,
    T,
    Tinv,
    e_index,
    elt_from_letters,
    generator_elt,
    get_engine,
    jm,
    mul,
    one_elt,
    right_mul_gen,
    sigma,
    tilde_e1,
)
from qbrauer.cells import (
    CellError,
    CellModule,
    VLayer,
    admissible,
    admissible_exponent,
    cell_module,
    ct_eigenvalue,
    murphy_expand,
    radical_dim,
    radical_factor_shape,
    specialized_gram,
    v_form_entry_shapes,
    y_element,
)
from qbrauer.coefficients import (
    A,
    DELTA,
    IntegerExponent,
    NumericPoint,
    ONE,
    Q,
    QINV,
    Z,
    ZERO,
    specialize,
)
from qbrauer.combinatorics import (
    IDENTITY,
    branching_list,
    coset_reps_D,
    coset_word,
    invert,
    labels,
    length,
    partitions,
    perm,
    seg_word,
    std_tableaux,
    ud_dominates,
    ud_key,
    ud_step,
    updown_tableaux,
)
from qbrauer.hecke import murphy_x, star, x_lambda
from qbrauer.linalg import mat_det, mat_mul


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
                exp = murphy_expand(window, h)
                assert exp.get((lam, s, t), ZERO) == ONE
                assert sum(1 for c in exp.values() if c) == 1


def test_murphy_expand_rebuilds_every_group_element():
    # windows of four and three letters, where a pass without a Jordan step
    # stores columns that are nonzero at later pivots
    for window in ((1, 4), (3, 5)):
        lo, hi = window
        for p in permutations(range(lo, hi + 1)):
            w = perm(p, lo)
            total = hecke_sum(*(
                hecke_scale(murphy_x(s, t, window), c)
                for (lam, s, t), c in murphy_expand(window, {w: ONE}).items()
            ))
            assert total == {w: ONE}


def test_murphy_expand_refuses_an_element_outside_its_window():
    # T_{s_1} has no pivot among the Murphy elements of the letters 3..4
    with pytest.raises(CellError, match="not in the span"):
        murphy_expand((3, 4), {perm((2, 1), 1): ONE})


def test_murphy_x_matches_its_formula():
    # x_st = T_{d(s)^-1} x_lam T_{d(t)}, multiplied out term by term
    # (murphy_x itself uses right products and star only); star swaps s, t
    for window in ((1, 4), (3, 5)):
        lo, hi = window
        for lam in partitions(hi - lo + 1):
            x = x_lambda(lam, window)
            for s in std_tableaux(lam, lo):
                left = hecke_product(window, {invert(coset_word(s)): ONE}, x)
                for t in std_tableaux(lam, lo):
                    got = murphy_x(s, t, window)
                    assert got == hecke_product(window, left, {coset_word(t): ONE})
                    assert star(got) == murphy_x(t, s, window)


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
    m = cell_module(3, 1, (1,))
    assert m.dim == 3
    assert len(m.index) == 3
    assert len(m.ud) == 3
    assert len(m.transition()) == 3
    ident = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert mat_mul(m.transition(), m.transition_inv()) == ident


def test_vector_refuses_a_component_off_the_superstandard_row():
    # x_{s, t^lam} with s != t^lam lies in the cell ideal but not in the row
    # x_{t^lam, .} the module is read from
    m = cell_module(3, 0, (2, 1))
    (s,) = [s for s in std_tableaux((2, 1), 1) if s != m.tlam]
    lift = AlgebraElt(3, {
        NormalWord(0, IDENTITY, w, IDENTITY): c
        for w, c in murphy_x(s, m.tlam, m.window).items()
    })
    with pytest.raises(CellError, match="left tableau"):
        m.vector(lift)


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
    assert mat_det(m.gram()) == DELTA
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
    poincare = sum((Q ** length(w)) * c for w, c in h.items())
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


def test_jm_off_diagonal_entries_point_up_the_order():
    # an entry at row t, column s of jm_matrix(k) needs s strictly above t:
    # at or above it at every level, and a different path
    entries = 0
    for n, f, lam in small_labels(4):
        m = cell_module(n, f, lam)
        for k in range(1, n + 1):
            for i, row in enumerate(m.jm_matrix(k)):
                for j, x in enumerate(row):
                    if x and j != i:
                        assert ud_dominates(m.ud[j], m.ud[i]), (n, f, lam, k, i, j)
                        entries += 1
    assert entries == 87


def test_check_triangular_flags_entries_the_order_does_not_allow():
    # a fresh module, so the patched jm_matrix does not reach the cached one
    m = CellModule(4, 1, (2,))
    pairs = [(i, j) for i in range(m.dim) for j in range(m.dim) if i != j]
    above = next(p for p in pairs if ud_dominates(m.ud[p[1]], m.ud[p[0]]))
    # above the diagonal of the sort, yet incomparable in the order
    i, j = next(
        (i, j)
        for i, j in pairs
        if i < j and not ud_dominates(m.ud[j], m.ud[i])
        and not ud_dominates(m.ud[i], m.ud[j])
    )
    k = 4
    mat = [
        [ct_eigenvalue(t, k) if r == c else ZERO for c in range(m.dim)]
        for r, t in enumerate(m.ud)
    ]
    mat[above[0]][above[1]] = ONE
    m.jm_matrix = lambda k: mat
    assert m.check_triangular(k)["ok"]
    mat[i][j] = A
    cert = m.check_triangular(k)
    assert cert["failures"] == [{"kind": "off-order", "row": i, "col": j, "value": str(A)}]
    assert not cert["ok"]
    assert cert["diagonal"] == [str(ct_eigenvalue(t, k)) for t in m.ud]


def test_triangular_order_sorts_by_deficiency_chain():
    ud = sorted(updown_tableaux(3, (1,)), key=ud_key)
    # the tableau staying at deficiency zero longest comes first
    fs = [sum(t[i]) for t in ud for i in (1,)]
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


def test_filtration_spectrum_reads_the_jm_diagonal(monkeypatch):
    # a wrong L_2 diagonal entry at the first basis vector must fail the
    # spectrum of its layer, the first run of self.ud: the last shape of
    # branching_list
    m = CellModule(4, 1, (2,))
    computed = m.jm_matrix

    def planted(k):
        mat = [list(row) for row in computed(k)]
        if k == 2:
            mat[0][0] = mat[0][0] + ONE
        return mat

    monkeypatch.setattr(m, "jm_matrix", planted)
    assert not m.check_triangular(2)["ok"]
    r = m.filtration_check()
    assert not r["ok"]
    mus = branching_list(1, (2,), 4)
    assert [fac["mu"] for fac in r["factors"] if not fac["spectrum_ok"]] == [
        list(mus[-1])
    ]
    assert r["contiguous"] and r["invariance_ok"] and r["total_dim_ok"]
    assert all(fac["dim_ok"] for fac in r["factors"])


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
    for n, f, lam in small_labels(3):
        mus = branching_list(f, lam, n)
        for mu in mus:
            y = y_element(f, lam, mu, n)
            assert y, (n, f, lam, mu)


def test_y_element_rejects_distant_shapes():
    with pytest.raises(CellError):
        y_element(1, (1,), (1,), 3)


def test_y_element_addition_needs_a_positive_deficiency():
    with pytest.raises(CellError, match="f >= 1"):
        y_element(0, (2,), (3,), 2)


# The path recursion written as left products, one left_mul_gen per letter
# and E_l as the product e_index(l, n) . m.  The module builds the same
# elements on sigma(m) by right products.


def _lmul_letters(eng, letters, m):
    for g in reversed(letters):
        m = eng.left_mul_gen(g, m)
    return m


def _lmul_e_index(eng, l, m):
    if l == 1:
        return eng.left_mul_gen(E1, m)
    return mul(e_index(l, eng.n), m)


def _m_elt_by_left_products(n, t):
    eng = get_engine(n)
    m = one_elt(n)
    for i in range(1, n + 1):
        kind, node = ud_step(t, i)
        shape = t[i]
        fi = (i - sum(shape)) // 2
        k = node[0]
        if kind == "add":
            a_k = 2 * fi + sum(shape[:k])
            a_km1 = 2 * fi + sum(shape[: k - 1])
            acc = AlgebraElt(n)
            for j in range(a_km1 + 1, a_k + 1):
                term = _lmul_letters(eng, [T(x) for x in seg_word(j, i)], m)
                acc = acc + term.scale(Q ** (a_k - j))
            m = acc
        else:
            b_k = 2 * fi - 1 + sum(shape[:k])
            m = _lmul_letters(
                eng, [Tinv(x) for x in reversed(seg_word(b_k, 2 * fi - 1))], m
            )
            m = _lmul_letters(
                eng, [Tinv(x) for x in reversed(seg_word(i, 2 * fi))], m
            )
            m = _lmul_e_index(eng, 2 * fi - 1, m)
    return m


def _x_lambda_lift(n, f, lam, window):
    return AlgebraElt(
        n,
        {
            NormalWord(f, IDENTITY, w, IDENTITY): c
            for w, c in x_lambda(lam, window).items()
        },
    )


def _y_element_by_left_products(f, lam, mu, n):
    eng = get_engine(n)
    if sum(mu) == sum(lam) - 1:
        k = next(
            r + 1 for r in range(len(lam)) if (mu[r] if r < len(mu) else 0) != lam[r]
        )
        x = _x_lambda_lift(n, f, lam, (2 * f + 1, n))
        for i in seg_word(2 * f + sum(lam[:k]), n):
            x = eng.right_mul_gen(x, T(i))
        return x
    k = next(r + 1 for r in range(len(mu)) if (lam[r] if r < len(lam) else 0) != mu[r])
    b_k = 2 * f - 1 + sum(lam[:k])
    head = _lmul_e_index(eng, 2 * f - 1, one_elt(n))
    for x in reversed(seg_word(n, 2 * f)):
        head = eng.right_mul_gen(head, Tinv(x))
    for x in reversed(seg_word(b_k, 2 * f - 1)):
        head = eng.right_mul_gen(head, Tinv(x))
    return mul(head, _x_lambda_lift(n, f - 1, mu, (2 * f - 1, n - 1)))


def test_jm_lifts_and_y_elements_match_left_products():
    for n, f, lam in labels_upto(4):
        mod = cell_module(n, f, lam)
        expected = [_m_elt_by_left_products(n, t) for t in mod.ud]
        assert mod.jm_elements() == expected, (n, f, lam)
        mus = branching_list(f, lam, n)
        for mu in mus:
            got = y_element(f, lam, mu, n)
            assert got == _y_element_by_left_products(f, lam, mu, n), (n, f, lam, mu)


def test_y_element_addition_inverts_the_positive_word():
    # y^lam_mu = E_{2f-1} (T_{b_k,2f-1} T_{n,2f})^{-1} E^{f-1} x_mu, the
    # inverse formed by reversing the positive letters and inverting each
    deciding = 0
    for n, f, lam in labels_upto(5):
        mus = branching_list(f, lam, n)
        for mu in mus:
            if sum(mu) != sum(lam) + 1:
                continue
            k = next(
                r + 1 for r in range(len(mu)) if (lam[r] if r < len(lam) else 0) != mu[r]
            )
            b_k = 2 * f - 1 + sum(lam[:k])
            positive = seg_word(b_k, 2 * f - 1) + seg_word(n, 2 * f)
            inverse = elt_from_letters([Tinv(x) for x in reversed(positive)], n)
            lift = _x_lambda_lift(n, f - 1, mu, (2 * f - 1, n - 1))
            want = mul(mul(e_index(2 * f - 1, n), inverse), lift)
            assert y_element(f, lam, mu, n) == want, (n, f, lam, mu)
            if n - 2 * f >= 2:  # where the letter order matters
                deciding += 1
    assert deciding


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
        want = [
            [mul(x, sigma(y)).get(ident, ZERO) for y in elts] for x in elts
        ]
        assert v.gram() == want, n


def test_v_form_entry_shapes():
    for n in (2, 3, 4):
        r = v_form_entry_shapes(n)
        assert r["diagonal_ok"], r
        assert r["off_diagonal_ok"], r


def test_v_form_entry_shapes_refuse_a_denominator(monkeypatch):
    def shapes_of(off):
        planted = [[DELTA + A * off, off], [off, DELTA]]
        monkeypatch.setattr(VLayer, "gram", lambda self: planted)
        r = v_form_entry_shapes(3)
        return r["diagonal_ok"], r["off_diagonal_ok"]

    # z/(q^2 + 1) is z-free after dividing by z, but no Laurent polynomial
    assert shapes_of(Z / (Q * Q + ONE)) == (False, False)
    assert shapes_of(Z * (Q + QINV)) == (True, True)


def test_v_form_gram_dimensions():
    # dimension = (2n-3)!! * ... : count of deficiency-one normal words
    assert len(VLayer(2).gram()) == 1
    assert len(VLayer(3).gram()) == 3


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
    # (1, 1) has a second row that (4,) lacks
    with pytest.raises(CellError, match="not contained"):
        admissible_exponent((4,), (1, 1))


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


def test_radical_traces_refuse_a_subspace_that_is_not_invariant(monkeypatch):
    # the traces read coordinates off the free columns, so each image must
    # still be compared with the combination read off: here the last coset
    # line of C(1, (1)), which L_k does not preserve, stands in for the radical
    def last_line(m):
        return [[ONE if j == len(m) - 1 else ZERO for j in range(len(m))]]

    monkeypatch.setattr("qbrauer.cells.kernel_basis", last_line)
    with pytest.raises(CellError, match="not invariant"):
        radical_factor_shape(3, (1,), IntegerExponent(1))


def _shape_or_error(n, mu, spec):
    try:
        return radical_factor_shape(n, mu, spec)
    except CellError as exc:
        return f"CellError: {exc}"


def test_radical_over_prime_field_matches_integer_exponent():
    # z0 = q0^a in F_10007 against z = q^a in Q(q); a = 0 (z0 = 1, delta = 0)
    # is not a valid numeric point
    p, q0 = 10007, 3
    bad = []
    for n in (3, 4):
        for mu in partitions(n - 2):
            for a in range(-5, 5):
                if a == 0:
                    continue
                point = NumericPoint(p, q0, pow(q0, a, p))
                sym = IntegerExponent(a)
                corank = radical_dim(n, 1, mu, sym)
                assert radical_dim(n, 1, mu, point) == corank, (n, mu, a)
                assert _shape_or_error(n, mu, point) == _shape_or_error(
                    n, mu, sym
                ), (n, mu, a)
                if corank:
                    bad.append((n, mu, a))
    # the admissible exponents a != 0 of criterion 9 at ranks 3 and 4
    assert bad == [
        (3, (1,), -2),
        (3, (1,), 1),
        (4, (2,), -4),
        (4, (2,), 2),
        (4, (1, 1), -2),
        (4, (1, 1), 2),
    ]
