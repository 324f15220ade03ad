"""Property tests of the exact linear algebra over F_7, F_10007 and Q, on
matrices up to 4x4, against definitions: the Leibniz determinant, A^-1 A = I,
rank(A) = rank(A^T), the left kernel, row-span membership and the naive
triple-loop product.  Over Q(q) the determinant and the inverse are checked
on Laurent polynomials of unequal term counts, where the pivot with the
fewest terms is often not the first nonzero entry of its column."""

from fractions import Fraction
from itertools import permutations

import pytest
from conftest import transpose
from hypothesis import given, settings, strategies as st

from qbrauer.coefficients import ONE, Q, ZERO, Fp
from qbrauer.linalg import (
    LinAlgError,
    _echelon,
    in_row_span,
    kernel_basis,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_rank,
)

# each field by its map from the integers
FIELDS = {
    "F7": lambda k: Fp(k, 7),
    "F10007": lambda k: Fp(k, 10007),
    "Q": Fraction,
}

# small numerators give many singular matrices over every field
numerators = st.integers(min_value=-3, max_value=3)
denominators = st.integers(min_value=1, max_value=3)
dims = st.integers(min_value=1, max_value=4)


@st.composite
def elements(draw, field):
    return field(draw(numerators)) / field(draw(denominators))


@st.composite
def matrices(draw, rows=None, cols=None, field=None):
    if field is None:
        field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    m = [[draw(elements(field)) for _ in range(cols)] for _ in range(rows)]
    return m, field


@st.composite
def square_matrices(draw):
    n = draw(dims)
    return draw(matrices(rows=n, cols=n))


def leibniz(m, field):
    total = field(0)
    for perm in permutations(range(len(m))):
        inversions = sum(
            1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i]
        )
        term = field(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


def naive_mul(a, b, field):
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), field(0))
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def vec_times(v, m, field):
    return naive_mul([v], m, field)[0]


property_test = settings(deadline=None, max_examples=150)


@property_test
@given(square_matrices())
def test_det_matches_leibniz(arg):
    m, field = arg
    got = mat_det(m)
    assert got == leibniz(m, field)
    assert type(got) is type(field(1))


@property_test
@given(square_matrices())
def test_inverse_times_matrix_is_identity_or_singular(arg):
    m, field = arg
    n = len(m)
    if not leibniz(m, field):
        with pytest.raises(LinAlgError):
            mat_inverse(m)
        return
    ident = [[field(int(i == j)) for j in range(n)] for i in range(n)]
    assert naive_mul(mat_inverse(m), m, field) == ident


@st.composite
def laurent_matrices(draw):
    n = draw(dims)
    terms = st.lists(st.tuples(numerators, st.integers(-2, 2)), max_size=3)
    return [
        [sum((c * Q**e for c, e in draw(terms)), ZERO) for _ in range(n)]
        for _ in range(n)
    ]


def coeff(k):
    return k * ONE


@settings(deadline=None, max_examples=60)
@given(laurent_matrices())
def test_det_and_inverse_over_q_of_q_follow_the_definitions(m):
    det = mat_det(m)
    assert det == leibniz(m, coeff)
    if det:
        ident = [[coeff(int(i == j)) for j in range(len(m))] for i in range(len(m))]
        assert naive_mul(mat_inverse(m), m, coeff) == ident


def test_elimination_pivots_on_the_entry_with_the_fewest_terms():
    # q + 1 has three terms (two over one) and 1 has two, so row 1 is the
    # pivot of column 0, and its swap flips the determinant's sign
    m = [[Q + ONE, ONE], [ONE, ZERO]]
    rows, swaps, pivots = _echelon(m)
    assert rows[0] == [ONE, ZERO] and swaps == 1 and pivots == [0, 1]
    assert mat_det(m) == -ONE
    # F_p entries all tie, and a tie keeps the first nonzero row
    rows, swaps, _ = _echelon([[Fp(0, 7)], [Fp(3, 7)], [Fp(1, 7)]])
    assert rows[0] == [Fp(3, 7)] and swaps == 1


@property_test
@given(matrices())
def test_rank_of_transpose(arg):
    m, _ = arg
    assert mat_rank(m) == mat_rank(transpose(m))


@property_test
@given(matrices())
def test_kernel_basis_is_a_basis_of_the_left_kernel(arg):
    m, field = arg
    kern = kernel_basis(m)
    assert len(kern) == len(m) - mat_rank(m)
    zero = [field(0)] * len(m[0])
    for v in kern:
        assert vec_times(v, m, field) == zero
    if kern:
        assert mat_rank(kern) == len(kern)
    # each vector is one at its free column, its last nonzero entry, and
    # zero at the other vectors' free columns
    free = [max(j for j, x in enumerate(v) if x) for v in kern]
    for i, v in enumerate(kern):
        assert [v[j] for j in free] == [field(int(k == i)) for k in range(len(kern))]


@property_test
@given(matrices(), st.data())
def test_in_row_span_rebuilds_the_vector(arg, data):
    span, field = arg
    c = [data.draw(elements(field)) for _ in span]
    v = vec_times(c, span, field)
    got = in_row_span(span, v)
    assert got is not None
    assert vec_times(got, span, field) == v


@property_test
@given(matrices(), st.data())
def test_in_row_span_refuses_a_vector_off_the_span(arg, data):
    span, field = arg
    v = [data.draw(elements(field)) for _ in span[0]]
    on_span = mat_rank(span + [v]) == mat_rank(span)
    assert (in_row_span(span, v) is not None) == on_span


@property_test
@given(st.data())
def test_sparse_product_matches_triple_loop(data):
    rows, inner, cols = data.draw(dims), data.draw(dims), data.draw(dims)
    a, field = data.draw(matrices(rows=rows, cols=inner))
    b, _ = data.draw(matrices(rows=inner, cols=cols, field=field))
    assert mat_mul(a, b) == naive_mul(a, b, field)


def test_empty_inputs():
    one = Fraction(1)
    assert mat_mul([], [[one]]) == [] and mat_mul([[one]], []) == []
    assert kernel_basis([]) == []
    assert mat_rank([]) == 0 and mat_rank([[]]) == 0
    assert in_row_span([], [Fraction(0), Fraction(0)]) == []
    assert in_row_span([], [Fraction(0), one]) is None


@pytest.mark.parametrize(
    "op, m",
    [
        (mat_det, []),
        (mat_det, [[Fraction(1), Fraction(2)]]),
        (mat_inverse, [[Fraction(1), Fraction(2)]]),
        (mat_inverse, []),
    ],
    ids=["det-empty", "det-1x2", "inverse-1x2", "inverse-empty"],
)
def test_empty_and_non_square_matrices_have_no_det_or_inverse(op, m):
    with pytest.raises(LinAlgError):
        op(m)


@pytest.mark.parametrize("value", [2, 2.0])
@pytest.mark.parametrize(
    "op",
    [
        mat_det,
        mat_rank,
        mat_inverse,
        kernel_basis,
        lambda m: in_row_span(m, m[0]),
    ],
    ids=["det", "rank", "inverse", "kernel", "row_span"],
)
def test_int_and_float_entries_are_refused(op, value):
    m = [[value, 1], [3, 4]]
    with pytest.raises(LinAlgError):
        op(m)
