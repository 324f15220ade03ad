"""Cross-checks of the engine against the independent oracles."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qbrauer.algebra import (
    E1,
    AlgebraElt,
    T,
    all_normal_words,
    get_engine,
    mul,
)
from qbrauer.coefficients import A, DELTA, ONE, Z, add_scaled, classical_limit
from qbrauer.combinatorics import compose, perm
from qbrauer.oracle import (
    FreeQuotientOracle,
    OracleError,
    brauer_mul,
    concat,
    diagram_of_letters,
    e1_diagram,
    identity_diagram,
    perm_diagram,
)


def oracle_image(word, orc, n):
    """A rank-n normal word in the oracle: the product of its engine letters,
    each T_i^-1 written T_i - (q - q^-1), as the oracle has no inverses."""
    vec = {(): ONE}
    for g in get_engine(n).word_letters(word):
        if g == E1:
            letter = {("E",): ONE}
        elif g == T(g[1]):
            letter = {(f"T{g[1]}",): ONE}
        else:
            letter = {(f"T{g[1]}",): ONE, (): -A}
        vec = orc.mul(vec, letter)
    return vec


def check_oracle_agreement(n):
    """Every product of two rank-n normal words, mapped into the oracle
    through the images of the words, is the oracle's product of their
    images."""
    orc = FreeQuotientOracle(n)
    words = all_normal_words(n)
    images = {w: oracle_image(w, orc, n) for w in words}
    for x in words:
        for y in words:
            prod = mul(AlgebraElt(n, {x: ONE}), AlgebraElt(n, {y: ONE}))
            mapped = {}
            for w, c in prod.items():
                add_scaled(mapped, images[w], c)
            assert mapped == orc.mul(images[x], images[y]), (x, y)


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_dimension(n):
    orc = FreeQuotientOracle(n)
    assert len(orc.basis) == (3 if n == 2 else 15)


def test_oracle_contact_relation():
    orc = FreeQuotientOracle(3)
    assert orc.nf(("E", "T2", "E")) == {("E",): Z}


def test_oracle_rejects_large_rank():
    with pytest.raises(OracleError):
        FreeQuotientOracle(4)


@pytest.mark.parametrize("n", [2, 3])
def test_engine_agrees_with_free_quotient_oracle(n):
    check_oracle_agreement(n)


def test_diagram_concatenation_basics():
    n = 3
    e = e1_diagram(n)
    # E . E closes one loop
    d, factor = brauer_mul(e, e, n, a=5)
    assert d == e and factor == 5
    ident = identity_diagram(n)
    d, factor = brauer_mul(e, ident, n, a=7)
    assert d == e and factor == 1


def check_classical_limit(n, a):
    """With z = q^a, q -> 1, the structure constants of the rank-n algebra
    become those of the classical diagram algebra with loop factor a."""
    assert classical_limit(DELTA, a) == Fraction(a)  # delta is the loop factor
    words = all_normal_words(n)
    diagrams = {}
    for w in words:
        d, loops = diagram_of_letters(get_engine(n).word_letters(w), n)
        assert loops == 0  # basis words never close loops
        diagrams[w] = d
    # word -> diagram must be a bijection
    assert len(set(diagrams.values())) == len(words)
    by_diagram = {d: w for w, d in diagrams.items()}

    for x in words:
        ex = AlgebraElt(n, {x: ONE})
        for y in words:
            prod = mul(ex, AlgebraElt(n, {y: ONE}))
            target, factor = brauer_mul(diagrams[x], diagrams[y], n, a)
            for w, c in prod.items():
                lim = classical_limit(c, a)  # must be finite
                expect = factor if diagrams[w] == target else Fraction(0)
                assert lim == expect, (x, y, w)
            if factor:
                assert by_diagram[target] in prod


@pytest.mark.parametrize("a", [-2, -1, 0, 1, 2, 3])
def test_classical_limit_structure_constants_match_brauer(a):
    check_classical_limit(3, a)


@pytest.mark.parametrize("a", [0, 3])
def test_classical_limit_structure_constants_match_brauer_rank4(a):
    """All 105^2 products of rank-4 normal words, at delta = 0 and 3."""
    check_classical_limit(4, a)


# random Brauer diagrams: a shuffle of the 2n points, paired off two by two
@st.composite
def diagrams(draw, n):
    points = draw(st.permutations(range(2 * n)))
    d = [0] * (2 * n)
    for x, y in zip(points[::2], points[1::2]):
        d[x], d[y] = y, x
    return tuple(d)


ranks = st.integers(1, 5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_identity_is_neutral_and_closes_no_loop(data):
    n = data.draw(ranks)
    d = data.draw(diagrams(n))
    assert concat(identity_diagram(n), d, n) == (d, 0)
    assert concat(d, identity_diagram(n), n) == (d, 0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_concat_is_associative_with_the_same_loops(data):
    n = data.draw(ranks)
    x, y, z = (data.draw(diagrams(n)) for _ in range(3))
    xy, k1 = concat(x, y, n)
    yz, k2 = concat(y, z, n)
    left, k3 = concat(xy, z, n)
    right, k4 = concat(x, yz, n)
    assert left == right
    assert k1 + k3 == k2 + k4


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_permutation_diagrams_multiply_as_permutations(data):
    n = data.draw(ranks)
    p, q = (perm(data.draw(st.permutations(range(1, n + 1)))) for _ in range(2))
    assert concat(perm_diagram(p, n), perm_diagram(q, n), n) == (
        perm_diagram(compose(p, q), n),
        0,
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_e1_diagram_is_idempotent_up_to_one_loop(n):
    e = e1_diagram(n)
    assert concat(e, e, n) == (e, 1)


def is_pairing(d, n):
    points = list(range(2 * n))
    return sorted(d) == points and all(d[d[x]] == x != d[x] for x in points)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_concat_refuses_what_is_not_a_pairing(data):
    n = data.draw(ranks)
    if data.draw(st.booleans()):  # a diagram with one point sent elsewhere
        bad = list(data.draw(diagrams(n)))
        bad[data.draw(st.integers(0, 2 * n - 1))] = data.draw(st.integers(-1, 2 * n))
    else:
        bad = data.draw(st.lists(st.integers(-1, 2 * n), max_size=2 * n + 1))
    bad = tuple(bad)
    assume(not is_pairing(bad, n))
    with pytest.raises(OracleError):
        concat(bad, identity_diagram(n), n)
    with pytest.raises(OracleError):
        concat(identity_diagram(n), bad, n)
