"""Cross-checks of the engine against the independent oracles."""

from fractions import Fraction

import pytest

from qbrauer.algebra import (
    E1,
    AlgebraElt,
    NormalWord,
    T,
    Tinv,
    all_normal_words,
    get_engine,
    mul,
)
from qbrauer.coefficients import ONE, classical_limit
from qbrauer.oracle import (
    FreeQuotientOracle,
    OracleError,
    brauer_mul,
    diagram_of_letters,
    e1_diagram,
    identity_diagram,
    perm_diagram,
)


def oracle_letters(word, n):
    """Engine letters of a normal word, translated to oracle letters
    (inverses eliminated: the oracle alphabet has no T_i^{-1})."""
    eng = get_engine(n)
    return eng.word_letters(word)


def engine_word_as_oracle_vector(word, orc, n):
    """Express a normal word in the oracle by multiplying out its letters."""
    from qbrauer.coefficients import A as Acoef

    vec = {(): ONE}
    for g in oracle_letters(word, n):
        if g == ("E",):
            vec = orc.mul(vec, {("E",): ONE})
        elif g[0] == "T":
            vec = orc.mul(vec, {(f"T{g[1]}",): ONE})
        else:  # Tinv: T_i - (q - q^{-1})
            vec = orc.mul(
                vec, {(f"T{g[1]}",): ONE, (): -Acoef}
            )
    return vec


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_dimension(n):
    orc = FreeQuotientOracle(n)
    assert len(orc.basis) == (3 if n == 2 else 15)


def test_oracle_contact_relation():
    orc = FreeQuotientOracle(3)
    from qbrauer.coefficients import Z

    assert orc.nf(("E", "T2", "E")) == {("E",): Z}


def test_oracle_rejects_large_rank():
    with pytest.raises(OracleError):
        FreeQuotientOracle(4)


@pytest.mark.parametrize("n", [2, 3])
def test_engine_agrees_with_free_quotient_oracle(n):
    """All basis-pair products agree between the engine and the oracle."""
    orc = FreeQuotientOracle(n)
    words = all_normal_words(n)
    # image of each normal word inside the oracle
    images = {w: engine_word_as_oracle_vector(w, orc, n) for w in words}
    # the images must be a basis: solve each oracle basis word in terms of
    # them implicitly by checking products instead (the comparison below is
    # bijective on structure constants)
    for x in words:
        ex = AlgebraElt(n, {x: ONE})
        for y in words:
            ey = AlgebraElt(n, {y: ONE})
            prod = mul(ex, ey)
            oracle_prod = orc.mul(images[x], images[y])
            # map the engine product through the images
            mapped = {}
            for w, c in prod.items():
                for ow, oc in images[w].items():
                    v = mapped.get(ow)
                    v = c * oc if v is None else v + c * oc
                    if v:
                        mapped[ow] = v
                    else:
                        mapped.pop(ow, None)
            assert mapped == oracle_prod, (x, y)


def test_diagram_concatenation_basics():
    n = 3
    e = e1_diagram(n)
    # E . E closes one loop
    d, factor = brauer_mul(e, e, n, a=5)
    assert d == e and factor == 5
    ident = identity_diagram(n)
    d, factor = brauer_mul(e, ident, n, a=7)
    assert d == e and factor == 1


@pytest.mark.parametrize("a", [-2, -1, 0, 1, 2, 3])
def test_classical_limit_structure_constants_match_brauer(a):
    """With z = q^a, q -> 1, the structure constants of the rank-3 algebra
    become those of the classical diagram algebra with loop factor a."""
    n = 3
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
