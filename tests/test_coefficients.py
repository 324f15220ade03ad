import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbrauer import coefficients as co
from qbrauer.coefficients import (
    A,
    Coeff,
    CoefficientError,
    DELTA,
    DivisionByZero,
    Fp,
    IntegerExponent,
    NumericPoint,
    ONE,
    PoleError,
    Q,
    QINV,
    Z,
    ZERO,
    ZINV,
    classical_limit,
    is_prime,
    parse_coeff,
    quantum_characteristic,
    specialize,
)


def test_delta_identity():
    assert DELTA * A == Z - ZINV


def test_canonical_reduction():
    assert (Q**2 - ONE) / (Q - ONE) == Q + ONE
    # the same value built along different routes canonicalizes identically
    x = (Z * Q - ZINV * Q) / (Q * Q - ONE)
    assert x == DELTA
    assert x.num == DELTA.num and x.den == DELTA.den


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.inverse()


def test_specialize_integer_exponent():
    # delta at z = q^2 is q + q^-1
    assert specialize(DELTA, IntegerExponent(2)) == Q + QINV
    # delta at z = q is 1
    assert specialize(DELTA, IntegerExponent(1)) == ONE
    # delta at z = q^0 = 1 is 0
    assert specialize(DELTA, IntegerExponent(0)) == ZERO


def test_specialize_numeric_point():
    assert specialize(DELTA, NumericPoint(7, 3, 2)) == 1
    got = specialize(DELTA, NumericPoint(0, 2, 3))
    assert got == (Fraction(3) - Fraction(1, 3)) / (Fraction(2) - Fraction(1, 2))


def test_specialized_values_are_field_elements():
    # (z - z^-1)/(q - q^-1) at q = 3, z = 2 in F_7 is (2 - 4)/(3 - 5) = 1
    at_7 = specialize(DELTA, NumericPoint(7, 3, 2))
    assert isinstance(at_7, Fp) and at_7.p == 7
    assert str(at_7) == "1" and str(specialize(-ONE, NumericPoint(7, 3, 2))) == "6"
    assert at_7 / specialize(Q, NumericPoint(7, 3, 2)) == 5  # 1/3 = 5 mod 7
    assert isinstance(specialize(DELTA, NumericPoint(0, 2, 3)), Fraction)
    assert isinstance(specialize(DELTA, IntegerExponent(2)), Coeff)


def test_fp_refuses_other_fields():
    x = Fp(3, 7)
    with pytest.raises(CoefficientError):
        x + Fp(3, 11)
    for other in (0.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            x * other
    with pytest.raises(ZeroDivisionError):
        x / Fp(7, 7)
    assert 1 - x == Fp(5, 7) and 2 / x == Fp(3, 7)


def test_numeric_point_validation():
    with pytest.raises(CoefficientError):
        NumericPoint(7, 0, 2)
    with pytest.raises(CoefficientError):
        NumericPoint(7, 1, 2)  # q0 - q0^-1 = 0
    with pytest.raises(CoefficientError):
        NumericPoint(0, 1, 2)


def test_classical_limit():
    c = (Q**2 * ZINV**2 - ONE) / A
    for a in range(-3, 4):
        assert classical_limit(c, a) == 1 - a
    # delta -> a at q=1, z=q^a
    for a in range(-3, 4):
        assert classical_limit(DELTA, a) == a


def test_classical_limit_pole():
    with pytest.raises(PoleError):
        classical_limit(ONE / A, 0)


def test_specialize_refuses_a_pole():
    with pytest.raises(PoleError, match="vanishes identically at z=q\\^1"):
        specialize(ONE / (Z - Q), IntegerExponent(1))
    with pytest.raises(PoleError, match="pole at numeric point"):
        specialize(ONE / (Q - 3 * ONE), NumericPoint(7, 3, 2))


def test_quantum_characteristic():
    assert quantum_characteristic(7, 3) == 3
    assert quantum_characteristic(5, 1) == 5
    assert quantum_characteristic(5, 4) == 5  # q0^2 = 16 = 1 mod 5
    assert quantum_characteristic(7, 2) == 3  # 4, 2, 1 mod 7
    assert quantum_characteristic(0, 2) == float("inf")
    assert quantum_characteristic(0, Fraction(1, 2)) == float("inf")


def test_quantum_characteristic_matches_the_power_walk():
    def walk(p, q0):
        q2 = q0 * q0 % p
        if q2 == 1:
            return p
        e, acc = 1, q2
        while acc != 1:
            e, acc = e + 1, acc * q2 % p
        return e

    for p in filter(is_prime, range(400)):
        for q0 in range(1, p):
            assert quantum_characteristic(p, q0) == walk(p, q0), (p, q0)


def test_quantum_characteristic_at_a_large_prime():
    # the largest prime NumericPoint accepts, far beyond a walk over the
    # powers of q0^2; e is the order of 9 = 3^2: it divides p - 1, and no
    # prime factor of p - 1 can be divided out of it
    p = 3_317_044_064_679_887_385_961_813
    assert is_prime(p) and not any(map(is_prime, range(p + 1, co._MR_LIMIT)))
    factors = (2, 3, 103, 132_408_623, 20_268_261_599_279)
    assert p - 1 == 2 * math.prod(factors)  # 2 divides twice
    start = time.perf_counter()
    e = quantum_characteristic(p, 3)
    assert time.perf_counter() - start < 1
    assert (p - 1) % e == 0 and pow(9, e, p) == 1
    assert all(pow(9, e // r, p) != 1 for r in factors if e % r == 0)
    assert quantum_characteristic(1_000_000_007, 3) == 500_000_003


def test_text_round_trip():
    samples = [
        DELTA,
        A,
        ZERO,
        ONE,
        (DELTA + Q**3 * Z) / (A * A),
        Coeff({(-2, 5): -7, (0, 0): 3}),
    ]
    for c in samples:
        assert parse_coeff(str(c)) == c


def test_field_axioms_fuzz():
    random.seed(12345)

    def rnd():
        t = {
            (random.randint(-2, 2), random.randint(-2, 2)): random.randint(-3, 3)
            for _ in range(random.randint(1, 3))
        }
        n = Coeff(t)
        d = ZERO
        while not d:
            d = Coeff(
                {
                    (random.randint(-1, 1), random.randint(-1, 1)): random.randint(
                        -2, 2
                    )
                    for _ in range(random.randint(1, 2))
                }
            )
        return n / d

    for _ in range(150):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) * c == a * c + b * c
        assert a + (-a) == ZERO
        if a:
            assert a / a == ONE
            assert a * a.inverse() == ONE
        if b:
            assert (a * b) / b == a
        assert parse_coeff(str(a)) == a


def test_powers():
    assert A**0 == ONE
    assert A**3 * A**-3 == ONE
    assert Q**5 == Coeff({(5, 0): 1})


def test_int_interop():
    assert DELTA * 2 - DELTA == DELTA
    assert 1 + ZERO == ONE
    assert 2 * ONE / 2 == ONE


def test_coeff_equal_to_an_int_hashes_as_that_int():
    for k in (0, 1, -1, 2, -7, 10**20):
        c = Coeff.from_int(k)
        assert c == k and hash(c) == hash(k), k
        assert k in {c} and c in {k}, k
    assert 1 in {ONE} and 0 in {ZERO} and 2 in {ONE + ONE}
    # a constant that is no integer, and a monomial, equal no int
    assert ONE / 2 != 0 and ONE / 2 != 1 and Q != 1


def test_fp_equals_only_its_representative():
    x = Fp(3, 7)
    assert x == 3 and hash(x) == hash(3) and 3 in {x} and x in {3}
    assert x != 10 and x != -4 and 10 not in {x}
    assert Fp(10, 7) == x and hash(Fp(10, 7)) == hash(x)
    assert Fp(0, 7) == 0 and 0 in {Fp(0, 7)} and Fp(-1, 7) == 6
    assert specialize(DELTA, NumericPoint(7, 3, 2)) == 1


def _pgcd_canonical(num, den):
    """Reference canonical form: the bivariate gcd for every denominator."""
    mi, mj = co._pmin_exps(den)
    num, den = co._pshift(num, -mi, -mj), co._pshift(den, -mi, -mj)
    ni, nj = co._pmin_exps(num)
    num = co._pshift(num, -ni, -nj)
    g = co._pgcd(num, den)
    num, den = co._pdiv_exact(num, g), co._pdiv_exact(den, g)
    c = co._igcd(*num.values(), *den.values())
    num = {k: v // c for k, v in num.items()}
    den = {k: v // c for k, v in den.items()}
    if den[max(den)] < 0:
        num, den = co._pneg(num), co._pneg(den)
    return co._pshift(num, ni, nj), den


_coef = st.integers(-5, 5).filter(bool)
_laurent = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), _coef, min_size=1, max_size=4
)
# the three shapes a denominator can take once its monomial is stripped
_constant = st.builds(
    lambda i, j, c: {(i, j): c}, st.integers(-2, 2), st.integers(-2, 2), _coef
)
_z_free = st.builds(
    lambda t, j: {(i, j): c for i, c in t.items()},
    st.dictionaries(st.integers(-1, 3), _coef, min_size=2, max_size=4),
    st.integers(-1, 1),
)
_with_z = st.dictionaries(
    st.tuples(st.integers(-1, 2), st.integers(-1, 2)), _coef, min_size=2, max_size=4
).filter(lambda t: len({j for _, j in t}) > 1)
_shape = st.one_of(_constant, _z_free, _with_z)


@settings(max_examples=300, deadline=None)
@given(num=_laurent, den=_shape, common=_shape)
def test_canonical_routes_agree_with_bivariate_gcd(num, den, common):
    big_num, big_den = co._pmul(num, common), co._pmul(den, common)
    x = Coeff(big_num, big_den)
    y = Coeff(num, den)
    assert x == y and hash(x) == hash(y)
    assert str(x) == str(y) and parse_coeff(str(x)) == x
    assert (x.num, x.den) == _pgcd_canonical(big_num, big_den)
    assert (y.num, y.den) == _pgcd_canonical(num, den)


# operands of the Laurent fast path: 0, 1, +-monomials and Laurent
# polynomials, plus fractions with other denominators that must stay off it
_monomial = st.builds(
    lambda i, j, c: {(i, j): c},
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.sampled_from([1, -1]),
)
_operand = st.one_of(
    st.just(ZERO),
    st.just(ONE),
    st.builds(Coeff, _monomial),
    st.builds(Coeff, _laurent),
    st.builds(Coeff, _laurent, _shape),
)


@settings(max_examples=400, deadline=None)
@given(x=_operand, y=_operand)
def test_laurent_fast_path_matches_general_canonical_form(x, y):
    den = co._pmul(x.den, y.den)
    product = Coeff(co._pmul(x.num, y.num), den)
    total = Coeff(co._padd(co._pmul(x.num, y.den), co._pmul(y.num, x.den)), den)
    pairs = ((x * y, product), (y * x, product), (x + y, total), (y + x, total))
    for got, want in pairs:
        assert (got.num, got.den) == (want.num, want.den)
        assert hash(got) == hash(want) and str(got) == str(want)


def test_canonical_sign_and_content():
    # negative constant and negative leading coefficient in q
    assert str(Coeff({(1, 0): 4, (0, 1): -6}, {(0, 0): -10})) == "-2*q^1+3*z^1/5"
    x = Coeff({(0, 0): 3}, {(2, 0): -2, (0, 0): 2})  # 3/(2 - 2q^2)
    assert x.den == {(2, 0): 2, (0, 0): -2} and x.num == {(0, 0): -3}


def test_uquo_exact_integer_division():
    assert co._uquo_exact([-1, 0, 1], [1, 1]) == [-1, 1]
    assert co._uquo_exact([2, 4], [1, 2]) == [2]
    with pytest.raises(CoefficientError):
        co._uquo_exact([1, 1], [2])  # (1 + q)/2 is not in Z[q]
    with pytest.raises(CoefficientError):
        co._uquo_exact([1, 0, 1], [1, 1])  # q + 1 does not divide q^2 + 1


def test_is_prime_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    for p in range(-3, 3000):
        assert is_prime(p) == trial(p), p
    assert is_prime(2_147_483_647) and is_prime(2**61 - 1)
    # Carmichael numbers, a strong pseudoprime to bases 2, 3, 5 and 7, and one
    # to the twelve prime bases 2..37 (399165290221 * 798330580441)
    for p in (561, 41041, 3_215_031_751, 3_825_123_056_546_413_051,
              318_665_857_834_031_151_167_461):
        assert not is_prime(p)
    with pytest.raises(CoefficientError):
        is_prime(co._MR_LIMIT)


def test_numeric_point_characteristic_must_be_prime():
    for p in (15, 9, 1, -7):
        with pytest.raises(CoefficientError):
            NumericPoint(p, 2, 5)
    assert NumericPoint(0, Fraction(1, 2), Fraction(3)).q0 == Fraction(1, 2)


def test_specializations_are_immutable_values():
    spec = NumericPoint(7, 10, 2)
    assert spec == NumericPoint(7, 10, 2) and hash(spec) == hash(NumericPoint(7, 10, 2))
    assert spec != NumericPoint(7, 3, 2)
    assert repr(spec) == "NumericPoint(characteristic=7, q0=10, z0=2)"
    assert repr(IntegerExponent(-3)) == "IntegerExponent(a=-3)"
    assert {IntegerExponent(2): 1}[IntegerExponent(2)] == 1
    with pytest.raises(AttributeError):
        spec.q0 = 3
    with pytest.raises(AttributeError):
        IntegerExponent(2).a = 3
