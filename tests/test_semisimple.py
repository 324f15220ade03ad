"""Tests for the semisimplicity criterion: bad exponent sets, symbolic
determinant scans, and brute-force verification at numeric points."""

import pytest

from qbrauer import semisimple
from qbrauer.coefficients import NumericPoint, quantum_characteristic
from qbrauer.semisimple import (
    _det_is_zero_sym,
    SemisimpleError,
    bad_exponent_set,
    brute_semisimple,
    criterion,
    scan,
)


# the exponents a at which the rank-n algebra with z = q^a is not semisimple
BAD_EXPONENTS = {
    2: {0},
    3: {-2, 0, 1},
    4: {-4, -2, 0, 1, 2},
    5: {-6, -4, -2, -1, 0, 1, 2, 3},
}


def check_scan(n):
    """The determinant scan over a in [2 - 2n, n] finds the bad exponents."""
    assert scan(n, 2 - 2 * n, n) == BAD_EXPONENTS[n]


def check_small_quantum_characteristic():
    """At a point where q^2 has multiplicative order 3 <= n, the
    symmetric-group deformation inside the algebra is not semisimple, so
    neither is the whole algebra, whatever z is."""
    p = 1009
    q0 = next(c for c in range(2, p) if quantum_characteristic(p, c) == 3)
    v = brute_semisimple(3, NumericPoint(p, q0, pow(q0, 5, p)))
    assert v["observed"] is False
    assert v["predicted"] is False
    assert v["verdict"] == "not semisimple"


def test_bad_exponent_sets():
    for n, bad in BAD_EXPONENTS.items():
        assert bad_exponent_set(n) == bad
    with pytest.raises(SemisimpleError, match="rank must be at least 2"):
        bad_exponent_set(1)


def test_criterion():
    inf = float("inf")
    assert criterion(3, inf) is True
    assert criterion(3, inf, 2) is True
    assert criterion(3, inf, 1) is False
    assert criterion(3, inf, 0) is False
    assert criterion(3, 3, 5) is False  # quantum characteristic too small
    assert criterion(4, 100, -4) is False
    assert criterion(4, 100, -3) is True


def test_scan_matches_bad_set_rank_two_three():
    check_scan(2)
    check_scan(3)


def test_vanishing_determinant_pays_one_fp_draw(monkeypatch):
    # a zero at one F_p point proves nothing more at a second draw, so a
    # vanishing determinant costs one F_p and one symbolic determinant
    calls = []
    det = semisimple.gram_det_at

    def counted(n, f, lam, spec=None):
        calls.append("fp" if getattr(spec, "characteristic", 0) else "symbolic")
        return det(n, f, lam, spec)

    monkeypatch.setattr(semisimple, "gram_det_at", counted)
    assert _det_is_zero_sym(4, 1, (2,), -4) is True
    assert calls == ["fp", "symbolic"]


def test_scan_matches_bad_set_rank_four():
    check_scan(4)


@pytest.mark.slow
def test_scan_matches_bad_set_rank_five():
    check_scan(5)


def test_brute_semisimple_generic_point():
    p = 10007
    q0 = 3
    # z = q^2: a = 2 is outside the bad set of rank 3
    v = brute_semisimple(3, NumericPoint(p, q0, pow(q0, 2, p)))
    assert v["observed"] is True
    assert v["predicted"] is True
    assert v["verdict"] == "semisimple"


def test_brute_semisimple_bad_exponent():
    p = 10007
    q0 = 3
    # z = q: a = 1 is a bad exponent for rank 3
    v = brute_semisimple(3, NumericPoint(p, q0, q0))
    assert v["observed"] is False
    assert v["predicted"] is False
    assert v["verdict"] == "not semisimple"


def test_brute_semisimple_rank_two_and_negative_exponent():
    p = 10007
    q0 = 3
    assert brute_semisimple(2, NumericPoint(p, q0, pow(q0, 3, p)))["observed"]
    # z = q^{-2}: a = -2 is a bad exponent for rank 3
    zinv2 = pow(pow(q0, -1, p), 2, p)
    v = brute_semisimple(3, NumericPoint(p, q0, zinv2))
    assert v["observed"] is False
    assert v["predicted"] is False


def test_brute_semisimple_small_quantum_characteristic():
    check_small_quantum_characteristic()


def test_brute_semisimple_requires_numeric_point():
    from qbrauer.coefficients import IntegerExponent

    with pytest.raises(SemisimpleError):
        brute_semisimple(2, IntegerExponent(1))
