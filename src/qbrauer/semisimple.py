"""Semisimplicity criterion, bad exponents, and brute-force verification.

The algebra over a field with parameters (q, z), quantum characteristic
e (of q^2) and, when present, an integer relation z^2 = q^{2a} is split
semisimple if and only if e > n and a is outside the bad exponent window

    {i : 4-2n <= i <= n-2}  minus  {odd i : 4-2n < i <= 3-n}.

Brute-force verification computes Gram determinants of cell modules: the
full route checks every cell label of the rank-n algebra, the reduced
route only the deficiency-one labels of all ranks k <= n (plus the Hecke
gate e > n); both routes must agree.
"""

from __future__ import annotations

import random
from typing import Optional, Set, Union

from .coefficients import (
    CoefficientError,
    IntegerExponent,
    NumericPoint,
    PoleError,
    Specialization,
    quantum_characteristic,
    specialize,
)
from .combinatorics import labels, partitions
from .cells import cell_module
from .linalg import Fp, mat_det


class SemisimpleError(ValueError):
    pass


def bad_exponent_set(n: int) -> Set[int]:
    """Exponents a for which z^2 = q^{2a} breaks semisimplicity (e > n)."""
    if n < 2:
        raise SemisimpleError("rank must be at least 2")
    base = set(range(4 - 2 * n, n - 1))
    removed = {i for i in range(4 - 2 * n + 1, 3 - n + 1) if i % 2}
    return base - removed


def criterion(
    n: int, e: Union[int, float], a: Optional[int] = None
) -> bool:
    """Theorem-level prediction: semisimple iff e > n and the relation
    z^2 = q^{2a} (when present) has a outside the bad exponent set."""
    if e <= n:
        return False
    if a is None:
        return True
    return a not in bad_exponent_set(n)


# ---------------------------------------------------------------------------
# Gram determinants
# ---------------------------------------------------------------------------


def gram_det_at(
    n: int, f: int, lam, spec: Optional[Specialization] = None
):
    """Determinant of the Gram matrix of the label (f, lam), optionally
    specialized (IntegerExponent keeps it symbolic in q)."""
    g = [list(row) for row in cell_module(n, f, lam).gram()]
    if spec is not None:
        g = [[specialize(c, spec) for c in row] for row in g]
        if isinstance(spec, NumericPoint) and spec.characteristic:
            g = [[Fp(x, spec.characteristic) for x in row] for row in g]
    return mat_det(g)


DEFAULT_SEED = 0xD1CE


def _det_is_zero_sym(n: int, f: int, lam, a: int, seed: int = DEFAULT_SEED) -> bool:
    """Does det G_{f,lam}(q, q^a) vanish identically in q?

    A nonzero value at any sample point proves nonvanishing; only an
    all-zero pre-screen is confirmed symbolically."""
    rng = random.Random(seed + 31 * n + 7 * f + a)
    p = 2_147_483_647
    for _ in range(3):
        q0 = rng.randrange(2, p - 1)
        z0 = pow(q0, a, p) if a >= 0 else pow(pow(q0, -1, p), -a, p)
        try:
            point = NumericPoint(p, q0, z0)
        except CoefficientError:
            continue  # z0^2 = 1, as always at a = 0: not a valid point
        try:
            d = gram_det_at(n, f, lam, point)
        except PoleError:
            continue
        if d:
            return False
    return not gram_det_at(n, f, lam, IntegerExponent(a))


def scan(
    n: int,
    a_min: Optional[int] = None,
    a_max: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> Set[int]:
    """Exponents a in [a_min, a_max] for which some deficiency-one Gram
    determinant of a rank k <= n algebra vanishes identically at z = q^a."""
    if a_min is None:
        a_min = 4 - 2 * n - 2
    if a_max is None:
        a_max = n
    out: Set[int] = set()
    for a in range(a_min, a_max + 1):
        vanishes = False
        for k in range(2, n + 1):
            for lam in partitions(k - 2):
                if _det_is_zero_sym(k, 1, lam, a, seed=seed):
                    vanishes = True
                    break
            if vanishes:
                break
        if vanishes:
            out.add(a)
    return out


# ---------------------------------------------------------------------------
# brute-force verdict at a numeric point
# ---------------------------------------------------------------------------


def brute_semisimple(n: int, spec: NumericPoint) -> dict:
    """Numeric semisimplicity verdict with both verification routes.

    The full route requires every Gram determinant of the rank-n algebra to
    be nonzero at the point; the reduced route requires e > n and all
    deficiency-one determinants of ranks 2..n to be nonzero.  The two
    verdicts must agree and must match the theorem prediction."""
    if not isinstance(spec, NumericPoint):
        raise SemisimpleError("brute_semisimple needs a numeric point")
    e = quantum_characteristic(spec.characteristic, spec.q0)
    witnesses = []
    full_ok = True
    for (f, lam) in labels(n):
        d = gram_det_at(n, f, lam, spec)
        zero = not d
        witnesses.append({"f": f, "lambda": list(lam), "det_zero": zero})
        if zero:
            full_ok = False
    reduced_ok = e > n
    reduced_witnesses = []
    if reduced_ok:
        for k in range(2, n + 1):
            for lam in partitions(k - 2):
                d = gram_det_at(k, 1, lam, spec)
                zero = not d
                reduced_witnesses.append(
                    {"rank": k, "lambda": list(lam), "det_zero": zero}
                )
                if zero:
                    reduced_ok = False
    if full_ok != reduced_ok:
        raise SemisimpleError(
            f"verification routes disagree at {spec}: full={full_ok}, "
            f"reduced={reduced_ok}"
        )
    # theorem prediction from the numeric relation z^2 = q^{2a}
    predicted = e > n and not any(
        _relation_holds(spec, a) for a in bad_exponent_set(n)
    )
    return {
        "n": n,
        "spec": {
            "characteristic": spec.characteristic,
            "q0": str(spec.q0),
            "z0": str(spec.z0),
            "e": e if e != float("inf") else "inf",
        },
        "labels": witnesses,
        "reduced_labels": reduced_witnesses,
        "observed": full_ok,
        "predicted": predicted,
        "verdict": "semisimple" if full_ok else "not semisimple",
    }


def _relation_holds(spec: NumericPoint, a: int) -> bool:
    """Whether z0^2 = q0^{2a} at the numeric point."""
    p = spec.characteristic
    if p == 0:
        from fractions import Fraction

        return Fraction(spec.z0) ** 2 == Fraction(spec.q0) ** (2 * a)
    q0, z0 = spec.q0 % p, spec.z0 % p
    lhs = (z0 * z0) % p
    rhs = pow(q0, 2 * a, p) if a >= 0 else pow(pow(q0, -1, p), -2 * a, p)
    return lhs == rhs
