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
from typing import List, Optional, Set, Tuple, Union

from .coefficients import (
    CoefficientError,
    IntegerExponent,
    NumericPoint,
    PoleError,
    Q,
    Specialization,
    Z,
    quantum_characteristic,
    specialize,
)
from .combinatorics import Partition, labels, partitions
from .cells import cell_module, specialized_gram
from .linalg import mat_det


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
    return mat_det(specialized_gram(cell_module(n, f, lam), spec))


DEFAULT_SEED = 0xD1CE


def _det_is_zero_sym(n: int, f: int, lam, a: int, seed: int = DEFAULT_SEED) -> bool:
    """Does det G_{f,lam}(q, q^a) vanish identically in q?

    A nonzero value at one F_p point proves nonvanishing; a zero, a refused
    point or a pole there is settled by the determinant at z = q^a."""
    rng = random.Random(seed + 31 * n + 7 * f + a)
    p = 2_147_483_647
    q0 = rng.randrange(2, p - 1)
    try:
        point = NumericPoint(p, q0, pow(q0, a, p))
    except CoefficientError:
        point = None  # z0^2 = 1, as always at a = 0: not a valid point
    try:
        if point is not None and gram_det_at(n, f, lam, point):
            return False
    except PoleError:
        pass
    return not gram_det_at(n, f, lam, IntegerExponent(a))


def deficiency_one_labels(n: int) -> List[Tuple[int, Partition]]:
    """The pairs (k, lam) with 2 <= k <= n and lam a partition of k - 2: the
    deficiency-one labels (1, lam) of every rank k <= n."""
    return [(k, lam) for k in range(2, n + 1) for lam in partitions(k - 2)]


def scan(n: int, a_min: int, a_max: int, seed: int = DEFAULT_SEED) -> Set[int]:
    """Exponents a in [a_min, a_max] for which some deficiency-one Gram
    determinant of a rank k <= n algebra vanishes identically at z = q^a."""
    reduced = deficiency_one_labels(n)
    return {
        a
        for a in range(a_min, a_max + 1)
        if any(_det_is_zero_sym(k, 1, lam, a, seed=seed) for k, lam in reduced)
    }


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
    # whether each rank-n determinant vanishes; the reduced route reads its
    # rank-n labels from here rather than computing them again
    zero_at = {(f, lam): not gram_det_at(n, f, lam, spec) for f, lam in labels(n)}
    witnesses = [
        {"f": f, "lambda": list(lam), "det_zero": zero}
        for (f, lam), zero in zero_at.items()
    ]
    full_ok = not any(zero_at.values())
    reduced_ok = e > n
    reduced_witnesses = []
    if reduced_ok:
        for k, lam in deficiency_one_labels(n):
            zero = zero_at[1, lam] if k == n else not gram_det_at(k, 1, lam, spec)
            reduced_witnesses.append({"rank": k, "lambda": list(lam), "det_zero": zero})
            if zero:
                reduced_ok = False
    if full_ok != reduced_ok:
        raise SemisimpleError(
            f"verification routes disagree at {spec}: full={full_ok}, "
            f"reduced={reduced_ok}"
        )
    # theorem prediction from the numeric relation z^2 = q^{2a}: a bad a
    # has z0^2 - q0^{2a} = 0
    predicted = e > n and all(
        specialize(Z * Z - Q ** (2 * a), spec) for a in bad_exponent_set(n)
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
