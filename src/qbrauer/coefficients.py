"""Exact arithmetic in Z[q^{+-1}, z^{+-1}] and its fraction field.

A Laurent polynomial is a plain dict from exponent pairs (i, j) to nonzero
integers, representing sum of c * q^i * z^j.  A ``Coeff`` is a fraction of
two such polynomials kept in a canonical form, so equality is plain
structural equality and zero tests are exact.

Canonical form of a fraction:
  * numerator and denominator have no common polynomial factor;
  * the denominator is monomial-normalized: minimal q- and z-exponents are
    zero, so it is an honest polynomial with nonzero constant term;
  * integer contents of numerator and denominator are coprime and the
    leading coefficient of the denominator is positive.

The common factor is found by a route chosen from the normalized
denominator, since almost every value is a Laurent polynomial or has a
denominator free of z (the only division in the structure constants is by
q - q^-1):
  * a constant denominator: no polynomial gcd, only integer contents;
  * a denominator in Z[q]: its gcd in Z[q] with each z-row of the numerator;
  * a denominator with z: the primitive-part Euclidean algorithm in Z[q][z].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd
from typing import Union


class CoefficientError(ArithmeticError):
    """Base class for coefficient-arithmetic failures."""


class DivisionByZero(CoefficientError):
    pass


class PoleError(CoefficientError):
    """A specialization or limit hit a vanishing denominator."""


# ---------------------------------------------------------------------------
# raw polynomial helpers: dict[(i, j)] -> int, zero never stored
# ---------------------------------------------------------------------------

Terms = dict


def _padd(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pneg(a: Terms) -> Terms:
    return {k: -v for k, v in a.items()}

def _psub(a: Terms, b: Terms) -> Terms:
    return _padd(a, _pneg(b))


def _pmul(a: Terms, b: Terms) -> Terms:
    if len(a) > len(b):
        a, b = b, a
    out: Terms = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _pscale(a: Terms, c: int) -> Terms:
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def _pshift(a: Terms, di: int, dj: int) -> Terms:
    if di == 0 and dj == 0:
        return dict(a)
    return {(i + di, j + dj): v for (i, j), v in a.items()}


def _pcontent(a: Terms) -> int:
    g = 0
    for v in a.values():
        g = _igcd(g, abs(v))
        if g == 1:
            break
    return g


def _pmin_exps(a: Terms):
    mi = min(i for i, _ in a)
    mj = min(j for _, j in a)
    return mi, mj


# --- univariate (in q) integer polynomial helpers, dense lists -------------


def _ugcd(a: list, b: list) -> list:
    """gcd in Z[q] via the primitive-part Euclidean algorithm."""
    a, b = _uprim(a), _uprim(b)
    while b:
        a, b = b, _uprim(_uprem(a, b))
    return a


def _utrim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _uprim(a: list) -> list:
    a = _utrim(list(a))
    if not a:
        return a
    g = 0
    for c in a:
        g = _igcd(g, abs(c))
        if g == 1:
            break
    if g > 1:
        a = [c // g for c in a]
    if a[-1] < 0:
        a = [-c for c in a]
    return a


def _uprem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b over Z[q]."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _utrim(a):
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for k in range(db + 1):
            a[da - db + k] -= la * b[k]
        _utrim(a)
    return a


def _umul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _utrim(out)


def _uquo_exact(a: list, b: list) -> list:
    """Exact division in Z[q]; raises unless b divides a with a quotient in
    Z[q] (always the case when b is primitive and divides a over Q)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    while len(a) - 1 >= db and _utrim(a):
        da = len(a) - 1
        c, r = divmod(a[-1], lb)
        if r:
            raise CoefficientError("quotient not integral")
        out[da - db] = c
        for k in range(db + 1):
            a[da - db + k] -= c * b[k]
        _utrim(a)
    if _utrim(a):
        raise CoefficientError("inexact polynomial division")
    return _utrim(out)


# --- bivariate gcd: z outer, coefficients in Z[q] ---------------------------


def _to_zrec(a: Terms):
    """Represent a (monomial-stripped) polynomial as list over z of Z[q] lists."""
    dz = max(j for _, j in a)
    dq = max(i for i, _ in a)
    rows = [[0] * (dq + 1) for _ in range(dz + 1)]
    for (i, j), c in a.items():
        rows[j][i] = c
    return [_utrim(r) for r in rows]


def _from_zrec(rows) -> Terms:
    out: Terms = {}
    for j, r in enumerate(rows):
        for i, c in enumerate(r):
            if c:
                out[(i, j)] = c
    return out


def _ztrim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _zcontent(rows) -> list:
    g: list = []
    for r in rows:
        if r:
            g = _ugcd(g, r) if g else _uprim(r)
            if g == [1]:
                break
    return g


def _zprim(rows):
    rows = _ztrim([list(r) for r in rows])
    if not rows:
        return rows, []
    ic = 0
    for r in rows:
        for c in r:
            ic = _igcd(ic, abs(c))
        if ic == 1:
            break
    if ic > 1:
        rows = [[c // ic for c in r] for r in rows]
    cont = _zcontent(rows)
    if cont and cont != [1]:
        rows = [_uquo_exact(r, cont) if r else [] for r in rows]
    return rows, cont


def _zprem(a, b):
    """Pseudo-remainder of a by b, z the outer variable."""
    a = [list(r) for r in a]
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _ztrim(a):
        da, la = len(a) - 1, a[-1]
        a = [_umul(r, lb) for r in a]
        for k in range(db + 1):
            a[da - db + k] = _utrim(
                [x - y for x, y in _zip_pad(a[da - db + k], _umul(la, b[k]))]
            )
        _ztrim(a)
    return a


def _zip_pad(a: list, b: list):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    elif len(b) < len(a):
        b = b + [0] * (len(a) - len(b))
    return zip(a, b)


def _pgcd(a: Terms, b: Terms) -> Terms:
    """gcd of two monomial-stripped polynomials in Z[q, z], primitive result."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    ra, ca = _zprim(_to_zrec(a))
    rb, cb = _zprim(_to_zrec(b))
    ccont = _ugcd(ca, cb)
    if len(ra) < len(rb):
        ra, rb = rb, ra
    while rb:
        ra, rb = rb, _zprim(_zprem(ra, rb))[0]
    g = _umul_rows(ra, ccont) if ccont != [1] else ra
    return _from_zrec(g)


def _umul_rows(rows, c: list):
    return [_umul(r, c) for r in rows]


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------


def _canonical(num: Terms, den: Terms):
    num = {k: v for k, v in num.items() if v}
    den = {k: v for k, v in den.items() if v}
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, {(0, 0): 1}
    # strip the denominator to a polynomial with nonzero constant term,
    # moving the monomial into the numerator
    mi, mj = _pmin_exps(den)
    if mi or mj:
        den = _pshift(den, -mi, -mj)
        num = _pshift(num, -mi, -mj)
    # a constant denominator shares no polynomial factor with the numerator;
    # otherwise cancel the gcd, with the numerator monomial stripped out
    if len(den) > 1:
        ni, nj = _pmin_exps(num)
        num0 = _pshift(num, -ni, -nj)
        if any(j for _, j in den):
            g = _pgcd(num0, den)
            if len(g) > 1:
                num0 = _pdiv_exact(num0, g)
                den = _pdiv_exact(den, g)
        else:
            num0, den = _cancel_in_q(num0, den)
        num = _pshift(num0, ni, nj)
    c = _igcd(_pcontent(num), _pcontent(den))
    if c > 1:
        num = {k: v // c for k, v in num.items()}
        den = {k: v // c for k, v in den.items()}
    if _lead_sign(den) < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


def _cancel_in_q(num: Terms, den: Terms):
    """Cancel gcd(num, den) for a denominator free of z: the gcd lies in Z[q]
    and divides every z-row of the numerator.  Both are monomial-stripped."""
    d = _to_zrec(den)[0]
    rows = _to_zrec(num)
    g = d
    for r in rows:
        if r:
            g = _ugcd(g, r)
            if len(g) == 1:
                return num, den
    rows = [_uquo_exact(r, g) if r else r for r in rows]
    return _from_zrec(rows), _from_zrec([_uquo_exact(d, g)])


def _lead_sign(a: Terms) -> int:
    return 1 if a[max(a)] > 0 else -1


def _pdiv_exact(a: Terms, b: Terms) -> Terms:
    """Exact division of polynomials in Z[q, z] (b divides a)."""
    ra = _to_zrec(a)
    rb = _to_zrec(b)
    out_rows = []
    db = len(rb) - 1
    lb = rb[-1]
    ra = [list(r) for r in ra]
    quo = [[] for _ in range(len(ra) - db)]
    while _ztrim(ra) and len(ra) - 1 >= db:
        da = len(ra) - 1
        c = _uquo_exact(ra[-1], lb)
        quo[da - db] = c
        for k in range(db + 1):
            ra[da - db + k] = _utrim(
                [x - y for x, y in _zip_pad(ra[da - db + k], _umul(c, rb[k]))]
            )
        _ztrim(ra)
    if _ztrim(ra):
        raise CoefficientError("inexact polynomial division")
    out_rows = quo
    return _from_zrec(out_rows)


class Coeff:
    """Element of the fraction field of Z[q^{+-1}, z^{+-1}], canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Terms, den: Terms = None, _canon=False):
        if den is None:
            den = {(0, 0): 1}
        if _canon:
            self.num, self.den = num, den
        else:
            self.num, self.den = _canonical(num, den)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(c: int) -> "Coeff":
        return Coeff({(0, 0): c} if c else {})

    @staticmethod
    def monomial(c: int, i: int, j: int) -> "Coeff":
        return Coeff({(i, j): c} if c else {})

    @staticmethod
    def q_power(i: int) -> "Coeff":
        return Coeff.monomial(1, i, 0)

    @staticmethod
    def z_power(j: int) -> "Coeff":
        return Coeff.monomial(1, 0, j)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (frozenset(self.num.items()), frozenset(self.den.items()))
            )
        return self._hash

    def __eq__(self, other):
        if isinstance(other, int):
            other = Coeff.from_int(other)
        return (
            isinstance(other, Coeff)
            and self.num == other.num
            and self.den == other.den
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Coeff") -> "Coeff":
        if isinstance(other, int):
            other = Coeff.from_int(other)
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return Coeff(_padd(self.num, other.num), self.den)
        return Coeff(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        return Coeff(_pneg(self.num), self.den, _canon=True)

    def __sub__(self, other: "Coeff") -> "Coeff":
        if isinstance(other, int):
            other = Coeff.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return Coeff.from_int(other) - self

    def __mul__(self, other: "Coeff") -> "Coeff":
        if isinstance(other, int):
            other = Coeff.from_int(other)
        if not self.num or not other.num:
            return ZERO
        if len(self.den) == 1 and len(other.den) == 1:
            # a monomial denominator normalizes to a constant, which takes
            # the route with no polynomial gcd
            (i1, j1), c1 = next(iter(self.den.items()))
            (i2, j2), c2 = next(iter(other.den.items()))
            num = _pmul(self.num, other.num)
            return Coeff(num, {(i1 + i2, j1 + j2): c1 * c2})
        return Coeff(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other: "Coeff") -> "Coeff":
        if isinstance(other, int):
            other = Coeff.from_int(other)
        if not other.num:
            raise DivisionByZero("division by zero Coeff")
        return Coeff(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return Coeff.from_int(other) / self

    def inverse(self) -> "Coeff":
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return Coeff(dict(self.den), dict(self.num))

    def __pow__(self, k: int) -> "Coeff":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- text form -----------------------------------------------------------

    def __str__(self):
        if self.den == {(0, 0): 1}:
            return poly_str(self.num)
        return f"{poly_str(self.num)}/{poly_str(self.den)}"

    __repr__ = __str__


def poly_str(a: Terms) -> str:
    if not a:
        return "0"
    parts = []
    for (i, j) in sorted(a, reverse=True):
        c = a[(i, j)]
        factors = []
        if c != 1 or (i == 0 and j == 0):
            factors.append(str(c))
        if i:
            factors.append(f"q^{i}")
        if j:
            factors.append(f"z^{j}")
        if not factors:
            factors.append("1")
        parts.append("*".join(factors))
    return "+".join(parts).replace("+-", "-")


def parse_poly(s: str) -> Terms:
    import re

    out: Terms = {}
    s = s.strip()
    if s == "0":
        return out
    # split into terms at + or - signs that do not follow '^'
    for term in re.split(r"(?<![\^*])(?=[+-])", s):
        term = term.strip()
        if not term:
            continue
        c = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            c, term = -1, term[1:]
        i, j = 0, 0
        for factor in term.split("*"):
            factor = factor.strip()
            if factor.startswith("q"):
                i = int(factor[2:]) if "^" in factor else 1
            elif factor.startswith("z"):
                j = int(factor[2:]) if "^" in factor else 1
            else:
                c *= int(factor)
        k = (i, j)
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def parse_coeff(s: str) -> Coeff:
    if "/" in s:
        num, den = s.split("/", 1)
        return Coeff(parse_poly(num), parse_poly(den))
    return Coeff(parse_poly(s))


# ---------------------------------------------------------------------------
# named constants
# ---------------------------------------------------------------------------

ZERO = Coeff({})
ONE = Coeff.from_int(1)
Q = Coeff.q_power(1)
QINV = Coeff.q_power(-1)
Z = Coeff.z_power(1)
ZINV = Coeff.z_power(-1)
A = Q - QINV  # q - q^-1


def delta() -> Coeff:
    """(z - z^-1)/(q - q^-1)."""
    return (Z - ZINV) / A


DELTA = delta()


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerExponent:
    """The substitution z -> q^a."""

    a: int


# Miller-Rabin with the first thirteen primes (2..41) as bases is exact below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017); twelve bases are
# exact only below 318_665_857_834_031_151_167_461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Exact primality test; raises CoefficientError at or above _MR_LIMIT,
    where the deterministic test no longer certifies its answer."""
    if p >= _MR_LIMIT:
        raise CoefficientError(f"cannot certify primality at or above {_MR_LIMIT}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


_Q0_POLE = "q0-q0^-1 must be invertible (it is the only denominator)"
# z0 = +-1 makes delta = (z0 - z0^-1)/(q0 - q0^-1) vanish.  That is no
# pole, but delta = 0 is refused because no verdict route covers it: the
# reduced route checks every rank k <= n and meets the rank-2 Gram matrix
# [delta] = 0, while the full route finds B_3(0) semisimple (all rank-3
# Gram determinants are nonzero), and bad_exponent_set does not describe
# delta = 0 either.
_DELTA_ZERO = (
    "z0 = 1 or -1 (delta = 0) is refused: the semisimplicity routes do not "
    "cover delta = 0"
)


@dataclass(frozen=True)
class NumericPoint:
    """Evaluation at a concrete point of a field of characteristic 0 or p."""

    characteristic: int
    q0: Union[int, Fraction]
    z0: Union[int, Fraction]

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            q0, z0 = Fraction(self.q0), Fraction(self.z0)
            for name, v in (("q0", q0), ("z0", z0)):
                if v == 0:
                    raise CoefficientError(f"{name} must be invertible")
            if q0 - 1 / q0 == 0:
                raise CoefficientError(_Q0_POLE)
            if z0 - 1 / z0 == 0:
                raise CoefficientError(_DELTA_ZERO)
        else:
            if not is_prime(p):
                raise CoefficientError(f"characteristic {p} must be 0 or a prime")
            q0, z0 = self.q0 % p, self.z0 % p
            if q0 == 0 or z0 == 0:
                raise CoefficientError("q0, z0 must be invertible mod p")
            if (q0 - pow(q0, -1, p)) % p == 0:
                raise CoefficientError(_Q0_POLE)
            if (z0 - pow(z0, -1, p)) % p == 0:
                raise CoefficientError(_DELTA_ZERO)

    def field_inv(self, x):
        p = self.characteristic
        if p == 0:
            if x == 0:
                raise PoleError("inverse of zero field element")
            return 1 / Fraction(x)
        x %= p
        if x == 0:
            raise PoleError("inverse of zero field element")
        return pow(x, -1, p)


Specialization = Union[IntegerExponent, NumericPoint]


def _eval_point(a: Terms, point: NumericPoint):
    p = point.characteristic
    if p == 0:
        q0, z0 = Fraction(point.q0), Fraction(point.z0)
        return sum(
            (c * q0**i * z0**j for (i, j), c in a.items()), start=Fraction(0)
        )
    q0, z0 = point.q0 % p, point.z0 % p
    total = 0
    for (i, j), c in a.items():
        qi = pow(q0, i, p) if i >= 0 else pow(pow(q0, -1, p), -i, p)
        zj = pow(z0, j, p) if j >= 0 else pow(pow(z0, -1, p), -j, p)
        total = (total + c * qi * zj) % p
    return total


def specialize(c: Coeff, s: Specialization):
    """Apply a specialization.

    IntegerExponent returns a Coeff that is constant in z (z -> q^a);
    NumericPoint returns a field element (Fraction or int mod p).
    """
    if isinstance(s, IntegerExponent):
        num = {}
        for (i, j), v in c.num.items():
            k = (i + s.a * j, 0)
            num[k] = num.get(k, 0) + v
        den = {}
        for (i, j), v in c.den.items():
            k = (i + s.a * j, 0)
            den[k] = den.get(k, 0) + v
        num = {k: v for k, v in num.items() if v}
        den = {k: v for k, v in den.items() if v}
        if not den:
            raise PoleError(f"denominator vanishes identically at z=q^{s.a}")
        return Coeff(num, den)
    den = _eval_point(c.den, s)
    if den == 0:
        raise PoleError("pole at numeric point")
    num = _eval_point(c.num, s)
    if s.characteristic == 0:
        return num / den
    return (num * pow(den, -1, s.characteristic)) % s.characteristic


def classical_limit(c: Coeff, a: int) -> Fraction:
    """Value at q=1 of c after substituting z = q^a and cancelling (q-1) powers."""
    spec = specialize(c, IntegerExponent(a))
    num = _univar(spec.num)
    den = _univar(spec.den)

    def eval1(p):
        return sum(p.values())

    dn, dd = eval1(num), eval1(den)
    while dd == 0:
        if dn != 0:
            raise PoleError(f"pole at q=1 for z=q^{a}")
        num = _divide_q_minus_1(num)
        den = _divide_q_minus_1(den)
        dn, dd = eval1(num), eval1(den)
    return Fraction(dn, dd)


def _univar(a: Terms) -> Terms:
    mi = min((i for i, _ in a), default=0)
    return {(i - mi, 0): v for (i, _), v in a.items()}


def _divide_q_minus_1(a: Terms) -> Terms:
    """Exact division of a univariate (in q) polynomial by (q - 1)."""
    if not a:
        return {}
    deg = max(i for i, _ in a)
    coeffs = [a.get((i, 0), 0) for i in range(deg + 1)]
    # synthetic division by root q=1
    out = [0] * deg
    carry = 0
    for i in range(deg, 0, -1):
        carry += coeffs[i]
        out[i - 1] = carry
    if carry + coeffs[0] != 0:
        raise CoefficientError("not divisible by q-1")
    return {(i, 0): v for i, v in enumerate(out) if v}


def quantum_characteristic(char: int, q0) -> Union[int, float]:
    """Minimal e >= 1 with 1 + q0^2 + ... + q0^(2e-2) = 0, or infinity."""
    if char == 0:
        q0 = Fraction(q0)
        if q0 == 0:
            raise CoefficientError("q0 must be invertible")
        # over Q the only roots of unity are +-1; the sum is then e, never 0
        return float("inf")
    p = char
    q0 = q0 % p
    if q0 == 0:
        raise CoefficientError("q0 must be invertible")
    q2 = (q0 * q0) % p
    if q2 == 1:
        return p
    # geometric sum vanishes iff q2^e = 1: e = multiplicative order of q2
    e, acc = 1, q2
    while acc != 1:
        acc = (acc * q2) % p
        e += 1
    return e
