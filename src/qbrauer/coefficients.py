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

Almost every value is a Laurent polynomial (denominator 1), and the sum or
product of two of them is built canonical, with no normalising; a factor 1
returns the other factor.  Otherwise the common factor is cancelled by a
route chosen from the normalized denominator, which is almost always free
of z (the only division in the structure constants is by q - q^-1):
  * a constant denominator: no polynomial gcd, only integer contents;
  * a denominator in Z[q]: its gcd in Z[q] with each z-row of the numerator;
  * a denominator with z: the primitive-part Euclidean algorithm in Z[q][z].

This module alone decides what type a specialized value has: specialize
returns a Coeff in q alone at z = q^a, a Fraction at a point of
characteristic 0 and an Fp at a point of prime characteristic.  The
classical limit (q = 1 at z = q^a) is read off that Coeff: its numerator
and denominator are coprime, so q - 1 never divides both, and the value is
the quotient of their coefficient sums, or a pole when the denominator's
sum is 0.
"""

from __future__ import annotations

from math import gcd as _igcd
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    from fractions import Fraction


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

_UNIT: Terms = {(0, 0): 1}  # the denominator of a Laurent polynomial; never mutated


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


def _pshift(a: Terms, di: int, dj: int) -> Terms:
    if di == 0 and dj == 0:
        return dict(a)
    return {(i + di, j + dj): v for (i, j), v in a.items()}


def _content(values) -> int:
    """gcd of some integers (0 when there are none)."""
    return _igcd(*values)


def _pmin_exps(a: Terms):
    mi = min(i for i, _ in a)
    mj = min(j for _, j in a)
    return mi, mj


# --- dense lists: a polynomial in Z[q] is a list of integers, one in
# Z[q][z] a list over z of such lists; neither keeps a trailing zero ---------


def _trim(a: list) -> list:
    """Drop trailing zeros (or empty rows) of a, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _ugcd(a: list, b: list) -> list:
    """gcd in Z[q] via the primitive-part Euclidean algorithm."""
    a, b = _uprim(a), _uprim(b)
    while b:
        a, b = b, _uprim(_uprem(a, b))
    return a


def _uprim(a: list) -> list:
    """Primitive part with a positive leading coefficient."""
    a = _trim(list(a))
    if not a:
        return a
    g = _content(a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _uprem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b over Z[q]."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _trim(a):
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for k in range(db + 1):
            a[da - db + k] -= la * b[k]
        _trim(a)
    return a


def _umul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _usub(a: list, b: list) -> list:
    out = a + [0] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] -= c
    return _trim(out)


def _uquo_exact(a: list, b: list) -> list:
    """Exact division in Z[q]; raises unless b divides a with a quotient in
    Z[q] (always the case when b is primitive and divides a over Q)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    while len(a) - 1 >= db and _trim(a):
        da = len(a) - 1
        c, r = divmod(a[-1], lb)
        if r:
            raise CoefficientError("quotient not integral")
        out[da - db] = c
        for k in range(db + 1):
            a[da - db + k] -= c * b[k]
        _trim(a)
    if _trim(a):
        raise CoefficientError("inexact polynomial division")
    return _trim(out)


# --- bivariate gcd: z outer, coefficients in Z[q] ---------------------------


def _to_zrec(a: Terms):
    """Represent a (monomial-stripped) polynomial as list over z of Z[q] lists."""
    dz = max(j for _, j in a)
    dq = max(i for i, _ in a)
    rows = [[0] * (dq + 1) for _ in range(dz + 1)]
    for (i, j), c in a.items():
        rows[j][i] = c
    return [_trim(r) for r in rows]


def _from_zrec(rows) -> Terms:
    out: Terms = {}
    for j, r in enumerate(rows):
        for i, c in enumerate(r):
            if c:
                out[(i, j)] = c
    return out


def _zcontent(rows) -> list:
    """gcd in Z[q] of the nonzero rows, primitive."""
    g: list = []
    for r in rows:
        if r:
            g = _ugcd(g, r) if g else _uprim(r)
            if g == [1]:
                break
    return g


def _zprim(rows):
    """(primitive part, content in Z[q]) of a polynomial in Z[q][z], ([], [])
    for zero; the content's integer factor is dropped."""
    rows = _trim([list(r) for r in rows])
    ic = _content(c for r in rows for c in r)
    if ic > 1:
        rows = [[c // ic for c in r] for r in rows]
    cont = _zcontent(rows)
    if cont != [1]:
        rows = [_uquo_exact(r, cont) if r else [] for r in rows]
    return rows, cont


def _zprem(a, b):
    """Pseudo-remainder of a by b, z the outer variable."""
    a = [list(r) for r in a]
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _trim(a):
        da, la = len(a) - 1, a[-1]
        a = [_umul(r, lb) for r in a]
        for k in range(db + 1):
            a[da - db + k] = _usub(a[da - db + k], _umul(la, b[k]))
        _trim(a)
    return a


def _pgcd(a: Terms, b: Terms) -> Terms:
    """gcd of two nonzero monomial-stripped polynomials in Z[q, z],
    primitive."""
    ra, ca = _zprim(_to_zrec(a))
    rb, cb = _zprim(_to_zrec(b))
    ccont = _ugcd(ca, cb)
    if len(ra) < len(rb):
        ra, rb = rb, ra
    while rb:
        ra, rb = rb, _zprim(_zprem(ra, rb))[0]
    if ccont != [1]:
        ra = [_umul(r, ccont) for r in ra]
    return _from_zrec(ra)


def _pdiv_exact(a: Terms, b: Terms) -> Terms:
    """Exact division of polynomials in Z[q, z] (b divides a)."""
    ra = _to_zrec(a)
    rb = _to_zrec(b)
    db, lb = len(rb) - 1, rb[-1]
    quo = [[] for _ in range(len(ra) - db)]
    while _trim(ra) and len(ra) - 1 >= db:
        da = len(ra) - 1
        c = quo[da - db] = _uquo_exact(ra[-1], lb)
        for k in range(db + 1):
            ra[da - db + k] = _usub(ra[da - db + k], _umul(c, rb[k]))
    if ra:
        raise CoefficientError("inexact polynomial division")
    return _from_zrec(quo)


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------


def _canonical(num: Terms, den: Terms):
    num = {k: v for k, v in num.items() if v}
    den = {k: v for k, v in den.items() if v}
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, _UNIT
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
    c = _content((*num.values(), *den.values()))
    if c > 1:
        num = {k: v // c for k, v in num.items()}
        den = {k: v // c for k, v in den.items()}
    if den[max(den)] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


def _cancel_in_q(num: Terms, den: Terms):
    """Cancel gcd(num, den) for a denominator free of z: the gcd lies in Z[q]
    and divides every z-row of the numerator.  Both are monomial-stripped."""
    d = _to_zrec(den)[0]
    rows = _to_zrec(num)
    g = _zcontent([d, *rows])
    if g == [1]:
        return num, den
    rows = [_uquo_exact(r, g) if r else r for r in rows]
    return _from_zrec(rows), _from_zrec([_uquo_exact(d, g)])


class Coeff:
    """Element of the fraction field of Z[q^{+-1}, z^{+-1}], canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Terms, den: Terms = _UNIT, _canon=False):
        if _canon:
            self.num, self.den = num, den
        else:
            self.num, self.den = _canonical(num, den)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(c: int) -> "Coeff":
        return Coeff({(0, 0): c} if c else {})

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        # an integer constant equals its int, so it hashes as that int
        if self._hash is None:
            if self.den == _UNIT and self.num.keys() <= {(0, 0)}:
                self._hash = hash(self.num.get((0, 0), 0))
            else:
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
            # a sum of Laurent polynomials is already canonical
            return Coeff(_padd(self.num, other.num), self.den, _canon=self.den == _UNIT)
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
        laurent, other_laurent = self.den == _UNIT, other.den == _UNIT
        if other_laurent and other.num == _UNIT:
            return self
        if laurent and self.num == _UNIT:
            return other
        if laurent and other_laurent:
            # a product of Laurent polynomials is already canonical
            return Coeff(_pmul(self.num, other.num), _UNIT, _canon=True)
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
        if self.den == _UNIT:
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
        add_term(out, (i, j), c)
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
ONE = Coeff({(0, 0): 1})
Q = Coeff({(1, 0): 1})
QINV = Coeff({(-1, 0): 1})
Z = Coeff({(0, 1): 1})
ZINV = Coeff({(0, -1): 1})
A = Q - QINV  # q - q^-1


def delta() -> Coeff:
    """(z - z^-1)/(q - q^-1)."""
    return (Z - ZINV) / A


def add_term(out: dict, key, c) -> None:
    """out[key] += c in a sparse combination {key: coefficient}: a key whose
    coefficient vanishes is removed, so a zero value is never stored."""
    v = out.get(key)
    v = c if v is None else v + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def add_scaled(out: dict, terms: dict, c) -> None:
    """out += c * terms for sparse combinations, term by term through
    add_term."""
    for key, v in terms.items():
        add_term(out, key, c * v)


DELTA = delta()


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


class IntegerExponent(NamedTuple):
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


class Fp:
    """Element of the prime field Z/p, the value of a coefficient at a
    NumericPoint of characteristic p.  It mixes with an Fp of the same p and
    with int; it equals an int only when that int is its representative in
    [0, p), which is also its str."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _residue(self, other):
        """other as an int to combine with self, or None for a foreign type."""
        if isinstance(other, Fp):
            if other.p != self.p:
                raise CoefficientError("mixed characteristics")
            return other.v
        return other if isinstance(other, int) else None

    def __add__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(self.v + o, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __sub__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(self.v - o, self.p)

    def __rsub__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(o - self.v, self.p)

    def __mul__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(self.v * o, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._residue(other)
        if o is None:
            return NotImplemented
        if o % self.p == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.v * pow(o, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._residue(other)
        return NotImplemented if o is None else Fp(o, self.p) / self

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        # an int is equal only as the representative, so equal values hash equal
        if isinstance(other, int):
            return self.v == other
        return isinstance(other, Fp) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


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


class _Point(NamedTuple):
    characteristic: int
    q0: Union[int, Fraction]
    z0: Union[int, Fraction]


class NumericPoint(_Point):
    """Evaluation at a concrete point of a field of characteristic 0 or p:
    q0 and z0 are ints, or at p = 0 also Fractions."""

    __slots__ = ()

    def __new__(cls, characteristic: int, q0, z0):
        p = characteristic
        if p == 0:
            from fractions import Fraction

            qv, zv = Fraction(q0), Fraction(z0)
        elif is_prime(p):
            qv, zv = Fp(q0, p), Fp(z0, p)
        else:
            raise CoefficientError(f"characteristic {p} must be 0 or a prime")
        for name, v in (("q0", qv), ("z0", zv)):
            if not v:
                raise CoefficientError(f"{name} must be invertible")
        if not qv - 1 / qv:
            raise CoefficientError(_Q0_POLE)
        if not zv - 1 / zv:
            raise CoefficientError(_DELTA_ZERO)
        return super().__new__(cls, p, q0, z0)


Specialization = Union[IntegerExponent, NumericPoint]


def _eval_point(a: Terms, point: NumericPoint):
    p = point.characteristic
    if p == 0:
        from fractions import Fraction

        q0, z0 = Fraction(point.q0), Fraction(point.z0)
        return sum(
            (c * q0**i * z0**j for (i, j), c in a.items()), start=Fraction(0)
        )
    q0, z0 = point.q0 % p, point.z0 % p
    total = 0
    for (i, j), c in a.items():
        total = (total + c * pow(q0, i, p) * pow(z0, j, p)) % p
    return Fp(total, p)


def _at_z_power(a: Terms, e: int) -> Terms:
    """a at z = q^e, a polynomial in q alone."""
    out: Terms = {}
    for (i, j), v in a.items():
        add_term(out, (i + e * j, 0), v)
    return out


def specialize(c: Coeff, s: Specialization):
    """Apply a specialization.

    IntegerExponent returns a Coeff that is constant in z (z -> q^a);
    NumericPoint returns a field element: a Fraction when p = 0 and an Fp
    when p is prime.
    """
    if isinstance(s, IntegerExponent):
        den = _at_z_power(c.den, s.a)
        if not den:
            raise PoleError(f"denominator vanishes identically at z=q^{s.a}")
        return Coeff(_at_z_power(c.num, s.a), den)
    den = _eval_point(c.den, s)
    if not den:
        raise PoleError("pole at numeric point")
    return _eval_point(c.num, s) / den


def classical_limit(c: Coeff, a: int) -> Fraction:
    """Value at q = 1 of c after substituting z = q^a.  The substituted value
    is canonical, so its numerator and denominator are coprime and q - 1
    never divides both: the value is the quotient of their coefficient sums,
    and a denominator sum of 0 is a pole."""
    spec = specialize(c, IntegerExponent(a))
    den = sum(spec.den.values())
    if not den:
        raise PoleError(f"pole at q=1 for z=q^{a}")
    from fractions import Fraction

    return Fraction(sum(spec.num.values()), den)


def quantum_characteristic(char: int, q0) -> Union[int, float]:
    """Minimal e >= 1 with 1 + q0^2 + ... + q0^(2e-2) = 0, or infinity."""
    if char == 0:
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
    # geometric sum vanishes iff q2^e = 1: e = multiplicative order of q2,
    # a divisor of p - 1 from which each prime factor is divided out while
    # the power stays 1
    e = p - 1
    for r in _prime_factors(e):
        while e % r == 0 and pow(q2, e // r, p) == 1:
            e //= r
    return e


def _prime_factors(m: int) -> set:
    """The distinct prime factors of 1 <= m < _MR_LIMIT: trial division
    below 2^10, then Pollard's rho on the cofactor, whose prime factors
    is_prime certifies."""
    out = set()
    for r in range(2, 1 << 10):
        while m % r == 0:
            out.add(r)
            m //= r
    rest = [m] if m > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out.add(m)
            continue
        d, c = m, 0
        while d == m:  # a rho cycle closed on m itself: next polynomial
            c += 1
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = _igcd(x - y, m)
        rest += [d, m // d]
    return out
