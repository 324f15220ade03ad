"""Exact dense linear algebra over any field-like coefficient type.

Entries must support +, -, *, / and be falsy exactly when zero (Coeff,
fractions.Fraction and the Fp wrapper below all qualify).  Matrices are
lists of lists, rows first.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class LinAlgError(ValueError):
    pass


class Fp:
    """Element of the prime field Z/p for fast numeric rank/det work."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise LinAlgError("mixed characteristics")
            return other
        return Fp(int(other), self.p)

    def __add__(self, other):
        o = self._coerce(other)
        return Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        return Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.v * pow(o.v, -1, self.p), self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        return isinstance(other, Fp) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


Matrix = List[List]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    cols = len(b[0])
    return [
        [
            sum((x * b[k][j] for k, x in enumerate(row) if x), start=_zero_like(a))
            for j in range(cols)
        ]
        for row in a
    ]


def _zero_like(a: Matrix):
    for row in a:
        for x in row:
            return x - x
    raise LinAlgError("empty matrix has no sample entry")


def _echelon(m: Matrix) -> Tuple[Matrix, int, list]:
    """Row echelon form by exact division; returns (rows, swaps, pivot cols)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    swaps = 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        pivots.append(c)
        pv = rows[r][c]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                factor = rows[i][c] / pv
                rows[i] = [
                    x - factor * y for x, y in zip(rows[i], rows[r])
                ]
        r += 1
        if r == nrows:
            break
    return rows, swaps, pivots


def mat_rank(m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    _, _, pivots = _echelon(m)
    return len(pivots)


def mat_det(m: Matrix):
    if not m:
        raise LinAlgError("determinant of an empty matrix is undefined here")
    if len(m) != len(m[0]):
        raise LinAlgError("determinant needs a square matrix")
    rows, swaps, pivots = _echelon(m)
    zero = _zero_like(m)
    if len(pivots) < len(m):
        return zero
    det = zero + 1 if not isinstance(m[0][0], Fp) else Fp(1, m[0][0].p)
    for i in range(len(m)):
        det = det * rows[i][pivots[i]]
    if swaps % 2:
        det = zero - det
    return det


def mat_inverse(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(r) != n for r in m):
        raise LinAlgError("inverse needs a square matrix")
    zero = _zero_like(m)
    one = zero + 1 if not isinstance(m[0][0], Fp) else Fp(1, m[0][0].p)
    aug = [list(m[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c]), None)
        if pr is None:
            raise LinAlgError("matrix is singular")
        if pr != c:
            aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def kernel_basis(m: Matrix) -> List[list]:
    """Basis of the left kernel {v : v * m = 0} (row vectors)."""
    if not m:
        return []
    # left kernel of m = right kernel of m^T; work with rows of m^T = columns
    mt = [list(col) for col in zip(*m)]
    nrows = len(mt)
    ncols = len(mt[0])
    rows, _, pivots = _echelon(mt)
    zero = _zero_like(m)
    one = zero + 1 if not isinstance(m[0][0], Fp) else Fp(1, m[0][0].p)
    # back-substitute free columns of the echelon form of m^T
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        # solve pivot entries from bottom up
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            acc = zero
            for c in range(pc + 1, ncols):
                if rows[i][c] and v[c]:
                    acc = acc + rows[i][c] * v[c]
            if acc:
                v[pc] = zero - acc / rows[i][pc]
        basis.append(v)
    return basis


def in_row_span(span_rows: Matrix, v: Sequence) -> Optional[list]:
    """Coefficients expressing v as a combination of span_rows, or None."""
    if not span_rows:
        return None if any(v) else []
    aug = [list(r) for r in span_rows] + [list(v)]
    if mat_rank(aug) == mat_rank([list(r) for r in span_rows]):
        # solve c * span = v via least-structure elimination on the transpose
        zero = _zero_like(span_rows)
        k = len(span_rows)
        cols = len(v)
        # build system: for each column j, sum_i c_i span[i][j] = v[j]
        a = [[span_rows[i][j] for i in range(k)] for j in range(cols)]
        rhs = [v[j] for j in range(cols)]
        # gaussian solve of a * c = rhs (overdetermined, consistent)
        rowsys = [a[j] + [rhs[j]] for j in range(cols)]
        rows, _, pivots = _echelon(rowsys)
        c = [zero] * k
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            if pc == k:
                return None  # inconsistent
            acc = rows[i][k]
            for j in range(pc + 1, k):
                if rows[i][j] and c[j]:
                    acc = acc - rows[i][j] * c[j]
            c[pc] = acc / rows[i][pc]
        return c
    return None
