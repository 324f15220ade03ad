"""Exact dense linear algebra over a field.

Entries must be field elements of one type: Coeff, fractions.Fraction or
coefficients.Fp (the values specialize returns), closed under +, -, *, /
and falsy exactly when zero.  Plain int and float entries are refused with
LinAlgError, since int / int would turn into a float.  Matrices are lists
of lists, rows first.

Everything that eliminates rests on one forward elimination (_echelon) and
one back-substitution (_back_substitute): rank and determinant read the
echelon form; inverse, kernel and row-span membership read the reduced
form.  mat_mul is a sparse row product.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class LinAlgError(ValueError):
    pass


Matrix = List[List]


def _zero_like(m: Matrix):
    for row in m:
        for x in row:
            return x - x
    raise LinAlgError("empty matrix has no sample entry")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a . b, visiting only the nonzero entries of both."""
    if not a or not b:
        return []
    zero = _zero_like(b)
    sparse = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, brow in zip(row, sparse):
            if x:
                for j, y in brow:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def _echelon(m: Matrix) -> Tuple[Matrix, int, list]:
    """Row echelon form of a copy of m, each pivot the entry with the fewest
    terms in its column; returns (rows, swaps, pivot columns)."""
    rows = [list(r) for r in m]
    for r in rows:
        for x in r:
            if isinstance(x, (int, float)):
                raise LinAlgError(f"entry {x!r} is not a field element")
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    swaps = 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # pivot: fewest terms (a Coeff's num and den; others all tie), first row on a tie
        weights = {
            i: len(getattr(x, "num", ())) + len(getattr(x, "den", ()))
            for i in range(r, nrows)
            if (x := rows[i][c])
        }
        if not weights:
            continue
        pr = min(weights, key=weights.get)
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        pivots.append(c)
        prow = rows[r]
        pv = prow[c]
        for i in range(r + 1, nrows):
            x = rows[i][c]
            if x:
                factor = x / pv
                rows[i] = [a - factor * y if y else a for a, y in zip(rows[i], prow)]
        r += 1
    return rows, swaps, pivots


def _back_substitute(rows: Matrix, pivots: list) -> Matrix:
    """Reduced row echelon form of an echelon form from _echelon, in place:
    every pivot becomes one and the entries above it zero."""
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        pv = rows[i][c]
        prow = rows[i] = [x / pv if x else x for x in rows[i]]
        for k in range(i):
            x = rows[k][c]
            if x:
                rows[k] = [a - x * y if y else a for a, y in zip(rows[k], prow)]
    return rows


def mat_rank(m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    return len(_echelon(m)[2])


def mat_det(m: Matrix):
    if not m:
        raise LinAlgError("determinant of an empty matrix is undefined here")
    if len(m) != len(m[0]):
        raise LinAlgError("determinant needs a square matrix")
    rows, swaps, pivots = _echelon(m)
    zero = _zero_like(m)
    if len(pivots) < len(m):
        return zero
    det = zero + 1
    for i, c in enumerate(pivots):
        det = det * rows[i][c]
    return -det if swaps % 2 else det


def mat_inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix, by reducing [m | I] to [I | m^-1]."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise LinAlgError("inverse needs a square matrix")
    zero = _zero_like(m)
    one = zero + 1
    aug = [
        list(r) + [one if j == i else zero for j in range(n)]
        for i, r in enumerate(m)
    ]
    rows, _, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise LinAlgError("matrix is singular")
    return [row[n:] for row in _back_substitute(rows, pivots)]


def kernel_basis(m: Matrix) -> List[list]:
    """Basis of the left kernel {v : v . m = 0} (row vectors): the right
    kernel of m^T, one vector per free column of its reduced form.  Vector
    i is one at its own free column, which is its last nonzero entry, and
    zero at every other free column."""
    if not m:
        return []
    mt = [list(col) for col in zip(*m)]
    rows, _, pivots = _echelon(mt)
    rows = _back_substitute(rows, pivots)
    zero = _zero_like(m)
    one = zero + 1
    basis = []
    for fc in range(len(m)):
        if fc in pivots:
            continue
        v = [zero] * len(m)
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def in_row_span(span_rows: Matrix, v: Sequence) -> Optional[list]:
    """Coefficients c with c . span_rows = v, or None when v is not in the
    row span: one elimination of the system [span_rows^T | v^T]."""
    if not span_rows:
        return None if any(v) else []
    k = len(span_rows)
    system = [[r[j] for r in span_rows] + [v[j]] for j in range(len(v))]
    rows, _, pivots = _echelon(system)
    if pivots and pivots[-1] == k:
        return None
    rows = _back_substitute(rows, pivots)
    c = [_zero_like(span_rows)] * k
    for i, pc in enumerate(pivots):
        c[pc] = rows[i][k]
    return c
