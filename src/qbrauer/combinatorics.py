"""Partitions, tableaux, permutations, coset representatives and orders.

Conventions fixed here and used everywhere:
  * Permutations are bijections of a window of integers; the product p * q
    means "apply p first, then q": (p * q)(x) = q(p(x)).  This matches
    left-to-right composition of generator words.
  * s(i) swaps i and i+1.  seg(i, j) is the length-|i-j| element moving i to
    j through adjacent swaps: for i < j it is s_i s_{i+1} ... s_{j-1}, for
    i > j it is s_{i-1} s_{i-2} ... s_j, and for i = j the identity.
  * Partitions are tuples of weakly decreasing positive integers; the empty
    partition is ().
  * A shape lam at level k of an up-down tableau is the label (f, lam) with
    deficiency f = (k - |lam|)/2.  At a fixed level, larger f is strictly
    larger (the bigger cell) and equal f compares shapes by dominates;
    label_key refines this to a total order.  branching_list gives the
    neighbours of a label one level down, and the up-down tableaux of lam
    are the paths of that branching graph from lam to the empty partition;
    updown_tableaux lists them in ud_key order.  Up-down tableaux are
    ordered levelwise, s above t when s_k is at or above t_k at every level
    k (ud_dominates), and ud_key refines that order.  The Jucys-Murphy
    elements act triangularly in it: L_k m_t = c_t(k) m_t + terms m_s with
    s strictly above t.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, List, Sequence, Tuple

Partition = Tuple[int, ...]


class CombinatoricsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


class Perm:
    """A permutation fixing everything outside a finite window.

    Stored as the image tuple of the window [start, start + len - 1], trimmed
    so that the first and last window points are moved (canonical form).
    """

    __slots__ = ("start", "images", "_hash")

    def __init__(self, images: Sequence[int], start: int = 1):
        images = tuple(images)
        # canonicalize: trim fixed endpoints
        lo, hi = 0, len(images)
        while lo < hi and images[lo] == start + lo:
            lo += 1
        while hi > lo and images[hi - 1] == start + hi - 1:
            hi -= 1
        self.start = start + lo if hi > lo else 1
        self.images = images[lo:hi]
        self._hash = None
        if sorted(self.images) != list(
            range(self.start, self.start + len(self.images))
        ):
            raise CombinatoricsError(f"not a bijection of its window: {images}")

    # -- basics --------------------------------------------------------------

    def __call__(self, x: int) -> int:
        idx = x - self.start
        if 0 <= idx < len(self.images):
            return self.images[idx]
        return x

    def is_identity(self) -> bool:
        return not self.images

    def __eq__(self, other):
        return (
            isinstance(other, Perm)
            and self.start == other.start
            and self.images == other.images
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.start, self.images))
        return self._hash

    def __repr__(self):
        if not self.images:
            return "Perm(id)"
        return f"Perm({list(self.images)}, start={self.start})"

    # -- group operations ------------------------------------------------------

    def __mul__(self, other: "Perm") -> "Perm":
        """(self * other)(x) = other(self(x)): apply self first."""
        if not self.images:
            return other
        if not other.images:
            return self
        lo = min(self.start, other.start)
        hi = max(
            self.start + len(self.images), other.start + len(other.images)
        )
        return Perm([other(self(x)) for x in range(lo, hi)], lo)

    def inv(self) -> "Perm":
        if not self.images:
            return self
        out = [0] * len(self.images)
        for k, v in enumerate(self.images):
            out[v - self.start] = self.start + k
        return Perm(out, self.start)

    # -- Coxeter data ----------------------------------------------------------

    def length(self) -> int:
        """Inversion count = Coxeter length."""
        im = self.images
        return sum(
            1
            for a, b in combinations(range(len(im)), 2)
            if im[a] > im[b]
        )

    def right_descents(self) -> List[int]:
        """Indices i with length(self * s(i)) < length(self).

        With left-to-right composition, self * s(i) swaps the values i, i+1,
        so i is a descent when i+1 occurs before i in the one-line form."""
        return self.inv().left_descents()

    def left_descents(self) -> List[int]:
        """Indices i with length(s(i) * self) < length(self)."""
        out = []
        for k in range(len(self.images) - 1):
            if self.images[k] > self.images[k + 1]:
                out.append(self.start + k)
        return out

    def word(self) -> Tuple[int, ...]:
        """A reduced word (smallest right descent peeled last)."""
        w = self
        rev = []
        while True:
            ds = w.right_descents()
            if not ds:
                break
            i = ds[0]
            rev.append(i)
            w = w * s(i)
        return tuple(reversed(rev))

    def min_window(self) -> Tuple[int, int]:
        """Smallest window [lo, hi] containing all moved points (id: (1, 0))."""
        if not self.images:
            return (1, 0)
        return (self.start, self.start + len(self.images) - 1)

    def supported_in(self, lo: int, hi: int) -> bool:
        a, b = self.min_window()
        return a > b or (lo <= a and b <= hi)


IDENTITY = Perm(())


def s(i: int) -> Perm:
    """Adjacent transposition swapping i and i+1."""
    return Perm((i + 1, i), i)


def perm_from_word(word: Sequence[int]) -> Perm:
    w = IDENTITY
    for i in word:
        w = w * s(i)
    return w


def window_perms(lo: int, hi: int) -> List[Perm]:
    """All permutations of the window [lo, hi], in itertools order; an
    empty window (lo > hi) gives [IDENTITY]."""
    return [Perm(p, lo) for p in permutations(range(lo, hi + 1))]


def seg(i: int, j: int) -> Perm:
    """The element s_{i,j}: s_i s_{i+1}...s_{j-1} (i<j), s_{i-1}...s_j (i>j)."""
    return perm_from_word(seg_word(i, j))


def seg_word(i: int, j: int) -> Tuple[int, ...]:
    if i < j:
        return tuple(range(i, j))
    if i > j:
        return tuple(range(i - 1, j - 1, -1))
    return ()


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def partitions(d: int) -> List[Partition]:
    """All partitions of d."""

    def gen(rem: int, maxpart: int) -> Iterator[Partition]:
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return list(gen(d, d if d else 1))


def is_partition(lam: Sequence[int]) -> bool:
    """Whether lam is weakly decreasing and positive."""
    return all(p > 0 for p in lam) and all(a >= b for a, b in zip(lam, lam[1:]))


CellLabel = Tuple[int, Partition]


def dominance_key(lam: Partition):
    """The partial sums of lam, padded to length |lam|: dominates compares
    them entry by entry, and as a sort key they refine that order."""
    acc, out = 0, []
    for p in lam:
        acc += p
        out.append(acc)
    return tuple(out) + (acc,) * (sum(lam) - len(out))


def dominates(lam: Partition, mu: Partition) -> bool:
    """Whether lam is at or above mu, two partitions of one size: no
    partial sum of lam is below that of mu."""
    if sum(lam) != sum(mu):
        raise CombinatoricsError("dominates needs equal sizes")
    return all(a >= b for a, b in zip(dominance_key(lam), dominance_key(mu)))


def label_key(k: int, lam: Partition):
    """Total-order key of the shape lam at level k of an up-down tableau:
    its deficiency (k - |lam|)/2, larger is larger, then dominance_key."""
    return ((k - sum(lam)) // 2, dominance_key(lam))


def brauer_dimension(n: int) -> int:
    """(2n-1)!!, the number of Brauer diagrams on 2n points and the
    dimension of the rank-n algebra."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def check_label(n: int, f: int, lam: Sequence[int]) -> Partition:
    """lam as a Partition when (f, lam) is a cell label of the rank-n
    algebra: 0 <= 2f <= n and lam a partition of n - 2f.  Takes
    O(len(lam)) steps and lists no labels."""
    lam = tuple(lam)
    if not (0 <= 2 * f <= n and is_partition(lam) and sum(lam) == n - 2 * f):
        raise CombinatoricsError(
            f"(f={f}, lambda={list(lam)}) is not a cell label at n={n}"
        )
    return lam


def labels(n: int) -> List[CellLabel]:
    """All cell labels (f, lam) with 0 <= f <= n//2, lam a partition of n-2f,
    in report order: f ascending, each f dominance_key-descending.  This is
    a listing, not the order of label_key."""
    out: List[CellLabel] = []
    for f in range(n // 2 + 1):
        lams = partitions(n - 2 * f)
        lams.sort(key=dominance_key, reverse=True)
        out.extend((f, lam) for lam in lams)
    return out


# ---------------------------------------------------------------------------
# nodes and contents
# ---------------------------------------------------------------------------

Node = Tuple[int, int]


def nodes(lam: Partition) -> Tuple[List[Node], List[Node]]:
    """(removable, addable) nodes, 1-based (row, col)."""
    removable = []
    addable = []
    k = len(lam)
    for r in range(k):
        if r == k - 1 or lam[r] > lam[r + 1]:
            removable.append((r + 1, lam[r]))
        if r == 0 or lam[r] < lam[r - 1]:
            addable.append((r + 1, lam[r] + 1))
    addable.append((k + 1, 1))
    return removable, addable


def content(p: Node) -> int:
    return p[1] - p[0]


def remove_node(lam: Partition, p: Node) -> Partition:
    r = p[0] - 1
    out = list(lam)
    out[r] -= 1
    if out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add_node(lam: Partition, p: Node) -> Partition:
    r = p[0] - 1
    out = list(lam)
    if r == len(out):
        out.append(1)
    else:
        out[r] += 1
    return tuple(out)


def shape_diff(big: Partition, small: Partition) -> Node:
    """The unique node in big but not in small (big = small + one box)."""
    for r in range(len(big)):
        b = big[r]
        a = small[r] if r < len(small) else 0
        if b != a:
            return (r + 1, b)
    raise CombinatoricsError("shapes are equal")


# ---------------------------------------------------------------------------
# standard tableaux
# ---------------------------------------------------------------------------

StandardTableau = Tuple[Tuple[int, ...], ...]


def superstandard(lam: Partition, start: int = 1) -> StandardTableau:
    """Row-reading filling: rows filled left to right, top to bottom."""
    rows = []
    x = start
    for p in lam:
        rows.append(tuple(range(x, x + p)))
        x += p
    return tuple(rows)


def std_tableaux(lam: Partition, start: int = 1) -> List[StandardTableau]:
    """All standard tableaux of shape lam with entries start..start+|lam|-1."""
    n = sum(lam)
    out: List[StandardTableau] = []

    def grow(rows: List[List[int]], x: int):
        if x == start + n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r in range(len(lam)):
            if len(rows[r]) < lam[r] and (r == 0 or len(rows[r - 1]) > len(rows[r])):
                rows[r].append(x)
                grow(rows, x + 1)
                rows[r].pop()

    grow([[] for _ in lam], start)
    return out


def coset_word(t: StandardTableau) -> Perm:
    """d(t) with t = t^lam . d(t): sends each entry of the superstandard
    tableau to the entry of t in the same cell."""
    if not t:
        return IDENTITY
    start = min(min(r) for r in t if r)
    lam = tuple(len(r) for r in t)
    tl = superstandard(lam, start)
    n = sum(lam)
    images = [0] * n
    for r in range(len(lam)):
        for c in range(lam[r]):
            images[tl[r][c] - start] = t[r][c]
    return Perm(images, start)


def row_stabilizer_perms(lam: Partition, start: int = 1) -> List[Perm]:
    """All elements of the Young subgroup S_lam (row stabilizer of t^lam)."""
    out = [IDENTITY]
    x = start
    for p in lam:
        block = window_perms(x, x + p - 1)
        out = [a * b for a in out for b in block]
        x += p
    return out


# ---------------------------------------------------------------------------
# coset representatives D_{f,n}
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def coset_reps_D(f: int, n: int) -> Tuple[Perm, ...]:
    """The distinguished representatives
    s_{2f,i_f} s_{2f-1,j_f} ... s_{2,i_1} s_{1,j_1}
    with i_1 < ... < i_f and 2k-1 <= j_k < i_k <= n; each is checked to have
    no left descent above 2f, so T_w T_d is reduced for w in the window."""
    if not (0 <= 2 * f <= n):
        raise CombinatoricsError(f"f={f} out of range for n={n}")
    if f == 0:
        return (IDENTITY,)
    out = []
    # choose (j_k, i_k) for k = 1..f with i's increasing
    def rec(k: int, prev_i: int, chosen):
        if k > f:
            out.append(tuple(chosen))
            return
        for ik in range(max(prev_i + 1, 2 * k), n + 1):
            for jk in range(2 * k - 1, ik):
                chosen.append((jk, ik))
                rec(k + 1, ik, chosen)
                chosen.pop()

    rec(1, 0, [])
    reps = []
    for chosen in out:
        w = IDENTITY
        for k in range(f, 0, -1):
            jk, ik = chosen[k - 1]
            w = w * seg(2 * k, ik) * seg(2 * k - 1, jk)
        if any(m > 2 * f for m in w.left_descents()):
            raise CombinatoricsError(
                f"{w} in D_({f},{n}) has a left descent above {2 * f}"
            )
        reps.append(w)
    return tuple(reps)


def d_config(f: int, d: Perm) -> frozenset:
    """Bottom-pair configuration {{d(2k-1), d(2k)}} of a representative."""
    return frozenset(
        frozenset((d(2 * k - 1), d(2 * k))) for k in range(1, f + 1)
    )


@lru_cache(maxsize=None)
def config_to_rep(f: int, n: int) -> dict:
    """Map pair-configuration -> distinguished representative in D_{f,n}."""
    out = {}
    for d in coset_reps_D(f, n):
        cfg = d_config(f, d)
        if cfg in out:
            raise CombinatoricsError("duplicate configuration in D_{f,n}")
        out[cfg] = d
    return out


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------


def branching_list(f: int, lam: Partition, n: int) -> List[Partition]:
    """Ordered restriction list for the label (f, lam) of the rank-n algebra:
    the shapes at rank n-1 reached by removing a box (labels (f, .)) and,
    when f > 0, by adding one (labels (f-1, .)), by label_key(n-1, .)
    descending, so removals come first."""
    lam = check_label(n, f, lam)
    removable, addable = nodes(lam)
    mus = [remove_node(lam, p) for p in removable]
    if f:
        mus += [add_node(lam, p) for p in addable]
    mus.sort(key=lambda mu: label_key(n - 1, mu), reverse=True)
    return mus


# ---------------------------------------------------------------------------
# up-down tableaux
# ---------------------------------------------------------------------------


class UpDownTableau:
    """A path of partitions (t_0 = empty, t_1, ..., t_n) with one-box steps."""

    __slots__ = ("shapes", "_hash")

    def __init__(self, shapes: Sequence[Partition]):
        self.shapes = tuple(tuple(p) for p in shapes)
        self._hash = None
        if self.shapes[0] != ():
            raise CombinatoricsError("path must start at the empty partition")
        for k in range(1, len(self.shapes)):
            if abs(sum(self.shapes[k]) - sum(self.shapes[k - 1])) != 1:
                raise CombinatoricsError("steps must add or remove one box")

    @property
    def n(self) -> int:
        return len(self.shapes) - 1

    @property
    def shape(self) -> Partition:
        return self.shapes[-1]

    def step(self, k: int) -> Tuple[str, Node]:
        """('add'|'remove', node) describing t_{k-1} -> t_k."""
        a, b = self.shapes[k - 1], self.shapes[k]
        if sum(b) > sum(a):
            return "add", shape_diff(b, a)
        return "remove", shape_diff(a, b)

    def __eq__(self, other):
        return isinstance(other, UpDownTableau) and self.shapes == other.shapes

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.shapes)
        return self._hash

    def __repr__(self):
        return "UD" + repr([list(p) for p in self.shapes])


def updown_tableaux(n: int, lam: Partition) -> List[UpDownTableau]:
    """The up-down tableaux of shape lam at level n: the paths of the
    branching graph from lam down to the empty partition, each step a shape
    of branching_list.  Taking those shapes in ascending label_key at every
    level lists the paths in ud_key order."""
    lam = check_label(n, (n - sum(lam)) // 2, lam)
    paths: List[Tuple[Partition, ...]] = [(lam,)]
    for k in range(n, 0, -1):
        paths = [
            (mu,) + p
            for p in paths
            for mu in reversed(branching_list((k - sum(p[0])) // 2, p[0], k))
        ]
    return [UpDownTableau(p) for p in paths]


def ud_key(t: UpDownTableau):
    """Sort key refining ud_dominates: the label_key of each level, the last
    level first."""
    return tuple(label_key(k, t.shapes[k]) for k in range(t.n, -1, -1))


def ud_dominates(s: UpDownTableau, t: UpDownTableau) -> bool:
    """Whether s is at or above t: at every level k the label of s_k has
    the larger deficiency, or the same one and a shape dominating t_k."""
    if s.n != t.n:
        raise CombinatoricsError("paths must share their length")
    for k, (a, b) in enumerate(zip(s.shapes, t.shapes)):
        fa, fb = label_key(k, a)[0], label_key(k, b)[0]
        if fa < fb or (fa == fb and not dominates(a, b)):
            return False
    return True


# ---------------------------------------------------------------------------
# JM eigenvalues
# ---------------------------------------------------------------------------


def ct_eigenvalue(t: UpDownTableau, k: int):
    """Eigenvalue of the k-th Jucys-Murphy element on the basis vector of t."""
    from .coefficients import A, Coeff, ONE, Q, ZINV

    kind, p = t.step(k)
    c = content(p)
    if kind == "add":
        return (Q ** (2 * c) - ONE) / A
    return (ZINV**2 * Q ** (2 - 2 * c) - ONE) / A
