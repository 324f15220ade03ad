"""Partitions, tableaux, permutations, coset representatives and orders.

Conventions fixed here and used everywhere:
  * A permutation (Perm) is the plain tuple of its images (p(1), ..., p(m))
    with p(m) != m, fixing every point past m; the identity is ().  That is
    its only form, so equal permutations are equal tuples and dict keys.
    perm(images, start) checks input built elsewhere; the functions here
    build the tuples directly.  compose(p, q) is the product p * q, "apply
    p first, then q": (p * q)(x) = q(p(x)).  This matches left-to-right
    composition of generator words.
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
    are the paths of that branching graph from lam to the empty partition:
    tuples of shapes (t_0 = (), t_1, ..., t_n), t[k] the shape at level k,
    which updown_tableaux lists in ud_key order.  Up-down tableaux are
    ordered levelwise, s above t when s_k is at or above t_k at every level
    k (ud_dominates), and ud_key refines that order.  The Jucys-Murphy
    elements act triangularly in it: L_k m_t = c_t(k) m_t + terms m_s with
    s strictly above t.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, permutations, starmap
from math import prod
from operator import gt
from typing import Iterator, List, Sequence, Tuple

Partition = Tuple[int, ...]


class CombinatoricsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


# (p(1), ..., p(m)) with p(m) != m, the identity (): see the conventions above
Perm = Tuple[int, ...]


def _canonical(images: Sequence[int], start: int) -> Perm:
    """The tuple of the permutation with images of the window from start,
    fixed points before the window prepended, trailing ones dropped."""
    out = tuple(range(1, start)) + tuple(images)
    m = len(out)
    while m and out[m - 1] == m:
        m -= 1
    return out[:m]


def perm(images: Sequence[int], start: int = 1) -> Perm:
    """The permutation sending start + k to images[k] and fixing every other
    point, checked to be a bijection of its window of positive integers."""
    out = _canonical(images, start)
    if sorted(out) != list(range(1, len(out) + 1)):
        raise CombinatoricsError(f"not a bijection of its window: {tuple(images)}")
    return out


IDENTITY: Perm = ()


def image(p: Perm, x: int) -> int:
    return p[x - 1] if 1 <= x <= len(p) else x


def compose(p: Perm, q: Perm) -> Perm:
    """The product p * q: apply p first, (p * q)(x) = q(p(x))."""
    if not p:
        return q
    if not q:
        return p
    m = max(len(p), len(q))
    p += tuple(range(len(p) + 1, m + 1))
    q += tuple(range(len(q) + 1, m + 1))
    return _canonical([q[x - 1] for x in p], 1)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for k, v in enumerate(p, 1):
        out[v - 1] = k
    return tuple(out)


def length(p: Perm) -> int:
    """Inversion count = Coxeter length."""
    return sum(starmap(gt, combinations(p, 2)))


def left_descents(p: Perm) -> List[int]:
    """Indices i with length(s(i) * p) < length(p): p(i) > p(i+1)."""
    return [i for i in range(1, len(p)) if p[i - 1] > p[i]]


def right_descents(p: Perm) -> List[int]:
    """Indices i with length(p * s(i)) < length(p).

    With left-to-right composition, p * s(i) swaps the values i, i+1, so i
    is a descent when i+1 occurs before i in the one-line form."""
    return left_descents(invert(p))


def reduced_word(p: Perm) -> Tuple[int, ...]:
    """A reduced word (smallest right descent peeled last): a bubble sort of
    the positions of the values, each swap the current smallest descent."""
    pos = list(invert(p))
    rev = []
    k = 0
    while k < len(pos) - 1:
        if pos[k] > pos[k + 1]:
            pos[k], pos[k + 1] = pos[k + 1], pos[k]
            rev.append(k + 1)
            k = max(k - 1, 0)
        else:
            k += 1
    return tuple(reversed(rev))


def min_window(p: Perm) -> Tuple[int, int]:
    """Smallest window [lo, hi] containing all moved points (id: (1, 0))."""
    lo = 1
    while lo <= len(p) and p[lo - 1] == lo:
        lo += 1
    return lo, len(p)


def supported_in(p: Perm, lo: int, hi: int) -> bool:
    a, b = min_window(p)
    return a > b or (lo <= a and b <= hi)


def s(i: int) -> Perm:
    """Adjacent transposition swapping i and i+1."""
    return tuple(range(1, i)) + (i + 1, i)


def perm_from_word(letters: Sequence[int]) -> Perm:
    w = IDENTITY
    for i in letters:
        w = compose(w, s(i))
    return w


def window_perms(lo: int, hi: int) -> List[Perm]:
    """All permutations of the window [lo, hi], in itertools order; an
    empty window (lo > hi) gives [IDENTITY]."""
    return [_canonical(p, lo) for p in permutations(range(lo, hi + 1))]


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
    sums = tuple(accumulate(lam))
    return sums + sums[-1:] * (sum(lam) - len(sums))


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
    return prod(range(1, 2 * n, 2))


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
# (t_0 = (), t_1, ..., t_n), one box added or removed at each step; t[k] is
# the shape at level k
UpDownTableau = Tuple[Partition, ...]


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
    return _canonical(images, start)


def row_stabilizer_perms(lam: Partition, start: int = 1) -> List[Perm]:
    """All elements of the Young subgroup S_lam (row stabilizer of t^lam)."""
    out = [IDENTITY]
    x = start
    for p in lam:
        block = window_perms(x, x + p - 1)
        out = [compose(a, b) for a in out for b in block]
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
            w = compose(compose(w, seg(2 * k, ik)), seg(2 * k - 1, jk))
        if any(m > 2 * f for m in left_descents(w)):
            raise CombinatoricsError(
                f"{w} in D_({f},{n}) has a left descent above {2 * f}"
            )
        reps.append(w)
    return tuple(reps)


def d_config(f: int, d: Perm) -> frozenset:
    """Bottom-pair configuration {{d(2k-1), d(2k)}} of a representative."""
    return frozenset(
        frozenset((image(d, 2 * k - 1), image(d, 2 * k))) for k in range(1, f + 1)
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


def updown_tableaux(n: int, lam: Partition) -> List[UpDownTableau]:
    """The up-down tableaux of shape lam at level n: the paths of the
    branching graph from lam down to the empty partition, each step a shape
    of branching_list.  Taking those shapes in ascending label_key at every
    level lists the paths in ud_key order."""
    lam = check_label(n, (n - sum(lam)) // 2, lam)
    paths: List[UpDownTableau] = [(lam,)]
    for k in range(n, 0, -1):
        paths = [
            (mu,) + p
            for p in paths
            for mu in reversed(branching_list((k - sum(p[0])) // 2, p[0], k))
        ]
    return paths


def ud_step(t: UpDownTableau, k: int) -> Tuple[str, Node]:
    """('add'|'remove', node) describing the step t_{k-1} -> t_k."""
    a, b = t[k - 1], t[k]
    if sum(b) > sum(a):
        return "add", shape_diff(b, a)
    return "remove", shape_diff(a, b)


def ud_str(t: UpDownTableau) -> str:
    """The report form of t, such as UD[[], [1], [2]]."""
    return "UD" + repr([list(p) for p in t])


def ud_key(t: UpDownTableau):
    """Sort key refining ud_dominates: the label_key of each level, the last
    level first."""
    return tuple(label_key(k, t[k]) for k in range(len(t) - 1, -1, -1))


def ud_dominates(s: UpDownTableau, t: UpDownTableau) -> bool:
    """Whether s is at or above t: at every level k the label of s_k has
    the larger deficiency, or the same one and a shape dominating t_k."""
    if len(s) != len(t):
        raise CombinatoricsError("paths must share their length")
    for k, (a, b) in enumerate(zip(s, t)):
        fa, fb = label_key(k, a)[0], label_key(k, b)[0]
        if fa < fb or (fa == fb and not dominates(a, b)):
            return False
    return True
