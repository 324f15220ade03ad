"""Independent correctness oracles for the multiplication engine.

Two oracles, both deliberately built without the rewriting engine:

* :class:`FreeQuotientOracle` — the algebra as a quotient of the free
  algebra on the generator symbols by the defining relations, realized
  through a terminating word-rewriting system (every rule strictly
  decreases the degree-lexicographic order).  Linear span saturation over
  words of increasing length discovers the basis; the dimension must come
  out to exactly (2n-1)!!.  Only n <= 3 is supported, which keeps the
  hand-oriented rule set small and checkable.

* Brauer-diagram concatenation with an integer loop parameter, used to
  validate classical limits (z = q^a, then q -> 1) of structure constants.
  A diagram on 2n points is the tuple of each point's partner, a pairing
  with no fixed points: top point i sits at index i - 1 and bottom point i
  at index n + i - 1, so the identity of rank 2 is (2, 3, 0, 1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .coefficients import A, Coeff, DELTA, ONE, Q, Z, add_term
from .combinatorics import IDENTITY, Perm, brauer_dimension, image, invert, s

Word = Tuple[str, ...]  # letters like "T1", "T2", "E"
Vector = Dict[Word, Coeff]


class OracleError(ValueError):
    pass


class FreeQuotientOracle:
    """Quotient of the free algebra on {T_1..T_{n-1}, E} by the defining
    relations, for n <= 3."""

    def __init__(self, n: int):
        if n not in (2, 3):
            raise OracleError("free-quotient oracle supports n = 2 and 3 only")
        self.n = n
        # Oriented rules lhs -> sum of (word, coeff); each application
        # strictly decreases (len(word), word) with letter order E > T2 > T1,
        # so rewriting terminates unconditionally.
        rules: Dict[Word, List[Tuple[Word, Coeff]]] = {
            ("T1", "T1"): [(("T1",), A), ((), ONE)],
            ("E", "E"): [(("E",), DELTA)],
            ("T1", "E"): [(("E",), Q)],
            ("E", "T1"): [(("E",), Q)],
        }
        if n == 3:
            rules[("T2", "T2")] = [(("T2",), A), ((), ONE)]
            rules[("T2", "T1", "T2")] = [(("T1", "T2", "T1"), ONE)]
            rules[("E", "T2", "E")] = [(("E",), Z)]
        self.rules = rules
        self._max_rule = max(len(k) for k in rules)
        self.dimension_target = brauer_dimension(n)
        self.basis = self._saturate()

    # -- rewriting ----------------------------------------------------------

    def _step(self, w: Word):
        """Leftmost innermost rule application, or None if irreducible."""
        for start in range(len(w)):
            for size in range(2, self._max_rule + 1):
                if start + size > len(w):
                    break
                body = w[start : start + size]
                rhs = self.rules.get(body)
                if rhs is not None:
                    return start, size, rhs
        return None

    def nf(self, w: Sequence[str]) -> Vector:
        """Normal form of a free word as a combination of irreducible words."""
        pending: Vector = {tuple(w): ONE}
        done: Vector = {}
        while pending:
            word, c = pending.popitem()
            hit = self._step(word)
            if hit is None:
                add_term(done, word, c)
                continue
            start, size, rhs = hit
            for body, rc in rhs:
                add_term(pending, word[:start] + body + word[start + size :], c * rc)
        return done

    def _saturate(self) -> Tuple[Word, ...]:
        """Span saturation: enumerate words of increasing length, keeping the
        irreducible ones, until no word extends further."""
        letters = ["T1", "E"] if self.n == 2 else ["T1", "T2", "E"]
        basis: List[Word] = [()]
        frontier: List[Word] = [()]
        while frontier:
            new: List[Word] = []
            for w in frontier:
                for g in letters:
                    cand = w + (g,)
                    if self._step(cand) is None:
                        new.append(cand)
            basis.extend(new)
            frontier = new
            if len(basis) > self.dimension_target:
                raise OracleError(
                    f"dimension overshoot: found {len(basis)} irreducible "
                    f"words, expected {self.dimension_target}"
                )
        if len(basis) != self.dimension_target:
            raise OracleError(
                f"span saturation stopped at dimension {len(basis)}, "
                f"expected {self.dimension_target}"
            )
        return tuple(basis)

    # -- algebra operations --------------------------------------------------

    def mul(self, a: Vector, b: Vector) -> Vector:
        out: Vector = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                for w, c in self.nf(wa + wb).items():
                    add_term(out, w, ca * cb * c)
        return out


# ---------------------------------------------------------------------------
# Brauer diagrams (classical limit target)
# ---------------------------------------------------------------------------

Diagram = Tuple[int, ...]  # partner of each point: top i at i - 1, bottom i at n + i - 1


def perm_diagram(p: Perm, n: int) -> Diagram:
    """Top i joined to bottom p(i)."""
    top = tuple(n + image(p, i) - 1 for i in range(1, n + 1))
    return top + tuple(image(invert(p), j) - 1 for j in range(1, n + 1))


def e1_diagram(n: int) -> Diagram:
    return (1, 0) + tuple(range(n + 2, 2 * n)) + (n + 1, n) + tuple(range(2, n))


def identity_diagram(n: int) -> Diagram:
    return perm_diagram(IDENTITY, n)


def concat(d1: Diagram, d2: Diagram, n: int) -> Tuple[Diagram, int]:
    """Stack d1 on top of d2; return (resulting diagram, closed loop count).

    The middle row glues the bottom of d1 (index n + k) to the top of d2
    (index k).  Each strand from a top point of d1 or a bottom point of d2 is
    followed through the middle row to its other end; every middle point no
    strand visited lies on a closed loop."""
    for d in (d1, d2):
        if not (isinstance(d, tuple) and len(d) == 2 * n and all(
            type(y) is int and 0 <= y < 2 * n and y != x and d[y] == x
            for x, y in enumerate(d)
        )):
            raise OracleError(f"not a fixed-point-free pairing of {2 * n} points: {d!r}")
    layers, mid = (d1, d2), (n, 0)  # index of middle point 0 in each layer
    out, seen = [0] * (2 * n), [False] * n
    for x in range(2 * n):
        below = x >= n
        y = layers[below][x]
        while (y >= n) != below:  # y is a middle point: cross to the other layer
            k = y - mid[below]
            seen[k] = True
            below = not below
            y = layers[below][k + mid[below]]
        out[x] = y
    loops = 0
    for k in range(n):
        if not seen[k]:  # k lies on a closed loop: walk once around it
            loops += 1
            while not seen[k]:
                seen[k] = seen[d2[k]] = True
                k = d1[n + d2[k]] - n
    return tuple(out), loops


def brauer_mul(
    d1: Diagram, d2: Diagram, n: int, a: int
) -> Tuple[Diagram, Fraction]:
    """Product in the Brauer algebra with loop parameter a."""
    d, loops = concat(d1, d2, n)
    return d, Fraction(a) ** loops


def diagram_of_letters(letters: Sequence[Tuple], n: int) -> Tuple[Diagram, int]:
    """Diagram of a product of generator letters (T, Tinv, E1 symbols as used
    by the engine); Tinv maps to the same transposition as T in the classical
    limit.  Returns (diagram, loop count accumulated)."""
    d = identity_diagram(n)
    loops = 0
    for g in letters:
        if g == ("E",):
            step = e1_diagram(n)
        else:
            step = perm_diagram(s(g[1]), n)
        d, k = concat(d, step, n)
        loops += k
    return d, loops
