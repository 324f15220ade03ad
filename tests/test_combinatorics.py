import random
import tracemalloc
from math import factorial

import pytest

from qbrauer.cells import ct_eigenvalue
from qbrauer.coefficients import A, ONE, Q, ZERO, ZINV
from qbrauer.combinatorics import (
    CombinatoricsError,
    IDENTITY,
    Perm,
    branching_list,
    check_label,
    config_to_rep,
    coset_reps_D,
    coset_word,
    d_config,
    dominance_key,
    dominates,
    label_key,
    labels,
    nodes,
    partitions,
    perm_from_word,
    s,
    seg,
    seg_word,
    std_tableaux,
    superstandard,
    ud_dominates,
    ud_key,
    ud_str,
    updown_tableaux,
    window_perms,
)


def double_factorial_odd(m):
    r = 1
    while m > 1:
        r *= m
        m -= 2
    return r


def test_partitions():
    assert set(partitions(3)) == {(3,), (2, 1), (1, 1, 1)}
    assert partitions(0) == [()]


def test_check_label_returns_the_partition_of_every_label():
    for n in range(1, 7):
        for f, lam in labels(n):
            assert check_label(n, f, list(lam)) == lam


@pytest.mark.parametrize(
    "n, f, lam",
    [
        (3, -1, (5,)),  # f < 0, with |lam| = n - 2f
        (3, 2, ()),  # 2f > n
        (5, 3, ()),  # 2f > n by one
        (3, 0, (1, 2)),  # not weakly decreasing
        (3, 0, (3, 0)),  # a zero part
        (4, 1, (3, -1)),  # a negative part, with the right sum
        (4, 1, (3,)),  # wrong size
        (4, 0, ()),  # wrong size
    ],
)
def test_check_label_refuses_what_is_not_a_label(n, f, lam):
    with pytest.raises(CombinatoricsError, match=r"is not a cell label at n="):
        check_label(n, f, lam)


def test_updown_tableaux_need_a_cell_label():
    for lam in [(2,), (4,), (1, 2)]:
        with pytest.raises(CombinatoricsError, match="is not a cell label at n=3"):
            updown_tableaux(3, lam)


def test_check_label_message():
    with pytest.raises(CombinatoricsError) as info:
        check_label(60, 31, ())
    assert str(info.value) == "(f=31, lambda=[]) is not a cell label at n=60"


def test_window_perms():
    assert window_perms(3, 2) == [IDENTITY]
    assert window_perms(2, 2) == [IDENTITY]
    ws = window_perms(2, 4)
    assert len(ws) == len(set(ws)) == 6
    assert ws[0] == IDENTITY and ws[1] == s(3)
    assert all(w.supported_in(2, 4) for w in ws)


def test_dominates():
    assert dominates((2, 1), (1, 1, 1)) and not dominates((1, 1, 1), (2, 1))
    # (3, 3) has the larger second partial sum, (4, 1, 1) the larger first
    assert not dominates((3, 3), (4, 1, 1)) and not dominates((4, 1, 1), (3, 3))
    assert dominates((2, 2), (2, 2))
    with pytest.raises(CombinatoricsError):
        dominates((2,), (1, 1, 1))


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0))


def test_dominates_is_a_partial_order_reversed_by_conjugation():
    for d in range(8):
        lams = partitions(d)
        above = {(a, b) for a in lams for b in lams if dominates(a, b)}
        for a in lams:
            assert (a, a) in above
            for b in lams:
                assert ((a, b) in above) == dominates(conjugate(b), conjugate(a))
        for a, b in above:
            # dominance_key refines the order
            assert dominance_key(a) >= dominance_key(b)
            assert a == b or (b, a) not in above
            assert all((a, c) in above for c in lams if (b, c) in above)


def apply_to_tableau(t, w):
    return tuple(tuple(w(v) for v in row) for row in t)


def test_std_tableaux_and_coset_word():
    assert len(std_tableaux((2, 1))) == 2
    for lam in [(2, 1), (3, 1), (2, 2)]:
        tl = superstandard(lam)
        for t in std_tableaux(lam):
            d = coset_word(t)
            assert apply_to_tableau(tl, d) == t
        assert coset_word(tl) == IDENTITY
    other = [t for t in std_tableaux((2, 1)) if t != superstandard((2, 1))][0]
    assert coset_word(other) == s(2)


def test_nodes_and_content():
    rem, add = nodes((2, 1))
    assert set(rem) == {(1, 2), (2, 1)}
    assert set(add) == {(1, 3), (2, 2), (3, 1)}
    rem, add = nodes(())
    assert rem == [] and add == [(1, 1)]


def test_coset_reps_counts():
    assert len(coset_reps_D(1, 3)) == 3
    assert coset_reps_D(1, 2) == (IDENTITY,)
    assert len(coset_reps_D(2, 4)) == 3
    for n in range(2, 7):
        for f in range(n // 2 + 1):
            D = coset_reps_D(f, n)
            expect = factorial(n) // (2**f * factorial(n - 2 * f) * factorial(f))
            assert len(D) == expect
            assert len(set(D)) == len(D)
            # no left descent in the window, so T_w T_d is always reduced
            assert all(m <= 2 * f for d in D for m in d.left_descents())


def test_rank_identity():
    for n in range(2, 7):
        tot = sum(
            len(coset_reps_D(f, n)) ** 2 * factorial(n - 2 * f)
            for f in range(n // 2 + 1)
        )
        assert tot == double_factorial_odd(2 * n - 1)


def pattern_word(f, chosen):
    """Generator word of the representative for parameter list [(j_k, i_k)]."""
    w = ()
    for k in range(len(chosen), 0, -1):
        jk, ik = chosen[k - 1]
        w += seg_word(2 * k, ik) + seg_word(2 * k - 1, jk)
    return w


def test_coset_reps_pattern_and_reduced():
    def pattern_params(f, n):
        out = []

        def rec(k, prev_i, chosen):
            if k > f:
                out.append(tuple(chosen))
                return
            for ik in range(max(prev_i + 1, 2 * k), n + 1):
                for jk in range(2 * k - 1, ik):
                    chosen.append((jk, ik))
                    rec(k + 1, ik, chosen)
                    chosen.pop()

        rec(1, 0, [])
        return out

    for n in range(2, 7):
        for f in range(1, n // 2 + 1):
            for ps, d in zip(pattern_params(f, n), coset_reps_D(f, n)):
                wlen = sum(
                    (ik - 2 * k) + (jk - (2 * k - 1))
                    for k, (jk, ik) in enumerate(ps, 1)
                )
                assert d.length() == wlen  # the pattern word is reduced
                assert perm_from_word(pattern_word(f, ps)) == d


def test_configs_bijective():
    for n in range(2, 7):
        for f in range(n // 2 + 1):
            table = config_to_rep(f, n)
            assert len(table) == len(coset_reps_D(f, n))


def test_branching_list():
    def levels(bl, k):
        return [label_key(k, mu)[0] for mu in bl]

    bl = branching_list(1, (2,), 4)
    assert bl == [(1,), (3,), (2, 1)] and levels(bl, 3) == [1, 0, 0]
    bl = branching_list(0, (1, 1), 2)
    assert bl == [(1,)] and levels(bl, 1) == [0]
    bl = branching_list(1, (), 2)
    assert bl == [(1,)] and levels(bl, 1) == [0]
    # last entry is always the new-row addition when f > 0
    bl = branching_list(1, (2, 1), 5)
    assert bl[-1] == (2, 1, 1)
    with pytest.raises(CombinatoricsError):
        branching_list(1, (2,), 5)


def test_updown_counts():
    assert len(updown_tableaux(3, (1,))) == 3
    assert len(updown_tableaux(4, (2,))) == 6
    assert len(updown_tableaux(2, ())) == 1
    assert updown_tableaux(2, ()) == [((), (1,), ())]
    assert ud_str(((), (1,), (2,))) == "UD[[], [1], [2]]"
    for n in range(1, 9):
        for f in range(n // 2 + 1):
            for lam in partitions(n - 2 * f):
                paths = updown_tableaux(n, lam)
                assert len(paths) == len(coset_reps_D(f, n)) * len(std_tableaux(lam))
                assert paths == sorted(paths, key=ud_key)
                assert len(set(paths)) == len(paths)
                # each step goes to a neighbour one level down in branching_list
                for t in paths:
                    for k in range(1, n + 1):
                        up = t[k]
                        down = branching_list((k - sum(up)) // 2, up, k)
                        assert t[k - 1] in down


def test_updown_tableaux_of_a_row_build_only_its_path():
    tracemalloc.start()
    try:
        paths = updown_tableaux(11, (11,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths == [((),) + tuple((k,) for k in range(1, 12))]
    assert peak < 1_000_000


def test_ud_dominates_examples():
    s1 = ((), (1,), (2,), (1,))
    t1 = ((), (1,), (1, 1), (1,))
    u1 = ((), (1,), (), (1,))
    # same deficiency at level 2: dominates decides
    assert ud_dominates(s1, t1) and not ud_dominates(t1, s1)
    # a larger deficiency at level 2 is above
    assert ud_dominates(u1, s1) and not ud_dominates(s1, u1)
    assert ud_dominates(s1, s1)
    # above at level 3 by deficiency, below at level 2 by dominates
    x = ((), (1,), (1, 1), (1,), (2,))
    y = ((), (1,), (2,), (3,), (2,))
    assert not ud_dominates(x, y) and not ud_dominates(y, x)


def test_ud_dominates_is_a_partial_order_refined_by_ud_key():
    pool = updown_tableaux(5, (1,))
    above = {(x, y) for x in pool for y in pool if ud_dominates(x, y)}
    for x in pool:
        assert (x, x) in above
    for x, y in above:
        if x != y:
            assert (y, x) not in above
            assert ud_key(x) > ud_key(y)
        for z in pool:
            if (y, z) in above:
                assert (x, z) in above
    assert len(above) > len(pool)


def test_ct_eigenvalue():
    t = ((), (1,), (2,))
    assert ct_eigenvalue(t, 1) == ZERO
    assert ct_eigenvalue(t, 2) == Q
    t2 = ((), (1,), ())
    assert ct_eigenvalue(t2, 2) == (Q**2 * ZINV**2 - ONE) / A


def test_perm_basics():
    w = perm_from_word([1, 2, 1])
    assert w == perm_from_word([2, 1, 2])
    assert w.length() == 3
    random.seed(3)
    for _ in range(100):
        n = random.randint(2, 7)
        im = list(range(1, n + 1))
        random.shuffle(im)
        w = Perm(im)
        assert perm_from_word(w.word()) == w
        assert len(w.word()) == w.length()
        assert w * w.inv() == IDENTITY
        for i in w.right_descents():
            assert (w * s(i)).length() == w.length() - 1
        for i in w.left_descents():
            assert (s(i) * w).length() == w.length() - 1


def test_seg():
    assert seg(2, 4).word() == (2, 3)
    w = seg(3, 1)
    assert (w(3), w(1), w(2)) == (1, 2, 3)
    assert w.length() == 2
    assert seg(5, 5) == IDENTITY


def test_labels_enumeration():
    ls = labels(4)
    assert (0, (4,)) in ls and (2, ()) in ls
    assert len(ls) == 5 + 2 + 1
