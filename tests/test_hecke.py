import random
from itertools import permutations as iperm

import pytest
from conftest import hecke_product, hecke_scale, hecke_sum

from qbrauer.coefficients import A, ONE, Q, ZERO
from qbrauer.combinatorics import (
    IDENTITY,
    invert,
    partitions,
    perm,
    perm_from_word,
    s,
    std_tableaux,
)
from qbrauer.hecke import HeckeError, mul_gen, murphy_x, star, x_lambda


W3 = (1, 3)
ONE_H = {IDENTITY: ONE}


def gens(window):
    return [{s(i): ONE} for i in range(window[0], window[1])]


def trace(h):
    """The coefficient of T_1."""
    return h.get(IDENTITY, ZERO)


def test_quadratic_relation():
    T1, _ = gens(W3)
    assert hecke_product(W3, T1, T1) == hecke_sum(ONE_H, hecke_scale(T1, A))
    # inverse: T_i^{-1} = T_i - (q - q^{-1})
    t1_inv = hecke_sum(T1, hecke_scale(ONE_H, -A))
    assert hecke_product(W3, t1_inv, T1) == ONE_H
    assert mul_gen(T1, 1, W3, inverse=True) == ONE_H


def test_braid_and_commuting():
    T1, T2 = gens(W3)
    assert hecke_product(W3, T1, T2, T1) == hecke_product(W3, T2, T1, T2)
    W4 = (1, 4)
    T1, T2, T3 = gens(W4)
    assert hecke_product(W4, T1, T3) == hecke_product(W4, T3, T1)


def test_reduced_word_product():
    T1, T2 = gens(W3)
    assert hecke_product(W3, T1, T2, T1) == {perm_from_word([1, 2, 1]): ONE}


def test_deletion_rule():
    # T_w T_i = T_{ws_i} + (q-q^{-1}) T_w on a descent
    w = perm_from_word([1, 2])
    assert mul_gen({w: ONE}, 2, W3) == {perm_from_word([1]): ONE, w: A}


def test_trace():
    T1, T2 = gens(W3)
    assert trace(hecke_product(W3, T1, T1)) == ONE
    assert trace(T1) == ZERO
    assert trace(hecke_product(W3, T1, T2)) == ZERO
    # tau(T_x T_y) = [x == y^{-1}]
    for px in iperm(range(1, 4)):
        for py in iperm(range(1, 4)):
            x, y = perm(px), perm(py)
            got = trace(hecke_product(W3, {x: ONE}, {y: ONE}))
            assert bool(got) == (x == invert(y))
            if x == invert(y):
                assert got == ONE


def test_trace_symmetry_random():
    random.seed(5)
    perms = [perm(p) for p in iperm(range(1, 5))]
    W = (1, 4)
    for _ in range(25):
        a = {random.choice(perms): Q ** random.randint(-2, 2)}
        b = {random.choice(perms): ONE + A}
        assert trace(hecke_product(W, a, b)) == trace(hecke_product(W, b, a))


def test_star():
    T1, T2 = gens(W3)
    assert star(hecke_product(W3, T1, T2)) == hecke_product(W3, T2, T1)
    h = hecke_sum(hecke_product(W3, T1, T2), hecke_scale(T1, A))
    assert star(star(h)) == h


def test_x_lambda():
    x2 = x_lambda((2,), (1, 2))
    assert x2 == {IDENTITY: ONE, s(1): Q}
    assert mul_gen(x2, 1, (1, 2)) == hecke_scale(x2, Q)
    x21 = x_lambda((2, 1), W3)
    assert mul_gen(x21, 1, W3) == hecke_scale(x21, Q)  # s_1 is in the row stabilizer
    assert murphy_x(
        tuple(map(tuple, [[1, 2], [3]])), tuple(map(tuple, [[1, 2], [3]])), W3
    ) == x21


def test_window_mismatch():
    with pytest.raises(HeckeError):
        mul_gen(ONE_H, 2, (1, 2))


def rank_over_coeff(rows):
    n_cols = len(rows[0])
    mat = [r[:] for r in rows]
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [2, 3, 4])
def test_murphy_basis_invertible(n):
    W = (1, n)
    basis_perms = [perm(p) for p in iperm(range(1, n + 1))]
    rows = []
    for lam in partitions(n):
        for sx in std_tableaux(lam):
            for tx in std_tableaux(lam):
                m = murphy_x(sx, tx, W)
                rows.append([m.get(w, ZERO) for w in basis_perms])
    assert len(rows) == len(basis_perms)
    assert rank_over_coeff(rows) == len(basis_perms)


def test_regular_representation_closure():
    # right multiplication by T_i in the regular representation satisfies the
    # defining relations as matrices, n <= 4
    for n in (3, 4):
        W = (1, n)
        basis_perms = [perm(p) for p in iperm(range(1, n + 1))]
        idx = {w: k for k, w in enumerate(basis_perms)}

        def mat(i):
            M = [[ZERO] * len(basis_perms) for _ in basis_perms]
            for w in basis_perms:
                for v, c in mul_gen({w: ONE}, i, W).items():
                    M[idx[w]][idx[v]] = c
            return M

        def mmul(X, Y):
            return [
                [
                    sum((X[r][k] * Y[k][c] for k in range(len(Y))), ZERO)
                    for c in range(len(Y))
                ]
                for r in range(len(X))
            ]

        def madd_scale(X, c):
            return [[v * c for v in row] for row in X]

        Ms = {i: mat(i) for i in range(1, n)}
        I = [
            [ONE if r == c else ZERO for c in range(len(basis_perms))]
            for r in range(len(basis_perms))
        ]
        for i in range(1, n):
            lhs = mmul(Ms[i], Ms[i])
            rhs = [
                [
                    I[r][c] + Ms[i][r][c] * A
                    for c in range(len(basis_perms))
                ]
                for r in range(len(basis_perms))
            ]
            assert lhs == rhs
        for i in range(1, n - 1):
            assert mmul(mmul(Ms[i], Ms[i + 1]), Ms[i]) == mmul(
                mmul(Ms[i + 1], Ms[i]), Ms[i + 1]
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                assert mmul(Ms[i], Ms[j]) == mmul(Ms[j], Ms[i])
