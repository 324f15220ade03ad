"""Tests for the normal-form engine of the deformed Brauer algebra."""

import json
import os
import random

import pytest

from qbrauer.algebra import (
    E1,
    AlgebraElt,
    Engine,
    MulTable,
    StuckWordError,
    NormalWord,
    T,
    Tinv,
    all_normal_words,
    check_letter,
    e_index,
    e_power,
    elt_from_letters,
    generator_elt,
    get_engine,
    jm,
    jm_recursive,
    mul,
    one_elt,
    phi_embed,
    right_mul_gen,
    sigma,
    tilde_e1,
)
from qbrauer.cli import _relation_pairs
from qbrauer.coefficients import A, DELTA, ONE, Q, QINV, Z, ZERO, ZINV
from qbrauer.combinatorics import (
    IDENTITY,
    coset_reps_D,
    perm,
    perm_from_word,
    reduced_word,
    seg,
)
from qbrauer.hecke import mul_word


def rank(n):
    r = 1
    for k in range(2 * n - 1, 0, -2):
        r *= k
    return r


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_closure_counts(n):
    words = all_normal_words(n)
    assert len(words) == rank(n)
    assert len(set(words)) == rank(n)
    eng = get_engine(n)
    allowed = set(words)
    for w in words:
        x = AlgebraElt(n, {w: ONE})
        for g in MulTable.gens(n):
            y = eng.right_mul_gen(x, g)
            assert set(y) <= allowed


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_defining_relations_regular_representation(n):
    eng = get_engine(n)
    words = all_normal_words(n)
    for _, left, right in _relation_pairs(n):
        for w in words:
            x = AlgebraElt(n, {w: ONE})
            assert eng.apply_letters(x, left) == eng.apply_letters(x, right), (
                left,
                right,
                w,
            )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_e1_relations(n):
    e1 = generator_elt(E1, n)
    # E_1^2 = delta E_1
    assert mul(e1, e1) == e1.scale(DELTA)
    # T_1 E_1 = E_1 T_1 = q E_1
    t1e = mul(generator_elt(T(1), n), e1)
    assert t1e == e1.scale(Q)
    assert mul(e1, generator_elt(T(1), n)) == e1.scale(Q)
    if n >= 3:
        # E_1 T_2 E_1 = z E_1
        assert elt_from_letters([E1, T(2), E1], n) == e1.scale(Z)
        # E_1 T_2^{-1} E_1 = z^{-1} E_1
        assert elt_from_letters([E1, Tinv(2), E1], n) == e1.scale(ZINV)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sigma_antiautomorphism(n):
    rng = random.Random(20260827 + n)
    words = all_normal_words(n)
    coeffs = [ONE, Q, -A, Z, DELTA, QINV * Z]
    for _ in range(8):
        a = AlgebraElt(
            n, {rng.choice(words): rng.choice(coeffs) for _ in range(3)}
        )
        b = AlgebraElt(
            n, {rng.choice(words): rng.choice(coeffs) for _ in range(3)}
        )
        assert sigma(mul(a, b)) == mul(sigma(b), sigma(a))
        assert sigma(sigma(a)) == a


def test_sigma_fixes_generators():
    for n in (3, 4):
        for g in (T(1), T(2), E1):
            x = generator_elt(g, n)
            assert sigma(x) == x


def test_element_is_its_term_dict_and_its_rank():
    word = NormalWord(0, IDENTITY, IDENTITY, IDENTITY)
    terms = {word: Q, NormalWord(1, IDENTITY, IDENTITY, IDENTITY): ZERO}
    x = AlgebraElt(2, terms)
    assert isinstance(x, dict) and dict(x) == {word: Q}  # no zero coefficient
    assert x.n == 2
    assert AlgebraElt(2, terms) == x
    assert AlgebraElt(3, terms) != x
    assert not AlgebraElt(3, terms) == x
    assert x != {word: Q} and not x == {word: Q}
    assert x - x == AlgebraElt(2) and not x - x
    assert dict(-x) == {word: -Q}
    assert x.scale(ZERO) == AlgebraElt(2)
    assert one_elt(2) == e_power(0, 2) == AlgebraElt(2, {word: ONE})


def test_rank_mismatch_is_an_algebra_error():
    from qbrauer.algebra import AlgebraError

    with pytest.raises(AlgebraError, match="rank mismatch: 2 vs 3"):
        one_elt(2) + one_elt(3)
    with pytest.raises(AlgebraError, match="rank mismatch: 3 vs 2"):
        one_elt(3) - one_elt(2)


@pytest.mark.parametrize(
    "g, n, message",
    [
        (T(0), 3, "generator index 0 out of range for n=3"),
        (Tinv(0), 3, "generator index 0 out of range for n=3"),
        (T(3), 3, "generator index 3 out of range for n=3"),
        (Tinv(3), 3, "generator index 3 out of range for n=3"),
        (T(1), 1, "generator index 1 out of range for n=1"),
        (E1, 1, "E_1 requires n >= 2"),
    ],
)
def test_letter_check_refuses_letters_outside_the_rank(g, n, message):
    from qbrauer.algebra import AlgebraError

    def on_the_identity(g, n):
        return right_mul_gen(one_elt(n), g)

    for refuse in (check_letter, generator_elt, on_the_identity):
        with pytest.raises(AlgebraError) as info:
            refuse(g, n)
        assert str(info.value) == message


def test_letter_check_takes_every_letter_of_the_rank():
    for n in (1, 2, 3, 4):
        letters = [T(i) for i in range(1, n)] + [Tinv(i) for i in range(1, n)]
        letters += [E1] if n >= 2 else []
        assert [check_letter(g, n) for g in letters] == letters


def test_jm_2_closed_form():
    # L_2 = T_1 - q^2 z^{-1} E_1
    for n in (2, 3, 4):
        expect = generator_elt(T(1), n) - generator_elt(E1, n).scale(Q * Q * ZINV)
        assert jm(2, n) == expect


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jm_sum_and_recursion_agree(n):
    for i in range(1, n + 1):
        assert jm(i, n) == jm_recursive(i, n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_jm_elements_commute(n):
    ls = [jm(i, n) for i in range(2, n + 1)]
    for a in range(len(ls)):
        for b in range(a + 1, len(ls)):
            assert mul(ls[a], ls[b]) == mul(ls[b], ls[a])


def test_jm_sum_not_central_at_rank_4():
    n = 4
    total = AlgebraElt(n)
    for i in range(2, n + 1):
        total = total + jm(i, n)
    witness = False
    for g in (T(1), T(2), T(3), E1):
        ge = generator_elt(g, n)
        if mul(total, ge) != mul(ge, total):
            witness = True
            break
    assert witness


def test_tilde_e1_idempotent():
    for n in (3, 4, 5):
        e = tilde_e1(n)
        assert mul(e, e) == e


def test_e_index_relations():
    for n in (3, 4, 5):
        for l in range(1, n):
            el = e_index(l, n)
            assert mul(el, el) == el.scale(DELTA)
        assert e_index(1, n) == generator_elt(E1, n)


def test_e_power_products():
    # E_(2) = E_1 E_3 = E_3 E_1
    for n in (4, 5):
        e1 = generator_elt(E1, n)
        e3 = e_index(3, n)
        assert mul(e1, e3) == e_power(2, n)
        assert mul(e3, e1) == e_power(2, n)
    # E^2 = E_1 T_2 T_3 T_1^{-1} T_2^{-1} E_1
    for n in (4, 5):
        lhs = elt_from_letters([E1, T(2), T(3), Tinv(1), Tinv(2), E1], n)
        assert lhs == e_power(2, n)


def test_pair_window_contraction_identity():
    # E^2 T_4 T_3 T_2 E_1 = z E^2 T_4 T_3 at n = 5
    n = 5
    lhs = mul(e_power(2, n), elt_from_letters([T(4), T(3), T(2), E1], n))
    rhs = mul(e_power(2, n), elt_from_letters([T(4), T(3)], n)).scale(Z)
    assert lhs == rhs


def test_e1_conjugate_shift_identity():
    # E_2 = T_1 T_2^{-1} E_1 T_2 T_1^{-1} and E_1 E_2 E_1 = E_1
    for n in (3, 4):
        e2 = e_index(2, n)
        via_letters = elt_from_letters(
            [T(1), Tinv(2), E1, T(2), Tinv(1)], n
        )
        assert e2 == via_letters
        e1 = generator_elt(E1, n)
        assert mul(e1, mul(e2, e1)) == e1


def _merge_anchor_by_subsets(n, f):
    """E^f T_{v0} E_1 with T_{1,2f+1}^{-1} = (T_{2f} - A) ... (T_1 - A)
    expanded by hand: one Hecke product T_kept T_{2f+2,2} per proper subset
    of the letters, weighted (-A)^(number of letters dropped)."""
    eng = get_engine(n)
    tail = reduced_word(seg(2 * f + 2, 2))
    full = list(range(2 * f, 0, -1))
    out = e_power(f + 1, n)
    for mask in range(1, 1 << len(full)):
        kept = [full[i] for i in range(len(full)) if not (mask >> i) & 1]
        weight = (-A) ** bin(mask).count("1")
        product = mul_word({perm_from_word(kept): ONE}, tail, (1, n))
        for u, c in product.items():
            out = out - eng.sand(f, u).scale(weight * c)
    return out


@pytest.mark.parametrize("n, f", [(4, 1), (6, 2), (8, 3)])
def test_merge_anchor_matches_the_subset_expansion(n, f):
    assert get_engine(n)._merge_anchor(f) == _merge_anchor_by_subsets(n, f)


def test_engine_construction_enumerates_no_coset_representatives():
    # the representatives are checked where coset_reps_D builds them, so a
    # product that never leaves deficiency 0 enumerates none of them
    coset_reps_D.cache_clear()
    x = elt_from_letters([T(1), T(1)], 12)
    assert coset_reps_D.cache_info().currsize == 0
    assert x == one_elt(12) + generator_elt(T(1), 12).scale(A)


def ideal_truncate(x, f):
    """Drop all words with deficiency >= f (image modulo that ideal)."""
    return AlgebraElt(x.n, {w: c for w, c in x.items() if w.f < f})


def test_ideal_truncate():
    n = 4
    x = generator_elt(T(2), n) + generator_elt(E1, n).scale(Z) + e_power(2, n)
    t1 = ideal_truncate(x, 1)
    assert t1 == generator_elt(T(2), n)
    t2 = ideal_truncate(x, 2)
    assert t2 == generator_elt(T(2), n) + generator_elt(E1, n).scale(Z)
    assert ideal_truncate(x, 3) == x


@pytest.mark.parametrize("n", [4, 5])
def test_phi_embed_multiplicative(n):
    m = n - 2
    rng = random.Random(97 + n)
    words = all_normal_words(m)
    coeffs = [ONE, Q, Z, -A]
    for _ in range(4):
        a = AlgebraElt(m, {rng.choice(words): rng.choice(coeffs)})
        b = AlgebraElt(m, {rng.choice(words): rng.choice(coeffs)})
        lhs = phi_embed(mul(a, b), n)
        rhs = mul(phi_embed(a, n), phi_embed(b, n))
        assert lhs == rhs
    # the unit maps to the corner idempotent
    assert phi_embed(one_elt(m), n) == tilde_e1(n)


@pytest.mark.parametrize("n", [3, 4])
def test_hecke_subalgebra_agreement(n):
    """Products of deficiency-0 words match the Hecke algebra product."""
    from itertools import permutations

    win = (1, n)
    perms = [perm(list(p)) for p in permutations(range(1, n + 1))]
    rng = random.Random(5)
    sample = rng.sample(
        [(u, v) for u in perms for v in perms], 30
    )
    for u, v in sample:
        hprod = mul_word({u: ONE}, reduced_word(v), win)
        xa = AlgebraElt(n, {NormalWord(0, IDENTITY, u, IDENTITY): ONE})
        xb = AlgebraElt(n, {NormalWord(0, IDENTITY, v, IDENTITY): ONE})
        xprod = mul(xa, xb)
        assert all(w.f == 0 for w in xprod)
        got = {w.w: c for w, c in xprod.items()}
        assert got == hprod


def _indexed(elt, words):
    """An AlgebraElt as a vector {word index: coefficient}."""
    index = {w: i for i, w in enumerate(words)}
    return {index[w]: c for w, c in elt.items()}


def test_multable_cache_roundtrip(tmp_path):
    n = 3
    table = MulTable.load_or_build(n, str(tmp_path))
    path = tmp_path / "multable-v2-n3.json"
    assert path.exists()
    first = path.read_bytes()
    reloaded = MulTable.load_or_build(n, str(tmp_path))
    assert reloaded.words == table.words
    assert reloaded.rows == table.rows
    # byte-identical on rewrite
    table.save(str(path))
    assert path.read_bytes() == first
    # the cached action matches the engine
    eng = get_engine(n)
    for g, rows in table.rows.items():
        for w, row in zip(table.words, rows):
            image = eng.right_mul_gen(AlgebraElt(n, {w: ONE}), g)
            assert dict(row) == _indexed(image, table.words)


def test_multable_shares_engine_memo_without_aliasing(monkeypatch):
    from qbrauer import algebra
    from qbrauer.algebra import Engine
    from qbrauer.cells import CellModule

    n = 4
    monkeypatch.setattr(algebra, "_engines", {})
    table = MulTable.build(n)
    eng = get_engine(n)
    words = all_normal_words(n)
    assert table.words == words
    # a second fresh engine, visiting the words in reverse order
    other = Engine(n)
    for i in reversed(range(len(words))):
        for g in MulTable.gens(n):
            image = other.right_mul_gen(AlgebraElt(n, {words[i]: ONE}), g)
            assert table.rows[g][i] == sorted(_indexed(image, words).items()), (i, g)
    before = {k: dict(v) for k, v in eng._rmul_memo.items()}
    rows = {g: [list(row) for row in r] for g, r in table.rows.items()}
    CellModule(n, 1, (2,)).gram()
    mul(jm(n, n), tilde_e1(n))
    for k, terms in before.items():
        assert dict(eng._rmul_memo[k]) == terms, k
    assert table.rows == rows


def test_multable_corrupt_cache_raises(tmp_path):
    from qbrauer.algebra import AlgebraError

    path = tmp_path / "multable-v2-n2.json"
    path.write_text("{ not json")
    with pytest.raises(AlgebraError):
        MulTable.load_or_build(2, str(tmp_path))


def _stored_table(tmp_path, n):
    """The cache file of a freshly built rank-n table and its JSON data."""
    MulTable.load_or_build(n, str(tmp_path))
    (path,) = tmp_path.glob(f"multable-*-n{n}.json")
    return path, json.loads(path.read_text())


def _t1_on_identity(n):
    """Row number of (identity, T_1) and the index of the identity word."""
    words, gens = all_normal_words(n), MulTable.gens(n)
    ident = words.index(NormalWord(0, IDENTITY, IDENTITY, IDENTITY))
    return ident * len(gens) + gens.index(T(1)), ident


def _rows_crc(rows):
    import zlib

    return zlib.crc32(json.dumps(rows, separators=(",", ":")).encode())


def _write_table(path, data):
    """Write a table file laid out as MulTable.save lays it out, so its
    rows text is the compact serialisation that _rows_crc checks."""
    path.write_text(json.dumps(data, separators=(",", ":")))


def test_multable_file_format(tmp_path):
    from qbrauer.algebra import rules_digest

    n = 3
    path, data = _stored_table(tmp_path, n)
    assert (data["version"], data["n"], data["rules"]) == (2, n, rules_digest())
    assert data["rows_crc"] == _rows_crc(data["rows"])
    words, gens = all_normal_words(n), MulTable.gens(n)
    assert len(data["rows"]) == len(words) * len(gens)
    row, ident = _t1_on_identity(n)
    t1 = NormalWord(0, IDENTITY, perm_from_word([1]), IDENTITY)
    assert data["rows"][row] == [[words.index(t1), "1"]]


def test_multable_rows_are_frozen(tmp_path):
    # the structure constants at n = 4: rows_crc covers the rows text only,
    # so it does not move when the rule sources (and their digest) change
    _, data = _stored_table(tmp_path, 4)
    assert data["rows_crc"] == 1289013277


def test_multable_tampered_row_is_rebuilt(tmp_path):
    n = 3
    path, data = _stored_table(tmp_path, n)
    row, ident = _t1_on_identity(n)
    data["rows"][row] = [[ident, "7"]]
    _write_table(path, data)
    table = MulTable.load_or_build(n, str(tmp_path))
    t1 = _indexed(generator_elt(T(1), n), table.words)
    assert table.right_mul_gen({ident: ONE}, T(1)) == t1
    rewritten = json.loads(path.read_text())
    assert rewritten["rows"][row] != [[ident, "7"]]
    assert rewritten["rows_crc"] == _rows_crc(rewritten["rows"])


def test_multable_foreign_rules_are_rebuilt(tmp_path):
    from qbrauer.algebra import rules_digest

    n = 3
    path, data = _stored_table(tmp_path, n)
    row, ident = _t1_on_identity(n)
    # rows with a valid checksum, written under other rules
    data["rows"][row] = [[ident, "7"]]
    data["rows_crc"] = _rows_crc(data["rows"])
    data["rules"] = rules_digest() ^ 1
    _write_table(path, data)
    table = MulTable.load_or_build(n, str(tmp_path))
    t1 = _indexed(generator_elt(T(1), n), table.words)
    assert table.right_mul_gen({ident: ONE}, T(1)) == t1
    assert json.loads(path.read_text())["rules"] == rules_digest()


def test_multable_rows_text_is_checked_as_written(tmp_path):
    # the same rows and checksum, with the rows text spaced out: the file
    # is not what save wrote, so it is rebuilt rather than trusted
    n = 2
    path, data = _stored_table(tmp_path, n)
    written = path.read_text()
    _write_table(path, data)
    assert path.read_text() == written
    path.write_text(json.dumps(data))
    assert path.read_text() != written
    MulTable.load_or_build(n, str(tmp_path))
    assert path.read_text() == written


@pytest.mark.parametrize("content", ["[]", "7", None])
def test_multable_unreadable_file_raises(tmp_path, content):
    from qbrauer.algebra import AlgebraError

    path = tmp_path / "multable-v2-n2.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    with pytest.raises(AlgebraError):
        MulTable.load_or_build(2, str(tmp_path))


def test_multable_rows_of_the_wrong_shape_raise(tmp_path):
    from qbrauer.algebra import AlgebraError

    n = 2
    path, data = _stored_table(tmp_path, n)
    row, ident = _t1_on_identity(n)

    def with_row(bad):
        rows = list(data["rows"])
        rows[row] = bad
        return rows

    for rows in (
        [],
        with_row([[ident, "1"], [ident, "1"]]),
        with_row([[-1, "1"]]),
        with_row([[ident, "q^"]]),
    ):
        _write_table(path, dict(data, rows=rows, rows_crc=_rows_crc(rows)))
        with pytest.raises(AlgebraError):
            MulTable.load_or_build(n, str(tmp_path))


def test_multable_unwritable_directory_raises(tmp_path):
    from qbrauer.algebra import AlgebraError

    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(AlgebraError):
        MulTable.load_or_build(2, str(blocker / "sub"))


@pytest.mark.parametrize(
    "method, impl, tail",
    [("reduce", "_reduce_impl", ""), ("sand", "_sand_impl", " E1")],
)
def test_rewriting_cycle_is_reported(monkeypatch, method, impl, tail):
    # a rule that leads back to the word being rewritten is a cycle, for the
    # memoised normal forms of both E^f T_u and E^f T_v E_1
    def loop(self, f, u):
        return getattr(self, method)(f, u)

    monkeypatch.setattr(Engine, impl, loop)
    u = perm_from_word([2])
    with pytest.raises(StuckWordError, match=rf"cycle at E\^1 T_\[2\]{tail}$"):
        getattr(Engine(3), method)(1, u)
