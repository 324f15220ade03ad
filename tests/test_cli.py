"""Tests for the command-line interface: JSON structure, exit codes,
determinism, and the documented example outputs."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from conftest import run_cli as run
from hypothesis import given, settings, strategies as st

from qbrauer.algebra import E1, T, Tinv
from qbrauer.cli import UsageError, _parse_letters, _parse_numeric, _parse_partition


def run_json(*args, expect_exit=0):
    res = run(*args)
    assert res.exit_code == expect_exit, res.output
    return json.loads(res.output)


def test_verify_relations_small():
    data = run_json("verify-relations", "--n", "2")
    assert data["ok"] is True
    assert data["rank"] == 3
    data = run_json("verify-relations", "--n", "3")
    assert data["ok"] is True
    assert data["rank"] == 15


def test_verify_relations_above_maximum_is_usage_error():
    res = run("verify-relations", "--n", "6")
    assert res.exit_code == 2


def test_verify_relations_below_minimum_is_usage_error():
    res = run("verify-relations", "--n", "1")
    assert res.exit_code == 2


def test_gram_smallest_label():
    data = run_json("gram", "--n", "2", "--f", "1", "--lambda", "[]")
    # the 1x1 Gram entry is (z - z^-1)/(q - q^-1)
    assert data["determinant"] == "q^1*z^1-1*q^1*z^-1/q^2-1"
    assert data["determinant_is_zero"] is False


def test_gram_bad_exponent_determinant_vanishes():
    data = run_json(
        "gram", "--n", "3", "--f", "1", "--lambda", "[1]", "--z-exp", "1"
    )
    assert data["determinant_is_zero"] is True


def test_gram_numeric_determinant_is_computed_in_the_prime_field():
    # z0 = 1112 = 3^-2 mod 10007 is the bad point z = q^-2 of C(1, [1])
    args = ("--n", "3", "--numeric", "10007,3,1112")
    data = run_json("gram", *args, "--f", "1", "--lambda", "[1]")
    assert data["determinant"] == "0"
    assert data["determinant_is_zero"] is True
    assert all(0 <= int(x) < 10007 for row in data["matrix"] for x in row)
    report = run_json("semisimple", *args)["report"]
    witness = {(w["f"], tuple(w["lambda"])): w["det_zero"] for w in report["labels"]}
    assert witness[(1, (1,))] is True


def test_gram_hecke_label_nonzero():
    data = run_json("gram", "--n", "3", "--f", "0", "--lambda", "[2,1]")
    assert data["determinant_is_zero"] is False


def test_gram_invalid_label_is_usage_error():
    assert run("gram", "--n", "3", "--f", "5", "--lambda", "[1]").exit_code == 2
    assert run("gram", "--n", "3", "--f", "1", "--lambda", "(1)").exit_code == 2
    assert run("gram", "--n", "3", "--f", "1", "--lambda", "[1,2]").exit_code == 2
    for lam in ("[a]", "[1,]"):
        res = run("gram", "--n", "3", "--f", "1", "--lambda", lam)
        assert res.exit_code == 2
        assert "partition entries must be integers" in res.stderr


@pytest.mark.parametrize("command", ["gram", "jm-spectrum", "branching"])
@pytest.mark.parametrize(
    "n, f, lam",
    [("60", "31", "[]"), ("60", "-1", "[62]"), ("3", "0", "[2]"), ("50", "0", "[49]")],
)
def test_bad_label_is_a_usage_error_without_listing_labels(
    monkeypatch, command, n, f, lam
):
    import qbrauer.cli
    import qbrauer.combinatorics

    def listing(n):
        raise AssertionError(f"labels({n}) listed")

    # the check lists no labels: a listing at n = 60 takes tens of seconds
    monkeypatch.setattr(qbrauer.combinatorics, "labels", listing)
    monkeypatch.setattr(qbrauer.cli, "labels", listing, raising=False)
    res = run(command, "--n", n, "--f", f, "--lambda", lam)
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.endswith(
        f"qbrauer {command}: error: (f={f}, lambda={lam.replace(',', ', ')}) "
        f"is not a cell label at n={n}\n"
    )


@pytest.mark.parametrize(
    "left, index", [("T0", 0), ("T3", 3), ("Tinv3", 3), ("T1 Tinv0", 0)]
)
def test_mul_letter_outside_the_rank_is_a_usage_error(left, index):
    res = run("mul", "--n", "3", left, "E1")
    assert res.exit_code == 2, res.output
    assert res.stderr.endswith(
        f"qbrauer mul: error: generator index {index} out of range for n=3\n"
    )


def test_gram_conflicting_specializations_usage_error():
    res = run(
        "gram", "--n", "2", "--f", "1", "--lambda", "[]",
        "--z-exp", "1", "--numeric", "7,2,4",
    )
    assert res.exit_code == 2


def test_jm_spectrum_smallest_label():
    data = run_json("jm-spectrum", "--n", "2", "--f", "1", "--lambda", "[]")
    assert data["triangular_ok"] is True
    # the single eigenvalue is (q^2 z^-2 - 1)/(q - q^-1)
    assert data["spectra"]["2"] == ["q^3*z^-2-1*q^1/q^2-1"]


def test_branching():
    data = run_json("branching", "--n", "3", "--f", "1", "--lambda", "[1]")
    assert data["report"]["ok"] is True
    assert sum(f["dim"] for f in data["report"]["factors"]) == 3


def test_scan_rank_three():
    data = run_json("scan", "--n", "3", "--from", "-4", "--to", "3")
    assert data["vanishing_exponents"] == [-2, 0, 1]
    assert data["ok"] is True


def test_semisimple_symbolic():
    data = run_json("semisimple", "--n", "3", "--z-exp", "1")
    assert data["verdict"] == "not semisimple"
    assert data["ok"] is True
    data = run_json("semisimple", "--n", "3", "--z-exp", "2")
    assert data["verdict"] == "semisimple"
    data = run_json("semisimple", "--n", "3")
    assert data["verdict"] == "semisimple"


def test_semisimple_numeric():
    data = run_json("semisimple", "--n", "2", "--numeric", "10007,3,27")
    assert data["report"]["verdict"] == "semisimple"
    assert data["ok"] is True
    data = run_json("semisimple", "--n", "3", "--numeric", "10007,3,3")
    assert data["report"]["verdict"] == "not semisimple"
    assert data["ok"] is True


def test_semisimple_numeric_routes_that_disagree_are_a_mathematical_failure(
    monkeypatch,
):
    import qbrauer.cli
    from qbrauer.semisimple import SemisimpleError

    def disagreeing(n, spec):
        raise SemisimpleError("the two routes disagree")

    monkeypatch.setattr(qbrauer.cli, "brute_semisimple", disagreeing)
    res = run("semisimple", "--n", "3", "--numeric", "10007,3,3")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == "mathematical check failed: the two routes disagree\n"


def _readme_commands():
    """The arguments of each qbrauer command in the README's sh blocks."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    return [
        tuple(shlex.split(line, comments=True)[1:])
        for block in blocks
        for line in block.splitlines()
        if line.startswith("qbrauer ")
    ]


README_COMMANDS = _readme_commands()

# the results the README's comments state
README_RESULTS = {
    ("basis-count", "--n", "4"): lambda d: (
        d["count"] == 105 and d["by_deficiency"] == {"0": 24, "1": 72, "2": 9}
    ),
    ("mul", "--n", "3", "E1 T2", "E1"): lambda d: (
        d["terms"] == [{"coeff": "z^1", "d1": [], "d2": [], "f": 1, "w": []}]
    ),
    ("scan", "--n", "3", "--from", "-4", "--to", "3"): lambda d: (
        d["vanishing_exponents"] == [-2, 0, 1]
    ),
}


@pytest.mark.parametrize("args", README_COMMANDS, ids=" ".join)
def test_readme_example(args, tmp_path):
    assert set(README_RESULTS) <= set(README_COMMANDS)
    res = run("--cache-dir", str(tmp_path / "cache"), *args)
    assert res.exit_code == 0, res.output
    check = README_RESULTS.get(args)
    assert check is None or check(json.loads(res.stdout)), res.stdout


def test_mul_sandwich_relation():
    data = run_json("mul", "--n", "3", "E1 T2", "E1")
    assert data["term_count"] == 1
    term = data["terms"][0]
    assert term == {"coeff": "z^1", "d1": [], "d2": [], "f": 1, "w": []}


def test_mul_unknown_generator_is_usage_error():
    assert run("mul", "--n", "3", "X2", "E1").exit_code == 2
    assert run("mul", "--n", "3", "T5", "E1").exit_code == 2


def test_basis_count():
    data = run_json("basis-count", "--n", "4")
    assert data["count"] == 105
    assert data["by_deficiency"] == {"0": 24, "1": 72, "2": 9}
    assert run_json("basis-count", "--n", "5")["count"] == 945
    data = run_json("basis-count", "--n", "8")
    assert data["count"] == 2027025 and data["ok"]
    assert data["by_deficiency"] == {
        "0": 40320, "1": 564480, "2": 1058400, "3": 352800, "4": 11025
    }


def test_output_is_deterministic():
    a = run("scan", "--n", "2", "--from", "-2", "--to", "2").output
    b = run("scan", "--n", "2", "--from", "-2", "--to", "2").output
    assert a == b
    a = run("gram", "--n", "3", "--f", "1", "--lambda", "[1]").output
    b = run("gram", "--n", "3", "--f", "1", "--lambda", "[1]").output
    assert a == b


def test_output_file(tmp_path):
    path = tmp_path / "report.json"
    res = run("--output", str(path), "basis-count", "--n", "2")
    assert res.exit_code == 0
    data = json.loads(path.read_text())
    assert data["count"] == 3


def test_unwritable_output_is_environment_error(tmp_path):
    path = tmp_path / "missing" / "report.json"
    res = run("--output", str(path), "basis-count", "--n", "2")
    assert res.exit_code == 3
    assert "environment error" in res.stderr
    assert "Traceback" not in res.output


def test_cache_dir_flag(tmp_path):
    res = run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    assert res.exit_code == 0
    assert any(p.name.startswith("multable") for p in tmp_path.iterdir())


def test_cache_dir_flag_leaves_the_environment_alone(tmp_path, monkeypatch):
    default = tmp_path / "default"
    flagged = tmp_path / "flagged"
    monkeypatch.setenv("QBRAUER_CACHE_DIR", str(default))
    res = run("--cache-dir", str(flagged), "verify-relations", "--n", "2")
    assert res.exit_code == 0, res.output
    assert os.environ["QBRAUER_CACHE_DIR"] == str(default)
    assert [p.name for p in flagged.iterdir()] == ["multable-v2-n2.json"]
    assert not default.exists()


def test_corrupt_cache_is_environment_error(tmp_path):
    run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    for p in tmp_path.iterdir():
        if p.name.startswith("multable"):
            p.write_text("{ not json")
    res = run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    assert res.exit_code == 3


def _assert_environment_error(res):
    assert res.exit_code == 3, res.output
    assert "environment error" in res.stderr


def test_cache_dir_under_a_file_is_environment_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    res = run("--cache-dir", str(blocker / "sub"), "verify-relations", "--n", "2")
    _assert_environment_error(res)


def _tables(directory):
    return [p for p in directory.iterdir() if p.name.startswith("multable")]


def test_cache_holding_a_json_list_is_environment_error(tmp_path):
    run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    for p in _tables(tmp_path):
        p.write_text("[]")
    res = run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    _assert_environment_error(res)


def test_cache_with_rows_of_the_wrong_shape_is_environment_error(tmp_path):
    import zlib

    run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    (path,) = _tables(tmp_path)
    data = json.loads(path.read_text())
    # a checksum that matches, over rows that do not fit the rank
    data["rows"] = [[["x", "1"]]]
    data["rows_crc"] = zlib.crc32(b'[[["x","1"]]]')
    path.write_text(json.dumps(data, separators=(",", ":")))
    res = run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    _assert_environment_error(res)


def test_warm_verify_relations_reads_its_table(tmp_path, monkeypatch):
    from qbrauer import algebra
    from qbrauer.cells import clear_caches

    cold = run("--cache-dir", str(tmp_path), "verify-relations", "--n", "3")
    assert cold.exit_code == 0, cold.output

    def replay(self, x, g):
        raise AssertionError("the warm pass multiplied through the engine")

    clear_caches()
    monkeypatch.setattr(algebra.Engine, "_rmul_word_impl", replay)
    warm = run("--cache-dir", str(tmp_path), "verify-relations", "--n", "3")
    assert warm.exit_code == 0, warm.output
    assert warm.stdout == cold.stdout


def _replayed_failures(data, n):
    """verify-relations' failure list, replayed here over the stored rows."""
    from qbrauer.algebra import E1, MulTable, NormalWord, T, Tinv, all_normal_words
    from qbrauer.cli import _relation_pairs
    from qbrauer.coefficients import DELTA, ONE, Q, Z, ZERO, ZINV, parse_coeff
    from qbrauer.combinatorics import IDENTITY

    words, gens = all_normal_words(n), MulTable.gens(n)
    rows = {}
    for k, row in enumerate(data["rows"]):
        i, g = divmod(k, len(gens))
        rows[i, gens[g]] = {j: parse_coeff(c) for j, c in row}

    def apply(vec, letters):
        for g in letters:
            out = {}
            for i, c in vec.items():
                for j, d in rows[i, g].items():
                    out[j] = out.get(j, ZERO) + c * d
            vec = {j: c for j, c in out.items() if c}
        return vec

    failures = []
    for name, left, right in _relation_pairs(n):
        for i, w in enumerate(words):
            if apply({i: ONE}, left) != apply({i: ONE}, right):
                failures.append({"relation": name, "word": str(w)})
    one = words.index(NormalWord(0, IDENTITY, IDENTITY, IDENTITY))
    e1 = words.index(NormalWord(1, IDENTITY, IDENTITY, IDENTITY))
    for name, letters, c in [
        ("E1^2 = delta E1", [E1, E1], DELTA),
        ("T1 E1 = q E1", [T(1), E1], Q),
        ("E1 T1 = q E1", [E1, T(1)], Q),
        ("E1 T2 E1 = z E1", [E1, T(2), E1], Z),
        ("E1 Tinv2 E1 = z^-1 E1", [E1, Tinv(2), E1], ZINV),
    ]:
        if apply({one: ONE}, letters) != {e1: c}:
            failures.append({"relation": name, "word": None})
    return failures


def _plant_wrong_row(cache_dir, n):
    """Build the rank-n table in cache_dir, then overwrite its first row with
    a wrong one under a valid checksum and the current rules, so it is
    trusted as is; returns the planted table data."""
    import zlib

    run("--cache-dir", str(cache_dir), "verify-relations", "--n", str(n))
    (path,) = _tables(cache_dir)
    data = json.loads(path.read_text())
    data["rows"][0] = [[0, "7"]]
    text = json.dumps(data["rows"], separators=(",", ":"))
    data["rows_crc"] = zlib.crc32(text.encode())
    path.write_text(json.dumps(data, separators=(",", ":")))
    return data


def test_verify_relations_reports_the_failures_of_a_trusted_table(tmp_path):
    n = 3
    data = _plant_wrong_row(tmp_path, n)
    (path,) = _tables(tmp_path)
    res = run("--cache-dir", str(tmp_path), "verify-relations", "--n", str(n))
    assert res.exit_code == 1, res.output
    report = json.loads(res.output)
    assert report["ok"] is False
    expected = _replayed_failures(data, n)
    assert len({f["relation"] for f in expected}) > 1
    assert len({f["word"] for f in expected}) > 1
    assert report["failures"] == expected
    assert json.loads(path.read_text()) == data


@pytest.mark.parametrize(
    "args", [("--from", "5", "--to", "-5"), ("--from", "5"), ("--to", "-9")]
)
def test_empty_scan_range_is_usage_error(args):
    res = run("scan", "--n", "3", *args)
    assert res.exit_code == 2, res.output
    assert "empty exponent range" in res.output


def test_basis_count_above_rank_eight_is_usage_error():
    res = run("basis-count", "--n", "9")
    assert res.exit_code == 2, res.output
    assert "--n" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ("semisimple", "--n", "1", "--z-exp", "0"),
        ("semisimple", "--n", "0", "--numeric", "7,3,2"),
        ("semisimple", "--n", "1", "--numeric", "7,3,2"),
        ("gram", "--n", "0", "--f", "0", "--lambda", "[]"),
        ("scan", "--n", "abc"),
    ],
)
def test_out_of_range_rank_is_usage_error(args):
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert "error: argument --n: " in res.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("semisimple", "--n", "2", "--numeric", "15,2,7"), "0 or a prime"),
        (("gram", "--n", "2", "--f", "1", "--lambda", "[]", "--numeric", "9,2,5"),
         "0 or a prime"),
        (("semisimple", "--n", "2", "--numeric", "1,2,3"), "0 or a prime"),
        (("semisimple", "--n", "2", "--numeric", "318665857834031151167461,2,3"),
         "0 or a prime"),
        (("semisimple", "--n", "2", "--numeric", "3317044064679887385961983,2,3"),
         "cannot certify"),
        (("semisimple", "--n", "2", "--numeric", "0,1/0,3"), "zero denominator"),
        (("semisimple", "--n", "2", "--numeric", "7,1/2,3"), "bad numeric point"),
        (("semisimple", "--n", "3", "--numeric", "10007,3,1"), "(delta = 0) is refused"),
        (("semisimple", "--n", "3", "--numeric", "10007,3,10006"),
         "(delta = 0) is refused"),
    ],
)
def test_bad_numeric_point_is_usage_error(args, message):
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_rational_numeric_point():
    data = run_json("semisimple", "--n", "2", "--numeric", "0,1/2,3")
    assert data["report"]["spec"]["q0"] == "1/2"
    assert data["ok"] is True
    data = run_json(
        "gram", "--n", "2", "--f", "1", "--lambda", "[]", "--numeric", "0,3/2,5/7"
    )
    # (z0 - 1/z0)/(q0 - 1/q0) at q0 = 3/2, z0 = 5/7
    z0, q0 = Fraction(5, 7), Fraction(3, 2)
    assert data["determinant"] == str((z0 - 1 / z0) / (q0 - 1 / q0))


def _value_or_usage_error(parse, *args):
    """parse(*args), or None when it raises UsageError; any other
    exception propagates and fails the test."""
    try:
        return parse(*args)
    except UsageError:
        return None


_partitions = st.lists(st.integers(1, 30), max_size=8).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), st.text(alphabet="[]0123456789,- _+", max_size=16)))
def test_parse_partition_returns_a_partition_or_a_usage_error(text):
    lam = _value_or_usage_error(_parse_partition, text)
    if lam is not None:
        assert all(p > 0 for p in lam) and list(lam) == sorted(lam, reverse=True)


@settings(max_examples=200, deadline=None)
@given(lam=_partitions)
def test_parse_partition_round_trips(lam):
    assert _parse_partition(str(list(lam))) == lam
    assert _parse_partition("[%s]" % ",".join(map(str, lam))) == lam


_letters = st.lists(
    st.one_of(
        st.just(E1),
        st.integers(1, 4).map(T),
        st.integers(1, 4).map(Tinv),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(st.text(), st.text(alphabet="ETinv0123456789* -", max_size=20)),
    n=st.integers(2, 5),
)
def test_parse_letters_returns_letters_or_a_usage_error(text, n):
    letters = _value_or_usage_error(_parse_letters, text, n)
    if letters is not None:
        assert all(g == E1 or 1 <= g[1] <= n - 1 for g in letters)


@settings(max_examples=200, deadline=None)
@given(letters=_letters)
def test_parse_letters_round_trips(letters):
    text = " ".join("E1" if g == E1 else f"{g[0]}{g[1]}" for g in letters)
    assert _parse_letters(text, 5) == letters


_numeric_text = st.one_of(
    st.text(),
    st.text(alphabet="0123456789,/- ", max_size=24),
    st.tuples(
        st.sampled_from(["0", "2", "3", "7", "9", "10007", "-7", "1"]),
        st.sampled_from(["0", "1", "-1", "2", "3", "3/2", "1/0", "x"]),
        st.sampled_from(["0", "1", "-1", "2", "5", "5/7", "1/2", ""]),
    ).map(",".join),
)


@settings(max_examples=300, deadline=None)
@given(text=_numeric_text)
def test_parse_numeric_returns_a_point_or_a_usage_error(text):
    point = _value_or_usage_error(_parse_numeric, text)
    if point is not None:
        assert point.characteristic == int(text.split(",")[0])


def test_parse_numeric_refuses_exponent_notation():
    # Fraction("1e1000") would build a 3 322-bit numerator before any check
    for text in ("0,1e1000,3", "0,3,2E5", "7,1e2,3"):
        with pytest.raises(UsageError, match="exponent notation"):
            _parse_numeric(text)
    assert _parse_numeric("0,3/2,1.5").q0 == Fraction(3, 2)


def test_import_loads_no_avoidable_standard_library_module():
    # click, dataclasses (with inspect) and fractions (with decimal) are not
    # needed to start a job; a p = 0 numeric point imports fractions itself
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qbrauer.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert {"qbrauer.cells", "qbrauer.linalg", "qbrauer.semisimple"} <= loaded
    avoidable = {"click", "dataclasses", "inspect", "fractions", "decimal"}
    assert loaded & avoidable == set()


def test_main_returns_every_exit_code_without_exiting(tmp_path):
    from qbrauer.cli import main

    _plant_wrong_row(tmp_path, 2)
    cases = [
        (0, ["basis-count", "--n", "2"]),
        (1, ["--cache-dir", str(tmp_path), "verify-relations", "--n", "2"]),
        (2, ["verify-relations", "--n", "1"]),
        (3, ["--output", str(tmp_path / "missing" / "r.json"), "basis-count", "--n", "2"]),
    ]
    for code, argv in cases:
        assert run(*argv).exit_code == code, argv
    with pytest.raises(SystemExit) as exc:
        with redirect_stdout(io.StringIO()):
            main(["basis-count", "--n", "2"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "command",
    ["", "verify-relations", "gram", "jm-spectrum", "branching", "scan", "semisimple",
     "mul", "basis-count"],
)
def test_help_exits_zero(command):
    res = run(*command.split(), "--help")
    assert res.exit_code == 0, res.output
    assert res.stdout.startswith(" ".join(["usage: qbrauer", command]).rstrip())


def test_usage_error_prints_the_command_usage():
    res = run("scan", "--n", "3", "--from", "5", "--to", "-5")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("usage: qbrauer scan")
    assert res.stderr.endswith(
        "qbrauer scan: error: empty exponent range: --from 5 exceeds --to -5\n"
    )


@pytest.mark.parametrize("a", ["99999999999999999999", "-1000001"])
def test_gram_refuses_a_huge_exponent(a):
    res = run("gram", "--n", "3", "--f", "1", "--lambda", "[1]", "--z-exp", a)
    assert res.exit_code == 2, res.output
    assert "--z-exp" in res.stderr
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["semisimple", "--n", "2", "--z-exp", "1073741823"], "--z-exp"),
        (["scan", "--n", "2", "--from", "1073741823", "--to", "1073741823"], "--from"),
        (["scan", "--n", "2", "--to", "1073741823", "--from", "1073741823"], "--to"),
    ],
    ids=["semisimple-z-exp", "scan-from", "scan-to"],
)
def test_exponent_flags_refuse_a_huge_exponent(argv, flag):
    # at a = 2^30 - 1 every prescreen point mod 2^31 - 1 has z0^2 = 1, and
    # the symbolic determinant at z = q^a would size rows by about 10^9 terms
    res = run(*argv)
    assert res.exit_code == 2, res.output
    assert f"argument {flag}: 1073741823 is not in the range" in res.stderr
    assert "Traceback" not in res.output


def test_gram_takes_a_moderate_exponent():
    res = run("gram", "--n", "3", "--f", "1", "--lambda", "[1]", "--z-exp", "50")
    assert res.exit_code == 0, res.output
