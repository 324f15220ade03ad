"""Tests for the command-line interface: JSON structure, exit codes,
determinism, and the documented example outputs."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from qbrauer.cli import main


@pytest.fixture(autouse=True)
def _restore_cache_env():
    # the CLI sets QBRAUER_CACHE_DIR from --cache-dir; keep that contained
    import os

    old = os.environ.get("QBRAUER_CACHE_DIR")
    yield
    if old is None:
        os.environ.pop("QBRAUER_CACHE_DIR", None)
    else:
        os.environ["QBRAUER_CACHE_DIR"] = old


def run(*args):
    return CliRunner().invoke(main, list(args))


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


def test_gram_hecke_label_nonzero():
    data = run_json("gram", "--n", "3", "--f", "0", "--lambda", "[2,1]")
    assert data["determinant_is_zero"] is False


def test_gram_invalid_label_is_usage_error():
    assert run("gram", "--n", "3", "--f", "5", "--lambda", "[1]").exit_code == 2
    assert run("gram", "--n", "3", "--f", "1", "--lambda", "(1)").exit_code == 2
    assert run("gram", "--n", "3", "--f", "1", "--lambda", "[1,2]").exit_code == 2


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


def test_corrupt_cache_is_environment_error(tmp_path):
    run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    for p in tmp_path.iterdir():
        if p.name.startswith("multable"):
            p.write_text("{ not json")
    res = run("--cache-dir", str(tmp_path), "verify-relations", "--n", "2")
    assert res.exit_code == 3


@pytest.mark.parametrize(
    "args",
    [
        ("semisimple", "--n", "1", "--z-exp", "0"),
        ("semisimple", "--n", "0", "--numeric", "7,3,2"),
        ("semisimple", "--n", "1", "--numeric", "7,3,2"),
        ("gram", "--n", "0", "--f", "0", "--lambda", "[]"),
    ],
)
def test_out_of_range_rank_is_usage_error(args):
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert "--n" in res.output


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
