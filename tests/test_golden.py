"""CLI reports byte for byte: the benchmark's rank-4 reports against those
frozen from the seed program in perfbench/expected/, and three rank-5
reports against those frozen in tests/golden/ before the cell modules
multiplied through their generator matrices."""

import os

import pytest
from click.testing import CliRunner

from qbrauer.cli import main

HERE = os.path.dirname(__file__)
EXPECTED = os.path.join(HERE, os.pardir, "perfbench", "expected")
GOLDEN = os.path.join(HERE, "golden")

JOBS = {
    "scan-n4": ["scan", "--n", "4", "--seed", "0"],
    "jm-spectrum-n4-f1-2": ["jm-spectrum", "--n", "4", "--f", "1", "--lambda", "[2]"],
    "jm-spectrum-n4-f2": ["jm-spectrum", "--n", "4", "--f", "2", "--lambda", "[]"],
    "branching-n4-f1-2": ["branching", "--n", "4", "--f", "1", "--lambda", "[2]"],
    "verify-relations-n4": ["verify-relations", "--n", "4"],
}

RANK_FIVE_JOBS = {
    "jm-spectrum-n5-f1-2-1": ["jm-spectrum", "--n", "5", "--f", "1", "--lambda", "[2,1]"],
    "jm-spectrum-n5-f2-1": ["jm-spectrum", "--n", "5", "--f", "2", "--lambda", "[1]"],
    "branching-n5-f1-2-1": ["branching", "--n", "5", "--f", "1", "--lambda", "[2,1]"],
}


def check_report(path, argv, cache_dir, monkeypatch):
    monkeypatch.setenv("QBRAUER_CACHE_DIR", str(cache_dir))
    with open(path, newline="") as fh:
        expected = fh.read()
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 0, res.output
    assert res.stdout == expected


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_is_byte_identical(name, tmp_path, monkeypatch):
    path = os.path.join(EXPECTED, name + ".json")
    check_report(path, JOBS[name], tmp_path, monkeypatch)


@pytest.mark.parametrize("name", sorted(RANK_FIVE_JOBS))
def test_rank_five_report_is_byte_identical(name, tmp_path, monkeypatch):
    path = os.path.join(GOLDEN, name + ".json")
    check_report(path, RANK_FIVE_JOBS[name], tmp_path, monkeypatch)
