"""The benchmark's rank-4 CLI reports, byte for byte against the reports
frozen from the seed program in perfbench/expected/."""

import os

import pytest
from click.testing import CliRunner

from qbrauer.cli import main

EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected")

JOBS = {
    "scan-n4": ["scan", "--n", "4", "--seed", "0"],
    "jm-spectrum-n4-f1-2": ["jm-spectrum", "--n", "4", "--f", "1", "--lambda", "[2]"],
    "jm-spectrum-n4-f2": ["jm-spectrum", "--n", "4", "--f", "2", "--lambda", "[]"],
    "branching-n4-f1-2": ["branching", "--n", "4", "--f", "1", "--lambda", "[2]"],
    "verify-relations-n4": ["verify-relations", "--n", "4"],
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_is_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.setenv("QBRAUER_CACHE_DIR", str(tmp_path))
    with open(os.path.join(EXPECTED, name + ".json"), newline="") as fh:
        expected = fh.read()
    res = CliRunner().invoke(main, JOBS[name])
    assert res.exit_code == 0, res.output
    assert res.stdout == expected
