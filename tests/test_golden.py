"""CLI reports byte for byte: the benchmark's rank-4 reports against those
frozen from the seed program in perfbench/expected/, and the reports in
tests/golden/: three rank-5 reports frozen before the cell modules
multiplied through their generator matrices, four Gram and
semisimplicity reports frozen while Gram matrices were still paired by
algebra products, four reports (verify-relations and basis-count at
rank 5, a product, semisimple at an integer exponent) frozen while
verify-relations still replayed the relations through the rewriting
engine, two rank-6 branching reports, C(1, (4)) and C(3, ()), frozen
while the layer spectra were still compared with a second enumeration of
up-down tableaux, and the rank-6 semisimple report at a numeric point,
which builds every rank-6 Gram matrix, frozen while the deficiency-one
layer still had a Gram rule of its own, and three rank-6 reports, the
scan, semisimple at z = q^4 and the Jucys-Murphy spectrum of
C(1, (2,1,1)), frozen while elimination still took the first nonzero
entry of a column as its pivot (marked slow: about 20 s together on a
2-core host).  Each job runs twice on one cache directory, so the cold
and the warm pass are both checked byte for byte.  The cold pass starts
from empty in-process caches (clear_caches), so its report is that of a
fresh process whatever tests ran before; the warm pass reuses them."""

import os

import pytest
from conftest import run_cli

from qbrauer.cells import clear_caches

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

GOLDEN_JOBS = {
    "jm-spectrum-n5-f1-2-1": ["jm-spectrum", "--n", "5", "--f", "1", "--lambda", "[2,1]"],
    "jm-spectrum-n5-f2-1": ["jm-spectrum", "--n", "5", "--f", "2", "--lambda", "[1]"],
    "branching-n5-f1-2-1": ["branching", "--n", "5", "--f", "1", "--lambda", "[2,1]"],
    "gram-n4-f1-1-1": ["gram", "--n", "4", "--f", "1", "--lambda", "[1,1]"],
    "gram-n4-f0-3-1-numeric": [
        "gram", "--n", "4", "--f", "0", "--lambda", "[3,1]", "--numeric", "10007,3,9"
    ],
    "gram-n5-f2-1-z1": [
        "gram", "--n", "5", "--f", "2", "--lambda", "[1]", "--z-exp", "1"
    ],
    "semisimple-n5-numeric": ["semisimple", "--n", "5", "--numeric", "10007,3,9"],
    "verify-relations-n5": ["verify-relations", "--n", "5"],
    "basis-count-n5": ["basis-count", "--n", "5"],
    "mul-n3-e1t2-e1": ["mul", "--n", "3", "E1 T2", "E1"],
    "semisimple-n4-z2": ["semisimple", "--n", "4", "--z-exp", "2"],
    "branching-n6-f1-4": ["branching", "--n", "6", "--f", "1", "--lambda", "[4]"],
    "branching-n6-f3": ["branching", "--n", "6", "--f", "3", "--lambda", "[]"],
    "semisimple-n6-numeric": ["semisimple", "--n", "6", "--numeric", "10007,3,9"],
    "scan-n6": ["scan", "--n", "6"],
    "semisimple-n6-z4": ["semisimple", "--n", "6", "--z-exp", "4"],
    "jm-spectrum-n6-f1-2-1-1": [
        "jm-spectrum", "--n", "6", "--f", "1", "--lambda", "[2,1,1]"
    ],
}
SLOW_JOBS = {"scan-n6", "semisimple-n6-z4", "jm-spectrum-n6-f1-2-1-1"}


def check_report(path, argv, cache_dir, monkeypatch):
    monkeypatch.setenv("QBRAUER_CACHE_DIR", str(cache_dir))
    with open(path, newline="") as fh:
        expected = fh.read()
    clear_caches()
    for cache_pass in ("cold", "warm"):
        res = run_cli(*argv)
        assert res.exit_code == 0, (cache_pass, res.output)
        assert res.stdout == expected, cache_pass


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_is_byte_identical(name, tmp_path, monkeypatch):
    path = os.path.join(EXPECTED, name + ".json")
    check_report(path, JOBS[name], tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW_JOBS else name
        for name in sorted(GOLDEN_JOBS)
    ],
)
def test_rank_five_report_is_byte_identical(name, tmp_path, monkeypatch):
    path = os.path.join(GOLDEN, name + ".json")
    check_report(path, GOLDEN_JOBS[name], tmp_path, monkeypatch)
