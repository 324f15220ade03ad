import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

from qbrauer.cli import main
from qbrauer.coefficients import ONE
from qbrauer.combinatorics import IDENTITY
from qbrauer.hecke import HeckeElt


@pytest.fixture(autouse=True)
def _private_table_cache(monkeypatch, tmp_path):
    """Each test gets its own generator-table cache directory, so no test
    reads or writes the user's ~/.cache/qbrauer."""
    monkeypatch.setenv("QBRAUER_CACHE_DIR", str(tmp_path / "qbrauer-cache"))


class CliResult(NamedTuple):
    """What one CLI run left behind: its exit code and captured streams."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


def run_cli(*args):
    """Run the qbrauer CLI in-process on args and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args), standalone_mode=False)
    return CliResult(code, out.getvalue(), err.getvalue())


def hecke_one(window):
    return HeckeElt(window, {IDENTITY: ONE})


def hecke_T(w, window):
    return HeckeElt(window, {w: ONE})


def hecke_product(*factors):
    """The product of Hecke elements of one window: each term c T_v of a
    right factor multiplies the product so far by c and the letters of v."""
    out = factors[0]
    for b in factors[1:]:
        out._check(b)
        acc = HeckeElt(out.window)
        for v, c in b.terms.items():
            acc = acc + out.scale(c).mul_word(v.word())
        out = acc
    return out
