import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

from qbrauer.cli import main
from qbrauer.coefficients import add_term
from qbrauer.combinatorics import reduced_word
from qbrauer.hecke import mul_word


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


def hecke_sum(*elements):
    """The sum of Hecke term dicts {w: c}, with no zero term stored."""
    out = {}
    for h in elements:
        for w, c in h.items():
            add_term(out, w, c)
    return out


def hecke_scale(h, c):
    """The Hecke term dict c . h."""
    return {w: c * v for w, v in h.items()} if c else {}


def hecke_product(window, *factors):
    """The product of Hecke term dicts of one window: each term c T_v of a
    right factor multiplies the product so far by c and the letters of v."""
    out = factors[0]
    for b in factors[1:]:
        out = hecke_sum(*(
            mul_word(hecke_scale(out, c), reduced_word(v), window)
            for v, c in b.items()
        ))
    return out
