import pytest


@pytest.fixture(autouse=True)
def _private_table_cache(monkeypatch, tmp_path):
    """Each test gets its own generator-table cache directory, so no test
    reads or writes the user's ~/.cache/qbrauer."""
    monkeypatch.setenv("QBRAUER_CACHE_DIR", str(tmp_path / "qbrauer-cache"))
