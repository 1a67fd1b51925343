import ctypes
import importlib.util
import logging

import pytest

from sscluster import blas


def count():
    """scipy's OpenBLAS thread count, or None without a thread control."""
    controls = blas._controls()
    return controls[0]() if controls else None


@pytest.fixture
def two_threads():
    """scipy's OpenBLAS on 2 threads for the test, so that a limit of 1
    shows whatever the machine's default is; restored afterwards."""
    if not blas._controls():
        pytest.skip("no bundled OpenBLAS thread control in this install")
    _, set_ = blas._controls()
    before = count()
    set_(2)
    yield
    set_(before)


def test_limit_applies_and_is_restored(two_threads):
    with blas.threads(1):
        assert count() == 1
    assert count() == 2


def test_restored_after_an_exception(two_threads):
    with pytest.raises(RuntimeError, match="inside"):
        with blas.threads(1):
            raise RuntimeError("inside")
    assert count() == 2


# (module, name, replacement): a library without the thread symbols, and
# no scipy package found.
@pytest.mark.parametrize("library", [(ctypes, "CDLL", lambda path: object()),
                                     (importlib.util, "find_spec", lambda name: None)])
def test_missing_control_is_a_logged_no_op(monkeypatch, caplog, library):
    real = count()
    monkeypatch.setattr(*library)
    blas._controls.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="sscluster.blas"):
            with blas.threads(1):
                pass
        lines = [r for r in caplog.records if r.name == "sscluster.blas"]
        assert len(lines) == 1 and lines[0].levelno == logging.DEBUG
        assert "scipy" in lines[0].getMessage()
    finally:
        monkeypatch.undo()
        blas._controls.cache_clear()
    assert count() == real
