import logging

import pytest

from sscluster import blas


def counts():
    return [get() for get, _ in blas._controls()]


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS on 2 threads for the test, so that a limit
    of 1 shows whatever the machine's default is; restored afterwards."""
    if not blas._controls():
        pytest.skip("no bundled OpenBLAS thread control in this install")
    before = counts()
    for _, set_ in blas._controls():
        set_(2)
    yield
    for (_, set_), count in zip(blas._controls(), before):
        set_(count)


def test_limit_applies_and_is_restored(two_threads):
    with blas.threads(1):
        assert counts() == [1] * len(counts())
    assert counts() == [2] * len(counts())


def test_restored_after_an_exception(two_threads):
    with pytest.raises(RuntimeError, match="inside"):
        with blas.threads(1):
            raise RuntimeError("inside")
    assert counts() == [2] * len(counts())


@pytest.mark.parametrize("library", [("scipy", "_no_such_suffix"),
                                     ("no_such_package", "")])
def test_missing_control_is_a_logged_no_op(monkeypatch, caplog, library):
    real = counts()
    monkeypatch.setattr(blas, "_LIBRARIES", (library,))
    blas._controls.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="sscluster.blas"):
            with blas.threads(1):
                pass
        lines = [r for r in caplog.records if r.name == "sscluster.blas"]
        assert len(lines) == 1 and lines[0].levelno == logging.DEBUG
        assert library[0] in lines[0].getMessage()
    finally:
        monkeypatch.undo()
        blas._controls.cache_clear()
    assert counts() == real
