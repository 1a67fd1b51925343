"""BLAS thread limits through scipy's bundled OpenBLAS, with the stdlib only.

The scipy wheel ships its OpenBLAS beside the package (``scipy.libs``),
which exports ``scipy_openblas_{get,set}_num_threads``. The limit is for
``scipy.linalg`` solves, which run on that library and never on numpy's
own OpenBLAS. Small dense solves run as fast and far more evenly on one
thread.

Where the library or its symbols are missing (another BLAS, a source
build) the limit is a no-op, reported by one debug line.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import logging
from contextlib import contextmanager
from pathlib import Path

logger = logging.getLogger(__name__)


@functools.cache
def _controls() -> tuple:
    """The (get, set) thread-count functions of scipy's OpenBLAS, or ()."""
    spec = importlib.util.find_spec("scipy")
    libs = Path(spec.origin).parent.parent / "scipy.libs" if spec else None
    paths = sorted(libs.glob("libscipy_openblas*.so*")) if libs else []
    try:
        # Opening the path scipy loaded gives that same library.
        lib = ctypes.CDLL(str(paths[0]))
        get = lib.scipy_openblas_get_num_threads
        set_ = lib.scipy_openblas_set_num_threads
    except (IndexError, OSError, AttributeError) as exc:
        logger.debug("no OpenBLAS thread control for scipy: %s",
                     exc if paths else "library not found")
        return ()
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def threads(n: int):
    """Run the body with scipy's OpenBLAS on ``n`` threads, restoring its
    previous count on the way out, also on an exception."""
    controls = _controls()
    if not controls:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(n)
    try:
        yield
    finally:
        set_(previous)
