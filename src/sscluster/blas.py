"""BLAS thread limits through the bundled OpenBLAS, with the stdlib only.

The numpy and scipy wheels each ship their own OpenBLAS beside the package
(``numpy.libs``, ``scipy.libs``), and each exports a thread-count getter
and setter: ``scipy_openblas_{get,set}_num_threads`` in scipy's and the
same names with a ``64_`` suffix in numpy's 64-bit-integer build. Small
dense solves run as fast and far more evenly on one thread.

Where a library or its symbols are missing (another BLAS, a source build)
the limits are a no-op, reported by one debug line per library.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import logging
from contextlib import contextmanager
from pathlib import Path

logger = logging.getLogger(__name__)

# (package, symbol suffix) of each bundled OpenBLAS.
_LIBRARIES = (("scipy", ""), ("numpy", "64_"))


@functools.cache
def _controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS found."""
    found = []
    for package, suffix in _LIBRARIES:
        spec = importlib.util.find_spec(package)
        libs = Path(spec.origin).parent.parent / f"{package}.libs" if spec else None
        paths = sorted(libs.glob("libscipy_openblas*.so*")) if libs else []
        try:
            # Opening the path the package loaded gives that same library.
            lib = ctypes.CDLL(str(paths[0]))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (IndexError, OSError, AttributeError) as exc:
            logger.debug("no OpenBLAS thread control for %s: %s", package,
                         exc if paths else "library not found")
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return tuple(found)


@contextmanager
def threads(n: int):
    """Run the body with every bundled OpenBLAS on ``n`` threads, restoring
    each library's previous count on the way out, also on an exception."""
    controls = _controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(n)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
