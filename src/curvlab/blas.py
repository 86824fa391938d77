"""One BLAS thread for curvlab's work.

numpy's bundled OpenBLAS splits a large product across threads, and the
split changes the order of its sums: the same flow printed different last
digits under one and under two threads.  ``single_threaded`` pins that
library to one thread and restores the previous count on exit, so the same
argv and seed give the same bytes on any core count.  It calls the
library's ``scipy_openblas_{get,set}_num_threads64_`` through ctypes; when
they cannot be resolved, the first use says so on stderr and the work runs
unpinned.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys

import numpy as np

__all__ = ["thread_controls", "single_threaded"]

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"
# numpy wheels bundle the library next to the package (Linux, Windows) or
# inside it (macOS).
_LIB_DIRS = ("numpy.libs", os.path.join("numpy", ".dylibs"))
_LIB_PREFIX = "libscipy_openblas64_"


@functools.cache
def thread_controls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None, reported once on stderr, when no bundled library exports them."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for folder in (os.path.join(site, d) for d in _LIB_DIRS):
        names = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
        for name in (x for x in names if x.startswith(_LIB_PREFIX)):
            try:
                lib = ctypes.CDLL(os.path.join(folder, name))
                get, set_ = getattr(lib, _GET), getattr(lib, _SET)
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    print(
        f"curvlab: cannot pin BLAS threads: {_SET} not found in numpy's bundled OpenBLAS "
        f"under {site}; results may depend on the thread count",
        file=sys.stderr,
    )
    return None


def single_threaded(fn):
    """Run ``fn`` on one BLAS thread and restore the previous count after.

    The count is process-wide; calls nest.
    """

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        controls = thread_controls()
        before = controls[0]() if controls else 1
        if before != 1:
            controls[1](1)
        try:
            return fn(*args, **kwargs)
        finally:
            if before != 1:
                controls[1](before)

    return pinned
