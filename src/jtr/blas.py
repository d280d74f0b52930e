"""Thread count of the OpenBLAS libraries that numpy and scipy bundle.

numpy and scipy wheels each ship their own OpenBLAS with its own thread
pool, so both are set together.  The libraries are found next to the
packages and their setters resolved only when ``blas_threads`` is entered,
which keeps ``import jtr`` free of the lookup.
"""

import contextlib
import ctypes
from pathlib import Path

import numpy
import scipy


def _openblas_pools() -> list:
    """(get, set) thread-count functions of every bundled OpenBLAS found."""
    pools = []
    # numpy's OpenBLAS exports its symbols with a "64_" suffix, scipy's without.
    for pkg, suffix in ((numpy, "64_"), (scipy, "")):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            pools.append((get, put))
    return pools


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body with every bundled OpenBLAS pool set to ``n`` threads.

    The previous settings are restored on exit.  A library or symbol that
    cannot be found is skipped, so the context is a no-op without them.
    """
    if n < 1:
        raise ValueError(f"BLAS thread count must be at least 1, got {n}")
    pools = _openblas_pools()
    saved = [get() for get, _ in pools]
    for _, put in pools:
        put(n)
    try:
        yield
    finally:
        for (_, put), old in zip(pools, saved):
            put(old)
