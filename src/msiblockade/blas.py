"""One-thread budget for the OpenBLAS copies bundled with numpy and scipy.

numpy's wheel ships ``libscipy_openblas64_`` and scipy's ships
``libscipy_openblas``; each runs its own thread pool, and on a small host
those threads slow the matrix-free steady-state solve instead of speeding it
up (its BLAS calls are on 100-200 wide matrices).
``liouvillian.steady_state`` runs each whole solve, residual included, under
one budget, so its digits do not depend on the thread count.
:func:`single_thread` sets every such library already loaded in this process
to one thread and restores the caller's counts on exit. It looks in the
wheels' ``<package>.libs`` directories (the Linux layout); where it finds no
OpenBLAS there (MKL or Accelerate builds, other layouts) it does nothing.
Nothing happens at import.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class OpenBLAS:
    """One loaded OpenBLAS and its thread-count entry points."""

    name: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


@functools.cache
def libraries() -> tuple[OpenBLAS, ...]:
    """The bundled OpenBLAS libraries loaded in this process (looked up once)."""
    import numpy
    import scipy.linalg  # binds `scipy` and loads scipy's OpenBLAS

    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:  # no dlopen (Windows): nothing to bind
        return ()
    found = []
    for pkg in (numpy, scipy):
        root = Path(pkg.__file__).parent  # Linux wheels keep it in <pkg>.libs
        for path in sorted(root.parent.glob(f"{root.name}.libs/libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=noload)  # only if already loaded
            except OSError:
                continue
            for suffix in ("", "64_"):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append(OpenBLAS(path.name, get, put))
                    break
    return tuple(found)


# The thread count is process-wide, so overlapping budgets (nested, or from
# several Python threads) share one save/restore: the first to enter saves
# the caller's counts, the last to leave restores them.
_lock = threading.Lock()
_depth = 0
_saved: tuple[int, ...] = ()


@contextlib.contextmanager
def single_thread():
    """Run the body with every found OpenBLAS at one thread."""
    global _depth, _saved
    libs = libraries()
    with _lock:
        if _depth == 0:
            _saved = tuple(lib.get_num_threads() for lib in libs)
            for lib in libs:
                lib.set_num_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for lib, n in zip(libs, _saved):
                    lib.set_num_threads(n)
