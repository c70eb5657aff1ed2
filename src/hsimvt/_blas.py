"""In-process control of the thread count of the OpenBLAS that numpy loaded.

numpy has no call for it, so the library is found by its path in
``/proc/self/maps`` (Linux) and its own get/set functions are called
through :mod:`ctypes`. The count is process-wide: while
:func:`one_blas_thread` holds it at one, every BLAS call of the process
runs on its calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np  # noqa: F401 -- loads the BLAS this module looks for

# (get, set) symbol pairs, most specific first; the ILP64 (64_) builds
# still take and return a C int
_SYMBOLS = tuple((f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                 for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _control():
    """(get, set) of the loaded OpenBLAS's thread count, or None if not found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count now, or None where there is no control of it."""
    control = _control()
    return None if control is None else control[0]()


def may_split() -> bool:
    """Whether work may split across threads or processes that each hold
    OpenBLAS at one thread: the process may use two CPUs, and control of
    the count was found. Without it a forked child could not lower an
    initialized OpenBLAS's count, so callers run serially."""
    return usable_cpus() >= 2 and _control() is not None


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread inside the block and restore the count
    it had on exit. Yields whether it could; without control it changes
    nothing."""
    control = _control()
    if control is None:
        yield False
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)
