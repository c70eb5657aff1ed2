"""In-process control of the thread count of the OpenBLAS that numpy
loaded, and the forked children that split work across processes.

numpy has no call for the count, so the library is found by its path in
``/proc/self/maps`` (Linux) and its own get/set functions are called
through :mod:`ctypes`. The count is process-wide: while
:func:`one_blas_thread` holds it at one, every BLAS call of the process
runs on its calling thread.

The scoring pool and the training lane start their children with
:func:`fork`. A child shares the caller's pages, so nothing is sent to it;
its results come back through a mapping of :func:`shared_arrays` made
before the fork. It holds OpenBLAS at one thread, runs its job and leaves
through :func:`os._exit`, whatever it raised. Its one pipe to the caller
is its fd 2: on an error it writes one JSON line there and exits 1, and
the pipe's end of file marks its end, which :func:`wait` turns into its
error. It is not a :mod:`multiprocessing` child: ``spawn`` re-runs a
caller script that lacks an ``if __name__ == "__main__"`` guard, and
leaves a resource-tracker process running after the pool is gone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import mmap
import os
import selectors
import signal

import numpy as np  # also loads the BLAS this module looks for

from . import errors
from .errors import HsimvtError, WorkerError

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


class Child:
    """A forked child: its name, its pid, the read end of the pipe on its
    fd 2, and its exit code once it has been waited for."""

    def __init__(self, name: str, pid: int, err: int):
        self.name, self.pid, self.err = name, pid, err
        self.returncode = None

    def wait(self) -> int:
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def stop(self):
        """Kill the child unless it has been waited for, close its pipe and
        wait for it: the one cleanup of every forked child."""
        if self.returncode is None:  # not yet waited for, so the pid is still its own
            os.kill(self.pid, signal.SIGKILL)
        os.close(self.err)
        self.wait()


def fork(job, name: str) -> Child:
    """Start a child called ``name`` that runs ``job()`` at one BLAS thread;
    a pipe or fork that fails raises :class:`WorkerError`."""
    fds = []
    try:
        fds += os.pipe()
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        raise WorkerError(f"cannot start a {name}: {exc}") from exc
    err_r, err_w = fds
    if pid == 0:  # the child; it never returns
        status = 1
        try:
            os.close(err_r)
            os.dup2(err_w, 2)
            with one_blas_thread():
                job()
            status = 0
        except BaseException as exc:  # reported to the caller, which raises it
            with open(err_w, "w") as err:
                err.write(json.dumps({"type": type(exc).__name__, "error": str(exc)}) + "\n")
        finally:
            os._exit(status)
    os.close(err_w)  # before the next fork, so that only this child holds it
    return Child(name, pid, err_r)


def wait(children, ack: int | None = None):
    """Read every child's fd 2 until it closes, then wait for the child;
    raise on the first child that exits nonzero.

    With ``ack``, the read end of a pipe that a child answers on, return
    as soon as one byte arrives there instead, and raise the error of a
    child that ends first, even with exit 0.
    """
    err = [bytearray() for _ in children]
    with selectors.DefaultSelector() as selector:
        for i, child in enumerate(children):
            selector.register(child.err, selectors.EVENT_READ, i)
        if ack is not None:
            selector.register(ack, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                chunk = os.read(key.fd, 1 << 16)
                if key.fd == ack:
                    if chunk:
                        return
                    selector.unregister(ack)  # the child's fd 2 tells why it ended
                    continue
                i = key.data
                if chunk:
                    err[i] += chunk
                    continue
                selector.unregister(key.fileobj)
                returncode = children[i].wait()
                if returncode != 0 or ack is not None:
                    raise _failure(children[i].name, returncode, bytes(err[i]))


def _failure(name: str, returncode: int, stderr: bytes) -> HsimvtError:
    """The error to raise for the child ``name``, which exited with
    ``returncode`` after writing ``stderr`` to its fd 2."""
    if returncode < 0:
        return WorkerError(f"{name} was killed by signal {-returncode}")
    lines = stderr.decode(errors="replace").strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        kind, message = doc["type"], doc["error"]
    except (IndexError, ValueError, TypeError, KeyError):
        tail = f": {lines[-1]}" if lines else ""
        return WorkerError(f"{name} exited with status {returncode}{tail}")
    cls = getattr(errors, str(kind), None)
    if isinstance(cls, type) and issubclass(cls, HsimvtError):
        return cls(message)
    return WorkerError(f"{name} failed: {kind}: {message}")


def shared_arrays(*specs):
    """One anonymous shared mapping and a zeroed array in it per (dtype,
    length) of ``specs``, each starting on an 8-byte boundary. The mapping
    closes only once no array of it is left."""
    sizes = [-(-np.dtype(dtype).itemsize * length // 8) * 8 for dtype, length in specs]
    shared = mmap.mmap(-1, max(sum(sizes), 1))  # anonymous, so shared with forks
    arrays, offset = [], 0
    for (dtype, length), size in zip(specs, sizes):
        arrays.append(np.frombuffer(shared, dtype, length, offset))
        offset += size
    return shared, arrays
