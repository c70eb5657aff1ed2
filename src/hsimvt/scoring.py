"""Forward-only scoring of a large coordinate list on worker processes.

:func:`~hsimvt.metrics.predict_coords` hands a job here when
:func:`pool_workers` gives more than one worker. The coordinates are cut
at the serial loop's batch boundaries into one run of whole batches per
worker, and each worker scores its run with that same loop, one BLAS
thread per worker. Every batch therefore computes exactly as it does in
the serial loop, so the predictions keep the serial path's bits. They come
back in coords order.

A worker is a child made by :func:`_fork`, so it starts with the
caller's parameters, raster and coordinates in pages it shares with the
caller; nothing is sent to it. Before the first fork the caller maps one
anonymous shared int64 array of ``len(coords)`` predictions, and each
worker writes its share into its own slice of it. :func:`_fork` is also
how :func:`hsimvt.training.train` starts its lane: the child holds
OpenBLAS at one thread, runs its job and leaves through :func:`os._exit`,
whatever it raised. Its one pipe to the caller is its fd 2: on an error
it writes one JSON line there and exits 1, and the pipe's end of file
marks the child's end. It is not a :mod:`multiprocessing` child:
``spawn`` re-runs a caller script that lacks an ``if __name__ ==
"__main__"`` guard, and leaves a resource-tracker process running after
the pool is gone.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import selectors
import signal

import numpy as np

from . import _blas, errors, metrics  # metrics imports this module
from .data import PatchSource
from .errors import HsimvtError, WorkerError
from .model import ModelParams

# A job runs on workers once len(coords) x the parameter count reaches this.
# See the README's Notes for the measurements that set it.
_POOL_WORK_MIN = 2 ** 30

# Never more workers than this, however many CPUs the process may use.
_MAX_WORKERS = 4


def pool_workers(n_values: int, n_coords: int, batch: int) -> int:
    """Worker processes for scoring ``n_coords`` pixels with ``n_values``
    parameters in batches of ``batch``; 1 means the serial loop."""
    if n_coords * n_values < _POOL_WORK_MIN or not _blas.may_split():
        return 1
    return min(_blas.usable_cpus(), _MAX_WORKERS, -(-n_coords // batch))


class _Worker:
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


def predict_pooled(params: ModelParams, source: PatchSource, coords: np.ndarray,
                   workers: int, batch: int) -> np.ndarray:
    """Predicted class ids for ``coords``, scored on ``workers`` processes.

    Worker i scores ``coords[bounds[i]:bounds[i + 1]]`` of
    :func:`_batch_bounds` into the same slice of a shared mapping, which
    this copies out once every worker has exited 0. Every worker has been
    waited for, and every pipe and the mapping closed, when this returns
    or raises. A worker that exits or fails raises :class:`WorkerError`,
    or the worker's own :class:`HsimvtError` type.
    """
    bounds = _batch_bounds(len(coords), workers, batch)
    procs = []
    with mmap.mmap(-1, 8 * len(coords)) as shared:  # anonymous, so shared with forks
        try:
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                job = functools.partial(_score, params, source, coords[lo:hi], batch, shared, lo)
                procs.append(_fork(job, f"scoring worker {i}"))
            _collect(procs)
            return np.frombuffer(shared, dtype=np.int64).copy()
        finally:
            for proc in procs:
                proc.stop()


def _score(params: ModelParams, source: PatchSource, share: np.ndarray, batch: int,
           shared: mmap.mmap, lo: int):
    """A worker's job: score ``share`` into ``shared`` from element ``lo`` on."""
    predicted = metrics._predict_batches(params, source, share, batch)
    np.frombuffer(shared, np.int64, len(share), 8 * lo)[:] = predicted


def _fork(job, name: str) -> _Worker:
    """Start a child called ``name`` that runs ``job()`` at one BLAS thread;
    see the module docstring."""
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
            with _blas.one_blas_thread():
                job()
            status = 0
        except BaseException as exc:  # reported to the caller, which raises it
            with open(err_w, "w") as err:
                err.write(json.dumps({"type": type(exc).__name__, "error": str(exc)}) + "\n")
        finally:
            os._exit(status)
    os.close(err_w)  # before the next fork, so that only this child holds it
    return _Worker(name, pid, err_r)


def _batch_bounds(n: int, workers: int, batch: int) -> list:
    """Where each worker's share of n coordinates starts, then n.

    Of the serial loop's nb batches, worker i takes batches i·nb//workers
    up to (i+1)·nb//workers, so every share is a run of whole serial
    batches and each batch holds the pixels it holds in the serial loop.
    ``ops.conv2d`` picks its path from the batch size, so other cuts could
    change bits.
    """
    n_batches = -(-n // batch)
    return [min(n, i * n_batches // workers * batch) for i in range(workers + 1)]


def _collect(procs):
    """Read every worker's fd 2 until it closes, then wait for the worker;
    raise on the first worker that exits nonzero."""
    err = [bytearray() for _ in procs]
    with selectors.DefaultSelector() as selector:
        for i, proc in enumerate(procs):
            selector.register(proc.err, selectors.EVENT_READ, i)
        while selector.get_map():
            for key, _ in selector.select():
                i = key.data
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    err[i] += chunk
                    continue
                selector.unregister(key.fileobj)
                returncode = procs[i].wait()
                if returncode != 0:
                    raise _failure(procs[i].name, returncode, bytes(err[i]))


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
