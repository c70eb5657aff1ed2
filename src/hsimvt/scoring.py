"""Forward-only scoring of a large coordinate list on worker processes.

:func:`~hsimvt.metrics.predict_coords` hands a job here when
:func:`pool_workers` gives more than one worker. The coordinates are cut
at the serial loop's batch boundaries into one run of whole batches per
worker, and each worker scores its run with that same loop, one BLAS
thread per worker. Every batch therefore computes exactly as it does in
the serial loop, so the predictions keep the serial path's bits. They come
back in coords order.

A worker is a child made by :func:`os.fork`, so it starts with the
caller's parameters, raster and coordinates in pages it shares with the
caller; nothing is sent to it. Before the first fork the caller maps one
anonymous shared int64 array of ``len(coords)`` predictions, and each
worker writes its share into its own slice of it. A worker holds OpenBLAS
at one thread, scores its share and leaves through :func:`os._exit`,
whatever it raised. Its one pipe to the caller is its fd 2: on an error it
writes one JSON line there and exits 1, and the pipe's end of file marks
the worker's end. It is not a :mod:`multiprocessing` child: ``spawn``
re-runs a caller script that lacks an ``if __name__ == "__main__"``
guard, and leaves a resource-tracker process running after the pool is
gone.
"""

from __future__ import annotations

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
    """A forked worker: its pid, the read end of the pipe on its fd 2, and
    its exit code once it has been waited for."""

    def __init__(self, pid: int, err: int):
        self.pid, self.err = pid, err
        self.returncode = None

    def wait(self) -> int:
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode


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
            for lo, hi in zip(bounds, bounds[1:]):
                procs.append(_fork(params, source, coords[lo:hi], batch, shared, lo))
            _collect(procs)
            return np.frombuffer(shared, dtype=np.int64).copy()
        finally:
            for proc in procs:
                if proc.returncode is None:  # not yet waited for, so the pid is still its own
                    os.kill(proc.pid, signal.SIGKILL)
                os.close(proc.err)
                proc.wait()


def _fork(params: ModelParams, source: PatchSource, share: np.ndarray, batch: int,
          shared: mmap.mmap, lo: int) -> _Worker:
    """Start a worker that scores ``share`` into ``shared`` from element
    ``lo`` on; see the module docstring."""
    fds = []
    try:
        fds += os.pipe()
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        raise WorkerError(f"cannot start a scoring worker: {exc}") from exc
    err_r, err_w = fds
    if pid == 0:  # the worker; it never returns
        status = 1
        try:
            os.close(err_r)
            os.dup2(err_w, 2)
            with _blas.one_blas_thread():
                predicted = metrics._predict_batches(params, source, share, batch)
            np.frombuffer(shared, np.int64, len(share), 8 * lo)[:] = predicted
            status = 0
        except BaseException as exc:  # reported to the caller, which raises it
            with open(err_w, "w") as err:
                err.write(json.dumps({"type": type(exc).__name__, "error": str(exc)}) + "\n")
        finally:
            os._exit(status)
    os.close(err_w)  # before the next fork, so that only this worker holds it
    return _Worker(pid, err_r)


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
                    raise _failure(i, returncode, bytes(err[i]))


def _failure(i: int, returncode: int, stderr: bytes) -> HsimvtError:
    """The error to raise for worker ``i``, which exited with ``returncode``."""
    if returncode < 0:
        return WorkerError(f"scoring worker {i} was killed by signal {-returncode}")
    lines = stderr.decode(errors="replace").strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        kind, message = doc["type"], doc["error"]
    except (IndexError, ValueError, TypeError, KeyError):
        tail = f": {lines[-1]}" if lines else ""
        return WorkerError(f"scoring worker {i} exited with status {returncode}{tail}")
    cls = getattr(errors, str(kind), None)
    if isinstance(cls, type) and issubclass(cls, HsimvtError):
        return cls(message)
    return WorkerError(f"scoring worker {i} failed: {kind}: {message}")
