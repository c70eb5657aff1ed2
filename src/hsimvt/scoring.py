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
caller; nothing is sent to it. It holds OpenBLAS at one thread, scores its
share, writes its predictions as little-endian int64 to one pipe and
leaves through :func:`os._exit`, whatever it raised. Its fd 2 is a second
pipe: on an error it writes one JSON line there and exits 1. It is not a
:mod:`multiprocessing` child: ``spawn`` re-runs a caller script that
lacks an ``if __name__ == "__main__"`` guard, and leaves a resource-tracker
process running after the pool is gone.
"""

from __future__ import annotations

import json
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
_POOL_WORK_MIN = 2 ** 31

# Never more workers than this, however many CPUs the process may use.
_MAX_WORKERS = 4


def pool_workers(n_values: int, n_coords: int, batch: int) -> int:
    """Worker processes for scoring ``n_coords`` pixels with ``n_values``
    parameters in batches of ``batch``; 1 means the serial loop."""
    if n_coords * n_values < _POOL_WORK_MIN or not _blas.may_split():
        return 1
    return min(_blas.usable_cpus(), _MAX_WORKERS, -(-n_coords // batch))


class _Worker:
    """A forked worker: its pid, the read ends of its predictions and
    error pipes, and its exit code once it has been waited for."""

    def __init__(self, pid: int, out: int, err: int):
        self.pid, self.out, self.err = pid, out, err
        self.returncode = None

    def wait(self) -> int:
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode


def predict_pooled(params: ModelParams, source: PatchSource, coords: np.ndarray,
                   workers: int, batch: int) -> np.ndarray:
    """Predicted class ids for ``coords``, scored on ``workers`` processes.

    Worker i scores ``coords[bounds[i]:bounds[i + 1]]`` of
    :func:`_batch_bounds`. Every worker has been waited for, and every
    pipe closed, when this returns or raises. A worker that exits or fails
    raises :class:`WorkerError`, or the worker's own :class:`HsimvtError`
    type.
    """
    bounds = _batch_bounds(len(coords), workers, batch)
    procs = []
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            procs.append(_fork(params, source, coords[lo:hi], batch))
        return _collect(procs, bounds)
    finally:
        for proc in procs:
            if proc.returncode is None:  # not yet waited for, so the pid is still its own
                os.kill(proc.pid, signal.SIGKILL)
            os.close(proc.out)
            os.close(proc.err)
            proc.wait()


def _fork(params: ModelParams, source: PatchSource, share: np.ndarray,
          batch: int) -> _Worker:
    """Start a worker that scores ``share``; see the module docstring."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        raise WorkerError(f"cannot start a scoring worker: {exc}") from exc
    out_r, out_w, err_r, err_w = fds
    if pid == 0:  # the worker; it never returns
        status = 1
        try:
            os.close(out_r)
            os.close(err_r)
            os.dup2(err_w, 2)
            with _blas.one_blas_thread():
                predicted = metrics._predict_batches(params, source, share, batch)
            _send(out_w, predicted.astype("<i8").tobytes())
            status = 0
        except BaseException as exc:  # reported to the caller, which raises it
            line = json.dumps({"type": type(exc).__name__, "error": str(exc)}) + "\n"
            _send(err_w, line.encode())
        finally:
            os._exit(status)
    os.close(out_w)  # before the next fork, so that only this worker holds them
    os.close(err_w)
    return _Worker(pid, out_r, err_r)


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


def _collect(procs, bounds) -> np.ndarray:
    """Read every worker's predictions and stderr as they arrive; raise on
    the first worker that exits without all of its predictions."""
    out = np.empty(bounds[-1], dtype=np.int64)
    got = [bytearray() for _ in procs]
    err = [bytearray() for _ in procs]
    pipes_open = [2] * len(procs)
    with selectors.DefaultSelector() as selector:
        for i, proc in enumerate(procs):
            selector.register(proc.out, selectors.EVENT_READ, (i, got[i]))
            selector.register(proc.err, selectors.EVENT_READ, (i, err[i]))
        while selector.get_map():
            for key, _ in selector.select():
                i, buf = key.data
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buf += chunk
                    continue
                selector.unregister(key.fileobj)
                pipes_open[i] -= 1
                if pipes_open[i]:
                    continue
                lo, hi = bounds[i], bounds[i + 1]
                returncode = procs[i].wait()
                if returncode != 0:
                    raise _failure(i, returncode, bytes(err[i]))
                if len(got[i]) != (hi - lo) * 8:
                    raise WorkerError(f"scoring worker {i} returned {len(got[i]) // 8} "
                                      f"predictions, expected {hi - lo}")
                out[lo:hi] = np.frombuffer(got[i], dtype="<i8")
    return out


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


def _send(fd: int, data: bytes):
    """Write all of ``data`` to ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
