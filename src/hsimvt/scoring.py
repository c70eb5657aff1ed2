"""Forward-only scoring of a large coordinate list on worker processes.

:func:`~hsimvt.metrics.predict_coords` hands a job here when
:func:`pool_workers` gives more than one worker. The coordinates are cut
at the serial loop's batch boundaries into one run of whole batches per
worker, and each worker scores its run with that same loop, one BLAS
thread per worker. Every batch therefore computes exactly as it does in
the serial loop, so the predictions keep the serial path's bits. They come
back in coords order.

A worker is a plain ``python`` process started by :mod:`subprocess`. It is
not a :mod:`multiprocessing` child: ``spawn`` re-runs a caller script that
lacks an ``if __name__ == "__main__"`` guard, and leaves a resource-tracker
process running after the pool is gone. The worker imports hsimvt from the
caller's own package directory. On stdin it reads one JSON header line,
then the parameter vector, the raster and its share of the coordinates as
raw bytes. On stdout it writes its predictions as little-endian int64. On
an error it writes one JSON line on stderr and exits 1.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys

import numpy as np

from . import errors
from ._blas import usable_cpus as _usable_cpus
from .data import PatchSource
from .errors import HsimvtError, WorkerError
from .model import ModelConfig, ModelParams

# A job runs on workers once len(coords) x the parameter count reaches this.
# Starting the workers costs 0.3-0.5 s (each imports numpy and hsimvt and
# reads the raster), so smaller jobs stay serial; see the README's Notes for
# the measurements that set it.
_POOL_WORK_MIN = 2 ** 31

# Never more workers than this, however many CPUs the process may use.
_MAX_WORKERS = 4

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_WORKER_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from hsimvt.scoring import worker_main; worker_main()")


def pool_workers(n_values: int, n_coords: int, batch: int) -> int:
    """Worker processes for scoring ``n_coords`` pixels with ``n_values``
    parameters in batches of ``batch``; 1 means the serial loop."""
    if n_coords * n_values < _POOL_WORK_MIN:
        return 1
    return max(1, min(_usable_cpus(), _MAX_WORKERS, -(-n_coords // batch)))


def predict_pooled(params: ModelParams, source: PatchSource, coords: np.ndarray,
                   workers: int, batch: int) -> np.ndarray:
    """Predicted class ids for ``coords``, scored on ``workers`` processes.

    Worker i scores ``coords[bounds[i]:bounds[i + 1]]`` of
    :func:`_batch_bounds`. Every worker has been waited for when this
    returns or raises. A worker that exits or fails raises
    :class:`WorkerError`, or the worker's own :class:`HsimvtError` type.
    """
    coords = np.ascontiguousarray(coords)
    raster = np.ascontiguousarray(source.raster)
    bounds = _batch_bounds(len(coords), workers, batch)
    head = {"config": params.config.to_json_dict(), "patch_size": source.patch_size,
            "batch": batch, "values": _spec(params.values), "raster": _spec(raster)}
    env = dict(os.environ, **{var: "1" for var in _BLAS_THREAD_VARS})
    procs = []
    try:
        try:
            for _ in range(workers):
                procs.append(subprocess.Popen(
                    [sys.executable, "-c", _WORKER_CODE, _PACKAGE_ROOT], bufsize=0, env=env,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        except OSError as exc:
            raise WorkerError(f"cannot start a scoring worker: {exc}") from exc
        for i, (proc, lo, hi) in enumerate(zip(procs, bounds, bounds[1:])):
            share = coords[lo:hi]
            line = json.dumps(dict(head, coords=_spec(share))).encode() + b"\n"
            try:
                for part in (np.frombuffer(line, np.uint8), params.values, raster, share):
                    _send(proc.stdin.fileno(), part)
            except BrokenPipeError:
                proc.wait()
                raise _failure(i, proc.returncode, proc.stderr.read()) from None
            proc.stdin.close()
        return _collect(procs, bounds)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                pipe.close()
            proc.wait()


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
            selector.register(proc.stdout, selectors.EVENT_READ, (i, got[i]))
            selector.register(proc.stderr, selectors.EVENT_READ, (i, err[i]))
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


def _spec(a: np.ndarray) -> dict:
    return {"dtype": a.dtype.str, "shape": list(a.shape)}


def _bytes_of(a: np.ndarray) -> memoryview:
    """The bytes of the C-contiguous array ``a``, without a copy."""
    return memoryview(a.reshape(-1).view(np.uint8))


def _send(fd: int, a: np.ndarray):
    """Write all of the C-contiguous array ``a`` to ``fd``."""
    view = _bytes_of(a)
    while view:
        view = view[os.write(fd, view):]


def _receive(stream, spec: dict) -> np.ndarray:
    """A new array of ``spec``'s dtype and shape, filled from ``stream``."""
    a = np.empty(spec["shape"], dtype=spec["dtype"])
    view = _bytes_of(a)
    while view:
        n = stream.readinto(view)
        if not n:
            raise EOFError("scoring job ended early")
        view = view[n:]
    return a


def worker_main():
    """Score the share of a job that arrives on stdin; see the module docstring."""
    from .metrics import _predict_batches  # metrics imports this module

    try:
        stdin = sys.stdin.buffer
        head = json.loads(stdin.readline())
        values = _receive(stdin, head["values"])
        raster = _receive(stdin, head["raster"])
        coords = _receive(stdin, head["coords"])
        params = ModelParams.from_vector(ModelConfig.from_json_dict(head["config"]), values)
        source = PatchSource(raster, head["patch_size"])
        predicted = _predict_batches(params, source, coords, head["batch"])
        _send(sys.stdout.fileno(), predicted.astype("<i8"))
    except Exception as exc:  # reported to the caller, which raises it
        print(json.dumps({"type": type(exc).__name__, "error": str(exc)}), file=sys.stderr)
        sys.exit(1)
