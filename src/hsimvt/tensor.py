"""Dense tensors with tape-based reverse-mode differentiation.

A ``GradGraph`` is a tape: every differentiable op executed while a graph
is active appends one adjoint closure, through ``record_op``. ``backward``
replays the tape in exact reverse execution order, so each op sees the
fully accumulated gradient of its output before propagating to its inputs.

Training runs in float32; gradient checks use float64 tensors. Ops never
change the dtype of their inputs.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import UsageError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _Active(threading.local):
    graph = None  # a class default: a thread that never recorded reads it, no lookup fails


_ACTIVE = _Active()


class Tensor:
    """N-dimensional value array with optional gradient storage."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def active_graph():
    """The graph currently recording on this thread, or None."""
    return _ACTIVE.graph


def records(inputs) -> bool:
    """Whether an op over ``inputs`` records an adjoint: a graph is recording
    on this thread and some input requires a gradient. :func:`record_op`
    follows this rule, and an op may ask it first to skip what only its
    adjoint would read."""
    return _ACTIVE.graph is not None and any(t.requires_grad for t in inputs)


def record_op(value, inputs, adjoint) -> Tensor:
    """Wrap an op's output ``value`` in a Tensor and put its adjoint on the tape.

    Only when :func:`records` holds for ``inputs`` does the output require a
    gradient too; then one closure is recorded. Once the output has a
    gradient ``go``, that closure calls ``adjoint(go, need)``, where
    ``need`` holds one requires-grad flag per input, and adds each
    returned array into the input it belongs to when that input needs it.
    The adjoint may return anything (such as None) for the others.

    An adjoint returns new arrays, or ``go`` or views of it. An input's
    first gradient is the returned array itself, with no zero fill, when it
    has the input's shape and dtype and cannot share memory with ``go`` or
    with an array returned for an earlier input. Otherwise it is added into
    a zeroed copy, so no two tensors' gradients share memory.
    """
    result = Tensor(value)
    if not records(inputs):
        return result
    need = tuple(t.requires_grad for t in inputs)
    result.requires_grad = True

    def backward():
        go = result.grad
        if go is None:
            return
        given = [go]
        for t, wanted, g in zip(inputs, need, adjoint(go, need)):
            if not wanted:
                continue
            if t.grad is not None:
                t.grad += g
            elif isinstance(g, np.ndarray) and g.shape == t.data.shape \
                    and g.dtype == t.data.dtype \
                    and not any(np.may_share_memory(g, h) for h in given):
                t.grad = g
            else:
                t.grad = np.zeros_like(t.data)
                t.grad += g
            given.append(g)

    _ACTIVE.graph.record(backward)
    return result


class GradGraph:
    """Ordered record of executed ops; replays adjoints in reverse order.

    Use as a context manager around the forward pass, then call
    ``backward(loss)`` once. A graph is confined to the thread that
    created it and cannot nest with another active graph.
    """

    def __init__(self):
        self._tape = []
        self._consumed = False

    def __enter__(self) -> "GradGraph":
        if active_graph() is not None:
            raise UsageError("another GradGraph is already recording on this thread")
        _ACTIVE.graph = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.graph = None
        return False

    def record(self, backward_fn):
        """Append one adjoint closure; called by :func:`record_op`."""
        self._tape.append(backward_fn)

    def __len__(self):
        return len(self._tape)

    def backward(self, loss: Tensor):
        """Populate ``grad`` on every requires_grad tensor reachable from ``loss``."""
        if loss.data.size != 1:
            raise UsageError(f"loss must be scalar, got shape {loss.data.shape}")
        if self._consumed:
            raise UsageError("this graph was already replayed; grads would double")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        for fn in reversed(self._tape):
            fn()
