"""Softmax cross-entropy, bias-corrected Adam, and the training loop.

Training runs in float32 on patches gathered on the fly from the
preprocessed representation raster. The master seed fans out to three
independent streams (split, parameter init, epoch shuffling) so that any
one can be reproduced in isolation.

Every step runs in two halves: the first ceil(n/2) pixels of its batch
and the rest. Each half's gradient is that of its own mean loss, and the
step's gradient is their mean weighted by size (:func:`_step_gradient`).
Where :func:`hsimvt._blas.may_split` holds, the second half runs on a
*lane*: one child that :func:`train` forks and that lives for the call
(:class:`_Lane`). The lane also scores the first share of each
validation. Elsewhere the caller runs both halves in turn, through the
same code. The whole call holds OpenBLAS at one thread, so the bits
follow neither the CPU count nor the BLAS's own thread count wherever
hsimvt controls it.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import traceback
from dataclasses import dataclass

import numpy as np

from . import _blas
from .data import (SPLIT_FRACTIONS, TRAIN, VAL, LabelMap, PatchSource, SplitAssignment,
                   stratified_split)
from .errors import ConfigError, DimensionError, DivergenceError, UsageError
from .metrics import _SCORING_BATCH, batch_bounds, pool_workers, predict_coords
from .model import ModelConfig, ModelParams, forward
from .tensor import GradGraph, Tensor, record_op

# Adam's moment decay rates and denominator guard (the usual defaults).
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 64
    learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and non-negative "
                              f"(0 freezes parameters), got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    ``labels`` are 1-based class ids; 0 marks unlabeled pixels and is
    rejected. Stabilized with the log-sum-exp shift, so confident correct
    predictions drive the loss to 0 rather than NaN.
    """
    ld = logits.data
    if ld.ndim != 2:
        raise DimensionError(f"logits must be (n, K), got {ld.shape}")
    labels = np.asarray(labels)
    n, k = ld.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels must be ({n},), got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise UsageError(f"labels must be integer class ids, got dtype {labels.dtype}")
    if ((labels < 1) | (labels > k)).any():
        raise UsageError(
            f"labels must be 1..{k} (0 marks unlabeled); got range "
            f"[{labels.min()}, {labels.max()}]")
    idx = labels.astype(np.int64) - 1

    shifted = ld - ld.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    log_norm = np.log(exps.sum(axis=1))
    picked = shifted[np.arange(n), idx]

    def adjoint(go, need):
        g = exps / exps.sum(axis=1, keepdims=True)
        g[np.arange(n), idx] -= 1.0
        return (g * (go / n),)

    return record_op((log_norm - picked).sum() / n, (logits,), adjoint)


class AdamState:
    """First/second moment accumulators, flat like the parameter vector."""

    def __init__(self, values: np.ndarray):
        self.first = np.zeros_like(values)
        self.second = np.zeros_like(values)


def adam_step(values: np.ndarray, grads: np.ndarray, state: AdamState, t: int,
              config: TrainConfig):
    """One bias-corrected Adam update of ``values``, in place. ``t`` counts from 1.

    Adam is elementwise, so one call updates every parameter; an entry whose
    gradient has always been 0 (the global token under its ablation) takes
    a step of exactly 0.
    """
    if t < 1:
        raise UsageError(f"Adam step index must be >= 1, got {t}")
    if grads.shape != values.shape:
        raise DimensionError(f"gradient has shape {grads.shape}, parameters {values.shape}")
    m, v = state.first, state.second
    m *= _BETA1
    m += (1.0 - _BETA1) * grads
    v *= _BETA2
    v += (1.0 - _BETA2) * (grads * grads)
    values -= config.learning_rate * ((m / (1.0 - _BETA1 ** t))
                                      / (np.sqrt(v / (1.0 - _BETA2 ** t)) + _EPSILON))


@dataclass
class TrainResult:
    params: ModelParams          # parameters at the best-validation-OA epoch
    history: list                # per epoch: {"epoch", "train_loss", "val_oa"}
    best_epoch: int
    best_val_oa: float
    split: SplitAssignment


def derive_seeds(master_seed: int):
    """(split_seed, init_seed, shuffle_seed) fanned out from one master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def derive_split(labels: LabelMap, fractions, master_seed: int) -> SplitAssignment:
    """The split that :func:`train` draws for ``master_seed``, seeded by its split stream."""
    return stratified_split(labels, fractions=fractions, seed=derive_seeds(master_seed)[0])


def check_representation(representation: np.ndarray, labels: LabelMap,
                         model_config: ModelConfig):
    """Raise :class:`DimensionError` unless ``representation`` is (H, W, C)
    over the label raster with the model's C input channels."""
    labels.check_raster(representation)
    if representation.shape[2] != model_config.input_channels:
        raise DimensionError(
            f"representation has {representation.shape[2]} channels, model config "
            f"implies {model_config.input_channels}")


def _half_step(params: ModelParams, source: PatchSource, coords: np.ndarray,
               labels: np.ndarray) -> float:
    """The mean loss of one half-batch; its gradient is added into ``params.grads``."""
    with GradGraph() as graph:
        loss = cross_entropy(forward(Tensor(source.gather(coords)), params), labels)
    graph.backward(loss)
    return loss.item()


def _step_gradient(first: np.ndarray, second: np.ndarray, n_first: int, n_second: int):
    """The step's gradient, written into ``first``: the mean, weighted by
    their sizes, of the two halves' gradients of their own mean losses.
    ``second`` is scaled in place."""
    if n_second:
        n = n_first + n_second
        first *= n_first / n
        second *= n_second / n
        first += second


_STEP, _VALIDATE = b"s", b"v"
_COMMAND = struct.Struct("<cq")  # (what, how many pixels); one is in flight at a time


class _Lane:
    """The second half of every step of one :func:`train` call, and the
    first share of every validation, run on a forked child.

    The parameter vector, the lane's gradient and loss, its pixel selection
    and its validation predictions live in one anonymous shared mapping made
    before the fork, so Adam's in-place updates reach the lane without
    copies. The caller writes one command at a time down a pipe and the lane
    answers each with one byte on another. The lane is started by
    :func:`hsimvt._blas.fork`, so its fd 2 carries its error the way a
    scoring worker's does. Where no lane can run, the caller runs the second
    halves itself, after its own, and scores validation whole: the batches
    are the serial loop's either way, so the predictions keep their bits. A
    validation set large enough for the scoring pool
    (:func:`hsimvt.metrics.pool_workers`) goes there whole.
    """

    def __init__(self, initial: ModelParams, source: PatchSource, coords: np.ndarray,
                 labels: np.ndarray, val_coords: np.ndarray, batch_size: int):
        n, dtype = initial.values.size, initial.values.dtype
        forked = _blas.may_split()
        pooled = pool_workers(n, len(val_coords), _SCORING_BATCH) > 1
        self._cut = (batch_bounds(len(val_coords), 2, _SCORING_BATCH)[1]
                     if forked and not pooled else 0)
        self._shared, (values, grads, self._loss, self._sel, self._preds) = _blas.shared_arrays(
            (dtype, n), (dtype, n), (np.float64, 1),
            (np.int64, min(batch_size, len(coords)) // 2), (np.int64, self._cut))
        values[:] = initial.values
        # the caller's half keeps the initial parameters' gradient vector
        self.params = ModelParams.bound_to(initial.config, values, initial.grads)
        self._second = ModelParams.bound_to(initial.config, values, grads)
        del values, grads  # so that close() can unmap once it drops the parameters
        self.source, self.coords, self.labels, self.val_coords = (source, coords, labels,
                                                                   val_coords)
        self._proc = None
        if forked:
            fds = []
            try:
                fds += os.pipe()
                fds += os.pipe()
                commands, self._commands, self._acks, acks = fds
                proc = _blas.fork(functools.partial(
                    self._serve, commands, acks, (self._commands, self._acks)), "training lane")
            except BaseException:
                for fd in fds:
                    os.close(fd)
                self.close()
                raise
            os.close(commands)
            os.close(acks)
            self._proc = proc

    def step(self, sel: np.ndarray) -> float:
        """Run the step over train pixels ``sel`` in two halves, leave its
        gradient in ``params.grads`` and return its loss summed over ``sel``."""
        first, second = sel[:(len(sel) + 1) // 2], sel[(len(sel) + 1) // 2:]
        if len(second):
            self._sel[:len(second)] = second
            self._start(_STEP, len(second))
        loss = _half_step(self.params, self.source, self.coords[first],
                          self.labels[first]) * len(first)
        if len(second):
            self._finish(_STEP, len(second))
            loss += float(self._loss[0]) * len(second)
            _step_gradient(self.params.grads, self._second.grads, len(first), len(second))
        return loss

    def validate(self) -> np.ndarray:
        """Predicted class ids of the validation pixels, in their order."""
        if not self._cut:
            return predict_coords(self.params, self.source, self.val_coords)
        self._start(_VALIDATE, self._cut)
        mine = predict_coords(self.params, self.source, self.val_coords[self._cut:])
        self._finish(_VALIDATE, self._cut)
        return np.concatenate([self._preds, mine])

    def _run(self, what: bytes, count: int):
        """The lane's half of a step over ``self._sel[:count]``, or its
        validation share, the first ``count`` pixels."""
        if what == _STEP:
            sel = self._sel[:count]
            self._second.zero_grads()
            self._loss[0] = _half_step(self._second, self.source, self.coords[sel],
                                       self.labels[sel])
        else:
            self._preds[:] = predict_coords(self._second, self.source,
                                            self.val_coords[:count])

    def _serve(self, commands: int, acks: int, callers: tuple):
        """The forked lane's loop, until the caller's end of ``commands`` closes."""
        for fd in callers:
            os.close(fd)
        while message := os.read(commands, _COMMAND.size):
            self._run(*_COMMAND.unpack(message))
            os.write(acks, b"\0")

    def _start(self, what: bytes, count: int):
        if self._proc is not None:
            try:
                os.write(self._commands, _COMMAND.pack(what, count))
            except BrokenPipeError:
                pass  # the lane has ended; _finish raises its error

    def _finish(self, what: bytes, count: int):
        """Run the command here, or wait until the lane acknowledges it; a
        lane that ends first raises its error, as a scoring worker's does."""
        if self._proc is None:
            self._run(what, count)
        else:
            _blas.wait([self._proc], ack=self._acks)

    def close(self):
        """Stop the lane and unmap the shared memory. No array of the mapping
        may be left outside this object (see :func:`train`)."""
        if self._proc is not None:
            os.close(self._commands)
            os.close(self._acks)
            self._proc.stop()
        self.params = self._second = self._loss = self._sel = self._preds = None
        self._shared.close()


# A diverging run overflows; that is reported once, as DivergenceError,
# instead of as numpy warnings on stderr.
@np.errstate(over="ignore", invalid="ignore")
def train(representation: np.ndarray, labels: LabelMap, model_config: ModelConfig,
          train_config: TrainConfig, fractions=SPLIT_FRACTIONS,
          log=None) -> TrainResult:
    """Train on the preprocessed raster; returns the best-val-OA parameters.

    Every epoch reshuffles the train pixels with its own stream, runs
    batches of ``batch_size``, then scores validation overall accuracy; the
    trained parameters are returned holding the values copied at the epoch
    that scored best (earliest epoch wins ties), or the last epoch's when
    the split has no validation pixel. A representation that is
    not (H, W, C) over the label raster, or whose channel count is not the
    model's, raises :class:`DimensionError`. A non-finite loss or gradient
    raises :class:`DivergenceError` before its epoch is logged. A lane that
    dies raises :class:`WorkerError`, or its own :class:`HsimvtError` type.
    No child process, pipe or shared mapping outlives the call.
    """
    check_representation(representation, labels, model_config)
    _, init_seed, shuffle_seed = derive_seeds(train_config.seed)
    split = derive_split(labels, fractions, train_config.seed)

    train_coords = split.coords(TRAIN)
    val_coords = split.coords(VAL)
    if len(train_coords) == 0:
        raise ConfigError("train split is empty")
    train_labels = labels.ids[train_coords[:, 0], train_coords[:, 1]].astype(np.int64)
    val_labels = labels.ids[val_coords[:, 0], val_coords[:, 1]].astype(np.int64)

    source = PatchSource(representation.astype(np.float32, copy=False),
                         model_config.patch_size)
    with _blas.one_blas_thread():
        lane = _Lane(ModelParams.initialize(model_config, seed=init_seed), source,
                     train_coords, train_labels, val_coords, train_config.batch_size)
        try:
            history, best = _epochs(lane, train_config, shuffle_seed, val_labels, log)
        except BaseException as exc:
            # the frames it unwound may still hold arrays of the shared mapping
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            lane.close()
    best_val_oa, best_epoch, best_values = best
    return TrainResult(params=ModelParams.bound_to(model_config, best_values),
                       history=history, best_epoch=best_epoch, best_val_oa=best_val_oa,
                       split=split)


def _epochs(lane: _Lane, train_config: TrainConfig, shuffle_seed: int,
            val_labels: np.ndarray, log) -> tuple:
    """Run :func:`train`'s epochs; returns its history and (best val OA, its
    epoch, a copy of its parameters)."""
    params = lane.params
    state = AdamState(params.values)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    history = []
    best = None  # (val_oa, epoch, values)
    step = 0
    n_train = len(lane.coords)
    for epoch in range(1, train_config.epochs + 1):
        order = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        for lo in range(0, n_train, train_config.batch_size):
            loss = lane.step(order[lo:lo + train_config.batch_size])
            step += 1
            if not (math.isfinite(loss) and np.isfinite(params.grads).all()):
                bad = "loss" if not math.isfinite(loss) else next(
                    f"gradient of {n}" for n, t in params.named_parameters()
                    if not np.isfinite(t.grad).all())
                raise DivergenceError(f"training diverged at epoch {epoch}, step {step}: "
                                      f"non-finite {bad}")
            adam_step(params.values, params.grads, state, step, train_config)
            params.zero_grads()
            loss_sum += loss

        train_loss = loss_sum / n_train
        if len(val_labels):
            val_oa = float(np.mean(lane.validate() == val_labels))
        else:
            val_oa = 0.0
        history.append({"epoch": epoch, "train_loss": train_loss, "val_oa": val_oa})
        if log is not None:
            log(history[-1])
        if len(val_labels) and (best is None or val_oa > best[0]):
            best = (val_oa, epoch, params.values.copy())

    # with no validation pixel there is nothing to select on: keep the last epoch
    return history, best or (0.0, train_config.epochs, params.values.copy())
