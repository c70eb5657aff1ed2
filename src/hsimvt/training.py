"""Softmax cross-entropy, bias-corrected Adam, and the training loop.

Training runs in float32 on patches gathered on the fly from the
preprocessed representation raster. The master seed fans out to three
independent streams (split, parameter init, epoch shuffling) so that any
one can be reproduced in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (SPLIT_FRACTIONS, TRAIN, VAL, LabelMap, PatchSource, SplitAssignment,
                   stratified_split)
from .errors import ConfigError, DimensionError, DivergenceError, UsageError
from .metrics import predict_coords
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
    that scored best (earliest epoch wins ties). A representation that is
    not (H, W, C) over the label raster, or whose channel count is not the
    model's, raises :class:`DimensionError`. A non-finite loss or gradient
    raises :class:`DivergenceError` before its epoch is logged.
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
    params = ModelParams.initialize(model_config, seed=init_seed)
    state = AdamState(params.values)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    history = []
    best = None  # (val_oa, epoch, values)
    step = 0
    n_train = len(train_coords)
    for epoch in range(1, train_config.epochs + 1):
        order = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        for lo in range(0, n_train, train_config.batch_size):
            sel = order[lo:lo + train_config.batch_size]
            batch = Tensor(source.gather(train_coords[sel]))
            with GradGraph() as graph:
                logits = forward(batch, params)
                loss = cross_entropy(logits, train_labels[sel])
            graph.backward(loss)
            step += 1
            if not (np.isfinite(loss.item()) and np.isfinite(params.grads).all()):
                bad = "loss" if not np.isfinite(loss.item()) else next(
                    f"gradient of {n}" for n, t in params.named_parameters()
                    if not np.isfinite(t.grad).all())
                raise DivergenceError(f"training diverged at epoch {epoch}, step {step}: "
                                      f"non-finite {bad}")
            adam_step(params.values, params.grads, state, step, train_config)
            params.zero_grads()
            loss_sum += loss.item() * len(sel)

        train_loss = loss_sum / n_train
        if len(val_coords):
            val_pred = predict_coords(params, source, val_coords)
            val_oa = float(np.mean(val_pred == val_labels))
        else:
            val_oa = 0.0
        history.append({"epoch": epoch, "train_loss": train_loss, "val_oa": val_oa})
        if log is not None:
            log(history[-1])
        if best is None or val_oa > best[0]:
            best = (val_oa, epoch, params.values.copy())

    best_val_oa, best_epoch, best_values = best
    params.values[...] = best_values
    return TrainResult(params=params, history=history, best_epoch=best_epoch,
                       best_val_oa=best_val_oa, split=split)
