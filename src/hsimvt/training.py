"""Softmax cross-entropy, bias-corrected Adam, and the training loop.

Training runs in float32 on patches gathered on the fly from the
preprocessed representation raster. The master seed fans out to three
independent streams (split, parameter init, epoch shuffling) so that any
one can be reproduced in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TRAIN, VAL, LabelMap, PatchSource, SplitAssignment, stratified_split
from .errors import ConfigError, DimensionError, DivergenceError, UsageError
from .metrics import predict_coords
from .model import ModelConfig, ModelParams, forward
from .tensor import GradGraph, Tensor, record_op


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 64
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be non-negative (0 freezes parameters)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("Adam betas must lie in [0, 1)")


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
    if np.any(labels < 1) or np.any(labels > k):
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

    return record_op(np.asarray((log_norm - picked).mean()), (logits,), adjoint)


class AdamState:
    """First/second moment accumulators, one pair per named parameter."""

    def __init__(self, named_params):
        self.first = {n: np.zeros_like(t.data) for n, t in named_params}
        self.second = {n: np.zeros_like(t.data) for n, t in named_params}


def adam_step(named_params, grads: dict, state: AdamState, t: int, config: TrainConfig):
    """One bias-corrected Adam update, in place. ``t`` counts from 1."""
    if t < 1:
        raise UsageError(f"Adam step index must be >= 1, got {t}")
    b1, b2 = config.beta1, config.beta2
    correct1 = 1.0 - b1 ** t
    correct2 = 1.0 - b2 ** t
    for name, p in named_params:
        g = grads[name]
        if g.shape != p.data.shape:
            raise DimensionError(
                f"gradient for {name!r} has shape {g.shape}, parameter is {p.data.shape}")
        m = state.first[name]
        v = state.second[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        step = (m / correct1) / (np.sqrt(v / correct2) + config.epsilon)
        p.data -= config.learning_rate * step


@dataclass
class TrainResult:
    params: ModelParams          # parameters at the best-validation-OA epoch
    history: list                # per epoch: {"epoch", "train_loss", "val_oa"}
    best_epoch: int
    best_val_oa: float
    split: SplitAssignment
    final_params: ModelParams = field(repr=False, default=None)


def derive_seeds(master_seed: int):
    """(split_seed, init_seed, shuffle_seed) fanned out from one master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


# A diverging run overflows; that is reported once, as DivergenceError,
# instead of as numpy warnings on stderr.
@np.errstate(over="ignore", invalid="ignore")
def train(representation: np.ndarray, labels: LabelMap, model_config: ModelConfig,
          train_config: TrainConfig, split: SplitAssignment = None,
          fractions=(0.05, 0.05, 0.90), log=None) -> TrainResult:
    """Train on the preprocessed raster; returns the best-val-OA parameters.

    Every epoch reshuffles the train pixels with its own stream, runs
    batches of ``batch_size``, then scores validation overall accuracy; the
    returned parameters are a snapshot from the epoch that scored best
    (earliest epoch wins ties). A non-finite loss or gradient raises
    :class:`DivergenceError` before its epoch is logged.
    """
    if representation.ndim != 3:
        raise DimensionError(f"representation must be (H,W,C), got {representation.shape}")
    if representation.shape[2] != model_config.input_channels:
        raise DimensionError(
            f"representation has {representation.shape[2]} channels, model config "
            f"implies {model_config.input_channels}")
    split_seed, init_seed, shuffle_seed = derive_seeds(train_config.seed)
    if split is None:
        split = stratified_split(labels, fractions=fractions, seed=split_seed)

    train_coords = split.coords(TRAIN)
    val_coords = split.coords(VAL)
    if len(train_coords) == 0:
        raise ConfigError("train split is empty")
    train_labels = labels.ids[train_coords[:, 0], train_coords[:, 1]].astype(np.int64)
    val_labels = labels.ids[val_coords[:, 0], val_coords[:, 1]].astype(np.int64)

    source = PatchSource(representation.astype(np.float32, copy=False),
                         model_config.patch_size)
    params = ModelParams.initialize(model_config, seed=init_seed)
    state = AdamState(params.trainable_parameters())
    shuffle_rng = np.random.default_rng(shuffle_seed)

    history = []
    best = None  # (val_oa, epoch, snapshot)
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
            grads = {n: t.grad for n, t in params.trainable_parameters()}
            step += 1
            bad = ["loss"] if not np.isfinite(loss.item()) else [
                f"gradient of {n}" for n, g in grads.items() if not np.isfinite(g).all()]
            if bad:
                raise DivergenceError(f"training diverged at epoch {epoch}, step {step}: "
                                      f"non-finite {bad[0]}")
            adam_step(params.trainable_parameters(), grads, state, step, train_config)
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
            best = (val_oa, epoch, params.copy())

    best_val_oa, best_epoch, best_params = best
    return TrainResult(params=best_params, history=history, best_epoch=best_epoch,
                       best_val_oa=best_val_oa, split=split, final_params=params)
