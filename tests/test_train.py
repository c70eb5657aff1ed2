"""Loss, optimizer, the training loop, metrics, and the rotation audit."""

import json
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import (AdamState, ConfigError, DimensionError, DivergenceError, GradGraph,
                    MetricsReport, ModelConfig, ModelParams, Tensor,
                    TrainConfig, UsageError, adam_step, confusion_matrix,
                    cross_entropy, derive_seeds, evaluate, forward, mmnorm,
                    mpca, predict, report_from_confusion, rotate180, rotation_audit,
                    stratified_split, synth_scene, train, WorkerError)
from hsimvt import _blas, metrics, scoring, training
from hsimvt.data import TEST, TRAIN, VAL, LabelMap, PatchSource
from hsimvt.metrics import predict_coords
from hsimvt.training import derive_split

from oracles import (adam_per_array, adam_trace_scalar, assert_flat_views, confusion_loop,
                     cross_entropy_longdouble)
from test_scoring import (children, kill_a_worker_during, needs_blas_control, open_fds,
                          shared_mappings)

SMALL_MODEL = ModelConfig(patch_size=3, num_views=3, view_components=2,
                          encoder_kernels=4, squeeze_channels=6, token_channels=8,
                          num_heads=2, feature_dim=8, num_classes=3)


def small_scene(noise=0.0, seed=21):
    cube, labels = synth_scene(seed=seed, height=24, width=24, bands=12,
                               num_classes=3, noise_sigma=noise)
    representation, _ = mpca(mmnorm(cube), num_views=3, components=2)
    return representation, labels


# ------------------------------------------------------------- cross entropy

def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((6, 4), dtype=np.float32))
    loss = cross_entropy(logits, np.ones(6, dtype=np.int64))
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-6)


def test_cross_entropy_confident_limit():
    logits = np.zeros((1, 3), dtype=np.float32)
    logits[0, 1] = 1000.0
    loss = cross_entropy(Tensor(logits), [2])
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)
    wrong = cross_entropy(Tensor(logits), [1])
    assert np.isfinite(wrong.item())  # huge but not inf/NaN
    assert wrong.item() == pytest.approx(1000.0, rel=1e-6)


def test_cross_entropy_rejects_unlabeled():
    logits = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(UsageError):
        cross_entropy(logits, [0, 1])
    with pytest.raises(UsageError):
        cross_entropy(logits, [1, 4])
    with pytest.raises(DimensionError):
        cross_entropy(logits, [1, 2, 3])


@pytest.mark.parametrize("labels", [[1.5, 2.0], [1.0, 2.0], [True, True]])
def test_cross_entropy_refuses_labels_that_are_not_integers(labels):
    # 1.5 would otherwise be scored as class 1, and True as class 1
    with pytest.raises(UsageError, match="integer class ids"):
        cross_entropy(Tensor(np.zeros((2, 3), dtype=np.float32)), labels)


def test_cross_entropy_matches_longdouble_oracle():
    rng = np.random.default_rng(22)
    logits = rng.normal(scale=5.0, size=(32, 7))
    labels = rng.integers(1, 8, size=32)
    loss = cross_entropy(Tensor(logits), labels)
    assert loss.item() == pytest.approx(cross_entropy_longdouble(logits, labels),
                                        abs=1e-9)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(23)
    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    labels = np.array([1, 3, 2, 1])
    with GradGraph() as graph:
        loss = cross_entropy(logits, labels)
    graph.backward(loss)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    want = probs.copy()
    want[np.arange(4), labels - 1] -= 1.0
    np.testing.assert_allclose(logits.grad, want / 4.0, atol=1e-12)


# ----------------------------------------------------------------------- adam

def test_adam_first_step_is_signed_lr():
    config = TrainConfig(epochs=1, learning_rate=1e-3)
    x = np.array([2.0, -3.0, 0.5])
    adam_step(x, np.array([0.4, -0.2, 1e-12]), AdamState(x), t=1, config=config)
    # first bias-corrected step is g/(|g| + eps) ~= sign(g) for |g| >> eps
    np.testing.assert_allclose(x[:2], [2.0 - 1e-3, -3.0 + 1e-3], atol=1e-9)
    assert abs(x[2] - 0.5) < 1e-3  # tiny gradient, eps-damped step


def test_adam_zero_gradient_is_identity():
    config = TrainConfig(epochs=1)
    x = np.array([1.0, 2.0])
    state = AdamState(x)
    for step in range(1, 6):
        adam_step(x, np.zeros(2), state, t=step, config=config)
    np.testing.assert_array_equal(x, [1.0, 2.0])


def test_adam_matches_scalar_trace_on_quadratic():
    lr = 0.1
    config = TrainConfig(epochs=1, learning_rate=lr)
    x = np.array(1.0)
    state = AdamState(x)
    visited = []
    for step in range(1, 11):
        grad = 2.0 * float(x)  # d/dx x^2
        adam_step(x, np.array(grad), state, t=step, config=config)
        visited.append(float(x))
    want = adam_trace_scalar(lambda x: 2.0 * x, 1.0, steps=10, lr=lr)
    np.testing.assert_allclose(visited, want, atol=1e-12)


def test_adam_step_contract_errors():
    config = TrainConfig(epochs=1)
    x = np.array([1.0])
    state = AdamState(x)
    with pytest.raises(UsageError):
        adam_step(x, np.zeros(1), state, t=0, config=config)
    with pytest.raises(DimensionError):
        adam_step(x, np.zeros(3), state, t=1, config=config)


def test_flat_adam_matches_per_array_loop_bit_for_bit():
    """One whole-vector update equals one update per named array, over 5
    steps of the default model's 12 float32 arrays."""
    config = TrainConfig(learning_rate=1e-3)
    params = ModelParams.initialize(ModelConfig(), seed=3)
    arrays = {n: t.data.copy() for n, t in params.named_parameters()}
    first = {n: np.zeros_like(a) for n, a in arrays.items()}
    second = {n: np.zeros_like(a) for n, a in arrays.items()}
    state = AdamState(params.values)
    rng = np.random.default_rng(33)
    for step in range(1, 6):
        params.grads[...] = rng.normal(scale=1e-2, size=params.grads.size)
        grads = {n: t.grad.copy() for n, t in params.named_parameters()}
        adam_step(params.values, params.grads, state, step, config)
        adam_per_array(arrays, grads, first, second, step, config.learning_rate,
                       0.9, 0.999, 1e-8)
    assert len(arrays) == 12
    for name, t in params.named_parameters():
        assert t.data.tobytes() == arrays[name].tobytes(), name


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1e-4)
    TrainConfig(learning_rate=0.0)  # explicitly allowed: freezes parameters


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_a_non_finite_learning_rate(lr):
    with pytest.raises(ConfigError, match="learning_rate must be finite"):
        TrainConfig(learning_rate=lr)


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        TrainConfig(seed=-1)
    TrainConfig(seed=0)


def test_derive_seeds_distinct_and_stable():
    a = derive_seeds(0)
    assert a == derive_seeds(0)
    assert len(set(a)) == 3
    assert a != derive_seeds(1)


# ------------------------------------------------------------- training loop

def test_default_train_step_tape_length():
    """One closure per layer: SED 6 (3 convs, 3 relus; 2 under its
    ablation), quadrant pooling 1 (one box_mean for all four quadrants),
    the global-token row 1 (a constant zero row under its ablation),
    attention with its residual 1, feature and classifier 2 (the affines),
    loss 1. The default model and the two model ablations in turn."""
    batch = Tensor(np.random.default_rng(24).normal(size=(4, 5, 5, 30)).astype(np.float32))
    for overrides, closures in [({}, 12), ({"use_global_token": False}, 12),
                                ({"use_sed": False}, 8)]:
        params = ModelParams.initialize(ModelConfig(**overrides), seed=0)
        with GradGraph() as graph:
            loss = cross_entropy(forward(batch, params), np.arange(1, 5))
        assert len(graph) == closures, overrides
        graph.backward(loss)
        assert all(np.any(t.grad != 0) for _, t in params.trainable_parameters()), overrides


def test_train_lr_zero_freezes_parameters():
    representation, labels = small_scene()
    config = TrainConfig(epochs=3, batch_size=32, learning_rate=0.0, seed=4)
    result = train(representation, labels, SMALL_MODEL, config)
    _, init_seed, _ = derive_seeds(config.seed)
    untouched = ModelParams.initialize(SMALL_MODEL, seed=init_seed)
    for (_, got), (_, want) in zip(result.params.named_parameters(),
                                   untouched.named_parameters()):
        np.testing.assert_array_equal(got.data, want.data)
    oas = [h["val_oa"] for h in result.history]
    assert len(set(oas)) == 1  # flat validation accuracy


def test_train_without_global_token_leaves_it_bit_equal():
    """Under the ablation the token's gradient stays 0, so its Adam step is 0."""
    representation, labels = small_scene(noise=0.05)
    model_config = ModelConfig(**{**SMALL_MODEL.to_json_dict(), "use_global_token": False})
    config = TrainConfig(epochs=2, batch_size=32, learning_rate=1e-2, seed=7)
    final = train(representation, labels, model_config, config).params
    untouched = ModelParams.initialize(model_config, seed=derive_seeds(config.seed)[1])
    assert final["global_token"].data.tobytes() == untouched["global_token"].data.tobytes()
    assert not np.array_equal(final["feature.weight"].data, untouched["feature.weight"].data)


def test_parameters_stay_views_of_the_flat_vectors_through_training():
    representation, labels = small_scene()
    result = train(representation, labels, SMALL_MODEL,
                   TrainConfig(epochs=1, batch_size=32, seed=8))
    assert_flat_views(result.params)
    params = ModelParams.initialize(ModelConfig(), seed=0)
    batch = Tensor(np.random.default_rng(25).normal(size=(2, 5, 5, 30)).astype(np.float32))
    with GradGraph() as graph:
        loss = cross_entropy(forward(batch, params), np.array([1, 2]))
    graph.backward(loss)
    assert_flat_views(params)
    assert params.grads.any()
    adam_step(params.values, params.grads, AdamState(params.values), 1, TrainConfig())
    assert_flat_views(params)
    params.zero_grads()
    assert_flat_views(params)
    assert not params.grads.any()


def test_train_same_seed_bit_identical():
    representation, labels = small_scene(noise=0.05)
    config = TrainConfig(epochs=3, batch_size=32, seed=5)
    first = train(representation, labels, SMALL_MODEL, config)
    second = train(representation, labels, SMALL_MODEL, config)
    assert json.dumps(first.history) == json.dumps(second.history)
    for (_, a), (_, b) in zip(first.params.named_parameters(),
                              second.params.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_train_rejects_bad_inputs():
    representation, labels = small_scene()
    config = TrainConfig(epochs=1, seed=0)
    with pytest.raises(DimensionError):
        train(representation[:, :, :4], labels, SMALL_MODEL, config)
    with pytest.raises(DimensionError):
        train(representation[0], labels, SMALL_MODEL, config)
    for other in (representation[:20], representation[:, 1:],
                  np.tile(representation, (2, 1, 1))):
        with pytest.raises(DimensionError, match="24x24 label raster"):
            train(other, labels, SMALL_MODEL, config)
    no_classes = LabelMap(ids=np.zeros(labels.shape, dtype=np.int64), num_classes=0)
    with pytest.raises(ConfigError, match="train split is empty"):
        train(representation, no_classes, SMALL_MODEL, config)


def test_train_solves_noiseless_scene():
    """Noiseless classes have disjoint spectra, so validation OA must hit 1.0
    within 20 epochs."""
    cube, labels = synth_scene(seed=30, height=64, width=64, bands=40,
                               num_classes=3, noise_sigma=0.0)
    representation, _ = mpca(mmnorm(cube), num_views=10, components=3)
    model_config = ModelConfig(num_classes=3)
    result = train(representation, labels, model_config,
                   TrainConfig(epochs=20, seed=1, learning_rate=1e-3))
    assert result.best_val_oa == 1.0
    assert result.best_epoch <= 20
    assert all(np.isfinite([h["train_loss"] for h in result.history]))


def test_train_loss_smoothed_monotone_on_noiseless_scene():
    representation, labels = small_scene(noise=0.0, seed=31)
    result = train(representation, labels, SMALL_MODEL,
                   TrainConfig(epochs=25, batch_size=32, seed=2))
    losses = [h["train_loss"] for h in result.history]
    smoothed = [np.mean(losses[i:i + 10]) for i in range(5, len(losses) - 9)]
    assert all(b <= a + 1e-9 for a, b in zip(smoothed, smoothed[1:]))


def test_train_best_checkpoint_is_earliest_tie():
    representation, labels = small_scene()
    config = TrainConfig(epochs=4, batch_size=32, learning_rate=0.0, seed=6)
    result = train(representation, labels, SMALL_MODEL, config)
    # frozen parameters score identically every epoch; the first must win
    assert result.best_epoch == 1


def test_train_returns_the_best_epochs_parameters_not_the_last():
    cube, labels = synth_scene(seed=3, height=40, width=36, bands=40, num_classes=4,
                               noise_sigma=0.3)
    representation, _ = mpca(mmnorm(cube), num_views=10, components=3)
    config = TrainConfig(epochs=12, batch_size=32, learning_rate=3e-2, seed=2)
    result = train(representation, labels, ModelConfig(num_classes=4), config)
    assert result.best_epoch < config.epochs
    assert result.history[-1]["val_oa"] < result.best_val_oa
    source = PatchSource(representation.astype(np.float32), result.params.config.patch_size)
    val_coords = result.split.coords(VAL)
    predicted = predict_coords(result.params, source, val_coords)
    assert np.mean(predicted == labels.ids[val_coords[:, 0], val_coords[:, 1]]) \
        == result.best_val_oa


def test_train_without_validation_pixels_keeps_the_last_epoch():
    representation, labels = small_scene()
    fractions = (0.5, 0.0, 0.5)
    three, one = (train(representation, labels, SMALL_MODEL,
                        TrainConfig(epochs=epochs, batch_size=32, seed=6), fractions)
                  for epochs in (3, 1))
    assert len(three.split.coords(VAL)) == 0
    assert (three.best_epoch, three.best_val_oa) == (3, 0.0)
    assert one.best_epoch == 1
    assert not np.array_equal(three.params.values, one.params.values)


# ------------------------------------------------------------ the train lane

def scene_with_a_63_px_last_batch():
    """A default-model scene whose 127 train pixels end each epoch with a
    batch of 63, a size at which conv2d's kernel-gradient product follows
    the BLAS thread count on this host's OpenBLAS; 320 validation pixels
    give validation two shares of whole scoring batches."""
    cube, labels = synth_scene(seed=21, height=40, width=40, bands=40, num_classes=3,
                               noise_sigma=0.05)
    representation, _ = mpca(mmnorm(cube), num_views=10, components=3)
    return representation, labels, ModelConfig(num_classes=3), (0.079, 0.2, 0.721)


LANE_RUNS = {
    "toy": lambda: (*small_scene(noise=0.05), SMALL_MODEL, (0.3, 0.5, 0.2)),
    "default": scene_with_a_63_px_last_batch,
}


def lane_run(monkeypatch, which, forked, epochs=2, learning_rate=1e-3):
    """Train ``which`` of LANE_RUNS with a lane forced on or off; returns
    the result and the names of the children it forked."""
    representation, labels, model_config, fractions = LANE_RUNS[which]()
    forks = []
    fork = scoring._fork
    monkeypatch.setattr(scoring, "_fork", lambda job, name: forks.append(name) or fork(job, name))
    monkeypatch.setattr(_blas, "may_split", lambda: forked)
    config = TrainConfig(epochs=epochs, batch_size=64, learning_rate=learning_rate, seed=5)
    return train(representation, labels, model_config, config, fractions), forks


def test_the_step_gradient_is_the_whole_batch_gradient():
    """The halves' size-weighted mean is the gradient of the batch's mean
    loss, up to float32 rounding; so is the loss summed over the halves."""
    rng = np.random.default_rng(26)
    batch = rng.normal(size=(63, 5, 5, 30)).astype(np.float32)
    labels = rng.integers(1, 4, size=63)
    config = ModelConfig(num_classes=3)
    whole, first, second = (ModelParams.initialize(config, seed=0) for _ in range(3))
    source = PatchSource(batch.reshape(63 * 5, 5, 30), 5)  # one patch per 5x5 tile
    coords = np.stack([np.arange(63) * 5 + 2, np.full(63, 2)], axis=1)
    np.testing.assert_array_equal(source.gather(coords), batch)
    loss = training._half_step(whole, source, coords, labels)
    halves = (training._half_step(first, source, coords[:32], labels[:32]) * 32
              + training._half_step(second, source, coords[32:], labels[32:]) * 31)
    training._step_gradient(first.grads, second.grads, 32, 31)
    assert halves / 63 == pytest.approx(loss, rel=1e-6)
    np.testing.assert_allclose(first.grads, whole.grads, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("forked", [True, False])
def test_each_step_is_the_halves_weighted_mean_then_adam(monkeypatch, forked):
    """Three one-step epochs replayed by hand: the first ceil(n/2) shuffled
    pixels and the rest, their gradients merged by size, then Adam. A lane
    that read stale parameters or the wrong pixels would part ways."""
    representation, labels = small_scene(noise=0.05)
    config = TrainConfig(epochs=3, batch_size=1000, learning_rate=1e-2, seed=9)
    monkeypatch.setattr(_blas, "may_split", lambda: forked)
    result = train(representation, labels, SMALL_MODEL, config, (0.2, 0.0, 0.8))

    _, init_seed, shuffle_seed = derive_seeds(config.seed)
    coords = result.split.coords(TRAIN)
    ids = labels.ids[coords[:, 0], coords[:, 1]].astype(np.int64)
    source = PatchSource(representation.astype(np.float32), SMALL_MODEL.patch_size)
    params = ModelParams.initialize(SMALL_MODEL, seed=init_seed)
    state, rng, losses = AdamState(params.values), np.random.default_rng(shuffle_seed), []
    with _blas.one_blas_thread():
        for t in range(1, config.epochs + 1):
            order = rng.permutation(len(coords))
            first, second = order[:(len(order) + 1) // 2], order[(len(order) + 1) // 2:]
            other = ModelParams.bound_to(SMALL_MODEL, params.values)
            loss = (training._half_step(params, source, coords[first], ids[first]) * len(first)
                    + training._half_step(other, source, coords[second], ids[second])
                    * len(second))
            training._step_gradient(params.grads, other.grads, len(first), len(second))
            adam_step(params.values, params.grads, state, t, config)
            params.zero_grads()
            losses.append(loss / len(coords))
    assert len(second) and result.best_epoch == config.epochs
    assert [h["train_loss"] for h in result.history] == losses
    assert result.params.values.tobytes() == params.values.tobytes()


def test_the_lane_scene_ends_its_epochs_with_63_px():
    representation, labels, _, fractions = scene_with_a_63_px_last_batch()
    counts = derive_split(labels, fractions, 5).counts()
    assert counts["train"] % 64 == 63 and counts["val"] > metrics._SCORING_BATCH


@pytest.mark.parametrize("which", sorted(LANE_RUNS))
def test_the_lane_and_both_halves_in_turn_give_the_same_bits(monkeypatch, which):
    fds, mappings = open_fds(), shared_mappings()
    (lane, forks), (in_turn, none) = (lane_run(monkeypatch, which, forked)
                                      for forked in (True, False))
    assert (forks, none) == (["training lane"], [])
    assert json.dumps(lane.history) == json.dumps(in_turn.history)
    assert lane.params.values.tobytes() == in_turn.params.values.tobytes()
    assert lane.best_epoch == in_turn.best_epoch
    # nothing outlives train, and its parameters own ordinary memory
    assert children() == set()
    assert open_fds() == fds
    assert shared_mappings() == mappings
    assert lane.params.values.base is None
    assert_flat_views(lane.params)


@needs_blas_control
def test_train_bits_do_not_follow_the_blas_thread_count():
    """When train ran at the BLAS's own thread count, this scene's
    parameters differed between 1 and 2 threads: the 63-px batch's conv2d
    kernel gradient took other bits at two."""
    representation, labels, model_config, fractions = scene_with_a_63_px_last_batch()
    config = TrainConfig(epochs=2, batch_size=64, learning_rate=1e-3, seed=5)
    get, set_ = _blas._control()
    previous = get()
    try:
        set_(2)  # set here, so that a runner with one CPU cannot pass trivially
        assert _blas.blas_threads() == 2
        two = train(representation, labels, model_config, config, fractions)
        assert _blas.blas_threads() == 2  # restored after the call
        with _blas.one_blas_thread():
            one = train(representation, labels, model_config, config, fractions)
    finally:
        set_(previous)
    assert json.dumps(two.history) == json.dumps(one.history)
    assert two.params.values.tobytes() == one.params.values.tobytes()


@pytest.mark.parametrize("forked", [True, False])
def test_each_half_records_the_default_tape(monkeypatch, forked):
    """Every backward, in the caller and in the lane, replays 12 closures;
    a lane's would raise its UsageError here."""
    lengths = []
    backward = GradGraph.backward

    def checked(graph, loss):
        if len(graph) != 12:
            raise UsageError(f"a half-step recorded {len(graph)} closures")
        lengths.append(len(graph))
        return backward(graph, loss)

    monkeypatch.setattr(GradGraph, "backward", checked)
    lane_run(monkeypatch, "default", forked, epochs=1)
    assert lengths == [12] * (2 if forked else 4)  # 2 steps of 64 and 63 px


def test_a_diverging_run_leaves_nothing_behind(monkeypatch):
    fds, mappings = open_fds(), shared_mappings()
    with pytest.raises(DivergenceError, match="non-finite"):
        lane_run(monkeypatch, "toy", True, learning_rate=1e30)
    assert children() == set()
    assert open_fds() == fds
    assert shared_mappings() == mappings


@pytest.mark.parametrize("when", ["mid-run", "before its first command"])
def test_a_killed_lane_raises_worker_error_and_leaves_nothing_behind(monkeypatch, when):
    fds, mappings = open_fds(), shared_mappings()
    if when == "mid-run":
        outcome, _ = kill_a_worker_during(
            lambda: lane_run(monkeypatch, "default", True, epochs=50))
    else:  # the first command then meets a pipe with no reader
        fork = scoring._fork

        def dead_on_arrival(job, name):
            proc = fork(job, name)
            os.kill(proc.pid, signal.SIGKILL)
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
            return proc

        monkeypatch.setattr(scoring, "_fork", dead_on_arrival)
        monkeypatch.setattr(_blas, "may_split", lambda: True)
        representation, labels = small_scene()
        with pytest.raises(WorkerError) as raised:
            train(representation, labels, SMALL_MODEL, TrainConfig(epochs=1, seed=5))
        outcome = {"error": raised.value}
    assert isinstance(outcome.get("error"), WorkerError), outcome
    assert "training lane was killed by signal 9" in str(outcome["error"])
    assert children() == set()
    assert open_fds() == fds
    assert shared_mappings() == mappings


# -------------------------------------------------------------------- metrics

def test_confusion_matrix_and_report_hand_arithmetic():
    # class 1: 9/10 right; class 2: 1/10 right, equal counts
    true_ids = [1] * 10 + [2] * 10
    pred = [1] * 9 + [2] + [2] + [1] * 9
    report = report_from_confusion(confusion_matrix(true_ids, pred, 2))
    assert report.oa == pytest.approx(0.5)
    assert report.aa == pytest.approx(0.5)
    # same recalls, counts 90/10
    true_ids = [1] * 90 + [2] * 10
    pred = [1] * 81 + [2] * 9 + [2] + [1] * 9
    report = report_from_confusion(confusion_matrix(true_ids, pred, 2))
    assert report.oa == pytest.approx(0.82)
    assert report.aa == pytest.approx(0.5)
    assert report.counts == [90, 10]


def test_all_correct_is_perfect():
    report = report_from_confusion(confusion_matrix([1, 2, 3], [1, 2, 3], 3))
    assert report.oa == 1.0 and report.aa == 1.0
    assert report.per_class == [1.0, 1.0, 1.0]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(1, 80), st.integers(0, 2 ** 31 - 1))
def test_confusion_matches_loop_oracle(num_classes, n, seed):
    rng = np.random.default_rng(seed)
    true_ids = rng.integers(1, num_classes + 1, size=n)
    pred = rng.integers(1, num_classes + 1, size=n)
    got = confusion_matrix(true_ids, pred, num_classes)
    np.testing.assert_array_equal(got, confusion_loop(true_ids, pred, num_classes))
    assert got.sum() == n


def test_confusion_rejects_out_of_range():
    with pytest.raises(UsageError):
        confusion_matrix([0, 1], [1, 1], 2)
    with pytest.raises(UsageError):
        confusion_matrix([1, 1], [1, 3], 2)
    with pytest.raises(UsageError):
        report_from_confusion(np.zeros((2, 2), dtype=np.int64))


@pytest.mark.parametrize("true_ids,pred", [([1.7, 2], [1, 2]), ([1, 2], [1.0, 2.0]),
                                           ([True, True], [1, 2])])
def test_confusion_refuses_ids_that_are_not_integers(true_ids, pred):
    # 1.7 would otherwise be counted as class 1
    with pytest.raises(UsageError, match="integer class ids"):
        confusion_matrix(true_ids, pred, 2)


def test_confusion_takes_narrow_integer_ids_without_overflow():
    true_ids = np.full(3, 200, dtype=np.uint8)
    got = confusion_matrix(true_ids, true_ids, 200)
    assert got[199, 199] == 3 and got.sum() == 3


def test_aa_skips_absent_classes():
    confusion = np.array([[4, 0, 0], [0, 0, 0], [1, 0, 1]], dtype=np.int64)
    report = report_from_confusion(confusion)
    assert report.per_class == [1.0, None, 0.5]
    assert report.aa == pytest.approx(0.75)
    assert report.oa == pytest.approx(5 / 6)


def _json(report):
    """A report as ``hsimvt eval`` and ``audit`` print it."""
    return json.dumps(report.to_json_dict(), sort_keys=True)


def test_metrics_json_is_sorted_and_stable():
    report = report_from_confusion(confusion_matrix([1, 2], [1, 2], 2))
    doc = json.loads(_json(report))
    assert list(json.loads(_json(report))) == sorted(doc)
    assert _json(report) == _json(report)


# ------------------------------------------------- evaluation and the audit

@pytest.fixture(scope="module")
def trained():
    representation, labels = small_scene(noise=0.05, seed=33)
    config = TrainConfig(epochs=8, batch_size=32, learning_rate=1e-3, seed=7)
    result = train(representation, labels, SMALL_MODEL, config)
    source = PatchSource(representation, SMALL_MODEL.patch_size)
    coords = result.split.coords(TEST)
    true_ids = labels.ids[coords[:, 0], coords[:, 1]]
    return result, source, coords, true_ids


def test_evaluate_is_pure(trained):
    result, source, coords, true_ids = trained
    a = evaluate(result.params, source, coords, true_ids)
    b = evaluate(result.params, source, coords, true_ids)
    assert _json(a) == _json(b)
    assert a.confusion.sum() == len(coords)


def test_evaluate_batch_size_is_cosmetic(trained, monkeypatch):
    result, source, coords, true_ids = trained
    monkeypatch.setattr(metrics, "_SCORING_BATCH", 7)
    a = evaluate(result.params, source, coords, true_ids)
    monkeypatch.setattr(metrics, "_SCORING_BATCH", 512)
    b = evaluate(result.params, source, coords, true_ids)
    assert _json(a) == _json(b)


@pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64, np.uint64])
def test_rotation_audit_takes_every_integer_coordinate_type(trained, dtype):
    result, source, coords, true_ids = trained
    audit = rotation_audit(result.params, source, coords.astype(dtype), true_ids)
    assert _json(audit.raw) == _json(evaluate(result.params, source, coords, true_ids))
    assert audit.raw.counts == audit.rotated.counts


def test_rotation_audit_pairs_identical_pixels(trained):
    result, source, coords, true_ids = trained
    audit = rotation_audit(result.params, source, coords, true_ids)
    assert audit.raw.counts == audit.rotated.counts
    assert audit.delta_oa == pytest.approx(audit.rotated.oa - audit.raw.oa)
    doc = json.loads(_json(audit))
    assert set(doc) == {"raw", "rotated", "delta_oa", "delta_aa"}
    # rotated evaluation really rotates: predictions come from rotated patches,
    # scored in the audit's batches
    patches = rotate180(source.gather(coords))
    batch = metrics._SCORING_BATCH
    rotated_pred = np.concatenate([
        predict(forward(Tensor(patches[lo:lo + batch]), result.params).data)
        for lo in range(0, len(coords), batch)])
    want = confusion_matrix(true_ids, rotated_pred, SMALL_MODEL.num_classes)
    np.testing.assert_array_equal(audit.rotated.confusion, want)
