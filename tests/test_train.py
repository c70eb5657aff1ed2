"""Loss, optimizer, the training loop, metrics, and the rotation audit."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import (AdamState, ConfigError, DimensionError, GradGraph,
                    MetricsReport, ModelConfig, ModelParams, Tensor,
                    TrainConfig, UsageError, adam_step, confusion_matrix,
                    cross_entropy, derive_seeds, evaluate, forward, mmnorm,
                    mpca, predict, report_from_confusion, rotate180, rotation_audit,
                    stratified_split, synth_scene, train)
from hsimvt import metrics
from hsimvt.data import TEST, VAL, LabelMap, PatchSource
from hsimvt.metrics import predict_coords

from oracles import (adam_per_array, adam_trace_scalar, assert_flat_views, confusion_loop,
                     cross_entropy_longdouble)

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
