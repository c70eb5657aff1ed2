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
                    mpca, report_from_confusion, rotation_audit,
                    stratified_split, synth_scene, train)
from hsimvt.data import TEST, PatchSource, SplitAssignment
from hsimvt.metrics import predict_coords

from oracles import adam_trace_scalar, confusion_loop, cross_entropy_longdouble

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

def _single_param(value):
    t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    return [("x", t)], t


def test_adam_first_step_is_signed_lr():
    config = TrainConfig(epochs=1, learning_rate=1e-3)
    named, t = _single_param([2.0, -3.0, 0.5])
    state = AdamState(named)
    adam_step(named, {"x": np.array([0.4, -0.2, 1e-12])}, state, t=1, config=config)
    # first bias-corrected step is g/(|g| + eps) ~= sign(g) for |g| >> eps
    np.testing.assert_allclose(t.data[:2], [2.0 - 1e-3, -3.0 + 1e-3], atol=1e-9)
    assert abs(t.data[2] - 0.5) < 1e-3  # tiny gradient, eps-damped step


def test_adam_zero_gradient_is_identity():
    config = TrainConfig(epochs=1)
    named, t = _single_param([1.0, 2.0])
    state = AdamState(named)
    for step in range(1, 6):
        adam_step(named, {"x": np.zeros(2)}, state, t=step, config=config)
    np.testing.assert_array_equal(t.data, [1.0, 2.0])


def test_adam_matches_scalar_trace_on_quadratic():
    lr = 0.1
    config = TrainConfig(epochs=1, learning_rate=lr)
    named, t = _single_param(1.0)
    state = AdamState(named)
    visited = []
    for step in range(1, 11):
        grad = 2.0 * float(t.data)  # d/dx x^2
        adam_step(named, {"x": np.array(grad)}, state, t=step, config=config)
        visited.append(float(t.data))
    want = adam_trace_scalar(lambda x: 2.0 * x, 1.0, steps=10, lr=lr)
    np.testing.assert_allclose(visited, want, atol=1e-12)


def test_adam_step_contract_errors():
    config = TrainConfig(epochs=1)
    named, _ = _single_param([1.0])
    state = AdamState(named)
    with pytest.raises(UsageError):
        adam_step(named, {"x": np.zeros(1)}, state, t=0, config=config)
    with pytest.raises(DimensionError):
        adam_step(named, {"x": np.zeros(3)}, state, t=1, config=config)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1e-4)
    with pytest.raises(ConfigError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(epsilon=0.0)
    TrainConfig(learning_rate=0.0)  # explicitly allowed: freezes parameters


def test_derive_seeds_distinct_and_stable():
    a = derive_seeds(0)
    assert a == derive_seeds(0)
    assert len(set(a)) == 3
    assert a != derive_seeds(1)


# ------------------------------------------------------------- training loop

def test_default_train_step_tape_length():
    """SED 6 closures (3 convs, 3 relus), quadrant pooling 1 (one box_mean
    for all four quadrants), token assembly 2 (global-token tile, concat),
    attention and its residual 2, feature and classifier 3 (flattening
    reshape, 2 affines), loss 1."""
    params = ModelParams.initialize(ModelConfig(), seed=0)
    batch = Tensor(np.random.default_rng(24).normal(size=(4, 5, 5, 30)).astype(np.float32))
    with GradGraph() as graph:
        loss = cross_entropy(forward(batch, params), np.arange(1, 5))
    assert len(graph) == 15
    graph.backward(loss)
    assert all(t.grad is not None for _, t in params.trainable_parameters())


def test_train_lr_zero_freezes_parameters():
    representation, labels = small_scene()
    config = TrainConfig(epochs=3, batch_size=32, learning_rate=0.0, seed=4)
    result = train(representation, labels, SMALL_MODEL, config)
    _, init_seed, _ = derive_seeds(config.seed)
    untouched = ModelParams.initialize(SMALL_MODEL, seed=init_seed)
    for (_, got), (_, want) in zip(result.final_params.named_parameters(),
                                   untouched.named_parameters()):
        np.testing.assert_array_equal(got.data, want.data)
    oas = [h["val_oa"] for h in result.history]
    assert len(set(oas)) == 1  # flat validation accuracy


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
    empty = SplitAssignment(assignment=np.zeros(labels.shape, dtype=np.int8), seed=0)
    with pytest.raises(ConfigError, match="train split is empty"):
        train(representation, labels, SMALL_MODEL, config, split=empty)


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


def test_aa_skips_absent_classes():
    confusion = np.array([[4, 0, 0], [0, 0, 0], [1, 0, 1]], dtype=np.int64)
    report = report_from_confusion(confusion)
    assert report.per_class == [1.0, None, 0.5]
    assert report.aa == pytest.approx(0.75)
    assert report.oa == pytest.approx(5 / 6)


def test_metrics_json_is_sorted_and_stable():
    report = report_from_confusion(confusion_matrix([1, 2], [1, 2], 2))
    doc = json.loads(report.to_json())
    assert list(json.loads(report.to_json())) == sorted(doc)
    assert report.to_json() == report.to_json()


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
    assert a.to_json() == b.to_json()
    assert a.confusion.sum() == len(coords)


def test_evaluate_batch_size_is_cosmetic(trained):
    result, source, coords, true_ids = trained
    a = evaluate(result.params, source, coords, true_ids, batch_size=7)
    b = evaluate(result.params, source, coords, true_ids, batch_size=512)
    assert a.to_json() == b.to_json()


def test_rotation_audit_pairs_identical_pixels(trained):
    result, source, coords, true_ids = trained
    audit = rotation_audit(result.params, source, coords, true_ids)
    assert audit.raw.counts == audit.rotated.counts
    assert audit.delta_oa == pytest.approx(audit.rotated.oa - audit.raw.oa)
    doc = json.loads(audit.to_json())
    assert set(doc) == {"raw", "rotated", "delta_oa", "delta_aa"}
    # rotated evaluation really rotates: predictions come from rotated patches
    rotated_pred = predict_coords(result.params, source, coords, rotate=True)
    want = confusion_matrix(true_ids, rotated_pred, SMALL_MODEL.num_classes)
    np.testing.assert_array_equal(audit.rotated.confusion, want)
