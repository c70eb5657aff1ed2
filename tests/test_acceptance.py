"""The ten acceptance gates, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` for one PASS/FAIL line per
criterion. Each test prints a ``[criterion NN]`` line with the measured
values (visible with ``-s`` or on failure). Criteria 5-7 share one set of
trained artifacts built by a module fixture; criterion 10 rebuilds the
identical artifacts from scratch and demands a byte-identical canonical
JSON document.

Criterion 8 needs user-supplied HSZ conversions of the Indian Pines
dataset; point HSIMVT_DATASETS at a directory containing
``indian_pines_cube.hsz`` and ``indian_pines_labels.hsz`` to enable it.
"""

import json
import os
import time

import numpy as np
import pytest

from hsimvt import (HsiCube, ModelConfig, ModelParams, Tensor, TrainConfig,
                    build_views, check_gradients, cross_entropy, evaluate, fit_pca,
                    forward, load_cube, load_labels, mmnorm, mpca, rotate180,
                    rotation_audit, synth_scene, tokenize, train,
                    transform_view, view_spec)
from hsimvt.data import TEST, PatchSource

from oracles import pca_project_oracle

# Toy architecture pinned by criterion 1: P=3, 4 views x 2 components,
# 8 token channels, 2 heads, 3 classes. Kernel/feature counts are free and
# chosen small so the finite-difference sweep touches every scalar quickly.
TOY = ModelConfig(patch_size=3, num_views=4, view_components=2,
                  encoder_kernels=2, squeeze_channels=4, token_channels=8,
                  num_heads=2, feature_dim=8, num_classes=3)


def test_criterion_01_gradient_fidelity():
    started = time.perf_counter()
    params = ModelParams.initialize(TOY, seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    batch = Tensor(rng.normal(size=(2, 3, 3, 8)))
    labels = np.array([1, 3])

    def loss_fn():
        return cross_entropy(forward(batch, params), labels)

    report = check_gradients(loss_fn, dict(params.trainable_parameters()),
                             tolerance=1e-4, epsilon=1e-4)
    elapsed = time.perf_counter() - started
    n_scalars = sum(t.data.size for _, t in params.trainable_parameters())
    assert report.ok, report.summary()
    assert report.max_rel_err < 1e-4, report.summary()
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s, budget 60s"
    print(f"[criterion 01] PASS - max rel err {report.max_rel_err:.3e} < 1e-4 "
          f"across {n_scalars} parameters in {elapsed:.1f}s")


def test_criterion_02_pca_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 13))
        scales = rng.uniform(0.5, 3.0, size=m)
        samples = rng.normal(size=(200, m)) * scales
        view = samples.reshape(20, 10, m)
        model = fit_pca(view, components=3)
        got = transform_view(view, model).reshape(200, 3)
        want, _, _ = pca_project_oracle(samples, components=3)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8, f"worst per-element deviation {worst:.3e} > 1e-8"
    assert elapsed < 60.0, f"PCA oracle sweep took {elapsed:.1f}s, budget 60s"
    print(f"[criterion 02] PASS - 50 views, worst |got - oracle| = {worst:.3e} "
          f"<= 1e-8 in {elapsed:.1f}s")


def test_criterion_03_view_partition_property():
    # the views `mpca` gathers, read through `build_views` from an index
    # cube: band b holds b + 1, and padding reads 0
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(1000):
        num_bands = int(rng.integers(1, 513))
        num_views = int(rng.integers(1, num_bands + 1))
        groups = view_spec(num_bands, num_views)
        cube = HsiCube(values=np.arange(1.0, num_bands + 1).reshape(1, 1, num_bands))
        views = np.stack(build_views(cube, num_views))[:, 0, 0].astype(np.int64)
        assert views.shape == (num_views, groups)
        counts = np.bincount(views.reshape(-1), minlength=num_bands + 1)
        assert (counts[1:] == 1).all() and counts[0] == views.size - num_bands, \
            f"B={num_bands} g={num_views}: views do not partition the band range"
        padded = np.arange(num_views)[:, None] + num_views * np.arange(groups)
        assert (views == np.where(padded < num_bands, padded + 1, 0)).all(), \
            f"B={num_bands} g={num_views}: a view is not every g-th padded band"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"partition sweep took {elapsed:.1f}s, budget 10s"
    print(f"[criterion 03] PASS - 1000 random (B,g) pairs partition exactly "
          f"in {elapsed:.1f}s")


def test_criterion_04_tokenizer_equivariance():
    rng = np.random.default_rng(4)
    for i in range(500):
        p = int(rng.choice([3, 5, 7, 9]))
        channels = int(rng.integers(1, 9))
        feature = rng.normal(size=(1, p, p, channels)).astype(np.float32)
        straight = tokenize(Tensor(feature)).data
        flipped = tokenize(Tensor(rotate180(feature))).data
        assert np.array_equal(flipped, straight[:, ::-1]), \
            f"cuboid {i} (P={p}, C={channels}): rotation equivariance is not exact"
    print("[criterion 04] PASS - 500 cuboids, tokenize(rotate180) == reversed "
          "tokens with exact float32 equality")


# --------------------------------------------------------------------------
# Criteria 5-7 run on one set of artifacts; criterion 10 rebuilds them.

def _build_artifacts():
    """Deterministic artifacts for criteria 5-7 plus wall-clock timings.

    Returns (canonical JSON string, timings dict). The JSON carries no
    runtime-dependent field, so a rebuild with the same seeds must be
    byte-identical (criterion 10).
    """
    timings = {}

    shapes = {}
    for p in (3, 5, 7):
        config = ModelConfig(patch_size=p)
        params = ModelParams.initialize(config, seed=5)
        patch = np.random.default_rng(50 + p).normal(size=(p, p, 30)).astype(np.float32)
        trace = {}
        forward(Tensor(patch[None]), params, trace=trace)
        shapes[str(p)] = {
            "input": [p, p, 30],
            "expanded": list(trace["sed.expanded"][1:]),
            "squeezed": list(trace["sed.squeezed"][1:]),
            "decoded": list(trace["sed.decoded"][1:]),
            "tokens": list(trace["tokens"][1:]),
            "logits": list(trace["logits"][1:]),
        }

    started = time.perf_counter()
    model_config = ModelConfig(num_classes=3)

    cube, labels = synth_scene(seed=0, height=64, width=64, bands=40,
                               num_classes=3, noise_sigma=0.0)
    representation, _ = mpca(mmnorm(cube), num_views=10, components=3)
    clean = train(representation, labels, model_config,
                  TrainConfig(epochs=50, seed=0))
    source = PatchSource(representation, model_config.patch_size)
    coords = clean.split.coords(TEST)
    true_ids = labels.ids[coords[:, 0], coords[:, 1]]
    clean_report = evaluate(clean.params, source, coords, true_ids)

    cube_n, labels_n = synth_scene(seed=0, height=64, width=64, bands=40,
                                   num_classes=3, noise_sigma=0.05)
    representation_n, _ = mpca(mmnorm(cube_n), num_views=10, components=3)
    noisy = train(representation_n, labels_n, model_config,
                  TrainConfig(epochs=300, seed=0))
    source_n = PatchSource(representation_n, model_config.patch_size)
    coords_n = noisy.split.coords(TEST)
    true_n = labels_n.ids[coords_n[:, 0], coords_n[:, 1]]
    audit = rotation_audit(noisy.params, source_n, coords_n, true_n)
    timings["criterion_06"] = time.perf_counter() - started

    doc = {
        "shapes": shapes,
        "noiseless": {"test": clean_report.to_json_dict(),
                      "best_epoch": clean.best_epoch,
                      "best_val_oa": clean.best_val_oa},
        "noisy": {"test": audit.raw.to_json_dict(),
                  "best_epoch": noisy.best_epoch,
                  "best_val_oa": noisy.best_val_oa},
        "audit": audit.to_json_dict(),
    }
    return json.dumps(doc, sort_keys=True), timings


@pytest.fixture(scope="module")
def artifacts():
    canonical, timings = _build_artifacts()
    return {"canonical": canonical, "doc": json.loads(canonical),
            "timings": timings}


@pytest.mark.slow
def test_criterion_05_shape_conformance(artifacts):
    for p in (3, 5, 7):
        got = artifacts["doc"]["shapes"][str(p)]
        assert got["input"] == [p, p, 30]
        assert got["expanded"] == [p, p, 240], got
        assert got["squeezed"] == [p, p, 40], got
        assert got["decoded"] == [p, p, 64], got
        assert got["tokens"] == [5, 64], got
        assert got["logits"] == [16], got
    print("[criterion 05] PASS - P in {3,5,7}: PxPx30 -> PxPx240 -> PxPx40 "
          "-> PxPx64 -> 5x64 tokens -> 16 logits")


@pytest.mark.slow
def test_criterion_06_synthetic_scene_learning(artifacts):
    doc = artifacts["doc"]
    clean_oa = doc["noiseless"]["test"]["oa"]
    noisy_oa = doc["noisy"]["test"]["oa"]
    elapsed = artifacts["timings"]["criterion_06"]
    assert clean_oa >= 0.99, f"noiseless test OA {clean_oa:.4f} < 0.99 at 50 epochs"
    assert noisy_oa >= 0.95, f"sigma=0.05 test OA {noisy_oa:.4f} < 0.95 at 300 epochs"
    assert elapsed < 600.0, f"both runs took {elapsed:.0f}s, budget 600s"
    print(f"[criterion 06] PASS - noiseless OA {clean_oa:.4f} >= 0.99 (50 epochs), "
          f"noisy OA {noisy_oa:.4f} >= 0.95 (300 epochs) in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_rotation_audit(artifacts):
    audit = artifacts["doc"]["audit"]
    delta = abs(audit["delta_oa"])
    assert delta <= 0.02, \
        (f"rotation audit |delta OA| = {delta:.4f} > 0.02 "
         f"(raw {audit['raw']['oa']:.4f}, rotated {audit['rotated']['oa']:.4f})")
    print(f"[criterion 07] PASS - OA {audit['raw']['oa']:.4f} raw vs "
          f"{audit['rotated']['oa']:.4f} rotated, |delta| = {delta:.4f} <= 0.02")


DATASET_DIR = os.environ.get("HSIMVT_DATASETS", "")


@pytest.mark.slow
@pytest.mark.skipif(not DATASET_DIR, reason=(
    "optional criterion: set HSIMVT_DATASETS to a directory holding "
    "indian_pines_cube.hsz and indian_pines_labels.hsz"))
def test_criterion_08_indian_pines_reproduction():
    cube = load_cube(os.path.join(DATASET_DIR, "indian_pines_cube.hsz"))
    labels = load_labels(os.path.join(DATASET_DIR, "indian_pines_labels.hsz"))
    representation, _ = mpca(mmnorm(cube), num_views=10, components=3)
    means = {}
    for patch_size, floor in ((5, 0.90), (7, 0.93)):
        source = PatchSource(representation, patch_size)
        scores = []
        for seed in (0, 1, 2):
            config = ModelConfig(patch_size=patch_size,
                                 num_classes=labels.num_classes)
            result = train(representation, labels, config, TrainConfig(seed=seed))
            coords = result.split.coords(TEST)
            true_ids = labels.ids[coords[:, 0], coords[:, 1]]
            scores.append(evaluate(result.params, source, coords, true_ids).oa)
        means[patch_size] = float(np.mean(scores))
        assert means[patch_size] >= floor, \
            f"P={patch_size}: mean OA {means[patch_size]:.4f} < {floor}"
    print(f"[criterion 08] PASS - IP mean OA: P=5 {means[5]:.4f} >= 0.90, "
          f"P=7 {means[7]:.4f} >= 0.93")


@pytest.mark.slow
def test_criterion_09_sed_ablation_direction():
    cube, labels = synth_scene(seed=0, height=48, width=48, bands=40,
                               num_classes=8, noise_sigma=1.0)
    representation, _ = mpca(mmnorm(cube), num_views=10, components=3)
    source = PatchSource(representation, 5)
    outcomes = []
    for seed in (0, 1, 2):
        scores = {}
        for use_sed in (True, False):
            config = ModelConfig(num_classes=8, use_sed=use_sed)
            result = train(representation, labels, config,
                           TrainConfig(epochs=120, seed=seed))
            coords = result.split.coords(TEST)
            true_ids = labels.ids[coords[:, 0], coords[:, 1]]
            scores[use_sed] = evaluate(result.params, source, coords, true_ids).oa
        outcomes.append((seed, scores[True], scores[False]))
    wins = sum(full > ablated for _, full, ablated in outcomes)
    detail = ", ".join(f"seed {s}: full {f:.4f} vs no-SED {a:.4f}"
                       for s, f, a in outcomes)
    assert wins >= 2, f"SED outperformed its ablation in only {wins}/3 seeds ({detail})"
    print(f"[criterion 09] PASS - SED beats the no-SED ablation in {wins}/3 "
          f"seeds ({detail})")


@pytest.mark.slow
def test_criterion_10_determinism(artifacts):
    rebuilt, _ = _build_artifacts()
    assert rebuilt == artifacts["canonical"], \
        "criteria 5-7 artifacts changed between identical-seed runs"
    print(f"[criterion 10] PASS - rebuilt metrics JSON is byte-identical "
          f"({len(rebuilt)} bytes)")
