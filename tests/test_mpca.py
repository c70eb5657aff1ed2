"""Multiview PCA: view construction, per-view PCA, concatenation."""

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import (ConfigError, DegenerateInputError, DimensionError, HsiCube,
                    build_views, fit_pca, mmnorm, mpca, synth_scene, transform_view,
                    view_spec)
from hsimvt.mpca import PcaModel, fix_signs

from oracles import (fix_signs_oracle, jacobi_eigh, mpca_float64_reference,
                     pca_project_oracle)

mpca_module = importlib.import_module("hsimvt.mpca")  # `hsimvt.mpca` is the function


# ---------------------------------------------------------------- view layout

def test_view_spec_200_bands_10_views():
    spec = view_spec(200, 10)
    assert spec.num_groups == 20
    assert spec.padded_bands == 200
    np.testing.assert_array_equal(spec.band_indices(1), np.arange(0, 200, 10))
    np.testing.assert_array_equal(spec.band_indices(10), np.arange(9, 200, 10))


def test_view_spec_smallest_interleave():
    spec = view_spec(4, 2)
    np.testing.assert_array_equal(spec.band_indices(1), [0, 2])
    np.testing.assert_array_equal(spec.band_indices(2), [1, 3])


def test_view_spec_padding_103_bands():
    spec = view_spec(103, 10)
    assert spec.num_groups == 11
    assert spec.padded_bands == 110
    # band 109 is padding and lands in view 10
    assert 109 in spec.band_indices(10)
    padded = np.concatenate([spec.band_indices(n) for n in range(1, 11)])
    assert (padded >= 103).sum() == 7  # bands 103..109 are synthetic zeros


def test_view_spec_errors():
    with pytest.raises(ConfigError):
        view_spec(10, 0)
    with pytest.raises(ConfigError):
        view_spec(10, 11)
    spec = view_spec(10, 2)
    with pytest.raises(ConfigError):
        spec.band_indices(0)
    with pytest.raises(ConfigError):
        spec.band_indices(3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 512).flatmap(
    lambda b: st.tuples(st.just(b), st.integers(1, b))))
def test_views_partition_padded_band_range(pair):
    num_bands, num_views = pair
    spec = view_spec(num_bands, num_views)
    seen = np.concatenate([spec.band_indices(n) for n in range(1, num_views + 1)])
    assert len(seen) == spec.padded_bands
    assert set(seen.tolist()) == set(range(spec.padded_bands))
    for n in range(1, num_views + 1):
        idx = spec.band_indices(n)
        assert len(idx) == spec.num_groups
        if len(idx) > 1:
            assert (np.diff(idx) == num_views).all()


def test_build_views_gathers_and_pads():
    values = np.arange(2 * 2 * 5, dtype=np.float64).reshape(2, 2, 5)
    spec, rasters = build_views(HsiCube(values=values), 2)
    assert spec.padded_bands == 6
    assert [r.shape for r in rasters] == [(2, 2, 3), (2, 2, 3)]
    np.testing.assert_array_equal(rasters[0], values[:, :, [0, 2, 4]])
    np.testing.assert_array_equal(rasters[1][:, :, :2], values[:, :, [1, 3]])
    assert (rasters[1][:, :, 2] == 0).all()


# ------------------------------------------------------------------- fit_pca

def test_fit_pca_axis_aligned():
    # four points whose covariance (N-1 divisor) is exactly diag(4, 1)
    pts = np.array([[np.sqrt(6), 0], [-np.sqrt(6), 0],
                    [0, np.sqrt(1.5)], [0, -np.sqrt(1.5)]])
    model = fit_pca(pts.reshape(2, 2, 2), components=1)
    np.testing.assert_allclose(model.projection[:, 0], [1, 0], atol=1e-12)
    np.testing.assert_allclose(model.eigenvalues, [4.0], atol=1e-12)


def test_fit_pca_rank_one_line():
    t = np.linspace(-1, 1, 8)
    pts = np.stack([t, t], axis=1).reshape(2, 4, 2)
    model = fit_pca(pts, components=2)
    np.testing.assert_allclose(model.projection[:, 0],
                               [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)


def test_fit_pca_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    view = rng.normal(size=(10, 10, 6)) @ np.diag([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])
    view = view.reshape(10, 10, 6)
    model = fit_pca(view, components=3)

    samples = view.reshape(-1, 6)
    want, want_eig, _ = pca_project_oracle(samples, components=3)
    got = transform_view(view, model).reshape(-1, 3)
    np.testing.assert_allclose(got, want, atol=1e-8)
    np.testing.assert_allclose(model.eigenvalues, want_eig, atol=1e-8)


def test_fit_pca_eigensystem_against_jacobi():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(200, 5))
    model = fit_pca(samples.reshape(20, 10, 5), components=5)
    centered = samples - samples.mean(axis=0)
    cov = centered.T @ centered / (len(samples) - 1)
    eigenvalues, vectors = jacobi_eigh(cov)
    np.testing.assert_allclose(model.eigenvalues, eigenvalues, atol=1e-10)
    np.testing.assert_allclose(model.projection, fix_signs_oracle(vectors), atol=1e-10)


def test_fix_signs_matches_independent_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        vectors = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(fix_signs(vectors), fix_signs_oracle(vectors))


def test_fit_pca_orthonormal_columns():
    rng = np.random.default_rng(1)
    model = fit_pca(rng.normal(size=(8, 9, 7)), components=4)
    gram = model.projection.T @ model.projection
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)
    assert (np.diff(model.eigenvalues) <= 1e-12).all()


def test_fit_pca_errors():
    rng = np.random.default_rng(2)
    view = rng.normal(size=(4, 4, 3))
    with pytest.raises(ConfigError):
        fit_pca(view, components=4)
    with pytest.raises(ConfigError):
        fit_pca(view, components=0)
    with pytest.raises(DegenerateInputError):
        fit_pca(np.ones((4, 4, 3)), components=2)
    with pytest.raises(DegenerateInputError):
        fit_pca(view[:1, :1, :], components=1)
    with pytest.raises(DimensionError):
        fit_pca(view[0], components=1)


def test_zero_variance_check_reads_past_the_first_rows():
    view = np.ones((12, 10, 3))
    view[11, 9, 1] = 2.0  # only the last of 120 pixels differs
    assert fit_pca(view, components=1).eigenvalues[0] > 0
    cube = np.ones((12, 10, 6), dtype=np.float32)
    cube[11, 9, 1::2] = 2.0  # in every band of view 2
    cube[0, 0, 0::2] = 0.0   # and view 1 varies at the first pixel
    stacked, _ = mpca(HsiCube(values=cube), 2, 1)
    assert np.isfinite(stacked).all()


def test_pca_model_invariants_enforced():
    with pytest.raises(DegenerateInputError, match="orthonormal"):
        PcaModel(mean=np.zeros(2), projection=np.array([[1.0, 1.0], [0.0, 0.0]]),
                 eigenvalues=np.array([1.0, 0.5]))
    with pytest.raises(DegenerateInputError, match="non-increasing"):
        PcaModel(mean=np.zeros(2), projection=np.eye(2),
                 eigenvalues=np.array([0.5, 1.0]))
    with pytest.raises(DimensionError):
        PcaModel(mean=np.zeros(3), projection=np.eye(2),
                 eigenvalues=np.array([1.0, 0.5]))


# ------------------------------------------------------------- transform_view

def test_transform_view_eigen_definition():
    rng = np.random.default_rng(3)
    model = fit_pca(rng.normal(size=(6, 6, 4)), components=3)
    at_mean = transform_view(model.mean.reshape(1, 1, 4), model)
    np.testing.assert_allclose(at_mean, 0.0, atol=1e-12)
    shifted = (model.mean + model.projection[:, 0]).reshape(1, 1, 4)
    np.testing.assert_allclose(transform_view(shifted, model)[0, 0],
                               [1.0, 0.0, 0.0], atol=1e-12)


def test_transform_view_explicit_dot_product():
    rng = np.random.default_rng(4)
    view = rng.normal(size=(3, 5, 4))
    model = fit_pca(view, components=2)
    out = transform_view(view, model)
    for h in range(3):
        for w in range(5):
            for j in range(2):
                want = np.dot(view[h, w] - model.mean, model.projection[:, j])
                assert out[h, w, j] == pytest.approx(want, abs=1e-12)


def test_transform_view_band_mismatch():
    rng = np.random.default_rng(5)
    model = fit_pca(rng.normal(size=(4, 4, 3)), components=2)
    with pytest.raises(DimensionError):
        transform_view(rng.normal(size=(4, 4, 5)), model)


# ---------------------------------------------------------------------- mpca

def test_mpca_channel_layout_is_view_major():
    rng = np.random.default_rng(6)
    cube = HsiCube(values=rng.normal(size=(7, 8, 20)).astype(np.float32))
    stacked, models = mpca(cube, num_views=4, components=3)
    assert stacked.shape == (7, 8, 12)
    assert stacked.dtype == np.float32
    assert len(models) == 4
    _, rasters = build_views(mmnorm(cube), 4)
    for n in range(4):
        part = transform_view(rasters[n], models[n]).astype(np.float32)
        np.testing.assert_array_equal(stacked[:, :, 3 * n:3 * (n + 1)], part)


def test_mpca_single_view_is_plain_pca():
    rng = np.random.default_rng(7)
    cube = HsiCube(values=rng.normal(size=(6, 6, 8)))
    stacked, models = mpca(cube, num_views=1, components=3)
    assert stacked.shape == (6, 6, 3)
    want, _, _ = pca_project_oracle(mmnorm(cube).values.reshape(-1, 8), components=3)
    np.testing.assert_allclose(stacked.reshape(-1, 3), want, atol=1e-6)


def test_mpca_separates_noiseless_classes():
    cube, labels = synth_scene(seed=11, height=16, width=16, bands=20,
                               num_classes=2, noise_sigma=0.0)
    stacked, _ = mpca(mmnorm(cube), num_views=4, components=2)
    rep_a = stacked[labels.ids == 1]
    rep_b = stacked[labels.ids == 2]
    # each class internally constant, and the two signatures distinct
    np.testing.assert_array_equal(rep_a, np.broadcast_to(rep_a[0], rep_a.shape))
    np.testing.assert_array_equal(rep_b, np.broadcast_to(rep_b[0], rep_b.shape))
    assert not np.array_equal(rep_a[0], rep_b[0])


def test_mpca_bit_identical_across_runs():
    rng = np.random.default_rng(8)
    cube = HsiCube(values=rng.normal(size=(9, 9, 30)).astype(np.float32))
    first, _ = mpca(cube, num_views=5, components=2)
    second, _ = mpca(cube, num_views=5, components=2)
    assert first.tobytes() == second.tobytes()


def _layouts_and_view_blocks(values):
    """The C and Fortran layouts of ``values``, each with every mpca row-block
    size to try: the module's own (one block for most of these 45-row cubes,
    so one view per pass), 7 rows (a partial last block) and 1 row. 7 views
    leave the last view of each pass over the cube unpaired."""
    row = values.shape[1] * values.shape[2] * values.itemsize
    for layout in (values, np.asfortranarray(values)):
        for block_bytes in (mpca_module._VIEW_BLOCK_BYTES, 7 * row, row):
            yield layout, block_bytes


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int16])
@pytest.mark.parametrize("bands,views", [(103, 10), (20, 4), (8, 1), (7, 7)])
def test_mpca_matches_float64_reference_bit_for_bit(monkeypatch, bands, views, dtype):
    """On a raw cube, mpca gives the float64 reference of ``mmnorm(cube)``;
    MMNorm being idempotent, mpca of the normalized cube gives the same bytes."""
    rng = np.random.default_rng(bands * 100 + views)
    scale = 1000 if dtype == np.int16 else 1  # integers need a range to round into
    values = (rng.normal(size=(45, 30, bands)) * scale).astype(dtype)
    components = min(3, -(-bands // views))
    for layout, block_bytes in _layouts_and_view_blocks(values):
        monkeypatch.setattr(mpca_module, "_VIEW_BLOCK_BYTES", block_bytes)
        cube = HsiCube(values=layout)
        normalized = mmnorm(cube)
        want, fitted = mpca_float64_reference(normalized.values, views, components)
        stacked, models = mpca(cube, views, components)
        assert stacked.dtype == np.float32
        assert np.array_equal(stacked, want)
        for model, (mean, projection, eigenvalues) in zip(models, fitted, strict=True):
            assert np.array_equal(model.mean, mean)
            assert np.array_equal(model.projection, projection)
            assert np.array_equal(model.eigenvalues, eigenvalues)
        again, again_models = mpca(normalized, views, components)
        assert again.tobytes() == stacked.tobytes()
        for a, b in zip(models, again_models, strict=True):
            for name in ("mean", "projection", "eigenvalues"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("shape", [(3, 0, 4), (0, 3, 4)])
def test_mpca_of_an_empty_cube_is_degenerate(shape):
    with pytest.raises(DegenerateInputError, match="empty cube"):
        mpca(HsiCube(values=np.zeros(shape, dtype=np.float32)), num_views=2, components=1)


@pytest.mark.parametrize("multiview", [True, False])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("bands,views", [(103, 10), (20, 4), (8, 1), (7, 7)])
def test_preprocess_matches_float64_reference_of_mmnorm_bit_for_bit(monkeypatch, bands,
                                                                     views, dtype, multiview):
    rng = np.random.default_rng(bands * 100 + views)
    values = (rng.normal(size=(45, 30, bands)) * 3 + 10).astype(dtype)
    values.flags.writeable = False
    components = min(3, -(-bands // views))
    shape = (views, components) if multiview else (1, views * components)
    for layout, block_bytes in _layouts_and_view_blocks(values):
        monkeypatch.setattr(mpca_module, "_VIEW_BLOCK_BYTES", block_bytes)
        cube = HsiCube(values=layout)
        want, fitted = mpca_float64_reference(mmnorm(cube).values, *shape)
        stacked, models = mpca(cube, *shape)
        assert stacked.dtype == np.float32
        assert np.array_equal(stacked, want)
        for model, (mean, projection, eigenvalues) in zip(models, fitted, strict=True):
            assert np.array_equal(model.mean, mean)
            assert np.array_equal(model.projection, projection)
            assert np.array_equal(model.eigenvalues, eigenvalues)


@pytest.mark.parametrize("dtype,extreme", [(np.float16, 4e4), (np.float32, 3e38)])
def test_preprocess_rejects_a_cube_whose_normalized_values_overflow(dtype, extreme):
    values = np.zeros((4, 5, 6), dtype=dtype)
    values[0, 1, 2], values[3, 4, 5] = extreme, -extreme
    cube = HsiCube(values=values)
    with np.errstate(over="ignore"):
        for run in (lambda: mpca(cube, 2, 1), lambda: mmnorm(cube)):
            with pytest.raises(DegenerateInputError, match="non-finite"):
                run()


def test_preprocess_keeps_the_degenerate_input_checks():
    rng = np.random.default_rng(13)
    with pytest.raises(DegenerateInputError, match="constant cube"):
        mpca(HsiCube(values=np.full((4, 4, 6), 0.5, dtype=np.float32)), 2, 1)
    with pytest.raises(DegenerateInputError, match="at least 2 pixels"):
        mpca(HsiCube(values=rng.random((1, 1, 6), dtype=np.float32)), 2, 1)
    values = rng.random((4, 4, 6), dtype=np.float32)
    values[:, :, 1::2] = 0.25  # view 2 is the same at every pixel
    with pytest.raises(DegenerateInputError, match="zero-variance"):
        mpca(HsiCube(values=values), 2, 1)
    with pytest.raises(DegenerateInputError, match="empty cube"):
        mpca(HsiCube(values=np.zeros((0, 4, 6), dtype=np.float32)), 2, 1)
    with pytest.raises(ConfigError):
        mpca(HsiCube(values=values), 2, 4)


@pytest.mark.parametrize("shape,views,components,multiview,bound", [
    # first written: 5.49x, all views at once: 3.14x, one view at a time: 0.68x,
    # two views per pass over the cube (two float64 view buffers): 0.88x
    ((60, 50, 103), 10, 3, True, 1.0),
    ((30, 30, 37), 10, 3, False, 6.2),    # one view of 30 components; 7.14x, 6.52x, now 5.52x
])
def test_preprocess_peak_memory(shape, views, components, multiview, bound):
    rng = np.random.default_rng(12)
    cube = HsiCube(values=rng.random(shape, dtype=np.float32))
    tracemalloc.start()
    try:
        mpca(cube, *((views, components) if multiview else (1, views * components)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * cube.values.nbytes
