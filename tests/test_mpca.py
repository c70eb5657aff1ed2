"""Multiview PCA: view construction, per-view PCA, concatenation."""

import importlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import (ConfigError, DegenerateInputError, DimensionError, HsiCube,
                    _blas, build_views, fit_pca, mmnorm, mpca, save_cube, synth_scene,
                    transform_view, view_spec)
from hsimvt.mpca import PcaModel, fix_signs

from oracles import (fix_signs_oracle, jacobi_eigh, mpca_float64_reference,
                     pca_project_oracle)

mpca_module = importlib.import_module("hsimvt.mpca")  # `hsimvt.mpca` is the function
SRC = os.path.dirname(os.path.dirname(os.path.abspath(mpca_module.__file__)))


# ---------------------------------------------------------------- view layout

def gathered_bands(num_bands, num_views):
    """Per view, what :func:`build_views` gathers from an index cube whose
    band b holds b + 1: each entry is its band + 1, or 0 where it is padding."""
    cube = HsiCube(values=np.arange(1.0, num_bands + 1).reshape(1, 1, num_bands))
    return [view[0, 0].astype(np.int64) for view in build_views(cube, num_views)]


def test_view_spec_200_bands_10_views():
    assert view_spec(200, 10) == 20
    views = gathered_bands(200, 10)
    assert sum(map(len, views)) == 200
    np.testing.assert_array_equal(views[0], np.arange(0, 200, 10) + 1)
    np.testing.assert_array_equal(views[9], np.arange(9, 200, 10) + 1)


def test_view_spec_smallest_interleave():
    views = gathered_bands(4, 2)
    np.testing.assert_array_equal(views[0], [1, 3])
    np.testing.assert_array_equal(views[1], [2, 4])


def test_view_spec_padding_103_bands():
    assert view_spec(103, 10) == 11
    views = gathered_bands(103, 10)
    assert sum(map(len, views)) == 110
    # padded band 109 is the last of view 10 (0-based 9); bands 103..109 are zeros
    np.testing.assert_array_equal(views[9], list(range(10, 101, 10)) + [0])
    assert (np.concatenate(views) == 0).sum() == 7


def test_view_spec_errors():
    with pytest.raises(ConfigError):
        view_spec(10, 0)
    with pytest.raises(ConfigError):
        view_spec(10, 11)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 512).flatmap(
    lambda b: st.tuples(st.just(b), st.integers(1, b))))
def test_views_partition_padded_band_range(pair):
    num_bands, num_views = pair
    groups = view_spec(num_bands, num_views)
    views = gathered_bands(num_bands, num_views)
    seen = np.concatenate(views)
    assert len(seen) == num_views * groups
    # every real band once; the padding, 0, fills the rest of the padded range
    counts = np.bincount(seen, minlength=num_bands + 1)
    assert (counts[1:] == 1).all()
    assert counts[0] == num_views * groups - num_bands
    for n, view in enumerate(views):
        assert len(view) == groups
        padded = n + num_views * np.arange(groups)  # stride g from band n
        np.testing.assert_array_equal(view, np.where(padded < num_bands, padded + 1, 0))


def test_build_views_gathers_and_pads():
    values = np.arange(2 * 2 * 5, dtype=np.float64).reshape(2, 2, 5)
    rasters = build_views(HsiCube(values=values), 2)
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


def test_fit_pca_mean_is_within_a_few_ulps_of_the_exact_mean():
    """The mean against an exactly rounded sum (``math.fsum``), not against a
    copy of the package's summation: 200,500 rows (not a whole number of
    long rows) of an offset signal, where summing row after row loses bits."""
    rng = np.random.default_rng(21)
    view = 0.5 + 1e-3 * rng.standard_normal((500, 401, 11))
    samples = view.reshape(-1, 11)
    exact = np.array([math.fsum(column) for column in samples.T]) / len(samples)
    ulps = np.spacing(exact)
    error = np.abs(fit_pca(view, components=3).mean - exact) / ulps
    assert error.max() <= 4
    # no worse than row-after-row summation, the order of numpy's axis-0 mean
    # at the time of writing; cumsum's last row is that order by definition
    sequential = np.cumsum(samples, axis=0)[-1] / len(samples)
    assert error.max() <= (np.abs(sequential - exact) / ulps).max()


def test_fit_pca_does_not_depend_on_the_views_memory_order():
    """A band-first cube moved to (H, W, M) is a view whose (N, M) samples are
    column-major; its fit must be the fit of a C-ordered copy, bit for bit,
    also when N covers whole long rows and a leftover."""
    rng = np.random.default_rng(5)
    band_first = 0.5 + rng.standard_normal((6, 17, 23))  # 391 pixels
    view = np.moveaxis(band_first, 0, -1)
    assert view.reshape(-1, 6).flags.f_contiguous
    got = fit_pca(view, components=3)
    want = fit_pca(np.ascontiguousarray(view), components=3)
    for field in ("mean", "projection", "eigenvalues"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


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
    rasters = build_views(mmnorm(cube), 4)
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


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int16])
@pytest.mark.parametrize("bands,views", [(103, 10), (20, 4), (8, 1), (7, 7)])
def test_mpca_matches_float64_reference_bit_for_bit(bands, views, dtype):
    """On a raw cube, mpca gives the float64 reference of ``mmnorm(cube)``;
    MMNorm being idempotent, mpca of the normalized cube gives the same bytes."""
    rng = np.random.default_rng(bands * 100 + views)
    scale = 1000 if dtype == np.int16 else 1  # integers need a range to round into
    values = (rng.normal(size=(45, 30, bands)) * scale).astype(dtype)
    components = min(3, -(-bands // views))
    for layout in (values, np.asfortranarray(values)):
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
def test_preprocess_matches_float64_reference_of_mmnorm_bit_for_bit(bands, views, dtype,
                                                                     multiview):
    rng = np.random.default_rng(bands * 100 + views)
    values = (rng.normal(size=(45, 30, bands)) * 3 + 10).astype(dtype)
    values.flags.writeable = False
    components = min(3, -(-bands // views))
    shape = (views, components) if multiview else (1, views * components)
    for layout in (values, np.asfortranarray(values)):
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
    # first written: 5.49x, all views at once: 3.14x, two views per pass over
    # the cube (two float64 view buffers): 0.88-0.94x, one float64 view
    # buffer, gathered in one pass: 0.64x
    ((60, 50, 103), 10, 3, True, 0.75),
    # one view of 30 components; 7.14x, 6.52x, 5.52-5.93x, now 4.98x
    ((30, 30, 37), 10, 3, False, 6.2),
    # 17.6 MiB of float64 samples, on two view threads (two float64 view
    # buffers): 0.85x, against 0.57x on one thread
    ((145, 145, 103), 10, 3, True, 0.9),
])
def test_preprocess_peak_memory(monkeypatch, shape, views, components, multiview, bound):
    # two usable CPUs: the cases above the thread floor run on two threads
    # wherever the BLAS thread count can be held; the others stay serial
    monkeypatch.setattr(_blas, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(12)
    cube = HsiCube(values=rng.random(shape, dtype=np.float32))
    tracemalloc.start()
    try:
        mpca(cube, *((views, components) if multiview else (1, views * components)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * cube.values.nbytes


# ------------------------------------------------------- views on two threads

needs_blas_control = pytest.mark.skipif(
    _blas.blas_threads() is None, reason="no in-process control of this numpy's BLAS")


@pytest.fixture()
def blas_at_two_threads():
    """OpenBLAS at two threads for the test, so that a count left at one shows."""
    get, set_ = _blas._control()
    previous = get()
    set_(2)
    yield
    set_(previous)


def _force_workers(monkeypatch, workers):
    """Make `mpca` pick ``workers`` view threads whatever the cube's size."""
    monkeypatch.setattr(mpca_module, "_THREAD_SAMPLE_BYTES", 0)
    monkeypatch.setattr(_blas, "usable_cpus", lambda: workers)


def _count_two_thread_runs(monkeypatch):
    runs = []
    on_two_threads = mpca_module._on_two_threads

    def counting(body):
        runs.append(body)
        return on_two_threads(body)

    monkeypatch.setattr(mpca_module, "_on_two_threads", counting)
    return runs


def _mpca_bytes(cube, views, components):
    stacked, models = mpca(cube, views, components)
    return stacked.tobytes(), [(m.mean.tobytes(), m.projection.tobytes(),
                                m.eigenvalues.tobytes()) for m in models]


@needs_blas_control
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
@pytest.mark.parametrize("bands,views", [(103, 10), (20, 7), (9, 3)])
def test_threaded_mpca_matches_serial_bit_for_bit(monkeypatch, bands, views, dtype):
    rng = np.random.default_rng(bands * 10 + views)
    scale = 1000 if dtype == np.int16 else 1
    values = (rng.normal(size=(45, 30, bands)) * scale).astype(dtype)
    runs = _count_two_thread_runs(monkeypatch)
    for layout in (values, np.asfortranarray(values)):
        cube = HsiCube(values=layout)
        _force_workers(monkeypatch, 1)
        serial = _mpca_bytes(cube, views, 3)
        assert not runs
        _force_workers(monkeypatch, 2)
        assert _mpca_bytes(cube, views, 3) == serial
        assert len(runs) == 1
        runs.clear()


@needs_blas_control
def test_view_threads_run_at_one_blas_thread_and_restore_the_count(monkeypatch,
                                                                   blas_at_two_threads):
    """Both threads fit at one BLAS thread under the caller's numpy error
    state, and the count is back afterwards."""
    seen = []
    fit_in_place = mpca_module._fit_in_place

    def recording(samples, components):
        seen.append((threading.current_thread() is threading.main_thread(),
                     _blas.blas_threads(), np.geterr()["divide"]))
        return fit_in_place(samples, components)

    monkeypatch.setattr(mpca_module, "_fit_in_place", recording)
    _force_workers(monkeypatch, 2)
    rng = np.random.default_rng(3)
    with np.errstate(divide="raise"):
        mpca(HsiCube(values=rng.random((12, 10, 20), dtype=np.float32)), 5, 2)
    assert sorted(seen) == [(False, 1, "raise")] * 2 + [(True, 1, "raise")] * 3
    assert _blas.blas_threads() == 2


@needs_blas_control
@pytest.mark.parametrize("constant_view", [0, 1], ids=["caller", "helper"])
def test_a_view_threads_error_keeps_its_type_and_leaves_no_thread(monkeypatch,
                                                                 blas_at_two_threads,
                                                                 constant_view):
    before_threads = set(threading.enumerate())
    _force_workers(monkeypatch, 2)
    rng = np.random.default_rng(13)
    values = rng.random((6, 5, 8), dtype=np.float32)
    values[:, :, constant_view::4] = 0.25  # views 0/1 of 4 are the caller's/helper's
    with pytest.raises(DegenerateInputError, match="zero-variance"):
        mpca(HsiCube(values=values), 4, 1)
    assert _blas.blas_threads() == 2
    assert set(threading.enumerate()) == before_threads


@needs_blas_control
def test_a_helper_thread_that_cannot_start_leaves_its_views_to_the_caller(monkeypatch):
    """When ``Thread.start`` raises (no thread can be made), the caller
    fits both workers' views itself: the serial bits, and no thread left."""
    rng = np.random.default_rng(17)
    cube = HsiCube(values=rng.random((45, 30, 103), dtype=np.float32))
    _force_workers(monkeypatch, 1)
    serial = _mpca_bytes(cube, 10, 3)
    before_threads = set(threading.enumerate())

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    runs = _count_two_thread_runs(monkeypatch)
    _force_workers(monkeypatch, 2)
    assert _mpca_bytes(cube, 10, 3) == serial
    assert len(runs) == 1
    assert set(threading.enumerate()) == before_threads


@needs_blas_control
def test_serial_and_threaded_models_do_not_depend_on_the_blas_thread_count(monkeypatch,
                                                                           blas_at_two_threads):
    """At M = 100, where OpenBLAS's covariance bits change with its thread
    count, the serial path at two BLAS threads, the two-thread path and a
    run under ``one_blas_thread()`` give the same models and output. 21,025
    rows reach OpenBLAS's threaded kernels; smaller views may not."""
    rng = np.random.default_rng(53)
    cube = HsiCube(values=rng.random((145, 145, 200), dtype=np.float32))
    runs = _count_two_thread_runs(monkeypatch)
    _force_workers(monkeypatch, 1)
    serial = _mpca_bytes(cube, 2, 3)
    with _blas.one_blas_thread():
        held = _mpca_bytes(cube, 2, 3)
    assert not runs
    _force_workers(monkeypatch, 2)
    assert _mpca_bytes(cube, 2, 3) == held == serial
    assert len(runs) == 1


@needs_blas_control
def test_serial_views_fit_at_one_blas_thread_and_restore_the_count(monkeypatch,
                                                                   blas_at_two_threads):
    seen = []
    fit_in_place = mpca_module._fit_in_place

    def recording(samples, components):
        seen.append(_blas.blas_threads())
        return fit_in_place(samples, components)

    monkeypatch.setattr(mpca_module, "_fit_in_place", recording)
    _force_workers(monkeypatch, 1)
    rng = np.random.default_rng(4)
    values = rng.random((12, 10, 20), dtype=np.float32)
    mpca(HsiCube(values=values), 5, 2)
    assert seen == [1] * 5
    assert _blas.blas_threads() == 2
    values[:, :, 2::5] = 0.25  # view 2 of 5 is the same at every pixel
    with pytest.raises(DegenerateInputError, match="zero-variance"):
        mpca(HsiCube(values=values), 5, 2)
    assert seen == [1] * 7
    assert _blas.blas_threads() == 2


def test_mpca_runs_serially_without_blas_control(monkeypatch):
    monkeypatch.setattr(_blas, "_control", lambda: None)
    assert _blas.blas_threads() is None
    with _blas.one_blas_thread() as held:
        assert held is False
    runs = _count_two_thread_runs(monkeypatch)
    _force_workers(monkeypatch, 2)
    assert mpca_module._view_workers(10, 2 ** 40) == 1
    rng = np.random.default_rng(5)
    cube = HsiCube(values=rng.random((9, 8, 12), dtype=np.float32))
    threaded_request = _mpca_bytes(cube, 4, 2)
    assert not runs
    _force_workers(monkeypatch, 1)
    assert _mpca_bytes(cube, 4, 2) == threaded_request


def test_view_thread_rule(monkeypatch):
    monkeypatch.setattr(_blas, "_control", lambda: (lambda: 2, lambda n: None))
    monkeypatch.setattr(_blas, "usable_cpus", lambda: 2)
    big = mpca_module._THREAD_SAMPLE_BYTES
    assert mpca_module._view_workers(10, big) == 2
    assert mpca_module._view_workers(10, big - 1) == 1
    assert mpca_module._view_workers(1, big) == 1  # one view: nothing to share
    monkeypatch.setattr(_blas, "usable_cpus", lambda: 1)
    assert mpca_module._view_workers(10, big) == 1
    monkeypatch.setattr(_blas, "usable_cpus", lambda: 2)
    # the bench shapes: Pavia's 10 views of 11 bands and Indian Pines' 200
    # bands, at 10 views and at 4, on two threads; the toy's 128x128x16 cube
    # at 4 views serial
    assert mpca_module._view_workers(10, 610 * 340 * 110 * 8) == 2
    assert mpca_module._view_workers(10, 145 * 145 * 200 * 8) == 2
    assert mpca_module._view_workers(4, 145 * 145 * 200 * 8) == 2
    assert mpca_module._view_workers(4, 128 * 128 * 16 * 8) == 1


PREPROCESS = """
import importlib, sys
from hsimvt import cli
if sys.argv[1] == "serial":
    importlib.import_module("hsimvt.mpca")._THREAD_SAMPLE_BYTES = 1 << 62
sys.exit(cli.main(["preprocess", "--config", "config.json"]))
"""


@needs_blas_control
def test_preprocess_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """One and two BLAS threads, on the two-thread path and (at two BLAS
    threads) on the serial one, write the same representation."""
    h, w, bands, views = 260, 240, 103, 10
    if mpca_module._view_workers(views, h * w * 110 * 8) != 2:
        pytest.skip("the view threads need two usable CPUs")
    rng = np.random.default_rng(21)
    base = rng.random((h, w, 1), dtype=np.float32)
    values = base * np.linspace(0.5, 2.0, bands, dtype=np.float32)
    values += 0.05 * rng.random((h, w, bands), dtype=np.float32)
    save_cube(HsiCube(values=values), tmp_path / "cube.hsz")
    (tmp_path / "config.json").write_text(json.dumps(
        {"data": {"cube_path": "cube.hsz"}, "mpca": {"views": views, "components": 3}}))
    written = {}
    for path, blas in (("threaded", "1"), ("threaded", "2"), ("serial", "2")):
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=blas)
        done = subprocess.run([sys.executable, "-c", PREPROCESS, path], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        written[path, blas] = (tmp_path / "representation.hsz").read_bytes()
    assert len(set(written.values())) == 1
