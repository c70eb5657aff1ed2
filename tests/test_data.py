"""Cube/label containers, normalization, splits, patches, synthetic scenes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import (ConfigError, DegenerateInputError, DimensionError, HsiCube,
                    LabelMap, load_cube, load_labels, mmnorm, rotate180,
                    save_cube, save_labels, stratified_split, synth_scene)
from hsimvt.data import TEST, TRAIN, VAL, PatchSource

from oracles import extract_patch, stratified_split_loop


def test_cube_validation():
    with pytest.raises(DimensionError):
        HsiCube(values=np.zeros((4, 4)))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(DegenerateInputError):
        HsiCube(values=bad)
    cube = HsiCube(values=np.zeros((3, 4, 5)), name="x")
    assert (cube.height, cube.width, cube.bands) == (3, 4, 5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cube_rejects_any_non_finite_value(bad, dtype):
    for at in ((0, 0, 0), (2, 1, 3)):
        values = np.zeros((3, 2, 4), dtype=dtype)
        values[at] = bad
        with pytest.raises(DegenerateInputError):
            HsiCube(values=values)


def test_cube_accepts_empty_raster():
    assert HsiCube(values=np.zeros((0, 4, 3), dtype=np.float32)).height == 0


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int32])
def test_cube_keeps_the_range_its_finiteness_check_found(dtype):
    values = np.asfortranarray((np.arange(60).reshape(3, 4, 5) * 7 % 23 - 5).astype(dtype))
    lo, hi = HsiCube(values=values).value_range
    assert (lo.dtype, hi.dtype) == (values.dtype, values.dtype)
    assert (lo, hi) == (values.min(), values.max())
    assert HsiCube(values=np.zeros((0, 4, 3), dtype=np.float32)).value_range is None


def test_label_map_validation():
    ids = np.array([[1, 2], [0, 2]])
    labels = LabelMap(ids=ids, num_classes=2)
    np.testing.assert_array_equal(labels.labeled_coords(), [[0, 0], [0, 1], [1, 1]])
    with pytest.raises(ConfigError, match="exceeds"):
        LabelMap(ids=ids, num_classes=1)
    with pytest.raises(ConfigError, match="no labeled pixels"):
        LabelMap(ids=ids, num_classes=3)
    with pytest.raises(DimensionError):
        LabelMap(ids=np.zeros(4, dtype=int), num_classes=1)


def test_mmnorm_spans_unit_interval():
    rng = np.random.default_rng(0)
    cube = HsiCube(values=(rng.normal(size=(5, 6, 7)) * 3 + 10).astype(np.float32))
    out = mmnorm(cube)
    assert out.values.min() == 0.0
    assert out.values.max() == 1.0
    assert out.values.dtype == np.float32
    # already normalized input is a fixed point
    np.testing.assert_array_equal(mmnorm(out).values, out.values)


def test_mmnorm_is_global_not_per_band():
    values = np.zeros((1, 2, 2))
    values[0, 0] = [0.0, 5.0]
    values[0, 1] = [10.0, 5.0]
    out = mmnorm(HsiCube(values=values)).values
    np.testing.assert_allclose(out[0, 0], [0.0, 0.5])
    np.testing.assert_allclose(out[0, 1], [1.0, 0.5])


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_mmnorm_keeps_the_out_of_place_bits(dtype):
    rng = np.random.default_rng(1)
    values = (rng.normal(size=(4, 5, 6)) * 3 + 10).astype(dtype)
    values.flags.writeable = False
    lo, hi = float(values.min()), float(values.max())
    want = (values - dtype(lo)) / dtype(hi - lo)
    out = mmnorm(HsiCube(values=values)).values
    assert out.dtype == dtype
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_mmnorm_range_is_the_normalized_min_and_max(dtype):
    rng = np.random.default_rng(2)
    for scale in (3.0, 1e-3, 3e3):
        values = (rng.normal(size=(5, 4, 6)) * scale + 7 * scale).astype(dtype)
        out = mmnorm(HsiCube(values=values))
        lo, hi = out.value_range
        assert (lo.dtype, hi.dtype) == (out.values.dtype, out.values.dtype)
        assert lo.tobytes() == out.values.min().tobytes()
        assert hi.tobytes() == out.values.max().tobytes()


def test_mmnorm_of_an_integer_cube_is_float64():
    out = mmnorm(HsiCube(values=np.arange(24, dtype=np.int16).reshape(2, 3, 4)))
    assert out.values.dtype == np.float64
    np.testing.assert_array_equal(out.values.reshape(-1), np.arange(24) / 23)


def test_mmnorm_rejects_constant_cube():
    with pytest.raises(DegenerateInputError):
        mmnorm(HsiCube(values=np.full((2, 2, 2), 3.0)))


def test_mmnorm_rejects_empty_cube():
    with pytest.raises(DegenerateInputError, match="empty cube"):
        mmnorm(HsiCube(values=np.zeros((2, 0, 3), dtype=np.float32)))


def _labels_with_counts(counts):
    """One row per class, class c repeated counts[c-1] times, zero-padded."""
    width = max(counts)
    ids = np.zeros((len(counts), width), dtype=np.int64)
    for c, n in enumerate(counts, start=1):
        ids[c - 1, :n] = c
    return LabelMap(ids=ids, num_classes=len(counts))


def test_split_round_half_up_counts():
    labels = _labels_with_counts([100, 30, 10])
    split = stratified_split(labels, fractions=(0.05, 0.05, 0.90), seed=1)
    for c, (want_train, want_val) in enumerate([(5, 5), (2, 2), (1, 1)], start=1):
        mask = labels.ids == c
        assert (split.assignment[mask] == TRAIN).sum() == want_train
        assert (split.assignment[mask] == VAL).sum() == want_val
    assert (split.assignment[labels.ids == 0] == 0).all()


def test_split_always_keeps_one_train_sample():
    labels = _labels_with_counts([400, 2, 1])
    with pytest.warns(UserWarning):
        split = stratified_split(labels, fractions=(0.05, 0.05, 0.90), seed=0)
    assert (split.assignment[labels.ids == 2] == TRAIN).sum() == 1
    assert (split.assignment[labels.ids == 2] == VAL).sum() == 1
    assert (split.assignment[labels.ids == 3] == TRAIN).sum() == 1
    assert (split.assignment[labels.ids == 3] == VAL).sum() == 0
    assert len(split.warnings_issued) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 7),
       st.sampled_from([(0.05, 0.05, 0.90), (0.3, 0.2, 0.5), (0.5, 0.0, 0.5)]))
def test_split_matches_loop_oracle(seed, num_classes, fractions):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, num_classes + 1, size=(int(rng.integers(3, 25)), 17))
    # a class of 1 pixel and one of 2 take the small-class warning path
    ids[ids == 1], ids[ids == 2] = 0, 0
    ids.flat[rng.choice(ids.size, 3, replace=False)] = [1, 2, 2]
    for c in range(3, num_classes + 1):
        if not (ids == c).any():
            ids.flat[int(np.flatnonzero(ids == 0)[0])] = c
    labels = LabelMap(ids=ids, num_classes=num_classes)
    want, small = stratified_split_loop(ids, num_classes, fractions, seed)
    with pytest.warns(UserWarning):
        split = stratified_split(labels, fractions=fractions, seed=seed)
    assert split.assignment.dtype == np.int8
    np.testing.assert_array_equal(split.assignment, want)
    assert len(split.warnings_issued) == small >= 2


def test_split_rejects_bad_fractions():
    labels = _labels_with_counts([10, 10])
    with pytest.raises(ConfigError):
        stratified_split(labels, fractions=(0.5, 0.4, 0.2))
    with pytest.raises(ConfigError):
        stratified_split(labels, fractions=(0.0, 0.1, 0.9))


def test_split_deterministic_and_seed_sensitive():
    labels = _labels_with_counts([60, 60, 60])
    a = stratified_split(labels, seed=7).assignment
    b = stratified_split(labels, seed=7).assignment
    c = stratified_split(labels, seed=8).assignment
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(3, 60), min_size=1, max_size=6),
       st.integers(0, 2 ** 31 - 1))
def test_split_partitions_each_class(counts, seed):
    labels = _labels_with_counts(counts)
    split = stratified_split(labels, seed=seed)
    for c, n in enumerate(counts, start=1):
        mask = labels.ids == c
        got = split.assignment[mask]
        assert (got > 0).all()
        assert (got == TRAIN).sum() >= 1
        assert (got == TRAIN).sum() + (got == VAL).sum() + (got == TEST).sum() == n


def test_extract_patch_interior_and_padding():
    source = np.arange(5 * 5 * 2, dtype=np.float64).reshape(5, 5, 2)
    patch = extract_patch(source, 2, 2, 3)
    np.testing.assert_array_equal(patch, source[1:4, 1:4, :])
    corner = extract_patch(source, 0, 0, 3)
    assert (corner[0, :, :] == 0).all()
    assert (corner[:, 0, :] == 0).all()
    np.testing.assert_array_equal(corner[1:, 1:, :], source[0:2, 0:2, :])


def test_patch_source_contract_errors():
    source = np.zeros((4, 4, 1))
    with pytest.raises(ConfigError):
        PatchSource(source, 4)
    with pytest.raises(ConfigError):
        PatchSource(source, 0)
    with pytest.raises(DimensionError):
        PatchSource(np.zeros((4, 4)), 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_patch_source_matches_extract_patch(margin, seed):
    rng = np.random.default_rng(seed)
    raster = rng.normal(size=(6, 7, 3)).astype(np.float32)
    patch_size = 2 * margin + 1
    source = PatchSource(raster, patch_size)
    coords = np.stack([rng.integers(0, 6, size=10), rng.integers(0, 7, size=10)], axis=1)
    batch = source.gather(coords)
    for row, (h, w) in zip(batch, coords):
        np.testing.assert_array_equal(row, extract_patch(raster, h, w, patch_size))


def test_patch_source_rotated_gather():
    rng = np.random.default_rng(5)
    raster = rng.normal(size=(5, 5, 2)).astype(np.float32)
    source = PatchSource(raster, 3)
    coords = np.array([[0, 0], [2, 3], [4, 4]])
    np.testing.assert_array_equal(source.gather(coords, rotate=True),
                                  rotate180(source.gather(coords)))


def test_rotate180_semantics():
    x = np.arange(9, dtype=np.float32).reshape(3, 3, 1)
    np.testing.assert_array_equal(rotate180(x)[..., 0],
                                  [[8, 7, 6], [5, 4, 3], [2, 1, 0]])
    np.testing.assert_array_equal(rotate180(rotate180(x)), x)
    batch = np.stack([x, x + 1])
    np.testing.assert_array_equal(rotate180(batch)[0], rotate180(x))
    with pytest.raises(DimensionError):
        rotate180(np.zeros((3, 3)))


def test_synth_scene_structure():
    cube, labels = synth_scene(seed=3, height=20, width=24, bands=16, num_classes=4,
                               noise_sigma=0.0)
    assert cube.values.shape == (20, 24, 16)
    assert labels.shape == (20, 24)
    assert labels.num_classes == 4
    assert set(np.unique(labels.ids)) == {1, 2, 3, 4}  # every pixel labeled


def test_synth_scene_noiseless_matches_bump_formula():
    bands, num_classes = 16, 4
    cube, labels = synth_scene(seed=3, height=20, width=24, bands=bands,
                               num_classes=num_classes, noise_sigma=0.0)
    axis = np.arange(bands, dtype=np.float64)
    spread = bands / (4.0 * num_classes)
    for c in range(1, num_classes + 1):
        center = (c - 0.5) * bands / num_classes
        want = np.exp(-((axis - center) ** 2) / (2 * spread ** 2)).astype(np.float32)
        rows = cube.values[labels.ids == c]
        np.testing.assert_array_equal(rows, np.broadcast_to(want, rows.shape))


def test_synth_scene_deterministic_and_noise_seeded():
    a = synth_scene(seed=9, height=8, width=8, bands=6, num_classes=2, noise_sigma=0.1)
    b = synth_scene(seed=9, height=8, width=8, bands=6, num_classes=2, noise_sigma=0.1)
    c = synth_scene(seed=10, height=8, width=8, bands=6, num_classes=2, noise_sigma=0.1)
    np.testing.assert_array_equal(a[0].values, b[0].values)
    np.testing.assert_array_equal(a[1].ids, b[1].ids)
    assert (a[0].values != c[0].values).any()


def test_synth_scene_rejects_bad_requests():
    with pytest.raises(ConfigError):
        synth_scene(seed=0, height=8, width=8, bands=6, num_classes=1, noise_sigma=0.0)
    with pytest.raises(ConfigError):
        synth_scene(seed=0, height=8, width=8, bands=3, num_classes=4, noise_sigma=0.0)
    with pytest.raises(ConfigError):
        synth_scene(seed=0, height=2, width=2, bands=8, num_classes=5, noise_sigma=0.0)


def test_file_round_trips(tmp_path):
    cube, labels = synth_scene(seed=1, height=6, width=7, bands=5, num_classes=2,
                               noise_sigma=0.05)
    save_cube(cube, tmp_path / "c.hsz")
    save_labels(labels, tmp_path / "l.hsz")
    cube2 = load_cube(tmp_path / "c.hsz")
    labels2 = load_labels(tmp_path / "l.hsz")
    np.testing.assert_array_equal(cube2.values, cube.values)
    np.testing.assert_array_equal(labels2.ids, labels.ids)
    assert labels2.num_classes == labels.num_classes
