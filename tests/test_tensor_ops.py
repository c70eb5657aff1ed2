"""Forward semantics of the tensor ops against loop-level oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import ConfigError, DimensionError, Tensor
from hsimvt import ops

from oracles import attention_longdouble, conv2d_loop, conv3d_loop


def test_tensor_coerces_ints_to_float32():
    t = Tensor(np.arange(6).reshape(2, 3))
    assert t.dtype == np.float32
    assert Tensor(np.ones(3, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float32


def test_tensor_item_and_grad_bookkeeping():
    t = Tensor(np.array(2.5), requires_grad=True)
    assert t.item() == 2.5
    t.accumulate_grad(np.array(1.0))
    t.accumulate_grad(np.array(0.5))
    assert t.grad == pytest.approx(1.5)
    t.zero_grad()
    assert t.grad is None


@pytest.mark.parametrize("shape,kshape", [
    ((4, 5, 6), (2, 3, 3, 3)),
    ((3, 3, 8), (1, 1, 1, 3)),
    ((5, 4, 4), (3, 3, 1, 5)),
    ((5, 5, 30), (8, 3, 3, 3)),  # the SED's conv3d
])
def test_conv3d_matches_loop_oracle(shape, kshape):
    rng = np.random.default_rng(3)
    x = rng.normal(size=shape)
    kernels = rng.normal(size=kshape)
    bias = rng.normal(size=kshape[0])
    out = ops.conv3d(Tensor(x[None]), Tensor(kernels), Tensor(bias))
    want = conv3d_loop(x, kernels, bias)
    assert out.data.shape == (1, shape[0], shape[1], kshape[0] * shape[2])
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_conv3d_batch_equals_stacked_singles():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4, 4, 5)).astype(np.float32)
    k = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32))
    b = Tensor(rng.normal(size=2).astype(np.float32))
    batched = ops.conv3d(Tensor(x), k, b).data
    singles = np.concatenate([ops.conv3d(Tensor(x[i:i + 1]), k, b).data for i in range(3)])
    np.testing.assert_array_equal(batched, singles)


@pytest.mark.parametrize("bad_kshape", [(2, 2, 3, 3), (2, 3, 4, 3), (2, 3, 3, 2)])
def test_conv3d_rejects_even_kernel_extents(bad_kshape):
    with pytest.raises(ConfigError):
        ops.conv3d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros(bad_kshape)),
                   Tensor(np.zeros(bad_kshape[0])))


def test_conv3d_rejects_bad_bias_and_rank():
    with pytest.raises(DimensionError):
        ops.conv3d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((2, 3, 3, 3))),
                   Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):  # one unbatched (H, W, C) patch
        ops.conv3d(Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((2, 3, 3, 3))),
                   Tensor(np.zeros(2)))


@pytest.mark.parametrize("shape,kshape", [
    ((5, 5, 3), (4, 3, 3, 3)),
    ((4, 6, 2), (1, 1, 3, 2)),
    ((3, 3, 7), (2, 5, 5, 7)),
    ((5, 5, 240), (40, 3, 3, 240)),  # the SED's conv2a
    ((2, 2, 3), (2, 7, 7, 3)),  # kernel reaches past the far edge
])
def test_conv2d_matches_loop_oracle(shape, kshape):
    rng = np.random.default_rng(5)
    x = rng.normal(size=shape)
    kernels = rng.normal(size=kshape)
    bias = rng.normal(size=kshape[0])
    out = ops.conv2d(Tensor(x[None]), Tensor(kernels), Tensor(bias))
    want = conv2d_loop(x, kernels, bias)
    assert out.data.shape == (1, shape[0], shape[1], kshape[0])
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_conv2d_interleaved_shapes_match_loop_oracle():
    """Two batch sizes and two kernel sizes, run alternately twice: each
    call must fold with the plan for its own shape, not the last one's."""
    rng = np.random.default_rng(12)
    cases = [(n, k) for n in (1, 3) for k in (3, 5)]
    for n, k in cases + cases[::-1]:
        x = rng.normal(size=(n, 5, 4, 3))
        kernels = rng.normal(size=(2, k, k, 3))
        bias = rng.normal(size=2)
        out = ops.conv2d(Tensor(x), Tensor(kernels), Tensor(bias)).data
        assert out.shape == (n, 5, 4, 2)
        for i in range(n):
            np.testing.assert_allclose(out[i], conv2d_loop(x[i], kernels, bias), atol=1e-12)


def test_conv2d_rejects_channel_mismatch():
    with pytest.raises(DimensionError):
        ops.conv2d(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((2, 3, 3, 5))),
                   Tensor(np.zeros(2)))


def test_affine_matches_manual():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
    out = ops.affine(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, x @ w + b, atol=1e-15)
    with pytest.raises(DimensionError):
        ops.affine(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


def test_attention_survives_huge_logits():
    rng = np.random.default_rng(8)
    tokens = rng.normal(size=(2, 5, 4))
    wqkv = rng.normal(size=(1, 3, 4, 4))
    wqkv[0, :2] *= 30.0  # queries and keys: logits reach about +-1e4
    q, k = tokens @ wqkv[0, 0], tokens @ wqkv[0, 1]
    assert 5e3 < np.abs(q @ k.swapaxes(-1, -2)).max() / np.sqrt(4) < 5e4  # d = 4
    got = ops.attention(Tensor(tokens), Tensor(wqkv)).data
    assert np.isfinite(got).all()
    for n in range(2):
        np.testing.assert_allclose(got[n], attention_longdouble(tokens[n], *wqkv[0]),
                                   atol=1e-9)


def test_elementwise_ops():
    a = np.array([[1.0, -2.0], [0.0, 3.0]])
    b = np.array([[4.0, 5.0], [6.0, -7.0]])
    np.testing.assert_array_equal(ops.relu(Tensor(a)).data, np.maximum(a, 0))
    np.testing.assert_array_equal(ops.add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(ops.mul(Tensor(a), Tensor(b)).data, a * b)
    np.testing.assert_array_equal(ops.mul(Tensor(a), Tensor(np.full_like(a, -1.5))).data,
                                  a * -1.5)
    assert ops.sum_all(Tensor(a)).item() == pytest.approx(a.sum())
    with pytest.raises(DimensionError):
        ops.add(Tensor(a), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ops.mul(Tensor(a), Tensor(np.zeros(3)))


def test_reshape_and_concat():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 6))
    assert ops.reshape(Tensor(x), (3, 4)).data.shape == (3, 4)
    parts = [Tensor(rng.normal(size=(2, k))) for k in (1, 3, 2)]
    out = ops.concat(parts, axis=1)
    np.testing.assert_array_equal(out.data,
                                  np.concatenate([p.data for p in parts], axis=1))


def test_box_mean_matches_plain_mean():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 5, 5, 3))
    boxes = [((1, 4), (0, 3)), ((0, 5), (2, 4)), ((4, 5), (4, 5))]
    out = ops.box_mean(Tensor(x), boxes).data
    assert out.shape == (2, 3, 3)
    for i, ((r0, r1), (c0, c1)) in enumerate(boxes):
        np.testing.assert_allclose(out[:, i], x[:, r0:r1, c0:c1, :].mean(axis=(1, 2)),
                                   rtol=1e-6)
    with pytest.raises(DimensionError):
        ops.box_mean(Tensor(x), [((0, 6), (0, 3))])
    with pytest.raises(DimensionError):  # one box inside, one past the edge
        ops.box_mean(Tensor(x), [((0, 2), (0, 2)), ((0, 2), (4, 6))])
    with pytest.raises(DimensionError):
        ops.box_mean(Tensor(x), [])
    with pytest.raises(DimensionError):
        ops.box_mean(Tensor(x[0]), [((0, 2), (0, 2))])


def _mirrored(box, rows, cols):
    """The box a 180-degree flip of a rows x cols extent moves ``box`` to."""
    (r0, r1), (c0, c1) = box
    return (rows - r1, rows - r0), (cols - c1, cols - c0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_box_mean_is_exactly_reversal_invariant(rows, cols, seed):
    """The fold summation makes each box mean bit-identical under a
    180-degree flip of the input, read from the mirrored box: the float32
    property the tokenizer equivariance guarantee rests on. The full
    window comes first, then up to three random boxes."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, rows, cols, 2)).astype(np.float32)
    flipped = x[:, ::-1, ::-1, :].copy()
    boxes = [((0, rows), (0, cols))]
    for _ in range(rng.integers(0, 4)):
        r0, r1 = sorted(rng.choice(rows + 1, size=2, replace=False))
        c0, c1 = sorted(rng.choice(cols + 1, size=2, replace=False))
        boxes.append(((int(r0), int(r1)), (int(c0), int(c1))))
    a = ops.box_mean(Tensor(x), boxes).data
    b = ops.box_mean(Tensor(flipped), [_mirrored(box, rows, cols) for box in boxes]).data
    assert a.shape == (1, len(boxes), 2)
    np.testing.assert_array_equal(a, b)


def test_tile_vector():
    v = np.array([1.0, 2.0, 3.0])
    out = ops.tile_vector(Tensor(v), 4).data
    assert out.shape == (4, 1, 3)
    np.testing.assert_array_equal(out, np.broadcast_to(v, (4, 1, 3)))
    with pytest.raises(DimensionError):
        ops.tile_vector(Tensor(np.zeros((2, 2))), 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ops_preserve_dtype(dtype):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(1, 4, 4, 6)).astype(dtype))
    k3 = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(dtype))
    b3 = Tensor(np.zeros(2, dtype=dtype))
    assert ops.conv3d(x, k3, b3).dtype == dtype
    k2 = Tensor(rng.normal(size=(2, 3, 3, 6)).astype(dtype))
    assert ops.conv2d(x, k2, Tensor(np.zeros(2, dtype=dtype))).dtype == dtype
    assert ops.relu(x).dtype == dtype
    assert ops.add(x, x).dtype == dtype
    assert ops.mul(x, x).dtype == dtype
    tokens = Tensor(rng.normal(size=(2, 5, 6)).astype(dtype))
    assert ops.attention(tokens, Tensor(rng.normal(size=(2, 3, 6, 3)).astype(dtype))).dtype == dtype
