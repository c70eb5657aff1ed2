"""Forward semantics of the tensor ops against loop-level oracles."""

import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import ConfigError, DimensionError, GradGraph, ModelConfig, ModelParams, Tensor
from hsimvt import ops
from hsimvt.model import forward, quadrant_bounds
from hsimvt.tensor import record_op

from oracles import (add, attention_longdouble, box_mean_per_box, box_mean_per_box_grad,
                     conv2d_loop, conv3d_loop, mul, reshape, sum_all)


def test_every_public_op_is_used_by_the_package():
    """Each public function of hsimvt.ops is called as ``ops.<name>`` from another
    module of the package; an op that only tests need belongs with the tests."""
    package = pathlib.Path(ops.__file__).parent
    public = {node.name for node in ast.parse(pathlib.Path(ops.__file__).read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = {node.attr for path in package.glob("*.py") if path.name != "ops.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ops"}
    assert public and public <= used, sorted(public - used)


def test_tensor_coerces_ints_to_float32():
    t = Tensor(np.arange(6).reshape(2, 3))
    assert t.dtype == np.float32
    assert Tensor(np.ones(3, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float32


def test_tensor_item_and_grad_bookkeeping():
    t = Tensor(np.array(2.5), requires_grad=True)
    assert t.item() == 2.5
    with GradGraph() as graph:
        # two uses of t, whose adjoints hand back 1.0 and 0.5: the second adds
        once = record_op(t.data, (t,), lambda go, need: (np.array(1.0),))
        twice = record_op(t.data, (t,), lambda go, need: (np.array(0.5),))
        loss = add(once, twice)
    graph.backward(loss)
    assert t.grad == pytest.approx(1.5)


@pytest.mark.parametrize("kshape", [(3, 3), (3, 5), (3, 3, 3)])
def test_taps_is_a_read_only_view_of_the_shifted_input(kshape):
    a = np.random.default_rng(26).normal(size=(2, 4, 5, 6))
    view = ops._taps(a, kshape)
    assert view.shape == (2, 4, 5) + kshape + (6,)
    assert not view.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        view[(0,) * view.ndim] = 1.0
    pads = [(k // 2, k // 2) for k in kshape] + [(0, 0)] * (3 - len(kshape))
    padded = np.pad(a, [(0, 0)] + pads)
    for t in np.ndindex(*kshape):
        t3 = t + (0,) * (3 - len(t))
        want = padded[:, t3[0]:t3[0] + 4, t3[1]:t3[1] + 5, t3[2]:t3[2] + 6]
        np.testing.assert_array_equal(view[(slice(None),) * 3 + t], want)


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


TOY = ModelConfig(patch_size=3, num_views=4, view_components=2, encoder_kernels=2,
                  squeeze_channels=4, token_channels=8, num_heads=2, feature_dim=8,
                  num_classes=3)


def _patches_per_block(config, dtype):
    """Whole patches in one block of conv3d's streamed window matrix."""
    patch = config.patch_size ** 2 * 27 * config.input_channels * np.dtype(dtype).itemsize
    return max(1, ops._CONV3D_BLOCK_BYTES // patch)


def _block_batches(config, dtype):
    block = _patches_per_block(config, dtype)
    return sorted({1, max(block - 1, 1), block, block + 1, 255, 256, 257})


def _conv3d_inputs(config, n, dtype, seed=0):
    rng = np.random.default_rng(seed)
    p, c, k = config.patch_size, config.input_channels, config.encoder_kernels
    return (Tensor(rng.normal(size=(n, p, p, c)).astype(dtype)),
            Tensor(rng.normal(size=(k, 3, 3, 3)).astype(dtype), requires_grad=True),
            Tensor(rng.normal(size=k).astype(dtype), requires_grad=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config", [ModelConfig(), TOY], ids=["default", "toy"])
def test_streamed_conv3d_gives_the_recorded_bits(config, dtype):
    """Unrecorded calls build the window matrix block by block; the output is
    byte-identical to the recorded call's whole-window product at batches
    around the block size and around the scoring batch."""
    for n in _block_batches(config, dtype):
        x, k, b = _conv3d_inputs(config, n, dtype, seed=n)
        streamed = ops.conv3d(x, k, b).data
        with GradGraph() as graph:
            recorded = ops.conv3d(x, k, b).data
        assert len(graph) == 1
        assert streamed.dtype == recorded.dtype and streamed.shape == recorded.shape
        assert streamed.tobytes() == recorded.tobytes(), n


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config", [ModelConfig(), ModelConfig(use_sed=False), TOY],
                         ids=["default", "no-sed", "toy"])
def test_logits_keep_their_bits_with_and_without_a_recording_graph(config, dtype):
    rng = np.random.default_rng(29)
    params = ModelParams.initialize(config, seed=29, dtype=dtype)
    params.values += rng.normal(0.0, 0.01, size=params.values.shape).astype(dtype)
    p, c = config.patch_size, config.input_channels
    for n in _block_batches(config, dtype):
        batch = Tensor(rng.normal(size=(n, p, p, c)).astype(dtype))
        plain = forward(batch, params).data
        with GradGraph():
            recorded = forward(batch, params).data
        assert plain.tobytes() == recorded.tobytes(), n


def test_conv3d_of_an_empty_batch_is_empty():
    x, k, b = _conv3d_inputs(ModelConfig(), 0, np.float32)
    with GradGraph():
        recorded = ops.conv3d(x, k, b)
    for out in (ops.conv3d(x, k, b), recorded):
        assert out.data.shape == (0, 5, 5, 8 * 30) and out.data.dtype == np.float32


def test_streamed_conv3d_takes_one_patch_a_block_below_one_patch(monkeypatch):
    x, k, b = _conv3d_inputs(TOY, 3, np.float64)
    with GradGraph():
        want = ops.conv3d(x, k, b).data
    monkeypatch.setattr(ops, "_CONV3D_BLOCK_BYTES", 0)
    assert ops.conv3d(x, k, b).data.tobytes() == want.tobytes()


def _peak_beyond_output(x, k, b):
    """conv3d's traced memory peak less its output's bytes, and its output."""
    tracemalloc.start()
    try:
        out = ops.conv3d(x, k, b)
        return tracemalloc.get_traced_memory()[1] - out.data.nbytes, out
    finally:
        tracemalloc.stop()


WINDOW_256 = 256 * 25 * 27 * 30 * 4  # the default conv3d's window matrix at batch 256, float32


def test_streamed_conv3d_peaks_below_a_quarter_of_the_window():
    """An unrecorded default-shape conv3d at the scoring batch of 256 never
    holds its 20.7 MB window matrix: beyond its output, it peaks below a
    quarter of that."""
    peak, _ = _peak_beyond_output(*_conv3d_inputs(ModelConfig(), 256, np.float32))
    assert peak < WINDOW_256 / 4, peak


def test_conv3d_streams_inside_a_graph_when_no_input_needs_a_gradient():
    x, k, b = (Tensor(t.data) for t in _conv3d_inputs(ModelConfig(), 256, np.float32))
    with GradGraph() as graph:
        peak, out = _peak_beyond_output(x, k, b)
    assert peak < WINDOW_256 / 4, peak
    assert len(graph) == 0 and not out.requires_grad


def test_conv3d_keeps_the_whole_window_for_its_adjoint():
    """A call whose kernels need a gradient holds the whole window matrix;
    its kernel and bias gradients are that matrix's products, bit for bit."""
    x, k, b = _conv3d_inputs(ModelConfig(), 256, np.float32)
    go = np.random.default_rng(1).normal(size=(256, 5, 5, 8 * 30)).astype(np.float32)
    with GradGraph() as graph:
        peak, out = _peak_beyond_output(x, k, b)
        loss = sum_all(mul(out, Tensor(go)))
    graph.backward(loss)
    assert peak >= WINDOW_256, peak
    assert x.grad is None
    cols = np.ascontiguousarray(ops._taps(x.data, (3, 3, 3))).reshape(-1, 27, 30)
    god = go.reshape(-1, 8, 30)
    want_k = np.matmul(god, cols.transpose(0, 2, 1)).sum(axis=0).reshape(k.shape)
    assert k.grad.tobytes() == want_k.tobytes()
    assert b.grad.tobytes() == god.sum(axis=0).sum(axis=1).tobytes()


# ops.TAP_PRODUCT_MIN values that send every conv2d forward tap by tap, then
# every one through the fold.
CONV2D_THRESHOLDS = (0, math.inf)


@pytest.mark.parametrize("shape,kshape", [
    ((5, 5, 3), (4, 3, 3, 3)),
    ((4, 6, 2), (1, 1, 3, 2)),
    ((3, 3, 7), (2, 5, 5, 7)),
    ((5, 5, 240), (40, 3, 3, 240)),  # the SED's conv2a
    ((2, 2, 3), (2, 7, 7, 3)),  # kernel reaches past the far edge
])
def test_conv2d_matches_loop_oracle(monkeypatch, shape, kshape):
    rng = np.random.default_rng(5)
    x = rng.normal(size=shape)
    kernels = rng.normal(size=kshape)
    bias = rng.normal(size=kshape[0])
    want = conv2d_loop(x, kernels, bias)
    for threshold in CONV2D_THRESHOLDS:
        monkeypatch.setattr(ops, "TAP_PRODUCT_MIN", threshold)
        out = ops.conv2d(Tensor(x[None]), Tensor(kernels), Tensor(bias))
        assert out.data.shape == (1, shape[0], shape[1], kshape[0])
        np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_conv2d_interleaved_shapes_match_loop_oracle(monkeypatch):
    """Two batch sizes and two kernel sizes, run alternately twice on each
    path: each call must fold with the plan for its own shape, not the
    last one's."""
    rng = np.random.default_rng(12)
    cases = [(n, k) for n in (1, 3) for k in (3, 5)]
    for threshold in CONV2D_THRESHOLDS:
        monkeypatch.setattr(ops, "TAP_PRODUCT_MIN", threshold)
        for n, k in cases + cases[::-1]:
            x = rng.normal(size=(n, 5, 4, 3))
            kernels = rng.normal(size=(2, k, k, 3))
            bias = rng.normal(size=2)
            out = ops.conv2d(Tensor(x), Tensor(kernels), Tensor(bias)).data
            assert out.shape == (n, 5, 4, 2)
            for i in range(n):
                np.testing.assert_allclose(out[i], conv2d_loop(x[i], kernels, bias),
                                           atol=1e-12)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("layer", ["sed.conv2a", "sed.conv2b"])
def test_conv2d_paths_agree_bit_for_bit_on_the_sed_shapes(monkeypatch, layer, n):
    config = ModelConfig()
    kshape = ModelParams.expected_shapes(config)[f"{layer}.kernels"]
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(n, config.patch_size, config.patch_size, kshape[3]))
               .astype(np.float32))
    kernels = Tensor(rng.normal(size=kshape).astype(np.float32))
    bias = Tensor(rng.normal(size=kshape[0]).astype(np.float32))
    outs = []
    for threshold in CONV2D_THRESHOLDS:
        monkeypatch.setattr(ops, "TAP_PRODUCT_MIN", threshold)
        outs.append(ops.conv2d(x, kernels, bias).data)
    assert outs[0].dtype == np.float32
    np.testing.assert_array_equal(outs[0], outs[1])


def _conv2d_paths_taken(monkeypatch, config, n, dtype):
    """Which path each conv2d forward of one model forward took, in order."""
    taken = []
    by_tap, conv2d = ops._conv2d_by_tap, ops.conv2d

    def spy_by_tap(*args):
        taken[-1] = "by_tap"
        return by_tap(*args)

    def spy_conv2d(*args):
        taken.append("fold")
        return conv2d(*args)

    monkeypatch.setattr(ops, "_conv2d_by_tap", spy_by_tap)
    monkeypatch.setattr(ops, "conv2d", spy_conv2d)
    params = ModelParams.initialize(config, seed=0, dtype=dtype)
    size = (n, config.patch_size, config.patch_size, config.input_channels)
    forward(Tensor(np.zeros(size, dtype=dtype)), params)
    return taken


@pytest.mark.parametrize("n", [64, 256])
def test_default_sed_convs_run_tap_by_tap(monkeypatch, n):
    assert _conv2d_paths_taken(monkeypatch, ModelConfig(), n, np.float32) == \
        ["by_tap", "by_tap"]


def test_gradcheck_toy_convs_fold(monkeypatch):
    # Criterion 01's toy model at its gradient-check batch of 2, in float64.
    toy = ModelConfig(patch_size=3, num_views=4, view_components=2, encoder_kernels=2,
                      squeeze_channels=4, token_channels=8, num_heads=2, feature_dim=8,
                      num_classes=3)
    assert _conv2d_paths_taken(monkeypatch, toy, 2, np.float64) == ["fold", "fold"]


def test_conv2d_rejects_channel_mismatch():
    with pytest.raises(DimensionError):
        ops.conv2d(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((2, 3, 3, 5))),
                   Tensor(np.zeros(2)))


def test_affine_matches_manual():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
    out = ops.affine(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, x @ w + b, atol=1e-15)
    stacked = ops.affine(Tensor(x.reshape(4, 1, 3)), Tensor(w), Tensor(b))
    np.testing.assert_array_equal(stacked.data, out.data)
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
        np.testing.assert_allclose(
            got[n], attention_longdouble(tokens[n], *wqkv[0]) + tokens[n], atol=1e-9)


def test_elementwise_ops():
    a = np.array([[1.0, -2.0], [0.0, 3.0]])
    b = np.array([[4.0, 5.0], [6.0, -7.0]])
    np.testing.assert_array_equal(ops.relu(Tensor(a)).data, np.maximum(a, 0))
    np.testing.assert_array_equal(add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(mul(Tensor(a), Tensor(b)).data, a * b)
    np.testing.assert_array_equal(mul(Tensor(a), Tensor(np.full_like(a, -1.5))).data,
                                  a * -1.5)
    assert sum_all(Tensor(a)).item() == pytest.approx(a.sum())
    with pytest.raises(DimensionError):
        add(Tensor(a), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        mul(Tensor(a), Tensor(np.zeros(3)))


def test_reshape_and_prepend_row():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 6))
    assert reshape(Tensor(x), (3, 4)).data.shape == (3, 4)
    row = rng.normal(size=3)
    tokens = rng.normal(size=(4, 2, 3))
    out = ops.prepend_row(Tensor(row), Tensor(tokens)).data
    np.testing.assert_array_equal(
        out, np.concatenate([np.tile(row, (4, 1, 1)), tokens], axis=1))


def test_prepend_row_broadcasts_a_vector_and_rejects_bad_shapes():
    v = np.array([1.0, 2.0, 3.0])
    tokens = np.random.default_rng(12).normal(size=(4, 2, 3))
    out = ops.prepend_row(Tensor(v), Tensor(tokens)).data
    assert out.shape == (4, 3, 3)
    np.testing.assert_array_equal(out[:, :1], np.broadcast_to(v, (4, 1, 3)))
    np.testing.assert_array_equal(out[:, 1:], tokens)
    with pytest.raises(DimensionError):
        ops.prepend_row(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 1, 2))))
    with pytest.raises(DimensionError):
        ops.prepend_row(Tensor(v), Tensor(np.zeros((3, 1, 2))))
    with pytest.raises(DimensionError):
        ops.prepend_row(Tensor(v), Tensor(np.zeros((3, 3))))


def test_box_mean_matches_plain_mean():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 5, 5, 3))
    boxes = [((1, 4), (0, 3)), ((0, 3), (2, 5)), ((2, 5), (2, 5))]
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


def test_box_mean_rejects_boxes_of_mixed_sizes():
    x = Tensor(np.zeros((2, 5, 5, 3)))
    for boxes in ([((0, 2), (0, 2)), ((0, 2), (0, 3))],   # same rows, one column more
                  [((0, 3), (0, 2)), ((0, 2), (0, 3))],   # same pixel count
                  [((1, 4), (0, 3)), ((0, 5), (2, 4)), ((4, 5), (4, 5))]):
        with pytest.raises(DimensionError, match="one size"):
            ops.box_mean(x, boxes)


def _mirrored(box, rows, cols):
    """The box a 180-degree flip of a rows x cols extent moves ``box`` to."""
    (r0, r1), (c0, c1) = box
    return (rows - r1, rows - r0), (cols - c1, cols - c0)


def _boxes_of_one_size(rng, rows, cols, count):
    """``count`` random boxes inside a rows x cols extent, all of one random size."""
    h, w = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
    return [((int(r), int(r) + h), (int(c), int(c) + w))
            for r, c in zip(rng.integers(0, rows - h + 1, size=count),
                            rng.integers(0, cols - w + 1, size=count))]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_box_mean_is_exactly_reversal_invariant(rows, cols, seed):
    """The fold summation makes each box mean bit-identical under a
    180-degree flip of the input, read from the mirrored box: the float32
    property the tokenizer equivariance guarantee rests on. One to four
    random boxes of one random size, which may be the full window."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, rows, cols, 2)).astype(np.float32)
    flipped = x[:, ::-1, ::-1, :].copy()
    boxes = _boxes_of_one_size(rng, rows, cols, int(rng.integers(1, 5)))
    a = ops.box_mean(Tensor(x), boxes).data
    b = ops.box_mean(Tensor(flipped), [_mirrored(box, rows, cols) for box in boxes]).data
    assert a.shape == (1, len(boxes), 2)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.sampled_from([3, 5, 7, 9]), st.integers(1, 8),
       st.sampled_from([np.float32, np.float64]), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_box_mean_matches_the_per_box_oracle_bit_for_bit(batch, p, c, dtype, quadrants, seed):
    """The one-gather box mean and its input gradient give the bytes of the
    per-box loop, on the tokenizer's quadrants and on random boxes of one
    size, with -0.0 among the input and output-gradient entries."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        a = rng.normal(size=shape).astype(dtype)
        a[rng.random(shape) < 0.2] = -0.0
        return a

    x = draw((batch, p, p, c))
    boxes = quadrant_bounds(p) if quadrants else \
        _boxes_of_one_size(rng, p, p, int(rng.integers(1, 6)))
    go = draw((batch, len(boxes), c))
    xt = Tensor(x, requires_grad=True)
    with GradGraph() as graph:
        out = ops.box_mean(xt, boxes)
        loss = sum_all(mul(out, Tensor(go)))
    graph.backward(loss)
    want = box_mean_per_box(x, boxes)
    assert out.data.dtype == want.dtype and out.data.shape == want.shape
    assert out.data.tobytes() == want.tobytes()
    want_grad = box_mean_per_box_grad(x, boxes, go)
    assert xt.grad.dtype == want_grad.dtype and xt.grad.shape == want_grad.shape
    assert xt.grad.tobytes() == want_grad.tobytes()


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
    assert add(x, x).dtype == dtype
    assert mul(x, x).dtype == dtype
    tokens = Tensor(rng.normal(size=(2, 5, 6)).astype(dtype))
    assert ops.attention(tokens, Tensor(rng.normal(size=(2, 3, 6, 3)).astype(dtype))).dtype == dtype
    row = ops.prepend_row(Tensor(np.zeros(6, dtype=dtype)), tokens)
    assert row.dtype == dtype
    assert ops.affine(row, Tensor(np.zeros((36, 2), dtype=dtype)),
                      Tensor(np.zeros(2, dtype=dtype))).dtype == dtype
