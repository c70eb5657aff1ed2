"""Network components: encoder-decoder, tokenizer, attention, heads, ckpt IO."""

import dataclasses
import pathlib

import numpy as np
import pytest

from hsimvt import (CompatibilityError, ConfigError, DimensionError,
                    ModelConfig, ModelParams, Tensor, assemble_tokens,
                    feature_and_classify, forward, load_params, multi_head,
                    predict, quadrant_bounds, rotate180, save_params,
                    sed_forward, tokenize)
from hsimvt import hsz, ops

from oracles import assert_flat_views, attention_longdouble, quadrant_means_loop

TOY = ModelConfig(patch_size=3, num_views=2, view_components=2,
                  encoder_kernels=4, squeeze_channels=6, token_channels=8,
                  num_heads=2, feature_dim=8, num_classes=3)

# Written by the format-1 save_params (per-head attn.head{h}.w{q,k,v} arrays,
# a use_mpca config key) from ModelParams.initialize(TOY, seed=19).
V1_CHECKPOINT = pathlib.Path(__file__).parent / "fixtures" / "toy_v1_seed19.hsz"


# -------------------------------------------------------------------- config

def test_config_default_shapes():
    config = ModelConfig()
    assert config.input_channels == 30
    assert config.head_dim == 8
    shapes = ModelParams.expected_shapes(config)
    assert shapes["sed.conv3.kernels"] == (8, 3, 3, 3)
    assert shapes["sed.conv2a.kernels"] == (40, 3, 3, 240)
    assert shapes["sed.conv2b.kernels"] == (64, 3, 3, 40)
    assert shapes["feature.weight"] == (320, 64)
    assert shapes["classifier.weight"] == (64, 16)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="odd"):
        ModelConfig(patch_size=4)
    with pytest.raises(ConfigError, match="classes"):
        ModelConfig(num_classes=1)
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(token_channels=66)
    with pytest.raises(ConfigError, match="positive"):
        ModelConfig(num_views=0)


def test_config_u_shape_only_constrains_sed_path():
    with pytest.raises(ConfigError, match="U-shape"):
        ModelConfig(squeeze_channels=300)  # not < expanded 240... wait 300 > 240
    with pytest.raises(ConfigError, match="U-shape"):
        ModelConfig(squeeze_channels=64)  # == token width, must be strictly below
    ModelConfig(squeeze_channels=300, use_sed=False)  # no constraint without SED


def test_config_json_round_trip_and_unknown_keys():
    config = ModelConfig(patch_size=7, num_classes=9, use_global_token=False)
    assert ModelConfig.from_json_dict(config.to_json_dict()) == config
    with pytest.raises(ConfigError, match="unknown"):
        ModelConfig.from_json_dict({"patch_size": 5, "n_heads": 8})


# ---------------------------------------------------------------------- init

def test_initialize_within_glorot_bounds():
    params = ModelParams.initialize(ModelConfig(), seed=0)
    for name, t in params.named_parameters():
        assert t.data.dtype == np.float32
        assert np.isfinite(t.data).all()
        if name.endswith(".bias"):
            assert (t.data == 0).all()
    w = params["feature.weight"].data
    bound = np.sqrt(6.0 / (320 + 64))
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.5 * bound  # actually spread over the interval
    assert np.abs(params["global_token"].data).max() < 0.2


def test_initialize_seeded():
    a = ModelParams.initialize(TOY, seed=5)
    b = ModelParams.initialize(TOY, seed=5)
    c = ModelParams.initialize(TOY, seed=6)
    for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_array_equal(ta.data, tb.data)
    assert (a["feature.weight"].data != c["feature.weight"].data).any()


def test_trainable_parameters_respect_gt_ablation():
    with_gt = ModelParams.initialize(TOY, seed=0)
    names = [n for n, _ in with_gt.trainable_parameters()]
    assert "global_token" in names
    ablated_cfg = ModelConfig(**{**TOY.to_json_dict(), "use_global_token": False})
    without = ModelParams.initialize(ablated_cfg, seed=0)
    assert "global_token" not in [n for n, _ in without.trainable_parameters()]
    # the array itself still exists so checkpoints stay layout-stable
    assert without["global_token"].data.shape == (8,)


def test_params_validate_shapes_and_names():
    good = ModelParams.initialize(TOY, seed=0)
    tensors = dict(good.named_parameters())
    tensors["feature.bias"] = Tensor(np.zeros(9, dtype=np.float32))
    with pytest.raises(CompatibilityError):
        ModelParams(TOY, tensors)
    tensors = dict(good.named_parameters())
    del tensors["global_token"]
    with pytest.raises(ConfigError, match="missing"):
        ModelParams(TOY, tensors)
    tensors = dict(good.named_parameters())
    tensors["extra"] = Tensor(np.zeros(1))
    with pytest.raises(ConfigError, match="unexpected"):
        ModelParams(TOY, tensors)


def test_params_are_views_of_one_values_and_one_grads_vector(tmp_path):
    params = ModelParams.initialize(TOY, seed=0)
    assert_flat_views(params)
    assert params.values.dtype == np.float32
    copied = params.copy()
    assert_flat_views(copied)
    assert not np.shares_memory(copied.values, params.values)
    assert copied.values.tobytes() == params.values.tobytes()
    save_params(tmp_path / "m.hsz", params)
    loaded = load_params(tmp_path / "m.hsz")
    assert_flat_views(loaded)
    assert loaded.values.tobytes() == params.values.tobytes()
    assert loaded.values.flags.writeable


def test_dict_constructor_copies_and_keeps_float64():
    source = ModelParams.initialize(TOY, seed=1)
    tensors = {n: Tensor(t.data.astype(np.float64)) for n, t in source.named_parameters()}
    params = ModelParams(TOY, tensors)
    assert params.values.dtype == params.grads.dtype == np.float64
    assert_flat_views(params)
    assert all(t.data.dtype == np.float64 for _, t in params.named_parameters())
    np.testing.assert_array_equal(params.values, source.values)
    assert not any(np.shares_memory(params[n].data, t.data) for n, t in tensors.items())


# --------------------------------------------------------------- sed_forward

def test_sed_stage_shapes_match_defaults():
    config = ModelConfig()
    params = ModelParams.initialize(config, seed=1)
    patch = Tensor(np.random.default_rng(0).normal(size=(1, 5, 5, 30)).astype(np.float32))
    trace = {}
    out = sed_forward(patch, params, trace=trace)
    assert trace["sed.expanded"] == (1, 5, 5, 240)
    assert trace["sed.squeezed"] == (1, 5, 5, 40)
    assert trace["sed.decoded"] == (1, 5, 5, 64)
    assert out.data.shape == (1, 5, 5, 64)
    batched = sed_forward(Tensor(np.concatenate([patch.data, patch.data])), params)
    assert batched.data.shape == (2, 5, 5, 64)


def test_sed_zero_input_zero_biases_gives_zero():
    params = ModelParams.initialize(TOY, seed=2)  # biases start at zero
    out = sed_forward(Tensor(np.zeros((2, 3, 3, 4), dtype=np.float32)), params)
    np.testing.assert_array_equal(out.data, 0.0)


def test_sed_rejects_wrong_shapes():
    params = ModelParams.initialize(TOY, seed=0)
    with pytest.raises(DimensionError, match="channels"):
        sed_forward(Tensor(np.zeros((1, 3, 3, 5), dtype=np.float32)), params)
    with pytest.raises(DimensionError, match="spatial"):
        sed_forward(Tensor(np.zeros((1, 5, 5, 4), dtype=np.float32)), params)


def test_sed_ablation_path_gives_token_width():
    config = ModelConfig(**{**TOY.to_json_dict(), "use_sed": False})
    params = ModelParams.initialize(config, seed=3)
    assert "sed.flat.kernels" in dict(params.named_parameters())
    out = sed_forward(Tensor(np.ones((1, 3, 3, 4), dtype=np.float32)), params)
    assert out.data.shape == (1, 3, 3, 8)
    assert (out.data >= 0).all()  # the substitute conv is relu'd too


# ------------------------------------------------------------------ tokenize

def test_quadrant_bounds_all_contain_center():
    for p in (3, 5, 7, 9):
        c = p // 2
        bounds = quadrant_bounds(p)
        assert len(bounds) == 4
        for rows, cols in bounds:
            assert rows[1] - rows[0] == (p + 1) // 2
            assert cols[1] - cols[0] == (p + 1) // 2
            assert rows[0] <= c < rows[1] and cols[0] <= c < cols[1]
    with pytest.raises(ConfigError):
        quadrant_bounds(4)


def test_tokenize_hand_example_p3():
    values = np.arange(1, 10, dtype=np.float32).reshape(1, 3, 3, 1)
    tokens = tokenize(Tensor(values))
    assert tokens.data.shape == (1, 4, 1)
    got = [float(v) for v in tokens.data[0, :, 0]]
    assert got == [3.0, 4.0, 6.0, 7.0]


def test_tokenize_constant_channel():
    values = np.full((1, 5, 5, 3), 0.0, dtype=np.float32)
    values[..., 1] = 2.5
    for token in tokenize(Tensor(values)).data[0]:
        np.testing.assert_array_equal(token, [0.0, 2.5, 0.0])


def test_tokenize_matches_loop_oracle():
    rng = np.random.default_rng(4)
    for p in (3, 5, 7):
        feature = rng.normal(size=(p, p, 6)).astype(np.float32)
        got = tokenize(Tensor(feature[None])).data[0]
        want = quadrant_means_loop(feature)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-6)


def test_tokenize_rotation_equivariance_exact():
    rng = np.random.default_rng(5)
    for p in (3, 5, 7, 9):
        feature = rng.normal(size=(p, p, 8)).astype(np.float32)
        straight = tokenize(Tensor(feature[None])).data
        flipped = tokenize(Tensor(rotate180(feature[None]))).data
        np.testing.assert_array_equal(flipped, straight[:, ::-1])  # bit-exact, not approx


def test_tokenize_batched_matches_single():
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(4, 5, 5, 3)).astype(np.float32)
    batched = tokenize(Tensor(batch)).data
    for i in range(4):
        singles = tokenize(Tensor(batch[i:i + 1])).data
        np.testing.assert_array_equal(batched[i], singles[0])


# ------------------------------------------------------------ token assembly

def test_assemble_prepends_stored_global_token():
    params = ModelParams.initialize(TOY, seed=7)
    tokens = Tensor(np.stack([np.full((1, 8), float(i), dtype=np.float32)
                              for i in range(1, 5)], axis=1))
    rows = assemble_tokens(tokens, params).data
    assert rows.shape == (1, 5, 8)
    np.testing.assert_array_equal(rows[0, 0], params["global_token"].data)
    for i in range(1, 5):
        np.testing.assert_array_equal(rows[:, i], tokens.data[:, i - 1])


def test_assemble_zero_row_under_gt_ablation():
    params = ModelParams.initialize(dataclasses.replace(TOY, use_global_token=False), seed=8)
    tokens = Tensor(np.ones((1, 4, 8), dtype=np.float32))
    rows = assemble_tokens(tokens, params).data
    np.testing.assert_array_equal(rows[0, 0], 0.0)
    with pytest.raises(DimensionError):
        assemble_tokens(Tensor(tokens.data[:, :3]), params)


def test_assemble_permutation_moves_rows():
    params = ModelParams.initialize(TOY, seed=9)
    tokens = np.stack([np.full((1, 8), float(i), dtype=np.float32) for i in range(1, 5)],
                      axis=1)
    swapped = assemble_tokens(Tensor(tokens[:, ::-1]), params).data
    np.testing.assert_array_equal(swapped[:, 1], tokens[:, 3])
    np.testing.assert_array_equal(swapped[:, 4], tokens[:, 0])


# ----------------------------------------------------------------- attention

def test_attention_identical_tokens_identical_rows():
    rng = np.random.default_rng(10)
    row = rng.normal(size=8).astype(np.float32)
    tokens = Tensor(np.tile(row, (1, 5, 1)))
    wqkv = Tensor(rng.normal(size=(2, 3, 8, 4)).astype(np.float32))
    out = ops.attention(tokens, wqkv).data[0]
    np.testing.assert_allclose(out, np.tile(out[0], (5, 1)), atol=1e-7)


def test_attention_zero_query_averages_values():
    rng = np.random.default_rng(11)
    tokens = Tensor(rng.normal(size=(1, 5, 8)).astype(np.float32))
    wk = rng.normal(size=(8, 8)).astype(np.float32)
    wv = rng.normal(size=(8, 8)).astype(np.float32)
    wqkv = Tensor(np.stack([np.zeros_like(wk), wk, wv])[None])
    out = ops.attention(tokens, wqkv).data[0]
    v = tokens.data[0] @ wv
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (5, 1)) + tokens.data[0],
                               atol=1e-6)


def test_attention_matches_longdouble_oracle():
    rng = np.random.default_rng(12)
    tokens64 = rng.normal(size=(3, 5, 16))
    wqkv64 = rng.normal(size=(2, 3, 16, 8))  # 2 heads of width 8
    got = ops.attention(Tensor(tokens64), Tensor(wqkv64)).data
    assert got.shape == (3, 5, 16)
    for n in range(3):
        for h in range(2):
            cols = slice(8 * h, 8 * h + 8)
            want = attention_longdouble(tokens64[n], *wqkv64[h]) + tokens64[n, :, cols]
            np.testing.assert_allclose(got[n, :, cols], want, atol=1e-10)


def test_attention_rejects_mismatched_weights():
    tokens = Tensor(np.zeros((2, 5, 8)))
    with pytest.raises(DimensionError):
        ops.attention(tokens, Tensor(np.zeros((2, 3, 6, 4))))
    with pytest.raises(DimensionError):
        ops.attention(tokens, Tensor(np.zeros((2, 2, 8, 4))))
    with pytest.raises(DimensionError):
        ops.attention(Tensor(np.zeros((5, 8))), Tensor(np.zeros((2, 3, 8, 4))))
    with pytest.raises(DimensionError, match="heads\\*d = 8"):  # no residual fits 2 x 3
        ops.attention(tokens, Tensor(np.zeros((2, 3, 8, 3))))


def test_multi_head_concat_shape_and_residual():
    params = ModelParams.initialize(ModelConfig(), seed=13)
    rng = np.random.default_rng(13)
    tokens = Tensor(rng.normal(size=(1, 5, 64)).astype(np.float32))
    out = multi_head(tokens, params)
    assert out.data.shape == (1, 5, 64)
    params["attn.wqkv"].data[:, 2] = 0.0  # every head's value projection
    np.testing.assert_array_equal(multi_head(tokens, params).data, tokens.data)


# ----------------------------------------------------------- feature head

def test_classifier_with_zero_weights_reads_bias():
    params = ModelParams.initialize(TOY, seed=14)
    params["classifier.weight"].data[...] = 0.0
    params["classifier.bias"].data[...] = [0.0, 1.0, -1.0]
    rng = np.random.default_rng(14)
    logits_a, _ = feature_and_classify(
        Tensor(rng.normal(size=(1, 5, 8)).astype(np.float32)), params)
    logits_b, _ = feature_and_classify(
        Tensor(rng.normal(size=(1, 5, 8)).astype(np.float32)), params)
    np.testing.assert_array_equal(logits_a.data, [[0.0, 1.0, -1.0]])
    np.testing.assert_array_equal(logits_a.data, logits_b.data)


def test_feature_head_shapes_and_softmax_normalization():
    params = ModelParams.initialize(TOY, seed=15)
    rng = np.random.default_rng(15)
    ta = Tensor(rng.normal(size=(3, 5, 8)).astype(np.float32))
    logits, fea = feature_and_classify(ta, params)
    assert logits.data.shape == (3, 3)
    assert fea.data.shape == (3, 8)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_predict_breaks_ties_low():
    logits = np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 2.0]])
    np.testing.assert_array_equal(predict(logits), [2, 1])


def test_argmax_invariant_to_classifier_bias_shift():
    params = ModelParams.initialize(TOY, seed=16)
    rng = np.random.default_rng(16)
    patch = Tensor(rng.normal(size=(1, 3, 3, 4)).astype(np.float32))
    before = predict(forward(patch, params).data)
    params["classifier.bias"].data += np.float32(3.7)
    after = predict(forward(patch, params).data)
    np.testing.assert_array_equal(before, after)


# ------------------------------------------------------------------- forward

def test_forward_deterministic_and_traced():
    params = ModelParams.initialize(TOY, seed=17)
    rng = np.random.default_rng(17)
    patch = rng.normal(size=(3, 3, 4)).astype(np.float32)
    trace = {}
    first = forward(Tensor(patch[None]), params, trace=trace)
    second = forward(Tensor(patch[None]), params)
    np.testing.assert_array_equal(first.data, second.data)
    assert first.data[0].shape == (3,)
    assert trace["tokens"][1:] == (5, 8)
    assert trace["attended"][1:] == (5, 8)
    assert trace["features"][1:] == (8,)
    assert trace["logits"][1:] == (3,)


def test_forward_rejects_a_single_patch():
    params = ModelParams.initialize(TOY, seed=17)
    with pytest.raises(DimensionError, match=r"\(N,P,P,C\)"):
        forward(Tensor(np.zeros((3, 3, 4), dtype=np.float32)), params)


def test_forward_batch_consistent_with_singles():
    params = ModelParams.initialize(TOY, seed=18)
    rng = np.random.default_rng(18)
    batch = rng.normal(size=(4, 3, 3, 4)).astype(np.float32)
    batched = forward(Tensor(batch), params).data
    assert batched.shape == (4, 3)
    for i in range(4):
        np.testing.assert_allclose(batched[i], forward(Tensor(batch[i][None]), params).data[0],
                                    atol=1e-6)


# --------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    params = ModelParams.initialize(TOY, seed=19)
    path = tmp_path / "m.hsz"
    save_params(path, params)
    loaded = load_params(path)
    assert loaded.config == TOY
    for (na, ta), (nb, tb) in zip(params.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    # byte-stable rewrite
    save_params(tmp_path / "m2.hsz", loaded)
    assert (tmp_path / "m.hsz").read_bytes() == (tmp_path / "m2.hsz").read_bytes()


def test_checkpoint_reads_format_1(tmp_path):
    loaded = load_params(V1_CHECKPOINT)
    assert loaded.config == TOY
    fresh = ModelParams.initialize(TOY, seed=19)
    for (na, ta), (nb, tb) in zip(fresh.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    # rewritten as format 2, the arrays keep their bytes and their order
    save_params(tmp_path / "v2.hsz", loaded)
    header, payload = hsz.read_framed(tmp_path / "v2.hsz", hsz.MODEL_MAGIC)
    assert header["format_version"] == 2
    assert payload == hsz.read_framed(V1_CHECKPOINT, hsz.MODEL_MAGIC)[1]


def test_checkpoint_rejects_corruption(tmp_path):
    params = ModelParams.initialize(TOY, seed=20)
    path = tmp_path / "m.hsz"
    save_params(path, params)

    header, payload = hsz.read_framed(path, hsz.MODEL_MAGIC)
    bad_dtype = dict(header, dtype="f64le")
    hsz.write_framed(tmp_path / "bad1.hsz", hsz.MODEL_MAGIC, bad_dtype, payload)
    with pytest.raises(CompatibilityError, match="dtype"):
        load_params(tmp_path / "bad1.hsz")

    bad_manifest = dict(header, arrays=header["arrays"][1:])
    hsz.write_framed(tmp_path / "bad2.hsz", hsz.MODEL_MAGIC, bad_manifest, payload)
    with pytest.raises(CompatibilityError, match="arrays"):
        load_params(tmp_path / "bad2.hsz")

    hsz.write_framed(tmp_path / "bad3.hsz", hsz.MODEL_MAGIC, header, payload[:-8])
    with pytest.raises(CompatibilityError, match="payload"):
        load_params(tmp_path / "bad3.hsz")

    hsz.write_framed(tmp_path / "bad4.hsz", hsz.MODEL_MAGIC, dict(header, format_version=3),
                     payload)
    with pytest.raises(CompatibilityError, match="format_version"):
        load_params(tmp_path / "bad4.hsz")


def test_checkpoint_rejects_a_config_key_left_out(tmp_path):
    """A missing key is refused, not filled in with its default: an ablated
    model would otherwise load as the default one."""
    ablated = ModelConfig(**{**TOY.to_json_dict(), "use_global_token": False})
    save_params(tmp_path / "m.hsz", ModelParams.initialize(ablated, seed=21))
    header, payload = hsz.read_framed(tmp_path / "m.hsz", hsz.MODEL_MAGIC)
    del header["config"]["use_global_token"], header["config"]["num_heads"]
    hsz.write_framed(tmp_path / "short.hsz", hsz.MODEL_MAGIC, header, payload)
    with pytest.raises(ConfigError, match="lacks keys: \\['num_heads', 'use_global_token'\\]"):
        load_params(tmp_path / "short.hsz")
