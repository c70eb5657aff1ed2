"""The classifier network: spectral encoder-decoder, spatial-pooling
tokenization, global token, multi-head attention with residual, feature
head and classifier — plus the ablation switches that disable the
encoder-decoder or the learnable global token. (The MPCA ablation changes
only the input's views and components.)

Every model piece, :func:`forward` included, takes batched (N, ...)
tensors; one patch is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import hsz, ops
from .errors import (CompatibilityError, ConfigError, DimensionError, FormatError,
                     PayloadLengthError)
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters and ablation switches.

    Channel widths: the 3-D encoder expands each input channel by
    ``encoder_kernels``, the first 2-D conv squeezes to
    ``squeeze_channels``, the second expands to ``token_channels`` (the
    token length). The widths must form a U-shape: expanded > squeezed <
    token width.
    """

    patch_size: int = 5
    num_views: int = 10
    view_components: int = 3
    encoder_kernels: int = 8
    squeeze_channels: int = 40
    token_channels: int = 64
    num_heads: int = 8
    feature_dim: int = 64
    num_classes: int = 16
    use_sed: bool = True
    use_global_token: bool = True

    def __post_init__(self):
        for name in ("patch_size", "num_views", "view_components", "encoder_kernels",
                     "squeeze_channels", "token_channels", "num_heads", "feature_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.patch_size % 2 == 0:
            raise ConfigError(f"patch_size must be odd, got {self.patch_size}")
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.token_channels % self.num_heads != 0:
            raise ConfigError(
                f"token_channels {self.token_channels} not divisible by "
                f"num_heads {self.num_heads}")
        if self.use_sed:
            expanded = self.encoder_kernels * self.input_channels
            if not (expanded > self.squeeze_channels and
                    self.token_channels > self.squeeze_channels):
                raise ConfigError(
                    f"channel widths must form a U-shape: expanded {expanded} and "
                    f"token width {self.token_channels} must both exceed the squeeze "
                    f"width {self.squeeze_channels}")
        count = sum(math.prod(shape) for shape in ModelParams.expected_shapes(self).values())
        if count * 8 > np.iinfo(np.intp).max:  # float64 parameters, as gradcheck uses
            raise ConfigError(f"a model of {count} parameters is too big to allocate")

    @property
    def input_channels(self) -> int:
        return self.num_views * self.view_components

    @property
    def head_dim(self) -> int:
        return self.token_channels // self.num_heads

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelConfig":
        """Config from a JSON object that names every field, each value of its
        field's type (an int that is not a bool, or a bool)."""
        types = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(doc) - set(types)
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        missing = [name for name in types if name not in doc]
        if missing:
            raise ConfigError(f"model config lacks keys: {missing}")
        for name, value in doc.items():
            if type(value) is not types[name]:
                raise ConfigError(f"model config {name} must be {types[name].__name__}, "
                                  f"got {type(value).__name__}")
        return cls(**doc)


class ModelParams:
    """All trainable arrays, in a fixed canonical order.

    ``expected_shapes`` drives initialization, checkpoint layout and the
    optimizer state, so its order must never change between versions.
    ``global_token`` is always stored but trains only when
    ``use_global_token`` is set.

    The parameters live in one vector ``values`` and their gradients in one
    vector ``grads`` of the same size, both in canonical order. Each named
    Tensor's ``data`` and ``grad`` are reshaped views of slices of those two,
    so nothing may rebind them: write into them instead. Parameters made by
    :meth:`bound_to` without a gradient vector, as every loaded checkpoint
    is, have ``grads`` None and every ``grad`` None.
    """

    def __init__(self, config: ModelConfig, tensors: dict):
        """Copy ``tensors`` (name -> Tensor, any float dtype) into the vectors."""
        shapes = self.expected_shapes(config)
        for name, shape in shapes.items():
            if name not in tensors:
                raise ConfigError(f"missing parameter {name!r}")
            if tensors[name].data.shape != shape:
                raise CompatibilityError(
                    f"parameter {name!r} has shape {tensors[name].data.shape}, "
                    f"config implies {shape}")
        extra = set(tensors) - set(shapes)
        if extra:
            raise ConfigError(f"unexpected parameters: {sorted(extra)}")
        values = np.concatenate([tensors[n].data.ravel() for n in shapes])
        self._bind(config, shapes, values, np.zeros_like(values))

    def _bind(self, config: ModelConfig, shapes: dict, values: np.ndarray,
              grads: np.ndarray | None):
        """Make each named Tensor a view of its slice of ``values``, and its
        gradient a view of the same slice of ``grads`` if there is one."""
        self.config, self.values, self.grads = config, values, grads
        self._tensors = {}
        end = 0
        for name, shape in shapes.items():
            start, end = end, end + math.prod(shape)
            t = Tensor(values[start:end].reshape(shape), requires_grad=True)
            t.grad = None if grads is None else grads[start:end].reshape(shape)
            self._tensors[name] = t

    @classmethod
    def from_vector(cls, config: ModelConfig, flat: np.ndarray) -> "ModelParams":
        """Parameters copied from one vector of every array in canonical order."""
        return cls.bound_to(config, flat.copy())

    @classmethod
    def bound_to(cls, config: ModelConfig, values: np.ndarray,
                 grads: np.ndarray | None = None) -> "ModelParams":
        """Parameters that are views of ``values``, one vector of every array
        in canonical order, not a copy of it; their gradients are views of
        ``grads``, a vector of the same shape, or None with no vector."""
        shapes = cls.expected_shapes(config)
        total = sum(math.prod(shape) for shape in shapes.values())
        if values.shape != (total,):
            raise CompatibilityError(
                f"parameter vector has shape {values.shape}, config implies ({total},)")
        params = cls.__new__(cls)
        params._bind(config, shapes, values, grads)
        return params

    @staticmethod
    def expected_shapes(config: ModelConfig) -> dict:
        """name -> array shape, in canonical order."""
        k3 = config.token_channels
        shapes = {}
        for prefix, _, kernel, _ in _sed_layers(config):
            shapes[f"{prefix}.kernels"] = kernel
            shapes[f"{prefix}.bias"] = kernel[:1]
        shapes["global_token"] = (k3,)
        shapes["attn.wqkv"] = (config.num_heads, 3, k3, config.head_dim)
        shapes["feature.weight"] = (5 * k3, config.feature_dim)
        shapes["feature.bias"] = (config.feature_dim,)
        shapes["classifier.weight"] = (config.feature_dim, config.num_classes)
        shapes["classifier.bias"] = (config.num_classes,)
        return shapes

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int, dtype=np.float32) -> "ModelParams":
        """Glorot-uniform weights, zero biases, Gaussian(0, 0.02) global token."""
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape in cls.expected_shapes(config).items():
            if name == "global_token":
                arr = rng.normal(0.0, 0.02, size=shape)
            elif name.endswith(".bias"):
                arr = np.zeros(shape)
            elif name.endswith(".kernels"):
                fan_in = int(np.prod(shape[1:]))
                if "conv3" in name:  # single-channel 3-D kernel
                    fan_out = shape[0] * fan_in
                else:  # 2-D kernel: receptive field excludes the channel depth
                    fan_out = shape[0] * shape[1] * shape[2]
                bound = math.sqrt(6.0 / (fan_in + fan_out))
                arr = rng.uniform(-bound, bound, size=shape)
            else:  # affine / projection weights (..., n_in, n_out)
                bound = math.sqrt(6.0 / (shape[-2] + shape[-1]))
                arr = rng.uniform(-bound, bound, size=shape)
            tensors[name] = Tensor(arr.astype(dtype), requires_grad=True)
        return cls(config, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def named_parameters(self):
        """All (name, Tensor) pairs in canonical order."""
        return list(self._tensors.items())

    def trainable_parameters(self):
        """Canonical order, minus the global token when its ablation is off."""
        return [(name, t) for name, t in self.named_parameters()
                if name != "global_token" or self.config.use_global_token]

    def zero_grads(self):
        self.grads.fill(0)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self._tensors)


def save_params(path, params: ModelParams):
    """Write a checkpoint: JSON config header + arrays as f32le, canonical order."""
    header = {
        "format_version": 2,
        "config": params.config.to_json_dict(),
        "arrays": [{"name": n, "shape": list(t.data.shape)}
                   for n, t in params.named_parameters()],
        "dtype": "f32le",
    }
    hsz.write_framed(path, hsz.MODEL_MAGIC, header, params.values.astype("<f4").tobytes())


def _merge_v1_heads(manifest: list, config: ModelConfig) -> list:
    """Format-1 manifest with its per-head projections read as one ``attn.wqkv``.

    Format 1 stored arrays ``attn.head{h}.w{q,k,v}`` of shape (C, d), head
    by head and q, k, v within a head, where format 2 stores ``attn.wqkv``:
    its (heads, 3, C, d) layout has exactly those bytes in that order.
    """
    c, d = config.token_channels, config.head_dim
    per_head = [{"name": f"attn.head{h}.{proj}", "shape": [c, d]}
                for h in range(config.num_heads) for proj in ("wq", "wk", "wv")]
    i = list(ModelParams.expected_shapes(config)).index("attn.wqkv")
    if manifest[i:i + len(per_head)] != per_head:
        raise CompatibilityError("format-1 checkpoint lacks the per-head attention arrays")
    merged = {"name": "attn.wqkv", "shape": [config.num_heads, 3, c, d]}
    return manifest[:i] + [merged] + manifest[i + len(per_head):]


def _is_array_entry(entry) -> bool:
    """Whether ``entry`` reads as one checkpoint manifest entry."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(s) is int and s >= 0 for s in entry["shape"]))


def load_params(path) -> ModelParams:
    """Read a checkpoint written by :func:`save_params`, or a format-1 one.

    Format 1 differs only in the per-head attention arrays (see
    :func:`_merge_v1_heads`) and a ``use_mpca`` config key, which is dropped.
    """
    header, payload = hsz.read_framed(path, hsz.MODEL_MAGIC)
    if header.get("dtype") != "f32le":
        raise CompatibilityError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    version = header.get("format_version")
    if type(version) is not int or version not in (1, 2):
        raise CompatibilityError(f"{path}: unsupported format_version {version!r}")
    config_doc = header.get("config", {})
    if not isinstance(config_doc, dict):
        raise FormatError(f"{path}: header config must be a JSON object")
    manifest = header.get("arrays", [])
    if not (isinstance(manifest, list) and all(_is_array_entry(e) for e in manifest)):
        raise FormatError(f"{path}: header arrays must be a list of "
                          f"{{name: string, shape: [non-negative integers]}}")
    if version == 1:
        config_doc = {k: v for k, v in config_doc.items() if k != "use_mpca"}
    config = ModelConfig.from_json_dict(config_doc)
    if version == 1:
        manifest = _merge_v1_heads(manifest, config)
    expected = ModelParams.expected_shapes(config)
    if [(e["name"], tuple(e["shape"])) for e in manifest] != list(expected.items()):
        raise CompatibilityError(f"{path}: checkpoint arrays do not match its config")
    total = sum(math.prod(e["shape"]) for e in manifest) * 4
    if len(payload) != total:
        raise PayloadLengthError(
            f"{path}: payload is {len(payload)} bytes, manifest implies {total}")
    return ModelParams.from_vector(config, np.frombuffer(payload, dtype="<f4"))


def _sed_layers(config: ModelConfig) -> list:
    """The encoder-decoder's 3x3 conv + ReLU layers in order, as (parameter
    prefix, op, kernel shape, trace key), each bias one entry per kernel;
    built per call, so a swapped ``ops.conv3d`` or ``ops.conv2d`` counts."""
    c_in, k3, k8 = config.input_channels, config.token_channels, config.encoder_kernels
    if not config.use_sed:
        return [("sed.flat", ops.conv2d, (k3, 3, 3, c_in), "sed.decoded")]
    return [("sed.conv3", ops.conv3d, (k8, 3, 3, 3), "sed.expanded"),
            ("sed.conv2a", ops.conv2d, (config.squeeze_channels, 3, 3, k8 * c_in), "sed.squeezed"),
            ("sed.conv2b", ops.conv2d, (k3, 3, 3, config.squeeze_channels), "sed.decoded")]


def sed_forward(patch: Tensor, params: ModelParams, trace: dict = None) -> Tensor:
    """Spectral encoder-decoder: expand (3-D conv) / squeeze / re-expand.

    (N, P, P, C_in) -> (N, P, P, token_channels), spatial size preserved at
    every stage. Under the encoder-decoder ablation a single 3x3 conv maps
    straight to the token width instead.
    """
    config = params.config
    expect = config.input_channels
    if patch.data.shape[-1] != expect:
        raise DimensionError(
            f"patch has {patch.data.shape[-1]} channels, config implies {expect}")
    if patch.data.shape[-2] != config.patch_size or patch.data.shape[-3] != config.patch_size:
        raise DimensionError(
            f"patch spatial extent {patch.data.shape[-3:-1]} does not match "
            f"patch_size {config.patch_size}")
    x = patch
    for prefix, op, _, key in _sed_layers(config):
        x = ops.relu(op(x, params[f"{prefix}.kernels"], params[f"{prefix}.bias"]))
        if trace is not None:
            trace[key] = x.data.shape
    return x


def quadrant_bounds(patch_size: int):
    """(row range, col range) of the four center-overlapping quadrants.

    Order: top-left, top-right, bottom-left, bottom-right; every quadrant is
    ceil(P/2) square and contains the center pixel (c, c), c = P // 2.
    """
    if patch_size % 2 == 0:
        raise ConfigError(f"patch size must be odd, got {patch_size}")
    c = patch_size // 2
    lo, hi = (0, c + 1), (c, patch_size)
    return [(lo, lo), (lo, hi), (hi, lo), (hi, hi)]


def tokenize(feature: Tensor) -> Tensor:
    """Mean-pool each quadrant per channel: (N, P, P, C) -> tokens (N, 4, C).

    Token i pools quadrant i of :func:`quadrant_bounds`; all four come from
    one :func:`ops.box_mean`, so they take one tape closure.
    """
    if feature.data.ndim != 4:
        raise DimensionError(f"feature must be (N,P,P,C), got {feature.data.shape}")
    p = feature.data.shape[1]
    if feature.data.shape[2] != p:
        raise DimensionError(f"feature spatial extent must be square, got {feature.data.shape}")
    return ops.box_mean(feature, quadrant_bounds(p))


def assemble_tokens(tokens: Tensor, params: ModelParams) -> Tensor:
    """Prepend the global token (or a zero row under its ablation, which
    ``params.config.use_global_token`` selects).

    No positional encoding is added anywhere. Quadrant tokens (N, 4, C) ->
    rows (N, 5, C): row 0 the global token, rows 1-4 the quadrant tokens,
    joined by one :func:`ops.prepend_row`.
    """
    if tokens.data.ndim != 3 or tokens.data.shape[1] != 4:
        raise DimensionError(f"expected quadrant tokens (N,4,C), got {tokens.data.shape}")
    row = params["global_token"] if params.config.use_global_token else \
        Tensor(np.zeros(tokens.data.shape[2], dtype=tokens.data.dtype))
    return ops.prepend_row(row, tokens)


def multi_head(tokens: Tensor, params: ModelParams) -> Tensor:
    """Concatenated attention heads plus the residual, (N, 5, C) -> (N, 5, C).

    TA = concat_h(head_h(Tokens)) + Tokens; every head and the residual
    run in one :func:`ops.attention` over the (heads, 3, C, d) array
    ``attn.wqkv``.
    """
    return ops.attention(tokens, params["attn.wqkv"])


def feature_and_classify(ta: Tensor, params: ModelParams):
    """Fuse the 5 attended tokens to the feature vector, classify.

    (N, 5, C) -> logits (N, K) and features (N, feature_dim); the feature
    affine flattens the tokens itself. Class probabilities are
    softmax(logits); the predicted class is the lowest-index argmax.
    """
    fea = ops.affine(ta, params["feature.weight"], params["feature.bias"])
    logits = ops.affine(fea, params["classifier.weight"], params["classifier.bias"])
    return logits, fea


def predict(logits: np.ndarray) -> np.ndarray:
    """1-based class ids from (N, K) logits; ties go to the lowest index."""
    return np.argmax(logits, axis=-1) + 1


def forward(patches: Tensor, params: ModelParams, trace: dict = None) -> Tensor:
    """Full composition: encoder-decoder -> tokenize -> attention -> classify.

    A batch (N, P, P, C_in) gives logits (N, K); ``trace`` collects every
    stage's batched shape.
    """
    if patches.data.ndim != 4:
        raise DimensionError(f"patches must be (N,P,P,C), got {patches.data.shape}")
    feature = sed_forward(patches, params, trace=trace)
    tokens = assemble_tokens(tokenize(feature), params)
    ta = multi_head(tokens, params)
    logits, fea = feature_and_classify(ta, params)
    if trace is not None:
        trace.update(tokens=tokens.data.shape, attended=ta.data.shape,
                     features=fea.data.shape, logits=logits.data.shape)
    return logits
