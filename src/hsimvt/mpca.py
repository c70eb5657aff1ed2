"""Multiview PCA: band grouping, interleaved views, per-view PCA, concat.

The band axis is zero-padded to a whole number of groups of ``g``
consecutive bands; view ``n`` (1-based) collects the n-th band of every
group, so the views are stride-``g`` interleaves that partition the padded
band range. Each view is reduced to ``d`` principal components and the
per-view outputs are concatenated view-major along the channel axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hsz
from .data import HsiCube
from .errors import (ConfigError, DegenerateInputError, DimensionError,
                     FormatError, PayloadLengthError)


@dataclass(frozen=True)
class ViewSpec:
    """Index bookkeeping for the interleaved views of a B-band cube."""

    num_views: int          # g
    num_groups: int         # M = ceil(B / g)
    original_bands: int     # B

    @property
    def padded_bands(self) -> int:
        return self.num_views * self.num_groups

    def band_indices(self, view: int) -> np.ndarray:
        """Padded-cube band indices of 1-based ``view``: (m-1)*g + (view-1)."""
        if not 1 <= view <= self.num_views:
            raise ConfigError(f"view must be in 1..{self.num_views}, got {view}")
        return np.arange(self.num_groups) * self.num_views + (view - 1)


# Cube values copied per block in build_views: 64k float32 (256 KB) stays in L2.
VIEW_BLOCK_VALUES = 1 << 16


def view_spec(num_bands: int, num_views: int) -> ViewSpec:
    if num_views < 1:
        raise ConfigError(f"need at least 1 view, got {num_views}")
    if num_views > num_bands:
        raise ConfigError(f"cannot build {num_views} views from {num_bands} bands")
    return ViewSpec(num_views=num_views,
                    num_groups=math.ceil(num_bands / num_views),
                    original_bands=num_bands)


def build_views(cube: HsiCube, num_views: int):
    """Split a cube into ``num_views`` interleaved views.

    Returns (ViewSpec, list of H x W x M float64 rasters). Bands past the
    original count are zero padding. The rasters are consecutive slices of
    one (views, H, W, M) buffer, filled a block of rows at a time so each
    block of the cube is read from cache by every view.
    """
    spec = view_spec(cube.bands, num_views)
    values = cube.values
    height, width, bands = values.shape
    full, extra = divmod(bands, num_views)  # whole groups; bands of the partial one
    views = np.empty((num_views, height, width, spec.num_groups))
    views[extra:, :, :, full:] = 0.0
    grouped = values[:, :, :full * num_views].reshape(height, width, full, num_views)
    step = max(1, VIEW_BLOCK_VALUES // max(1, width * bands))
    for top in range(0, height, step):
        rows = slice(top, top + step)
        views[:, rows, :, :full] = grouped[rows].transpose(3, 0, 1, 2)
        if extra:
            views[:extra, rows, :, full] = values[rows, :, full * num_views:].transpose(2, 0, 1)
    return spec, list(views)


@dataclass
class PcaModel:
    """Mean + top-d eigenvector projection for one view."""

    mean: np.ndarray         # (M,)
    projection: np.ndarray   # (M, d), columns = unit eigenvectors, descending eigenvalue
    eigenvalues: np.ndarray  # (d,)

    def __post_init__(self):
        m, d = self.projection.shape
        if self.mean.shape != (m,) or self.eigenvalues.shape != (d,):
            raise DimensionError(
                f"inconsistent PCA shapes: mean {self.mean.shape}, "
                f"projection {self.projection.shape}, eigenvalues {self.eigenvalues.shape}")
        gram = self.projection.T @ self.projection
        if not np.allclose(gram, np.eye(d), atol=1e-8):
            raise DegenerateInputError("projection columns are not orthonormal")
        if np.any(self.eigenvalues < 0) or np.any(np.diff(self.eigenvalues) > 0):
            raise DegenerateInputError(
                f"eigenvalues must be non-negative and non-increasing, got {self.eigenvalues}")

    @property
    def input_bands(self) -> int:
        return self.projection.shape[0]

    @property
    def components(self) -> int:
        return self.projection.shape[1]


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry (first on ties) is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, j]))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


def _fit_centered(view: np.ndarray, components: int):
    """:func:`fit_pca`'s model, plus the (H*W, M) centered samples it was fitted on."""
    if view.ndim != 3:
        raise DimensionError(f"view raster must be (H,W,M), got {view.shape}")
    bands = view.shape[2]
    if not 1 <= components <= bands:
        raise ConfigError(f"components must be in 1..{bands}, got {components}")
    samples = view.reshape(-1, bands).astype(np.float64, copy=False)
    if samples.shape[0] < 2:
        raise DegenerateInputError("PCA needs at least 2 pixels")
    if np.all(samples == samples[0]):
        raise DegenerateInputError("zero-variance view: every pixel is identical")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = (centered.T @ centered) / (samples.shape[0] - 1)
    eigenvalues, vectors = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order[:components]], 0.0)
    vectors = fix_signs(vectors[:, order[:components]])
    return PcaModel(mean=mean, projection=vectors, eigenvalues=eigenvalues), centered


def fit_pca(view: np.ndarray, components: int) -> PcaModel:
    """PCA over all pixels of an H x W x M view raster.

    Covariance uses the N-1 divisor; eigenvectors come from a symmetric
    eigendecomposition, sorted by descending eigenvalue, sign-fixed so each
    column's largest-magnitude entry is positive.
    """
    return _fit_centered(view, components)[0]


def transform_view(view: np.ndarray, model: PcaModel) -> np.ndarray:
    """Project every pixel: out(h,w) = projection^T (x(h,w) - mean)."""
    if view.ndim != 3:
        raise DimensionError(f"view raster must be (H,W,M), got {view.shape}")
    if view.shape[2] != model.input_bands:
        raise DimensionError(
            f"view has {view.shape[2]} bands, model was fitted on {model.input_bands}")
    h, w, m = view.shape
    flat = view.reshape(-1, m).astype(np.float64, copy=False)
    out = (flat - model.mean) @ model.projection
    return out.reshape(h, w, model.components)


def mpca(cube: HsiCube, num_views: int, components: int):
    """Full pipeline: views -> per-view PCA -> view-major channel concat.

    Returns (H x W x (num_views*components) float32 raster, list of PcaModel).
    The cube should already be min-max normalized. Each view is centered
    once: its projection reuses the centered samples its PCA was fitted on,
    which gives :func:`transform_view`'s bits.
    """
    spec, rasters = build_views(cube, num_views)
    del cube  # the views hold all that is needed; a caller's temporary cube is freed
    height, width = rasters[0].shape[:2]
    stacked = np.empty((height, width, num_views * components), dtype=np.float32)
    models = []
    for n, raster in enumerate(rasters):
        model, centered = _fit_centered(raster, components)
        models.append(model)
        stacked[:, :, n * components:(n + 1) * components] = \
            (centered @ model.projection).reshape(height, width, components)
    return stacked, models


def save_pca_models(path, spec: ViewSpec, models: list):
    """Persist per-view PCA models in an HSZPCA file (float64 payload).

    Payload order per view: mean (M), projection (M*d row-major), eigenvalues (d).
    """
    if len(models) != spec.num_views:
        raise ConfigError(f"expected {spec.num_views} models, got {len(models)}")
    d = models[0].components
    chunks = []
    for m in models:
        if m.input_bands != spec.num_groups or m.components != d:
            raise ConfigError("all per-view models must share M and d")
        chunks.append(np.ascontiguousarray(m.mean, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(m.projection, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(m.eigenvalues, dtype="<f8").tobytes())
    header = {"views": spec.num_views, "groups": spec.num_groups,
              "original_bands": spec.original_bands, "components": d, "dtype": "f64le"}
    hsz.write_framed(path, hsz.PCA_MAGIC, header, b"".join(chunks))


def load_pca_models(path):
    """Read an HSZPCA file; returns (ViewSpec, list of PcaModel)."""
    header, payload = hsz.read_framed(path, hsz.PCA_MAGIC)
    g, m, b, d = hsz.header_ints(header, path, "views", "groups", "original_bands",
                                 "components")
    if not (1 <= g <= b and 1 <= d <= m and m == -(-b // g)):
        raise FormatError(f"{path}: header views {g}, groups {m}, original_bands {b} and "
                          f"components {d} do not describe a view split")
    if header.get("dtype") != "f64le":
        raise FormatError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    per_view = (m + m * d + d) * 8
    if len(payload) != per_view * g:
        raise PayloadLengthError(
            f"{path}: payload is {len(payload)} bytes, header implies {per_view * g}")
    spec = ViewSpec(num_views=g, num_groups=m, original_bands=b)
    flat = np.frombuffer(payload, dtype="<f8")
    models = []
    stride = m + m * d + d
    for v in range(g):
        base = v * stride
        mean = flat[base:base + m].copy()
        proj = flat[base + m:base + m + m * d].reshape(m, d).copy()
        eig = flat[base + m + m * d:base + stride].copy()
        models.append(PcaModel(mean=mean, projection=proj, eigenvalues=eig))
    return spec, models
