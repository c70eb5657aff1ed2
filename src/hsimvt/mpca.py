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

from .data import HsiCube, mmnorm_scalars
from .errors import ConfigError, DegenerateInputError, DimensionError


@dataclass(frozen=True)
class ViewSpec:
    """Index bookkeeping for the interleaved views of a B-band cube."""

    num_views: int          # g
    num_groups: int         # M = ceil(B / g)

    @property
    def padded_bands(self) -> int:
        return self.num_views * self.num_groups

    def band_indices(self, view: int) -> np.ndarray:
        """Padded-cube band indices of 1-based ``view``: (m-1)*g + (view-1)."""
        if not 1 <= view <= self.num_views:
            raise ConfigError(f"view must be in 1..{self.num_views}, got {view}")
        return np.arange(self.num_groups) * self.num_views + (view - 1)


def view_spec(num_bands: int, num_views: int) -> ViewSpec:
    if num_views < 1:
        raise ConfigError(f"need at least 1 view, got {num_views}")
    if num_views > num_bands:
        raise ConfigError(f"cannot build {num_views} views from {num_bands} bands")
    return ViewSpec(num_views=num_views, num_groups=math.ceil(num_bands / num_views))


def mpca_spec(num_bands: int, num_views: int, components: int) -> ViewSpec:
    """:func:`view_spec`, also checking that 1 <= ``components`` <= bands per view."""
    spec = view_spec(num_bands, num_views)
    if not 1 <= components <= spec.num_groups:
        raise ConfigError(f"components must be in 1..{spec.num_groups}, got {components}")
    return spec


# Bytes of cube rows per block of `mpca`'s gather: a block stays in cache
# while the second view of a pass re-reads it (2**18 and 2**22 timed slower
# on the Pavia-shaped cube)
_VIEW_BLOCK_BYTES = 2 ** 20


def _gather_view(values: np.ndarray, num_views: int, view: int, out: np.ndarray,
                 norm=None):
    """Write 0-based ``view`` of an (H, W, B) cube into ``out`` (H, W, M).

    The view's bands are cast into ``out``, or with ``norm`` = (lo, span)
    normalized into it as ``(x - lo) / span``, computed in ``out``'s
    dtype; its padding groups are zeroed.
    """
    bands = values[:, :, view::num_views]
    real = bands.shape[2]
    out[:, :, real:] = 0
    if norm is None:
        out[:, :, :real] = bands
    else:
        lo, span = norm
        np.subtract(bands, lo, out=out[:, :, :real])
        np.divide(out, span, out=out)  # padding stays 0: 0 / span is +0


def build_views(cube: HsiCube, num_views: int):
    """Split a cube into ``num_views`` interleaved views.

    Returns (ViewSpec, list of H x W x M float64 rasters). Bands past the
    original count are zero padding. The rasters are consecutive slices of
    one (views, H, W, M) buffer.
    """
    spec = view_spec(cube.bands, num_views)
    views = np.empty((num_views, cube.height, cube.width, spec.num_groups))
    for n, view in enumerate(views):
        _gather_view(cube.values, num_views, n, view)
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


def _check_view(view: np.ndarray, components: int):
    if view.ndim != 3:
        raise DimensionError(f"view raster must be (H,W,M), got {view.shape}")
    bands = view.shape[2]
    if not 1 <= components <= bands:
        raise ConfigError(f"components must be in 1..{bands}, got {components}")
    samples = view.reshape(-1, bands)
    if samples.shape[0] < 2:
        raise DegenerateInputError("PCA needs at least 2 pixels")
    # some of the first rows differ in any real view: the full scan runs only if none do
    if np.all(samples[:64] == samples[0]) and np.all(samples == samples[0]):
        raise DegenerateInputError("zero-variance view: every pixel is identical")


def _fit_in_place(samples: np.ndarray, components: int) -> PcaModel:
    """:func:`fit_pca` on checked (N, M) float64 samples, which it centers in place."""
    mean = samples.mean(axis=0)
    np.subtract(samples, mean, out=samples)
    cov = (samples.T @ samples) / (samples.shape[0] - 1)
    eigenvalues, vectors = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order[:components]], 0.0)
    vectors = fix_signs(vectors[:, order[:components]])
    return PcaModel(mean=mean, projection=vectors, eigenvalues=eigenvalues)


def fit_pca(view: np.ndarray, components: int) -> PcaModel:
    """PCA over all pixels of an H x W x M view raster.

    Covariance uses the N-1 divisor; eigenvectors come from a symmetric
    eigendecomposition, sorted by descending eigenvalue, sign-fixed so each
    column's largest-magnitude entry is positive.
    """
    _check_view(view, components)
    return _fit_in_place(view.reshape(-1, view.shape[2]).astype(np.float64), components)


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
    """MMNorm then multiview PCA: views -> per-view PCA -> view-major concat.

    Returns (H x W x (num_views*components) float32 raster, list of
    PcaModel) of ``mmnorm(cube)``; MMNorm is idempotent, so a normalized
    cube gives the same bits. A run config's :attr:`RunConfig.mpca_shape`
    gives the (views, components) to pass.

    The views are gathered two per pass over the cube: the pass walks it
    in row blocks of about ``_VIEW_BLOCK_BYTES``, and for each block
    normalizes each view's bands into one small buffer of MMNorm's
    arithmetic dtype and casts that into the view's own float64 (H*W, M)
    samples buffer (a float64 cube is gathered straight into it). The
    second view re-reads a block that is still in cache, so the cube is
    read once per pair of views. A cube that fits in one block is gathered
    one view at a time, as its re-reads stay in cache anyway. Each view is
    then checked, centered in place, fitted and projected into the float32
    output on its own. Every float64 expression runs on the same contiguous
    arrays as ``fit_pca``/``transform_view`` on :func:`build_views`'
    rasters of ``mmnorm(cube)``, so the bits are theirs.
    """
    groups = mpca_spec(cube.bands, num_views, components).num_groups
    lo, span = mmnorm_scalars(cube)
    h, w = cube.height, cube.width
    block_rows = max(1, _VIEW_BLOCK_BYTES // (w * cube.bands * cube.values.itemsize))
    per_pass = 2 if block_rows < h else 1
    samples = [np.empty((h * w, groups)) for _ in range(min(per_pass, num_views))]
    cast = span.dtype != np.float64
    block = np.empty((min(block_rows, h), w, groups), dtype=span.dtype) if cast else None
    stacked = np.empty((h, w, num_views * components), dtype=np.float32)
    models = []
    for first in range(0, num_views, per_pass):
        views = range(first, min(first + per_pass, num_views))
        for r0 in range(0, h, block_rows):
            rows = cube.values[r0:r0 + block_rows]
            for n, buffer in zip(views, samples):
                dest = buffer.reshape(h, w, groups)[r0:r0 + len(rows)]
                if cast:
                    _gather_view(rows, num_views, n, block[:len(rows)], (lo, span))
                    dest[...] = block[:len(rows)]
                else:
                    _gather_view(rows, num_views, n, dest, (lo, span))
        for n, buffer in zip(views, samples):
            _check_view(buffer.reshape(h, w, groups), components)
            model = _fit_in_place(buffer, components)
            models.append(model)
            stacked[:, :, n * components:(n + 1) * components] = \
                (buffer @ model.projection).reshape(h, w, components)
    return stacked, models
