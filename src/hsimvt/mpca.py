"""Multiview PCA: interleaved band views, per-view PCA, concat.

The spectrum splits into ``g`` interleaved views of ``M`` bands each, over
a zero-padded band axis (:func:`view_spec` states the rule). Each view is
reduced to ``d`` principal components and the per-view outputs are
concatenated view-major along the channel axis.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass

import numpy as np

from ._blas import may_split, one_blas_thread
from .data import HsiCube, mmnorm_scalars
from .errors import ConfigError, DegenerateInputError, DimensionError


def view_spec(num_bands: int, num_views: int) -> int:
    """Bands per view, M = ceil(B / g), of g = ``num_views`` views of B =
    ``num_bands`` bands: 0-based view n takes bands n, n + g, ..., n + (M - 1)·g
    of the band axis zero-padded to g·M, as :func:`_gather_view` gathers them."""
    if num_views < 1:
        raise ConfigError(f"need at least 1 view, got {num_views}")
    if num_views > num_bands:
        raise ConfigError(f"cannot build {num_views} views from {num_bands} bands")
    return math.ceil(num_bands / num_views)


def mpca_spec(num_bands: int, num_views: int, components: int) -> int:
    """:func:`view_spec`, also checking that 1 <= ``components`` <= bands per view."""
    groups = view_spec(num_bands, num_views)
    if not 1 <= components <= groups:
        raise ConfigError(f"components must be in 1..{groups}, got {components}")
    return groups


# `mpca` fits its views on two threads once their float64 samples together
# take this many bytes; see the README's Notes for the measurements
_THREAD_SAMPLE_BYTES = 16 * 2 ** 20


def _gather_view(values: np.ndarray, num_views: int, view: int, out: np.ndarray, norm):
    """Write 0-based ``view`` of an (H, W, B) cube into ``out`` (H, W, M),
    normalized with ``norm`` = (lo, span) as ``(x - lo) / span`` computed
    in ``span``'s dtype and cast into ``out``'s; its padding groups are
    zeroed."""
    lo, span = norm
    bands = values[:, :, view::num_views]
    real = bands.shape[2]
    out[:, :, real:] = 0
    np.subtract(bands, lo, out=out[:, :, :real], dtype=span.dtype)
    np.divide(out, span, out=out, dtype=span.dtype)  # padding stays 0: 0 / span is +0


def build_views(cube: HsiCube, num_views: int):
    """Split a cube into ``num_views`` interleaved views.

    Returns the list of H x W x M float64 rasters (M: :func:`view_spec`),
    gathered as :func:`mpca` gathers them; bands past the original count
    are zero padding. The rasters are consecutive slices of one
    (views, H, W, M) buffer; ``(x - 0) / 1`` in float64 keeps each value's bits.
    """
    views = np.empty((num_views, cube.height, cube.width, view_spec(cube.bands, num_views)))
    for n, view in enumerate(views):
        _gather_view(cube.values, num_views, n, view, (np.float64(0), np.float64(1)))
    return list(views)


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


# Sample rows folded into one long row by `_fit_in_place`'s mean and centring,
# a power of two. On (207,400 x 11) and (21,025 x 20) views the mean and
# centring took as long at 64 as at 128 and longer at 16 and 32; of those two,
# 128 has the smaller error bound (N/R + log2 R additions deep).
_MEAN_ROWS = 128


def _fit_in_place(samples: np.ndarray, components: int) -> PcaModel:
    """:func:`fit_pca` on checked C-contiguous (N, M) float64 samples, which it
    centers in place.

    The mean sums in a fixed order over long rows: with R = ``_MEAN_ROWS``,
    partial row i is the sum, in sample order, of the sample rows i, R + i,
    2R + i, ...; the R partial rows are then added in pairs, halving them
    to one. Summed as R·M-wide rows (not M-wide ones), the main pass runs
    numpy's inner loop R times longer. The centring subtracts the mean
    from each value once, as a broadcast subtract does, on the same rows.
    """
    n, m = samples.shape
    whole = n - n % _MEAN_ROWS
    long_rows = samples[:whole].reshape(-1, _MEAN_ROWS * m)
    rest = samples[whole:]
    partial = long_rows.sum(axis=0).reshape(_MEAN_ROWS, m)
    partial[:len(rest)] += rest
    while len(partial) > 1:
        half = len(partial) // 2
        partial = partial[:half] + partial[half:]
    mean = partial[0] / n
    np.subtract(long_rows, np.tile(mean, _MEAN_ROWS), out=long_rows)
    np.subtract(rest, mean, out=rest)
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
    # order="C": the long-row reshape must view these samples, not copy them
    samples = view.reshape(-1, view.shape[2]).astype(np.float64, order="C")
    return _fit_in_place(samples, components)


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


def _view_workers(num_views: int, sample_bytes: int) -> int:
    """Threads for :func:`mpca`'s views, whose float64 samples take
    ``sample_bytes`` together: 2 from ``_THREAD_SAMPLE_BYTES`` on, when
    :func:`~hsimvt._blas.may_split` allows it; 1 otherwise."""
    if num_views < 2 or sample_bytes < _THREAD_SAMPLE_BYTES or not may_split():
        return 1
    return 2


def _on_two_threads(body):
    """Run ``body(0)`` here and ``body(1)`` on a helper thread under the
    caller's context (numpy's error state included). A helper error is
    re-raised, with its type, once both have stopped. If the helper cannot
    start, ``body(0)`` then ``body(1)`` run here."""
    failures = []

    def helper():
        try:
            body(1)
        except BaseException as error:  # re-raised below, in the caller
            failures.append(error)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    try:
        thread.start()
    except RuntimeError:  # "can't start new thread"
        body(0)
        body(1)
        return
    try:
        body(0)
    finally:
        thread.join()
    if failures:
        raise failures[0]


def mpca(cube: HsiCube, num_views: int, components: int):
    """MMNorm then multiview PCA: views -> per-view PCA -> view-major concat.

    Returns (H x W x (num_views*components) float32 raster, list of
    PcaModel) of ``mmnorm(cube)``; MMNorm is idempotent, so a normalized
    cube gives the same bits. A run config's :attr:`RunConfig.mpca_shape`
    gives the (views, components) to pass.

    Each of the ``_view_workers`` workers (threads) owns one float64
    (H*W, M) samples buffer and takes views worker, worker + workers, ...
    It normalizes each view's bands from the raw cube into its buffer in
    one pass, in MMNorm's arithmetic dtype, then checks, centers in
    place, fits and projects the view into its channels of the float32
    output. OpenBLAS is held at one thread throughout, on one worker or
    two, where :mod:`hsimvt._blas` found control of it. Every float64
    expression then runs, at one BLAS thread, on the same contiguous
    arrays as ``fit_pca``/``transform_view`` on :func:`build_views`'
    rasters of ``mmnorm(cube)``, and the bits are theirs whatever the
    path, ``OPENBLAS_NUM_THREADS`` or CPU count.
    """
    groups = mpca_spec(cube.bands, num_views, components)
    norm = mmnorm_scalars(cube)
    h, w = cube.height, cube.width
    workers = _view_workers(num_views, h * w * num_views * groups * 8)
    stacked = np.empty((h, w, num_views * components), dtype=np.float32)
    models = [None] * num_views

    # every worker's buffers, the projection's included, come from the
    # caller's heap: what a helper thread's own heap frees stays resident
    # (a projection temporary in the helper added 4-8 MB to the peak RSS
    # of the Pavia-shaped bench)
    buffers = [(np.empty((h * w, groups)), np.empty((h * w, components)))
               for _ in range(workers)]

    def fit_views(worker):
        samples, projected = buffers[worker]
        view = samples.reshape(h, w, groups)
        for n in range(worker, num_views, workers):
            _gather_view(cube.values, num_views, n, view, norm)
            _check_view(view, components)
            models[n] = _fit_in_place(samples, components)
            np.matmul(samples, models[n].projection, out=projected)
            stacked[:, :, n * components:(n + 1) * components] = \
                projected.reshape(h, w, components)

    with one_blas_thread():
        if workers == 1:
            fit_views(0)
        else:
            _on_two_threads(fit_views)
    return stacked, models
