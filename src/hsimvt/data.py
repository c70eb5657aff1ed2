"""Cube and label containers, normalization, splits, patches, synthetic scenes."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import hsz
from .errors import ConfigError, DegenerateInputError, DimensionError

TRAIN, VAL, TEST = 1, 2, 3


@dataclass
class HsiCube:
    """H x W x B reflectance raster plus a name tag.

    ``value_range`` is the (min, max) of the values, found by the
    finiteness check at construction; the values are not to be changed
    afterwards.
    """

    values: np.ndarray
    name: str = ""
    _range: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.values.ndim != 3:
            raise DimensionError(f"cube values must be (H,W,B), got {self.values.shape}")
        if self.values.shape[2] < 1:
            raise DimensionError("cube must have at least one band")
        # min and max are non-finite exactly when some value is, without a bool array
        values = self.values
        if values.size:
            lo, hi = values.min(), values.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DegenerateInputError(f"cube {self.name!r} contains non-finite values")
            self._range = (lo, hi)

    @classmethod
    def _checked(cls, values: np.ndarray, name: str, value_range: tuple) -> HsiCube:
        """A cube over finite (H, W, B) values whose (min, max) is already known."""
        cube = cls.__new__(cls)
        cube.values, cube.name, cube._range = values, name, value_range
        return cube

    @property
    def value_range(self):
        """(min, max) of the values as scalars of their dtype; None for an empty cube."""
        return self._range

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def bands(self):
        return self.values.shape[2]


@dataclass
class LabelMap:
    """H x W class ids; 0 means unlabeled, classes are 1..num_classes."""

    ids: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.ids.ndim != 2:
            raise DimensionError(f"label map must be 2-D, got {self.ids.shape}")
        if self.ids.max(initial=0) > self.num_classes:
            raise ConfigError(
                f"label id {int(self.ids.max())} exceeds declared class count {self.num_classes}")
        present = np.unique(self.ids)
        for c in range(1, self.num_classes + 1):
            if c not in present:
                raise ConfigError(f"class {c} has no labeled pixels")

    @property
    def shape(self):
        return self.ids.shape

    def labeled_coords(self):
        """Row-major (h, w) coordinates of every labeled pixel."""
        return np.argwhere(self.ids > 0)


def save_cube(cube: HsiCube, path):
    hsz.write_cube_raster(path, cube.values)


def load_cube(path, name: str = "") -> HsiCube:
    """Read a cube file; its values are a read-only view of the file's bytes."""
    values, _ = hsz.read_cube_raster(path)
    return HsiCube(values=values, name=name or str(path))


def save_labels(labels: LabelMap, path):
    hsz.write_label_raster(path, labels.ids, labels.num_classes)


def load_labels(path) -> LabelMap:
    ids, num_classes = hsz.read_label_raster(path)
    return LabelMap(ids=ids.astype(np.int64), num_classes=num_classes)


def mmnorm_scalars(cube: HsiCube):
    """MMNorm's (lo, span): every value x maps to (x - lo) / span.

    Both are scalars of the arithmetic dtype, the cube's own for float
    cubes and float64 otherwise. The normalized values are all finite
    exactly when ``hi - lo`` in that dtype and ``span`` are: rounding is
    monotone and ``0 <= x - lo <= hi - lo`` for every x, so the two
    scalars are checked instead of the normalized values.
    """
    if cube.value_range is None:
        raise DegenerateInputError("cannot normalize an empty cube")
    lo, hi = (float(v) for v in cube.value_range)
    if hi == lo:
        raise DegenerateInputError("cannot normalize a constant cube (max == min)")
    dtype = cube.values.dtype
    scalar = dtype.type if dtype.kind == "f" else np.float64
    with np.errstate(over="ignore"):
        span = scalar(hi - lo)
        top = np.subtract(scalar(hi), scalar(lo))
    if not (np.isfinite(top) and np.isfinite(span)):
        raise DegenerateInputError(
            f"cube {cube.name!r} contains non-finite values after normalization")
    return scalar(lo), span


def mmnorm(cube: HsiCube) -> HsiCube:
    """Rescale with the single global min and max so values span [0, 1].

    Float cubes are scaled in their own precision into one new array,
    other cubes in float64; the cube's range is reused, not rescanned.
    """
    lo, span = mmnorm_scalars(cube)
    scaled = np.subtract(cube.values, lo)
    np.divide(scaled, span, out=scaled)
    # the min and max map to the new min and max, through the same ufunc loops
    top = np.divide(np.subtract(np.asarray(cube.value_range[1], dtype=scaled.dtype), lo), span)
    return HsiCube._checked(scaled, cube.name, (scaled.dtype.type(0), top))


@dataclass
class SplitAssignment:
    """Per-pixel split map: 0 unlabeled, 1 train, 2 val, 3 test."""

    assignment: np.ndarray
    seed: int
    fractions: tuple = (0.05, 0.05, 0.90)
    warnings_issued: list = field(default_factory=list)

    def coords(self, which: int):
        """Row-major (h, w) coordinates assigned to one split."""
        return np.argwhere(self.assignment == which)

    def counts(self):
        return {name: int((self.assignment == code).sum())
                for name, code in (("train", TRAIN), ("val", VAL), ("test", TEST))}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_split(labels: LabelMap, fractions=(0.05, 0.05, 0.90), seed: int = 0) -> SplitAssignment:
    """Per-class seeded shuffle into train/val/test.

    Counts per class with n labeled pixels: train = max(1, round(f_train*n)),
    val = max(1, round(f_val*n)) when f_val > 0, both capped so the class is
    never oversubscribed; the remainder is test.
    """
    f_train, f_val, f_test = fractions
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    if f_train <= 0:
        raise ConfigError("train fraction must be positive")

    rng = np.random.default_rng(seed)
    assignment = np.zeros(labels.shape, dtype=np.int8)
    flat = assignment.reshape(-1)
    issued = []
    for c in range(1, labels.num_classes + 1):
        pixels = np.flatnonzero(labels.ids == c)  # row-major
        n = len(pixels)
        if n < 3:
            msg = f"class {c} has only {n} labeled pixels; assigning train first, then val"
            warnings.warn(msg)
            issued.append(msg)
        pixels = pixels[rng.permutation(n)]
        n_train = min(n, max(1, _round_half_up(f_train * n)))
        n_val = min(n - n_train, max(1, _round_half_up(f_val * n))) if f_val > 0 else 0
        flat[pixels[n_train + n_val:]] = TEST
        flat[pixels[n_train:n_train + n_val]] = VAL
        flat[pixels[:n_train]] = TRAIN
    return SplitAssignment(assignment=assignment, seed=seed, fractions=tuple(fractions),
                           warnings_issued=issued)


def rotate180(values: np.ndarray) -> np.ndarray:
    """Reverse both spatial axes of a (P,P,C) or (N,P,P,C) patch array."""
    if values.ndim == 3:
        return np.ascontiguousarray(values[::-1, ::-1, :])
    if values.ndim == 4:
        return np.ascontiguousarray(values[:, ::-1, ::-1, :])
    raise DimensionError(f"expected (P,P,C) or (N,P,P,C), got {values.shape}")


class PatchSource:
    """Zero-padded raster from which centered patches are gathered in batches."""

    def __init__(self, raster: np.ndarray, patch_size: int):
        if raster.ndim != 3:
            raise DimensionError(f"raster must be (H,W,C), got {raster.shape}")
        if patch_size < 1 or patch_size % 2 == 0:
            raise ConfigError(f"patch size must be odd and >= 1, got {patch_size}")
        self.patch_size = patch_size
        self.height, self.width, self.channels = raster.shape
        margin = patch_size // 2
        padded = np.pad(raster, ((margin, margin), (margin, margin), (0, 0)))
        # windows[h, w] covers source rows h-margin..h+margin after padding
        self._windows = sliding_window_view(padded, (patch_size, patch_size), axis=(0, 1))

    def gather(self, coords: np.ndarray, rotate: bool = False) -> np.ndarray:
        """Stack patches for (n, 2) center coordinates into (n, P, P, C)."""
        batch = self._windows[coords[:, 0], coords[:, 1]]  # (n, C, P, P)
        batch = np.ascontiguousarray(batch.transpose(0, 2, 3, 1))
        if rotate:
            batch = rotate180(batch)
        return batch


def synth_scene(seed: int, height: int, width: int, bands: int, num_classes: int,
                noise_sigma: float) -> tuple[HsiCube, LabelMap]:
    """Voronoi-region scene with one Gaussian-bump spectrum per class.

    Class k (1-based) peaks at band (k - 0.5) * B / K with spread B / (4K);
    pixel values are the class spectrum plus N(0, noise_sigma) noise.
    """
    if num_classes < 2:
        raise ConfigError("synthetic scene needs at least 2 classes")
    if bands < num_classes:
        raise ConfigError(f"need bands >= classes, got {bands} < {num_classes}")
    if num_classes > height * width:
        raise ConfigError(f"{num_classes} classes cannot fit {height * width} pixels")

    rng = np.random.default_rng(seed)
    sites = rng.choice(height * width, size=num_classes, replace=False)
    site_rows = sites // width
    site_cols = sites % width

    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    dist2 = (rows[..., None] - site_rows) ** 2 + (cols[..., None] - site_cols) ** 2
    ids = dist2.argmin(axis=2).astype(np.int64) + 1

    band_axis = np.arange(bands, dtype=np.float64)
    centers = (np.arange(1, num_classes + 1) - 0.5) * bands / num_classes
    spread = bands / (4.0 * num_classes)
    spectra = np.exp(-((band_axis[None, :] - centers[:, None]) ** 2) / (2.0 * spread ** 2))

    values = spectra[ids - 1].astype(np.float64)
    if noise_sigma > 0:
        values = values + noise_sigma * rng.standard_normal(values.shape)
    cube = HsiCube(values=values.astype(np.float32), name=f"synth-{seed}")
    labels = LabelMap(ids=ids, num_classes=num_classes)
    return cube, labels
