"""Cube and label containers, normalization, splits, patches, synthetic scenes."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import hsz
from .errors import ConfigError, DegenerateInputError, DimensionError
from .ops import _taps

TRAIN, VAL, TEST = 1, 2, 3

# The default (train, val, test) shares of each class's labeled pixels.
SPLIT_FRACTIONS = (0.05, 0.05, 0.90)


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
        if self.ids.dtype.kind not in "iu":
            raise ConfigError(f"label ids must be integers, got dtype {self.ids.dtype}")
        if self.ids.min(initial=0) < 0:
            raise ConfigError(f"label id {int(self.ids.min())} is negative; 0 marks unlabeled")
        if self.num_classes > self.ids.size:  # before counting: each class needs a pixel
            raise ConfigError(f"{self.num_classes} classes cannot all be labeled in "
                              f"{self.ids.size} pixels")
        if self.ids.max(initial=0) > self.num_classes:
            raise ConfigError(
                f"label id {int(self.ids.max())} exceeds declared class count {self.num_classes}")
        missing = np.flatnonzero(np.bincount(self.ids.reshape(-1),
                                             minlength=self.num_classes + 1)[1:] == 0)
        if missing.size:
            raise ConfigError(f"class {missing[0] + 1} has no labeled pixels")

    @property
    def shape(self):
        return self.ids.shape

    def labeled_coords(self):
        """Row-major (h, w) coordinates of every labeled pixel."""
        return np.argwhere(self.ids > 0)

    def check_raster(self, raster: np.ndarray):
        """Raise DimensionError unless ``raster`` is (H, W, C) over this H x W grid."""
        if raster.ndim != 3 or raster.shape[:2] != self.shape:
            raise DimensionError(
                f"representation must be (H, W, C) over the {self.shape[0]}x{self.shape[1]} "
                f"label raster, got {raster.shape}")


def save_cube(cube: HsiCube, path):
    hsz.write_cube_raster(path, cube.values)


def load_cube(path) -> HsiCube:
    """Read a cube file, named by its path; its values are a read-only view of its bytes."""
    values, _ = hsz.read_cube_raster(path)
    return HsiCube(values=values, name=str(path))


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
    other cubes in float64. The new cube finds its range as any cube does.
    """
    lo, span = mmnorm_scalars(cube)
    scaled = np.subtract(cube.values, lo)
    np.divide(scaled, span, out=scaled)
    return HsiCube(scaled, cube.name)


@dataclass
class SplitAssignment:
    """Per-pixel split map: 0 unlabeled, 1 train, 2 val, 3 test."""

    assignment: np.ndarray

    def coords(self, which: int):
        """Row-major (h, w) coordinates assigned to one split."""
        return np.argwhere(self.assignment == which)

    def counts(self):
        return {name: int((self.assignment == code).sum())
                for name, code in (("train", TRAIN), ("val", VAL), ("test", TEST))}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def check_fractions(fractions):
    """Raise ConfigError unless the (train, val, test) split ``fractions`` are
    three finite, non-negative numbers that sum to 1 within 1e-9, with a
    positive train share."""
    fr = list(fractions)
    if len(fr) != 3 or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                               and math.isfinite(v) and v >= 0 for v in fr):
        raise ConfigError(f"split fractions must be three numbers, finite and "
                          f"non-negative, got {fr}")
    if abs(sum(fr) - 1.0) > 1e-9 or fr[0] <= 0:
        raise ConfigError(f"split fractions must sum to 1 with a positive train share, got {fr}")


def stratified_split(labels: LabelMap, fractions=SPLIT_FRACTIONS, seed: int = 0) -> SplitAssignment:
    """Per-class seeded shuffle into train/val/test.

    Counts per class with n labeled pixels: train = max(1, round(f_train*n)),
    val = max(1, round(f_val*n)) when f_val > 0, both capped so the class is
    never oversubscribed; the remainder is test.
    """
    check_fractions(fractions)
    f_train, f_val, _ = fractions

    rng = np.random.default_rng(seed)
    assignment = np.zeros(labels.shape, dtype=np.int8)
    flat = assignment.reshape(-1)
    for c in range(1, labels.num_classes + 1):
        pixels = np.flatnonzero(labels.ids == c)  # row-major
        n = len(pixels)
        if n < 3:
            warnings.warn(f"class {c} has only {n} labeled pixels; "
                          "assigning train first, then val")
        pixels = pixels[rng.permutation(n)]
        n_train = min(n, max(1, _round_half_up(f_train * n)))
        n_val = min(n - n_train, max(1, _round_half_up(f_val * n))) if f_val > 0 else 0
        flat[pixels[n_train + n_val:]] = TEST
        flat[pixels[n_train:n_train + n_val]] = VAL
        flat[pixels[:n_train]] = TRAIN
    return SplitAssignment(assignment=assignment)


def rotate180(values: np.ndarray) -> np.ndarray:
    """Reverse both spatial axes of an (N,P,P,C) patch array."""
    if values.ndim != 4:
        raise DimensionError(f"expected (N,P,P,C), got {values.shape}")
    return np.ascontiguousarray(values[:, ::-1, ::-1, :])


class PatchSource:
    """Zero-padded raster from which centered patches are gathered in batches."""

    def __init__(self, raster: np.ndarray, patch_size: int):
        if raster.ndim != 3:
            raise DimensionError(f"raster must be (H,W,C), got {raster.shape}")
        if patch_size < 1 or patch_size % 2 == 0:
            raise ConfigError(f"patch size must be odd and >= 1, got {patch_size}")
        h, w, c = raster.shape
        # the (H, W, P, P, C) window view below is never smaller than its padded raster
        if h * w * patch_size ** 2 * c * raster.itemsize > np.iinfo(np.intp).max:
            raise ConfigError(f"{patch_size}x{patch_size} patches of a {h}x{w}x{c} raster "
                              f"are too big to allocate")
        self.raster, self.patch_size = raster, patch_size
        # (H, W, P, P, C): windows[h, w] is the patch centred on pixel (h, w)
        self._windows = _taps(raster[None], (patch_size, patch_size))[0]

    def gather(self, coords: np.ndarray) -> np.ndarray:
        """Stack patches for (n, 2) center coordinates into a new (n, P, P, C) array."""
        return self._windows[coords[:, 0], coords[:, 1]]


# float64 bytes of one synth_scene row block. On the bench scene shapes,
# blocks of 2**18 to 2**22 bytes time within noise of one another, all close
# to the whole-cube normal draw alone; at 2**21 the traced peak stays within
# 1.3x the float32 cube, and a 128x128x16 scene is one block.
_SYNTH_BLOCK_BYTES = 2 ** 21


def synth_scene(seed: int, height: int, width: int, bands: int, num_classes: int,
                noise_sigma: float) -> tuple[HsiCube, LabelMap]:
    """Voronoi-region scene with one Gaussian-bump spectrum per class.

    Class k (1-based) peaks at band (k - 0.5) * B / K with spread B / (4K);
    pixel values are the class spectrum plus N(0, noise_sigma) noise.

    The float32 cube is filled in blocks of whole rows. Each block draws its
    noise from the one generator in turn, as one whole-cube draw would, so
    every element is the same float64 ``spectrum + noise_sigma * z`` before
    the cast; at sigma 0, z is ±0.0 and leaves the spectrum as it is.
    """
    if num_classes < 2:
        raise ConfigError("synthetic scene needs at least 2 classes")
    if bands < num_classes:
        raise ConfigError(f"need bands >= classes, got {bands} < {num_classes}")
    if height < 1 or width < 1:
        raise ConfigError(f"scene must be at least 1x1 pixels, got {height}x{width}")
    if height * width * bands * 4 > np.iinfo(np.intp).max:
        raise ConfigError(f"a {height}x{width}x{bands} float32 cube is too big to allocate")
    if num_classes > height * width:
        raise ConfigError(f"{num_classes} classes cannot fit {height * width} pixels")
    if not 0 <= noise_sigma < math.inf:
        raise ConfigError(f"noise sigma must be finite and non-negative, got {noise_sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    sites = rng.choice(height * width, size=num_classes, replace=False)
    site_rows = sites // width
    site_cols = sites % width
    col_dist2 = (np.arange(width)[:, None] - site_cols) ** 2  # (W, K)

    band_axis = np.arange(bands, dtype=np.float64)
    centers = (np.arange(1, num_classes + 1) - 0.5) * bands / num_classes
    spread = bands / (4.0 * num_classes)
    spectra = np.exp(-((band_axis[None, :] - centers[:, None]) ** 2) / (2.0 * spread ** 2))

    values = np.empty((height, width, bands), dtype=np.float32)
    ids = np.empty((height, width), dtype=np.int64)
    block_rows = max(1, _SYNTH_BLOCK_BYTES // (width * bands * 8))
    noise = np.empty((min(block_rows, height), width, bands))
    # a sigma too large for float32 overflows here; the cube's own check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, height, block_rows):
            r1 = min(r0 + block_rows, height)
            row_dist2 = (np.arange(r0, r1)[:, None] - site_rows) ** 2  # (rows, K)
            block_ids = (row_dist2[:, None, :] + col_dist2).argmin(axis=2) + 1
            ids[r0:r1] = block_ids
            z = rng.standard_normal(out=noise[:r1 - r0])
            z *= noise_sigma
            # the float64 sum, cast to float32 as it is stored
            np.add(spectra[block_ids - 1], z, out=values[r0:r1], casting="same_kind")
    return HsiCube(values, f"synth-{seed}"), LabelMap(ids=ids, num_classes=num_classes)
