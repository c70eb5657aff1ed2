"""Classification-map rendering to binary PPM (P6)."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError


def class_palette(num_classes: int) -> np.ndarray:
    """(K, 3) uint8 palette: class c gets HSV(360*(c-1)/K, 1, 1) as RGB.

    Standard sexant conversion with full saturation and value; rounding is
    half-up so the palette is platform-independent.
    """
    if num_classes < 1:
        raise ConfigError(f"palette needs at least 1 class, got {num_classes}")
    palette = np.zeros((num_classes, 3), dtype=np.uint8)
    for c in range(num_classes):
        hue = 360.0 * c / num_classes
        sector = hue / 60.0
        i = int(sector) % 6
        f = sector - int(sector)
        q, t = 1.0 - f, f
        r, g, b = [(1.0, t, 0.0), (q, 1.0, 0.0), (0.0, 1.0, t),
                   (0.0, q, 1.0), (t, 0.0, 1.0), (1.0, 0.0, q)][i]
        palette[c] = [int(255.0 * v + 0.5) for v in (r, g, b)]
    return palette


def render_class_map(ids: np.ndarray, num_classes: int) -> np.ndarray:
    """(H, W) class ids -> (H, W, 3) uint8 RGB; id 0 (unlabeled) is black."""
    if ids.ndim != 2:
        raise DimensionError(f"class-id raster must be 2-D, got {ids.shape}")
    if ids.size and not (ids.min() >= 0 and ids.max() <= num_classes):
        raise ConfigError(f"class ids must be in 0..{num_classes}, "
                          f"got {int(ids.min())}..{int(ids.max())}")
    table = np.vstack([np.zeros((1, 3), dtype=np.uint8), class_palette(num_classes)])
    return table[ids]


def write_ppm(path, rgb: np.ndarray):
    """Write an (H, W, 3) uint8 image as binary PPM (P6, maxval 255)."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise DimensionError(f"PPM writer needs (H,W,3) uint8, got {rgb.shape} {rgb.dtype}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(rgb).tobytes())

