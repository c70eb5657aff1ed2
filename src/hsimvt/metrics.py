"""Confusion-matrix metrics, evaluation, and the 180-degree rotation audit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scoring
from .data import PatchSource
from .errors import DimensionError, UsageError
from .model import ModelParams, forward, predict
from .tensor import Tensor

# Patches per scoring forward pass; predictions do not depend on it. 256 ran fastest of 64..1024.
_SCORING_BATCH = 256


@dataclass
class MetricsReport:
    """K x K confusion matrix (rows = true class) with the derived accuracies.

    ``per_class`` holds each class's recall, or None for classes absent
    from the evaluated pixels; AA averages only the present classes.
    """

    confusion: np.ndarray
    oa: float
    aa: float
    per_class: list
    counts: list

    def to_json_dict(self) -> dict:
        return {
            "oa": self.oa,
            "aa": self.aa,
            "per_class": self.per_class,
            "counts": self.counts,
            "confusion": self.confusion.tolist(),
        }


def confusion_matrix(true_ids, predicted_ids, num_classes: int) -> np.ndarray:
    true_ids, predicted_ids = np.asarray(true_ids), np.asarray(predicted_ids)
    if true_ids.shape != predicted_ids.shape:
        raise DimensionError(
            f"label arrays disagree: {true_ids.shape} vs {predicted_ids.shape}")
    for name, ids in (("true", true_ids), ("predicted", predicted_ids)):
        if ids.dtype.kind not in "iu":
            raise UsageError(f"{name} labels must be integer class ids, got dtype {ids.dtype}")
    if np.any(true_ids < 1) or np.any(true_ids > num_classes):
        raise UsageError("true labels must be 1..K")
    if np.any(predicted_ids < 1) or np.any(predicted_ids > num_classes):
        raise UsageError("predicted labels must be 1..K")
    flat = (true_ids.astype(np.int64) - 1) * num_classes + (predicted_ids.astype(np.int64) - 1)
    counts = np.bincount(flat, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def report_from_confusion(confusion: np.ndarray) -> MetricsReport:
    total = int(confusion.sum())
    if total == 0:
        raise UsageError("cannot score an empty evaluation set")
    row_sums = confusion.sum(axis=1)
    per_class = []
    recalls = []
    for c in range(confusion.shape[0]):
        if row_sums[c] == 0:
            per_class.append(None)
        else:
            r = float(int(confusion[c, c]) / int(row_sums[c]))
            per_class.append(r)
            recalls.append(r)
    oa = float(int(np.trace(confusion)) / total)
    aa = float(sum(recalls) / len(recalls))
    return MetricsReport(confusion=confusion, oa=oa, aa=aa, per_class=per_class,
                         counts=[int(s) for s in row_sums])


def _predict_batches(params: ModelParams, source: PatchSource, coords: np.ndarray,
                     batch: int) -> np.ndarray:
    """The serial scoring loop: one forward pass per ``batch`` coordinates."""
    out = np.empty(len(coords), dtype=np.int64)
    for lo in range(0, len(coords), batch):
        chunk = coords[lo:lo + batch]
        patches = Tensor(source.gather(chunk))
        logits = forward(patches, params)
        out[lo:lo + len(chunk)] = predict(logits.data)
    return out


def predict_coords(params: ModelParams, source: PatchSource,
                   coords: np.ndarray) -> np.ndarray:
    """Predicted 1-based class ids for each (h, w) center, in coords order.

    ``coords`` must be an (n, 2) integer array of pixels inside the raster,
    else :class:`DimensionError`. A large job (see
    :func:`hsimvt.scoring.pool_workers`) runs its batches on worker
    processes, with the same bits as the serial loop.
    """
    coords = np.asarray(coords)
    height, width = source.raster.shape[:2]
    if coords.ndim != 2 or coords.shape[1] != 2 or coords.dtype.kind not in "iu":
        raise DimensionError(
            f"coords must be an (n, 2) integer array, got {coords.dtype} {coords.shape}")
    # reductions, so that a valid list allocates nothing of its length
    if len(coords) and (coords.min() < 0 or (coords.max(axis=0) >= (height, width)).any()):
        h, w = coords[((coords < 0) | (coords >= (height, width))).any(axis=1)][0]
        raise DimensionError(f"pixel ({h}, {w}) lies outside the {height}x{width} raster")
    workers = scoring.pool_workers(params.values.size, len(coords), _SCORING_BATCH)
    if workers > 1:
        return scoring.predict_pooled(params, source, coords, workers, _SCORING_BATCH)
    return _predict_batches(params, source, coords, _SCORING_BATCH)


def evaluate(params: ModelParams, source: PatchSource, coords: np.ndarray,
             true_ids: np.ndarray) -> MetricsReport:
    """Score one pixel set. Pure: same params and pixels give the same report."""
    predicted = predict_coords(params, source, coords)
    confusion = confusion_matrix(true_ids, predicted, params.config.num_classes)
    return report_from_confusion(confusion)


@dataclass
class RotationAudit:
    """Paired evaluation of one pixel set, raw and with patches rotated 180°."""

    raw: MetricsReport
    rotated: MetricsReport

    @property
    def delta_oa(self) -> float:
        return self.rotated.oa - self.raw.oa

    @property
    def delta_aa(self) -> float:
        return self.rotated.aa - self.raw.aa

    def to_json_dict(self) -> dict:
        return {
            "raw": self.raw.to_json_dict(),
            "rotated": self.rotated.to_json_dict(),
            "delta_oa": self.delta_oa,
            "delta_aa": self.delta_aa,
        }


def rotation_audit(params: ModelParams, source: PatchSource, coords: np.ndarray,
                   true_ids: np.ndarray) -> RotationAudit:
    """Evaluate the identical pixels twice: raw, and rotated 180 degrees.

    The rotated pass scores the raster turned 180°. :class:`PatchSource`
    pads P//2 zeros on every side, so the patch at (h, w) turned 180° is,
    value for value, the patch at (H-1-h, W-1-w) of ``raster[::-1, ::-1]``.
    """
    raw = evaluate(params, source, coords, true_ids)
    turned = PatchSource(source.raster[::-1, ::-1], source.patch_size)
    last = np.array(source.raster.shape[:2]) - 1
    # int64, since the raw pass checked them and uint64 minus int64 is float64
    rotated = evaluate(params, turned, last - np.asarray(coords, dtype=np.int64), true_ids)
    if raw.counts != rotated.counts:
        raise UsageError("rotation audit evaluated different pixel sets")
    return RotationAudit(raw=raw, rotated=rotated)
