"""Preprocessing composition and single-axis parameter sweeps."""

from __future__ import annotations

import copy
import csv

from .data import TEST, HsiCube, LabelMap, PatchSource
from .data import mmnorm  # noqa: F401 -- bench/spans.py traces experiments.mmnorm
from .errors import ConfigError
from .metrics import evaluate
from .mpca import _mpca
from .runconfig import RunConfig
from .training import train

# The run-config key (section, key) that each sweep axis overrides.
SWEEP_AXES = {"patch_size": ("model", "patch_size"), "views": ("mpca", "views"),
              "components": ("mpca", "components"), "heads": ("model", "heads"),
              "train_fraction": ("train", "fractions")}


def preprocess(cube: HsiCube, views: int, components: int, enabled: bool = True):
    """MMNorm then multiview PCA; returns (raster, PcaModel list).

    The result is ``mpca(mmnorm(cube), views, components)`` bit for bit,
    but each view is normalized as it is gathered from ``cube``, so no
    normalized copy of the whole cube is made.

    With ``enabled`` false the whole cube is treated as a single view and
    reduced to ``views * components`` channels — plain PCA with the same
    output width, the representation-ablation baseline.
    """
    if not enabled:
        views, components = 1, views * components
    return _mpca(cube, views, components, normalize=True)


def run_once(cube: HsiCube, labels: LabelMap, config: RunConfig):
    """One preprocess -> train -> test-evaluate pass; returns (report, result)."""
    p = config["mpca"]
    rep, _ = preprocess(cube, p["views"], p["components"], enabled=p["enabled"])
    model_config = config.model_config(labels.num_classes)
    result = train(rep, labels, model_config, config.train_config(),
                   fractions=config.fractions)
    source = PatchSource(rep, model_config.patch_size)
    coords = result.split.coords(TEST)
    true_ids = labels.ids[coords[:, 0], coords[:, 1]]
    report = evaluate(result.params, source, coords, true_ids)
    return report, result


def _override(config: RunConfig, axis: str, value) -> RunConfig:
    """``config`` with the one key that ``axis`` names set from ``value``.

    A train_fraction value (a fraction like 0.05) keeps the validation
    share; the test share absorbs the rest.
    """
    section, key = SWEEP_AXES[axis]
    if axis == "train_fraction":
        f_val = config.fractions[1]
        try:
            value = [value, f_val, 1.0 - value - f_val]
        except TypeError:
            raise ConfigError(f"train_fraction values must be numbers, got {value!r}") from None
    doc = copy.deepcopy(config.doc)
    doc[section][key] = value
    return RunConfig(doc)


def sweep(cube: HsiCube, labels: LabelMap, config: RunConfig, axis: str, values,
          log=None):
    """Train and test once per value of one axis; everything else held fixed.

    Each value overrides one key of ``config``. Axis names: patch_size,
    views, components, heads, train_fraction. Every value passes the
    run config's checks before the first run starts.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose one of {tuple(SWEEP_AXES)}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    configs = [_override(config, axis, value) for value in values]
    rows = []
    for value, run_config in zip(values, configs):
        report, result = run_once(cube, labels, run_config)
        row = {"axis": axis, "value": value, "oa": report.oa, "aa": report.aa,
               "best_epoch": result.best_epoch, "best_val_oa": result.best_val_oa}
        rows.append(row)
        if log is not None:
            log(row)
    return rows


def write_sweep_csv(rows, path):
    """Write sweep rows as CSV with a header row."""
    fieldnames = ["axis", "value", "oa", "aa", "best_epoch", "best_val_oa"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
