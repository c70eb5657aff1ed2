"""Single runs and single-axis parameter sweeps."""

from __future__ import annotations

import copy
import csv

from .data import TEST, HsiCube, LabelMap, PatchSource
from .data import mmnorm  # noqa: F401 -- bench/spans.py traces experiments.mmnorm
from .errors import ConfigError, DimensionError
from .metrics import evaluate
from .mpca import mpca, mpca_spec
from .runconfig import FIELDS, RunConfig
from .training import derive_split, train

# The run-config key (section, key) that each sweep axis overrides: every
# mpca, model and train key under its own name, and train_fraction.
SWEEP_AXES = {key: (section, key) for section, (_, keys) in FIELDS.items() for key in keys}
SWEEP_AXES["train_fraction"] = ("train", "fractions")


def run_once(cube: HsiCube, labels: LabelMap, config: RunConfig):
    """One MPCA -> train -> test-evaluate pass; returns (report, result)."""
    rep, _ = mpca(cube, *config.mpca_shape)
    return _train_and_score(rep, labels, config)


def _train_and_score(rep, labels: LabelMap, config: RunConfig):
    """:func:`run_once` on the representation ``rep`` that :func:`mpca` gave."""
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
    share; the test share takes the rest, clamped at 0.
    """
    section, key = SWEEP_AXES[axis]
    if axis == "train_fraction":
        f_val = config.fractions[1]
        try:
            value = [value, f_val, max(0.0, 1.0 - value - f_val)]
        except TypeError:
            raise ConfigError(f"train_fraction values must be numbers, got {value!r}") from None
    doc = copy.deepcopy(config.doc)
    doc[section][key] = value
    return RunConfig(doc)


def check_sweep_axis(axis: str):
    """Raise :class:`~hsimvt.errors.ConfigError` unless ``axis`` is a sweep axis."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose one of {tuple(SWEEP_AXES)}")


def sweep(cube: HsiCube, labels: LabelMap, config: RunConfig, axis: str, values,
          log=None):
    """Train and test once per value of one axis; everything else held fixed.

    Each value overrides one key of ``config``: ``axis`` is any mpca, model or
    train key but fractions, or train_fraction (:data:`SWEEP_AXES`). Before the
    first run starts, the cube must cover the label raster, and every value must
    pass the run config's checks, give a valid model and MPCA shape, and leave
    a test pixel in the split that :func:`train` draws for it. Consecutive
    values of one :attr:`RunConfig.mpca_shape` share one representation.
    """
    check_sweep_axis(axis)
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    configs = [_override(config, axis, value) for value in values]
    if (cube.height, cube.width) != labels.shape:
        raise DimensionError(f"cube is {cube.height}x{cube.width}, labels are "
                             f"{labels.shape[0]}x{labels.shape[1]}")
    for value, run_config in zip(values, configs):
        run_config.model_config(labels.num_classes)
        mpca_spec(cube.bands, *run_config.mpca_shape)
        counts = derive_split(labels, run_config.fractions, run_config["train"]["seed"]).counts()
        if not counts["test"]:
            raise ConfigError(f"{axis} {value!r} leaves no test pixel to score: its split "
                              f"is {counts['train']}/{counts['val']}/0 px train/val/test")
    rows = []
    shape = rep = None
    for value, run_config in zip(values, configs):
        if run_config.mpca_shape != shape:
            shape, rep = run_config.mpca_shape, None  # free the old one first
            rep, _ = mpca(cube, *shape)
        report, result = _train_and_score(rep, labels, run_config)
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
