"""Command-line pipeline: synth, preprocess, train, eval, audit, sweep, map.

Every command is deterministic given its config and seed. On failure the
process exits nonzero after printing a single machine-parsable JSON line
on stderr: {"error": message, "type": exception class}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import hsz
from .data import (TEST, LabelMap, PatchSource, load_cube, load_labels,
                   save_cube, save_labels, synth_scene)
from .errors import CompatibilityError, ConfigError, HsimvtError
from .experiments import check_sweep_axis, sweep, write_sweep_csv
from .metrics import evaluate, predict_coords, rotation_audit
from .model import load_params, save_params
from .mpca import mpca, mpca_spec
from .render import render_class_map, write_ppm
from .runconfig import RunConfig
from .training import check_representation, derive_split, train

REPRESENTATION_FILE = "representation.hsz"
CHECKPOINT_FILE = "checkpoint.hsz"
HISTORY_FILE = "history.jsonl"


def _emit(doc: dict):
    print(json.dumps(doc, sort_keys=True))


def _require_file(path, hint: str):
    if not os.path.exists(path):
        raise ConfigError(f"missing {hint}: {path}")
    return path


def _out_path(config: RunConfig, name: str) -> str:
    return os.path.join(config["output"]["dir"], name)


def _new_out_path(config: RunConfig, name: str) -> str:
    """Path of a file to write in ``output.dir``, creating the directory."""
    os.makedirs(config["output"]["dir"], exist_ok=True)
    return _out_path(config, name)


def _load_labels(config: RunConfig) -> LabelMap:
    return load_labels(_require_file(config["data"]["labels_path"], "labels file"))


def _labels_and_representation(config: RunConfig):
    """The label raster and the preprocessed representation it must cover.

    These are all that train, eval, audit and map read besides a
    checkpoint; a representation of another H x W raises DimensionError.
    """
    labels = _load_labels(config)
    path = _require_file(_out_path(config, REPRESENTATION_FILE),
                         "preprocessed representation (run `hsimvt preprocess` first)")
    representation, _ = hsz.read_cube_raster(path)
    labels.check_raster(representation)
    return labels, representation


def _scoring_inputs(config: RunConfig, checkpoint):
    """(labels, checkpoint params, PatchSource) for eval, audit and map."""
    labels, representation = _labels_and_representation(config)
    params = load_params(_require_file(checkpoint or _out_path(config, CHECKPOINT_FILE),
                                       "checkpoint"))
    expected = config.model_config(labels.num_classes)
    if params.config != expected:
        raise CompatibilityError(
            f"checkpoint config {params.config} does not match the run config "
            f"{expected}")
    return labels, params, PatchSource(representation, params.config.patch_size)


def _test_set(config: RunConfig, labels: LabelMap):
    """Re-derive the (deterministic) split and return the test coordinates."""
    coords = derive_split(labels, config.fractions, config["train"]["seed"]).coords(TEST)
    true_ids = labels.ids[coords[:, 0], coords[:, 1]]
    return coords, true_ids


def cmd_synth(args) -> int:
    cube, labels = synth_scene(seed=args.seed, height=args.height, width=args.width,
                               bands=args.bands, num_classes=args.classes,
                               noise_sigma=args.noise)
    os.makedirs(args.out, exist_ok=True)
    cube_path = os.path.join(args.out, "synth_cube.hsz")
    labels_path = os.path.join(args.out, "synth_labels.hsz")
    save_cube(cube, cube_path)
    save_labels(labels, labels_path)
    _emit({"cube": cube_path, "labels": labels_path,
           "shape": [cube.height, cube.width, cube.bands], "classes": labels.num_classes})
    return 0


def cmd_preprocess(args) -> int:
    config = RunConfig.load(args.config)
    cube = load_cube(_require_file(config["data"]["cube_path"], "cube file"))
    # refuse an MPCA shape the cube cannot take before the last run's file goes
    mpca_spec(cube.bands, *config.mpca_shape)
    rep_path = _out_path(config, REPRESENTATION_FILE)
    # A failed preprocess must not leave an earlier cube's representation to train on.
    with contextlib.suppress(FileNotFoundError):
        os.remove(rep_path)
    rep, _ = mpca(cube, *config.mpca_shape)
    hsz.write_cube_raster(_new_out_path(config, REPRESENTATION_FILE), rep)
    _emit({"representation": rep_path, "channels": int(rep.shape[2])})
    return 0


def cmd_train(args) -> int:
    config = RunConfig.load(args.config)
    labels, rep = _labels_and_representation(config)
    # refuse a bad model section or representation before the last run's files go
    model_config = config.model_config(labels.num_classes)
    check_representation(rep, labels, model_config)
    history_path = _new_out_path(config, HISTORY_FILE)
    ckpt_path = _out_path(config, CHECKPOINT_FILE)
    # A failed run must not leave an earlier run's checkpoint to be scored.
    with contextlib.suppress(FileNotFoundError):
        os.remove(ckpt_path)
    with open(history_path, "w") as history_file:
        result = train(rep, labels, model_config, config.train_config(),
                       fractions=config.fractions,
                       log=lambda h: print(json.dumps(h, sort_keys=True),
                                           file=history_file))
    save_params(ckpt_path, result.params)
    _emit({"checkpoint": ckpt_path, "history": history_path,
           "best_epoch": result.best_epoch, "best_val_oa": result.best_val_oa})
    return 0


def cmd_eval(args) -> int:
    config = RunConfig.load(args.config)
    labels, params, source = _scoring_inputs(config, args.checkpoint)
    coords, true_ids = _test_set(config, labels)
    _emit(evaluate(params, source, coords, true_ids).to_json_dict())
    return 0


def cmd_audit(args) -> int:
    config = RunConfig.load(args.config)
    labels, params, source = _scoring_inputs(config, args.checkpoint)
    coords, true_ids = _test_set(config, labels)
    _emit(rotation_audit(params, source, coords, true_ids).to_json_dict())
    return 0


def cmd_sweep(args) -> int:
    config = RunConfig.load(args.config)
    try:
        values = [json.loads(v) for v in args.values.split(",") if v]
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
    except RecursionError:
        raise ConfigError("--values nested too deeply") from None
    check_sweep_axis(args.axis)
    cube = load_cube(_require_file(config["data"]["cube_path"], "cube file"))
    labels = _load_labels(config)
    rows = sweep(cube, labels, config, args.axis, values,
                 log=lambda row: print(json.dumps(row, sort_keys=True), file=sys.stderr))
    csv_path = args.out or _new_out_path(config, "sweep.csv")
    write_sweep_csv(rows, csv_path)
    _emit({"csv": csv_path, "rows": len(rows)})
    return 0


def cmd_map(args) -> int:
    config = RunConfig.load(args.config)
    labels, params, source = _scoring_inputs(config, args.checkpoint)
    coords = labels.labeled_coords()
    predicted = predict_coords(params, source, coords)
    ids = np.zeros(labels.shape, dtype=np.int64)
    ids[coords[:, 0], coords[:, 1]] = predicted
    map_path = args.out or _new_out_path(config, "map.ppm")
    write_ppm(map_path, render_class_map(ids, labels.num_classes))
    _emit({"map": map_path, "pixels": int(len(coords))})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsimvt",
        description="Multiview-PCA transformer pipeline for hyperspectral cubes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic Voronoi scene")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--bands", type=int, default=40)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_synth)

    for name, fn, extra in (
            ("preprocess", cmd_preprocess, ()),
            ("train", cmd_train, ()),
            ("eval", cmd_eval, ("checkpoint",)),
            ("audit", cmd_audit, ("checkpoint",)),
            ("sweep", cmd_sweep, ("axis", "values", "out")),
            ("map", cmd_map, ("checkpoint", "out"))):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON run config (defaults apply)")
        if "checkpoint" in extra:
            p.add_argument("--checkpoint", default=None)
        if "axis" in extra:
            p.add_argument("--axis", required=True)
            p.add_argument("--values", required=True,
                           help="comma-separated values, e.g. 3,5,7")
        if "out" in extra:
            p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HsimvtError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
