"""End-to-end CLI pipeline, run config parsing, and map rendering."""

import copy
import inspect
import io
import json
import struct
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsimvt import (ConfigError, DimensionError, HsiCube, LabelMap, ModelConfig,
                    RunConfig, TrainConfig, class_palette, experiments, hsz, mpca,
                    render_class_map, save_cube, save_labels, stratified_split, synth_scene,
                    train, write_ppm)
from hsimvt import cli
from hsimvt.cli import main
from hsimvt.data import TEST
from hsimvt.runconfig import DEFAULTS, FIELDS

from oracles import read_ppm

SCENE = ["--height", "24", "--width", "24", "--bands", "12",
         "--classes", "3", "--noise", "0.05", "--seed", "2"]

CONFIG = {
    "mpca": {"views": 3, "components": 2},
    "model": {"patch_size": 3, "encoder_kernels": 2, "squeeze_channels": 4,
              "token_channels": 8, "heads": 2, "feature_dim": 8},
    "train": {"epochs": 2, "batch": 32, "lr": 1e-3, "seed": 3},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, overrides=None):
    doc = json.loads(json.dumps(CONFIG))
    for section, values in (overrides or {}).items():
        doc.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_golden_path(workdir, capsys):
    config = write_config(workdir)

    code, out, _ = run(capsys, "synth", *SCENE)
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [24, 24, 12] and doc["classes"] == 3

    code, out, _ = run(capsys, "preprocess", "--config", config)
    assert code == 0
    assert json.loads(out)["channels"] == 6
    assert (workdir / "representation.hsz").exists()
    assert not (workdir / "pca_models.hsz").exists()

    code, out, _ = run(capsys, "train", "--config", config)
    assert code == 0
    doc = json.loads(out)
    assert 1 <= doc["best_epoch"] <= 2
    assert (workdir / "checkpoint.hsz").exists()
    history = [json.loads(line) for line in
               (workdir / "history.jsonl").read_text().splitlines()]
    assert [h["epoch"] for h in history] == [1, 2]
    assert all(set(h) == {"epoch", "train_loss", "val_oa"} for h in history)

    code, first_eval, _ = run(capsys, "eval", "--config", config)
    assert code == 0
    report = json.loads(first_eval)
    assert set(report) == {"oa", "aa", "per_class", "counts", "confusion"}
    assert 0.0 <= report["oa"] <= 1.0
    code, second_eval, _ = run(capsys, "eval", "--config", config)
    assert code == 0
    assert first_eval == second_eval  # byte-identical rerun

    code, out, _ = run(capsys, "audit", "--config", config)
    assert code == 0
    audit = json.loads(out)
    assert set(audit) == {"raw", "rotated", "delta_oa", "delta_aa"}
    assert audit["raw"]["counts"] == audit["rotated"]["counts"]

    code, out, _ = run(capsys, "map", "--config", config)
    assert code == 0
    assert json.loads(out)["pixels"] == 24 * 24
    image = read_ppm(workdir / "map.ppm")
    assert image.shape == (24, 24, 3)
    assert len(np.unique(image.reshape(-1, 3), axis=0)) <= 3


def test_synth_rerun_is_byte_identical(workdir, capsys):
    code, _, _ = run(capsys, "synth", *SCENE, "--out", "a")
    assert code == 0
    code, _, _ = run(capsys, "synth", *SCENE, "--out", "b")
    assert code == 0
    for name in ("synth_cube.hsz", "synth_labels.hsz"):
        assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()


def test_preprocess_rerun_is_byte_identical(workdir, capsys):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", config)
    first = (workdir / "representation.hsz").read_bytes()
    run(capsys, "preprocess", "--config", config)
    assert (workdir / "representation.hsz").read_bytes() == first


def test_output_dir_is_respected(workdir, capsys):
    config = write_config(workdir, {"output": {"dir": "results"}})
    run(capsys, "synth", *SCENE)
    code, _, _ = run(capsys, "preprocess", "--config", config)
    assert code == 0
    assert (workdir / "results" / "representation.hsz").exists()
    code, _, _ = run(capsys, "train", "--config", config)
    assert code == 0
    assert (workdir / "results" / "checkpoint.hsz").exists()


def test_sweep_writes_csv(workdir, capsys):
    config = write_config(workdir, {"train": {"epochs": 1}})
    run(capsys, "synth", *SCENE)
    code, out, err = run(capsys, "sweep", "--config", config,
                         "--axis", "patch_size", "--values", "3,5")
    assert code == 0
    assert json.loads(out)["rows"] == 2
    lines = (workdir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,oa,aa,best_epoch,best_val_oa"
    assert len(lines) == 3
    assert lines[1].startswith("patch_size,3,")
    assert lines[2].startswith("patch_size,5,")
    progress = [json.loads(line) for line in err.splitlines()]
    assert [row["value"] for row in progress] == [3, 5]


def test_sweep_rejects_malformed_values(workdir, capsys):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    code, _, err = run(capsys, "sweep", "--config", config,
                       "--axis", "patch_size", "--values", "3;5")
    assert code == 1
    assert json.loads(err)["type"] == "ConfigError"


def test_sweep_deeply_nested_values_exit_with_one_json_line(workdir, capsys):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    code, out, err = run(capsys, "sweep", "--config", config,
                         "--axis", "heads", "--values", "[" * 20000)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "ConfigError"


@pytest.mark.parametrize("axis", list(experiments.SWEEP_AXES))
def test_sweep_mistyped_value_exits_with_one_json_line(workdir, capsys, axis):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    code, out, err = run(capsys, "sweep", "--config", config,
                         "--axis", axis, "--values", "[1]")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "ConfigError"


def test_sweep_axes_are_the_run_config_keys_and_train_fraction():
    keys = [(section, key) for section, (_, names) in FIELDS.items() for key in names]
    assert len({key for _, key in keys}) == len(keys)  # no axis name is ambiguous
    assert sorted(experiments.SWEEP_AXES.values()) == sorted(keys + [("train", "fractions")])
    for axis, (section, key) in experiments.SWEEP_AXES.items():
        assert axis == key or (axis, key) == ("train_fraction", "fractions"), axis
    # the axes of the old hand-written table keep their keys, so their CSVs keep their bytes
    assert {axis: experiments.SWEEP_AXES[axis] for axis in
            ("patch_size", "views", "components", "heads", "train_fraction")} == {
        "patch_size": ("model", "patch_size"), "views": ("mpca", "views"),
        "components": ("mpca", "components"), "heads": ("model", "heads"),
        "train_fraction": ("train", "fractions")}


def test_train_fraction_may_leave_no_test_share():
    config = RunConfig({"train": {"fractions": [0.1, 0.1, 0.8]}})
    assert experiments._override(config, "train_fraction", 0.9).fractions == (0.9, 0.1, 0.0)
    with pytest.raises(ConfigError, match="sum to 1"):
        experiments._override(config, "train_fraction", 1.5)


def test_sweep_refuses_a_value_with_no_test_pixel_before_preprocessing(workdir, capsys,
                                                                       monkeypatch):
    # 0.9 gives fractions (0.9, 0.1, 0.0): a 360/40/0 px split of the 20x20 scene
    run(capsys, "synth", "--height", "20", "--width", "20", "--bands", "12",
        "--classes", "3")
    config = workdir / "config.json"
    config.write_text(json.dumps({"train": {"epochs": 1, "fractions": [0.1, 0.1, 0.8]},
                                  "model": {"patch_size": 3},
                                  "mpca": {"views": 4, "components": 2}}))
    shapes = []
    mpca = experiments.mpca
    monkeypatch.setattr(experiments, "mpca",
                        lambda cube, *shape: shapes.append(shape) or mpca(cube, *shape))
    doc = _one_json_error(capsys, "sweep", "--config", str(config),
                          "--axis", "train_fraction", "--values", "0.2,0.9")
    assert doc["type"] == "ConfigError", doc
    assert "train_fraction 0.9 leaves no test pixel" in doc["error"], doc
    assert shapes == [] and not (workdir / "sweep.csv").exists()


@pytest.mark.parametrize("axis, values, written", [
    ("use_global_token", "true,false", ["True", "False"]),
    ("use_sed", "true,false", ["True", "False"]),
    ("seed", "0,1,2", ["0", "1", "2"])])
def test_sweep_runs_the_ablation_switches_and_seeds(workdir, capsys, axis, values, written):
    config = write_config(workdir, {"train": {"epochs": 1}})
    run(capsys, "synth", *SCENE)
    code, out, _ = run(capsys, "sweep", "--config", config, "--axis", axis,
                       "--values", values)
    assert code == 0 and json.loads(out)["rows"] == len(written)
    lines = (workdir / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [[axis, v] for v in written]


@pytest.mark.parametrize("axis,values,fault", [
    ("patch_size", "3;5", "--values must be comma-separated numbers"),
    ("depth", "3,5", "unknown sweep axis 'depth'")])
def test_sweep_checks_its_arguments_before_reading_the_cube(workdir, capsys, axis, values,
                                                           fault):
    config = write_config(workdir)   # no synth: the cube file is absent
    code, out, err = run(capsys, "sweep", "--config", config,
                         "--axis", axis, "--values", values)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["type"] == "ConfigError" and fault in doc["error"], doc


def _strict_json(line):
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(line, parse_constant=reject)


def test_a_cube_declaring_a_huge_header_exits_with_one_json_line(workdir, capsys):
    config = write_config(workdir)
    (workdir / "synth_cube.hsz").write_bytes(hsz.CUBE_MAGIC + struct.pack("<I", 0xFFFFFFF0))
    doc = _one_json_error(capsys, "preprocess", "--config", config)
    assert doc["type"] == "FormatError" and "exceeds file size" in doc["error"]


@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
def test_diverging_train_fails_without_checkpoint(workdir, capsys):
    config = write_config(workdir, {"train": {"lr": 1e30}})
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", config)
    code, out, err = run(capsys, "train", "--config", config)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["type"] == "DivergenceError" and "non-finite" in doc["error"]
    assert not (workdir / "checkpoint.hsz").exists()
    for line in (workdir / "history.jsonl").read_text().splitlines():
        _strict_json(line)


@pytest.mark.filterwarnings("error")
def test_failed_train_leaves_no_earlier_checkpoint_to_score(workdir, capsys):
    good = write_config(workdir)
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", good)
    code, _, _ = run(capsys, "train", "--config", good)
    assert code == 0 and (workdir / "checkpoint.hsz").exists()
    diverging = write_config(workdir, {"train": {"lr": 1e30}})
    code, _, _ = run(capsys, "train", "--config", diverging)
    assert code == 1
    assert not (workdir / "checkpoint.hsz").exists()
    code, out, err = run(capsys, "eval", "--config", diverging)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["type"] == "ConfigError" and "checkpoint" in doc["error"]


def test_errors_are_json_on_stderr(workdir, capsys):
    config = write_config(workdir)

    code, out, err = run(capsys, "preprocess", "--config", config)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "ConfigError" and "cube file" in doc["error"]

    code, out, err = run(capsys, "eval", "--config", config)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "ConfigError" and "labels file" in doc["error"]

    run(capsys, "synth", *SCENE)
    code, _, err = run(capsys, "train", "--config", config)
    assert code == 1
    assert "preprocess" in json.loads(err)["error"]

    code, _, err = run(capsys, "eval", "--config", "no_such_config.json")
    assert code == 1
    assert json.loads(err)["type"] == "FileNotFoundError"

    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"model": {"n_heads": 8}}))
    code, _, err = run(capsys, "eval", "--config", str(bad))
    assert code == 1
    assert json.loads(err)["type"] == "ConfigError"

    bad.write_bytes(b'{"train": {"seed": 1}}\xff')  # not UTF-8
    code, out, err = run(capsys, "eval", "--config", str(bad))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "ConfigError"


def _one_json_error(capsys, *argv):
    """Run a command that must fail; return its one stderr line, parsed."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "", argv
    lines = err.splitlines()
    assert len(lines) == 1, argv
    return json.loads(lines[0])


def test_negative_seed_exits_with_one_json_line(workdir, capsys):
    good = write_config(workdir)
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", good)
    assert run(capsys, "train", "--config", good)[0] == 0
    negative = write_config(workdir, {"train": {"seed": -1}})
    for command in ("train", "eval"):
        doc = _one_json_error(capsys, command, "--config", negative)
        assert doc["type"] == "ConfigError" and "seed" in doc["error"], command
    assert (workdir / "checkpoint.hsz").exists()  # the refused train removed nothing


def test_preprocess_refuses_a_bad_model_section(workdir, capsys):
    run(capsys, "synth", *SCENE)
    even = write_config(workdir, {"model": {"patch_size": 4}})
    doc = _one_json_error(capsys, "preprocess", "--config", even)
    assert doc["type"] == "ConfigError" and "patch_size" in doc["error"]
    assert not (workdir / "representation.hsz").exists()


def test_a_failed_preprocess_leaves_no_representation_behind(workdir, capsys):
    good = write_config(workdir)
    run(capsys, "synth", *SCENE)
    assert run(capsys, "preprocess", "--config", good)[0] == 0
    kept = (workdir / "representation.hsz").read_bytes()
    # refused for its config, or before a cube has loaded: the last file stays
    for overrides, fault in (
            ({"model": {"patch_size": 4}}, "patch_size"),
            ({"data": {"cube_path": "no_cube.hsz"}}, "missing cube file"),
            ({"mpca": {"views": 13}}, "cannot build 13 views from 12 bands")):
        doc = _one_json_error(capsys, "preprocess", "--config",
                              write_config(workdir, overrides))
        assert doc["type"] == "ConfigError" and fault in doc["error"], overrides
        assert (workdir / "representation.hsz").read_bytes() == kept, overrides
    # failed after the cube loaded: no representation is left to train on
    save_cube(HsiCube(values=np.full((24, 24, 12), 0.5, dtype=np.float32)),
              workdir / "flat.hsz")
    flat = write_config(workdir, {"data": {"cube_path": "flat.hsz"}})
    doc = _one_json_error(capsys, "preprocess", "--config", flat)
    assert doc["type"] == "DegenerateInputError"
    assert not (workdir / "representation.hsz").exists()
    doc = _one_json_error(capsys, "train", "--config", flat)
    assert doc["type"] == "ConfigError" and "representation" in doc["error"]
    assert not (workdir / "checkpoint.hsz").exists()


def test_a_refused_train_keeps_the_last_runs_files(workdir, capsys):
    good = write_config(workdir)  # preprocessed as 3 views x 2 components
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", good)
    assert run(capsys, "train", "--config", good)[0] == 0
    names = ("checkpoint.hsz", "history.jsonl")
    kept = {name: (workdir / name).read_bytes() for name in names}
    assert all(kept.values())
    save_labels(LabelMap(ids=np.ones((24, 24), dtype=np.int64), num_classes=1),
                workdir / "one_class.hsz")
    for overrides, kind, fault in (
            ({"model": {"heads": 3, "token_channels": 8}}, "ConfigError",
             "not divisible by num_heads 3"),
            ({"data": {"labels_path": "one_class.hsz"}}, "ConfigError",
             "at least 2 classes"),
            ({"mpca": {"views": 2, "components": 2}}, "DimensionError",
             "representation has 6 channels, model config implies 4")):
        doc = _one_json_error(capsys, "train", "--config", write_config(workdir, overrides))
        assert doc["type"] == kind and fault in doc["error"], overrides
        assert {name: (workdir / name).read_bytes() for name in names} == kept, overrides


@pytest.mark.parametrize("lr", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_learning_rate_is_a_config_error(workdir, capsys, lr):
    good = write_config(workdir)
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", good)
    # json.load accepts these three tokens as floats
    config = write_config(workdir, {"train": {"lr": float(lr)}})
    doc = _one_json_error(capsys, "train", "--config", config)
    assert doc["type"] == "ConfigError" and "learning_rate" in doc["error"]


@pytest.mark.parametrize("flag,value", [("--noise", "-1"), ("--noise", "nan"),
                                        ("--noise", "inf"), ("--seed", "-1")])
def test_bad_synth_inputs_exit_with_one_json_line(workdir, capsys, flag, value):
    doc = _one_json_error(capsys, "synth", *SCENE, flag, value, "--out", "scene")
    assert doc["type"] == "ConfigError" and flag.strip("-") in doc["error"]
    assert not (workdir / "scene").exists()  # refused before anything was written


def test_memory_error_exits_with_one_json_line(workdir, capsys, monkeypatch):
    def out_of_memory(**kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB for the cube")

    monkeypatch.setattr(cli, "synth_scene", out_of_memory)
    doc = _one_json_error(capsys, "synth", *SCENE)
    assert doc == {"error": "Unable to allocate 1.00 TiB for the cube", "type": "MemoryError"}


def test_deeply_nested_config_exits_with_one_json_line(workdir, capsys):
    deep = workdir / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    doc = _one_json_error(capsys, "eval", "--config", str(deep))
    assert doc["type"] == "ConfigError" and "nested" in doc["error"]


@pytest.mark.parametrize("text", ["[]", "0", '""', "false", "null"])
def test_a_config_that_is_not_an_object_exits_with_one_json_line(workdir, capsys, text):
    config = workdir / "config.json"
    config.write_text(text)
    doc = _one_json_error(capsys, "train", "--config", str(config))
    assert doc["type"] == "ConfigError" and "must be a JSON object" in doc["error"]


@pytest.mark.parametrize("command, magic, name", [
    ("preprocess", hsz.CUBE_MAGIC, "synth_cube.hsz"),
    ("train", hsz.LABEL_MAGIC, "synth_labels.hsz"),
    ("eval", hsz.MODEL_MAGIC, "checkpoint.hsz"),
])
def test_deeply_nested_hsz_header_exits_with_one_json_line(workdir, capsys, command, magic,
                                                           name):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    assert run(capsys, "preprocess", "--config", config)[0] == 0
    head = b"[" * 100_000 + b"]" * 100_000
    (workdir / name).write_bytes(magic + struct.pack("<I", len(head)) + head)
    doc = _one_json_error(capsys, command, "--config", config)
    assert doc["type"] == "FormatError" and "nested" in doc["error"]


@pytest.mark.parametrize("classes", [2 ** 40, 2 ** 62, 2 ** 70])
def test_a_label_file_declaring_a_huge_class_count_exits_with_one_json_line(workdir, capsys,
                                                                            classes):
    config = write_config(workdir)
    hsz.write_framed(workdir / "synth_labels.hsz", hsz.LABEL_MAGIC,
                     {"height": 2, "width": 2, "classes": classes},
                     np.ones(4, dtype="<u2").tobytes())
    doc = _one_json_error(capsys, "train", "--config", config)
    assert doc["type"] == "FormatError" and "at most 65535" in doc["error"], doc


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [
    ("patch_size", 2 ** 31 + 1), ("feature_dim", 2 ** 62), ("token_channels", 2 ** 62),
    ("encoder_kernels", 2 ** 62)])
def test_a_model_too_big_for_numpy_exits_with_one_json_line(workdir, capsys, key, value):
    good = write_config(workdir)
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", good)
    huge = workdir / "huge.json"
    huge.write_text(json.dumps({**CONFIG, "model": {**CONFIG["model"], key: value}}))
    doc = _one_json_error(capsys, "train", "--config", str(huge))
    assert doc["type"] == "ConfigError" and "too big to allocate" in doc["error"]
    assert not (workdir / "checkpoint.hsz").exists()
    assert run(capsys, "train", "--config", good)[0] == 0
    doc = _one_json_error(capsys, "eval", "--config", str(huge))
    assert doc["type"] in ("ConfigError", "CompatibilityError"), doc
    doc = _one_json_error(capsys, "sweep", "--config", good, "--axis", key,
                          "--values", str(value), "--out", "huge.csv")
    assert doc["type"] == "ConfigError" and "too big to allocate" in doc["error"]
    assert not (workdir / "huge.csv").exists()


def test_synth_refuses_a_cube_too_big_for_numpy(workdir, capsys):
    # refused by its size alone, before any draw or allocation
    doc = _one_json_error(capsys, "synth", "--height", "10000000000000", "--width", "1",
                          "--bands", "1000000", "--out", "scene")
    assert doc["type"] == "ConfigError" and "too big" in doc["error"]
    assert not (workdir / "scene").exists()


def test_sweep_refuses_a_cube_of_another_size_before_preprocessing(workdir, monkeypatch):
    small = synth_scene(seed=0, height=12, width=10, bands=8, num_classes=3, noise_sigma=0.1)
    big = synth_scene(seed=0, height=14, width=10, bands=8, num_classes=3, noise_sigma=0.1)

    def mpca(*args):
        raise AssertionError("sweep preprocessed a cube that does not fit the labels")

    monkeypatch.setattr(experiments, "mpca", mpca)
    with pytest.raises(DimensionError, match="cube is 14x10, labels are 12x10"):
        experiments.sweep(big[0], small[1], RunConfig(CONFIG), "heads", [1])


@pytest.mark.parametrize("axis, values, error", [
    ("heads", [2, 3], "not divisible"),
    ("views", [4, 40], "cannot build 40 views from 8 bands"),
    ("components", [2, 3], "components must be in 1..2"),
    ("patch_size", [3, 4], "patch_size must be odd"),
    ("feature_dim", [8, 2 ** 62], "too big to allocate"),
])
def test_sweep_checks_every_value_before_preprocessing(monkeypatch, axis, values, error):
    cube, labels = synth_scene(seed=0, height=12, width=10, bands=8, num_classes=3,
                               noise_sigma=0.1)

    def mpca(*args):
        raise AssertionError("sweep started a run before checking every value")

    monkeypatch.setattr(experiments, "mpca", mpca)
    config = RunConfig({**CONFIG, "mpca": {"views": 4, "components": 1}})
    with pytest.raises(ConfigError, match=error):
        experiments.sweep(cube, labels, config, axis, values)


@pytest.mark.parametrize("fractions", [[0.5, 0.5, 0.5], [0, 0.5, 0.5]])
def test_bad_fraction_sweep_exits_before_preprocessing(workdir, capsys, monkeypatch,
                                                       fractions):
    run(capsys, "synth", *SCENE)
    calls = []
    monkeypatch.setattr(experiments, "mpca", lambda *args: calls.append(args))
    config = write_config(workdir, {"train": {"fractions": fractions}})
    code, out, err = run(capsys, "sweep", "--config", config, "--axis", "heads",
                         "--values", "1,2")
    assert code == 1 and out == "" and calls == []
    doc = json.loads(err)
    assert doc["type"] == "ConfigError" and "fractions" in doc["error"]


@pytest.mark.parametrize("axis, values, preprocessed", [
    ("heads", [1, 2, 4], [(4, 1)]),
    ("views", [4, 8], [(4, 1), (8, 1)]),
    ("seed", [0, 1], [(4, 1)]),
    ("use_sed", [True, False], [(4, 1)]),
])
def test_sweep_preprocesses_once_per_mpca_shape(monkeypatch, axis, values, preprocessed):
    cube, labels = synth_scene(seed=0, height=16, width=12, bands=8, num_classes=3,
                               noise_sigma=0.1)
    config = RunConfig({**CONFIG, "mpca": {"views": 4, "components": 1},
                        "train": {**CONFIG["train"], "epochs": 1}})
    shapes = []
    mpca = experiments.mpca
    monkeypatch.setattr(experiments, "mpca",
                        lambda cube, *shape: shapes.append(shape) or mpca(cube, *shape))
    rows = experiments.sweep(cube, labels, config, axis, values)
    assert shapes == preprocessed
    if axis in ("heads", "use_sed"):  # the same rows as one run_once per value
        for value, row in zip(values, rows):
            report, result = experiments.run_once(
                cube, labels, RunConfig({**config.doc, "model": {**config["model"],
                                                                  axis: value}}))
            assert row == {"axis": axis, "value": value, "oa": report.oa, "aa": report.aa,
                           "best_epoch": result.best_epoch,
                           "best_val_oa": result.best_val_oa}


def test_eval_scores_the_test_pixels_of_the_split_train_drew():
    cube, labels = synth_scene(seed=1, height=16, width=12, bands=8, num_classes=3,
                               noise_sigma=0.1)
    config = RunConfig({**CONFIG, "train": {"epochs": 1, "batch": 32, "seed": 11,
                                            "fractions": [0.2, 0.1, 0.7]}})
    representation, _ = mpca(cube, *config.mpca_shape)
    result = train(representation, labels, config.model_config(labels.num_classes),
                   config.train_config(), fractions=config.fractions)
    coords, _ = cli._test_set(config, labels)
    np.testing.assert_array_equal(coords, result.split.coords(TEST))


def test_each_command_reads_only_its_own_inputs(workdir, capsys):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    (workdir / "synth_labels.hsz").rename(workdir / "labels.hsz")
    code, _, _ = run(capsys, "preprocess", "--config", config)
    assert code == 0
    (workdir / "synth_cube.hsz").unlink()
    (workdir / "labels.hsz").rename(workdir / "synth_labels.hsz")
    for command in ("train", "eval", "audit", "map"):
        code, out, err = run(capsys, command, "--config", config)
        assert code == 0 and err == "", command
        json.loads(out)


def test_scoring_a_missing_file_creates_no_output_dir(workdir, capsys):
    config = write_config(workdir, {"output": {"dir": "results"}})
    run(capsys, "synth", *SCENE)
    for command in ("train", "eval", "audit", "map"):
        code, _, err = run(capsys, command, "--config", config)
        assert code == 1 and "preprocess" in json.loads(err)["error"], command
    assert not (workdir / "results").exists()


@pytest.mark.parametrize("height", [20, 28])
def test_representation_of_another_size_exits_with_one_json_line(workdir, capsys, height):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", config)
    run(capsys, "train", "--config", config)
    (workdir / "checkpoint.hsz").rename(workdir / "earlier.hsz")
    (workdir / "synth_cube.hsz").rename(workdir / "big_cube.hsz")
    # Another scene's cube and labels, which agree with each other but not
    # with the representation preprocessed above.
    run(capsys, "synth", "--height", str(height), *SCENE[2:])
    for argv in (["train"], ["eval", "--checkpoint", "earlier.hsz"],
                 ["audit", "--checkpoint", "earlier.hsz"],
                 ["map", "--checkpoint", "earlier.hsz"]):
        code, out, err = run(capsys, argv[0], "--config", config, *argv[1:])
        assert code == 1 and out == "", argv[0]
        lines = err.splitlines()
        assert len(lines) == 1, argv[0]
        doc = json.loads(lines[0])
        assert doc["type"] == "DimensionError", argv[0]
        assert f"{height}x24 label raster, got (24, 24, 6)" in doc["error"], argv[0]
    assert not (workdir / "checkpoint.hsz").exists()
    assert not (workdir / "map.ppm").exists()

    # sweep preprocesses its own cube, which here is not the labels' size
    mixed = write_config(workdir, {"data": {"cube_path": "big_cube.hsz"}})
    code, out, err = run(capsys, "sweep", "--config", mixed,
                         "--axis", "heads", "--values", "1")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "DimensionError"
    assert not (workdir / "sweep.csv").exists()


@pytest.mark.parametrize("fractions", [
    [1.5, -0.2, -0.3], [0.5, 0.5, -0.0001], [float("nan"), 0.5, 0.5], [float("inf"), 0, 0],
])
def test_bad_fractions_exit_with_one_json_line(workdir, capsys, fractions):
    config = write_config(workdir, {"train": {"fractions": fractions}})
    run(capsys, "synth", *SCENE)
    code, out, err = run(capsys, "train", "--config", config)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["type"] == "ConfigError" and "fractions" in doc["error"]


def test_checkpoint_config_mismatch_is_rejected(workdir, capsys):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    run(capsys, "preprocess", "--config", config)
    code, _, _ = run(capsys, "train", "--config", config)
    assert code == 0
    other = write_config(workdir, {"model": {"heads": 1}})
    code, _, err = run(capsys, "eval", "--config", other)
    assert code == 1
    assert json.loads(err)["type"] == "CompatibilityError"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=8)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A config with absolute paths, and the header and payload of the
    checkpoint that training under it wrote."""
    root = tmp_path_factory.mktemp("trained")
    doc = json.loads(json.dumps(CONFIG))
    doc["data"] = {"cube_path": str(root / "synth_cube.hsz"),
                   "labels_path": str(root / "synth_labels.hsz")}
    doc["output"] = {"dir": str(root)}
    config = root / "config.json"
    config.write_text(json.dumps(doc))
    with redirect_stdout(io.StringIO()):
        assert main(["synth", *SCENE, "--out", str(root)]) == 0
        assert main(["preprocess", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
    header, payload = hsz.read_framed(root / "checkpoint.hsz", hsz.MODEL_MAGIC)
    return config, header, payload


def _header_paths(header):
    """Key paths to every value in a checkpoint header, nested ones included,
    by level: the top-level keys, the config keys and the array entries.

    The arrays hold most of the paths, so a path drawn from all of them at
    once would seldom be a config key."""
    arrays = []
    for i, entry in enumerate(header["arrays"]):
        arrays += [("arrays", i), ("arrays", i, "name"), ("arrays", i, "shape")]
        arrays += [("arrays", i, "shape", j) for j in range(len(entry["shape"]))]
    return {"top": [(key,) for key in header],
            "config": [("config", key) for key in header["config"]], "arrays": arrays}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_changed_checkpoint_header_value_exits_with_one_json_line(trained_run, data):
    """Deleting the value at any header path, or replacing it, is refused.

    Each drawn path is checked both ways, so that a left-out key is tried
    on every path the test draws."""
    config, header, payload = trained_run
    levels = _header_paths(header)
    level = data.draw(st.sampled_from(sorted(levels)), label="level")
    *parents, last = data.draw(st.sampled_from(levels[level]), label="path")
    value = data.draw(JSON_VALUES, label="value")
    for delete in (True, False):
        doc = copy.deepcopy(header)
        target = doc
        for key in parents:
            target = target[key]
        if delete:
            del target[last]
        elif json.dumps(value, sort_keys=True) == json.dumps(target[last], sort_keys=True):
            continue  # the same value is no change
        else:
            target[last] = value
        checkpoint = config.parent / "changed.hsz"
        hsz.write_framed(checkpoint, hsz.MODEL_MAGIC, doc, payload)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["eval", "--config", str(config), "--checkpoint", str(checkpoint)])
        assert code == 1 and out.getvalue() == "", delete
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, delete
        assert set(json.loads(lines[0])) == {"error", "type"}


# ------------------------------------------------------------------ RunConfig

def test_runconfig_defaults_and_overrides():
    config = RunConfig()
    assert config.doc == DEFAULTS
    assert config.fractions == (0.05, 0.05, 0.90)
    override = RunConfig({"train": {"lr": 1}})  # int promoted to float
    assert override["train"]["lr"] == 1.0
    assert isinstance(override["train"]["lr"], float)


def test_runconfig_rejects_unknown_and_mistyped():
    with pytest.raises(ConfigError, match="sections"):
        RunConfig({"optimizer": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig({"train": {"momentum": 0.9}})
    with pytest.raises(ConfigError, match="must be int"):
        RunConfig({"mpca": {"views": "ten"}})
    with pytest.raises(ConfigError, match="must be int"):
        RunConfig({"mpca": {"views": True}})
    with pytest.raises(ConfigError, match="three numbers"):
        RunConfig({"train": {"fractions": [0.5, 0.5]}})
    with pytest.raises(ConfigError, match="object"):
        RunConfig({"train": 3})
    with pytest.raises(ConfigError, match="U-shape"):
        RunConfig({"model": {"squeeze_channels": 64}})


def test_runconfig_builds_model_and_train_configs():
    config = RunConfig({"mpca": {"views": 5, "components": 2},
                        "model": {"patch_size": 7}})
    mc = config.model_config(num_classes=4)
    assert (mc.num_views, mc.view_components, mc.patch_size) == (5, 2, 7)
    assert mc.input_channels == 10
    tc = config.train_config()
    assert (tc.epochs, tc.batch_size, tc.learning_rate) == (300, 64, 1e-4)


def test_runconfig_plain_pca_ablation_keeps_width():
    config = RunConfig({"mpca": {"views": 1, "components": 10}})
    assert config.mpca_shape == (1, 10)
    mc = config.model_config(num_classes=4)
    assert (mc.num_views, mc.view_components) == (1, 10)
    assert mc.input_channels == 10
    assert RunConfig({"mpca": {"views": 5, "components": 2}}).mpca_shape == (5, 2)
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig({"mpca": {"views": 5, "components": 2, "enabled": False}})


def test_runconfig_keys_set_every_library_field():
    for cls, exempt in ((ModelConfig, ["num_classes"]), (TrainConfig, [])):
        names = [name for owner, keys in FIELDS.values() if owner is cls
                 for name in keys.values()]
        assert sorted(names + exempt) == sorted(f.name for f in fields(cls)), cls


def test_readme_lists_the_run_config_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Run configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == DEFAULTS


def test_runconfig_defaults_are_the_library_defaults():
    config = RunConfig()
    assert config.model_config(16) == ModelConfig()
    assert config.train_config() == TrainConfig()
    for fn in (train, stratified_split):
        assert config.fractions == inspect.signature(fn).parameters["fractions"].default


# -------------------------------------------------------------------- render

def test_palette_three_classes_are_primaries():
    palette = class_palette(3)
    np.testing.assert_array_equal(palette[0], [255, 0, 0])
    np.testing.assert_array_equal(palette[1], [0, 255, 0])
    np.testing.assert_array_equal(palette[2], [0, 0, 255])
    assert class_palette(17).shape == (17, 3)
    with pytest.raises(ConfigError):
        class_palette(0)


def test_render_map_black_background():
    ids = np.array([[0, 1], [2, 0]])
    image = render_class_map(ids, 2)
    np.testing.assert_array_equal(image[0, 0], [0, 0, 0])
    np.testing.assert_array_equal(image[1, 1], [0, 0, 0])
    np.testing.assert_array_equal(image[0, 1], class_palette(2)[0])
    with pytest.raises(ConfigError):
        render_class_map(ids, 1)
    with pytest.raises(ConfigError):  # not painted in the last class's colour
        render_class_map(np.array([[-1, 2]]), 2)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, rgb)
    np.testing.assert_array_equal(read_ppm(path), rgb)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n9 5\n255\n")
    assert len(raw) == len(b"P6\n9 5\n255\n") + 5 * 9 * 3
