"""End-to-end CLI pipeline, run config parsing, and map rendering."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsimvt import ConfigError, RunConfig, class_palette, hsz, render_class_map, write_ppm
from hsimvt.cli import main
from hsimvt.render import read_ppm
from hsimvt.runconfig import DEFAULTS

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
    assert (workdir / "pca_models.hsz").exists()

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


@pytest.mark.parametrize("axis", ["patch_size", "heads", "views", "components",
                                  "train_fraction"])
def test_sweep_mistyped_value_exits_with_one_json_line(workdir, capsys, axis):
    config = write_config(workdir)
    run(capsys, "synth", *SCENE)
    code, out, err = run(capsys, "sweep", "--config", config,
                         "--axis", axis, "--values", "[1]")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "ConfigError"


def _strict_json(line):
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(line, parse_constant=reject)


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

    code, out, err = run(capsys, "eval", "--config", config)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "ConfigError" and "cube file" in doc["error"]

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
    """Key paths to every value in a checkpoint header, nested ones included."""
    paths = [(key,) for key in header] + [("config", key) for key in header["config"]]
    for i, entry in enumerate(header["arrays"]):
        paths += [("arrays", i), ("arrays", i, "name"), ("arrays", i, "shape")]
        paths += [("arrays", i, "shape", j) for j in range(len(entry["shape"]))]
    return paths


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_changed_checkpoint_header_value_exits_with_one_json_line(trained_run, data):
    config, header, payload = trained_run
    *parents, last = data.draw(st.sampled_from(_header_paths(header)), label="path")
    value = data.draw(JSON_VALUES, label="value")
    doc = copy.deepcopy(header)
    target = doc
    for key in parents:
        target = target[key]
    assume(json.dumps(value, sort_keys=True) != json.dumps(target[last], sort_keys=True))
    target[last] = value
    checkpoint = config.parent / "changed.hsz"
    hsz.write_framed(checkpoint, hsz.MODEL_MAGIC, doc, payload)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["eval", "--config", str(config), "--checkpoint", str(checkpoint)])
    assert code == 1 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
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


def test_runconfig_builds_model_and_train_configs():
    config = RunConfig({"mpca": {"views": 5, "components": 2},
                        "model": {"patch_size": 7}})
    mc = config.model_config(num_classes=4)
    assert (mc.num_views, mc.view_components, mc.patch_size) == (5, 2, 7)
    assert mc.input_channels == 10
    tc = config.train_config()
    assert (tc.epochs, tc.batch_size, tc.learning_rate) == (300, 64, 1e-4)


def test_runconfig_plain_pca_ablation_keeps_width():
    config = RunConfig({"mpca": {"views": 5, "components": 2, "enabled": False}})
    mc = config.model_config(num_classes=4)
    assert (mc.num_views, mc.view_components) == (1, 10)
    assert mc.input_channels == 10


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


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, rgb)
    np.testing.assert_array_equal(read_ppm(path), rgb)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n9 5\n255\n")
    assert len(raw) == len(b"P6\n9 5\n255\n") + 5 * 9 * 3
