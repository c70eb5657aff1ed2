"""Scoring on worker processes: the serial loop's bits, the pool rule, and
failure and cleanup of the workers."""

import glob
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from hsimvt import (DimensionError, ModelConfig, ModelParams, PatchSource, TrainConfig,
                    WorkerError, mmnorm, mpca, synth_scene, train)
from hsimvt import _blas, metrics, scoring
from hsimvt.cli import main
from hsimvt.data import VAL, save_cube, save_labels
from hsimvt.model import load_params

SRC = os.path.dirname(os.path.dirname(os.path.abspath(scoring.__file__)))
TOY = ModelConfig(patch_size=3, num_views=2, view_components=2, encoder_kernels=2,
                  squeeze_channels=4, token_channels=8, num_heads=2, feature_dim=8,
                  num_classes=3)
BATCH = metrics._SCORING_BATCH

needs_blas_control = pytest.mark.skipif(
    _blas.blas_threads() is None, reason="no in-process control of this numpy's BLAS")


def children() -> set:
    """Pids of this process's live child processes, over all its threads."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as f:
            pids.update(int(p) for p in f.read().split())
    return pids


def open_fds() -> list:
    """This process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd"))


def shared_mappings() -> int:
    """How many of this process's memory mappings are shared."""
    with open("/proc/self/maps") as f:
        return sum(line.split()[1].endswith("s") for line in f)


def with_blas_control(monkeypatch, cpus):
    """The pool rule on ``cpus`` usable CPUs, with BLAS thread control
    whether or not this host's numpy has it."""
    monkeypatch.setattr(_blas, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_blas, "_control", lambda: (lambda: 2, lambda n: None))


def toy_job(n, dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    raster = rng.standard_normal((40, 30, TOY.input_channels)).astype(dtype)
    params = ModelParams.initialize(TOY, seed=seed, dtype=dtype)
    coords = np.argwhere(np.ones(raster.shape[:2], dtype=bool))
    coords = coords[rng.permutation(len(coords))[:n]]
    return params, PatchSource(raster, TOY.patch_size), coords


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
@pytest.mark.parametrize("turned", [False, True])
def test_two_workers_give_the_serial_bits(turned, n, dtype):
    params, source, coords = toy_job(n, dtype)
    if turned:  # the rotation audit's second pass sends a negative-stride view
        source = PatchSource(source.raster[::-1, ::-1], TOY.patch_size)
    if dtype == np.float64:
        # Classes 1 and 2 tie up to 1e-12: only float64 parameters pick class 2,
        # so a worker that rounded the parameters to float32 would pick class 1.
        weight = params["classifier.weight"].data
        weight[:, 1] = weight[:, 0]
        params["classifier.bias"].data[:] = [0.0, 1e-12, -1e3]
    serial = metrics._predict_batches(params, source, coords, BATCH)
    if dtype == np.float64:
        assert (serial == 2).all()
    fds, mappings = open_fds(), shared_mappings()
    pooled = scoring.predict_pooled(params, source, coords, 2, BATCH)
    assert pooled.dtype == serial.dtype == np.int64
    assert pooled.tobytes() == serial.tobytes()
    assert pooled.base is None  # a private copy, not a view of the workers' mapping
    assert children() == set()
    assert open_fds() == fds
    assert shared_mappings() == mappings


def test_each_worker_has_one_pipe_to_the_caller(monkeypatch):
    """The predictions come back through shared memory, so the caller holds
    one pipe end per worker while it collects: the worker's fd 2."""
    collect = scoring._collect
    held = []

    def counting_collect(*args):
        held.append(len(open_fds()))
        return collect(*args)

    monkeypatch.setattr(scoring, "_collect", counting_collect)
    params, source, coords = toy_job(3 * BATCH)
    fds = len(open_fds())
    pooled = scoring.predict_pooled(params, source, coords, 3, BATCH)
    assert held == [fds + 3]
    assert pooled.tobytes() == metrics._predict_batches(params, source, coords,
                                                        BATCH).tobytes()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 42776])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_worker_shares_are_runs_of_whole_serial_batches(n, workers):
    bounds = scoring._batch_bounds(n, workers, BATCH)
    assert len(bounds) == workers + 1 and bounds[0] == 0 and bounds[-1] == n
    assert bounds == sorted(bounds)
    assert all(b % BATCH == 0 for b in bounds[:-1])
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    assert max(sizes) - min(sizes) <= BATCH


# (labeled pixels, parameters) of each bench job that scores pixels: the
# bench's default models have 143,249 (9 classes) and 143,704 (16 classes)
# parameters, its toy model 1,487.
PAVIA = ModelConfig(num_classes=9)
INDIAN_PINES = ModelConfig(num_classes=16)
BENCH_TOY = ModelConfig(patch_size=3, num_views=4, view_components=2, encoder_kernels=2,
                        squeeze_channels=4, token_channels=8, num_heads=2, feature_dim=8,
                        num_classes=3)


def n_values(config):
    return sum(math.prod(s) for s in ModelParams.expected_shapes(config).values())


@pytest.mark.parametrize("config, pixels, pooled", [
    (PAVIA, 42776, True),          # map-pavia's map
    (PAVIA, 2048, False),          # map-pavia's evaluate sample
    (PAVIA, 428, False),           # map-pavia's per-epoch validation (1%)
    (INDIAN_PINES, 10249, True),   # train-ip's map
    (INDIAN_PINES, 9225, True),    # train-ip's evaluate
    (INDIAN_PINES, 512, False),    # train-ip's per-epoch validation
    (BENCH_TOY, 8000, False),      # gradcheck-toy's map
    (INDIAN_PINES, 7472, True),    # the smallest pooled job of the 16-class model
    (INDIAN_PINES, 7471, False),   # the largest serial one
])
def test_pool_rule_picks_each_bench_job_path(monkeypatch, config, pixels, pooled):
    assert (n_values(PAVIA), n_values(INDIAN_PINES), n_values(BENCH_TOY)) == \
        (143249, 143704, 1487)
    with_blas_control(monkeypatch, 2)
    assert scoring.pool_workers(n_values(config), pixels, BATCH) == (2 if pooled else 1)


def test_pool_size_is_bounded_by_cpus_cap_and_batches(monkeypatch):
    big = scoring._POOL_WORK_MIN
    with_blas_control(monkeypatch, 1)
    assert scoring.pool_workers(big, 10 * BATCH, BATCH) == 1
    with_blas_control(monkeypatch, 64)
    assert scoring.pool_workers(big, 100 * BATCH, BATCH) == scoring._MAX_WORKERS
    assert scoring.pool_workers(big, BATCH + 1, BATCH) == 2


def test_scoring_runs_serially_without_blas_control(monkeypatch):
    monkeypatch.setattr(_blas, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_blas, "_control", lambda: None)
    assert scoring.pool_workers(scoring._POOL_WORK_MIN, 10 * BATCH, BATCH) == 1


@needs_blas_control
def test_workers_run_one_blas_thread_whatever_the_caller_sets(monkeypatch):
    """Each worker reads its own BLAS thread count as its predictions."""
    monkeypatch.setattr(metrics, "_predict_batches",
                        lambda params, source, coords, batch:
                        np.full(len(coords), _blas.blas_threads()))
    params, source, coords = toy_job(300)
    get, set_ = _blas._control()
    previous = get()
    try:
        for caller_threads in (1, 2):
            set_(caller_threads)
            seen = scoring.predict_pooled(params, source, coords, 2, BATCH)
            assert seen.tolist() == [1] * 300
            assert get() == caller_threads
    finally:
        set_(previous)


def test_a_worker_error_keeps_its_type():
    params, _, coords = toy_job(300)
    wrong = PatchSource(np.zeros((40, 30, TOY.input_channels + 1), np.float32),
                        TOY.patch_size)
    with pytest.raises(DimensionError, match="channels"):
        metrics._predict_batches(params, wrong, coords, BATCH)
    fds, mappings = open_fds(), shared_mappings()
    with pytest.raises(DimensionError, match="channels"):
        scoring.predict_pooled(params, wrong, coords, 2, BATCH)
    assert children() == set()
    assert open_fds() == fds
    assert shared_mappings() == mappings


@pytest.mark.parametrize("exc", [SystemExit, KeyboardInterrupt])
def test_a_base_exception_in_a_worker_is_a_worker_error(monkeypatch, exc):
    def raising(*args):
        raise exc()

    monkeypatch.setattr(metrics, "_predict_batches", raising)
    params, source, coords = toy_job(300)
    fds, mappings = open_fds(), shared_mappings()
    with pytest.raises(WorkerError, match=exc.__name__):
        scoring.predict_pooled(params, source, coords, 2, BATCH)
    assert children() == set()
    assert open_fds() == fds
    assert shared_mappings() == mappings


def test_a_worker_writing_to_fd_2_leaves_the_callers_stderr_empty(monkeypatch, capfd):
    predict_batches = metrics._predict_batches

    def noisy(*args):
        os.write(2, b"a warning from a worker\n")
        return predict_batches(*args)

    params, source, coords = toy_job(300)
    serial = predict_batches(params, source, coords, BATCH)
    monkeypatch.setattr(metrics, "_predict_batches", noisy)
    capfd.readouterr()
    pooled = scoring.predict_pooled(params, source, coords, 2, BATCH)
    assert pooled.tobytes() == serial.tobytes()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("coords", [
    [[-1, 0]],                   # numpy indexing would score row H-1
    [[40, 0]],                   # one row past the raster
    [[0, 30]],
    [[0, 0]] * 300 + [[0, -1]],  # in the second batch
    [[0.0, 1.0]],
    [[0, 1, 2]],
    [0, 1],
])
def test_predict_coords_checks_its_coordinates_before_scoring(monkeypatch, coords):
    params, source, _ = toy_job(1)

    def never(*args):
        raise AssertionError("scored before the coordinates were checked")

    monkeypatch.setattr(scoring, "_POOL_WORK_MIN", 0)
    monkeypatch.setattr(metrics, "_predict_batches", never)
    monkeypatch.setattr(scoring, "predict_pooled", never)
    with pytest.raises(DimensionError):
        metrics.predict_coords(params, source, coords)


def kill_a_worker_during(fn, ready=None):
    """Run ``fn`` in a thread and SIGKILL the first child process it starts:
    at once, or 0.2 s after the event ``ready`` is set. Returns what ``fn``
    returned or raised, and the seconds from the kill until ``fn`` ended."""
    before = children()
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    if ready is not None:
        assert ready.wait(30), "the workers never started"
        time.sleep(0.2)
    deadline = time.monotonic() + 30
    while not (children() - before) and thread.is_alive() and time.monotonic() < deadline:
        time.sleep(0.001)
    started = children() - before
    assert started, "no scoring worker started"
    os.kill(min(started), signal.SIGKILL)
    killed = time.monotonic()
    thread.join(60)
    assert not thread.is_alive()
    return outcome, time.monotonic() - killed


def test_a_worker_killed_while_scoring_raises_worker_error_at_once(monkeypatch):
    # 18k pixels per worker: seconds of scoring on one thread, so the kill
    # lands while both workers score.
    params = ModelParams.initialize(PAVIA, seed=0)
    raster = np.random.default_rng(1).standard_normal((192, 192, 30)).astype(np.float32)
    coords = np.argwhere(np.ones((192, 192), dtype=bool))
    source = PatchSource(raster, 5)
    started = threading.Event()
    collect = scoring._collect

    def signalling_collect(*args):
        started.set()
        return collect(*args)

    monkeypatch.setattr(scoring, "_collect", signalling_collect)
    fds, mappings = open_fds(), shared_mappings()
    outcome, seconds = kill_a_worker_during(
        lambda: scoring.predict_pooled(params, source, coords, 2, BATCH), started)
    assert isinstance(outcome.get("error"), WorkerError), outcome
    assert "killed by signal 9" in str(outcome["error"])
    assert seconds < 1.0  # the other worker is stopped, not waited out
    assert children() == set()
    assert open_fds() == fds
    assert shared_mappings() == mappings


# ----------------------------------------------------------------- the CLI

@pytest.fixture(scope="module")
def pooled_scene(tmp_path_factory):
    """A trained run on a scene whose test set crosses the pool rule.

    The model is small but for a wide feature head, so its parameter count
    (and the rule's product) is large while its forward pass stays cheap.
    """
    root = tmp_path_factory.mktemp("pooled")
    cube, labels = synth_scene(seed=5, height=48, width=48, bands=12, num_classes=3,
                               noise_sigma=0.05)
    save_cube(cube, root / "cube.hsz")
    save_labels(labels, root / "labels.hsz")
    # At least 85% of the pixels are test pixels; each takes 43 parameters
    # per feature of this model's feature head.
    test_pixels = labels.labeled_coords().shape[0] * 85 // 100
    feature_dim = 2 ** math.ceil(math.log2(scoring._POOL_WORK_MIN / (test_pixels * 43)))
    doc = {"data": {"cube_path": str(root / "cube.hsz"),
                    "labels_path": str(root / "labels.hsz")},
           "mpca": {"views": 3, "components": 2},
           "model": {"patch_size": 3, "encoder_kernels": 2, "squeeze_channels": 4,
                     "token_channels": 8, "heads": 2, "feature_dim": feature_dim},
           "train": {"epochs": 1, "batch": 64, "lr": 1e-3, "seed": 1},
           "output": {"dir": str(root)}}
    config = root / "run.json"
    config.write_text(json.dumps(doc))
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    params = load_params(root / "checkpoint.hsz")
    assert params.values.size * test_pixels >= scoring._POOL_WORK_MIN
    return root, str(config)


def cli_outputs(capsys, root, config):
    out = {}
    for command in ("eval", "audit"):
        assert main([command, "--config", config]) == 0
        out[command] = capsys.readouterr().out
    assert main(["map", "--config", config, "--out", str(root / "map.ppm")]) == 0
    capsys.readouterr()
    out["map"] = (root / "map.ppm").read_bytes()
    return out


@needs_blas_control
def test_cli_outputs_are_byte_identical_on_both_paths(pooled_scene, capsys, monkeypatch):
    root, config = pooled_scene
    pooled_calls = []
    pooled = scoring.predict_pooled
    monkeypatch.setattr(_blas, "usable_cpus", lambda: 2)
    monkeypatch.setattr(scoring, "predict_pooled",
                        lambda *args: pooled_calls.append(args[3]) or pooled(*args))
    on_workers = cli_outputs(capsys, root, config)
    assert pooled_calls == [2] * 4  # eval, audit raw and rotated, map
    monkeypatch.setattr(scoring, "_POOL_WORK_MIN", math.inf)
    serial = cli_outputs(capsys, root, config)
    assert len(pooled_calls) == 4
    assert on_workers == serial
    assert children() == set()


@needs_blas_control
def test_cli_exits_1_with_one_json_line_when_a_worker_is_killed(pooled_scene, capsys,
                                                                monkeypatch):
    root, config = pooled_scene
    monkeypatch.setattr(_blas, "usable_cpus", lambda: 2)
    outcome, _ = kill_a_worker_during(
        lambda: main(["map", "--config", config, "--out", str(root / "killed.ppm")]))
    assert outcome == {"value": 1}
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["type"] == "WorkerError"
    assert children() == set()


# ---------------------------------------------------------------- training

@needs_blas_control
def test_training_through_a_pooled_validation_keeps_the_serial_bits(monkeypatch):
    """From 2**30 pixel-parameters a validation set is scored on workers
    (7,472 px with the 16-class default model); training must not notice."""
    cube, labels = synth_scene(seed=4, height=40, width=40, bands=12, num_classes=3,
                               noise_sigma=0.1)
    representation, _ = mpca(mmnorm(cube), num_views=2, components=2)
    config = TrainConfig(epochs=2, batch_size=64, seed=3)
    monkeypatch.setattr(_blas, "usable_cpus", lambda: 2)
    pooled_calls = []
    pooled = scoring.predict_pooled
    monkeypatch.setattr(scoring, "predict_pooled",
                        lambda *args: pooled_calls.append(len(args[2])) or pooled(*args))
    runs = {}
    for floor in (0, math.inf):
        monkeypatch.setattr(scoring, "_POOL_WORK_MIN", floor)
        runs[floor] = train(representation, labels, TOY, config, fractions=(0.1, 0.3, 0.6))
    val_pixels = len(runs[0].split.coords(VAL))
    assert val_pixels > BATCH
    assert pooled_calls == [val_pixels] * config.epochs  # all from the floor-0 run
    assert runs[0].history == runs[math.inf].history
    assert runs[0].params.values.tobytes() == runs[math.inf].params.values.tobytes()
    assert children() == set()


# ------------------------------------------------------ callers without a guard

UNGUARDED = """
import sys
import numpy as np
from hsimvt import ModelConfig, ModelParams, PatchSource, _blas, metrics, scoring
_blas.usable_cpus = lambda: 2
scoring._POOL_WORK_MIN = 0
config = ModelConfig(patch_size=3, num_views=2, view_components=2, encoder_kernels=2,
                     squeeze_channels=4, token_channels=8, num_heads=2, feature_dim=8,
                     num_classes=3)
params = ModelParams.initialize(config, seed=0)
raster = np.random.default_rng(0).standard_normal((20, 30, 4)).astype(np.float32)
source = PatchSource(raster, 3)
coords = np.argwhere(np.ones((20, 30), dtype=bool))
pooled = metrics.predict_coords(params, source, coords)
serial = metrics._predict_batches(params, source, coords, 256)
print("same" if pooled.tobytes() == serial.tobytes() else "differ")
"""


@pytest.mark.parametrize("how", ["script", "-c"])
def test_an_unguarded_caller_gets_the_serial_bits(tmp_path, how):
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED)
    argv = [str(script)] if how == "script" else ["-c", UNGUARDED]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["same"]
