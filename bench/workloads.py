"""Benchmark workloads: seeded synthetic scenes, the pipeline stages, output checks.

Every workload runs the same five stages a user of hsimvt runs, on its own
scene and run config: ``preprocess`` and ``map`` through ``hsimvt.cli.main``,
``train``, ``evaluate`` and ``gradcheck`` through the library, so that every
run reports every end-to-end metric. After one pass over all five, the
workload's ``loop`` stages repeat round-robin, at least once and until the
run's time is spent, so that each metric's samples spread over the run. A
loop stage's first-pass sample (cold caches, first calls; a first
preprocess takes a third longer) only warms up. Every timed sample is
rescaled to the nominal host speed by the ``hostspeed`` probes run around
and inside it. The stages a workload is about (its ``primary`` stages) are
traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import hostspeed
import hsimvt
from hsimvt import (cli, data, gradcheck, hsz, metrics, model, ops, render,
                    runconfig, training)
from hsimvt.tensor import GradGraph, Tensor

STAGES = ("preprocess", "train", "evaluate", "map", "gradcheck")
SETUP_REPEATS = 3           # set-up runs at least this often per run ...
SETUP_MIN_S = 1.0           # ... and until this much set-up time is spent
SETUP_MAX_REPEATS = 100
MIN_PER_CLASS = 20          # labeled pixels kept per class before random fill
MAP_SAMPLE = 64             # pixels recomputed in float64 per map check
MARGIN_TOL = 1e-3           # logit margin below which float32 may flip argmax
GRAD_TOL = 1e-4             # criterion 01's gate
KINK_MARGIN = 1e-3          # ReLU inputs closer to 0 make central differences lie
MAX_TRACED_UNITS = 3
OA_FLOOR = 0.5              # test OA below this means the model computes something else


@dataclass(frozen=True)
class Scene:
    height: int
    width: int
    bands: int
    classes: int
    noise: float
    labeled: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: Scene
    config: dict                     # RunConfig overrides
    primary: tuple                   # stages the traced units run
    loop: tuple                      # one round, repeated until --seconds is spent
    gradcheck_params: tuple = ()     # empty: every trainable parameter
    test_sample: int = 0             # 0: the whole test split
    kink_screen: bool = False


# Parameters with no ReLU downstream, so central differences stay smooth.
GRADCHECK_SUBSET = ("classifier.bias", "feature.bias", "global_token")

TOY_CONFIG = {
    "mpca": {"views": 4, "components": 2},
    "model": {"patch_size": 3, "encoder_kernels": 2, "squeeze_channels": 4,
              "token_channels": 8, "heads": 2, "feature_dim": 8},
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-ip",
        why="Indian Pines shape, 10,249 labeled px, default config, 30 epochs: "
            "tape, conv backward and Adam do most of the work; test OA guards "
            "against faster-but-different math",
        scene=Scene(145, 145, 200, 16, 0.5, 10249),
        config={"train": {"epochs": 30}},
        primary=("train",),
        loop=("preprocess", "gradcheck", "preprocess", "map", "preprocess", "gradcheck",
              "preprocess", "gradcheck", "preprocess", "map", "preprocess", "gradcheck"),
        gradcheck_params=GRADCHECK_SUBSET,
    ),
    Workload(
        name="map-pavia",
        why="Pavia U shape, 42,776 labeled px: preprocess (float64 MPCA views "
            "beyond L3, HSZ I/O) and map (batch-256 forward, no tape, render)",
        scene=Scene(610, 340, 103, 9, 0.5, 42776),
        config={"train": {"epochs": 10, "lr": 1e-3, "fractions": [0.01, 0.01, 0.98]}},
        primary=("preprocess", "map"),
        loop=("preprocess", "gradcheck", "gradcheck", "gradcheck"),
        gradcheck_params=GRADCHECK_SUBSET,
        test_sample=2048,
    ),
    Workload(
        name="gradcheck-toy",
        why="criterion 01 toy model (1,487 float64 scalars, batch 2) through "
            "check_gradients: tiny tensors, so per-op Python overhead sets the time",
        scene=Scene(128, 128, 16, 3, 0.1, 8000),
        config=dict(TOY_CONFIG, train={"epochs": 10, "lr": 1e-2}),
        primary=("gradcheck",),
        loop=("gradcheck", "map", "preprocess", "map", "preprocess", "train", "map",
              "preprocess"),
        kink_screen=True,
    ),
)}


def label_mask(ids, labeled, num_classes, rng):
    """Keep exactly ``labeled`` pixels of ``ids``, every class among them.

    Each class first keeps min(MIN_PER_CLASS, its size) random pixels; the
    rest are drawn uniformly from the remaining pixels. Others become 0.
    """
    flat = ids.reshape(-1)
    keep = np.zeros(flat.size, dtype=bool)
    for c in range(1, num_classes + 1):
        members = np.flatnonzero(flat == c)
        if members.size == 0:
            raise ValueError(f"class {c} has no pixels to keep")
        keep[rng.choice(members, min(MIN_PER_CLASS, members.size), replace=False)] = True
    if not int(keep.sum()) <= labeled <= flat.size:
        raise ValueError(f"cannot keep {labeled} of {flat.size} pixels")
    rest = np.flatnonzero(~keep)
    keep[rng.choice(rest, labeled - int(keep.sum()), replace=False)] = True
    return np.where(keep, flat, 0).reshape(ids.shape)


def make_scene(scene: Scene, seed: int):
    """Synthetic cube plus a label map masked to the scene's labeled count."""
    cube, full = data.synth_scene(seed=seed, height=scene.height, width=scene.width,
                                  bands=scene.bands, num_classes=scene.classes,
                                  noise_sigma=scene.noise)
    rng = np.random.default_rng([seed, 1])
    ids = label_mask(full.ids, scene.labeled, scene.classes, rng)
    return cube, data.LabelMap(ids=ids, num_classes=scene.classes)


def write_inputs(workload: Workload, seed: int, workdir: str) -> str:
    """Generate and write the workload's HSZ inputs and run config; returns its path."""
    os.makedirs(workdir, exist_ok=True)
    cube, labels = make_scene(workload.scene, seed)
    cube_path = os.path.join(workdir, "cube.hsz")
    labels_path = os.path.join(workdir, "labels.hsz")
    data.save_cube(cube, cube_path)
    data.save_labels(labels, labels_path)
    doc = {name: dict(section) for name, section in workload.config.items()}
    doc["train"] = dict(doc.get("train", {}), seed=seed)
    doc["data"] = {"cube_path": cube_path, "labels_path": labels_path}
    doc["output"] = {"dir": workdir}
    config_path = os.path.join(workdir, "run.json")
    with open(config_path, "w") as f:
        json.dump(doc, f, sort_keys=True)
    return config_path


def repeat_timed(fn):
    """Run ``fn`` SETUP_REPEATS times or more, until SETUP_MIN_S is spent;
    returns (seconds of each run at nominal host speed, last result)."""
    spans, out = [], None
    with hostspeed.Sampler() as sampler:
        while len(spans) < SETUP_REPEATS or (sum(e - s for s, e in spans) < SETUP_MIN_S
                                             and len(spans) < SETUP_MAX_REPEATS):
            started = time.perf_counter()
            out = fn()
            spans.append((started, time.perf_counter()))
    return [sampler.steady(s, e) for s, e in spans], out


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as f:
        return digest(f.read())


def read_ppm(path):
    """(H, W, 3) uint8 pixels of a binary P6 file with maxval 255."""
    with open(path, "rb") as f:
        raw = f.read()
    magic, size, maxval, pixels = raw.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not a P6/255 PPM")
    w, h = (int(v) for v in size.split())
    return np.frombuffer(pixels, dtype=np.uint8, count=h * w * 3).reshape(h, w, 3)


def ids_from_rgb(rgb, num_classes):
    """Class id per pixel from its palette colour: 0 black, -1 any other colour."""
    codes = (rgb[..., 0].astype(np.int64) << 16) | (rgb[..., 1].astype(np.int64) << 8) \
        | rgb[..., 2].astype(np.int64)
    ids = np.full(codes.shape, -1, dtype=np.int64)
    ids[codes == 0] = 0
    for k, (r, g, b) in enumerate(render.class_palette(num_classes).astype(np.int64), 1):
        ids[codes == ((r << 16) | (g << 8) | b)] = k
    return ids


def relu_margin(fn):
    """Smallest |input| that any ops.relu sees while ``fn()`` runs."""
    seen = []
    relu = ops.relu

    def spy(x):
        seen.append(float(np.abs(x.data).min()))
        return relu(x)

    ops.relu = spy
    try:
        fn()
    finally:
        ops.relu = relu
    return min(seen, default=math.inf)


@dataclass
class Check:
    stage: str
    ok: bool
    detail: str


@dataclass
class Pipeline:
    """One workload's stages, state and measurements inside one process."""

    workload: Workload
    seed: int
    config_path: str
    tracer: object = None
    sampler: object = None
    timed: dict = field(default_factory=lambda: defaultdict(list))     # (start, end, work)
    traced_timed: dict = field(default_factory=lambda: defaultdict(list))
    values: dict = field(default_factory=lambda: defaultdict(list))    # untimed metrics
    stage_seconds: dict = field(default_factory=lambda: defaultdict(list))
    checks: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def __post_init__(self):
        self.config = runconfig.RunConfig.load(self.config_path)
        self.workdir = self.config["output"]["dir"]
        self.labels = data.load_labels(self.config["data"]["labels_path"])
        self.model_config = self.config.model_config(self.labels.num_classes)
        self.train_config = self.config.train_config()
        self.representation = None
        self.result = None
        self.grad_inputs = None
        self.warm_up_counts = {}

    # -- helpers --------------------------------------------------------

    def record(self, metric, started, ended, work=None):
        """One timed sample: ``work`` units per second, or seconds if None."""
        (self.traced_timed if self.tracer else self.timed)[metric].append(
            (started, ended, work))

    def samples(self, traced=False):
        """Each measured sample's value at nominal host speed, plus the untimed
        values; first-pass samples are left out where the loop added more."""
        out = {} if traced else {m: list(v) for m, v in self.values.items()}
        for metric, rows in (self.traced_timed if traced else self.timed).items():
            if not traced:
                rows = rows[self.warm_up_counts.get(metric, 0):] or rows
            steady = [(self.sampler.steady(s, e), work) for s, e, work in rows]
            out[metric] = [t if work is None else work / t for t, work in steady]
        return out

    def slowness(self):
        """Each probe's time over the nominal one."""
        return [(e - s) / hostspeed.NOMINAL_S
                for s, e in zip(self.sampler.starts, self.sampler.ends)]

    def check(self, stage, ok, detail=""):
        self.checks.append(Check(stage, bool(ok), detail))

    def same_as_before(self, key, value):
        """True on first sight of ``key``, else whether ``value`` repeats exactly."""
        return self.digests.setdefault(key, value) == value

    def cli(self, *argv):
        """Run one hsimvt command in-process; returns (stdout JSON, start, end)."""
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        ended = time.perf_counter()
        if code != 0:
            raise RuntimeError(f"hsimvt {argv[0]} exited {code}")
        return json.loads(out.getvalue().strip().splitlines()[-1]), started, ended

    def load_representation(self):
        if self.representation is None:
            path = os.path.join(self.workdir, cli.REPRESENTATION_FILE)
            self.representation, _ = hsz.read_cube_raster(path)
        return self.representation

    def warm_up(self):
        """One untimed forward and backward at the workload's model shape."""
        params = model.ModelParams.initialize(self.model_config, seed=0)
        p, c = self.model_config.patch_size, self.model_config.input_channels
        batch = Tensor(np.zeros((2, p, p, c), dtype=np.float32))
        with GradGraph() as graph:
            loss = training.cross_entropy(model.forward(batch, params), np.array([1, 2]))
        graph.backward(loss)

    # -- stages -----------------------------------------------------------

    @contextlib.contextmanager
    def untraced(self):
        """Suspend tracing, so that checks leave no spans."""
        tracer = self.tracer
        if tracer is None:
            yield
            return
        tracer.restore()
        self.tracer = None
        try:
            yield
        finally:
            tracer.install()
            self.tracer = tracer

    def run_stage(self, stage):
        """One stage execution: one attempted operation, failed if any check fails."""
        first_check = len(self.checks)
        self.attempted += 1
        started = time.perf_counter()
        try:
            getattr(self, f"stage_{stage}")()
        except (hsimvt.HsimvtError, OSError, RuntimeError, ValueError) as exc:
            self.check(stage, False, f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if not all(c.ok for c in self.checks[first_check:]):
                self.failed += 1
        self.stage_seconds[stage].append(time.perf_counter() - started)

    def traced_unit(self, tracer):
        """The primary stages once under ``tracer``; returns their layer metrics.

        Probe time is excluded from the self time of the span it interrupts.
        """
        self.sampler.listener = tracer.exclude
        tracer.install()
        self.tracer = tracer
        since = tracer.mark()
        try:
            for stage in self.workload.primary:
                self.run_stage(stage)
        finally:
            tracer.restore()
            self.tracer = None
            self.sampler.listener = None
        return tracer.layer_metrics(since)

    def run(self, seconds, tracer=None):
        """Every stage once, then ``loop`` rounds: at least one, and more until
        ``seconds`` have passed.

        Needs a running :attr:`sampler`. With a tracer, a traced unit of the
        primary stages precedes each round (at least one, at most
        MAX_TRACED_UNITS); returns the layer metrics of each traced unit.
        """
        started = time.perf_counter()
        for stage in STAGES:
            self.run_stage(stage)
        self.warm_up_counts = {metric: len(rows) for metric, rows in self.timed.items()}
        first = {stage: times[0] for stage, times in self.stage_seconds.items()}
        unit_s = sum(first[s] for s in self.workload.primary)
        round_s = sum(first[s] for s in self.workload.loop)

        def fits(cost):
            return time.perf_counter() - started + cost <= seconds

        layer_units, rounds = [], 0
        while True:
            progressed = False
            if tracer is not None and len(layer_units) < MAX_TRACED_UNITS and (
                    not layer_units or fits(unit_s)):
                layer_units.append(self.traced_unit(tracer))
                progressed = True
            if not rounds or fits(round_s):
                for stage in self.workload.loop:
                    self.run_stage(stage)
                rounds += 1
                progressed = True
            if not progressed:
                return layer_units

    def stage_preprocess(self):
        doc, started, ended = self.cli("preprocess", "--config", self.config_path)
        self.record("preprocess_s", started, ended)
        want = self.model_config.input_channels
        self.check("preprocess", doc.get("channels") == want,
                   f"channels {doc.get('channels')}, expected {want}")
        rep_digest = file_digest(doc["representation"])
        self.check("preprocess", self.same_as_before("representation", rep_digest),
                   "representation differs from an earlier preprocess")

    def stage_train(self):
        """Each epoch after the first (shuffle, steps, val scoring) is one sample."""
        rep = self.load_representation()
        epoch_ends = []
        result = training.train(rep, self.labels, self.model_config, self.train_config,
                                fractions=self.config.fractions,
                                log=lambda _: epoch_ends.append(time.perf_counter()))
        n_train = result.split.counts()["train"]
        for started, ended in zip(epoch_ends, epoch_ends[1:]):
            self.record("train_px_per_s", started, ended, n_train)
        losses = [h["train_loss"] for h in result.history]
        self.check("train", all(math.isfinite(v) for v in losses), "non-finite train loss")
        history = digest(json.dumps(result.history, sort_keys=True).encode())
        self.check("train", self.same_as_before("history", history),
                   "history differs from an earlier train")
        if self.result is None:
            self.result = result
            model.save_params(os.path.join(self.workdir, cli.CHECKPOINT_FILE), result.params)

    def stage_evaluate(self):
        rep = self.load_representation()
        coords = self.result.split.coords(data.TEST)
        if self.workload.test_sample and len(coords) > self.workload.test_sample:
            rng = np.random.default_rng([self.seed, 2])
            coords = coords[np.sort(rng.choice(len(coords), self.workload.test_sample,
                                               replace=False))]
        true_ids = self.labels.ids[coords[:, 0], coords[:, 1]]
        source = data.PatchSource(rep, self.model_config.patch_size)
        report = metrics.evaluate(self.result.params, source, coords, true_ids)
        self.values["test_oa"].append(report.oa)
        self.check("evaluate", report.oa >= OA_FLOOR,
                   f"test OA {report.oa:.4f} below floor {OA_FLOOR}")
        self.check("evaluate", self.same_as_before("test_oa", report.oa),
                   "test OA differs from an earlier evaluate")

    def stage_map(self):
        ppm = os.path.join(self.workdir, "map.ppm")
        doc, started, ended = self.cli("map", "--config", self.config_path, "--out", ppm)
        labeled = int((self.labels.ids > 0).sum())
        self.record("map_px_per_s", started, ended, labeled)
        self.check("map", doc.get("pixels") == labeled,
                   f"map reports {doc.get('pixels')} pixels, expected {labeled}")
        self.check("map", self.same_as_before("map", file_digest(ppm)),
                   "map differs from an earlier map")
        with self.untraced():
            self.check_map_pixels(ppm)

    def check_map_pixels(self, ppm):
        """Black exactly off-label; a float64 recomputation agrees on clear pixels."""
        ids = ids_from_rgb(read_ppm(ppm), self.labels.num_classes)
        labeled = self.labels.ids > 0
        self.check("map", np.array_equal(ids == 0, ~labeled) and (ids >= 0).all(),
                   "map is not black exactly at unlabeled pixels")
        coords = self.labels.labeled_coords()
        rng = np.random.default_rng([self.seed, 3])
        sample = coords[np.sort(rng.choice(len(coords), min(MAP_SAMPLE, len(coords)),
                                           replace=False))]
        ckpt = model.load_params(os.path.join(self.workdir, cli.CHECKPOINT_FILE))
        params64 = model.ModelParams(ckpt.config, {
            n: Tensor(t.data.astype(np.float64)) for n, t in ckpt.named_parameters()})
        source = data.PatchSource(self.load_representation(), ckpt.config.patch_size)
        patches = source.gather(sample).astype(np.float64)
        logits = model.forward(Tensor(patches), params64).data
        top2 = np.sort(logits, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > MARGIN_TOL
        want = model.predict(logits)
        got = ids[sample[:, 0], sample[:, 1]]
        self.check("map", np.array_equal(want[clear], got[clear]),
                   f"{int((want[clear] != got[clear]).sum())} of {int(clear.sum())} "
                   "clear-margin pixels disagree with the float64 recomputation")

    def gradcheck_inputs(self):
        """float64 params, a standard-normal 2-patch batch and its labels.

        With ``kink_screen`` the draw is repeated until no ReLU input lies
        within KINK_MARGIN of 0, where central differences straddle the kink
        and disagree with any subgradient.
        """
        if self.grad_inputs is not None:
            return self.grad_inputs
        config = self.model_config
        shape = (2, config.patch_size, config.patch_size, config.input_channels)
        for attempt in range(100):
            rng = np.random.default_rng([self.seed, 4, attempt])
            batch = Tensor(rng.standard_normal(shape))
            y = rng.integers(1, config.num_classes + 1, size=2)
            params = model.ModelParams.initialize(config, seed=int(rng.integers(2**31)),
                                                  dtype=np.float64)
            if not self.workload.kink_screen or relu_margin(
                    lambda: model.forward(batch, params)) > KINK_MARGIN:
                break
        else:
            raise RuntimeError("no gradcheck input clear of ReLU kinks in 100 draws")
        names = self.workload.gradcheck_params
        checked = {n: t for n, t in params.trainable_parameters() if not names or n in names}
        self.grad_inputs = (params, batch, y, checked)
        return self.grad_inputs

    def stage_gradcheck(self):
        params, batch, y, checked = self.gradcheck_inputs()
        params.zero_grads()
        calls = 0

        def loss_fn():
            nonlocal calls
            calls += 1
            return training.cross_entropy(model.forward(batch, params), y)

        fn = self.tracer.wrap("gradcheck.model_fn", loss_fn) if self.tracer else loss_fn
        started = time.perf_counter()
        report = gradcheck.check_gradients(fn, checked, tolerance=GRAD_TOL, epsilon=1e-4)
        self.record("fd_evals_per_s", started, time.perf_counter(), calls)
        scalars = sum(t.data.size for t in checked.values())
        self.check("gradcheck", report.ok and report.max_rel_err < GRAD_TOL,
                   f"max rel err {report.max_rel_err:.3e}")
        self.check("gradcheck", calls == 2 * scalars + 1,
                   f"{calls} loss evaluations for {scalars} scalars")
