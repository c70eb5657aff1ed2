"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import re
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hsimvt import ModelConfig, ModelParams, Tensor, data, model, ops, training  # noqa: E402
from hsimvt.tensor import GradGraph  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_self_time_sums_to_root_duration():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    root = tracer.open("root")
    child = tracer.open("ops.relu")
    tracer.close(child)
    tracer.close(root)
    total = sum(spans.self_times(tracer.starts, tracer.ends, tracer.parents))
    assert total == tracer.ends[0] - tracer.starts[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mask_keeps_exact_count_and_every_class(seed):
    scene = workloads.Scene(height=40, width=30, bands=8, classes=6, noise=0.5, labeled=333)
    cube, labels = workloads.make_scene(scene, seed)
    _, full = data.synth_scene(seed=seed, height=40, width=30, bands=8, num_classes=6,
                               noise_sigma=0.5)
    kept = labels.ids > 0
    assert int(kept.sum()) == 333
    assert set(np.unique(labels.ids[kept])) == set(range(1, 7))
    assert np.array_equal(labels.ids[kept], full.ids[kept])
    again = workloads.make_scene(scene, seed)[1]
    assert np.array_equal(again.ids, labels.ids)


def test_mask_rejects_impossible_counts():
    ids = np.ones((4, 4), dtype=np.int64)
    with pytest.raises(ValueError):
        workloads.label_mask(ids, 17, 1, np.random.default_rng(0))


def hand_count_conv(x_shape, k_shape, depth_wise):
    """Multiply-adds of a zero-padded 'same' correlation, counted one by one."""
    n, h, w, c = x_shape
    if depth_wise:  # conv3d: every kernel slides over rows, columns and channels
        nk, k1, k2, k3 = k_shape
        macs = 0
        for _ in range(n * h * w * c * nk):
            for _ in range(k1 * k2 * k3):
                macs += 1
    else:  # conv2d: every kernel covers all input channels
        nk, kh, kw, cin = k_shape
        macs = 0
        for _ in range(n * h * w * nk):
            for _ in range(kh * kw * cin):
                macs += 1
    return 2 * macs


def test_conv_flop_formulas_match_a_hand_count():
    assert spans.conv2d_flops((2, 3, 3, 5), (4, 3, 3, 5)) == \
        hand_count_conv((2, 3, 3, 5), (4, 3, 3, 5), depth_wise=False) == 6480
    assert spans.conv3d_flops((1, 3, 3, 4), (2, 3, 3, 3)) == \
        hand_count_conv((1, 3, 3, 4), (2, 3, 3, 3), depth_wise=True) == 3888


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    doc = benchmark_json()
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END
    produced = spans.per_layer_values({}, {}, {}, [], 0)
    produced.update({f"trace.overhead.{name}": 0.0 for name in run.TIMED})
    assert layer == {name: spans.unit_of(name) for name in produced}
    for name in list(e2e) + list(layer) + [w["name"] for w in doc["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_charges_backward_to_ops_and_restores_bindings():
    config = ModelConfig(patch_size=3, num_views=4, view_components=2, encoder_kernels=2,
                         squeeze_channels=4, token_channels=8, num_heads=2,
                         feature_dim=8, num_classes=3)
    params = ModelParams.initialize(config, seed=0)
    batch = Tensor(np.random.default_rng(0).standard_normal((2, 3, 3, 8)).astype(np.float32))
    originals = (ops.conv3d, model.forward, training.forward, GradGraph.record)
    tracer = spans.Tracer()
    tracer.install()
    since = tracer.mark()
    try:
        with GradGraph() as graph:
            loss = training.cross_entropy(training.forward(batch, params), np.array([1, 3]))
        graph.backward(loss)
    finally:
        tracer.restore()
    assert (ops.conv3d, model.forward, training.forward, GradGraph.record) == originals
    got = tracer.layer_metrics(since)
    assert got["ops.conv3d.calls"] == 1 and got["ops.conv2d.calls"] == 2
    assert got["ops.conv3d.bwd_ms"] > 0 and got["ops.conv2d.bwd_ms"] > 0
    assert got["training.cross_entropy.ms"] > 0
    assert got["tensor.tape_len"] == len(graph)
    assert got["ops.conv3d.gflop"] == spans.conv3d_flops((2, 3, 3, 8), (2, 3, 3, 3)) / 1e9


def test_sampler_rescales_work_by_the_probes_around_and_inside_it():
    nominal = hostspeed.NOMINAL_S
    sampler = hostspeed.Sampler()
    # probes at nominal speed, at half speed, at nominal speed
    sampler.starts = [0.0, 1.0, 2.0]
    sampler.ends = [nominal, 1.0 + 2 * nominal, 2.0 + nominal]
    # no probe inside: the probes just before and after, mean 1.5 x nominal
    assert sampler.steady(0.1, 0.9) == pytest.approx(0.8 / 1.5)
    # the probe inside is taken out of the time and joins the mean (4/3 x nominal)
    assert sampler.steady(0.5, 1.5) == pytest.approx((1.0 - 2 * nominal) * 3 / 4)
    assert hostspeed.probe() > 0


def test_excluded_time_leaves_the_interrupted_span_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    since = tracer.mark()
    root = tracer.open("training.train")        # [0, 3]
    tracer.exclude(0.5)                          # probe while only the root is open
    child = tracer.open("training.adam_step")   # [1, 2]
    tracer.exclude(0.25)                         # probe inside the child
    tracer.close(child)
    tracer.close(root)
    got = tracer.layer_metrics(since)
    assert got["training.train.ms"] == pytest.approx(1e3 * (3 - 1 - 0.5))
    assert got["training.adam_step.ms"] == pytest.approx(1e3 * (1 - 0.25))
