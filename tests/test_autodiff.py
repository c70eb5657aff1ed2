"""Reverse-mode gradients: per-op finite-difference checks and tape rules."""

import threading

import numpy as np
import pytest

from hsimvt import (GradCheckReport, GradGraph, ModelConfig, ModelParams, Tensor, UsageError,
                    check_gradients, cross_entropy, forward)
from hsimvt import ops
from hsimvt.tensor import record_op, records

from oracles import add, mul, reshape, sum_all

RNG = np.random.default_rng(20)
TOL = 1e-6  # float64 central differences are far tighter than the 1e-4 gate


def _param(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


def _check(model_fn, params):
    report = check_gradients(model_fn, params, tolerance=TOL)
    assert report.ok, report.summary()


def _check_conv(op, xshape, kshape, out_channels):
    x = _param(xshape)
    k = _param(kshape)
    b = _param((kshape[0],))
    probe = Tensor(RNG.normal(size=xshape[:-1] + (out_channels,)))
    report = check_gradients(lambda: sum_all(mul(op(x, k, b), probe)),
                             {"x": x, "kernels": k, "bias": b}, tolerance=TOL)
    assert report.ok, f"{op.__name__} {xshape} * {kshape}: {report.summary()}"


def test_conv3d_gradients():
    # k3 = 3 crosses both channel edges; with C < k3 one window spans both at once
    for xshape, kshape in [((1, 4, 4, 5), (2, 3, 3, 3)),
                           ((1, 3, 3, 1), (2, 1, 3, 3)),
                           ((1, 3, 2, 2), (1, 3, 1, 5))]:
        _check_conv(ops.conv3d, xshape, kshape, kshape[0] * xshape[-1])


def test_conv3d_gradients_batched():
    for xshape, kshape in [((2, 3, 3, 4), (2, 1, 3, 3)),
                           ((2, 3, 2, 3), (3, 3, 3, 3))]:
        _check_conv(ops.conv3d, xshape, kshape, kshape[0] * xshape[-1])


def test_conv2d_gradients():
    for xshape, kshape in [((2, 4, 5, 3), (4, 3, 3, 3)),     # C_in < K
                           ((2, 3, 4, 12), (3, 3, 3, 12)),   # C_in > K, like conv2a
                           ((1, 4, 5, 3), (2, 3, 3, 3)),     # a batch of one
                           ((2, 3, 4, 2), (3, 1, 3, 2)),     # 1 x 3 kernel
                           ((1, 3, 3, 2), (2, 5, 5, 2))]:    # kernel wider than the patch
        _check_conv(ops.conv2d, xshape, kshape, kshape[0])


@pytest.mark.parametrize("op,kshape,out_channels", [(ops.conv3d, (2, 3, 3, 3), 8),
                                                    (ops.conv2d, (3, 3, 3, 4), 3)],
                         ids=["conv3d", "conv2d"])
def test_conv_leaves_an_input_that_needs_no_gradient_alone(op, kshape, out_channels):
    """The first SED conv reads the data patch: its backward fills the kernel
    and bias gradients, equal to those of a run that also differentiates the
    input, and leaves the input's gradient unset."""
    data = RNG.normal(size=(2, 4, 4, 4))
    probe = Tensor(RNG.normal(size=(2, 4, 4, out_channels)))
    grads = []
    for x in (Tensor(data), Tensor(data, requires_grad=True)):
        k = Tensor(np.ones(kshape), requires_grad=True)
        b = Tensor(np.ones(kshape[0]), requires_grad=True)
        with GradGraph() as graph:
            loss = sum_all(mul(op(x, k, b), probe))
        graph.backward(loss)
        grads.append((x.grad, k.grad, b.grad))
    (x_grad, k_grad, b_grad), (full_x_grad, full_k_grad, full_b_grad) = grads
    assert x_grad is None and full_x_grad is not None
    np.testing.assert_array_equal(k_grad, full_k_grad)
    np.testing.assert_array_equal(b_grad, full_b_grad)


def test_affine_gradients():
    for xshape in [(5, 3), (5, 2, 3)]:  # a 3-D input is flattened to (5, 6)
        x = _param(xshape)
        w = _param((int(np.prod(xshape[1:])), 4))
        b = _param((4,))
        probe = Tensor(RNG.normal(size=(5, 4)))
        _check(lambda: sum_all(mul(ops.affine(x, w, b), probe)),
               {"x": x, "w": w, "b": b})


def test_relu_gradient_away_from_kink():
    x = Tensor(RNG.normal(size=(5, 5)) + np.sign(RNG.normal(size=(5, 5))) * 0.5,
               requires_grad=True)
    probe = Tensor(RNG.normal(size=(5, 5)))
    _check(lambda: sum_all(mul(ops.relu(x), probe)), {"x": x})


def test_box_mean_and_prepend_row_gradients():
    # three 2 x 3 boxes; the first two overlap on row 1, cols 1-2, the last
    # two on row 2, col 2
    x = _param((2, 4, 5, 3))
    probe = Tensor(RNG.normal(size=(2, 4, 3)))
    grad_row, constant_row = _param((3,)), Tensor(RNG.normal(size=3))
    # the constant row stands in for the global-token ablation's zero row
    for v, checked in [(grad_row, {"x": x, "v": grad_row}), (constant_row, {"x": x})]:
        def model():
            pooled = ops.box_mean(x, [((0, 2), (1, 4)), ((1, 3), (0, 3)), ((2, 4), (2, 5))])
            return sum_all(mul(ops.prepend_row(v, pooled), probe))   # (2, 4, 3)

        _check(model, checked)


def test_check_gradients_perturbs_a_non_contiguous_parameter():
    """A transposed view cannot be flattened without a copy; the check must
    still perturb the parameter itself, in the C order of its gradient."""
    x = Tensor(RNG.normal(size=(3, 2)).T, requires_grad=True)
    assert not x.data.flags.c_contiguous
    report = check_gradients(lambda: sum_all(mul(x, x)), {"x": x}, tolerance=TOL)
    assert report.ok, report.summary()


def test_scale_add_mul_gradients():
    a = _param((3, 3))
    b = _param((3, 3))
    c = Tensor(np.full((3, 3), 0.7))
    _check(lambda: sum_all(mul(mul(add(a, b), b), c)),
           {"a": a, "b": b})


def test_numeric_gradient_matches_backward_for_input():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(4, 2)))
    # piecewise linear away from the kinks, so central differences are exact
    # up to rounding: 1e-8 relative is tighter than the assert_allclose gate
    # (atol 1e-8, rtol 1e-7) this replaced
    b = Tensor(np.zeros(2))
    report = check_gradients(lambda: sum_all(ops.relu(ops.affine(x, w, b))), {"x": x},
                             tolerance=1e-8)
    assert report.ok, report.summary()


def test_gradients_accumulate_across_graphs():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    three = Tensor(np.full((2, 2), 3.0))
    for _ in range(2):
        with GradGraph() as graph:
            loss = sum_all(mul(x, three))
        graph.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 6.0))


def test_records_needs_a_graph_and_an_input_that_needs_a_gradient():
    plain, tracked = Tensor(np.ones(2)), Tensor(np.ones(2), requires_grad=True)
    assert not records((plain, tracked))
    with GradGraph():
        assert not records((plain, plain)) and not records(())
        assert records((plain, tracked))
    assert not records((tracked,))


def test_no_graph_means_no_tracking():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ops.relu(x)
    assert not y.requires_grad
    assert x.grad is None


def test_graph_cannot_nest():
    with GradGraph():
        with pytest.raises(UsageError):
            with GradGraph():
                pass


def test_graph_active_only_inside_context():
    from hsimvt.tensor import active_graph
    assert active_graph() is None
    with GradGraph() as g:
        assert active_graph() is g
    assert active_graph() is None


def test_each_thread_sees_only_its_own_graph():
    from hsimvt.tensor import active_graph
    opened, checked = threading.Event(), threading.Event()
    seen = {}

    def other_thread():
        seen["fresh"] = active_graph()
        with GradGraph() as graph:
            seen["own"] = active_graph() is graph
            opened.set()
            checked.wait(timeout=10)

    with GradGraph() as main_graph:
        thread = threading.Thread(target=other_thread)
        thread.start()
        assert opened.wait(timeout=10)
        assert active_graph() is main_graph
        checked.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == {"fresh": None, "own": True}


def test_backward_requires_scalar_and_single_use():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradGraph() as graph:
        y = add(x, x)
        loss = sum_all(y)
    with pytest.raises(UsageError):
        graph.backward(y)  # non-scalar
    graph.backward(loss)
    with pytest.raises(UsageError):
        graph.backward(loss)  # tape already consumed


def test_check_gradients_reports_per_parameter():
    x = _param((2, 2))
    report = check_gradients(lambda: sum_all(mul(x, x)), {"x": x})
    assert list(report.per_param) == ["x"]
    assert report.max_rel_err < 1e-6
    assert "ok" in report.summary()


def test_grad_check_report_derives_its_failures():
    report = GradCheckReport(per_param={"a": 1e-7, "b": 1e-4, "c": 0.5}, tolerance=1e-4)
    assert report.failures == ["b", "c"] and not report.ok
    assert report.max_rel_err == 0.5
    assert report.summary().splitlines()[1:] == [
        "  a: max rel err 1.000e-07 [ok]", "  b: max rel err 1.000e-04 [FAIL]",
        "  c: max rel err 5.000e-01 [FAIL]"]
    assert GradCheckReport(per_param={"a": 1e-7}).ok


def _nan_adjoint(x):
    """``x`` itself, whose adjoint gives a NaN gradient."""
    return record_op(x.data.copy(), (x,), lambda go, need: (np.full_like(x.data, np.nan),))


@pytest.mark.parametrize("case", ["nan adjoint", "nan loss", "finite then nan"])
def test_a_nan_error_fails_the_gradient_check(case):
    a, b = _param((3,)), _param((3,))
    nan = Tensor(np.full(3, np.nan))
    losses = {"nan adjoint": lambda: sum_all(_nan_adjoint(b)),
              "nan loss": lambda: sum_all(mul(b, nan)),
              "finite then nan": lambda: add(sum_all(mul(a, a)), sum_all(_nan_adjoint(b)))}
    params = {"a": a, "b": b} if case == "finite then nan" else {"b": b}
    report = check_gradients(losses[case], params)
    assert not report.ok and "b" in report.failures and "a" not in report.failures
    assert np.isnan(report.max_rel_err)
    assert report.summary().splitlines()[-1] == "  b: max rel err nan [FAIL]"
    if "a" in params:
        assert report.summary().splitlines()[1].endswith("[ok]")


def test_check_gradients_twice_on_the_same_params():
    """A second check must not add onto the gradients the first one left."""
    toy = ModelConfig(patch_size=3, num_views=4, view_components=2, encoder_kernels=2,
                      squeeze_channels=4, token_channels=8, num_heads=2, feature_dim=8,
                      num_classes=3)
    params = ModelParams.initialize(toy, seed=0, dtype=np.float64)
    batch = Tensor(np.random.default_rng(1).normal(size=(2, 3, 3, 8)))
    named = dict(params.trainable_parameters())
    checked = {name: named[name] for name in ("classifier.bias", "feature.bias")}
    grads = params.grads

    def loss_fn():
        return cross_entropy(forward(batch, params), np.array([1, 3]))

    first = check_gradients(loss_fn, checked)
    second = check_gradients(loss_fn, checked)
    assert first.ok and second.ok, second.summary()
    assert first.per_param == second.per_param
    assert all(np.shares_memory(t.grad, grads) for t in checked.values())


def test_diamond_reuse_accumulates_correctly():
    """One tensor feeding two branches must receive both adjoints."""
    x = Tensor(np.array([1.5, -0.5, 2.0]), requires_grad=True)

    def model():
        doubled = add(x, x)
        return sum_all(add(mul(doubled, x), doubled))

    # d/dx (2x^2 + 2x) = 4x + 2
    with GradGraph() as graph:
        loss = model()
    graph.backward(loss)
    np.testing.assert_allclose(x.grad, 4 * x.data + 2, atol=1e-12)


def test_attention_gradients():
    rng = np.random.default_rng(21)
    tokens = Tensor(rng.normal(size=(3, 5, 6)), requires_grad=True)
    # 2 heads of width 3; at unit weight scale the softmax is sharp enough
    # that the central differences' own O(eps^2) error reaches 1e-6
    wqkv = Tensor(0.5 * rng.normal(size=(2, 3, 6, 3)), requires_grad=True)
    probe = Tensor(rng.normal(size=(3, 5, 6)))
    _check(lambda: sum_all(mul(ops.attention(tokens, wqkv), probe)),
           {"tokens": tokens, "wqkv": wqkv})


def _backward_grads(loss_fn, tensors):
    """Run ``loss_fn`` on a fresh graph and backpropagate. Returns the
    gradients of the tensors it lists and of ``tensors``, after checking
    that no two of them share memory."""
    with GradGraph() as graph:
        loss, named = loss_fn()
    graph.backward(loss)
    named = dict(named, **tensors)
    grads = {name: t.grad for name, t in named.items() if t.grad is not None}
    names = list(grads)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not np.shares_memory(grads[a], grads[b]), \
                f"{a}.grad and {b}.grad share memory"
    return grads


def test_add_of_one_tensor_to_itself_owns_its_gradient():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    probe = RNG.normal(size=(3, 4))

    def loss_fn():
        y = add(x, x)
        return sum_all(mul(y, Tensor(probe))), {"y": y}

    grads = _backward_grads(loss_fn, {"x": x})
    np.testing.assert_array_equal(grads["x"], 2 * probe)
    np.testing.assert_array_equal(grads["y"], probe)


def test_residual_add_owns_its_gradients():
    """``ops.attention``'s residual: the tokens get the output's gradient
    ``go`` added to the heads' input gradient, in an array of their own."""
    rng = np.random.default_rng(22)
    tokens = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    wqkv = Tensor(0.5 * rng.normal(size=(2, 3, 6, 3)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 5, 6)))

    def loss_fn():
        out = ops.attention(tokens, wqkv)
        return sum_all(mul(out, probe)), {"out": out}

    grads = _backward_grads(loss_fn, {"tokens": tokens, "wqkv": wqkv})
    np.testing.assert_array_equal(grads["out"], probe.data)
    report = check_gradients(lambda: loss_fn()[0], {"tokens": tokens, "wqkv": wqkv},
                             tolerance=TOL, epsilon=1e-5)
    assert report.ok, report.summary()


def test_reshape_chain_owns_its_gradients():
    """Each reshape's adjoint returns a view of its output's gradient."""
    x = Tensor(RNG.normal(size=(2, 6)), requires_grad=True)
    probe = RNG.normal(size=12)

    def loss_fn():
        square = reshape(x, (3, 4))
        flat = reshape(square, (12,))
        return sum_all(mul(flat, Tensor(probe))), {"square": square, "flat": flat}

    grads = _backward_grads(loss_fn, {"x": x})
    np.testing.assert_array_equal(grads["x"], probe.reshape(2, 6))
    np.testing.assert_array_equal(grads["square"], probe.reshape(3, 4))
    np.testing.assert_array_equal(grads["flat"], probe)
