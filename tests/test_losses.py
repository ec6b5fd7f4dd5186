"""Loss values, gradients (vs finite differences), margins, descent checks."""

import warnings

import numpy as np
import pytest

from gradflow.losses import (
    Dataset,
    classification_error,
    loss,
    loss_and_gradient,
    loss_gradient,
    mean_squared_error,
    separability_margin,
)
from gradflow.network import (
    DeepNet,
    flatten_params,
    random_net,
    unflatten_params,
)


def _fd_loss_gradient(kind, net, data, step=1e-6):
    shapes = [w.shape for w in net.layers]
    theta = flatten_params(net.layers)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        dn = theta.copy()
        dn[i] -= step
        fd[i] = (
            loss(kind, net.with_layers(unflatten_params(up, shapes)), data)
            - loss(kind, net.with_layers(unflatten_params(dn, shapes)), data)
        ) / (2.0 * step)
    return fd


def test_exponential_loss_at_zero_net_counts_samples():
    net = DeepNet(layers=(np.zeros((1, 2)),), activation="linear")
    data = Dataset(np.ones((3, 2)), [1.0, -1.0, 1.0], task="binary")
    assert loss("exponential", net, data) == 3.0


def test_square_loss_zero_at_perfect_fit():
    net = DeepNet(layers=([[2.0, -1.0]],), activation="linear")
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = x @ np.array([2.0, -1.0])
    data = Dataset(x, y, task="regression")
    assert loss("square", net, data) == 0.0


def test_softmax_uniform_logits_gives_log2():
    net = DeepNet(layers=(np.zeros((2, 3)),), activation="linear")
    data = Dataset(np.ones((1, 3)), [0], task="multiclass")
    assert loss("softmax_cross_entropy", net, data) == pytest.approx(
        np.log(2.0), rel=1e-12
    )


def test_exponential_gradient_at_zero_weight():
    net = DeepNet(layers=([[0.0]],), activation="linear")
    data = Dataset([[1.0]], [1.0], task="binary")
    g = loss_gradient("exponential", net, data)
    assert g[0][0, 0] == pytest.approx(-1.0, rel=1e-12)


def test_square_gradient_zero_at_interpolation():
    net = DeepNet(layers=([[1.0, 2.0]],), activation="linear")
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    data = Dataset(x, x @ np.array([1.0, 2.0]), task="regression")
    g = loss_gradient("square", net, data)
    assert np.abs(g[0]).max() == 0.0


def test_gradients_match_finite_differences_all_losses():
    rng = np.random.default_rng(99)
    cases = 0
    while cases < 100:
        kind = ("square", "exponential", "logistic", "softmax_cross_entropy")[
            cases % 4
        ]
        depth = int(rng.integers(1, 3))
        hidden = [int(rng.integers(2, 5)) for _ in range(depth - 1)]
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        if kind == "softmax_cross_entropy":
            c = int(rng.integers(2, 4))
            net = random_net(rng, [d] + hidden + [c], "smoothed_relu", scale=0.6)
            data = Dataset(
                rng.normal(size=(n, d)), rng.integers(0, c, size=n), "multiclass"
            )
        else:
            net = random_net(rng, [d] + hidden + [1], "smoothed_relu", scale=0.6)
            if kind == "square":
                data = Dataset(
                    rng.normal(size=(n, d)), rng.normal(size=n), "regression"
                )
            else:
                data = Dataset(
                    rng.normal(size=(n, d)),
                    rng.choice([-1.0, 1.0], size=n),
                    "binary",
                )
        analytic = flatten_params(loss_gradient(kind, net, data))
        fd = _fd_loss_gradient(kind, net, data)
        denom = np.maximum(np.abs(fd), 1e-2)
        assert (np.abs(analytic - fd) / denom).max() <= 1e-5
        cases += 1


def test_exponential_gradient_closed_form_linear_net():
    rng = np.random.default_rng(3)
    w = rng.normal(size=3)
    net = DeepNet(layers=(w[None, :],), activation="linear")
    x = rng.normal(size=(6, 3))
    y = rng.choice([-1.0, 1.0], size=6)
    data = Dataset(x, y, task="binary")
    g = loss_gradient("exponential", net, data)[0][0]
    expect = -(y[:, None] * x * np.exp(-y * (x @ w))[:, None]).sum(axis=0)
    assert np.allclose(g, expect, rtol=1e-12, atol=1e-12)


def test_separability_margin_zero_net():
    net = DeepNet(layers=(np.zeros((1, 2)),), activation="linear")
    data = Dataset([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0], task="binary")
    assert separability_margin(net, data) == 0.0


def test_separability_margin_1d_example():
    net = DeepNet(layers=([[1.0]],), activation="linear")
    data = Dataset([[2.0], [-1.0]], [1.0, -1.0], task="binary")
    assert separability_margin(net, data) == 1.0


def test_separability_margin_multiclass_gap():
    net = DeepNet(
        layers=(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),),
        activation="linear",
    )
    data = Dataset([[3.0, 1.0], [0.0, 2.0]], [0, 1], task="multiclass")
    # gaps: sample 1: 3-1=2 vs 3-0=3 -> 2 ; sample 2: 2-0=2 both -> 2
    assert separability_margin(net, data) == 2.0


def test_softmax_two_class_reduces_to_logistic_on_logit_gap():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(2, 4))
    net = DeepNet(layers=(w,), activation="linear")
    x = rng.normal(size=(7, 4))
    labels = rng.integers(0, 2, size=7)
    ce = loss("softmax_cross_entropy", net, Dataset(x, labels, "multiclass"))
    # same data through a 1-row net computing the logit difference f_1 - f_0,
    # with +1 for class 1 and -1 for class 0
    diff_net = DeepNet(layers=((w[1] - w[0])[None, :],), activation="linear")
    y = np.where(labels == 1, 1.0, -1.0)
    lg = loss("logistic", diff_net, Dataset(x, y, "binary"))
    assert abs(ce - lg) <= 1e-10


def _slope_along(sep, net, data):
    """sum_k <W*_k, grad_k L(W)> under the exponential loss: the loss's
    rate of change along a separating weight setting W*."""
    grads = loss_gradient("exponential", net, data)
    return float(sum((ws * g).sum() for ws, g in zip(sep.layers, grads)))


def test_descent_direction_negative_for_any_weights():
    rng = np.random.default_rng(4)
    sep = DeepNet(layers=([[1.0, 0.0]],), activation="linear")
    data = Dataset([[1.0, 0.2], [-1.0, 0.3]], [1.0, -1.0], task="binary")
    assert separability_margin(sep, data) > 0
    for _ in range(10):
        net = DeepNet(layers=(rng.normal(size=(1, 2)),), activation="linear")
        assert _slope_along(sep, net, data) < 0.0
    # at W = W* itself the loss still decreases along W*
    assert _slope_along(sep, sep, data) < 0.0


def test_descent_direction_at_zero_weights_equals_minus_margin_sum():
    sep = DeepNet(layers=([[2.0, 1.0]],), activation="linear")
    data = Dataset([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0], task="binary")
    net = DeepNet(layers=(np.zeros((1, 2)),), activation="linear")
    val = _slope_along(sep, net, data)
    f_star = data.inputs @ np.array([2.0, 1.0])
    assert val == pytest.approx(-(data.labels * f_star).sum(), rel=1e-12)
    assert val < 0.0


def test_exponential_overflow_clamps_with_warning():
    net = DeepNet(layers=([[1000.0]],), activation="linear")
    data = Dataset([[1.0]], [-1.0], task="binary")
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        val = loss("exponential", net, data)
    assert np.isfinite(val)
    assert any("clamp" in str(w.message) for w in rec)


def test_loss_label_mismatches_rejected():
    net1 = DeepNet(layers=(np.zeros((1, 2)),), activation="linear")
    net2 = DeepNet(layers=(np.zeros((3, 2)),), activation="linear")
    binary = Dataset(np.ones((2, 2)), [1.0, -1.0], task="binary")
    multi = Dataset(np.ones((2, 2)), [0, 2], task="multiclass")
    with pytest.raises(ValueError, match="multiclass"):
        loss("softmax_cross_entropy", net1, binary)
    with pytest.raises(ValueError, match="binary"):
        loss("exponential", net2, multi)
    with pytest.raises(ValueError, match="out of range"):
        loss("softmax_cross_entropy", net2.with_layers([np.zeros((2, 2))]), multi)
    # one label per sample cannot score three output rows
    for kind in ("square", "exponential", "logistic"):
        for evaluate in (loss, loss_and_gradient):
            with pytest.raises(ValueError, match="single output row, got 3"):
                evaluate(kind, net2, binary)


def test_dataset_validation():
    with pytest.raises(ValueError, match="-1 or \\+1"):
        Dataset([[1.0]], [2.0], task="binary")
    with pytest.raises(ValueError, match="one per input row"):
        Dataset([[1.0], [2.0]], [1.0], task="binary")
    with pytest.raises(ValueError, match="task"):
        Dataset([[1.0]], [1.0], task="ranking")


def test_error_metrics():
    net = DeepNet(layers=([[1.0]],), activation="linear")
    data = Dataset([[2.0], [-1.0], [0.5]], [1.0, -1.0, -1.0], task="binary")
    assert classification_error(net, data) == pytest.approx(1.0 / 3.0)
    reg = Dataset([[1.0], [2.0]], [1.0, 1.0], task="regression")
    assert mean_squared_error(net, reg) == pytest.approx(0.5)


def test_loss_and_gradient_consistent_with_loss():
    rng = np.random.default_rng(10)
    net = random_net(rng, (3, 4, 1), "smoothed_relu", scale=0.5)
    data = Dataset(
        rng.normal(size=(5, 3)), rng.choice([-1.0, 1.0], size=5), "binary"
    )
    for kind in ("exponential", "logistic"):
        v, g, _ = loss_and_gradient(kind, net, data)
        assert v == pytest.approx(loss(kind, net, data), rel=1e-12)
        assert len(g) == net.depth
