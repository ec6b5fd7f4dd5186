"""Forward/backward correctness for DeepNet.

The gradient oracle is a central finite difference of the forward pass on
the flattened parameter vector, step 1e-6.
"""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflow.losses import Dataset, loss, loss_and_gradient
from gradflow.network import (
    DeepNet,
    _activate,
    _sigmoid,
    _tanh_sigmoid,
    batch_backprop,
    batch_forward,
    flatten_params,
    forward,
    homogeneity_residual,
    layer_gradients,
    normalize_layers,
    random_net,
    unflatten_params,
)
from fd_oracles import fd_gradient_check


def _fd_layer_gradients(net, x, step=1e-6):
    shapes = [w.shape for w in net.layers]
    theta = flatten_params(net.layers)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        dn = theta.copy()
        dn[i] -= step
        f_up = forward(net.with_layers(unflatten_params(up, shapes)), x)
        f_dn = forward(net.with_layers(unflatten_params(dn, shapes)), x)
        fd[i] = (f_up - f_dn) / (2.0 * step)
    return unflatten_params(fd, shapes)


def _max_rel_err(analytic, fd):
    worst = 0.0
    for g, r in zip(analytic, fd):
        denom = np.maximum(np.abs(r), 1e-2)
        worst = max(worst, float((np.abs(g - r) / denom).max()))
    return worst


def test_forward_single_linear_layer():
    net = DeepNet(layers=([[2.0, 0.0]],), activation="linear")
    assert forward(net, [3.0, 1.0]) == 6.0


def test_forward_zero_weights_relu():
    net = DeepNet(layers=(np.zeros((3, 2)), np.zeros((1, 3))), activation="relu")
    assert forward(net, [5.0, -2.0]) == 0.0


def test_forward_two_layer_relu_clamps_second_unit():
    net = DeepNet(
        layers=([[1.0, 0.0], [0.0, -1.0]], [[1.0, 1.0]]), activation="relu"
    )
    assert forward(net, [1.0, 1.0]) == 1.0


def test_dimension_mismatch_names_layer():
    with pytest.raises(ValueError, match="layer 2"):
        DeepNet(layers=(np.ones((3, 2)), np.ones((1, 4))))
    net = DeepNet(layers=(np.ones((1, 2)),), activation="linear")
    with pytest.raises(ValueError, match="layer 1"):
        forward(net, [1.0, 2.0, 3.0])


def test_gradient_single_linear_layer_is_input():
    net = DeepNet(layers=([[0.3, -0.7]],), activation="linear")
    g = layer_gradients(net, [2.0, 5.0])
    assert np.allclose(g.grads[0], [[2.0, 5.0]])
    assert not g.kink_hit


def test_gradient_square_activation_chain_rule():
    # f = (w x)^2 so df/dw = 2 w x^2 = 8 at w=1, x=2
    net = DeepNet(
        layers=([[1.0]],),
        activation="polynomial",
        coefficients=(0.0, 0.0, 1.0),
        top_linear=False,
    )
    g = layer_gradients(net, [2.0])
    assert g.grads[0][0, 0] == pytest.approx(8.0, rel=1e-12)


def test_gradients_match_finite_differences_many_random_nets():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 5)) for _ in range(depth)] + [1]
        kind = ("smoothed_relu", "linear", "polynomial", "relu")[checked % 4]
        kwargs = {}
        if kind == "polynomial":
            kwargs["coefficients"] = (0.1, 0.5, 0.25)
        net = random_net(rng, dims, activation=kind, scale=0.7, **kwargs)
        x = rng.normal(size=dims[0])
        if kind == "relu":
            # keep pre-activations away from the kink so the FD probe
            # (step 1e-6) never crosses it
            pre = batch_forward(net, x[None, :])[1]
            if min(float(np.abs(p).min()) for p in pre) < 1e-3:
                continue
        g = layer_gradients(net, x)
        fd = _fd_layer_gradients(net, x)
        assert _max_rel_err(g.grads, fd) <= 1e-5
        checked += 1


def test_relu_exact_kink_sets_flag():
    net = DeepNet(layers=([[1.0]], [[1.0]]), activation="relu")
    g = layer_gradients(net, [0.0])
    assert g.kink_hit


def test_homogeneity_single_linear_layer_exact():
    net = DeepNet(layers=([[1.5, -2.0]],), activation="linear")
    assert homogeneity_residual(net, [0.4, 1.1], 1) == 0.0


def test_homogeneity_random_relu_nets():
    rng = np.random.default_rng(77)
    for _ in range(100):
        dims = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
        dims += [1]
        net = random_net(rng, dims, activation="relu")
        x = rng.normal(size=dims[0])
        f = forward(net, x)
        for k in range(1, net.depth + 1):
            assert homogeneity_residual(net, x, k) <= 1e-8 * (1.0 + abs(f))


def test_layer_scaling_scales_output_linearly():
    rng = np.random.default_rng(5)
    net = random_net(rng, (3, 4, 1), activation="relu")
    x = rng.normal(size=3)
    doubled = net.with_layers((2.0 * net.layers[0], net.layers[1]))
    assert forward(doubled, x) == pytest.approx(2.0 * forward(net, x), rel=1e-12)


def test_rectified_identity_sums_to_depth_times_f():
    rng = np.random.default_rng(8)
    net = random_net(rng, (2, 5, 4, 1), activation="relu")
    x = rng.normal(size=2)
    f = forward(net, x)
    g = layer_gradients(net, x).grads
    total = sum(float((gk * wk).sum()) for gk, wk in zip(g, net.layers))
    assert total == pytest.approx(net.depth * f, abs=1e-10 * (1 + abs(f)))


def test_homogeneity_rejects_smooth_activation():
    net = DeepNet(layers=([[1.0]],), activation="smoothed_relu")
    with pytest.raises(ValueError, match="homogeneity"):
        homogeneity_residual(net, [1.0], 1)


@settings(max_examples=200, deadline=None)
@given(z=st.floats(-1e6, 1e6, allow_nan=False))
def test_smoothed_relu_close_to_relu_pointwise(z):
    eps = 0.05
    net = DeepNet(
        layers=([[1.0]],),
        activation="smoothed_relu",
        epsilon=eps,
        top_linear=False,
    )
    val = forward(net, [z])
    assert abs(val - max(z, 0.0)) <= eps


def test_normalize_layers_three_four_five():
    net = DeepNet(layers=([[3.0, 4.0]],), activation="relu")
    rhos, unit = normalize_layers(net)
    assert rhos == [5.0]
    assert np.allclose(unit.layers[0], [[0.6, 0.8]])


def test_normalize_layers_idempotent_on_unit_net():
    net = DeepNet(layers=([[0.6, 0.8]],), activation="relu")
    rhos, unit = normalize_layers(net)
    assert rhos == [1.0]
    assert np.array_equal(unit.layers[0], net.layers[0])


def test_normalize_layers_product_identity():
    rng = np.random.default_rng(19)
    net = random_net(rng, (3, 4, 1), activation="relu")
    x = rng.normal(size=3)
    rhos, unit = normalize_layers(net)
    lhs = forward(net, x)
    rhs = float(np.prod(rhos)) * forward(unit, x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_normalize_layers_rejects_zero_layer():
    net = DeepNet(layers=(np.zeros((2, 2)), np.ones((1, 2))), activation="relu")
    with pytest.raises(ValueError, match="zero"):
        normalize_layers(net)


def test_backprop_multihead_seeding():
    rng = np.random.default_rng(30)
    net = random_net(rng, (2, 3, 4), activation="smoothed_relu")
    x = rng.normal(size=2)
    # gradient of f_2 alone via one-hot seed matches FD on that head
    seed = np.zeros(4)
    seed[2] = 1.0
    _, _, acts, derivs, _ = batch_forward(net, x[None, :])
    g = batch_backprop(net, acts, derivs, seed[:, None])
    step = 1e-6
    shapes = [w.shape for w in net.layers]
    theta = flatten_params(net.layers)
    for i in rng.choice(theta.size, size=6, replace=False):
        up = theta.copy()
        up[i] += step
        dn = theta.copy()
        dn[i] -= step
        f_up = batch_forward(net.with_layers(unflatten_params(up, shapes)),
                             x[None, :])[0][2, 0]
        f_dn = batch_forward(net.with_layers(unflatten_params(dn, shapes)),
                             x[None, :])[0][2, 0]
        fd = (f_up - f_dn) / (2.0 * step)
        assert flatten_params(g)[i] == pytest.approx(fd, abs=2e-6)


def _two_mask_sigmoid(u):
    """The logistic function as two masked exp passes; reference for the
    single-exp _sigmoid."""
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def test_single_exp_sigmoid_is_bitwise_two_mask_formula():
    rng = np.random.default_rng(41)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.2,
                      -745.2, 1e-320, -1e-320, 36.7, -36.7])
    u = np.concatenate([
        edges,
        rng.normal(scale=3.0, size=100_000),
        rng.uniform(-800.0, 800.0, size=100_000),
        np.sign(rng.normal(size=10_000)) * 10.0 ** rng.uniform(-320, 3, size=10_000),
    ])
    with np.errstate(over="ignore"):
        got, want = _sigmoid(u, np.exp(-np.abs(u))), _two_mask_sigmoid(u)
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _mp_sigmoid(u):
    return 1 / (1 + mpmath.exp(-mpmath.mpf(float(u))))


def test_tanh_sigmoid_of_the_smoothed_relu_against_mpmath():
    # bounds: 2^-53 absolute everywhere, 2 ulp relative where s >= e^-1/2
    # (u >= -1), and the activation derivative s + u s (1 - s) to 1e-14
    eps = 0.05
    rng = np.random.default_rng(43)
    u = np.concatenate([
        [0.0, -0.0, 1e-320, -1e-320, 36.7, -36.7, 40.0, -40.0, 709.0,
         -709.0, 745.2, -745.2],
        rng.normal(scale=10.0, size=1500),
        rng.uniform(-800.0, 800.0, size=500),
        np.linspace(-45.0, 45.0, 601),
        np.sign(rng.normal(size=500)) * 10.0 ** rng.uniform(-300, 2.9,
                                                             size=500),
    ])
    z = u * eps**2
    u = z / eps**2  # the u the activation sees
    net = DeepNet(([[1.0]],), activation="smoothed_relu", epsilon=eps)
    s = _tanh_sigmoid(u)
    _, deriv, _ = _activate(net, z)
    with mpmath.workdps(40):
        exact = [_mp_sigmoid(v) for v in u]
        err = np.array([float(abs(mpmath.mpf(float(a)) - b))
                        for a, b in zip(s, exact)])
        d_err = np.array([
            float(abs(mpmath.mpf(float(d)) - (b + mpmath.mpf(float(v)) * b
                                              * (1 - b))))
            for d, v, b in zip(deriv, u, exact)])
        ulps = np.array([float(b) for b in exact])
    assert err.max() <= 2.0**-53
    head = u >= -1.0
    assert (err[head] <= 2.0 * np.spacing(ulps[head])).all()
    assert d_err.max() <= 1e-14


def test_logistic_loss_keeps_the_exact_left_tail():
    # on separable data the logistic gradient is the sigmoid's left tail
    # at the margins; the smoothed relu's tanh form is exactly 0 below
    # u of about -37, and through the loss it would stop the slow norm
    # growth of the separable flow
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    with mpmath.workdps(40):
        for margin in (40.0, 45.0, 60.0, 100.0, 300.0, 700.0):
            net = DeepNet(([[margin, 0.0]],), activation="linear")
            grad = loss_and_gradient("logistic", net, data)[1][0][0, 0]
            exact = -float(_mp_sigmoid(-margin))
            assert grad != 0.0
            assert abs(grad - exact) <= 1e-14 * abs(exact)


def _matvec_backprop(net, x, out_delta):
    """Per-sample gradients by matrix-vector products and outer products;
    reference for batch_backprop on a batch of one."""
    acts, preacts, h = [x], [], x
    for k, w in enumerate(net.layers):
        z = w @ h
        preacts.append(z)
        h = z if (k == net.depth - 1 and net.top_linear) else _activate(net, z)[0]
        acts.append(h)
    delta = out_delta
    if not net.top_linear:
        delta = delta * _activate(net, preacts[-1])[1]
    grads = [None] * net.depth
    for k in range(net.depth - 1, -1, -1):
        grads[k] = np.outer(delta, acts[k])
        if k > 0:
            delta = (net.layers[k].T @ delta) * _activate(net, preacts[k - 1])[1]
    return grads


def _random_nets(rng, count):
    for i in range(count):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 40)) for _ in range(depth)]
        dims.append(int(rng.integers(1, 4)))
        kind = ("smoothed_relu", "linear", "polynomial", "relu")[i % 4]
        kwargs = {"coefficients": (0.1, 0.5, 0.25)} if kind == "polynomial" else {}
        yield random_net(rng, dims, activation=kind, top_linear=bool(i % 3),
                         **kwargs)


def test_per_sample_backprop_is_bitwise_matvec_reference():
    # a one-column matmul and a matvec round alike; only the sign of a
    # zero may differ (an outer product keeps -0.0), so zeros are
    # normalised by adding +0.0 before the bits are compared
    rng = np.random.default_rng(42)
    for net in _random_nets(rng, 400):
        x = rng.normal(size=net.in_dim)
        delta = rng.normal(size=net.out_dim)
        _, _, acts, derivs, _ = batch_forward(net, x[None, :])
        got = batch_backprop(net, acts, derivs, delta[:, None])
        want = _matvec_backprop(net, x, delta)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal((a + 0.0).view(np.int64),
                                  (b + 0.0).view(np.int64))


def test_per_sample_backprop_matches_batched_column():
    # the batched gradient with out_delta zero outside column j is the
    # per-sample gradient of sample j; batched and single-column products
    # may round differently, hence a tolerance relative to the largest
    # entry instead of bits
    rng = np.random.default_rng(43)
    for net in _random_nets(rng, 100):
        n = int(rng.integers(1, 12))
        x = rng.normal(size=(n, net.in_dim))
        delta = rng.normal(size=(net.out_dim, n))
        _, _, acts, derivs, kink = batch_forward(net, x)
        for j in range(n):
            one_hot = np.zeros_like(delta)
            one_hot[:, j] = delta[:, j]
            batched = batch_backprop(net, acts, derivs, one_hot)
            _, _, acts_j, derivs_j, kink_j = batch_forward(net, x[j][None, :])
            single = batch_backprop(net, acts_j, derivs_j, delta[:, j, None])
            for a, b in zip(batched, single):
                scale = max(1.0, float(np.abs(b).max()))
                assert np.abs(a - b).max() <= 1e-12 * scale
            assert not kink_j or kink


def _matmul_backprop(net, acts, derivs, out_delta, layers):
    """batch_backprop with every product by np.matmul; reference for the
    broadcast multiply that carries a one-row out_delta."""
    delta = out_delta
    grads = [None] * net.depth
    for k in range(net.depth - 1, -1, -1):
        if derivs[k] is not None:
            delta = delta * derivs[k]
        grads[k] = np.matmul(delta, acts[k].mT)
        if k > 0:
            delta = np.matmul(layers[k].mT, delta)
    return grads


@pytest.mark.parametrize("members", [None, 5])
def test_one_row_backprop_is_bitwise_matmul_form(members):
    # the broadcast and the matmul outer product differ only in a zero's
    # sign (-0.0 where a negative weight meets a zero delta); the gradients
    # must not, so bits are compared without normalising zeros. The top
    # layers hold zeros and negative entries, and one delta is all zero.
    rng = np.random.default_rng(44)
    for i in range(40):
        depth = int(rng.integers(2, 4))
        dims = [2] + [int(rng.integers(1, 70)) for _ in range(depth - 1)]
        kind = ("smoothed_relu", "relu", "linear", "polynomial")[i % 4]
        kwargs = {"coefficients": (0.1, 0.5, 0.25)} if kind == "polynomial" else {}
        net = random_net(rng, dims + [1], activation=kind,
                         top_linear=bool(i % 3), **kwargs)
        shapes = [w.shape for w in net.layers]
        if members is None:
            layers = list(net.layers)
        else:
            layers = [rng.normal(size=(members,) + sh) for sh in shapes]
        layers[-1][..., ::3] = 0.0
        x = rng.normal(size=(int(rng.integers(1, 25)), 2))
        out, _, acts, derivs, _ = batch_forward(net, x, layers)
        for delta in (rng.normal(size=out.shape), np.zeros(out.shape)):
            got = batch_backprop(net, acts, derivs, delta, layers)
            want = _matmul_backprop(net, acts, derivs, delta, layers)
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_two_row_softmax_backprop_matches_finite_differences():
    # a two-row output keeps matmul for the layer below it
    rng = np.random.default_rng(45)
    net = random_net(rng, (3, 16, 2), activation="smoothed_relu", scale=0.7)
    data = Dataset(rng.normal(size=(10, 3)), rng.integers(0, 2, size=10),
                   task="multiclass")
    shapes = [w.shape for w in net.layers]

    def f(p):
        return loss("softmax_cross_entropy",
                    net.with_layers(unflatten_params(p, shapes)), data)

    _, grads, _ = loss_and_gradient("softmax_cross_entropy", net, data)
    g = flatten_params(grads)
    assert fd_gradient_check(f, g, flatten_params(net.layers)) <= 1e-5


@pytest.mark.parametrize("kwargs, message", [
    ({"activation": "tanh"}, "unknown activation 'tanh'"),
    ({"activation": "smoothed_relu", "epsilon": 0.0},
     "smoothed_relu needs epsilon > 0"),
    ({"activation": "polynomial"}, "polynomial activation needs coefficients"),
    ({"layers": ()}, "need at least one layer"),
    ({"layers": (np.ones(3),)}, "layer 1 is not a matrix"),
    ({"layers": (np.ones((2, 2)), np.array([[1.0, np.inf]]))},
     "layer 2 has non-finite entries"),
    ({"activation": "smoothed_relu", "epsilon": 1e-300},
     "smoothed_relu epsilon 1e-300: its square 0.0 is not a normal float"),
    ({"activation": "smoothed_relu", "epsilon": 1e-160},
     "smoothed_relu epsilon 1e-160: its square 1e-320 is not a normal float"),
    ({"activation": "smoothed_relu", "epsilon": 1e200},
     "smoothed_relu epsilon 1e+200: its square inf is not a normal float"),
])
def test_deepnet_refuses(kwargs, message):
    kwargs = {"layers": (np.ones((1, 2)),), **kwargs}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DeepNet(**kwargs)


TWO_ROWS = DeepNet((np.ones((2, 2)),), activation="linear")
ONE_ROW = DeepNet((np.ones((1, 2)),), activation="relu")


@pytest.mark.parametrize("call, message", [
    (lambda: forward(TWO_ROWS, [1.0, 0.0]),
     "forward needs one output row, net has 2"),
    (lambda: layer_gradients(TWO_ROWS, [1.0, 0.0]),
     "layer_gradients needs one output row"),
    (lambda: homogeneity_residual(ONE_ROW, [1.0, 0.0], 2),
     "layer index 2 outside 1..1"),
    (lambda: homogeneity_residual(ONE_ROW, [1.0, 0.0], 0),
     "layer index 0 outside 1..1"),
    (lambda: unflatten_params(np.zeros(5), [(2, 2)]),
     "parameter vector length mismatch"),
])
def test_network_functions_refuse(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
