"""Small dense networks f(W; x) with per-layer analytic gradients.

A DeepNet is an ordered list of weight matrices with one activation kind
shared by the hidden layers. The last layer is linear by default
(top_linear=True), which is what every separability argument needs; set
top_linear=False to push the activation through the output as well.

One forward/backward path serves every caller. batch_forward runs the
samples as the columns of one matrix and keeps, per layer, the input and
the activation derivative, not the pre-activation; batch_backprop reads
those instead of recomputing the activation. Both batch calls also take
stacked layers (R, rows, cols) in place of the net's, for R flows that
advance as one computation; every product then carries the leading
member axis. forward and layer_gradients are the one-input API of a
scalar-output net: they check one vector and run it through the batch
path as a batch of one, so no caller sees the samples-as-columns layout.

Gradients are exact backpropagation, per layer with the same shapes as
the weights, so that Euler identities like sum_ij dF/dW_ij * W_ij = f can
be checked entry by entry. batch_backprop returns them, or writes them
into the per-layer views of one flat buffer that a flow passes as out.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .linalg import check_vector, frobenius_norm

ACTIVATIONS = ("relu", "smoothed_relu", "polynomial", "linear")
DEFAULT_EPSILON = 0.05
HOMOGENEOUS = ("relu", "linear")


def _sigmoid(u, e):
    """Logistic function of u from e = exp(-|u|), which the caller has
    already computed: 1/(1+e) for u >= 0 and e/(1+e) below, so neither
    tail overflows."""
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _tanh_sigmoid(u):
    """Logistic function as 0.5 + 0.5 tanh(u/2), for the smoothed relu.

    The two forms serve different needs. The smoothed relu's z * s(z/eps^2)
    needs only absolute accuracy in s, which this form keeps to 2^-53,
    and one tanh pass costs a fraction of exp's where exp(-|u|) underflows,
    which eps = 0.05 makes common. Its left tail, though, is exactly 0
    below u of about -37. The logistic loss keeps _sigmoid: its gradient
    on separable data is that left tail, and a flushed tail would stop the
    slow norm growth of the separable flow.
    """
    s = np.multiply(u, 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


@dataclass(frozen=True)
class DeepNet:
    """Weights plus activation; immutable once built."""

    layers: tuple  # of 2-d float arrays, applied first to last
    activation: str = "relu"
    epsilon: float = DEFAULT_EPSILON  # smoothed_relu width
    coefficients: tuple = ()  # polynomial activation, constant term first
    top_linear: bool = True

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "smoothed_relu":
            if not self.epsilon > 0:
                raise ValueError("smoothed_relu needs epsilon > 0")
            # the activation divides by epsilon**2: one that underflows
            # (or overflows) would pass for a step that blew up
            square = float(self.epsilon) * float(self.epsilon)
            if not sys.float_info.min <= square <= sys.float_info.max:
                raise ValueError(
                    f"smoothed_relu epsilon {self.epsilon!r}: its square "
                    f"{square!r} is not a normal float")
        if self.activation == "polynomial" and len(self.coefficients) == 0:
            raise ValueError("polynomial activation needs coefficients")
        layers = tuple(np.asarray(w, dtype=float) for w in self.layers)
        if not layers:
            raise ValueError("need at least one layer")
        for k, w in enumerate(layers):
            if w.ndim != 2:
                raise ValueError(f"layer {k + 1} is not a matrix")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"layer {k + 1} has non-finite entries")
        for k in range(len(layers) - 1):
            if layers[k + 1].shape[1] != layers[k].shape[0]:
                raise ValueError(
                    f"layer {k + 2} expects {layers[k + 1].shape[1]} inputs, "
                    f"layer {k + 1} outputs {layers[k].shape[0]}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].shape[0]

    def with_layers(self, layers) -> "DeepNet":
        return replace(self, layers=tuple(layers))


@dataclass(frozen=True)
class LayerGradient:
    """Per-layer d f / d W_k at one input; kink_hit flags a relu
    pre-activation that was exactly zero (subgradient 0 was used)."""

    grads: tuple
    kink_hit: bool = False


def _activate(net: DeepNet, z: np.ndarray):
    """Activation at z, its derivative there, and whether a relu
    pre-activation sat exactly on the kink (subgradient 0 is used)."""
    if net.activation == "linear":
        return z, np.ones_like(z), False
    if net.activation == "relu":
        # one flag per member of stacked (R, rows, N) pre-activations
        kink = (z == 0.0).reshape(*z.shape[:-2], -1).any(axis=-1)
        return np.maximum(z, 0.0), (z > 0.0).astype(float), kink
    if net.activation == "smoothed_relu":
        # where 40 eps^2 <= |z| < DBL_MAX eps^2, tanh(z / 2eps^2) is exactly
        # +-1, so z s is max(z, -0.0) and s + u s (1 - s) is (z > 0), bit
        # for bit; only the other entries (small |z|, nan, inf, and |z|
        # where z / eps^2 overflows) take the formula
        square = net.epsilon**2
        a = np.abs(z)
        rest = ~((a >= 40.0 * square) & (a < sys.float_info.max * square))
        out, deriv = np.maximum(z, -0.0), np.greater(z, 0.0, out=a)
        if rest.any():
            zr = z[rest]
            u = zr / square
            s = _tanh_sigmoid(u)
            u *= s
            u *= 1.0 - s
            u += s
            out[rest], deriv[rest] = zr * s, u
        return out, deriv, False
    # polynomial, constant term first
    out = np.zeros_like(z)
    for c in reversed(net.coefficients):
        out = out * z + c
    deriv = np.zeros_like(z)
    for i in range(len(net.coefficients) - 1, 0, -1):
        deriv = deriv * z + i * net.coefficients[i]
    return out, deriv, False


def batch_forward(net: DeepNet, inputs, layers=None):
    """Forward pass over the rows of inputs (N x d); samples are columns.

    Returns (out, acts, derivs, kink): out is C x N; derivs[k] is the
    activation derivative at the pre-activation W_{k+1} @ acts[k], None
    for a linear top layer, and no pre-activation is kept; kink flags a
    relu pre-activation exactly at zero. batch_backprop reads acts, derivs.

    Stacked layers (R, rows, cols) stand in for net's; inputs are then
    shared (N x d) or per member (R x N x d), out is R x C x N and kink
    holds one flag per member.
    """
    return _forward_columns(net, _columns(inputs), layers)


def _columns(inputs):
    """Input rows (N x d, or R x N x d) as the columns batch_forward runs."""
    return np.asarray(inputs, dtype=float).mT


def _forward_columns(net: DeepNet, h, layers=None):
    """batch_forward of inputs already given as _columns, for a loop that
    runs the same inputs many times."""
    layers = net.layers if layers is None else layers
    top = len(layers) - 1 if net.top_linear else -1
    acts, derivs = [h], []
    kink = False
    for k, w in enumerate(layers):
        z = w @ h
        if k == top:
            h, d = z, None
        else:
            h, d, hit = _activate(net, z)
            kink = kink | hit
        acts.append(h)
        derivs.append(d)
    return h, acts, derivs, kink


def batch_backprop(net: DeepNet, acts, derivs, out_delta, layers=None,
                   out=None) -> list:
    """Per-layer gradients of sum_n <out_delta[:, n], f(W; x_n)>, given
    batch_forward's acts and derivs and out_delta as C x N columns; with
    stacked layers, out_delta and the gradients carry the member axis.
    out, one array per layer, takes and returns the gradients, bit for bit.

    A one-row out_delta (every scalar-output net) is carried below the top
    layer by a broadcast multiply instead of matmul; the gradients are the
    same bit for bit."""
    layers = net.layers if layers is None else layers
    delta = out_delta
    grads = [None] * len(layers) if out is None else out
    for k in range(len(layers) - 1, -1, -1):
        if derivs[k] is not None:
            # a product made here is scaled in place, the caller's is not
            delta = (delta * derivs[k] if delta is out_delta
                     else np.multiply(delta, derivs[k], out=delta))
        grads[k] = np.matmul(delta, acts[k].mT, out=grads[k])
        if k > 0:
            # from one output row this is an outer product, which a
            # broadcast multiply makes faster than matmul, from the same
            # products; only a zero's sign may differ, and the matmul
            # sums that form every gradient start at +0 and drop it
            w = layers[k].mT
            delta = w * delta if delta.shape[-2] == 1 else w @ delta
    return grads


def _input_row(net: DeepNet, x) -> np.ndarray:
    """One input vector as a batch of one (1 x d)."""
    x = check_vector(x, "x")
    if x.shape[0] != net.in_dim:
        raise ValueError(
            f"input has dimension {x.shape[0]}, layer 1 expects {net.in_dim}"
        )
    return x[None, :]


def forward(net: DeepNet, x) -> float:
    """Scalar network output at one input vector."""
    if net.out_dim != 1:
        raise ValueError(f"forward needs one output row, net has {net.out_dim}")
    return float(batch_forward(net, _input_row(net, x))[0][0, 0])


def layer_gradients(net: DeepNet, x) -> LayerGradient:
    """d f / d W_k for a scalar-output net at one input vector, shaped like
    the layers."""
    if net.out_dim != 1:
        raise ValueError("layer_gradients needs one output row")
    _, acts, derivs, kink = batch_forward(net, _input_row(net, x))
    grads = batch_backprop(net, acts, derivs, np.ones((1, 1)))
    return LayerGradient(tuple(grads), kink)


def homogeneity_residual(net: DeepNet, x, k: int) -> float:
    """|sum_ij df/d(W_k)_ij (W_k)_ij - f(x)| for one layer k (1-based).

    Requires a positively homogeneous activation; each layer of a
    relu/linear net contributes exactly f via the degree-1 Euler identity.
    """
    if net.activation not in HOMOGENEOUS:
        raise ValueError(
            f"homogeneity holds for {HOMOGENEOUS}, not {net.activation!r}"
        )
    if not 1 <= k <= net.depth:
        raise ValueError(f"layer index {k} outside 1..{net.depth}")
    f = forward(net, x)
    g = layer_gradients(net, x).grads[k - 1]
    return float(abs((g * net.layers[k - 1]).sum() - f))


def normalize_layers(net: DeepNet):
    """Split W_k = rho_k V_k with ||V_k||_F = 1; returns (rhos, unit net).

    For homogeneous activations the original forward equals
    prod(rho_k) * forward of the returned net.
    """
    rhos = []
    units = []
    for k, w in enumerate(net.layers):
        r = frobenius_norm(w)
        if r == 0.0:
            raise ValueError(f"layer {k + 1} is zero; cannot normalize")
        rhos.append(r)
        units.append(w / r)
    return list(rhos), net.with_layers(units)


def flatten_params(layers) -> np.ndarray:
    return np.concatenate([np.asarray(w, float).ravel() for w in layers])


def unflatten_params(vec, shapes) -> list:
    """Layers as views into vec; a leading axis of vec (one row per
    member) stays in front of every layer."""
    vec = np.asarray(vec, float)
    out = []
    i = 0
    for shape in shapes:
        n = shape[0] * shape[1]
        out.append(vec[..., i : i + n].reshape(vec.shape[:-1] + tuple(shape)))
        i += n
    if i != vec.shape[-1]:
        raise ValueError("parameter vector length mismatch")
    return out


def random_net(rng, dims, activation="relu", scale=1.0, **kwargs) -> DeepNet:
    """Gaussian init: dims = (in, hidden..., out)."""
    layers = [
        scale * rng.normal(size=(dims[k + 1], dims[k]))
        for k in range(len(dims) - 1)
    ]
    return DeepNet(layers=tuple(layers), activation=activation, **kwargs)
