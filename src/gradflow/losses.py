"""Loss functionals and their weight gradients.

Losses are sums over samples, never means; step-size choices downstream
absorb the 1/N. Supported: square, exponential, logistic, and softmax
cross-entropy. Every loss runs on the network module's one batched
forward/backward path: a single forward over all samples caches the
activation derivatives that the backward pass then reuses. Summation order
over samples is fixed, so repeated evaluation is bit-identical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .network import DeepNet, _sigmoid, batch_backprop, batch_forward

LOSS_KINDS = ("square", "exponential", "logistic", "softmax_cross_entropy")
TASKS = ("binary", "multiclass", "regression")
# largest exponent fed to exp(); beyond this the per-sample term is clamped
EXP_CLAMP = 709.0


@dataclass(frozen=True)
class Dataset:
    """Inputs (N x d) and labels (N,). Binary labels are -1/+1, multiclass
    labels are 0-based class indices, regression labels are real."""

    inputs: np.ndarray
    labels: np.ndarray
    task: str = "binary"

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("inputs must be a nonempty N x d array")
        if not np.all(np.isfinite(x)):
            raise ValueError("inputs contain non-finite values")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "multiclass":
            y = np.asarray(self.labels, dtype=int)
            if np.any(y < 0):
                raise ValueError("multiclass labels are 0-based class indices")
        else:
            y = np.asarray(self.labels, dtype=float)
            if not np.all(np.isfinite(y)):
                raise ValueError("labels contain non-finite values")
            if self.task == "binary" and not np.all(np.abs(y) == 1.0):
                raise ValueError("binary labels must be -1 or +1")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must be one per input row")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _check_kind(kind: str, data: Dataset, net: DeepNet):
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss {kind!r}")
    if kind == "softmax_cross_entropy":
        if data.task != "multiclass":
            raise ValueError("softmax_cross_entropy needs multiclass labels")
        if np.any(data.labels >= net.out_dim):
            raise ValueError(
                f"label {int(data.labels.max())} out of range for "
                f"{net.out_dim} output rows"
            )
    elif kind in ("exponential", "logistic") and data.task != "binary":
        raise ValueError(f"{kind} loss needs binary -1/+1 labels")
    elif kind == "square" and data.task == "multiclass":
        raise ValueError("square loss needs binary or regression labels")
    if kind != "softmax_cross_entropy" and net.out_dim != 1:
        raise ValueError(
            f"{kind} loss needs a single output row, got {net.out_dim}"
        )
    if data.dim != net.in_dim:
        raise ValueError(
            f"dataset dimension {data.dim} does not match net input "
            f"{net.in_dim}"
        )


def batch_outputs(net: DeepNet, inputs) -> np.ndarray:
    """Outputs (N,) for one-row nets, else (N, C)."""
    out = batch_forward(net, inputs)[0]
    return out[0] if out.shape[0] == 1 else out.T


def _clamped_exp(u, context):
    if np.any(u > EXP_CLAMP):
        warnings.warn(
            f"{context}: exponent clamped at {EXP_CLAMP:.0f}; the flow has "
            "left the regime where the exponential loss is meaningful",
            RuntimeWarning,
        )
        u = np.minimum(u, EXP_CLAMP)
    return np.exp(u)


def _loss_terms(kind: str, out, y):
    """The one table of loss formulas: the summed loss of the (C, N)
    outputs and its derivative with respect to them.

    Softmax goes by log-sum-exp: -log of an underflowed probability would
    be inf where this is finite. Logistic, log(1 + e^{-yf}), is stable on
    both tails.
    """
    if kind == "softmax_cross_entropy":
        z = out.T - out.T.max(axis=1, keepdims=True)
        e = np.exp(z)
        norm = e.sum(axis=1, keepdims=True)
        rows = np.arange(len(y))
        value = float((np.log(norm[:, 0]) - z[rows, y]).sum())
        p = e / norm
        p[rows, y] -= 1.0
        return value, p.T
    f = out[0]
    if kind == "square":
        value = float(((y - f) ** 2).sum())
        ddelta = 2.0 * (f - y)
    elif kind == "exponential":
        e = _clamped_exp(-y * f, "exponential loss")
        value = float(e.sum())
        ddelta = -y * e
    else:
        m = -y * f
        value = float((np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))).sum())
        ddelta = -y * _sigmoid(m)
    return value, ddelta[None, :]


def loss(kind: str, net: DeepNet, data: Dataset) -> float:
    """Sum over samples of the per-sample loss."""
    _check_kind(kind, data, net)
    return _loss_terms(kind, batch_forward(net, data.inputs)[0], data.labels)[0]


def loss_and_gradient(kind: str, net: DeepNet, data: Dataset):
    """Returns (loss value, per-layer gradient list, relu kink flag)."""
    _check_kind(kind, data, net)
    return _loss_and_gradient(kind, net, data)


def _loss_and_gradient(kind: str, net: DeepNet, data: Dataset):
    """loss_and_gradient without the argument check, for loops that make
    the check once up front."""
    out, _, acts, derivs, kink = batch_forward(net, data.inputs)
    value, ddelta = _loss_terms(kind, out, data.labels)
    return value, batch_backprop(net, acts, derivs, ddelta), kink


def loss_gradient(kind: str, net: DeepNet, data: Dataset) -> list:
    """Per-layer gradient matrices of the loss, shaped like net.layers."""
    _, grads, _ = loss_and_gradient(kind, net, data)
    return grads


def separability_margin(net: DeepNet, data: Dataset) -> float:
    """min_n y_n f(x_n) for binary data; for multiclass the worst logit gap
    min_n min_{c != y_n} (f_y - f_c). Positive iff the net separates."""
    if data.task == "binary":
        if net.out_dim != 1:
            raise ValueError("binary margin needs a single output row")
        f = batch_outputs(net, data.inputs)
        return float((data.labels * f).min())
    if data.task == "multiclass":
        logits = batch_forward(net, data.inputs)[0].T
        y = data.labels
        rows = np.arange(len(y))
        own = logits[rows, y]
        masked = logits.copy()
        masked[rows, y] = -np.inf
        return float((own - masked.max(axis=1)).min())
    raise ValueError("separability is a classification notion")


def classification_error(net: DeepNet, data: Dataset) -> float:
    """Fraction of misclassified samples (sign rule; f = 0 counts wrong)."""
    if data.task == "binary":
        if net.out_dim != 1:
            raise ValueError("binary error rate needs a single output row")
        f = batch_outputs(net, data.inputs)
        return float(np.mean(data.labels * f <= 0.0))
    if data.task == "multiclass":
        logits = batch_forward(net, data.inputs)[0].T
        return float(np.mean(logits.argmax(axis=1) != data.labels))
    raise ValueError("classification error needs a classification task")


def mean_squared_error(net: DeepNet, data: Dataset) -> float:
    f = batch_outputs(net, data.inputs)
    return float(np.mean((data.labels - f) ** 2))
