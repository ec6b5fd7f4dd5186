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

from .network import (DeepNet, _columns, _forward_columns, _sigmoid,
                      batch_backprop, batch_forward)

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
    # fmax skips NaN, so a NaN exponent does not hide one past the clamp
    if np.fmax.reduce(u, axis=None) > EXP_CLAMP:
        warnings.warn(
            f"{context}: exponent clamped at {EXP_CLAMP:.0f}; the flow has "
            "left the regime where the exponential loss is meaningful",
            RuntimeWarning,
        )
        u = np.minimum(u, EXP_CLAMP)
    return np.exp(u)


def _square_terms(y):
    def terms(out):
        f = out[..., 0, :]
        return (np.add.reduce((y - f) ** 2, axis=-1),
                (2.0 * (f - y))[..., None, :])
    return terms


def _exponential_terms(y):
    neg_y = -y

    def terms(out):
        e = _clamped_exp(neg_y * out[..., 0, :], "exponential loss")
        return np.add.reduce(e, axis=-1), (neg_y * e)[..., None, :]
    return terms


def _logistic_terms(y):
    # log(1 + e^{-yf}) is stable on both tails
    neg_y = -y

    def terms(out):
        m = neg_y * out[..., 0, :]
        e = np.exp(-np.abs(m))
        value = np.add.reduce(np.maximum(m, 0.0) + np.log1p(e), axis=-1)
        return value, (neg_y * _sigmoid(m, e))[..., None, :]
    return terms


def _softmax_terms(y):
    # log-sum-exp: -log of an underflowed probability would be inf where
    # this is finite
    def terms(out):
        z = out.mT - np.maximum.reduce(out.mT, axis=-1, keepdims=True)
        e = np.exp(z)
        norm = np.add.reduce(e, axis=-1, keepdims=True)
        hot = y[..., None] == np.arange(out.shape[-2])
        # the one entry of each row where hot is set is z at the label
        picked = np.add.reduce(np.where(hot, z, 0.0), axis=-1)
        value = np.add.reduce(np.log(norm[..., 0]) - picked, axis=-1)
        return value, (e / norm - hot).mT
    return terms


_LOSS_TERMS = {
    "square": _square_terms,
    "exponential": _exponential_terms,
    "logistic": _logistic_terms,
    "softmax_cross_entropy": _softmax_terms,
}
LOSS_KINDS = tuple(_LOSS_TERMS)


def _loss_terms(kind: str, labels):
    """The one table of loss formulas: for labels (N,), or (R, N) for R
    stacked members, the function that maps the (C, N) outputs, or
    (R, C, N), to the summed loss (one sum per member) and its derivative
    with respect to them. The kind and the labels are fixed here once, so
    a flow builds its function once and calls it every step."""
    return _LOSS_TERMS[kind](labels)


def loss(kind: str, net: DeepNet, data: Dataset) -> float:
    """Sum over samples of the per-sample loss."""
    _check_kind(kind, data, net)
    terms = _loss_terms(kind, data.labels)
    return float(terms(batch_forward(net, data.inputs)[0])[0])


def loss_and_gradient(kind: str, net: DeepNet, data: Dataset):
    """Returns (loss value, per-layer gradient list, relu kink flag)."""
    _check_kind(kind, data, net)
    value, grads, kink, _ = _terms_and_gradient(
        _loss_terms(kind, data.labels), net, _columns(data.inputs))
    return float(value), grads, kink


def _terms_and_gradient(terms, net: DeepNet, columns, layers=None, out=None):
    """loss_and_gradient without the argument check, for callers that make
    it once up front: from a _loss_terms function and the inputs as columns
    (see _forward_columns), which such a caller also fixes once for all its
    evaluations. Stacked layers (see batch_forward) stand in for net's and
    give one value, gradient and kink flag per member; out is as in
    batch_backprop. The outputs the loss was taken of come last."""
    fwd, acts, derivs, kink = _forward_columns(net, columns, layers)
    value, ddelta = terms(fwd)
    return (value, batch_backprop(net, acts, derivs, ddelta, layers, out),
            kink, fwd)


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


def _error_rate(task: str, out, labels):
    """The one error rule, per member of outputs (R, C, N) or of (C, N),
    by np.mean's sum and division: the 0/1 error of the sign (f = 0 counts
    wrong) or of the first argmax of the logits, or the regression MSE."""
    if task == "multiclass":
        terms = out.argmax(axis=-2) != labels
    else:
        f = out[..., 0, :]
        terms = labels * f <= 0.0 if task == "binary" else (labels - f) ** 2
    return np.add.reduce(terms, axis=-1, dtype=float) / out.shape[-1]


def classification_error(net: DeepNet, data: Dataset) -> float:
    """Fraction of misclassified samples (sign rule; f = 0 counts wrong)."""
    if data.task == "regression":
        raise ValueError("classification error needs a classification task")
    if data.task == "binary" and net.out_dim != 1:
        raise ValueError("binary error rate needs a single output row")
    return float(_error_rate(data.task, batch_forward(net, data.inputs)[0],
                             data.labels))


def mean_squared_error(net: DeepNet, data: Dataset) -> float:
    return float(_error_rate("regression", batch_forward(net, data.inputs)[0],
                             data.labels))
