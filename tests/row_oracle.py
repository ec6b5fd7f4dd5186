"""Per-member trace rows, the reference for run_flows' stacked rows.

_row builds one member's row from the member's own net: a fresh forward
pass of the training data for the training error, one of the test data for
the test error (both by np.mean, as classification_error and
mean_squared_error once took them), frobenius_norm per layer and the
cosine of the flattened weights with the reference direction. member_net
builds that net from the stack's current buffer.
"""

import numpy as np

from gradflow.flow import TraceRow
from gradflow.linalg import frobenius_norm
from gradflow.losses import batch_outputs
from gradflow.network import batch_forward, flatten_params


def _error_metric(net, data):
    """Mean squared error for regression data, else the 0/1 error (sign
    rule, f = 0 counts wrong, or the first argmax of the logits)."""
    if data is None:
        return None
    if data.task == "regression":
        return float(np.mean((data.labels - batch_outputs(net, data.inputs))
                             ** 2))
    if data.task == "binary":
        return float(np.mean(data.labels * batch_outputs(net, data.inputs)
                             <= 0.0))
    logits = batch_forward(net, data.inputs)[0].T
    return float(np.mean(logits.argmax(axis=1) != data.labels))


def _cosine(u, v) -> float:
    nu = float(np.sqrt((u * u).sum()))
    nv = float(np.sqrt((v * v).sum()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float((u * v).sum() / (nu * nv))


def _row(refs, net, data, time, value) -> TraceRow:
    """net's row at time, at loss value, with its error on data."""
    cosine = None
    if refs is not None and refs.reference_direction is not None:
        cosine = _cosine(flatten_params(net.layers), refs.reference_direction)
    return TraceRow(time, value, _error_metric(net, data),
                    _error_metric(net, refs.test_data if refs else None),
                    tuple(frobenius_norm(w) for w in net.layers), cosine,
                    None)


def member_net(euler, i):
    """The net of the stack's member at position i on its current buffer:
    its layers, or rho_k V_k for a normalized member."""
    layers = [w[i] for w in euler.layers[:euler.arch.depth]]
    if euler.normalized:
        layers = [rho * v for rho, v in zip(euler.layers[-1][i, 0], layers)]
    return euler.arch.with_layers(layers)
