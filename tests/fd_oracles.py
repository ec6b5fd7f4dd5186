"""Finite-difference reference oracles for the package's analytic
derivatives.

``fd_gradient_check`` compares a gradient against central differences of
the function; ``hessian_by_second_differences`` builds a loss Hessian from
second differences of the loss value alone, independent of the analytic
gradient that ``gradflow.spectra.hessian`` differences. Both cost O(D) and
O(D^2) loss evaluations, so they serve as slow references on small nets.
"""

import numpy as np

from gradflow.losses import Dataset, loss
from gradflow.network import DeepNet, flatten_params, unflatten_params


def fd_gradient_check(f, grad, point, step: float = 1e-6) -> float:
    """Worst relative mismatch between an analytic gradient and central
    finite differences of f, normalized by the largest gradient magnitude.
    """
    point = np.asarray(point, dtype=float)
    grad_vec = np.asarray(grad(point) if callable(grad) else grad, dtype=float)
    grad_vec = grad_vec.reshape(-1)
    if grad_vec.shape != point.reshape(-1).shape:
        raise ValueError("gradient and point sizes differ")
    flat = point.reshape(-1)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += step
        dn = flat.copy()
        dn[i] -= step
        f_up = float(f(up.reshape(point.shape)))
        f_dn = float(f(dn.reshape(point.shape)))
        if not (np.isfinite(f_up) and np.isfinite(f_dn)):
            raise ValueError(f"non-finite evaluation at coordinate {i}")
        fd[i] = (f_up - f_dn) / (2.0 * step)
    scale = max(float(np.abs(grad_vec).max()), float(np.abs(fd).max()), 1e-12)
    return float(np.abs(grad_vec - fd).max() / scale)


def hessian_by_second_differences(
    kind: str, net: DeepNet, data: Dataset, lambdas=(), step: float = 1e-4
) -> np.ndarray:
    """Slow reference construction: second differences of the loss value
    itself. Independent of the analytic gradient, used to cross-check
    hessian() on small nets.
    """
    flat = flatten_params(net.layers)
    dim = flat.size
    shapes = [w.shape for w in net.layers]
    lams = tuple(float(l) for l in lambdas)

    def value_at(delta):
        candidate = net.with_layers(unflatten_params(flat + delta, shapes))
        v = loss(kind, candidate, data)
        for lam, w in zip(lams or [0.0] * net.depth, candidate.layers):
            v += lam * float((w * w).sum())
        return v

    h_mat = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            ei = np.zeros(dim)
            ej = np.zeros(dim)
            ei[i] = step
            ej[j] = step
            val = (
                value_at(ei + ej)
                - value_at(ei - ej)
                - value_at(-ei + ej)
                + value_at(-ei - ej)
            ) / (4.0 * step * step)
            h_mat[i, j] = val
            h_mat[j, i] = val
    return h_mat
