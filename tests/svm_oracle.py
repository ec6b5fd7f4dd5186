"""Per-subset reference for ``gradflow.oracles.hard_margin_svm``.

The package solves every support subset of one size as one stack: one
Gram eigendecomposition and one solve per size. This is the plain loop it
replaced, one 2-d ``symmetric_eig`` and ``gram_solve`` call per subset,
with the same feasibility slack and the same tie rule, kept to check the
stacked enumeration against. It makes C(N, 1) + ... + C(N, d+1)
eigendecompositions, about 6,000 at N = 20 and d = 3, so keep N small.
"""

from itertools import combinations

import numpy as np

from gradflow.linalg import gram_solve, symmetric_eig
from gradflow.oracles import FEASIBILITY_SLACK, MarginSolution


def hard_margin_svm_by_subset(data) -> MarginSolution:
    """hard_margin_svm's answer, one subset at a time; None when no
    subset is feasible."""
    n, d = data.inputs.shape
    signed = data.labels[:, None] * data.inputs
    best_w = None
    best_norm = None
    for size in range(1, min(n, d + 1) + 1):
        for subset in combinations(range(n), size):
            z = signed[list(subset)]
            w = z.T @ gram_solve(symmetric_eig(z @ z.T), np.ones(size))[0]
            if (signed @ w).min() < 1.0 - FEASIBILITY_SLACK:
                continue
            norm = float(w @ w)
            if best_norm is None or norm < best_norm * (1.0 - 1e-12):
                best_norm = norm
                best_w = w
    if best_w is None:
        return None
    norm = float(np.sqrt(best_w @ best_w))
    activations = signed @ best_w
    support = tuple(
        int(i) for i in np.nonzero(np.abs(activations - 1.0) <= 1e-9)[0]
    )
    return MarginSolution(
        w_raw=best_w,
        w_tilde=best_w / norm,
        margin=1.0 / norm,
        support_indices=support,
    )
