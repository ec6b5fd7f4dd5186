"""Cyclic-Jacobi symmetric eigensolver: the independent oracle for
``gradflow.linalg.symmetric_eig``.

The package solves with LAPACK ``eigh``; this is a plain Python sweep of
2x2 rotations that shares no code with it. Jacobi is at least as accurate
as QR-based solvers and keeps high relative accuracy on graded matrices
(Demmel & Veselic, Jacobi's Method is More Accurate than QR, SIAM J.
Matrix Anal. Appl., 1992), which makes it a sound reference for where the
small eigenvalues of a spectrum fall. It returns the same contract as
``symmetric_eig``: descending eigenvalues, ties kept in pre-sort order,
each eigenvector's first nonzero component positive. A sweep costs about
n^2 Python-level rotations, each O(n), so keep n to a few dozen.
"""

import numpy as np

from gradflow.linalg import (
    SYMMETRY_RTOL,
    EigenDecomposition,
    check_matrix,
    frobenius_norm,
)

_MAX_SWEEPS = 64


def jacobi_eig(a, tol: float = 1e-10) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Rotations run until the off-diagonal Frobenius norm is at most
    tol * ||A||_F. Output is deterministic: eigenvalues sorted descending
    with ties kept in pre-sort order, and each eigenvector flipped so its
    first nonzero component is positive.
    """
    a = check_matrix(a, "A")
    n, m = a.shape
    if n != m:
        raise ValueError(f"A must be square, got {n}x{m}")
    scale = float(np.abs(a).max())
    asym = float(np.abs(a - a.T).max())
    if scale > 0.0 and asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"A is not symmetric: max |A - A^T| = {asym:.3e} "
            f"(relative {asym / scale:.3e})"
        )

    h = 0.5 * (a + a.T)  # exact symmetry for the sweep updates
    q = np.eye(n)
    norm_a = frobenius_norm(h)
    if norm_a == 0.0:
        return EigenDecomposition(np.zeros(n), np.eye(n))

    # roundoff keeps the off-norm near n*eps*||A||, so clamp the target there
    off_target = max(tol, n * np.finfo(float).eps) * norm_a
    # a full matrix of skipped pivots stays strictly inside the target
    small = off_target / (2.0 * n)
    for _ in range(_MAX_SWEEPS):
        # summed from the off-diagonal entries themselves; the difference
        # sum(h^2) - sum(diag^2) cancels catastrophically near convergence
        o = h.copy()
        np.fill_diagonal(o, 0.0)
        off2 = (o * o).sum()
        if off2 <= off_target * off_target:
            break
        rotated = False
        for p in range(n - 1):
            hp = h[p]
            for r in range(p + 1, n):
                apq = hp[r]
                if abs(apq) <= small:
                    continue
                rotated = True
                theta = (h[r, r] - h[p, p]) / (2.0 * apq)
                # smaller-magnitude root of t^2 + 2*theta*t - 1 = 0
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rp = h[p, :].copy()
                rq = h[r, :].copy()
                h[p, :] = c * rp - s * rq
                h[r, :] = s * rp + c * rq
                cp = h[:, p].copy()
                cq = h[:, r].copy()
                h[:, p] = c * cp - s * cq
                h[:, r] = s * cp + c * cq
                h[p, r] = 0.0
                h[r, p] = 0.0
                vp = q[:, p].copy()
                vq = q[:, r].copy()
                q[:, p] = c * vp - s * vq
                q[:, r] = s * vp + c * vq
        if not rotated:
            break  # every remaining pivot is below the skip threshold
    else:
        raise RuntimeError(
            f"Jacobi sweeps did not reach off-diagonal target {off_target:.3e} "
            f"in {_MAX_SWEEPS} sweeps"
        )

    evals = np.diag(h).copy()
    order = np.argsort(-evals, kind="stable")  # descending, ties by index
    evals = evals[order]
    vecs = q[:, order].copy()
    for j in range(n):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0.0:
            vecs[:, j] = -col
    return EigenDecomposition(evals, vecs)
