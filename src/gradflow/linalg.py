"""Dense symmetric linear algebra kernel used by every other module.

The symmetric eigensolver is LAPACK's ``eigh`` (through numpy), wrapped to
a fixed contract: a symmetry check, descending eigenvalues with stable
ties, and a sign convention on the eigenvectors, so that every caller
sees deterministic output. The Gram-route minimum-norm least-squares
solver and the long-double Householder QR are written out here.

A cyclic-Jacobi eigensolver in ``tests/`` is the independent oracle for
``symmetric_eig``: it shares no code with LAPACK, and Jacobi keeps high
relative accuracy on graded spectra (Demmel & Veselic, SIAM J. Matrix
Anal. Appl., 1992), which is where the zero/nonzero split of a Hessian
or Gram spectrum is decided. Written in Python it is about 1000x slower
than ``eigh``, so it runs only in the tests.

Intended scale is dense float64 matrices up to a few hundred rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative asymmetry tolerated by the eigensolver before rejection
SYMMETRY_RTOL = 1e-12
# Gram eigenvalues below RANK_CUTOFF * largest are treated as exact zeros
RANK_CUTOFF = 1e-12


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array or raise ValueError."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def check_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries (any array shape)."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("frobenius_norm: non-finite entries")
    return float(np.sqrt((arr * arr).sum()))


def symmetric_eig(a) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Output is deterministic: eigenvalues sorted descending with ties kept
    in pre-sort order, and each eigenvector flipped so its first nonzero
    component is positive.
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

    evals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(-evals, kind="stable")  # descending, ties by index
    evals = evals[order]
    vecs = vecs[:, order]
    mag = np.abs(vecs)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    vecs *= np.where(vecs[first, np.arange(n)] < 0.0, -1.0, 1.0)
    return EigenDecomposition(evals, vecs)


def min_norm_least_squares(x_mat, y) -> np.ndarray:
    """Smallest-norm minimizer of ||X w - y||.

    Goes through the n x n Gram system, w = X^T (X X^T)^+ y, with Gram
    eigenvalues below RANK_CUTOFF times the largest treated as exact
    zeros. The output lies in the row space of X by construction.
    """
    x_mat = check_matrix(x_mat, "X")
    y = check_vector(y, "y")
    n, _ = x_mat.shape
    if y.shape[0] != n:
        raise ValueError(f"y has length {y.shape[0]}, expected {n}")
    if not np.any(x_mat):
        raise ValueError("X is entirely zero; no row space to solve in")
    dec = symmetric_eig(x_mat @ x_mat.T)
    lam_max = float(dec.eigenvalues.max(initial=0.0))
    keep = dec.eigenvalues > RANK_CUTOFF * lam_max
    if not np.any(keep):
        raise ValueError("X X^T is numerically zero")
    vecs = dec.eigenvectors[:, keep]
    coeff = vecs @ ((vecs.T @ y) / dec.eigenvalues[keep])
    return x_mat.T @ coeff


def _householder_qr(a):
    """In-place Householder QR. Returns (reflectors, R) with R stored in a.

    Each reflector is (start_row, v, ||v||^2); Q is applied through them,
    never formed. Works on whatever float dtype a carries.
    """
    m, n = a.shape
    reflectors = []
    for k in range(min(m, n)):
        x = a[k:, k]
        alpha = np.sqrt((x * x).sum())
        if x[0] > 0:
            alpha = -alpha
        v = x.copy()
        v[0] -= alpha
        vn2 = (v * v).sum()
        if vn2 > 0:
            a[k:, k:] -= np.outer(v, (2.0 / vn2) * (v @ a[k:, k:]))
        reflectors.append((k, v, vn2))
    return reflectors, a


def extended_min_norm(x_mat, y, return_condition: bool = False):
    """Least-squares solve of X w = y by Householder QR in long double.

    The Gram route above squares the condition number of X, which a
    monomial design matrix past a few dozen columns cannot survive in
    float64. Factoring X itself in 80-bit precision keeps interpolation
    residuals near float rounding up to cond(X) ~ 1e16. Wide systems get
    the minimum-norm interpolant, tall ones the unique least-squares
    solution; no rank cutoff is applied, so a genuinely rank-deficient X
    raises instead of silently truncating.

    Optionally also returns max|R_ii|/min|R_ii|, a cheap estimate of
    cond(X) used for per-instance conditioning flags.
    """
    x_mat = check_matrix(x_mat, "X")
    y = check_vector(y, "y")
    n, d = x_mat.shape
    if y.shape[0] != n:
        raise ValueError(f"y has length {y.shape[0]}, expected {n}")
    wide = d >= n
    a = (x_mat.T if wide else x_mat).astype(np.longdouble)
    b = y.astype(np.longdouble)
    reflectors, r = _householder_qr(a)
    p = min(a.shape)
    diag = np.abs(np.array([r[i, i] for i in range(p)], dtype=np.longdouble))
    # pivots at long-double rounding level mean the factorization itself
    # lost the column; monomial designs bottom out ~1e3 above this
    floor = 8.0 * np.finfo(np.longdouble).eps * diag.max()
    if not np.all(np.isfinite(diag)) or diag.min() <= floor:
        raise ValueError("X is rank deficient; use min_norm_least_squares")
    cond_est = float(diag.max() / diag.min())
    if wide:
        # solve R^T z = y, then w = Q [z; 0]
        z = np.zeros(p, dtype=np.longdouble)
        for i in range(p):
            z[i] = (b[i] - r[:i, i] @ z[:i]) / r[i, i]
        w = np.zeros(d, dtype=np.longdouble)
        w[:p] = z
        for k in range(p - 1, -1, -1):
            start, v, vn2 = reflectors[k]
            if vn2 > 0:
                w[start:] -= v * ((2.0 / vn2) * (v @ w[start:]))
    else:
        # apply Q^T to y, then back-substitute R w = (Q^T y)[:d]
        for start, v, vn2 in reflectors:
            if vn2 > 0:
                b[start:] -= v * ((2.0 / vn2) * (v @ b[start:]))
        w = np.zeros(d, dtype=np.longdouble)
        for i in range(d - 1, -1, -1):
            w[i] = (b[i] - r[i, i + 1:] @ w[i + 1:]) / r[i, i]
    w64 = np.asarray(w, dtype=float)
    if return_condition:
        return w64, cond_est
    return w64
