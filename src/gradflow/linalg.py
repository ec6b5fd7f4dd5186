"""Dense symmetric linear algebra kernel used by every other module.

The symmetric eigensolver is LAPACK's ``eigh`` (through numpy), wrapped to
a fixed contract: a symmetry check, descending eigenvalues with stable
ties, and a sign convention on the eigenvectors, so that every caller
sees deterministic output. ``gram_solve`` alone applies the rank cutoff;
every minimum-norm solution and null basis in the package comes from it.
Both take one matrix or a stack (..., n, n) of them, and a stack's slices
come out as the same bits as each slice alone.

The long-double least-squares path is written out here as well, for
designs too ill-conditioned for the Gram route. ``extended_min_norm_path``
solves every leading-column width of X from two factorizations: one
Householder QR of the columns, whose prefixes serve every tall width, and
one QR of the square X^T, which each wider width updates by appending a
row with Givens rotations. Every width gets the same condition estimate
and the same rank refusal.

Every long-double product on that path goes through ``np.dot``, never
``@``. numpy hands no long-double product to BLAS, and its ``np.dot``
loop is about twice as fast as the ``@`` loop at these shapes; both sum
each entry sequentially from zero, so the bits are the same.

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
# Gram eigenvalues at or below RANK_CUTOFF * largest are exact zeros
RANK_CUTOFF = 1e-12
# the long-double path's refusal of a rank-deficient width
RANK_DEFICIENT = "X is rank deficient; use min_norm_least_squares"


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
    """Full eigendecomposition of a symmetric matrix, or of each matrix in
    a stack (..., n, n), by LAPACK ``eigh``.

    Output is deterministic and the same per slice as for that slice
    alone: eigenvalues sorted descending with ties kept in pre-sort order,
    and each eigenvector flipped so its first nonzero component is
    positive.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"A must be square or a stack of square matrices, "
                         f"got shape {a.shape}")
    if a.size == 0:
        raise ValueError("A is empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("A has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    scale = np.abs(a).max(axis=(-2, -1))
    asym = np.abs(a - at).max(axis=(-2, -1))
    bad = (scale > 0.0) & (asym > SYMMETRY_RTOL * scale)
    if bad.any():
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        where = f"A[{', '.join(map(str, idx))}]" if idx else "A"
        raise ValueError(
            f"{where} is not symmetric: max |A - A^T| = {asym[idx]:.3e} "
            f"(relative {asym[idx] / scale[idx]:.3e})"
        )

    evals, vecs = np.linalg.eigh(0.5 * (a + at))
    # descending, ties by index
    order = np.argsort(-evals, axis=-1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    mag = np.abs(vecs)
    first = np.argmax(mag > 1e-12 * mag.max(axis=-2, keepdims=True), axis=-2)
    lead = np.take_along_axis(vecs, first[..., None, :], axis=-2)
    vecs *= np.where(lead < 0.0, -1.0, 1.0)
    return EigenDecomposition(evals, vecs)


def gram_solve(dec: EigenDecomposition, rhs):
    """Minimum-norm solution of G x = rhs from G's eigendecomposition, and
    the mask of the eigenvalues kept: those above RANK_CUTOFF times the
    largest. A zero G keeps none, and x = 0.

    Takes a stacked decomposition from symmetric_eig and solves each slice
    with its own cutoff; rhs is (..., n) or one (n,) shared by every
    slice. Products and sums are elementwise, not matmul, so a slice's
    bits do not depend on the stack around it.
    """
    lam = dec.eigenvalues
    keep = lam > RANK_CUTOFF * lam.max(axis=-1, initial=0.0, keepdims=True)
    vecs = dec.eigenvectors
    proj = (vecs * np.asarray(rhs, dtype=float)[..., :, None]).sum(axis=-2)
    coef = np.where(keep, proj / np.where(keep, lam, 1.0), 0.0)
    return (vecs * coef[..., None, :]).sum(axis=-1), keep


def min_norm_least_squares(x_mat, y) -> np.ndarray:
    """Smallest-norm minimizer of ||X w - y||.

    Goes through the n x n Gram system, w = X^T (X X^T)^+ y, with the rank
    rule of gram_solve. The output lies in the row space of X by
    construction.
    """
    x_mat = check_matrix(x_mat, "X")
    y = check_vector(y, "y")
    n, _ = x_mat.shape
    if y.shape[0] != n:
        raise ValueError(f"y has length {y.shape[0]}, expected {n}")
    if not np.any(x_mat):
        raise ValueError("X is entirely zero; no row space to solve in")
    coeff, keep = gram_solve(symmetric_eig(x_mat @ x_mat.T), y)
    if not np.any(keep):
        raise ValueError("X X^T is numerically zero")
    return x_mat.T @ coeff


def _householder_qr(a):
    """In-place Householder QR. Returns (reflectors, R) with R stored in a.

    Each reflector is (start_row, v, ||v||^2); Q is applied or formed
    through them. Works on whatever float dtype a carries.
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
            a[k:, k:] -= np.outer(v, (2.0 / vn2) * np.dot(v, a[k:, k:]))
        reflectors.append((k, v, vn2))
    return reflectors, a


def _pivot_condition(diag):
    """max|R_ii| / min|R_ii| of the pivot magnitudes in diag, a cheap
    estimate of cond(X); None when the factorization itself lost a column.

    A pivot at long-double rounding level of the largest marks that loss;
    monomial designs bottom out ~1e3 above this floor.
    """
    floor = 8.0 * np.finfo(np.longdouble).eps * diag.max()
    if not np.all(np.isfinite(diag)) or diag.min() <= floor:
        return None
    return float(diag.max() / diag.min())


def _tall_path(x_mat, y, first):
    """Least-squares solves for the widths first..p of an n x p x_mat, p < n.

    One column QR serves every width: a width's reflectors, its leading
    block of R and the leading entries of Q^T y are the first ones of the
    full factorization, bit for bit.
    """
    reflectors, r = _householder_qr(x_mat.astype(np.longdouble))
    b = y.astype(np.longdouble)
    for start, v, vn2 in reflectors:
        if vn2 > 0:
            b[start:] -= v * ((2.0 / vn2) * np.dot(v, b[start:]))
    diag = np.abs(np.diagonal(r))
    out = []
    for p in range(first, r.shape[1] + 1):
        cond = _pivot_condition(diag[:p])
        if cond is None:
            out.append(None)
            continue
        # back-substitute R w = (Q^T y)[:p]
        w = np.zeros(p, dtype=np.longdouble)
        for i in range(p - 1, -1, -1):
            w[i] = (b[i] - np.dot(r[i, i + 1:p], w[i + 1:])) / r[i, i]
        out.append((np.asarray(w, dtype=float), cond))
    return out


def _wide_path(x_mat, y, first):
    """Minimum-norm solves for the widths first..d >= n of an n x d x_mat.

    One Householder QR of the square X[:, :n]^T, with its Q formed; each
    further column of X is then appended to X^T as a row and rotated into
    R by n Givens rotations, which are applied to Q's columns too (Golub &
    Van Loan, Matrix Computations, 6.5). Then w = Q R^-T y.

    R and Q^T sit side by side in one (n + 1) x (n + d) buffer [R | Q^T]:
    columns :n hold R, columns n: hold Q^T (a row per column of Q, a
    column per row of X^T), and row n holds the row being appended beside
    its unit vector. A rotation acts on the same two rows of both blocks,
    so each Givens step is one product over one view.
    """
    n, d = x_mat.shape
    reflectors, r = _householder_qr(x_mat[:, :n].T.astype(np.longdouble))
    both = np.zeros((n + 1, n + d), dtype=np.longdouble)
    both[:n, :n] = r
    both[:n, n:2 * n] = np.eye(n)
    for start, v, vn2 in reflectors:
        if vn2 > 0:
            blk = both[start:n, n:2 * n]
            blk -= np.outer(v, (2.0 / vn2) * np.dot(v, blk))
    b = y.astype(np.longdouble)
    rot = np.empty((2, 2), dtype=np.longdouble)
    out = []
    for p in range(n, d + 1):
        if p > n:
            both[n, :n] = x_mat[:, p - 1]
            both[n, n:] = 0.0
            both[n, n + p - 1] = 1.0
            for k in range(n):
                pivot, entry = both[k, k], both[n, k]
                if entry == 0.0:
                    continue
                h = np.hypot(pivot, entry)
                rot[0, 0] = rot[1, 1] = pivot / h
                rot[0, 1] = entry / h
                rot[1, 0] = -rot[0, 1]
                # rows k and n of [R | Q^T]: a view, rotated in place
                blk = both[k::n - k, k:n + p]
                blk[...] = np.dot(rot, blk)
        if p < first:
            continue
        cond = _pivot_condition(np.abs(np.diagonal(both[:n, :n])))
        if cond is None:
            out.append(None)
            continue
        # solve R^T z = y, then w = Q z
        z = np.zeros(n, dtype=np.longdouble)
        for i in range(n):
            z[i] = (b[i] - np.dot(both[:i, i], z[:i])) / both[i, i]
        out.append((np.asarray(np.dot(z, both[:n, n:n + p]), dtype=float),
                    cond))
    return out


def extended_min_norm_path(x_mat, y, first_width: int = 1) -> list:
    """Least-squares solves of X[:, :p] w = y by QR in long double, for
    every leading-column width p from first_width to X's column count.

    The Gram route above squares the condition number of X, which a
    monomial design matrix past a few dozen columns cannot survive in
    float64. Factoring X itself in 80-bit precision keeps interpolation
    residuals near float rounding up to cond(X) ~ 1e16. Wide widths
    (p >= n) get the minimum-norm interpolant, tall ones the unique
    least-squares solution. The whole path costs two factorizations: one
    column QR read by every tall width, and one QR of the square X^T
    updated by a row per further wide width. That update keeps R and Q^T
    side by side in one long-double buffer [R | Q^T], so that each Givens
    rotation turns the same two rows of both with one product.

    Returns one entry per width: (w, condition), where condition is
    max|R_ii|/min|R_ii|, a cheap estimate of cond(X[:, :p]) used for
    conditioning flags; or None, the refusal of a width whose R has a
    pivot at long-double rounding level. No rank cutoff is applied, so a
    rank-deficient width is refused instead of silently truncated, and a
    refusal leaves the other widths' solves as they are.
    """
    x_mat = check_matrix(x_mat, "X")
    y = check_vector(y, "y")
    n, d = x_mat.shape
    if y.shape[0] != n:
        raise ValueError(f"y has length {y.shape[0]}, expected {n}")
    if not 1 <= first_width <= d:
        raise ValueError(f"first_width must be in 1..{d}, got {first_width}")
    tall = min(d, n - 1)  # widths below n are tall
    out = []
    if first_width <= tall:
        out = _tall_path(x_mat[:, :tall], y, first_width)
    if d >= n:
        out += _wide_path(x_mat, y, max(first_width, n))
    return out

