"""Tests for the long-double path solver, extended_min_norm_path.

Oracles: numpy lstsq/pinv on well-conditioned designs, a fresh per-width
Householder QR written out below (the solver's tall widths must match it
bit for bit), fresh one-width calls (every width must match them bit for
bit), and a 50-digit mpmath minimum-norm solution on a Chebyshev
Vandermonde design.

The solver forms its long-double products with np.dot and the fresh QR
below with @; a test here pins the two routines to the same bits.
"""

import mpmath
import numpy as np
import pytest

from gradflow.linalg import extended_min_norm_path


def _chebyshev_vandermonde(n, columns):
    i = np.arange(1, n + 1)
    x = np.cos((2.0 * i - 1.0) * np.pi / (2.0 * n))
    return x, np.vander(x, columns, increasing=True)


def _fresh_tall_solve(x_mat, y):
    """Least squares of one tall X by its own Householder QR in long double,
    with the pivot floor and condition estimate of the path solver; None
    where it refuses."""
    a = x_mat.astype(np.longdouble)
    b = y.astype(np.longdouble)
    n, p = a.shape
    for k in range(p):
        col = a[k:, k]
        alpha = np.sqrt((col * col).sum())
        if col[0] > 0:
            alpha = -alpha
        v = col.copy()
        v[0] -= alpha
        vn2 = (v * v).sum()
        if vn2 > 0:
            a[k:, k:] -= np.outer(v, (2.0 / vn2) * (v @ a[k:, k:]))
            b[k:] -= v * ((2.0 / vn2) * (v @ b[k:]))
    diag = np.abs(np.diagonal(a))
    if diag.min() <= 8.0 * np.finfo(np.longdouble).eps * diag.max():
        return None
    w = np.zeros(p, dtype=np.longdouble)
    for i in range(p - 1, -1, -1):
        w[i] = (b[i] - a[i, i + 1:] @ w[i + 1:]) / a[i, i]
    return np.asarray(w, dtype=float), float(diag.max() / diag.min())


def test_every_width_matches_lstsq_and_pinv():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(8, 14))
    y = rng.normal(size=8)
    fits = extended_min_norm_path(x, y)
    assert len(fits) == 14
    for width, (w, cond) in enumerate(fits, start=1):
        sub = x[:, :width]
        if width < 8:
            ref = np.linalg.lstsq(sub, y, rcond=None)[0]
        else:
            ref = np.linalg.pinv(sub) @ y
        assert w.shape == (width,)
        assert np.abs(w - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
        assert 1.0 <= cond < 1e3


def test_first_width_skips_the_narrower_widths():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(5, 9))
    y = rng.normal(size=5)
    full = extended_min_norm_path(x, y)
    for first in (1, 3, 5, 7, 9):
        part = extended_min_norm_path(x, y, first)
        assert len(part) == 9 - first + 1
        for (w, cond), (w_ref, cond_ref) in zip(part, full[first - 1:]):
            assert np.array_equal(w, w_ref) and cond == cond_ref


def test_tall_widths_equal_fresh_factorizations_bitwise():
    # the sweep's design: 76 Chebyshev nodes, so widths 1..75 are tall;
    # widths 73..75 hit the pivot floor and are refused
    x, design = _chebyshev_vandermonde(76, 75)
    y = np.sin(2.0 * np.pi * 4.0 * x)
    fits = extended_min_norm_path(design, y)
    refused = []
    for width, solved in enumerate(fits, start=1):
        fresh = _fresh_tall_solve(design[:, :width], y)
        if fresh is None:
            assert solved is None
            refused.append(width)
            continue
        w, cond = solved
        assert np.array_equal(w, fresh[0]) and cond == fresh[1]
        [one] = extended_min_norm_path(design[:, :width], y, width)
        assert np.array_equal(one[0], w) and one[1] == cond
    assert refused == [73, 74, 75]


def test_wide_widths_equal_fresh_one_width_calls_bitwise():
    # the sweep's design again: widths 76..151 are wide, each read off the
    # row-updated [R | Q^T] buffer after its own run of rotations
    x, design = _chebyshev_vandermonde(76, 151)
    y = np.sin(2.0 * np.pi * 4.0 * x)
    fits = extended_min_norm_path(design, y, 76)
    assert len(fits) == 151 - 76 + 1
    for width, solved in zip(range(76, 152), fits):
        [fresh] = extended_min_norm_path(design[:, :width], y, width)
        if fresh is None:
            assert solved is None, width
            continue
        assert np.array_equal(solved[0], fresh[0]), width
        assert solved[1] == fresh[1], width


def _long_double(rng, shape, step):
    """Random long-double entries of either sign, magnitudes 1e-8..1e8, as
    a view of every step-th entry along each axis."""
    full = tuple(step * size for size in shape)
    mag = 10.0 ** rng.uniform(-8.0, 8.0, size=full)
    sign = rng.choice([-1.0, 1.0], size=full)
    arr = (sign * mag).astype(np.longdouble)
    return arr[(slice(None, None, step),) * len(shape)]


@pytest.mark.parametrize("shapes", [
    lambda m, k: ((k,), (k, m)),  # a reflector, or Q z
    lambda m, k: ((m, k), (k,)),  # a design times its coefficients
    lambda m, k: ((2, 2), (2, m)),  # a Givens rotation
    lambda m, k: ((k,), (k,)),  # a substitution, or a reflector on b
], ids=["1d-2d", "2d-1d", "2x2-2d", "1d-1d"])
def test_long_double_dot_equals_matmul_bitwise(shapes):
    # numpy has no BLAS for long double, and both routines sum each entry
    # sequentially from zero; a numpy whose two routines disagree fails
    # here. step 2 gives the strided views that the path multiplies.
    rng = np.random.default_rng(33)
    for _ in range(40):
        m, k = rng.integers(1, 200, size=2)
        a_shape, b_shape = shapes(m, k)
        for step in (1, 2):
            a = _long_double(rng, a_shape, step)
            b = _long_double(rng, b_shape, step)
            assert np.array_equal(np.dot(a, b), a @ b), (a.shape, b.shape)


def test_singular_square_prefix_still_solves_wider_widths():
    # column 2 is exactly column 0 + column 1, so the square 3 x 3 prefix
    # is singular; the wider widths are not, and only their own R counts
    x = np.array([[1.0, 0.0, 1.0, 2.0, 0.0],
                  [0.0, 1.0, 1.0, 0.0, 3.0],
                  [2.0, 1.0, 3.0, 1.0, 1.0]])
    y = np.array([1.0, -2.0, 0.5])
    fits = extended_min_norm_path(x, y, 3)
    assert fits[0] is None
    for width, solved in zip((4, 5), fits[1:]):
        assert solved is not None
        ref = np.linalg.pinv(x[:, :width]) @ y
        assert np.abs(solved[0] - ref).max() <= 1e-10
        [(w, _)] = extended_min_norm_path(x[:, :width], y, width)
        assert np.abs(w - ref).max() <= 1e-10
    assert extended_min_norm_path(x[:, :3], y, 3) == [None]


def test_wide_widths_match_mpmath_minimum_norm():
    # cond(X) <= 1.9e9 for 26 Chebyshev nodes and 26..40 monomials
    n, d = 26, 40
    x, design = _chebyshev_vandermonde(n, d)
    y = np.sin(2.0 * np.pi * 2.0 * x)
    assert np.linalg.cond(design[:, :n]) <= 1e10
    fits = extended_min_norm_path(design, y, n)
    assert len(fits) == d - n + 1
    with mpmath.workdps(50):
        for width, (w, _) in zip(range(n, d + 1), fits):
            m = mpmath.matrix(design[:, :width].tolist())
            coeff = mpmath.lu_solve(m * m.T, mpmath.matrix(y.tolist()))
            ref = np.array([float(v) for v in m.T * coeff])
            rel = np.linalg.norm(w - ref) / np.linalg.norm(ref)
            assert rel <= 1e-8, (width, rel)


def test_first_width_out_of_range_rejected():
    with pytest.raises(ValueError, match="first_width"):
        extended_min_norm_path(np.eye(3, 4), np.ones(3), 0)
    with pytest.raises(ValueError, match="first_width"):
        extended_min_norm_path(np.eye(3, 4), np.ones(3), 5)
