"""Tests for the dense symmetric linear algebra kernel.

Oracles deliberately avoid the code under test: eigenvalues of a random
symmetric matrix are cross-checked against bisection on its characteristic
polynomial and against a cyclic-Jacobi solver (jacobi_oracle.py), and the
minimum-norm solver against the ridge-regression limit.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradflow.spectra as spectra
from gradflow.linalg import (
    RANK_CUTOFF,
    EigenDecomposition,
    check_matrix,
    check_vector,
    extended_min_norm_path,
    frobenius_norm,
    gram_solve,
    min_norm_least_squares,
    symmetric_eig,
)
from gradflow.spectra import classify
from jacobi_oracle import jacobi_eig


def _charpoly_roots_by_bisection(a, tol=1e-13):
    """All eigenvalues of a small symmetric matrix, found as sign changes of
    det(A - t I) scanned over the Gershgorin interval and bisected down.

    Works when the eigenvalues are distinct, which holds almost surely for
    the random matrices used here.
    """
    n = a.shape[0]
    radius = np.abs(a).sum(axis=1).max()
    grid = np.linspace(-radius - 1.0, radius + 1.0, 20001)
    vals = np.array([np.linalg.det(a - t * np.eye(n)) for t in grid])
    roots = []
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0.0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = np.linalg.det(a - mid * np.eye(n))
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
                if hi - lo < tol * max(1.0, abs(mid)):
                    break
            roots.append(0.5 * (lo + hi))
    assert len(roots) == n, "oracle needs distinct eigenvalues"
    return np.array(sorted(roots, reverse=True))


def test_diagonal_matrix():
    dec = symmetric_eig(np.diag([3.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0])


def test_reflection_matrix():
    dec = symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, -1.0])


def test_random_4x4_matches_charpoly_bisection():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(4, 4))
    a = 0.5 * (a + a.T)
    dec = symmetric_eig(a)
    oracle = _charpoly_roots_by_bisection(a)
    rel = np.abs(dec.eigenvalues - oracle) / np.abs(oracle).max()
    assert rel.max() <= 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_orthogonal_similarity_preserves_spectrum(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    b = q.T @ a @ q
    b = 0.5 * (b + b.T)
    ea = symmetric_eig(a).eigenvalues
    eb = symmetric_eig(b).eigenvalues
    scale = max(np.abs(ea).max(), 1e-30)
    assert np.abs(ea - eb).max() <= 1e-8 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_trace_equals_eigenvalue_sum(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    dec = symmetric_eig(a)
    assert abs(np.trace(a) - dec.eigenvalues.sum()) <= 1e-10 * max(
        1.0, abs(np.trace(a))
    )


def test_orthonormality_and_reconstruction():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(30, 30))
    a = 0.5 * (a + a.T)
    dec = symmetric_eig(a)
    q = dec.eigenvectors
    assert np.abs(q.T @ q - np.eye(30)).max() <= 1e-10
    rebuilt = (q * dec.eigenvalues) @ q.T
    assert frobenius_norm(rebuilt - a) <= 1e-8 * frobenius_norm(a)
    # descending order
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_eigenvector_equation():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8))
    a = 0.5 * (a + a.T)
    dec = symmetric_eig(a)
    scale = np.abs(dec.eigenvalues).max()
    for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
        assert np.abs(a @ v - lam * v).max() <= 1e-8 * scale


def test_deterministic_output_and_sign_convention():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    a = 0.5 * (a + a.T)
    d1 = symmetric_eig(a)
    d2 = symmetric_eig(a.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    for v in d1.eigenvectors.T:
        nz = v[np.abs(v) > 1e-12 * np.abs(v).max()]
        assert nz[0] > 0.0


def test_asymmetric_input_rejected_with_magnitude():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eig(a)


def test_nonsquare_rejected():
    with pytest.raises(ValueError, match="square"):
        symmetric_eig(np.ones((2, 3)))


def test_nonfinite_rejected():
    a = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        symmetric_eig(a)


def test_frobenius_norm_cases():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_min_norm_single_row_axis_aligned():
    w = min_norm_least_squares(np.array([[1.0, 0.0]]), [2.0])
    assert np.allclose(w, [2.0, 0.0], atol=1e-12)


def test_min_norm_rank_one_row():
    w = min_norm_least_squares(np.array([[1.0, 1.0]]), [2.0])
    assert np.allclose(w, [1.0, 1.0], atol=1e-12)


def test_min_norm_matches_ridge_limit():
    rng = np.random.default_rng(123)
    x = rng.normal(size=(3, 5))
    y = rng.normal(size=3)
    w = min_norm_least_squares(x, y)
    for eps in (1e-6, 1e-8):
        ridge = np.linalg.solve(x.T @ x + eps * np.eye(5), x.T @ y)
        assert np.abs(w - ridge).max() <= 1e-4 * max(1.0, np.abs(ridge).max())


def test_min_norm_zero_nullspace_projection():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 9))
    y = rng.normal(size=4)
    w = min_norm_least_squares(x, y)
    _, _, vt = np.linalg.svd(x)
    null_basis = vt[4:]  # full-rank 4x9 almost surely
    assert np.abs(null_basis @ w).max() <= 1e-10


def test_min_norm_overdetermined_matches_lstsq():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(12, 4))
    y = rng.normal(size=12)
    w = min_norm_least_squares(x, y)
    ref, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.abs(w - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_min_norm_rank_deficient_matches_pinv():
    rng = np.random.default_rng(17)
    base = rng.normal(size=(2, 6))
    x = np.vstack([base, base[0] + base[1], 2.0 * base[0]])  # rank 2
    y = rng.normal(size=4)
    w = min_norm_least_squares(x, y)
    ref = np.linalg.pinv(x) @ y
    assert np.abs(w - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_min_norm_all_zero_rejected():
    with pytest.raises(ValueError, match="zero"):
        min_norm_least_squares(np.zeros((3, 4)), np.ones(3))


def test_eigendecomposition_type_invariants():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(5, 5))
    a = 0.5 * (a + a.T)
    dec = symmetric_eig(a)
    assert isinstance(dec, EigenDecomposition)
    assert dec.eigenvalues.shape == (5,)
    assert dec.eigenvectors.shape == (5, 5)


class TestStacked:
    """A stack (..., n, n) goes through symmetric_eig and gram_solve slice
    by slice, with the same bits and masks as the 2-d call on each slice."""

    @staticmethod
    def _stack(rng, shape, n):
        a = rng.normal(size=shape + (n, n))
        return 0.5 * (a + np.swapaxes(a, -1, -2))

    @pytest.mark.parametrize("shape,n", [((1,), 1), ((7,), 3), ((3, 4), 5),
                                         ((50,), 2)])
    def test_each_slice_bitwise_equal_to_2d_call(self, shape, n):
        rng = np.random.default_rng(n + 10 * len(shape))
        a = self._stack(rng, shape, n)
        # degenerate slices: ties in the stable sort and the sign rule
        a[(0,) * len(shape)] = np.eye(n)
        a[(-1,) * len(shape)] = 0.0
        dec = symmetric_eig(a)
        assert dec.eigenvalues.shape == shape + (n,)
        assert dec.eigenvectors.shape == shape + (n, n)
        for idx in np.ndindex(*shape):
            one = symmetric_eig(a[idx])
            assert np.array_equal(dec.eigenvalues[idx], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[idx], one.eigenvectors)

    def test_asymmetric_slice_named_by_index(self):
        a = self._stack(np.random.default_rng(1), (4,), 3)
        a[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match=r"A\[2\] is not symmetric"):
            symmetric_eig(a)
        b = self._stack(np.random.default_rng(2), (2, 3), 3)
        b[1, 0, 2, 1] -= 1.0
        with pytest.raises(ValueError, match=r"A\[1, 0\] is not symmetric"):
            symmetric_eig(b)

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_eig(np.ones((3, 2, 4)))

    def test_gram_solve_mixed_ranks_and_zero_slice(self):
        rng = np.random.default_rng(5)
        n = 4
        grams, rhs = [], rng.normal(size=(4, n))
        for rank in (4, 2, 1, 0):
            x = rng.normal(size=(rank, n))
            grams.append(x.T @ x)
        grams = np.array(grams)
        dec = symmetric_eig(grams)
        x_all, keep_all = gram_solve(dec, rhs)
        assert keep_all.sum(axis=-1).tolist() == [4, 2, 1, 0]
        for i, g in enumerate(grams):
            x_one, keep_one = gram_solve(symmetric_eig(g), rhs[i])
            assert np.array_equal(keep_all[i], keep_one)
            assert np.array_equal(x_all[i], x_one)
        assert not keep_all[3].any()
        assert np.array_equal(x_all[3], np.zeros(n))

    def test_gram_solve_shares_one_rhs(self):
        g = self._stack(np.random.default_rng(8), (6,), 3)
        g = g @ np.swapaxes(g, -1, -2)
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
        x_all, _ = gram_solve(symmetric_eig(g), np.ones(3))
        for i in range(6):
            x_one, _ = gram_solve(symmetric_eig(g[i]), np.ones(3))
            assert np.array_equal(x_all[i], x_one)
        assert np.abs(np.einsum("kij,kj->ki", g, x_all) - 1.0).max() <= 1e-8


class TestExtendedMinNorm:
    """Long-double QR route for design matrices whose Gram conditioning
    exceeds float64, one width at a time. Oracles: numpy lstsq/pinv on benign instances, and
    the residual itself on the pathological ones."""

    def test_matches_float64_path_when_well_conditioned(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 10))
        y = rng.normal(size=6)
        [(w_ext, _)] = extended_min_norm_path(x, y, x.shape[1])
        w_ref = min_norm_least_squares(x, y)
        assert np.abs(w_ext - w_ref).max() <= 1e-10

    def test_tall_matches_lstsq(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 5))
        y = rng.normal(size=15)
        [(w_ext, _)] = extended_min_norm_path(x, y, x.shape[1])
        ref, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.abs(w_ext - ref).max() <= 1e-10

    def test_minimum_norm_property_wide(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 9))
        y = rng.normal(size=4)
        [(w, _)] = extended_min_norm_path(x, y, x.shape[1])
        ref = np.linalg.pinv(x) @ y
        assert np.abs(w - ref).max() <= 1e-10

    def test_interpolates_where_gram_route_cannot(self):
        # monomials at Chebyshev nodes: cond(X)^2 ~ 1e32 kills the Gram
        # route outright, while the QR route keeps the residual at
        # rounding level. Both facts are asserted so the reason this
        # function exists stays pinned down.
        n = 76
        i = np.arange(1, n + 1)
        nodes = np.cos((2 * i - 1) * np.pi / (2 * n))
        y = np.sin(2 * np.pi * 4 * nodes)
        x = np.vander(nodes, 101, increasing=True)
        w_gram = min_norm_least_squares(x, y)
        assert ((x @ w_gram - y) ** 2).sum() > 1e-3
        [(w_ext, cond)] = extended_min_norm_path(x, y, x.shape[1])
        x_ld = np.vander(nodes.astype(np.longdouble), 101, increasing=True)
        resid = float(((x_ld @ w_ext.astype(np.longdouble) - y) ** 2).sum())
        assert resid <= 1e-9
        assert cond > 1e8  # the flag this estimate feeds must fire here

    def test_condition_estimate_sane_on_orthogonal_rows(self):
        x = np.eye(3, 7)
        [(_, cond)] = extended_min_norm_path(x, np.ones(3), x.shape[1])
        assert abs(cond - 1.0) <= 1e-12

    def test_square_system_exact(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 5))
        y = rng.normal(size=5)
        [(w, _)] = extended_min_norm_path(x, y, x.shape[1])
        assert np.abs(x @ w - y).max() <= 1e-12

    def test_rank_deficient_refused(self):
        x = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]])  # rank 1
        assert extended_min_norm_path(x, np.ones(2), x.shape[1]) == [None]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            extended_min_norm_path(np.eye(3), np.ones(4), 3)


class TestAgainstJacobiOracle:
    """symmetric_eig (LAPACK) against the cyclic-Jacobi oracle in
    jacobi_oracle.py, on random, graded and exactly degenerate matrices.

    The oracle runs at tol=1e-12, so by Weyl its eigenvalues are within
    1e-12 ||A||_F of exact; the bounds below leave 10x for rounding in
    the rotations. Invariant subspaces are compared through their
    projectors, whose error is at most residual / gap (Davis-Kahan).
    """

    EIG_RTOL = 1e-11
    SUBSPACE_RTOL = 1e-10

    @staticmethod
    def _clusters(evals, split):
        """Index ranges of runs of the descending evals closer than split."""
        edges = [0] + [i + 1 for i in range(len(evals) - 1)
                       if evals[i] - evals[i + 1] > split] + [len(evals)]
        return [np.arange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]

    @staticmethod
    def _rank_zero_count(dec):
        # the rule of min_norm_least_squares, _solve_gram and _null_space
        lam_max = float(dec.eigenvalues.max(initial=0.0))
        return int((dec.eigenvalues <= RANK_CUTOFF * lam_max).sum())

    def _cross_check(self, a, monkeypatch):
        dec = symmetric_eig(a)
        ref = jacobi_eig(a, tol=1e-12)
        norm = max(frobenius_norm(a), 1e-300)
        assert np.abs(dec.eigenvalues - ref.eigenvalues).max() <= (
            self.EIG_RTOL * norm)
        ev = dec.eigenvalues
        clusters = self._clusters(ev, 1e-8 * norm)
        # a single cluster spans the whole space: nothing to compare
        for k, idx in enumerate(clusters if len(clusters) > 1 else []):
            above = ev[clusters[k - 1][-1]] - ev[idx[0]] if k > 0 else np.inf
            below = (ev[idx[-1]] - ev[clusters[k + 1][0]]
                     if k + 1 < len(clusters) else np.inf)
            gap = min(above, below)
            p_dec = dec.eigenvectors[:, idx] @ dec.eigenvectors[:, idx].T
            p_ref = ref.eigenvectors[:, idx] @ ref.eigenvectors[:, idx].T
            assert frobenius_norm(p_dec - p_ref) <= (
                self.SUBSPACE_RTOL * norm / gap)
        assert self._rank_zero_count(dec) == self._rank_zero_count(ref)
        counts = classify(a).counts()
        with monkeypatch.context() as m:
            m.setattr(spectra, "symmetric_eig", jacobi_eig)
            assert classify(a).counts() == counts
        return dec, ref

    def test_random_symmetric_n_1_to_40(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for n in range(1, 41):
            a = rng.normal(size=(n, n))
            dec, ref = self._cross_check(0.5 * (a + a.T), monkeypatch)
            # distinct eigenvalues: the sign convention pins each vector
            assert np.all((dec.eigenvectors * ref.eigenvectors).sum(0) > 0.5)

    @pytest.mark.parametrize("n", [2, 5, 13, 40])
    def test_graded_spectrum_1_to_1e_minus_12(self, n, monkeypatch):
        # top eigenvalue 1, then magnitudes 10^-e with e spread below 12;
        # no ratio to the top lands on the 1e-8 or 1e-12 thresholds
        rng = np.random.default_rng(100 + n)
        e = np.concatenate([[0.0], (np.arange(n - 1) + 0.5) * 12.0 / (n - 1)])
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        signs[0] = 1.0
        for lam in (10.0 ** -e, signs * 10.0 ** -e):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = (q * lam) @ q.T
            a = 0.5 * (a + a.T)
            self._cross_check(a, monkeypatch)
            assert classify(a).n_zero == int((e > 8.0).sum())

    def test_exactly_degenerate(self, monkeypatch):
        rng = np.random.default_rng(77)
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
        lam = np.array([3.0, 3.0, 3.0, 1.0, 0.0, 0.0, 0.0, -2.0, -2.0])
        x_wide = rng.normal(size=(3, 8))
        b = rng.normal(size=(4, 4))
        cases = [
            ((q * lam) @ q.T, 3),
            (x_wide.T @ x_wide, 5),
            (np.ones((6, 6)), 5),
            (np.eye(5), 0),
            (np.zeros((4, 4)), 4),
            (np.kron(np.eye(3), 0.5 * (b + b.T)), 0),
        ]
        for a, n_zero in cases:
            a = 0.5 * (a + a.T)
            self._cross_check(a, monkeypatch)
            assert classify(a).n_zero == n_zero


@pytest.mark.parametrize("call, message", [
    (lambda: check_matrix([1.0, 2.0], "X"),
     "X must be 2-dimensional, got shape (2,)"),
    (lambda: check_matrix(np.zeros((0, 3)), "X"), "X is empty"),
    (lambda: check_matrix([[1.0, np.nan]], "X"), "X has non-finite entries"),
    (lambda: check_vector([], "y"), "y is empty"),
    (lambda: check_vector([1.0, np.inf], "y"), "y has non-finite entries"),
    (lambda: frobenius_norm([[1.0], [np.inf]]),
     "frobenius_norm: non-finite entries"),
    (lambda: symmetric_eig(np.zeros((0, 0))), "A is empty"),
    (lambda: min_norm_least_squares([[1.0, 2.0]], [1.0, 2.0]),
     "y has length 2, expected 1"),
    # X is nonzero, but X X^T = 1e-400 underflows to 0
    (lambda: min_norm_least_squares([[1e-200]], [1.0]),
     "X X^T is numerically zero"),
])
def test_linalg_refuses(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
