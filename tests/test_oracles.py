"""Oracle self-checks: the oracles must be right before anything else is.

The logarithmic integral is cross-checked against mpmath, the growth
closed forms against a locally written RK4 integrator, and the SVM
enumeration against hand-solved instances, KKT conditions and the
per-subset loop in svm_oracle.py.
"""

import re

import mpmath
import numpy as np
import pytest

from gradflow import oracles
from gradflow.losses import Dataset
from gradflow.oracles import (
    MAX_SVM_SAMPLES,
    Equilibrium1D,
    MarginSolution,
    NonSeparableError,
    growth_closed_form,
    hard_margin_svm,
    inverse_logarithmic_integral,
    logarithmic_integral,
    nonseparable_equilibrium_1d,
)
from fd_oracles import fd_gradient_check
from svm_oracle import hard_margin_svm_by_subset


def _rk4_growth(k, f_tilde, rho0, t_end, n_steps=40000):
    """Fixed-step RK4 on rhodot = f k rho^(k-1) exp(-rho^k f)."""

    def rhs(rho):
        return f_tilde * k * rho ** (k - 1) * np.exp(-(rho**k) * f_tilde)

    rho = rho0
    h = t_end / n_steps
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def test_svm_antipodal_pair():
    data = Dataset([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0], task="binary")
    sol = hard_margin_svm(data)
    assert np.allclose(sol.w_raw, [1.0, 0.0], atol=1e-10)
    assert sol.margin == pytest.approx(1.0, rel=1e-10)
    assert sol.support_indices == (0, 1)


def test_svm_three_point_instance_hand_solved():
    # constraints: 2w1>=1, 2w2>=1, w1+w2>=1; optimum (0.5, 0.5) with all tight
    data = Dataset(
        [[2.0, 0.0], [0.0, 2.0], [-1.0, -1.0]], [1.0, 1.0, -1.0], task="binary"
    )
    sol = hard_margin_svm(data)
    assert np.allclose(sol.w_raw, [0.5, 0.5], atol=1e-9)
    assert sol.margin == pytest.approx(1.0 / np.sqrt(0.5), rel=1e-9)
    assert sol.support_indices == (0, 1, 2)


def test_svm_single_sample():
    data = Dataset([[3.0, 4.0]], [1.0], task="binary")
    sol = hard_margin_svm(data)
    assert np.allclose(sol.w_raw, [3.0 / 25.0, 4.0 / 25.0], atol=1e-12)
    assert sol.margin == pytest.approx(5.0, rel=1e-12)


def test_svm_feasibility_and_kkt_on_random_separable_sets():
    rng = np.random.default_rng(2718)
    for trial in range(20):
        d = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(3, 12))
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        x = rng.normal(size=(n, d))
        y = np.where(x @ direction >= 0.0, 1.0, -1.0)
        x += 0.3 * direction * y[:, None]  # guarantee a positive margin
        data = Dataset(x, y, task="binary")
        sol = hard_margin_svm(data)
        act = (y[:, None] * x) @ sol.w_raw
        assert act.min() >= 1.0 - 1e-8
        assert sol.support_indices, "an optimum must have tight constraints"
        # KKT: w is a nonnegative combination of tight signed samples
        z = (y[:, None] * x)[list(sol.support_indices)]
        coef, *_ = np.linalg.lstsq(z.T, sol.w_raw, rcond=None)
        assert np.abs(z.T @ coef - sol.w_raw).max() <= 1e-7
        assert coef.min() >= -1e-7
        # no feasible rescaled random direction does better
        for _ in range(50):
            v = rng.normal(size=d)
            margins = (y[:, None] * x) @ v
            if margins.min() <= 1e-12:
                continue
            v_feas = v / margins.min()
            assert v_feas @ v_feas >= sol.w_raw @ sol.w_raw - 1e-9


def _random_separable(rng, n, d):
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    x = rng.normal(size=(n, d))
    y = np.where(x @ direction >= 0.0, 1.0, -1.0)
    x += 0.3 * direction * y[:, None]  # guarantee a positive margin
    return Dataset(x, y, task="binary")


def test_svm_matches_per_subset_loop_on_random_separable_sets():
    rng = np.random.default_rng(1618)
    sizes = []
    for trial in range(200):
        d = 2 + trial % 2
        # the reference makes one eigendecomposition per subset: mostly
        # small sets, and one of each d at the budget
        n = MAX_SVM_SAMPLES if trial in (98, 199) else 1 + trial // 2 % 8
        sizes.append(n)
        data = _random_separable(rng, n, d)
        sol = hard_margin_svm(data)
        ref = hard_margin_svm_by_subset(data)
        assert sol.support_indices == ref.support_indices
        scale = np.abs(ref.w_raw).max()
        assert np.abs(sol.w_raw - ref.w_raw).max() <= 1e-12 * scale
        assert sol.margin == pytest.approx(ref.margin, rel=1e-12, abs=0.0)
    assert max(sizes) == MAX_SVM_SAMPLES


def test_svm_chunked_stack_gives_the_same_answer(monkeypatch):
    # d = 4 at N = 9: sizes up to 5, C(9, 5) = 126 subsets; 50 Gram
    # entries per stack split every size but 1 into chunks
    data = _random_separable(np.random.default_rng(31), 9, 4)
    whole = hard_margin_svm(data)
    monkeypatch.setattr(oracles, "SVM_STACK_ENTRIES", 50)
    chunked = hard_margin_svm(data)
    assert chunked.support_indices == whole.support_indices
    assert np.array_equal(chunked.w_raw, whole.w_raw)
    ref = hard_margin_svm_by_subset(data)
    assert ref.support_indices == whole.support_indices
    assert np.abs(ref.w_raw - whole.w_raw).max() <= 1e-12 * np.abs(
        ref.w_raw).max()


@pytest.mark.parametrize("delta,winner", [
    # {0, 2}'s norm is smaller by 4e-13 relative: a tie, {0, 1} is first
    (4e-13, (1.0, 0.0)),
    # smaller by 1e-10 relative: {0, 2} wins
    (1e-10, (1.0 - 0.5e-10, 0.5e-10)),
])
def test_svm_tie_goes_to_first_subset(delta, winner):
    # {0, 1} solves to w = (1, 0); {0, 2} to about (1 - delta/2, delta/2),
    # which misses point 1 by delta, within FEASIBILITY_SLACK
    x = [[1.0, 1.0], [1.0, -1.0], [1.0 + delta, -1.0 - delta]]
    data = Dataset(x, [1.0, 1.0, 1.0], task="binary")
    sol = hard_margin_svm(data)
    assert np.abs(sol.w_raw - winner).max() <= 1e-15
    ref = hard_margin_svm_by_subset(data)
    assert np.abs(ref.w_raw - winner).max() <= 1e-15


@pytest.mark.parametrize("n,d", [(12, 2), (MAX_SVM_SAMPLES, 3), (2, 3),
                                 (5, 1)])
def test_svm_one_eigendecomposition_per_subset_size(n, d, monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    hard_margin_svm(_random_separable(np.random.default_rng(n + d), n, d))
    assert len(calls) == min(n, d + 1)


def test_svm_rejects_nonseparable():
    # collinear points with opposite labels cannot be split through the origin
    data = Dataset([[1.0, 0.0], [2.0, 0.0]], [1.0, -1.0], task="binary")
    with pytest.raises(NonSeparableError):
        hard_margin_svm(data)


def test_svm_zero_input_is_named_nonseparable():
    # the zero row alone has a zero Gram, which keeps no eigenvalue: w = 0
    data = Dataset([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]], [1.0, 1.0, -1.0],
                   task="binary")
    with pytest.raises(NonSeparableError, match=r"\[1\]") as err:
        hard_margin_svm(data)
    assert err.value.violated_indices == (1,)


def test_svm_budget_guard():
    x = np.ones((21, 2))
    y = np.ones(21)
    with pytest.raises(ValueError, match="N <= 20"):
        hard_margin_svm(Dataset(x, y, task="binary"))


def test_li_frozen_value_and_mpmath_cross_check():
    # frozen value: li(2) = 1.0451637801174927
    val = logarithmic_integral(2.0)
    assert val == pytest.approx(1.0451637801174927, abs=1e-9)
    for z in (1.1, 1.5, 2.0, np.e, 10.0, 123.0, 4.5e4):
        ref = float(mpmath.li(z))
        assert logarithmic_integral(z) == pytest.approx(ref, rel=1e-8)


def test_li_monotone_and_inverse_round_trip():
    assert logarithmic_integral(np.e) > logarithmic_integral(2.0)
    z = inverse_logarithmic_integral(logarithmic_integral(5.0))
    assert z == pytest.approx(5.0, rel=1e-8)
    with pytest.raises(ValueError, match="z > 1"):
        logarithmic_integral(1.0)


# li's zero on z > 1; within ~1e-3 of it li is below 1e-3 in size and only
# an absolute tolerance is meaningful
SOLDNER_MU = 1.451369234883381


def test_li_series_matches_mpmath_on_log_grid():
    with mpmath.workdps(40):
        for z in 1.0 + np.geomspace(1e-9, 1e6, 400):
            ref = mpmath.li(mpmath.mpf(float(z)))
            err = float(abs(mpmath.mpf(logarithmic_integral(z)) - ref))
            if abs(z - SOLDNER_MU) < 1e-3:
                assert err <= 1e-15, z
            else:
                assert err <= 1e-12 * float(abs(ref)), z
        for z in (SOLDNER_MU, np.nextafter(SOLDNER_MU, 2.0),
                  np.nextafter(SOLDNER_MU, 1.0), SOLDNER_MU + 5e-4):
            ref = mpmath.li(mpmath.mpf(float(z)))
            assert float(abs(mpmath.mpf(logarithmic_integral(z)) - ref)) <= 1e-15


def test_inverse_li_round_trips_and_keeps_its_errors():
    for z in 1.0 + np.geomspace(1e-9, 1e6, 200):
        back = inverse_logarithmic_integral(logarithmic_integral(z))
        assert abs(back - z) <= 1e-14 * z, z
    with pytest.raises(ValueError, match="below the representable branch"):
        inverse_logarithmic_integral(-40.0)
    with pytest.raises(ValueError, match="too large to invert"):
        inverse_logarithmic_integral(1e298)


def test_inverse_li_raises_where_newton_does_not_converge(monkeypatch):
    # an li that jumps by 2 across z = 3: every Newton step from either
    # side is a whole log(z), so none is ever small enough to stop
    monkeypatch.setattr(oracles, "logarithmic_integral",
                        lambda z: 5.0 + (1.0 if z >= 3.0 else -1.0))
    with pytest.raises(ValueError, match=r"^li\(z\) = 5\.0 did not converge "
                       r"in 200 Newton steps; its last step was -?\d\.\d{3}e"):
        inverse_logarithmic_integral(5.0)


def test_growth_k1_closed_form():
    rho = growth_closed_form(1, 1.0, 100.0, rho0=0.0)
    assert rho == pytest.approx(np.log(101.0), rel=1e-12)
    assert rho == pytest.approx(4.61512, abs=5e-6)


def test_growth_k1_general_margin_matches_rk4():
    for f_tilde in (0.5, 2.0):
        closed = growth_closed_form(1, f_tilde, 50.0, rho0=0.2)
        rk4 = _rk4_growth(1, f_tilde, 0.2, 50.0)
        assert closed == pytest.approx(rk4, rel=1e-6)


def test_growth_k2_matches_rk4_over_time_range():
    for t_end in (1.0, 10.0, 100.0, 1e4):
        closed = growth_closed_form(2, 1.0, t_end, rho0=0.1)
        rk4 = _rk4_growth(2, 1.0, 0.1, t_end)
        assert closed == pytest.approx(rk4, rel=1e-3)


def test_growth_k2_orders_relative_to_log_t():
    # the product of scales outruns log t in the additive sense (the excess
    # rho^2 - log t keeps growing; the ratio decays to 1 from above), while
    # a single layer lags log t outright
    for t_small, t_big in ((1e2, 1e3), (1e3, 1e4)):
        rho_s = growth_closed_form(2, 1.0, t_small, rho0=0.1)
        rho_b = growth_closed_form(2, 1.0, t_big, rho0=0.1)
        assert rho_b**2 - np.log(t_big) > rho_s**2 - np.log(t_small)
        assert rho_b**2 > np.log(t_big)
        assert rho_b < np.log(t_big)
        assert rho_b / np.log(t_big) < rho_s / np.log(t_small)


def test_growth_rejects_depths_without_closed_form():
    with pytest.raises(ValueError, match="numerically"):
        growth_closed_form(3, 1.0, 10.0, rho0=0.1)
    with pytest.raises(ValueError, match="rho0 > 0"):
        growth_closed_form(2, 1.0, 10.0, rho0=0.0)


def test_equilibrium_1d_closed_form_examples():
    eq = nonseparable_equilibrium_1d(1.0, 2.0)
    assert eq.w_star == pytest.approx(np.log(2.0) / 3.0, abs=1e-12)
    assert eq.w_star == pytest.approx(0.2310491, abs=5e-8)
    assert eq.f_prime < 0.0
    eq2 = nonseparable_equilibrium_1d(1.0, np.e)
    assert eq2.w_star == pytest.approx(1.0 / (1.0 + np.e), abs=1e-12)


def test_equilibrium_1d_random_pairs_match_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(20):
        x1 = float(rng.uniform(0.05, 3.0))
        x2 = float(x1 + rng.uniform(0.05, 3.0))
        eq = nonseparable_equilibrium_1d(x1, x2)
        assert eq.w_star == pytest.approx(
            np.log(x2 / x1) / (x1 + x2), abs=1e-12
        )
        assert eq.f_prime == pytest.approx(
            -x1**2 * np.exp(x1 * eq.w_star) - x2**2 * np.exp(-x2 * eq.w_star)
        )
        assert eq.f_prime < 0.0


def test_equilibrium_1d_rejects_bad_order():
    with pytest.raises(ValueError, match="x1 < x2"):
        nonseparable_equilibrium_1d(2.0, 1.0)


def test_fd_check_quadratic_is_exact():
    a = np.diag([2.0, 3.0, 4.0])

    def f(w):
        return 0.5 * w @ a @ w

    w0 = np.array([1.0, -2.0, 0.5])
    err = fd_gradient_check(f, a @ w0, w0)
    assert err <= 1e-10


def test_fd_check_detects_corrupted_entry():
    a = np.diag([2.0, 3.0, 4.0])

    def f(w):
        return 0.5 * w @ a @ w

    w0 = np.array([1.0, -2.0, 0.5])
    g = a @ w0
    g[np.abs(g).argmax()] *= 1.01
    assert fd_gradient_check(f, g, w0) >= 1e-3


def test_fd_check_rejects_non_finite():
    def f(w):
        return float("nan")

    with pytest.raises(ValueError, match="non-finite"):
        fd_gradient_check(f, np.zeros(2), np.zeros(2))


def test_margin_solution_invariants():
    data = Dataset([[2.0, 1.0], [-1.0, -2.0]], [1.0, -1.0], task="binary")
    sol = hard_margin_svm(data)
    assert isinstance(sol, MarginSolution)
    assert np.linalg.norm(sol.w_tilde) == pytest.approx(1.0, rel=1e-12)
    assert ((data.labels[:, None] * data.inputs) @ sol.w_raw).min() >= 1 - 1e-9


@pytest.mark.parametrize("call, error, message", [
    (lambda: hard_margin_svm(Dataset([[1.0], [2.0]], [0.5, 1.5],
                                     task="regression")),
     ValueError, "hard_margin_svm needs binary -1/+1 labels"),
    (lambda: growth_closed_form(1, 0.0, 1.0), ValueError,
     "growth needs a positive margin value f_tilde"),
    (lambda: growth_closed_form(2, 1.0, -1.0, rho0=0.5), ValueError,
     "time must be nonnegative"),
    # the rest point sits near w = 2.6e9, past the bracket's 1e6 cap
    (lambda: nonseparable_equilibrium_1d(1e-10, 1e-9), RuntimeError,
     "bisection bracket failed to close"),
])
def test_oracles_refuse(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
