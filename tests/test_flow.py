"""Integrator tests.

Oracles: the 1D closed form w(t) = log(t + e^{w(0)}) for the single-sample
exponential flow, an in-test RK4 integrator run at a fraction of the Euler
step, a direct numpy gradient-descent loop for the exact propagator, the
subset-enumeration SVM solver, bisection for 1D regularized equilibria, a
plain-numpy normalized step of a one-layer linear net, and a plain-numpy
loss-rescaled exponential loop that run_flows must match bit for bit.
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gradflow import flow, losses, network
from gradflow.flow import (
    LOSS_EXPLOSION_FACTOR,
    LOSS_FLOOR,
    MAX_HALVINGS,
    RECONVERGE_TOL,
    FlowState,
    LinearSquareGD,
    PerturbationProtocol,
    StopRule,
    TraceRefs,
    TrajectoryTrace,
    _draw_perturbation,
    growth_numeric_trace,
    run_flows,
    stacked_perturb_and_reconverge,
    write_trace_csv,
)
from gradflow.linalg import min_norm_least_squares
from gradflow.losses import (EXP_CLAMP, Dataset, _loss_terms,
                             classification_error, loss, mean_squared_error,
                             separability_margin)
from gradflow.network import (DeepNet, batch_forward, flatten_params,
                              normalize_layers, random_net)
from gradflow.oracles import growth_closed_form, hard_margin_svm
from row_oracle import _row, member_net


def _linear_net(w):
    return DeepNet((np.atleast_2d(np.asarray(w, float)).copy(),), activation="linear")


SEP_X = np.array([[2.0, 0.3], [1.5, -0.4], [-1.0, 2.0], [-2.0, -0.5]])
SEP_Y = np.array([1.0, 1.0, -1.0, -1.0])
SEP = Dataset(SEP_X, SEP_Y)
RIDGE_X = np.array([[1.0, 0.2], [0.8, -0.1], [-1.0, 0.1], [-0.9, -0.3]])


class TestFlowStep:
    def test_matches_1d_closed_form(self):
        # e^w dw = dt integrates to w(t) = log(t + e^{w0})
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        state = run_flows([FlowState(net=_linear_net([0.0]), step=1e-3)],
                          "exponential", data, StopRule(max_steps=100_000),
                          sample_every=10**9)[0].final_state
        expect = np.log(state.time + 1.0)
        got = state.net.layers[0][0, 0]
        assert abs(got - expect) / expect <= 1e-3

    def test_tracks_rk4_reference(self):
        # same vector field integrated by 4th-order RK at a 50x finer step;
        # the field is the closed-form descent direction of the linear
        # exponential loss, sum_n y_n x_n exp(-y_n w.x_n), in plain numpy
        rng = np.random.default_rng(7)
        w0 = rng.normal(size=2) * 0.3
        data = SEP
        h, t_end = 1e-3, 2.0

        def rhs(w):
            return (SEP_Y * np.exp(-SEP_Y * (SEP_X @ w))) @ SEP_X

        w = w0.copy()
        fine = h / 50.0
        for _ in range(int(t_end / fine)):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * fine * k1)
            k3 = rhs(w + 0.5 * fine * k2)
            k4 = rhs(w + fine * k3)
            w = w + fine / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        state = FlowState(net=_linear_net(w0), step=h)
        trace = run_flows([state], "exponential", data,
                          StopRule(max_time=t_end), sample_every=10**9)[0]
        got = trace.final_state.net.layers[0][0]
        assert np.abs(got - w).max() <= 5e-3

    def test_explosion_guard_names_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(rng.normal(size=3)), step=50.0)
        with pytest.raises(ValueError, match="step"):
            run_flows([state], "square", data, StopRule(max_steps=1))[0]

    def test_state_validation(self):
        with pytest.raises(ValueError, match="step"):
            FlowState(net=_linear_net([1.0]), step=0.0)
        with pytest.raises(ValueError, match="lambdas"):
            FlowState(net=_linear_net([1.0]), step=0.1, lambdas=(0.1, 0.2))
        with pytest.raises(ValueError, match="nonneg"):
            FlowState(net=_linear_net([1.0]), step=0.1, lambdas=(-0.1,))


class TestRunFlow:
    def test_loss_monotone_without_ridge(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 4))
        y = np.sign(x @ np.array([1.0, -0.5, 0.2, 0.8]))
        data = Dataset(x, y)
        state = FlowState(net=_linear_net(rng.normal(size=4) * 0.1), step=0.02)
        trace = run_flows([state], "logistic", data, StopRule(max_steps=4000),
                          sample_every=50)[0]
        diffs = np.diff([row.loss for row in trace.rows])
        assert np.all(diffs <= 1e-12)

    def test_stop_rule_loss_below(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        y = rng.normal(size=5)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(np.zeros(6)), step=0.02)
        trace = run_flows([state], "square", data,
                          StopRule(max_steps=100_000, loss_below=1e-10))[0]
        assert trace.converged and trace.stop_reason == "loss_below"
        assert trace.rows[-1].loss <= 1e-10

    def test_budget_exhausted_is_flagged(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        y = rng.normal(size=5)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(np.zeros(6)), step=1e-4)
        trace = run_flows([state], "square", data,
                          StopRule(max_steps=10, loss_below=1e-12))[0]
        assert not trace.converged
        assert trace.stop_reason == "max_steps"

    def test_square_loss_minimum_norm_limit(self):
        # zero init converges to the pseudo-inverse solution, no null part
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 12))
        y = rng.normal(size=6)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(np.zeros(12)), step=0.01)
        trace = run_flows([state], "square", data,
                          StopRule(max_steps=500_000,
                                   grad_norm_below=1e-13))[0]
        w = trace.final_state.net.layers[0][0]
        w_star = min_norm_least_squares(x, y)
        assert np.abs(w - w_star).max() <= 1e-6
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        null_part = vt[6:] @ w
        assert np.sqrt(null_part @ null_part) <= 1e-6

    def test_null_space_component_is_invariant(self):
        # components orthogonal to the data row space never move
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 10))
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        null_basis = vt[5:]
        w0 = rng.normal(size=10)
        c0 = null_basis @ w0
        for kind, data in [
            ("square", Dataset(x, rng.normal(size=5), task="regression")),
            ("exponential", Dataset(x, np.sign(rng.normal(size=5)))),
        ]:
            state = FlowState(net=_linear_net(w0), step=1e-3)
            trace = run_flows([state], kind, data, StopRule(max_steps=10_000),
                              sample_every=10**9)[0]
            c = null_basis @ trace.final_state.net.layers[0][0]
            assert np.abs(c - c0).max() <= 1e-8

    def test_rescaled_exponential_reaches_max_margin(self):
        svm = hard_margin_svm(SEP)
        rng = np.random.default_rng(21)
        for _ in range(3):
            w0 = rng.normal(size=2) * 0.5
            state = FlowState(net=_linear_net(w0), step=0.05)
            trace = run_flows([state], "exponential", SEP,
                              StopRule(max_time=1e40, max_steps=400_000),
                              stepping="loss_rescaled", sample_every=10**9)[0]
            w = trace.final_state.net.layers[0][0]
            cos = (w @ svm.w_tilde) / np.sqrt(w @ w)
            assert cos >= 0.999

    def test_direction_stall_stop(self):
        state = FlowState(net=_linear_net([0.4, 0.1]), step=0.05)
        trace = run_flows([state], "exponential", SEP,
                          StopRule(max_time=1e300, max_steps=2_000_000,
                                   direction_angle_below=1e-5),
                          stepping="loss_rescaled", sample_every=10**9)[0]
        assert trace.converged and trace.stop_reason == "direction_stalled"

    @pytest.mark.parametrize("lam, step", [(1.0, 0.45), (1.0, 0.3),
                                           (0.5, 0.5)])
    def test_ridge_steps_lower_the_objective(self, lam, step):
        # from a tiny loss the ridge step shrinks the weights, which raises
        # L past the explosion factor; the ridge objective still falls, so
        # the step is no explosion
        data = Dataset(RIDGE_X, SEP_Y)
        state = FlowState(net=_linear_net([20.0, 0.0]), step=step,
                          lambdas=(lam,))
        trace = run_flows([state], "exponential", data,
                          StopRule(max_steps=200), sample_every=1)[0]
        assert trace.stop_reason == "max_steps"
        assert trace.rows[1].loss > LOSS_EXPLOSION_FACTOR * trace.rows[0].loss
        objective = [row.loss + lam * row.norms[0] ** 2 for row in trace.rows]
        # it falls to its equilibrium, where it moves by rounding only
        assert objective[-1] < 0.02 * objective[0]
        assert np.all(np.diff(objective) <= 1e-12)

    def test_regularized_run_satisfies_equilibrium_condition(self):
        # 1D: equilibrium solves e^{-w} = 2 lam w; bisection is the oracle
        lam = 0.05
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        state = FlowState(net=_linear_net([0.0]), step=0.05, lambdas=(lam,))
        trace = run_flows([state], "exponential", data,
                          StopRule(max_steps=400_000,
                                   grad_norm_below=1e-12))[0]
        assert trace.converged
        w = trace.final_state.net.layers[0][0, 0]
        assert abs(np.exp(-w) - 2.0 * lam * w) <= 1e-6
        lo, hi = 0.0, 100.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.exp(-mid) - 2.0 * lam * mid > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(w - lo) <= 1e-6


def _reference_rescaled_flow(w0, x, y, step, n_steps, sample_every):
    """Loss-rescaled exponential flow of R one-layer linear nets (R, 1, d)
    on per-member data x (R, N, d), y (R, N), in plain numpy: the
    operations of run_flows in its order, so every bit should agree.
    Returns per member (rows, final weights (1, d), time, floored steps,
    give-ups), then the number of member-steps halved."""
    r_count = len(w0)
    cols, neg_y = x.mT, -y

    def evaluate(w):
        u = neg_y * (w @ cols)[:, 0, :]
        if (u > EXP_CLAMP).any():
            u = np.minimum(u, EXP_CLAMP)
        e = np.exp(u)
        return e.sum(axis=-1), (neg_y * e)[:, None, :] @ x

    def row(r):
        f = (w[r] @ x[r].T)[0]
        train_error = float(np.mean(y[r] * f <= 0.0))
        norm = float(np.sqrt((w[r] * w[r]).sum()))
        return [float(t[r]), float(value[r]), train_error, None, norm, None,
                None, None, 0]

    w = np.array(w0, dtype=float)
    t = np.zeros(r_count)
    floored = np.zeros(r_count, dtype=int)
    giveups = np.zeros(r_count, dtype=int)
    halved = 0
    rows = [[] for _ in range(r_count)]
    value, grad = evaluate(w)
    for it in range(n_steps):
        if it % sample_every == 0:
            for r in range(r_count):
                rows[r].append(row(r))
        floored += value < LOSS_FLOOR
        dt = step / np.maximum(value, LOSS_FLOOR)
        for halvings in range(MAX_HALVINGS + 1):
            trial = w - dt[:, None, None] * grad
            assert np.isfinite(trial).all()
            trial_value, trial_grad = evaluate(trial)
            rising = trial_value > value
            if not rising.any():
                break
            if halvings == MAX_HALVINGS:
                giveups += rising
                break
            dt[rising] *= 0.5
            halved += int(rising.sum())
        w, value, grad = trial, trial_value, trial_grad
        t += dt
    for r in range(r_count):
        if rows[r][-1][0] != float(t[r]):
            rows[r].append(row(r))
    return [(rows[r], w[r], float(t[r]), int(floored[r]), int(giveups[r]))
            for r in range(r_count)], halved


def _reference_ridge_flow(w0, lams, steps, x, y, n_steps, grad_norm_below,
                          sample_every):
    """Fixed-step square-loss flow of R one-layer linear nets (R, 1, d),
    member r with ridge strength lams[r] and step steps[r], on shared
    regression data x (N, d), y (N,), each stopped by grad_norm_below or
    after n_steps, in plain numpy: the operations of run_flows in its
    order, so every bit should agree. Returns per member (rows, final
    weights (1, d), time, stop reason). A step whose ridge objective
    L + lam ||W||^2 jumps by more than LOSS_EXPLOSION_FACTOR raises the
    refusal that run_flows gives."""
    cols = x.T
    w = np.array(w0, dtype=float)
    lams = np.asarray(lams, dtype=float)
    steps = np.asarray(steps, dtype=float)
    r_count = len(w)
    t = np.zeros(r_count)
    rows = [[] for _ in range(r_count)]
    reasons = [None] * r_count

    def evaluate(w, lam):
        f = (w @ cols)[:, 0, :]
        grad = (2.0 * (f - y))[:, None, :] @ x
        return (((y - f) ** 2).sum(axis=-1),
                grad + (2.0 * lam)[:, None, None] * w)

    def row(r):
        f = (w[r] @ cols)[0]
        return [float(t[r]), float(value[r]), float(np.mean((y - f) ** 2)),
                None, float(np.sqrt((w[r] * w[r]).sum())), None, None, None,
                0]

    live = np.arange(r_count)
    value, grad = evaluate(w, lams)
    for it in range(n_steps + 1):
        if it % sample_every == 0:
            for r in live:
                rows[r].append(row(r))
        norm = np.sqrt((grad[live] * grad[live]).sum(axis=(1, 2)))
        for r, small in zip(live, norm <= grad_norm_below):
            if small or it == n_steps:
                reasons[r] = "grad_norm_below" if small else "max_steps"
                if rows[r][-1][0] != float(t[r]):
                    rows[r].append(row(r))
        live = np.array([r for r in live if reasons[r] is None], dtype=int)
        if not len(live):
            break
        lam = lams[live]
        trial = w[live] - steps[live, None, None] * grad[live]
        trial_value, trial_grad = evaluate(trial, lam)
        before = value[live] + lam * (w[live] * w[live]).sum(axis=(1, 2))
        after = trial_value + lam * (trial * trial).sum(axis=(1, 2))
        for i, r in enumerate(live):
            if after[i] > LOSS_EXPLOSION_FACTOR * max(before[i], 1e-300):
                raise ValueError(
                    f"flow {r}: loss exploded {before[i]:.3e} -> "
                    f"{after[i]:.3e}; reduce step below {steps[r]:.3e}")
        w[live], value[live], grad[live] = trial, trial_value, trial_grad
        t[live] += steps[live]
    return [(rows[r], w[r], float(t[r]), reasons[r]) for r in range(r_count)]


class TestPlainNumpyReference:
    """run_flows against a plain numpy loop of the same operations, bit
    for bit: a trim of the step's fixed cost must move no output."""

    def test_rescaled_exponential_stack_is_the_plain_loop(self):
        # two blob datasets, five starts on each. At step 4 the flows on
        # the tight, separable blobs run onto the loss floor, where their
        # steps are counted as floored; those on the overlapping blobs
        # overshoot and halve.
        rng = np.random.default_rng(5)
        datasets = []
        for center, std in (([1.0, 0.7], 0.1), ([0.4, -1.0], 0.8)):
            x = np.vstack([rng.normal(size=(6, 2)) * std + center,
                           rng.normal(size=(6, 2)) * std - center])
            datasets.append(Dataset(x, np.repeat([1.0, -1.0], 6)))
        members = [datasets[r // 5] for r in range(10)]
        w0 = 0.5 * rng.normal(size=(10, 1, 2))
        states = [FlowState(net=_linear_net(w), step=4.0) for w in w0]
        traces = run_flows(states, "exponential", members,
                           StopRule(max_steps=700), sample_every=100,
                           stepping="loss_rescaled")
        want, halved = _reference_rescaled_flow(
            w0, np.stack([d.inputs for d in members]),
            np.stack([d.labels for d in members]), 4.0, 700, 100)
        for trace, (rows, w, t, floored, giveups) in zip(traces, want,
                                                          strict=True):
            assert [repr(r) for r in trace.csv_rows()] == [repr(r)
                                                          for r in rows]
            assert np.array_equal(_bits(trace.final_state.net.layers[0]),
                                  _bits(w))
            assert repr(trace.final_state.time) == repr(t)
            assert trace.counts["floored_steps"] == floored
            assert trace.counts["backtrack_giveups"] == giveups
        assert all(tr.counts["floored_steps"] > 0 for tr in traces[:5])
        assert halved > 0

    RIDGE_LAMBDAS = [(), (0.01,), (0.5,)] * 2

    def _ridge_stack(self, steps):
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(6, 3)), rng.normal(size=6),
                       task="regression")
        w0 = rng.normal(size=(6, 1, 3))
        states = [FlowState(net=_linear_net(w), step=step, lambdas=lams)
                  for w, step, lams in zip(w0, steps, self.RIDGE_LAMBDAS,
                                           strict=True)]
        lams = [sum(lams) for lams in self.RIDGE_LAMBDAS]
        return states, data, (w0, lams, steps, data.inputs, data.labels)

    def test_fixed_ridge_stack_is_the_plain_loop(self):
        # the members reach the gradient-norm target at different
        # iterations, so the stack drops them one by one and each drop
        # slices the per-entry ridge strengths
        states, data, args = self._ridge_stack([0.02] * 6)
        traces = run_flows(states, "square", data,
                           StopRule(max_steps=300, grad_norm_below=1e-8),
                           sample_every=50)
        want = _reference_ridge_flow(*args, 300, 1e-8, 50)
        for trace, (rows, w, t, reason) in zip(traces, want, strict=True):
            assert trace.stop_reason == reason == "grad_norm_below"
            assert [repr(r) for r in trace.csv_rows()] == [repr(r)
                                                          for r in rows]
            assert np.array_equal(_bits(trace.final_state.net.layers[0]),
                                  _bits(w))
            assert repr(trace.final_state.time) == repr(t)
        assert len({tr.final_state.time for tr in traces}) == 6

    def test_ridge_member_whose_step_explodes_is_refused(self):
        # at step 0.1 the square loss's top curvature, about 42 plus
        # 2 lam = 1, makes the ridge objective of flow 2 grow about 11-fold
        # per step once that mode leads
        states, data, args = self._ridge_stack([0.02, 0.02, 0.1] + [0.02] * 3)
        with pytest.raises(ValueError) as want:
            _reference_ridge_flow(*args, 300, 1e-8, 50)
        assert str(want.value).startswith("flow 2: loss exploded")
        with pytest.raises(ValueError) as got:
            run_flows(states, "square", data,
                      StopRule(max_steps=300, grad_norm_below=1e-8),
                      sample_every=50)
        assert str(got.value) == str(want.value)


class TestSharedStep:
    """run_flows' Euler step: a run cut into chunks is bitwise one run, a
    non-finite step raises and a backtracking give-up is counted, never
    absorbed."""

    ONE = Dataset(np.array([[1.0]]), np.array([0.0]), task="regression")

    @pytest.mark.parametrize("stepping", ["fixed", "loss_rescaled"])
    def test_non_finite_step_raises(self, stepping):
        # loss 1, gradient 2: a step of 1e308 overflows the weight
        state = FlowState(net=_linear_net([1.0]), step=1e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                      match="non-finite"):
            run_flows([state], "square", self.ONE, StopRule(max_steps=5),
                      stepping=stepping)[0]

    def test_finite_weights_whose_sum_overflows_take_their_step(self):
        # zero inputs give a zero gradient: the weights stay at 1e308,
        # finite although their sum is not
        zero = Dataset(np.zeros((2, 2)), np.array([0.5, -0.5]),
                       task="regression")
        start = np.array([[1e308, 1e308]])
        state = FlowState(net=_linear_net(start), step=0.1)
        with np.errstate(over="ignore"):  # the trace's norm overflows
            trace = run_flows([state], "square", zero,
                              StopRule(max_steps=3))[0]
        assert trace.stop_reason == "max_steps"
        assert np.array_equal(trace.final_state.net.layers[0], start)

    def test_nan_step_raises_naming_the_member(self):
        # inf - inf in flow 1's output makes its gradient and trial NaN
        data = Dataset(np.array([[10.0, -10.0]]), np.array([0.0]),
                       task="regression")
        states = [FlowState(net=_linear_net(w), step=0.1)
                  for w in ([0.1, 0.2], [1e308, 1e308], [0.3, 0.1])]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="^flow 1: non-finite weights"):
            run_flows(states, "square", data, StopRule(max_steps=5))

    @pytest.mark.parametrize("exponents, warns", [
        ([800.0, 1.0], True),
        ([np.nan, 1.0], False),
        ([np.nan, 800.0], True),
    ])
    def test_exp_clamp_warning(self, exponents, warns):
        # the exponential loss of output f at label -1 has exponent f
        terms = _loss_terms("exponential", np.array([-1.0, -1.0]))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            terms(np.array([exponents]))
        clamped = [w for w in rec if "exponent clamped" in str(w.message)]
        assert len(clamped) == warns

    @pytest.mark.parametrize("kind", ["square", "exponential", "logistic"])
    def test_scalar_loss_rejects_multi_row_net(self, kind):
        state = FlowState(net=DeepNet((np.eye(2),), activation="linear"),
                          step=0.01)
        with pytest.raises(ValueError, match="single output row, got 2"):
            run_flows([state], kind, SEP, StopRule(max_steps=1))[0]

    @pytest.mark.parametrize("n_steps", [1, 5, 25])
    @pytest.mark.parametrize("kind, net, data, lambdas", [
        ("exponential", _linear_net([0.3, -0.2]), SEP, ()),
        ("logistic", None, SEP, (0.01, 0.02)),
        ("softmax_cross_entropy", None, None, ()),
    ])
    def test_chunked_run_flow_is_bitwise_one_run_flow(self, kind, net, data,
                                                      lambdas, n_steps):
        rng = np.random.default_rng(8)
        if kind == "logistic":
            net = DeepNet((rng.normal(size=(5, 2)), rng.normal(size=(1, 5))),
                          activation="smoothed_relu")
        if kind == "softmax_cross_entropy":
            net = DeepNet((rng.normal(size=(4, 2)), rng.normal(size=(3, 4))),
                          activation="relu")
            data = Dataset(SEP_X, np.array([0, 1, 2, 1]), task="multiclass")
        start = FlowState(net=net, step=0.01, lambdas=lambdas)
        state = start
        for _ in range(25 // n_steps):
            state = run_flows([state], kind, data,
                              StopRule(max_steps=n_steps))[0].final_state
        trace = run_flows([start], kind, data, StopRule(max_steps=25))[0]
        final = trace.final_state
        assert final.time == state.time
        for a, b in zip(final.net.layers, state.net.layers):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("kind", ["square", "exponential", "logistic",
                                      "softmax_cross_entropy"])
    def test_final_row_is_bitwise_a_fresh_evaluation(self, kind):
        # stacked_perturb_and_reconverge reads its cycle-boundary loss and
        # training error off run_flows' last row instead of evaluating them
        # again
        rng = np.random.default_rng(12)
        out_dim, labels, task = 1, SEP_Y, "binary"
        if kind == "square":
            labels, task = rng.normal(size=4), "regression"
        if kind == "softmax_cross_entropy":
            out_dim, labels, task = 3, np.array([0, 1, 2, 1]), "multiclass"
        data = Dataset(SEP_X, labels, task=task)
        net = DeepNet((0.5 * rng.normal(size=(5, 2)),
                       0.5 * rng.normal(size=(out_dim, 5))),
                      activation="smoothed_relu")
        for n in range(1, 30):
            trace = run_flows([FlowState(net=net, step=0.01)], kind, data,
                              StopRule(max_steps=n), sample_every=n)[0]
            final = trace.final_state.net
            assert trace.rows[-1].loss == loss(kind, final, data)
            fresh = (mean_squared_error(final, data) if task == "regression"
                     else classification_error(final, data))
            assert trace.rows[-1].train_error == fresh

    def test_run_flows_final_states_are_bitwise_run_flow(self):
        rng = np.random.default_rng(10)
        states = [FlowState(net=random_net(rng, (2, 5, 1), scale=0.7,
                                           activation="smoothed_relu"),
                            step=st, time=t0, lambdas=lams)
                  for st, t0, lams in ((0.05, 0.0, ()), (0.02, 1.5, ()),
                                       (0.05, 0.0, (0.01, 0.03)))]
        stop = StopRule(max_steps=40)
        stacked = run_flows(states, "logistic", SEP, stop)
        for state, trace in zip(states, stacked, strict=True):
            got = trace.final_state
            want = run_flows([state], "logistic", SEP, stop)[0].final_state
            assert repr(got.time) == repr(want.time)
            assert got.lambdas == state.lambdas
            for a, b in zip(got.net.layers, want.net.layers, strict=True):
                assert np.array_equal(_bits(a), _bits(b))

    def test_backtrack_giveup_is_counted(self):
        # loss (1 - 2 dt)^2 rises for every dt > 1; from dt = 1e15 even
        # MAX_HALVINGS halvings leave dt near 900, so the step is a give-up
        state = FlowState(net=_linear_net([1.0]), step=1e15)
        trace = run_flows([state], "square", self.ONE, StopRule(max_steps=1),
                          stepping="loss_rescaled")[0]
        assert trace.counts["backtrack_giveups"] == 1
        assert trace.rows[-1].loss > trace.rows[0].loss
        calm = run_flows([FlowState(net=_linear_net([0.3, -0.2]), step=0.05)],
                         "exponential", SEP, StopRule(max_steps=2000),
                         stepping="loss_rescaled")[0]
        assert calm.counts["backtrack_giveups"] == 0


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_same_trace(got, want):
    """Bitwise the same run: every row, the stop, the counts and the
    final point."""
    assert repr(got.rows) == repr(want.rows)
    assert (got.converged, got.stop_reason) == (want.converged,
                                                want.stop_reason)
    assert got.counts == want.counts
    _assert_same_state(got.final_state, want.final_state)


def _assert_same_state(got, want):
    assert repr(got.time) == repr(want.time)
    assert [repr(r) for r in got.rhos] == [repr(r) for r in want.rhos]
    for a, b in zip(got.net.layers, want.net.layers, strict=True):
        assert np.array_equal(_bits(a), _bits(b))


def _blob_sets(count, n=6, seed=0):
    """Overlapping blob pairs: on them large loss-rescaled steps overshoot
    and halve."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        x = np.vstack([rng.normal(size=(n, 2)) * 0.8 + [1.0, 0.6],
                       rng.normal(size=(n, 2)) * 0.8 - [1.0, 0.6]])
        sets.append(Dataset(x, np.repeat([1.0, -1.0], n)))
    return sets


class TestRunFlows:
    """A stack of R flows is bitwise R stacks of one."""

    def _assert_stack_is_stacks_of_one(self, states, kind, datasets, stop,
                                       **kwargs):
        stacked = run_flows(states, kind, datasets, stop, **kwargs)
        each = datasets if isinstance(datasets, list) else [datasets] * len(
            states)
        assert len(stacked) == len(states)
        for state, data, got in zip(states, each, stacked):
            _assert_same_trace(got, run_flows([state], kind, data, stop,
                                              **kwargs)[0])
        return stacked

    def _halved_steps(self, states, traces):
        """Per member, the iterations whose dt was halved; needs rows every
        step: a dt of at most half step/loss is a halved step."""
        return [tuple(np.flatnonzero(
            np.diff([row.time for row in tr.rows])
            < 0.75 * st.step / np.array([row.loss for row in tr.rows[:-1]])))
            for st, tr in zip(states, traces)]

    def test_rescaled_exponential_with_halvings_per_member_data(self):
        rng = np.random.default_rng(3)
        datasets = _blob_sets(4)
        states = [FlowState(net=_linear_net(rng.normal(size=2)), step=st)
                  for st in (0.05, 3.0, 8.0, 20.0)]
        traces = self._assert_stack_is_stacks_of_one(
            states, "exponential", datasets, StopRule(max_steps=60),
            sample_every=1, stepping="loss_rescaled")
        halved = self._halved_steps(states, traces)
        assert not halved[0] and not halved[1]
        # the two large steps halve, at different iterations
        assert halved[2] and halved[3]
        assert halved[2] != halved[3]

    def test_kink_member_among_halving_members(self):
        # member 0 keeps an all-zero hidden row (its relu subgradient is 0),
        # so every point it takes sits on the kink; its small step is taken
        # in the first round of each step where others halve, and its kink
        # counts once per step, not once per round
        rng = np.random.default_rng(7)
        nets = [DeepNet((rng.normal(size=(3, 2)), rng.normal(size=(1, 3))),
                        activation="relu") for _ in range(4)]
        nets[0] = nets[0].with_layers(
            (nets[0].layers[0] * [[1.0], [1.0], [0.0]], nets[0].layers[1]))
        states = [FlowState(net=net, step=st)
                  for net, st in zip(nets, (0.05, 1.0, 3.0, 8.0))]
        traces = self._assert_stack_is_stacks_of_one(
            states, "exponential", _blob_sets(4, seed=1),
            StopRule(max_steps=40), sample_every=1, stepping="loss_rescaled")
        assert [tr.counts["kink_events"] for tr in traces] == [41, 0, 0, 0]
        halved = self._halved_steps(states, traces)
        assert not halved[0] and halved[1] and halved[3]
        assert halved[1] != halved[3]

    def test_fixed_logistic_smoothed_relu_shared_data(self):
        rng = np.random.default_rng(4)
        states = [FlowState(net=random_net(rng, (2, 64, 1),
                                           activation="smoothed_relu",
                                           scale=0.7), step=0.05)
                  for _ in range(3)]
        self._assert_stack_is_stacks_of_one(
            states, "logistic", SEP, StopRule(max_steps=200),
            sample_every=7, refs=TraceRefs(test_data=Dataset(SEP_X + 0.2,
                                                             SEP_Y)))

    def test_square_grad_norm_stop(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(3, 6)), rng.normal(size=3),
                       task="regression")
        states = [FlowState(net=_linear_net(rng.normal(size=6) * scale),
                            step=0.02, lambdas=lams)
                  for scale, lams in ((0.0, ()), (1.0, ()), (3.0, (0.01,)))]
        traces = self._assert_stack_is_stacks_of_one(
            states, "square", data,
            StopRule(max_steps=100_000, grad_norm_below=1e-9),
            sample_every=500)
        assert all(tr.stop_reason == "grad_norm_below" for tr in traces)
        assert len({tr.final_state.time for tr in traces}) == 3

    @pytest.mark.parametrize("stepping", ["fixed", "loss_rescaled"])
    def test_members_stop_at_different_iterations(self, stepping):
        states = [FlowState(net=_linear_net([0.3, -0.2]), step=st, time=t0)
                  for st, t0 in ((0.01, 0.0), (0.03, 0.5), (0.02, 0.0))]
        traces = self._assert_stack_is_stacks_of_one(
            states, "exponential", SEP, StopRule(max_time=2.0),
            sample_every=10, stepping=stepping)
        assert all(tr.stop_reason == "max_time" for tr in traces)
        assert len({len(tr.rows) for tr in traces}) == 3

    def test_one_members_non_finite_step_raises(self):
        one = Dataset(np.array([[1.0]]), np.array([0.0]), task="regression")
        states = [FlowState(net=_linear_net([1.0]), step=st)
                  for st in (0.1, 1e308, 0.1)]
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="flow 1: non-finite"):
            run_flows(states, "square", one, StopRule(max_steps=5))

    def test_stopped_member_takes_no_step(self):
        # the second flow is below the loss target from the start; one
        # step of its size would blow the loss up to inf and raise
        one = Dataset(np.array([[1.0]]), np.array([1.0]), task="regression")
        states = [FlowState(net=_linear_net([0.0]), step=0.1),
                  FlowState(net=_linear_net([1.001]), step=1e308)]
        stop = StopRule(max_steps=10, loss_below=1e-5)
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                      match="loss exploded"):
            run_flows([states[1]], "square", one,
                      replace(stop, loss_below=None))
        traces = run_flows(states, "square", one, stop)
        assert [tr.stop_reason for tr in traces] == ["max_steps",
                                                     "loss_below"]
        assert traces[1].final_state.net.layers[0][0, 0] == 1.001
        _assert_same_trace(traces[0], run_flows([states[0]], "square", one,
                                                stop)[0])

    def test_giveup_counted_on_its_member_only(self):
        # see TestSharedStep.test_backtrack_giveup_is_counted
        one = TestSharedStep.ONE
        states = [FlowState(net=_linear_net([1.0]), step=st)
                  for st in (0.05, 1e15, 0.05)]
        stop = StopRule(max_steps=3)
        traces = run_flows(states, "square", one, stop,
                           stepping="loss_rescaled")
        assert [tr.counts["backtrack_giveups"] for tr in traces] == [0, 1, 0]
        for state, got in zip(states, traces):
            _assert_same_trace(got, run_flows([state], "square", one, stop,
                                              stepping="loss_rescaled")[0])

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "10"])
    def test_sample_every_must_be_a_positive_integer(self, bad):
        state = FlowState(net=_linear_net([1.0]), step=0.1)
        with pytest.raises(ValueError, match="sample_every"):
            run_flows([state], "square", TestSharedStep.ONE,
                      StopRule(max_steps=3), sample_every=bad)[0]


class TestGradientBuffers:
    """No run_flows evaluation allocates a gradient: every backward pass
    writes into views of one of the stack's two flat gradient buffers."""

    def _run_watched(self, monkeypatch, run):
        """run() with the stack's binds, steps and backward passes
        recorded: (gradient buffers bound last, out) per backward pass,
        and the number of binds and of steps."""
        bound, calls, steps = [], [], []
        bind, step = flow._Euler._bind, flow._Euler.step

        def watched_bind(euler, *args):
            bind(euler, *args)
            bound.append((euler.grad, euler._trial_grad))

        def watched_step(euler, *args):
            steps.append(1)
            return step(euler, *args)

        def watch(module):
            real = module.batch_backprop

            def backprop(net, acts, derivs, out_delta, layers=None,
                         out=None):
                calls.append((bound[-1], out))
                return real(net, acts, derivs, out_delta, layers, out)

            monkeypatch.setattr(module, "batch_backprop", backprop)

        monkeypatch.setattr(flow._Euler, "_bind", watched_bind)
        monkeypatch.setattr(flow._Euler, "step", watched_step)
        watch(losses)  # every plain evaluation, through _terms_and_gradient
        watch(flow)  # a normalized stack's direction()
        run()
        for buffers, out in calls:
            assert out is not None
            base = out[0].base
            assert any(base is b for b in buffers)
            assert all(view.base is base for view in out)
        return calls, len(bound), len(steps)

    def test_rescaled_stack_with_halvings_and_a_keep(self, monkeypatch):
        # the first member reaches max_time first and leaves the stack;
        # the others halve most of their steps
        rng = np.random.default_rng(0)
        states = [FlowState(net=DeepNet((rng.normal(size=(3, 2)),
                                         rng.normal(size=(1, 3))),
                                        activation="linear"), step=st)
                  for st in (0.05, 3.0, 8.0)]
        calls, binds, steps = self._run_watched(monkeypatch, lambda: run_flows(
            states, "exponential", _blob_sets(3), StopRule(
                max_time=40.0, max_steps=60), stepping="loss_rescaled"))
        # a halved step evaluates its trial point more than once
        assert len(calls) > steps + 1
        assert binds > 1

    def test_ridge_stack_whose_members_stop_apart(self, monkeypatch):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(3, 6)), rng.normal(size=3),
                       task="regression")
        states = [FlowState(net=_linear_net(rng.normal(size=6) * scale),
                            step=0.02, lambdas=lams)
                  for scale, lams in ((1.0, ()), (3.0, (0.01,)),
                                      (1.0, (0.5,)))]
        calls, binds, steps = self._run_watched(monkeypatch, lambda: run_flows(
            states, "square", data, StopRule(max_steps=20_000,
                                             grad_norm_below=1e-9)))
        assert len(calls) == steps + 1
        assert binds == 3

    def test_normalized_stack_with_a_keep(self, monkeypatch):
        net = _pretrained_two_layer(3, steps=300)
        states = [_normalized_state(net, step) for step in (0.01, 0.05)]
        calls, binds, steps = self._run_watched(monkeypatch, lambda: run_flows(
            states, "exponential", SEP, StopRule(max_time=2.0),
            stepping="loss_rescaled"))
        assert calls and binds == 2


class TestLinearSquareGD:
    def test_matches_naive_gd_loop(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(6, 9))
        y = rng.normal(size=6)
        step = 0.02
        w = rng.normal(size=9)
        gd = LinearSquareGD(x, y, step)
        w_naive = w.copy()
        for _ in range(1234):
            w_naive = w_naive - step * 2.0 * (x.T @ (x @ w_naive - y))
        w_fast = gd.propagate(w, 1234)
        assert np.abs(w_fast - w_naive).max() <= 1e-9

    @pytest.mark.parametrize("reps", [1, 2, 5, 29])
    def test_stack_rows_are_single_propagations_bit_for_bit(self, reps):
        # the sine scenario's design, starts at its noise scale
        x = np.cos((2.0 * np.arange(1, 10) - 1.0) * np.pi / 18.0)
        gd = LinearSquareGD(np.vander(x, 40, increasing=True),
                            np.sin(8.0 * np.pi * x), 0.2 / 9)
        w0 = np.random.default_rng(reps).normal(0.0, 0.45, size=(reps, 40))
        stacked = gd.propagate(w0, 120_000)
        assert stacked.shape == (reps, 40)
        each = np.array([gd.propagate(w, 120_000) for w in w0])
        assert np.array_equal(stacked.view(np.uint64), each.view(np.uint64))

    def test_null_modes_pass_through(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(4, 8))
        y = rng.normal(size=4)
        gd = LinearSquareGD(x, y, 0.01)
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        w0 = rng.normal(size=8)
        w_t = gd.propagate(w0, 10_000_000)
        c0 = vt[4:] @ w0
        c_t = vt[4:] @ w_t
        assert np.abs(c_t - c0).max() <= 1e-9

    def test_min_norm_and_null_basis_from_one_decomposition(self):
        # the sine scenario's design: degree 39 on 9 Chebyshev nodes
        x = np.cos((2.0 * np.arange(1, 10) - 1.0) * np.pi / 18.0)
        design = np.vander(x, 40, increasing=True)
        y = np.sin(8.0 * np.pi * x)
        gd = LinearSquareGD(design, y, 0.01)
        w = gd.w_min_norm
        norm = np.sqrt(w @ w)
        assert gd.null_basis.shape == (40, 31)
        assert np.sqrt(((gd.null_basis.T @ w) ** 2).sum()) <= 1e-14 * norm
        w_ref = min_norm_least_squares(design, y)
        assert np.sqrt(((w - w_ref) ** 2).sum()) <= 1e-12 * norm

    def test_stability_flag(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(5, 5))
        y = rng.normal(size=5)
        assert LinearSquareGD(x, y, 1e-4).stable
        assert not LinearSquareGD(x, y, 1e3).stable


def _protocol_by_run_flow_chunks(state, protocol, kind, data, refs):
    """The one-state protocol built from run_flows: a stack of one per
    re-convergence chunk, sampled only at its ends, whose last row is the
    cycle boundary; the same _draw_perturbation call, one per perturbation.
    Returns the trace (its counts not kept) and the final net."""
    net, t = state.net, state.time
    stop_after = protocol.interval * protocol.repetitions
    total = stop_after + protocol.interval
    rng = np.random.default_rng(state.rng_seed)
    trace = TrajectoryTrace(layer_count=net.depth)
    trace.rows.append(_row(refs, net, data, t, loss(kind, net, data)))
    pert_count = done = 0
    while done < total:
        chunk = min(protocol.interval, total - done)
        inner = run_flows([replace(state, net=net, time=t)], kind, data,
                          StopRule(max_steps=chunk), sample_every=chunk)[0]
        net, t = inner.final_state.net, inner.final_state.time
        done += chunk
        row = _row(refs, net, data, t, inner.rows[-1].loss)
        if data.task == "regression":
            ok = row.loss <= RECONVERGE_TOL
        else:
            ok = row.train_error == 0.0
        trace.rows.append(row._replace(perturbation_count=pert_count,
                                       flag="" if ok else "not_reconverged"))
        if done <= stop_after and pert_count < protocol.repetitions \
                and done < total:
            deltas = _draw_perturbation(rng, net.layers, protocol)
            net = net.with_layers([w + d for w, d in zip(net.layers, deltas)])
            pert_count += 1
    return trace, net


class TestPerturbationProtocol:
    def _setup(self, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 8))
        y = x @ rng.normal(size=8)
        data = Dataset(x, y, task="regression")
        w0 = min_norm_least_squares(x, y)
        state = FlowState(net=_linear_net(w0), step=0.01, rng_seed=77)
        return x, data, state

    def test_counts_and_schedule(self):
        _, data, state = self._setup()
        proto = PerturbationProtocol(noise_std=0.05, interval=3000, repetitions=3)
        trace = stacked_perturb_and_reconverge([state], proto, "square",
                                               data)[0]
        assert trace.rows[-1].perturbation_count == 3
        assert trace.converged
        assert all(row.flag == "" for row in trace.rows)

    def test_nullspace_walk_grows(self):
        # the start is the min-norm interpolant, which has no null-space
        # part; the perturbations leave one that re-convergence keeps
        x, data, state = self._setup()
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        proto = PerturbationProtocol(noise_std=0.05, interval=3000, repetitions=4)
        trace = stacked_perturb_and_reconverge([state], proto, "square",
                                               data)[0]
        walks = [np.sqrt(((vt[4:] @ s.net.layers[0][0]) ** 2).sum())
                 for s in (state, trace.final_state)]
        assert walks[0] <= 1e-10
        assert walks[-1] > 0.01
        assert all(row.nullspace_norm is None for row in trace.rows)

    def _assert_matches_run_flow_chunks(self, state, proto, kind, data,
                                        refs):
        trace = stacked_perturb_and_reconverge([state], proto, kind, data,
                                               refs=refs)[0]
        ref, ref_net = _protocol_by_run_flow_chunks(state, proto, kind, data,
                                                    refs)
        assert len(trace.rows) == proto.repetitions + 2
        for got, want in zip(trace.rows, ref.rows, strict=True):
            assert repr(got) == repr(want)
        for got, want in zip(trace.final_state.net.layers, ref_net.layers):
            assert repr(got.tolist()) == repr(want.tolist())

    def test_rows_bitwise_run_flow_chunks_logistic(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, (2, 8, 1), activation="smoothed_relu", scale=0.7)
        pre = run_flows([FlowState(net=net, step=0.05)], "logistic", SEP,
                        StopRule(max_steps=1500), sample_every=1500)[0]
        assert pre.rows[-1].train_error == 0.0
        state = replace(pre.final_state, rng_seed=31)
        test = Dataset(SEP_X + 0.3, SEP_Y)
        proto = PerturbationProtocol(noise_std=0.25, interval=150,
                                     repetitions=3)
        self._assert_matches_run_flow_chunks(state, proto, "logistic", SEP,
                                             TraceRefs(test_data=test))

    def test_rows_bitwise_run_flow_chunks_square_null_basis(self):
        # the rows carry the margin cosine; the null-space part is read
        # off the start and final states
        x, data, state = self._setup()
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        refs = TraceRefs(reference_direction=vt[0])
        proto = PerturbationProtocol(noise_std=0.05, interval=400,
                                     repetitions=3)
        self._assert_matches_run_flow_chunks(state, proto, "square", data,
                                             refs)
        final = stacked_perturb_and_reconverge([state], proto, "square",
                                               data)[0].final_state
        walks = [np.sqrt(((vt[4:] @ s.net.layers[0][0]) ** 2).sum())
                 for s in (state, final)]
        assert walks[0] <= 1e-10 < walks[1]

    def test_kinks_during_reconvergence_are_counted(self):
        # f(x) = relu(x1) - relu(-x1) separates SEP; the third hidden row is
        # zero, so its pre-activation sits on the kink at every step until
        # the one perturbation moves it
        net = DeepNet(([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                       [[1.0, -1.0, 0.0]]), activation="relu")
        state = FlowState(net=net, step=0.01, rng_seed=3)
        proto = PerturbationProtocol(noise_std=0.1, interval=40,
                                     repetitions=1)
        trace = stacked_perturb_and_reconverge([state], proto,
                                               "exponential", SEP)[0]
        assert trace.rows[-1].perturbation_count == 1
        assert trace.counts["kink_events"] >= proto.interval

    def test_budget_too_small_flags_but_continues(self):
        _, data, state = self._setup()
        proto = PerturbationProtocol(noise_std=2.0, interval=2, repetitions=3)
        trace = stacked_perturb_and_reconverge([state], proto, "square",
                                               data)[0]
        assert any(row.flag == "not_reconverged" for row in trace.rows)
        assert trace.converged  # the schedule itself completed

    def test_rejects_non_interpolating_start(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 8))
        y = x @ rng.normal(size=8)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(rng.normal(size=8)), step=0.01)
        with pytest.raises(ValueError, match="interpolating"):
            stacked_perturb_and_reconverge(
                [state],
                PerturbationProtocol(noise_std=0.1, interval=10, repetitions=1),
                "square",
                data,
            )

    def test_relative_mode_scales_with_layer_spread(self):
        big = [np.full((2, 2), 0.0) + np.diag([100.0, -100.0])]
        small = [np.diag([0.01, -0.01])]
        proto = PerturbationProtocol(noise_std=0.1, interval=1, repetitions=1)
        d_big = _draw_perturbation(np.random.default_rng(2), big, proto)[0]
        d_small = _draw_perturbation(np.random.default_rng(2), small, proto)[0]
        ratio = np.abs(d_big).sum() / np.abs(d_small).sum()
        assert abs(ratio - 10_000.0) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationProtocol(noise_std=0.0, interval=1, repetitions=1)
        with pytest.raises(ValueError):
            PerturbationProtocol(noise_std=1.0, interval=0, repetitions=1)


@pytest.mark.parametrize("field, value", [
    ("repetitions", 2.5), ("repetitions", True), ("repetitions", 0),
    ("interval", 10.0), ("interval", "10"), ("interval", False),
])
def test_protocol_counts_must_be_integers(field, value):
    # the schedule iterates over both counts, so a fraction is refused
    counts = {"interval": 10, "repetitions": 2, field: value}
    with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
        PerturbationProtocol(noise_std=0.1, **counts)


class TestStackedProtocol:
    """A protocol stack of R states is bitwise R stacks of one: rows,
    flags, kinks, time and final point, each member with its own
    perturbation stream."""

    def _assert_stack_is_stacks_of_one(self, states, proto, kind, data,
                                       **kwargs):
        stacked = stacked_perturb_and_reconverge(states, proto, kind, data,
                                                 **kwargs)
        assert len(stacked) == len(states)
        for state, got in zip(states, stacked):
            _assert_same_trace(got, stacked_perturb_and_reconverge(
                [state], proto, kind, data, **kwargs)[0])
        return stacked

    @pytest.fixture(scope="class")
    def smoothed_relu_run(self):
        """Three smoothed-relu nets pretrained to zero error on SEP, a
        protocol, test refs, and two controls: the first pretrained state
        and a fresh net that misclassifies part of SEP."""
        rng = np.random.default_rng(12)
        starts = [FlowState(net=random_net(rng, (2, 8, 1), scale=0.7,
                                           activation="smoothed_relu"),
                            step=st, rng_seed=seed)
                  for st, seed in ((0.05, 31), (0.04, 32), (0.05, 33))]
        states = [tr.final_state for tr in run_flows(
            starts, "logistic", SEP, StopRule(max_steps=1500),
            sample_every=1500)]
        assert all(classification_error(s.net, SEP) == 0.0 for s in states)
        proto = PerturbationProtocol(noise_std=0.25, interval=150,
                                     repetitions=3)
        refs = TraceRefs(test_data=Dataset(SEP_X + 0.3, SEP_Y))
        fresh = FlowState(net=DeepNet(([[0.0, 1.0]] * 8, [[0.2] * 8]),
                                      activation="smoothed_relu"),
                          step=0.03, rng_seed=34)
        assert classification_error(fresh.net, SEP) > 0.0
        return states, proto, refs, [states[0], fresh]

    def test_smoothed_relu_logistic_members(self, smoothed_relu_run):
        states, proto, refs, _ = smoothed_relu_run
        traces = self._assert_stack_is_stacks_of_one(
            states, proto, "logistic", SEP, refs=refs)
        assert all(tr.rows[-1].perturbation_count == 3 for tr in traces)
        # each member draws its own noise
        assert len({tr.rows[-1].norms for tr in traces}) == 3

    def test_controls_leave_perturbed_members_bitwise(self,
                                                      smoothed_relu_run):
        states, proto, refs, controls = smoothed_relu_run
        traces = stacked_perturb_and_reconverge(
            states, proto, "logistic", SEP, refs=refs, controls=controls)
        assert len(traces) == len(states) + len(controls)
        for state, got in zip(states, traces):
            _assert_same_trace(got, stacked_perturb_and_reconverge(
                [state], proto, "logistic", SEP, refs=refs)[0])

    def test_control_is_one_unbroken_flow(self, smoothed_relu_run):
        # a control flows interval * (repetitions + 1) steps in chunks of
        # interval, which is bitwise one flow of that many steps; it
        # has the start row plus one row per cycle end, never a flag
        states, proto, refs, controls = smoothed_relu_run
        traces = stacked_perturb_and_reconverge(
            states, proto, "logistic", SEP, refs=refs, controls=controls)
        horizon = proto.interval * (proto.repetitions + 1)
        for control, got in zip(controls, traces[len(states):],
                                strict=True):
            want = run_flows([control], "logistic", SEP,
                             StopRule(max_steps=horizon),
                             sample_every=horizon, refs=refs)[0]
            assert len(got.rows) == proto.repetitions + 2
            assert [row.flag for row in got.rows] == [""] * len(got.rows)
            assert [row.perturbation_count for row in got.rows] == [
                0] * len(got.rows)
            assert got.rows[0].norms == want.rows[0].norms
            assert repr(got.rows[-1]) == repr(want.rows[-1])
            assert got.counts == want.counts
            assert repr(got.final_state.time) == repr(want.final_state.time)
            for a, b in zip(got.final_state.net.layers,
                            want.final_state.net.layers, strict=True):
                assert np.array_equal(_bits(a), _bits(b))
        # the fresh control starts at nonzero training error
        assert traces[-1].rows[0].train_error > 0.0

    def test_relu_members_whose_draws_hit_the_kink(self):
        # the origin is an input, so every pre-activation column there is
        # exactly zero: every step and every perturbation draw sits on the
        # kink, and each perturbation is applied as drawn. Labels are the
        # teacher's own outputs, and the rescaled twins (factors 2 and 1/2
        # are exact) fit them exactly too, so every start has loss 0.
        rng = np.random.default_rng(6)
        x = np.vstack([np.zeros((1, 2)), rng.normal(size=(4, 2))])
        teacher = random_net(rng, (2, 6, 1), activation="relu")
        data = Dataset(x, batch_forward(teacher, x)[0][0], task="regression")
        w1, w2 = teacher.layers
        nets = [teacher, teacher.with_layers((2.0 * w1, 0.5 * w2)),
                teacher.with_layers((0.5 * w1, 2.0 * w2))]
        states = [FlowState(net=net, step=0.002, rng_seed=40 + r)
                  for r, net in enumerate(nets)]
        proto = PerturbationProtocol(noise_std=0.02, interval=30,
                                     repetitions=2)
        traces = self._assert_stack_is_stacks_of_one(states, proto, "square",
                                                     data)
        # 3 chunks of 30 steps plus their first evaluation; a perturbed
        # point is counted once, as its chunk's first evaluation
        assert [tr.counts["kink_events"] for tr in traces] == [3 * 31] * 3

    def test_kinks_stay_with_their_member(self):
        # both nets compute relu(x1) - relu(-x1), which separates SEP; the
        # first one's all-zero third row sits on the kink at every step
        # until its perturbation moves it, the second one's never does
        rows = ([1.0, 0.0], [-1.0, 0.0])
        states = [FlowState(net=DeepNet((rows + (third,), [[1.0, -1.0, 0.0]]),
                                        activation="relu"),
                            step=0.01, rng_seed=3)
                  for third in ([0.0, 0.0], [0.3, 0.2])]
        proto = PerturbationProtocol(noise_std=0.1, interval=40,
                                     repetitions=1)
        traces = self._assert_stack_is_stacks_of_one(states, proto,
                                                     "exponential", SEP)
        assert traces[0].counts["kink_events"] >= proto.interval
        assert traces[1].counts["kink_events"] == 0

    def test_square_members_one_not_reconverged(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 8))
        data = Dataset(x, x @ rng.normal(size=8), task="regression")
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        w0 = min_norm_least_squares(x, data.labels)
        # the third member's step is too small to re-converge in a cycle
        states = [FlowState(net=_linear_net(w0), step=st, rng_seed=seed)
                  for st, seed in ((0.01, 77), (0.02, 78), (1e-5, 79))]
        proto = PerturbationProtocol(noise_std=0.05, interval=400,
                                     repetitions=3)
        traces = self._assert_stack_is_stacks_of_one(
            states, proto, "square", data,
            refs=TraceRefs(reference_direction=vt[0]))
        assert not any(row.flag for tr in traces[:2] for row in tr.rows)
        assert "not_reconverged" in [row.flag for row in traces[2].rows]

    def test_member_at_nonzero_training_error_is_refused_by_name(self):
        good = FlowState(net=_linear_net([1.0, 0.0]), step=0.01)
        bad = FlowState(net=_linear_net([-1.0, 0.0]), step=0.01)
        proto = PerturbationProtocol(noise_std=0.1, interval=10,
                                     repetitions=1)
        with pytest.raises(ValueError, match="flow 1: start the protocol "
                                             "at zero training error"):
            stacked_perturb_and_reconverge([good, bad, good], proto,
                                           "exponential", SEP)

    def test_perturbed_member_refused_beside_controls(self):
        # a control may start misclassifying; a perturbed member may not
        good = FlowState(net=_linear_net([1.0, 0.0]), step=0.01)
        bad = FlowState(net=_linear_net([-1.0, 0.0]), step=0.01)
        proto = PerturbationProtocol(noise_std=0.1, interval=10,
                                     repetitions=1)
        traces = stacked_perturb_and_reconverge([good], proto, "exponential",
                                                SEP, controls=[bad])
        assert traces[1].rows[0].train_error > 0.0
        assert [row.flag for row in traces[1].rows] == ["", "", ""]
        with pytest.raises(ValueError, match="flow 1: start the protocol "
                                             "at zero training error"):
            stacked_perturb_and_reconverge([good, bad], proto, "exponential",
                                           SEP, controls=[good])

    def test_starts_are_checked_before_any_noise_is_drawn(self, monkeypatch):
        # member 0 starts fine; member 1 is refused before member 0 draws
        def no_draw(*args):
            raise AssertionError("a perturbation was drawn")

        monkeypatch.setattr("gradflow.flow._draw_perturbation", no_draw)
        good = FlowState(net=_linear_net([1.0, 0.0]), step=0.01)
        bad = FlowState(net=_linear_net([-1.0, 0.0]), step=0.01)
        proto = PerturbationProtocol(noise_std=0.1, interval=10,
                                     repetitions=1)
        with pytest.raises(ValueError, match="flow 1: start the protocol "
                                             "at zero training error"):
            stacked_perturb_and_reconverge([good, bad], proto, "exponential",
                                           SEP)


def _pretrained_two_layer(seed, steps=3000):
    rng = np.random.default_rng(seed)
    net = DeepNet(
        (rng.normal(size=(3, 2)) * 0.5, rng.normal(size=(1, 3)) * 0.5),
        activation="linear",
    )
    state = FlowState(net=net, step=1e-2)
    trace = run_flows([state], "exponential", SEP, StopRule(max_steps=steps),
                      sample_every=10**9)[0]
    assert separability_margin(trace.final_state.net, SEP) > 0.0
    return trace.final_state.net


def _normalized_state(net, step):
    """The normalized state of net: unit layers V_k and scales rho_k."""
    rhos, unit = normalize_layers(net)
    return FlowState(net=unit, rhos=tuple(rhos), step=step)


def _assembled(state):
    """A normalized state's net rho_k V_k."""
    return state.net.with_layers(
        [r * v for r, v in zip(state.rhos, state.net.layers)])


def _normalized_flow(state, data, n_steps, stepping="fixed", **kwargs):
    """n_steps of the normalized system by run_flows: its one trace."""
    return run_flows([state], "exponential", data, StopRule(
        max_steps=n_steps, **kwargs), stepping=stepping,
        sample_every=10**9)[0]


def _normalized_step(state, data, stepping="fixed"):
    return _normalized_flow(state, data, 1, stepping).final_state


def _unit_linear_state(w, rho):
    w = np.asarray(w, float)
    return FlowState(net=_linear_net(w / np.sqrt(w @ w)), rhos=(rho,),
                     step=0.05)


def _reference_normalized_step(state, data, clamp, stepping):
    """The normalized step of a one-layer linear net in plain numpy, as
    (V, rho, time). clamp=True weights samples by exp(-min(rho f~, 709)),
    which the loss table's weights must equal bit for bit wherever no
    rho f~ exceeds 709; clamp=False takes the true weights."""
    x, y = data.inputs, data.labels
    v, rho = state.net.layers[0], state.rhos[0]
    f_tilde = y * (v @ x.T)[0]
    u = np.minimum(rho * f_tilde, 709.0) if clamp else rho * f_tilde
    weights = np.exp(-u)
    dt = state.step
    if stepping == "loss_rescaled":
        dt = state.step / (float(weights.sum()) * (1.0 + rho))
    b = ((y * weights)[None, :] * rho) @ x
    lam = 0.5 * float((v * b).sum())
    v_new = v + dt * (b - 2.0 * lam * v)
    rho_new = rho + dt * float((weights * f_tilde).sum())
    return v_new / np.sqrt((v_new * v_new).sum()), rho_new, state.time + dt


def _assert_step_is(got, want):
    v, rho, time = want
    assert np.array_equal(_bits(got.net.layers[0]), _bits(v))
    assert repr(got.rhos[0]) == repr(float(rho))
    assert repr(got.time) == repr(float(time))


class TestNormalizedFlow:
    def test_unit_norm_invariant_and_growing_scales(self):
        net = _pretrained_two_layer(3)
        state = _normalized_state(net, step=1e-2)
        prev = state.rhos
        for _ in range(500):
            state = _normalized_step(state, SEP)
            for v in state.net.layers:
                assert abs(np.sqrt((v * v).sum()) - 1.0) <= 1e-6
            assert all(r > p for r, p in zip(state.rhos, prev))
            prev = state.rhos

    def test_matches_plain_flow_direction(self):
        # same time horizon for both parameterizations, then compare
        net = _pretrained_two_layer(3)
        state = _normalized_state(net, step=0.05)
        state = _normalized_flow(state, SEP, 100_000, "loss_rescaled",
                                 max_time=1e12).final_state
        assembled = _assembled(state)
        w_norm = (assembled.layers[1] @ assembled.layers[0]).ravel()

        plain = run_flows([FlowState(net=net, step=0.05)], "exponential",
                          SEP, StopRule(max_time=state.time,
                                        max_steps=300_000),
                          stepping="loss_rescaled", sample_every=10**9)[0]
        w_plain = plain.final_state.net.layers[1] @ plain.final_state.net.layers[0]
        w_plain = w_plain.ravel()
        cos = (w_plain @ w_norm) / np.sqrt((w_plain @ w_plain) * (w_norm @ w_norm))
        assert cos >= 0.999

    def test_rejects_non_separating_start(self):
        # sign-flipped top layer puts every sample on the wrong side
        net = _pretrained_two_layer(3)
        net = net.with_layers([net.layers[0], -net.layers[1]])
        state = _normalized_state(net, step=0.05)
        with pytest.raises(ValueError, match="separat"):
            _normalized_flow(state, SEP, 50_000)

    @pytest.mark.parametrize("stepping", ["fixed", "loss_rescaled"])
    def test_step_on_sep_is_the_old_formula_bit_for_bit(self, stepping):
        state = _unit_linear_state([1.0, 0.1], 3.0)
        _assert_step_is(_normalized_step(state, SEP, stepping),
                        _reference_normalized_step(state, SEP, clamp=True,
                                                   stepping=stepping))

    def test_sample_past_the_clamp_gets_its_true_weight(self):
        # rho f~ is 680 and 720.8: only the second sample is past 709, and
        # it alone turns V off (1, 0), by dt rho w_2 / 2 with rescaled dt
        data = Dataset(np.array([[1.0, 0.0], [1.06, 0.5]]),
                       np.array([1.0, 1.0]))
        state = _unit_linear_state([1.0, 0.0], 680.0)
        got = _normalized_step(state, data, "loss_rescaled")
        _assert_step_is(got, _reference_normalized_step(
            state, data, clamp=False, stepping="loss_rescaled"))
        turn = got.net.layers[0][0, 1]
        clamped = _reference_normalized_step(state, data, clamp=True,
                                             stepping="loss_rescaled")
        assert 0.0 < 1e3 * turn < clamped[0][0, 1]

    def test_misclassified_sample_past_the_clamp_warns(self):
        data = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]),
                       np.array([1.0, -1.0]))
        state = _unit_linear_state([1.0, 0.0], 800.0)
        with (pytest.warns(RuntimeWarning, match="exponent clamped"),
              pytest.raises(ValueError, match="scale crossed zero")):
            _normalized_step(state, data)

    def test_scales_are_checked_before_the_backward_pass(self):
        # the clamped weight exp(709) would overflow the direction
        # gradient's products; the crossed scale is refused before them
        data = Dataset(np.array([[0.5, 0.0], [1.0, 0.0]]),
                       np.array([1.0, -1.0]))
        state = _unit_linear_state([1.0, 0.0], 800.0)
        with (pytest.warns(RuntimeWarning, match="exponent clamped"),
              np.errstate(all="raise"),
              pytest.raises(ValueError, match="scale crossed zero")):
            _normalized_step(state, data)

    def test_rescaled_step_refuses_an_underflowed_loss(self):
        # every rho f~ is above 745, where exp(-rho f~) rounds to 0
        state = _unit_linear_state([1.0, 0.1], 1000.0)
        v = state.net.layers[0][0]
        assert (1000.0 * SEP.labels * (SEP.inputs @ v)).min() > 745.0
        with pytest.raises(ValueError, match="loss underflowed"):
            _normalized_step(state, SEP, "loss_rescaled")

    def test_state_validation(self):
        net = _pretrained_two_layer(3)
        with pytest.raises(ValueError, match="unit"):
            FlowState(net=net, rhos=(1.0, 1.0), step=0.1)
        state = _normalized_state(net, step=0.1)
        with pytest.raises(ValueError, match="rho"):
            FlowState(net=state.net, rhos=(1.0,), step=0.1)

    def test_stack_of_five_is_five_stacks_of_one(self):
        # the members stop at different steps, so the stack drops some
        states = [_normalized_state(_pretrained_two_layer(seed),
                                    step=0.02 * (seed + 1))
                  for seed in range(5)]
        for stepping, max_time in (("fixed", 15.0), ("loss_rescaled", 1e6)):
            stop = StopRule(max_time=max_time, max_steps=400)
            stacked = run_flows(states, "exponential", SEP, stop,
                                stepping=stepping, sample_every=7)
            for state, got in zip(states, stacked, strict=True):
                _assert_same_trace(got, run_flows(
                    [state], "exponential", SEP, stop, stepping=stepping,
                    sample_every=7)[0])

    def test_chained_calls_are_one_call(self):
        state = _normalized_state(_pretrained_two_layer(1), step=0.05)
        half = _normalized_flow(state, SEP, 120, "loss_rescaled").final_state
        chained = _normalized_flow(half, SEP, 80, "loss_rescaled")
        whole = _normalized_flow(state, SEP, 200, "loss_rescaled")
        assert repr(chained.rows[-1]) == repr(whole.rows[-1])
        _assert_same_state(chained.final_state, whole.final_state)

    def test_norm_rows_are_the_scales(self):
        # each row records rho_k V_k, whose norm is rho_k to rounding; the
        # exact scales come from one-step calls, a chain of which is the run
        state = _normalized_state(_pretrained_two_layer(3), step=0.05)
        trace = run_flows([state], "exponential", SEP, StopRule(max_steps=30),
                          stepping="loss_rescaled", sample_every=1)[0]
        for row in trace.rows:
            assert np.allclose(row.norms, state.rhos, rtol=1e-15, atol=0.0)
            state = _normalized_step(state, SEP, "loss_rescaled")
        assert len(trace.rows) == 31

    @pytest.mark.parametrize("rule, reason", [
        ({"max_steps": 300}, "max_steps"),
        ({"max_time": 1e4}, "max_time"),
        ({"loss_below": 1e-3, "max_steps": 10**5}, "loss_below"),
        ({"grad_norm_below": 1e-3, "max_steps": 10**5}, "grad_norm_below"),
        ({"direction_angle_below": 1e-4, "max_steps": 10**5},
         "direction_stalled"),
    ])
    def test_every_stop_rule_on_a_normalized_stack(self, rule, reason):
        states = [_unit_linear_state(w, 2.0) for w in ([1.0, 0.1],
                                                        [1.0, -0.3])]
        stop = StopRule(**rule)
        stacked = run_flows(states, "exponential", SEP, stop,
                            stepping="loss_rescaled")
        for state, got in zip(states, stacked):
            assert got.stop_reason == reason
            _assert_same_trace(got, run_flows([state], "exponential", SEP,
                                              stop, stepping="loss_rescaled")[0])

    def test_grad_norm_stop_reads_the_whole_direction(self):
        # the direction's norm over V and rho, in plain numpy: above the
        # threshold one step before the stop, at most it at the stop
        def norm(state):
            x, y = SEP.inputs, SEP.labels
            v, rho = state.net.layers[0], state.rhos[0]
            f_tilde = y * (v @ x.T)[0]
            weights = np.exp(-rho * f_tilde)
            b = ((y * weights)[None, :] * rho) @ x
            lam = 0.5 * float((v * b).sum())
            return np.sqrt(((b - 2.0 * lam * v) ** 2).sum()
                           + float((weights * f_tilde).sum()) ** 2)

        state = _unit_linear_state([1.0, 0.1], 2.0)
        trace = run_flows([state], "exponential", SEP, StopRule(
            grad_norm_below=1e-3, max_steps=10**5), stepping="loss_rescaled",
            sample_every=1)[0]
        steps = len(trace.rows) - 1  # a row at the start and every step
        before = _normalized_flow(state, SEP, steps - 1, "loss_rescaled")
        assert norm(trace.final_state) <= 1e-3 * (1.0 + 1e-9)
        assert norm(before.final_state) > 1e-3 * (1.0 - 1e-9)


class TestDirectionFlow:
    """The W-flow of a one-layer linear net under loss-rescaled steps, to
    t = 1e290: short of the loss floor, so every step is step / loss."""

    @pytest.fixture(scope="class")
    def trace(self):
        return run_flows([FlowState(net=_linear_net([1.0, 0.1]), step=0.05)],
                         "exponential", SEP,
                         StopRule(max_time=1e290, max_steps=200_000),
                         stepping="loss_rescaled", sample_every=10**9)[0]

    def test_converges_to_max_margin_direction(self, trace):
        assert trace.counts["floored_steps"] == 0
        svm = hard_margin_svm(SEP)
        w = trace.final_state.net.layers[0].ravel()
        d = w / np.sqrt(w @ w)
        cos = float(d @ svm.w_tilde) / np.sqrt(svm.w_tilde @ svm.w_tilde)
        assert cos >= 0.999

    def test_norm_grows_like_log_time(self, trace):
        assert trace.counts["floored_steps"] == 0
        w = trace.final_state.net.layers[0].ravel()
        r = np.sqrt(w @ w)
        margins = SEP.labels * (SEP.inputs @ (w / r))
        gamma = margins.min()
        t = trace.final_state.time
        assert t > 1e100
        assert abs(r * gamma / np.log(t) - 1.0) <= 0.05

    def test_steps_below_the_loss_floor_are_counted(self):
        # every margin above 745 puts the loss below 1e-300 from the start
        w0 = 1000.0 * np.array([1.0, 0.1])
        assert (SEP.labels * (SEP.inputs @ w0)).min() > 745.0
        trace = run_flows([FlowState(net=_linear_net(w0), step=0.05)],
                          "exponential", SEP, StopRule(max_steps=50),
                          stepping="loss_rescaled", sample_every=1)[0]
        assert trace.stop_reason == "max_steps"
        assert all(row.loss < 1e-300 for row in trace.rows)
        assert trace.counts["floored_steps"] == len(trace.rows) - 1 == 50

class TestGrowthTrace:
    def test_k1_matches_closed_form(self):
        grid = [0.5, 1.0, 10.0, 1e4]
        got = growth_numeric_trace(1, 1.0, 0.0, grid)
        expect = [growth_closed_form(1, 1.0, t) for t in grid]
        assert np.abs(got - np.array(expect)).max() <= 1e-6

    def test_k2_matches_inverse_li_route(self):
        grid = [1.0, 10.0, 100.0, 1e4]
        rho0 = 0.5
        got = growth_numeric_trace(2, 1.0, rho0, grid)
        expect = [growth_closed_form(2, 1.0, t, rho0=rho0) for t in grid]
        rel = np.abs(got - np.array(expect)) / np.array(expect)
        assert rel.max() <= 1e-3

    # frozen as reprs: a change to the integrator must not move a bit
    FROZEN = {
        (1, "below"): ("0.04879016416943199", "0.2623642644674911",
                       "0.6931471805599468"),
        (1, "across"): ("0.4054651081081648", "0.6931471805599468",
                        "1.6094379124340936"),
        (1, "above"): ("0.9162907318741575", "3.0445224377233866",
                       "5.707110264748859"),
        (2, "below"): ("0.5396569879008938", "0.7506348585252639",
                       "1.2457164873866733"),
        (2, "across"): ("0.9163752145936216", "1.2457164873866733",
                        "1.911330092115426"),
        (2, "above"): ("1.4600270809142686", "2.428722796162417",
                       "3.0276230507704"),
        (4, "below"): ("0.525106411963153", "0.7255640410038056",
                       "1.372238607523011"),
        (4, "across"): ("1.0083540251334882", "1.372238607523011",
                        "1.5960155755248782"),
        (4, "above"): ("1.4668082798660658", "1.7207197171923907",
                       "1.8634474462643784"),
    }
    GRIDS = {"below": [0.05, 0.3, 1.0], "across": [0.5, 1.0, 4.0],
             "above": [1.5, 20.0, 300.0]}

    @pytest.mark.parametrize("k, grid", sorted(FROZEN))
    def test_bitwise_frozen_values(self, k, grid):
        got = growth_numeric_trace(k, 1.0, 0.0 if k == 1 else 0.5,
                                   self.GRIDS[grid])
        assert tuple(repr(float(v)) for v in got) == self.FROZEN[k, grid]

    # the growth scenario's horizon, about 11.5k log-time steps
    FROZEN_LONG = {
        1: ("6.908754779315025", "9.210440366976446", "11.512935464920167"),
        2: ("3.245452503157824", "3.6165382896102027", "3.946226125642739"),
        4: ("1.9149029491858687", "2.0012031949837974", "2.076115575261344"),
    }

    @pytest.mark.parametrize("k", sorted(FROZEN_LONG))
    def test_bitwise_frozen_long_grid(self, k):
        got = growth_numeric_trace(k, 1.0, 0.0 if k == 1 else 0.5,
                                   [1e3, 1e4, 1e5])
        assert tuple(repr(float(v)) for v in got) == self.FROZEN_LONG[k]

    # frozen from the numpy-scalar loop, whose exp and power saturate to
    # inf where Python's raise OverflowError
    @pytest.mark.parametrize("k, rho0, expect", [
        (1, -800.0, ("inf",) * 3),  # exp overflows
        (3, -10.0, ("nan",) * 3),  # exp overflows, then inf * 0
        (3, -7.0, ("3.374928964515384e+147",) * 3),  # a power overflows
    ])
    def test_overflow_saturates_bitwise(self, k, rho0, expect):
        with pytest.warns(RuntimeWarning) as caught:
            got = growth_numeric_trace(k, 1.0, rho0, [0.5, 1.0, 10.0])
        assert any("overflow" in str(w.message) for w in caught)
        assert tuple(repr(float(v)) for v in got) == expect

    @pytest.mark.parametrize("k", [0, -1, 2.0, True, "2"])
    def test_depth_must_be_integer_at_least_one(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            growth_numeric_trace(k, 1.0, 0.5, [1.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            growth_numeric_trace(1, 1.0, 0.0, [1.0, 0.5])
        with pytest.raises(ValueError):
            growth_numeric_trace(1, -1.0, 0.0, [1.0])


class TestTraceCsv:
    def test_exact_column_order_and_empty_cells(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=4)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(np.zeros(6)), step=0.02)
        trace = run_flows([state], "square", data, StopRule(max_steps=50),
                          sample_every=10)[0]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, header_comment="cfg=x seed=0")
        lines = path.read_text().split("\n")
        assert lines[0] == "# cfg=x seed=0"
        assert lines[1] == (
            "time,loss,train_error,test_error,norm_l1,"
            "margin_cosine,nullspace_norm,residual_norm,perturbation_count"
        )
        first = lines[2].split(",")
        assert first[3] == "" and first[5] == "" and first[6] == "" and first[7] == ""
        assert first[8] == "0"

    def test_reruns_are_byte_identical(self, tmp_path):
        def produce(path):
            rng = np.random.default_rng(2)
            x = rng.normal(size=(4, 6))
            y = rng.normal(size=4)
            data = Dataset(x, y, task="regression")
            _, _, vt = np.linalg.svd(x, full_matrices=True)
            refs = TraceRefs(reference_direction=vt[0])
            state = FlowState(net=_linear_net(np.zeros(6)), step=0.02,
                              rng_seed=4)
            proto = PerturbationProtocol(noise_std=0.01, interval=500,
                                         repetitions=2)
            state = FlowState(
                net=_linear_net(min_norm_least_squares(x, y)), step=0.02,
                rng_seed=4)
            trace = stacked_perturb_and_reconverge([state], proto, "square",
                                                   data, refs=refs)[0]
            write_trace_csv(trace, path, header_comment="cfg=y seed=4")

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        produce(a)
        produce(b)
        assert a.read_bytes() == b.read_bytes()

    def test_k_layer_norm_columns(self):
        trace = TrajectoryTrace(layer_count=3)
        assert trace.header()[4:7] == ["norm_l1", "norm_l2", "norm_l3"]


def _run_two(nets=None, datasets=SEP, stepping="fixed", refs=None):
    nets = nets or [_linear_net([0.1, 0.2]), _linear_net([0.3, 0.4])]
    states = [FlowState(net=net, step=0.1) for net in nets]
    return run_flows(states, "logistic", datasets, StopRule(max_steps=2),
                     stepping=stepping, refs=refs)


@pytest.mark.parametrize("call, message", [
    (lambda: FlowState(net=_linear_net([0.1, 0.2]), step=0.1, time=-1.0),
     "time must be nonnegative"),
    (lambda: StopRule(loss_below=1e-3),
     "need a budget: max_time or max_steps"),
    (lambda: _run_two(nets=[_linear_net([0.1, 0.2]),
                            DeepNet((np.ones((3, 2)), np.ones((1, 3))))]),
     "stacked flows need nets of one architecture"),
    (lambda: _run_two(nets=[_linear_net([0.1, 0.2]),
                            DeepNet((np.ones((1, 2)),), activation="relu")]),
     "stacked flows need nets of one architecture"),
    (lambda: _run_two(datasets=[SEP, SEP, SEP]), "3 datasets for 2 flows"),
    (lambda: _run_two(stepping="adaptive"), "unknown stepping 'adaptive'"),
    (lambda: _run_two(refs=[TraceRefs()]), "1 refs for 2 flows"),
    # a time or time limit of nan or inf would leave a fixed-step budget
    # of nan steps, which no stop check reaches
    (lambda: FlowState(net=_linear_net([0.1, 0.2]), step=0.1,
                       time=float("nan")), "time must be finite, got nan"),
    (lambda: StopRule(max_time=float("nan")), "max_time must be finite, got nan"),
    (lambda: StopRule(max_time=float("inf"), max_steps=5),
     "max_time must be finite, got inf"),
    # loss-rescaled backtracking reads L alone, so a ridge flow froze on
    # give-ups; it is refused by the field
    (lambda: run_flows([FlowState(net=_linear_net([20.0, 0.0]), step=0.05,
                                  lambdas=(0.1,))],
                       "exponential", Dataset(RIDGE_X, SEP_Y),
                       StopRule(max_steps=2), stepping="loss_rescaled"),
     "lambdas: loss_rescaled steps divide by the loss alone, so they take "
     "no ridge term"),
    # a row's training error follows one rule for the whole stack
    (lambda: run_flows([FlowState(net=_linear_net([0.1, 0.2]), step=0.1)] * 2,
                       "square", [SEP, Dataset(SEP_X, SEP_Y,
                                               task="regression")],
                       StopRule(max_steps=2)),
     "stacked flows need data of one task"),
])
def test_flow_setup_refuses(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


_UNIT = FlowState(net=_linear_net([0.6, 0.8]), rhos=(1.0,), step=0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: _normalized_flow(_UNIT, SEP, 1, stepping="sideways"),
     "unknown stepping 'sideways'"),
    (lambda: FlowState(net=_linear_net([0.6, 0.8]), rhos=(0.0,), step=0.1),
     "rhos must stay positive"),
    (lambda: _normalized_step(replace(_UNIT, net=DeepNet(
        (np.array([[0.6, 0.8]]),), activation="smoothed_relu")), SEP),
     "normalized dynamics needs a homogeneous activation"),
    (lambda: _normalized_step(_UNIT, Dataset(SEP.inputs, np.arange(4.0),
                                             task="regression")),
     "normalized dynamics is stated for binary data"),
    (lambda: run_flows([replace(_UNIT, rhos=()), _UNIT], "exponential", SEP,
                       StopRule(max_steps=1)),
     "a stack cannot mix plain and normalized flows"),
    (lambda: replace(_UNIT, lambdas=(0.1,)),
     "a normalized state takes no lambdas"),
    (lambda: stacked_perturb_and_reconverge(
        [_UNIT], PerturbationProtocol(noise_std=0.1, interval=10,
                                      repetitions=1), "exponential", SEP),
     "the protocol perturbs plain flows only, not normalized ones"),
])
def test_normalized_flow_refuses(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestStackedRows:
    """run_flows makes each row for the whole stack off the evaluation its
    step already made. Every row it appends is checked, by repr, against
    row_oracle's per-member row of the member's own net, data and refs."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Wraps run_flows' row builder; once the test sets "data" to the
        datasets of the run_flows calls, checks and counts their rows."""
        seen = {"data": None, "rows": 0}
        real = flow._sample

        def sample(traces, refs, euler, t, index):
            real(traces, refs, euler, t, index)
            for i in index if seen["data"] is not None else ():
                r = euler.ids[i]
                data = seen["data"]
                data = data if isinstance(data, Dataset) else data[r]
                want = _row(refs[r], member_net(euler, i), data, float(t[i]),
                            float(euler.value[i]))
                assert repr(traces[r].rows[-1]) == repr(want)
                seen["rows"] += 1

        monkeypatch.setattr(flow, "_sample", sample)
        return seen

    @staticmethod
    def _run(checked, states, kind, datasets, refs, **kwargs):
        checked["data"] = datasets
        traces = run_flows(states, kind, datasets, refs=refs, **kwargs)
        assert checked["rows"] == sum(len(tr.rows) for tr in traces)
        # the members stop at different iterations
        assert len({len(tr.rows) for tr in traces}) > 1
        return traces

    @pytest.mark.parametrize("shared", [True, False])
    def test_binary_members_with_mixed_refs(self, checked, shared):
        rng = np.random.default_rng(40)
        other = Dataset(0.7 * SEP_X[::-1], SEP_Y[::-1])
        nets = [random_net(rng, (2, 5, 1), activation="smoothed_relu",
                           scale=0.7) for _ in range(5)]
        direction = rng.normal(size=15)
        test = TraceRefs(test_data=Dataset(SEP_X + 0.3, SEP_Y))
        refs = [test, TraceRefs(reference_direction=direction), None, test,
                TraceRefs(test_data=other, reference_direction=direction)]
        states = [FlowState(net=net, step=step, time=t0) for net, step, t0
                  in zip(nets, (0.05, 0.05, 0.02, 0.1, 0.05),
                         (0.0, 1.0, 0.0, 0.0, 2.5))]
        datasets = SEP if shared else [SEP, other, SEP, other, SEP]
        self._run(checked, states, "logistic", datasets, refs,
                  stop=StopRule(max_time=4.0), sample_every=7)

    def test_loss_rescaled_members_sharing_refs(self, checked):
        rng = np.random.default_rng(41)
        states = [FlowState(net=_linear_net(0.5 * rng.normal(size=2)),
                            step=step) for step in (0.01, 0.02, 0.05)]
        refs = TraceRefs(test_data=Dataset(SEP_X - 0.2, SEP_Y),
                         reference_direction=np.array([1.0, 0.2]))
        self._run(checked, states, "exponential", SEP, refs,
                  stop=StopRule(max_time=1e5, max_steps=500), sample_every=9,
                  stepping="loss_rescaled")

    def test_multiclass_members(self, checked):
        rng = np.random.default_rng(42)
        labels = np.array([0, 1, 2, 1])
        train = [Dataset(SEP_X, labels, task="multiclass"),
                 Dataset(SEP_X[::-1], labels, task="multiclass")]
        test = TraceRefs(test_data=Dataset(SEP_X + 0.4, labels[::-1],
                                           task="multiclass"))
        states = [FlowState(net=random_net(rng, (2, 4, 3), scale=0.6,
                                           activation="relu"), step=step)
                  for step in (0.05, 0.02, 0.1, 0.05)]
        self._run(checked, states, "softmax_cross_entropy",
                  [train[r % 2] for r in range(4)], [test, None, test, test],
                  stop=StopRule(max_time=2.0), sample_every=6)

    def test_regression_members_with_ridge(self, checked):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(6, 3))
        data = Dataset(x, rng.normal(size=6), task="regression")
        test = Dataset(rng.normal(size=(5, 3)), rng.normal(size=5),
                       task="regression")
        states = [FlowState(net=random_net(rng, (3, 4, 1), scale=0.5,
                                           activation="smoothed_relu"),
                            step=0.02, lambdas=lams)
                  for lams in ((), (0.01, 0.02), (), (0.5, 0.0))]
        refs = [TraceRefs(test_data=test,
                          reference_direction=rng.normal(size=16))] * 4
        self._run(checked, states, "square", data, refs,
                  stop=StopRule(max_steps=400, grad_norm_below=0.2),
                  sample_every=25)

    def test_normalized_members(self, checked):
        states = [_normalized_state(_pretrained_two_layer(seed), step)
                  for seed, step in ((3, 0.05), (4, 0.02), (5, 0.1))]
        refs = TraceRefs(test_data=Dataset(SEP_X + 0.2, SEP_Y),
                         reference_direction=np.arange(9.0))
        traces = self._run(checked, states, "exponential", SEP, refs,
                           stop=StopRule(max_time=4.0), sample_every=15)
        assert all(tr.final_state.rhos for tr in traces)

    def test_protocol_members_and_controls(self, checked):
        rng = np.random.default_rng(44)
        pre = run_flows([FlowState(net=random_net(
            rng, (2, 6, 1), activation="smoothed_relu", scale=0.7),
            step=0.05) for _ in range(3)], "logistic", SEP,
            StopRule(max_steps=1500), sample_every=1500)
        states = [replace(tr.final_state, rng_seed=50 + r)
                  for r, tr in enumerate(pre)]
        assert all(tr.rows[-1].train_error == 0.0 for tr in pre)
        checked["data"] = SEP
        proto = PerturbationProtocol(noise_std=0.25, interval=60,
                                     repetitions=2)
        traces = stacked_perturb_and_reconverge(
            states[:2], proto, "logistic", SEP,
            refs=TraceRefs(test_data=Dataset(SEP_X + 0.3, SEP_Y)),
            controls=states[2:])
        # each of the three cycles samples every flow at its two ends
        assert checked["rows"] == 3 * 2 * 3
        assert [len(tr.rows) for tr in traces] == [4] * 3


def test_rows_make_no_per_member_forward_pass(monkeypatch):
    # every net-level forward pass and norm is refused; rows still come,
    # read off the stack's own evaluation
    def refuse(*args, **kwargs):
        raise AssertionError("a per-member pass")

    for module, name in ((losses, "batch_outputs"), (losses, "batch_forward"),
                         (network, "batch_forward"),
                         (flow, "frobenius_norm")):
        monkeypatch.setattr(module, name, refuse)
    refs = TraceRefs(test_data=Dataset(SEP_X + 0.3, SEP_Y),
                     reference_direction=np.array([1.0, 0.0]))
    states = [FlowState(net=_linear_net(w), step=0.01, rng_seed=r)
              for r, w in enumerate(([1.0, 0.0], [0.8, 0.3], [1.0, -0.2]))]
    traces = run_flows(states, "exponential", SEP, StopRule(max_steps=30),
                       sample_every=10, refs=refs)
    assert [len(tr.rows) for tr in traces] == [4] * 3
    assert all(row.test_error is not None for tr in traces for row in tr.rows)
    proto = PerturbationProtocol(noise_std=0.1, interval=10, repetitions=2)
    traces = stacked_perturb_and_reconverge(states[:2], proto, "exponential",
                                            SEP, refs=refs,
                                            controls=states[2:])
    assert [len(tr.rows) for tr in traces] == [4] * 3
    assert all(row.margin_cosine is not None for tr in traces
               for row in tr.rows)
