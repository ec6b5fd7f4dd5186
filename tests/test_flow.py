"""Integrator tests.

Oracles: the 1D closed form w(t) = log(t + e^{w(0)}) for the single-sample
exponential flow, an in-test RK4 integrator run at a fraction of the Euler
step, a direct numpy gradient-descent loop for the exact propagator, the
subset-enumeration SVM solver, and bisection for 1D regularized equilibria.
"""

from dataclasses import replace

import numpy as np
import pytest

from gradflow.flow import (
    DirectionTrace,
    FlowState,
    LinearSquareGD,
    NormalizedFlowState,
    PerturbationProtocol,
    StopRule,
    TraceRefs,
    TrajectoryTrace,
    _draw_perturbation,
    _error_metric,
    _record,
    flow_step,
    growth_numeric_trace,
    normalized_direction_flow,
    normalized_flow_step,
    normalized_state_from_net,
    perturb_and_reconverge,
    run_flow,
    run_normalized_flow,
    write_trace_csv,
)
from gradflow.linalg import min_norm_least_squares
from gradflow.losses import (Dataset, classification_error, loss, loss_gradient,
                             mean_squared_error, separability_margin)
from gradflow.network import DeepNet, batch_forward, flatten_params, random_net
from gradflow.oracles import growth_closed_form, hard_margin_svm


def _linear_net(w):
    return DeepNet((np.atleast_2d(np.asarray(w, float)).copy(),), activation="linear")


SEP_X = np.array([[2.0, 0.3], [1.5, -0.4], [-1.0, 2.0], [-2.0, -0.5]])
SEP_Y = np.array([1.0, 1.0, -1.0, -1.0])
SEP = Dataset(SEP_X, SEP_Y)


class TestFlowStep:
    def test_matches_1d_closed_form(self):
        # e^w dw = dt integrates to w(t) = log(t + e^{w0})
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        state = FlowState(net=_linear_net([0.0]), step=1e-3)
        for _ in range(100_000):
            state = flow_step(state, "exponential", data)
        expect = np.log(state.time + 1.0)
        got = state.net.layers[0][0, 0]
        assert abs(got - expect) / expect <= 1e-3

    def test_tracks_rk4_reference(self):
        # same vector field integrated by 4th-order RK at a 50x finer step
        rng = np.random.default_rng(7)
        w0 = rng.normal(size=2) * 0.3
        data = SEP
        h, t_end = 1e-3, 2.0

        def rhs(w):
            g = loss_gradient("exponential", _linear_net(w), data)[0][0]
            return -g

        w = w0.copy()
        fine = h / 50.0
        for _ in range(int(t_end / fine)):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * fine * k1)
            k3 = rhs(w + 0.5 * fine * k2)
            k4 = rhs(w + fine * k3)
            w = w + fine / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        state = FlowState(net=_linear_net(w0), step=h)
        trace = run_flow(state, "exponential", data, StopRule(max_time=t_end),
                         sample_every=10**9)
        got = trace.final_state.net.layers[0][0]
        assert np.abs(got - w).max() <= 5e-3

    def test_explosion_guard_names_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(rng.normal(size=3)), step=50.0)
        with pytest.raises(ValueError, match="step"):
            flow_step(state, "square", data)

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
        trace = run_flow(state, "logistic", data, StopRule(max_steps=4000),
                         sample_every=50)
        diffs = np.diff(trace.losses)
        assert np.all(diffs <= 1e-12)

    def test_stop_rule_loss_below(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        y = rng.normal(size=5)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(np.zeros(6)), step=0.02)
        trace = run_flow(state, "square", data,
                         StopRule(max_steps=100_000, loss_below=1e-10))
        assert trace.converged and trace.stop_reason == "loss_below"
        assert trace.losses[-1] <= 1e-10

    def test_budget_exhausted_is_flagged(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        y = rng.normal(size=5)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(np.zeros(6)), step=1e-4)
        trace = run_flow(state, "square", data,
                         StopRule(max_steps=10, loss_below=1e-12))
        assert not trace.converged
        assert trace.stop_reason == "max_steps"

    def test_square_loss_minimum_norm_limit(self):
        # zero init converges to the pseudo-inverse solution, no null part
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 12))
        y = rng.normal(size=6)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(np.zeros(12)), step=0.01)
        trace = run_flow(state, "square", data,
                         StopRule(max_steps=500_000, grad_norm_below=1e-13))
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
            trace = run_flow(state, kind, data, StopRule(max_steps=10_000),
                             sample_every=10**9)
            c = null_basis @ trace.final_state.net.layers[0][0]
            assert np.abs(c - c0).max() <= 1e-8

    def test_rescaled_exponential_reaches_max_margin(self):
        svm = hard_margin_svm(SEP)
        rng = np.random.default_rng(21)
        for _ in range(3):
            w0 = rng.normal(size=2) * 0.5
            state = FlowState(net=_linear_net(w0), step=0.05)
            trace = run_flow(state, "exponential", SEP,
                             StopRule(max_time=1e40, max_steps=400_000),
                             stepping="loss_rescaled", sample_every=10**9)
            w = trace.final_state.net.layers[0][0]
            cos = (w @ svm.w_tilde) / np.sqrt(w @ w)
            assert cos >= 0.999

    def test_direction_stall_stop(self):
        state = FlowState(net=_linear_net([0.4, 0.1]), step=0.05)
        trace = run_flow(state, "exponential", SEP,
                         StopRule(max_time=1e300, max_steps=2_000_000,
                                  direction_angle_below=1e-5),
                         stepping="loss_rescaled", sample_every=10**9)
        assert trace.converged and trace.stop_reason == "direction_stalled"

    def test_regularized_run_satisfies_equilibrium_condition(self):
        # 1D: equilibrium solves e^{-w} = 2 lam w; bisection is the oracle
        lam = 0.05
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        state = FlowState(net=_linear_net([0.0]), step=0.05, lambdas=(lam,))
        trace = run_flow(state, "exponential", data,
                         StopRule(max_steps=400_000, grad_norm_below=1e-12))
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


class TestSharedStep:
    """flow_step and run_flow take the same Euler step; a non-finite step
    raises and a backtracking give-up is counted, never absorbed."""

    ONE = Dataset(np.array([[1.0]]), np.array([0.0]), task="regression")

    @pytest.mark.parametrize("stepping", ["fixed", "loss_rescaled"])
    def test_non_finite_step_raises(self, stepping):
        # loss 1, gradient 2: a step of 1e308 overflows the weight
        state = FlowState(net=_linear_net([1.0]), step=1e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                      match="non-finite"):
            run_flow(state, "square", self.ONE, StopRule(max_steps=5),
                     stepping=stepping)

    @pytest.mark.parametrize("kind", ["square", "exponential", "logistic"])
    def test_scalar_loss_rejects_multi_row_net(self, kind):
        state = FlowState(net=DeepNet((np.eye(2),), activation="linear"),
                          step=0.01)
        with pytest.raises(ValueError, match="single output row, got 2"):
            run_flow(state, kind, SEP, StopRule(max_steps=1))

    @pytest.mark.parametrize("n_steps", [1, 5, 25])
    @pytest.mark.parametrize("kind, net, data, lambdas", [
        ("exponential", _linear_net([0.3, -0.2]), SEP, ()),
        ("logistic", None, SEP, (0.01, 0.02)),
        ("softmax_cross_entropy", None, None, ()),
    ])
    def test_iterated_flow_step_is_bitwise_run_flow(self, kind, net, data,
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
            state = flow_step(state, kind, data, n_steps)
        trace = run_flow(start, kind, data, StopRule(max_steps=25))
        final = trace.final_state
        assert final.time == state.time
        for a, b in zip(final.net.layers, state.net.layers):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("kind", ["square", "exponential", "logistic",
                                      "softmax_cross_entropy"])
    def test_final_row_is_bitwise_a_fresh_evaluation(self, kind):
        # perturb_and_reconverge reads its cycle-boundary loss and training
        # error off run_flow's last row instead of evaluating them again
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
            trace = run_flow(FlowState(net=net, step=0.01), kind, data,
                             StopRule(max_steps=n), sample_every=n)
            final = trace.final_state.net
            assert trace.losses[-1] == loss(kind, final, data)
            fresh = (mean_squared_error(final, data) if task == "regression"
                     else classification_error(final, data))
            assert trace.train_errors[-1] == fresh

    def test_backtrack_giveup_is_counted(self):
        # loss (1 - 2 dt)^2 rises for every dt > 1; from dt = 1e15 even
        # MAX_HALVINGS halvings leave dt near 900, so the step is a give-up
        state = FlowState(net=_linear_net([1.0]), step=1e15)
        trace = run_flow(state, "square", self.ONE, StopRule(max_steps=1),
                         stepping="loss_rescaled")
        assert trace.backtrack_giveups == 1
        assert trace.losses[-1] > trace.losses[0]
        calm = run_flow(FlowState(net=_linear_net([0.3, -0.2]), step=0.05),
                        "exponential", SEP, StopRule(max_steps=2000),
                        stepping="loss_rescaled")
        assert calm.backtrack_giveups == 0


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
    """perturb_and_reconverge built from run_flow: one run_flow call per
    re-convergence chunk, sampled only at its ends, whose last row is the
    cycle boundary; the same _draw_perturbation calls and redraw rule.
    Returns the trace (kink_events not counted) and the final net."""
    net, t = state.net, state.time
    stop_after = protocol.interval * protocol.repetitions
    total = stop_after + protocol.interval
    rng = np.random.default_rng(state.rng_seed)
    trace = TrajectoryTrace(layer_count=net.depth)
    _record(trace, refs, net, _error_metric(net, data), t,
            loss(kind, net, data), 0)
    pert_count = done = 0
    while done < total:
        chunk = min(protocol.interval, total - done)
        inner = run_flow(replace(state, net=net, time=t), kind, data,
                         StopRule(max_steps=chunk), sample_every=chunk)
        net, t = inner.final_state.net, inner.final_state.time
        done += chunk
        value, train_error = inner.losses[-1], inner.train_errors[-1]
        if data.task == "regression":
            ok = value <= 1e-6  # perturb_and_reconverge's default tolerance
        else:
            ok = train_error == 0.0
        _record(trace, refs, net, train_error, t, value, pert_count,
                "" if ok else "not_reconverged")
        if done <= stop_after and pert_count < protocol.repetitions \
                and done < total:
            for _ in range(5):
                deltas = _draw_perturbation(rng, net.layers, protocol)
                candidate = net.with_layers(
                    [w + d for w, d in zip(net.layers, deltas)])
                if not batch_forward(candidate, data.inputs)[-1]:
                    break
            net = candidate
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
        trace = perturb_and_reconverge(state, proto, "square", data)
        assert trace.perturbation_counts[-1] == 3
        assert trace.converged
        assert all(f == "" for f in trace.row_flags)

    def test_nullspace_walk_grows(self):
        x, data, state = self._setup()
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        refs = TraceRefs(null_basis=vt[4:])
        proto = PerturbationProtocol(noise_std=0.05, interval=3000, repetitions=4)
        trace = perturb_and_reconverge(state, proto, "square", data, refs=refs)
        walks = [v for v in trace.nullspace_norms if v is not None]
        assert walks[0] <= 1e-10
        assert walks[-1] > 0.01

    def _assert_matches_run_flow_chunks(self, state, proto, kind, data,
                                        refs):
        trace = perturb_and_reconverge(state, proto, kind, data, refs=refs)
        ref, ref_net = _protocol_by_run_flow_chunks(state, proto, kind, data,
                                                    refs)
        assert len(trace.times) == proto.repetitions + 2
        for got, want in zip(trace.rows(), ref.rows(), strict=True):
            assert repr(got) == repr(want)
        assert trace.row_flags == ref.row_flags
        for got, want in zip(trace.final_state.net.layers, ref_net.layers):
            assert repr(got.tolist()) == repr(want.tolist())

    def test_rows_bitwise_run_flow_chunks_logistic(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, (2, 8, 1), activation="smoothed_relu", scale=0.7)
        pre = run_flow(FlowState(net=net, step=0.05), "logistic", SEP,
                       StopRule(max_steps=1500), sample_every=1500)
        assert pre.train_errors[-1] == 0.0
        state = replace(pre.final_state, rng_seed=31)
        test = Dataset(SEP_X + 0.3, SEP_Y)
        proto = PerturbationProtocol(noise_std=0.25, interval=150,
                                     repetitions=3, mode="relative")
        self._assert_matches_run_flow_chunks(state, proto, "logistic", SEP,
                                             TraceRefs(test_data=test))

    def test_rows_bitwise_run_flow_chunks_square_null_basis(self):
        x, data, state = self._setup()
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        refs = TraceRefs(null_basis=vt[4:])
        proto = PerturbationProtocol(noise_std=0.05, interval=400,
                                     repetitions=3)
        self._assert_matches_run_flow_chunks(state, proto, "square", data,
                                             refs)

    def test_kinks_during_reconvergence_are_counted(self):
        # f(x) = relu(x1) - relu(-x1) separates SEP; the third hidden row is
        # zero, so its pre-activation sits on the kink at every step until
        # the one perturbation moves it
        net = DeepNet(([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                       [[1.0, -1.0, 0.0]]), activation="relu")
        state = FlowState(net=net, step=0.01, rng_seed=3)
        proto = PerturbationProtocol(noise_std=0.1, interval=40,
                                     repetitions=1, mode="relative")
        trace = perturb_and_reconverge(state, proto, "exponential", SEP)
        assert trace.perturbation_counts[-1] == 1
        assert trace.kink_events >= proto.interval

    def test_budget_too_small_flags_but_continues(self):
        _, data, state = self._setup()
        proto = PerturbationProtocol(noise_std=2.0, interval=2, repetitions=3)
        trace = perturb_and_reconverge(state, proto, "square", data,
                                       reconverge_tol=1e-12)
        assert any(f == "not_reconverged" for f in trace.row_flags)
        assert trace.converged  # the schedule itself completed

    def test_rejects_non_interpolating_start(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 8))
        y = x @ rng.normal(size=8)
        data = Dataset(x, y, task="regression")
        state = FlowState(net=_linear_net(rng.normal(size=8)), step=0.01)
        with pytest.raises(ValueError, match="interpolating"):
            perturb_and_reconverge(
                state,
                PerturbationProtocol(noise_std=0.1, interval=10, repetitions=1),
                "square",
                data,
            )

    def test_total_norm_mode_draws_unit_scaled_noise(self):
        rng = np.random.default_rng(5)
        layers = [rng.normal(size=(3, 4)), rng.normal(size=(1, 3))]
        proto = PerturbationProtocol(noise_std=0.7, interval=1, repetitions=1,
                                     per_coordinate=False)
        deltas = _draw_perturbation(np.random.default_rng(1), layers, proto)
        total = np.sqrt(sum(float((d * d).sum()) for d in deltas))
        assert abs(total - 0.7) <= 1e-12

    def test_relative_mode_scales_with_layer_spread(self):
        big = [np.full((2, 2), 0.0) + np.diag([100.0, -100.0])]
        small = [np.diag([0.01, -0.01])]
        proto = PerturbationProtocol(noise_std=0.1, interval=1, repetitions=1,
                                     mode="relative")
        d_big = _draw_perturbation(np.random.default_rng(2), big, proto)[0]
        d_small = _draw_perturbation(np.random.default_rng(2), small, proto)[0]
        ratio = np.abs(d_big).sum() / np.abs(d_small).sum()
        assert abs(ratio - 10_000.0) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationProtocol(noise_std=0.0, interval=1, repetitions=1)
        with pytest.raises(ValueError):
            PerturbationProtocol(noise_std=1.0, interval=0, repetitions=1)
        with pytest.raises(ValueError):
            PerturbationProtocol(noise_std=1.0, interval=1, repetitions=1,
                                 mode="odd")


def _pretrained_two_layer(seed, steps=3000):
    rng = np.random.default_rng(seed)
    net = DeepNet(
        (rng.normal(size=(3, 2)) * 0.5, rng.normal(size=(1, 3)) * 0.5),
        activation="linear",
    )
    state = FlowState(net=net, step=1e-2)
    trace = run_flow(state, "exponential", SEP, StopRule(max_steps=steps),
                     sample_every=10**9)
    assert separability_margin(trace.final_state.net, SEP) > 0.0
    return trace.final_state.net


class TestNormalizedFlow:
    def test_unit_norm_invariant_and_growing_scales(self):
        net = _pretrained_two_layer(3)
        state = normalized_state_from_net(net, step=1e-2)
        prev = state.rhos
        for _ in range(500):
            state = normalized_flow_step(state, SEP)
            for v in state.unit_net.layers:
                assert abs(np.sqrt((v * v).sum()) - 1.0) <= 1e-6
            assert all(r > p for r, p in zip(state.rhos, prev))
            prev = state.rhos

    def test_matches_plain_flow_direction(self):
        # same time horizon for both parameterizations, then compare
        net = _pretrained_two_layer(3)
        state = normalized_state_from_net(net, step=0.05, stepping="loss_rescaled")
        state, _ = run_normalized_flow(state, SEP, 100_000, sample_every=10**9,
                                       max_time=1e12)
        assembled = state.assembled_net()
        w_norm = (assembled.layers[1] @ assembled.layers[0]).ravel()

        plain = run_flow(FlowState(net=net, step=0.05), "exponential", SEP,
                         StopRule(max_time=state.time, max_steps=300_000),
                         stepping="loss_rescaled", sample_every=10**9)
        w_plain = plain.final_state.net.layers[1] @ plain.final_state.net.layers[0]
        w_plain = w_plain.ravel()
        cos = (w_plain @ w_norm) / np.sqrt((w_plain @ w_plain) * (w_norm @ w_norm))
        assert cos >= 0.999

    def test_rejects_non_separating_start(self):
        # sign-flipped top layer puts every sample on the wrong side
        net = _pretrained_two_layer(3)
        net = net.with_layers([net.layers[0], -net.layers[1]])
        state = normalized_state_from_net(net, step=0.05)
        with pytest.raises(ValueError, match="separat"):
            for _ in range(50_000):
                state = normalized_flow_step(state, SEP)

    def test_state_validation(self):
        net = _pretrained_two_layer(3)
        with pytest.raises(ValueError, match="unit"):
            NormalizedFlowState(unit_net=net, rhos=(1.0, 1.0), step=0.1)
        state = normalized_state_from_net(net, step=0.1)
        with pytest.raises(ValueError, match="rho"):
            NormalizedFlowState(unit_net=state.unit_net, rhos=(1.0,), step=0.1)
        with pytest.raises(ValueError, match="lambda"):
            NormalizedFlowState(unit_net=state.unit_net, rhos=state.rhos,
                                step=0.1, lambda_mode="fixed")


class TestDirectionFlow:
    def test_rejects_non_separating_direction(self):
        with pytest.raises(ValueError, match="separate"):
            normalized_direction_flow(np.array([-1.0, 0.0]), SEP, 10, 0.05)

    def test_converges_to_max_margin_direction(self):
        svm = hard_margin_svm(SEP)
        trace = normalized_direction_flow(np.array([1.0, 0.1]), SEP, 200_000, 0.05)
        d = trace.directions[-1]
        assert abs(np.sqrt(d @ d) - 1.0) <= 1e-12
        cos = float(d @ svm.w_tilde) / np.sqrt(svm.w_tilde @ svm.w_tilde)
        assert cos >= 0.999

    def test_norm_grows_like_log_time(self):
        trace = normalized_direction_flow(np.array([1.0, 0.1]), SEP, 200_000, 0.05)
        d = trace.directions[-1]
        margins = SEP.labels * (SEP.inputs @ d)
        gamma = margins.min()
        r, t = trace.norms[-1], trace.times[-1]
        assert t > 1e100
        assert abs(r * gamma / np.log(t) - 1.0) <= 0.05


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
        trace = run_flow(state, "square", data, StopRule(max_steps=50),
                         sample_every=10)
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
            refs = TraceRefs(null_basis=vt[4:],
                             reference_direction=np.ones(6))
            state = FlowState(net=_linear_net(np.zeros(6)), step=0.02,
                              rng_seed=4)
            proto = PerturbationProtocol(noise_std=0.01, interval=500,
                                         repetitions=2)
            state = FlowState(
                net=_linear_net(min_norm_least_squares(x, y)), step=0.02,
                rng_seed=4)
            trace = perturb_and_reconverge(state, proto, "square", data,
                                           refs=refs)
            write_trace_csv(trace, path, header_comment="cfg=y seed=4")

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        produce(a)
        produce(b)
        assert a.read_bytes() == b.read_bytes()

    def test_k_layer_norm_columns(self):
        trace = TrajectoryTrace(layer_count=3)
        assert trace.header()[4:7] == ["norm_l1", "norm_l2", "norm_l3"]
