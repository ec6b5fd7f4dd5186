"""Acceptance suite: one test per shipping criterion.

Each test pins the advertised tolerance and ends with an explicit pass
line on stdout (run pytest -s to see them stream). Scenario reports that
several criteria share are computed once per module.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from gradflow.experiments import (
    ExperimentConfig,
    SCENARIO_DEFAULTS,
    run_scenario,
)
from gradflow.flow import FlowState, StopRule, run_flows
from gradflow.linalg import RANK_CUTOFF, frobenius_norm, symmetric_eig
from gradflow.losses import (
    Dataset,
    loss,
    loss_and_gradient,
    separability_margin,
)
from gradflow.network import (
    DeepNet,
    flatten_params,
    forward,
    homogeneity_residual,
    normalize_layers,
    random_net,
    unflatten_params,
)
from gradflow.oracles import nonseparable_equilibrium_1d
from gradflow.spectra import (
    classify_loss_hessian,
    hessian,
    hyperbolicity_sweep,
    linear_square_hessian,
    virtual_linear_system,
)
from fd_oracles import fd_gradient_check, interpolating_instance

SEP_X = np.array([[2.0, 0.3], [1.5, -0.4], [-1.0, 2.0], [-2.0, -0.5]])
SEP_Y = np.array([1.0, 1.0, -1.0, -1.0])
SEP = Dataset(SEP_X, SEP_Y)


def _passline(num, label):
    print(f"criterion {num:02d} ({label}): PASS")


def _timed_scenario(scenario, **params):
    t0 = time.monotonic()
    report = run_scenario(ExperimentConfig(scenario=scenario, seed=0,
                                           params=params))
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def direction_report():
    return _timed_scenario("convergence_direction_study")


@pytest.fixture(scope="module")
def growth_report():
    return _timed_scenario("growth_asymptotics")


@pytest.fixture(scope="module")
def sine_report():
    return _timed_scenario("sine_polynomial_perturbation")


@pytest.fixture(scope="module")
def toy_report():
    return _timed_scenario("toy_deepnet_perturbation")


@pytest.fixture(scope="module")
def sweep_report():
    return _timed_scenario("min_norm_degree_sweep")


def _null_space(x):
    dec = symmetric_eig(x.T @ x)
    keep = dec.eigenvalues <= RANK_CUTOFF * dec.eigenvalues.max()
    return dec.eigenvectors[:, keep]


def _pretrained_two_layer(seeds, steps=3000):
    """One separating two-layer net per seed, pretrained as one stack
    (bitwise one run per seed)."""
    states = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        net = DeepNet(
            (rng.normal(size=(3, 2)) * 0.5, rng.normal(size=(1, 3)) * 0.5),
            activation="linear",
        )
        states.append(FlowState(net=net, step=1e-2))
    nets = [out.final_state.net for out in run_flows(
        states, "exponential", SEP, StopRule(max_steps=steps),
        sample_every=10**9)]
    assert all(separability_margin(net, SEP) > 0.0 for net in nets)
    return nets


def test_criterion_01_max_margin_direction(direction_report):
    report, elapsed = direction_report
    p = SCENARIO_DEFAULTS["convergence_direction_study"]
    assert p["n_datasets"] == 10 and p["n_points"] <= 15
    assert p["n_inits"] == 5
    assert report.predicates["all_inits_match_oracle"]
    assert report.predicates["pairwise_directions_agree"]
    assert report.aggregates["min_cosine_to_oracle"] >= 0.999
    assert report.aggregates["min_pairwise_cosine"] >= 0.999
    assert elapsed < 60.0
    _passline(1, "max-margin direction, 10 datasets x 5 inits")


def test_criterion_02_min_norm_square_limit(direction_report):
    report, _ = direction_report
    assert report.aggregates["square_zero_init_gap"] <= 1e-6
    assert report.aggregates["square_null_init_gap"] <= 1e-6
    assert report.predicates["square_zero_init_matches_min_norm"]
    assert report.predicates["square_null_component_preserved"]
    _passline(2, "square-loss limit from zero and offset inits")


def test_criterion_03_null_space_invariance():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 8))
    basis = _null_space(x)
    assert basis.shape[1] == 4
    cases = [
        ("square", Dataset(x, rng.normal(size=4), task="regression"), 0.02),
        ("exponential", Dataset(x, np.array([1.0, 1.0, -1.0, -1.0])), 0.05),
    ]
    for kind, data, step in cases:
        w0 = rng.normal(size=8) * 0.5
        before = basis.T @ w0
        state = FlowState(
            net=DeepNet((w0[None, :].copy(),), activation="linear"),
            step=step,
        )
        out = run_flows([state], kind, data, StopRule(max_steps=10_000),
                        sample_every=10**9)[0]
        after = basis.T @ out.final_state.net.layers[0].ravel()
        assert np.abs(after - before).max() <= 1e-8, kind
    _passline(3, "null-space drift under 1e-8 per 1e4 steps, both losses")


def test_criterion_04_gradient_correctness():
    dims_pool = [(2, 3, 1), (3, 4, 1), (2, 4, 3, 1), (4, 5, 1), (3, 3, 1)]
    acts = ["smoothed_relu", "linear", "polynomial"]
    kinds = [("square", "regression"), ("exponential", "binary"),
             ("logistic", "binary")]
    worst, worst_fault = 0.0, np.inf
    for i in range(100):
        r = np.random.default_rng(1000 + i)
        dims = dims_pool[i % len(dims_pool)]
        act = acts[i % len(acts)]
        kind, task = kinds[i % len(kinds)]
        kwargs = {"coefficients": (0.0, 1.0, 0.3)} if act == "polynomial" \
            else {}
        net = random_net(r, dims, act, scale=0.7, **kwargs)
        xs = r.normal(size=(4, dims[0]))
        ys = r.normal(size=4) if task == "regression" \
            else np.sign(r.normal(size=4))
        data = Dataset(xs, ys, task=task)
        flat = flatten_params(net.layers)
        shapes = [w.shape for w in net.layers]

        def f(p, net=net, kind=kind, data=data, shapes=shapes):
            return loss(kind, net.with_layers(unflatten_params(p, shapes)),
                        data)

        g = flatten_params(loss_and_gradient(kind, net, data)[1])
        worst = max(worst, fd_gradient_check(f, g, flat))
        bad = g.copy()
        bad[int(np.argmax(np.abs(bad)))] += 0.01 * max(np.abs(bad).max(), 1.0)
        worst_fault = min(worst_fault, fd_gradient_check(f, bad, flat))
    assert worst <= 1e-5
    assert worst_fault >= 1e-3
    _passline(4, "gradient fd check on 100 instances plus fault injection")


def test_criterion_05_homogeneity_identity():
    dims_pool = [(2, 3, 1), (3, 4, 1), (2, 4, 3, 1), (4, 5, 2, 1), (3, 3, 1)]
    for i in range(100):
        r = np.random.default_rng(2000 + i)
        net = random_net(r, dims_pool[i % len(dims_pool)], "relu", scale=1.2)
        x = r.normal(size=net.layers[0].shape[1])
        f = forward(net, x)
        for k in range(1, net.depth + 1):
            assert homogeneity_residual(net, x, k) <= 1e-8 * (1.0 + abs(f))
    _passline(5, "per-layer Euler identity on 100 relu nets")


def test_criterion_06_zero_minimum_hessian_identity():
    for seed in (1, 7, 23):
        net, data = interpolating_instance(seed)
        h = hessian("square", net, data)
        lin = linear_square_hessian(virtual_linear_system(net, data).inputs)
        assert frobenius_norm(h - lin) <= 1e-4 * frobenius_norm(h)
        counts_deep = classify_loss_hessian(h).counts()
        counts_lin = classify_loss_hessian(lin).counts()
        assert counts_deep == counts_lin
    _passline(6, "outer-product Hessian identity at interpolating minima")


def test_criterion_07_overparametrized_degeneracy():
    configs = [((2, 4, 1), 1), ((2, 4, 1), 3), ((3, 5, 1), 2),
               ((2, 3, 1), 2), ((4, 6, 1), 3)]
    for dims, n in configs:
        net, data = interpolating_instance(dims[1] * 10 + n, dims=dims, n=n)
        d = sum(a * b for a, b in zip(dims[1:], dims[:-1]))
        assert d > n  # the overparametrized regime these instances probe
        report = classify_loss_hessian(hessian("square", net, data),
                                       tol=1e-8)
        assert report.n_zero >= 1
    _passline(7, "zero eigenvalues at 5 overparametrized minima")


def test_criterion_08_hyperbolicity_restoration():
    net = DeepNet((np.array([[0.2, 0.1]]),), activation="linear")
    entries = hyperbolicity_sweep("exponential", net, SEP,
                                  [1e-1, 1e-2, 1e-3])
    for entry in entries:
        assert entry.report.n_zero == 0
        assert entry.report.min_eigenvalue >= 2.0 * entry.lam * (1.0 - 1e-3)
    degen_net, degen_data = interpolating_instance(1)
    flat = hyperbolicity_sweep("square", degen_net, degen_data, [0.0],
                               equilibrate=False)
    assert flat[0].report.n_zero >= 1
    _passline(8, "ridge restores hyperbolicity with the 2-lambda floor")


def test_criterion_09_growth_asymptotics(growth_report):
    report, elapsed = growth_report
    assert report.predicates["k1_slope_in_band"]
    assert 0.95 <= report.aggregates["k1_slope"] <= 1.05
    assert report.predicates["k2_matches_closed_form"]
    assert report.aggregates["k2_closed_form_max_rel_err"] <= 1e-3
    # orderings at t = t_max = 1e4
    assert report.aggregates["t_max"] == 1e4
    for k in (2, 4):
        assert report.predicates[f"k{k}_product_above_logt_at_tmax"]
        assert report.predicates[f"k{k}_layer_below_logt_at_tmax"]
    assert report.predicates["deeper_product_faster"]
    assert elapsed < 60.0
    _passline(9, "depth-k growth slopes, closed form, and orderings")


def test_criterion_10_perturbation_protocol(sine_report, toy_report):
    sine, _ = sine_report
    p = SCENARIO_DEFAULTS["sine_polynomial_perturbation"]
    assert (p["n_train"], p["degree"]) == (9, 39)
    assert (p["noise_std"], p["step"]) == (0.45, 0.2)
    assert sine.repetitions == 29
    assert sine.predicates["exclusions_ok"]
    assert sine.predicates["train_reconverges_every_cycle"]
    assert sine.predicates["mean_norm_nondecreasing_while_perturbing"]
    assert sine.predicates["null_walk_within_20pct"]
    obs = sine.aggregates["final_null_sq_observed"]
    pred = sine.aggregates["final_null_sq_predicted"]
    assert abs(obs / pred - 1.0) <= 0.2

    toy, _ = toy_report
    assert toy.predicates["exclusions_ok"]
    assert toy.predicates["train_error_zero_each_cycle"]
    assert toy.predicates["mean_layer_norms_increase_each_cycle"]
    assert toy.predicates["test_risk_trend_nondecreasing"]
    _passline(10, "perturbation protocol: reconvergence, null walk, "
                  "deep-net analog")


def test_criterion_11_interpolation_threshold(sweep_report):
    report, _ = sweep_report
    p = SCENARIO_DEFAULTS["min_norm_degree_sweep"]
    assert (p["n_train"], p["max_degree"]) == (76, 300)
    assert report.predicates["interpolates_from_n_train"]
    assert report.aggregates["max_train_sse_past_threshold"] <= 1e-8
    assert report.predicates["test_rises_at_max_degree"]
    assert (report.aggregates["max_degree_test_mse"]
            > report.aggregates["best_intermediate_test_mse"])
    _passline(11, "interpolation from 76 points and overfit at degree 300")


def test_criterion_12_nonseparable_equilibrium():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x1 = float(rng.uniform(0.1, 2.0))
        x2 = x1 + float(rng.uniform(0.1, 2.0))
        eq = nonseparable_equilibrium_1d(x1, x2)
        expect = np.log(x2 / x1) / (x1 + x2)
        assert abs(eq.w_star - expect) <= 1e-12
        assert eq.f_prime < 0.0
    _passline(12, "1d equilibrium closed form on 20 pairs")


def _normalized_state(net, step):
    """The normalized state of net: unit layers V_k and scales rho_k."""
    rhos, unit = normalize_layers(net)
    return FlowState(net=unit, rhos=tuple(rhos), step=step)


def test_criterion_13_normalized_dynamics():
    # per-step invariant: every visited state keeps unit layer norms and
    # strictly growing scales; a chain of one-step runs is one run
    nets = _pretrained_two_layer(range(5))
    state = _normalized_state(nets[3], step=1e-2)
    prev = state.rhos
    for _ in range(2000):
        state = run_flows([state], "exponential", SEP, StopRule(max_steps=1),
                          sample_every=10**9)[0].final_state
        for v in state.net.layers:
            assert abs(float(np.sqrt((v * v).sum())) - 1.0) <= 1e-6
        assert all(r > q for r, q in zip(state.rhos, prev))
        prev = state.rhos

    # long-horizon runs from five inits, as one stack: rates decay, limits
    # agree; a row's layer norms are the scales rho_k to rounding
    traces = run_flows([_normalized_state(net, step=0.05) for net in nets],
                       "exponential", SEP,
                       StopRule(max_time=1e12, max_steps=100_000),
                       stepping="loss_rescaled", sample_every=20)
    directions = []
    plain_match = None
    for seed, (net, trace) in enumerate(zip(nets, traces)):
        st = trace.final_state
        rhos = np.array([row.norms for row in trace.rows])
        d_rho = np.diff(rhos, axis=0)
        assert (d_rho > 0.0).all()
        times = np.array([row.time for row in trace.rows])
        rates = (d_rho / np.diff(times)[:, None]).max(axis=1)
        assert rates[-1] <= 1e-2 * rates[0]
        assembled = [r * v for r, v in zip(st.rhos, st.net.layers)]
        w = (assembled[1] @ assembled[0]).ravel()
        directions.append(w / np.sqrt(w @ w))
        if seed == 3:
            plain = run_flows(
                [FlowState(net=net, step=0.05)], "exponential", SEP,
                StopRule(max_time=st.time, max_steps=300_000),
                stepping="loss_rescaled", sample_every=10**9,
            )[0]
            wp = (plain.final_state.net.layers[1]
                  @ plain.final_state.net.layers[0]).ravel()
            plain_match = float(
                (wp @ w) / np.sqrt((wp @ wp) * (w @ w))
            )
    assert plain_match is not None and plain_match >= 0.999
    mat = np.array(directions)
    iu = np.triu_indices(len(mat), k=1)
    assert (mat @ mat.T)[iu].min() >= 0.999
    _passline(13, "normalized dynamics invariants and limit agreement")


def test_criterion_14_scenario_determinism(tmp_path):
    trimmed = {
        "sine_polynomial_perturbation": {"repetitions": 3,
                                         "total_steps": 480_000},
        "min_norm_degree_sweep": {"max_degree": 40},
        "toy_deepnet_perturbation": {"repetitions": 2, "cycles": 2,
                                     "control_repetitions": 1},
        "growth_asymptotics": {"ks": (2,), "grid_points": 21,
                               "closed_form_points": 3},
        "convergence_direction_study": {"n_datasets": 1, "n_inits": 2},
    }
    for scenario, params in trimmed.items():
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{scenario}_{tag}"
            run_scenario(ExperimentConfig(scenario=scenario, seed=9,
                                          output_dir=str(out),
                                          params=params))
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1])), scenario
        for name in names:
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name,
                               shallow=False), f"{scenario}/{name}"
    _passline(14, "byte-identical reruns for every scenario")
