"""Linearization tests.

Oracles: closed-form Hessians for linear models (sum of weighted outer
products; constant 2 X^T X), second differences of the loss value as an
independent construction, and rank bounds at interpolating minima (the
Hessian there is a sum of n rank-one terms, so at least D - n exact zero
modes).
"""

import numpy as np
import pytest

import gradflow.spectra as spectra_mod
from gradflow.flow import FlowState, StopRule, run_flow
from gradflow.linalg import frobenius_norm, symmetric_eig
from gradflow.losses import Dataset, batch_outputs, separability_margin
from gradflow.network import DeepNet, _forward_pass, random_net
from gradflow.spectra import (
    ConjugacyVerdict,
    SpectrumReport,
    classify,
    classify_loss_hessian,
    conjugacy_compare,
    hessian,
    hyperbolicity_sweep,
    linear_exponential_hessian,
    linear_square_hessian,
    virtual_linear_system,
    write_spectrum_csv,
)
from fd_oracles import hessian_by_second_differences

SEP_X = np.array([[2.0, 0.3], [1.5, -0.4], [-1.0, 2.0], [-2.0, -0.5]])
SEP_Y = np.array([1.0, 1.0, -1.0, -1.0])
SEP = Dataset(SEP_X, SEP_Y)


def make_interpolating_net(seed, dims=(2, 4, 1), n=3):
    """Random smoothed-relu net plus inputs whose preactivations stay off
    the kink; labels are the net's own outputs, so residuals are zero by
    construction."""
    r = np.random.default_rng(seed)
    for _ in range(80):
        net = random_net(r, dims, "smoothed_relu", scale=1.0)
        x = r.normal(size=(n, dims[0]))
        clean = True
        for xi in x:
            _, preacts, _ = _forward_pass(net, xi)
            for p in preacts[:-1]:
                if np.abs(p).min() < 0.08:
                    clean = False
        if not clean:
            continue
        y = batch_outputs(net, x)
        return net, Dataset(x, y, task="regression")
    raise RuntimeError("no clean instance found")


class TestHessian:
    def test_linear_exponential_closed_form(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        y = np.sign(rng.normal(size=6))
        data = Dataset(x, y)
        w = rng.normal(size=4) * 0.5
        net = DeepNet((w[None, :].copy(),), activation="linear")
        h = hessian("exponential", net, data)
        h_cf = linear_exponential_hessian(w, data)
        assert frobenius_norm(h - h_cf) / frobenius_norm(h_cf) <= 1e-6

    def test_linear_square_is_constant_2xtx(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 3))
        data = Dataset(x, rng.normal(size=5), task="regression")
        for w_seed in (0, 1):
            w = np.random.default_rng(w_seed).normal(size=3)
            net = DeepNet((w[None, :].copy(),), activation="linear")
            h = hessian("square", net, data)
            assert frobenius_norm(h - linear_square_hessian(x)) <= 1e-8 * frobenius_norm(h)

    @pytest.mark.parametrize("kind,task", [
        ("square", "regression"),
        ("exponential", "binary"),
        ("logistic", "binary"),
    ])
    def test_matches_second_differences(self, kind, task):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(4, 2))
        if task == "binary":
            labels = np.sign(rng.normal(size=4))
        else:
            labels = rng.normal(size=4)
        data = Dataset(x, labels, task=task)
        net = random_net(rng, (2, 2, 1), "smoothed_relu", scale=0.6)
        h_fast = hessian(kind, net, data)
        h_slow = hessian_by_second_differences(kind, net, data)
        assert frobenius_norm(h_fast - h_slow) / frobenius_norm(h_slow) <= 1e-3

    def test_ridge_adds_exact_diagonal_blocks(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 2))
        data = Dataset(x, np.sign(rng.normal(size=4)))
        net = random_net(rng, (2, 3, 1), "linear", scale=0.5)
        h0 = hessian("exponential", net, data)
        lams = (0.3, 0.05)
        h1 = hessian("exponential", net, data, lambdas=lams)
        diff = h1 - h0
        expected = np.diag([0.6] * 6 + [0.1] * 3)
        assert np.abs(diff - expected).max() <= 1e-9

    def test_asymmetric_gradient_rejected(self, monkeypatch):
        # a non-symmetric Jacobian of the "gradient" signals a gradient bug
        a = np.array([[1.0, 2.0], [0.0, 1.0]])

        def fake_loss_and_gradient(kind, net, data):
            w = net.layers[0].ravel()
            return 0.0, [(a @ w)[None, :]], False

        monkeypatch.setattr(spectra_mod, "loss_and_gradient", fake_loss_and_gradient)
        net = DeepNet((np.array([[0.3, 0.4]]),), activation="linear")
        data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="asymmetry"):
            hessian("square", net, data)

    def test_dimension_cap(self):
        net = DeepNet((np.ones((1, 600)),), activation="linear")
        data = Dataset(np.ones((2, 600)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="500"):
            hessian("exponential", net, data)

    def test_zero_minimum_outer_product_identity(self):
        # at zero residuals H collapses to 2 sum grad f grad f^T
        net, data = make_interpolating_net(1)
        h = hessian("square", net, data)
        virt = virtual_linear_system(net, data)
        h_lin = linear_square_hessian(virt.inputs)
        assert frobenius_norm(h - h_lin) / frobenius_norm(h) <= 1e-4
        rep = classify_loss_hessian(h)
        assert rep.min_eigenvalue >= -1e-8 * rep.max_eigenvalue

    def test_away_from_minimum_can_be_indefinite(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        y = np.sign(rng.normal(size=6))
        data = Dataset(x, y)
        net0 = np.random.default_rng(0)
        net = DeepNet((net0.normal(size=(3, 4)), net0.normal(size=(1, 3))),
                      activation="linear")
        rep = classify_loss_hessian(hessian("exponential", net, data))
        assert rep.min_eigenvalue < 0.0
        assert rep.n_unstable >= 1


class TestClassify:
    def test_flow_matrix_literal_counts(self):
        rep = classify(np.diag([1.0, -1.0]))
        assert rep.counts() == (1, 1, 0)
        assert rep.hyperbolic

    def test_zero_matrix_all_zero(self):
        rep = classify(np.zeros((3, 3)))
        assert rep.counts() == (0, 0, 3)
        assert not rep.hyperbolic

    def test_relative_tolerance_boundary(self):
        rep = classify(np.diag([1.0, 5e-9, -3e-9]), tol=1e-8)
        assert rep.n_zero == 2
        assert rep.n_unstable == 1
        rep = classify(np.diag([1.0, 5e-9, -3e-8]), tol=1e-8)
        assert rep.counts() == (1, 1, 1)

    def test_loss_orientation_flips_roles(self):
        rep = classify_loss_hessian(np.diag([3.0, -2.0]))
        assert rep.eigenvalues == (-2.0, 3.0)
        assert rep.n_stable == 1 and rep.n_unstable == 1
        assert "loss Hessian" in rep.convention

    def test_report_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            SpectrumReport(eigenvalues=(1.0, 2.0), n_stable=1, n_unstable=0,
                           n_zero=0, tol=1e-8, convention="x")


class TestDegeneracy:
    @pytest.mark.parametrize("dims,n", [
        ((2, 4, 1), 1),
        ((2, 4, 1), 3),
        ((3, 5, 1), 2),
        ((2, 3, 1), 2),
        ((4, 6, 1), 3),
    ])
    def test_overparametrized_zero_minimum_is_degenerate(self, dims, n):
        # rank of a sum of n outer products is at most n < D
        net, data = make_interpolating_net(dims[1] * 10 + n, dims=dims, n=n)
        rep = classify_loss_hessian(hessian("square", net, data))
        d = sum(a * b for a, b in zip(dims[1:], dims[:-1]))
        assert rep.n_zero >= d - n
        assert rep.n_zero >= 1


class TestHyperbolicitySweep:
    def test_linear_model_meets_2lambda_bound(self):
        net = DeepNet((np.array([[0.2, 0.1]]),), activation="linear")
        entries = hyperbolicity_sweep("exponential", net, SEP, [1e-1, 1e-2, 1e-3])
        for e in entries:
            assert e.warning == ""
            assert e.report.hyperbolic
            assert e.report.min_eigenvalue >= 2.0 * e.lam * (1.0 - 1e-3)

    def test_width_one_chain_is_hyperbolic(self):
        net = DeepNet((np.array([[0.6, 0.1]]), np.array([[0.9]])),
                      activation="linear")
        state = FlowState(net=net, step=1e-2)
        net = run_flow(state, "exponential", SEP, StopRule(max_steps=4000),
                       sample_every=10**9).final_state.net
        assert separability_margin(net, SEP) > 0.0
        entries = hyperbolicity_sweep("exponential", net, SEP, [1e-1, 1e-2],
                                      step=0.05, max_steps=1_000_000)
        for e in entries:
            assert e.report.hyperbolic
            assert e.report.min_eigenvalue >= 2.0 * e.lam * (1.0 - 1e-3)

    def test_lambda_zero_at_degenerate_minimum(self):
        net, data = make_interpolating_net(1)
        entries = hyperbolicity_sweep("square", net, data, [0.0],
                                      equilibrate=False)
        assert entries[0].report.n_zero >= 1
        assert entries[0].warning == ""  # already at the minimum

    def test_non_equilibrium_warning(self):
        rng = np.random.default_rng(2)
        net = DeepNet((rng.normal(size=(1, 2)),), activation="linear")
        entries = hyperbolicity_sweep("exponential", net, SEP, [1e-2],
                                      equilibrate=False)
        assert "not at equilibrium" in entries[0].warning


class TestVirtualSystem:
    def test_linear_net_gives_back_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=5)
        y = x @ w
        net = DeepNet((w[None, :].copy(),), activation="linear")
        virt = virtual_linear_system(net, Dataset(x, y, task="regression"))
        assert np.abs(virt.inputs - x).max() <= 1e-12
        assert np.abs(virt.labels - y).max() <= 1e-9

    def test_nonzero_residual_rejected(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 5))
        net = DeepNet((rng.normal(size=5)[None, :],), activation="linear")
        data = Dataset(x, rng.normal(size=4), task="regression")
        with pytest.raises(ValueError, match="residual"):
            virtual_linear_system(net, data)

    def test_sign_counts_match_deep_hessian(self):
        net, data = make_interpolating_net(7)
        virt = virtual_linear_system(net, data)
        rep_deep = classify_loss_hessian(hessian("square", net, data))
        rep_lin = classify_loss_hessian(linear_square_hessian(virt.inputs))
        assert rep_deep.counts() == rep_lin.counts()

    def test_distinct_nonzero_eigenvalues_bounded_by_n(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 8))
        w = rng.normal(size=8) * 0.3
        net = DeepNet((w[None, :].copy(),), activation="linear")
        data_b = Dataset(x, np.sign(rng.normal(size=3)))
        for kind, data in [("exponential", data_b),
                           ("square", Dataset(x, rng.normal(size=3),
                                              task="regression"))]:
            h = hessian(kind, net, data)
            evals = np.sort(symmetric_eig(h).eigenvalues)
            # distinct nonzero values: drop zeros below 1e-8 of the spectral
            # radius, then merge neighbours within 1e-6 of it
            radius = float(np.abs(evals).max())
            nonzero = evals[np.abs(evals) > 1e-8 * radius]
            distinct = 1 + int((np.diff(nonzero) > 1e-6 * radius).sum())
            assert distinct <= 3


class TestConjugacy:
    def test_sign_match_without_value_match(self):
        v = conjugacy_compare(np.diag([2.0, -1.0]), np.diag([5.0, -3.0]))
        assert v.topologically_conjugate
        assert not v.differentiably_conjugate_candidate
        assert v.counts_a == v.counts_b == (1, 1, 0)
        assert v.exponent_map == (3.0, 2.5)

    def test_orthogonal_similarity_is_differentiable_candidate(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 5))
        h = a + a.T
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        v = conjugacy_compare(h, q @ h @ q.T, tol=1e-8)
        assert v.differentiably_conjugate_candidate
        assert v.topologically_conjugate
        assert np.abs(np.asarray(v.exponent_map) - 1.0).max() <= 1e-6

    def test_dimension_mismatch_counts_only(self):
        v = conjugacy_compare(np.diag([1.0, -1.0]), np.diag([1.0, -1.0, -5.0]))
        assert not v.topologically_conjugate
        assert v.exponent_map is None

    def test_zero_modes_excluded_from_exponent_map(self):
        v = conjugacy_compare(np.diag([1.0, 0.0, -2.0]),
                              np.diag([4.0, 0.0, -1.0]))
        assert v.topologically_conjugate
        assert v.exponent_map == (0.5, 4.0)

    def test_regularized_deep_vs_linear_construction(self):
        # the constructed linear side uses per-sample flattened gradients
        # as inputs; with the ridge both systems are positive definite
        net = DeepNet((np.array([[0.6, 0.1]]), np.array([[0.9]])),
                      activation="linear")
        lam = 1e-2
        state = FlowState(net=net, step=1e-2, lambdas=(lam, lam))
        trace = run_flow(state, "exponential", SEP,
                         StopRule(max_steps=400_000, grad_norm_below=1e-9),
                         sample_every=10**9)
        assert trace.converged
        net_eq = trace.final_state.net
        h_deep = hessian("exponential", net_eq, SEP, lambdas=(lam, lam))

        from gradflow.network import flatten_params, layer_gradients

        outs = batch_outputs(net_eq, SEP.inputs)
        weights = np.exp(-SEP.labels * outs)
        rows = np.vstack([
            flatten_params(layer_gradients(net_eq, x).grads) for x in SEP.inputs
        ])
        h_lin = (rows.T * weights) @ rows + 2.0 * lam * np.eye(rows.shape[1])
        v = conjugacy_compare(-h_deep, -h_lin)
        assert v.counts_a == v.counts_b == (3, 0, 0)
        assert v.topologically_conjugate
        assert v.exponent_map is not None
        assert all(r > 0.0 for r in v.exponent_map)

    def test_dimension_mismatch_still_reports_counts(self):
        v = conjugacy_compare(np.diag([-1.0, -2.0, -3.0]), np.diag([-4.0, -5.0]))
        assert v.counts_a == (3, 0, 0) and v.counts_b == (2, 0, 0)
        assert not v.topologically_conjugate
        assert v.exponent_map is None


class TestWriters:
    def test_spectrum_csv_layout(self, tmp_path):
        rep = classify_loss_hessian(np.diag([2.0, 0.0, -1.0]))
        path = tmp_path / "spec.csv"
        write_spectrum_csv(rep, path, header_comment="cfg=z")
        assert path.read_bytes() == (
            b"# cfg=z\n"
            b"# convention: eigenvalues are of the loss Hessian H; the "
            b"linearized flow matrix is A = -H, so stable = eigenvalue of "
            b"H > +thr\n"
            b"index,eigenvalue,class\n"
            b"0,-1.0,unstable\n"
            b"1,0.0,zero\n"
            b"2,2.0,stable\n"
        )

    def test_rerun_byte_identical(self, tmp_path):
        rep = classify_loss_hessian(np.diag([1.5, -0.25, 0.0, 3.0]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_spectrum_csv(rep, a)
        write_spectrum_csv(rep, b)
        assert a.read_bytes() == b.read_bytes()
