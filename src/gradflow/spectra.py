"""Linearization around flow points: Hessian assembly, eigenvalue
classification, regularization sweeps, virtual-data construction, and
conjugacy verdicts for pairs of linear systems. The Hessian's bumped
points and the virtual system's samples each go through the network as
one stacked evaluation.

Orientation convention, stated once and carried in every report: classify()
treats its input as the matrix A of a linearized flow dx/dt = A x, so
stable counts eigenvalues below -threshold. A loss Hessian H induces the
flow matrix A = -H; classify_loss_hessian() handles the negation and
reports the eigenvalues of H itself (positive = stable for the flow).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .flow import (FlowState, StopRule, _check_lambdas, _grad_norm,
                   _two_lambdas, _write_table, run_flows)
from .linalg import check_matrix, symmetric_eig
from .losses import Dataset, _check_kind, _loss_terms, _terms_and_gradient
from .network import (DeepNet, _columns, batch_backprop, batch_forward,
                      flatten_params, unflatten_params)

MAX_HESSIAN_DIM = 500
ASYMMETRY_RTOL = 1e-4
DEFAULT_ZERO_TOL = 1e-8
FD_STEP_BASE = 1e-5
# activation entries (members x widest layer x N) per stacked Hessian call;
# 2P = 1000 members at a large N would otherwise need gigabytes at once
HESSIAN_STACK_ENTRIES = 1 << 16
# regularized gradient norm above which a sweep entry is not an equilibrium
EQUILIBRIUM_GRAD_TOL = 1e-6

FLOW_CONVENTION = (
    "input is the linearized flow matrix A of dx/dt = A x; "
    "stable = eigenvalue < -thr"
)
LOSS_CONVENTION = (
    "eigenvalues are of the loss Hessian H; the linearized flow matrix is "
    "A = -H, so stable = eigenvalue of H > +thr"
)


def _zero_threshold(eigenvalues, tol: float) -> float:
    """tol times the spectral radius of ascending eigenvalues: the zero
    class's bound, for classify and every report."""
    return tol * max(abs(eigenvalues[0]), abs(eigenvalues[-1]))


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple  # ascending
    n_stable: int
    n_unstable: int
    n_zero: int
    tol: float
    convention: str

    def __post_init__(self):
        if self.n_stable + self.n_unstable + self.n_zero != len(self.eigenvalues):
            raise ValueError("class counts must partition the spectrum")

    @property
    def threshold(self) -> float:
        return _zero_threshold(self.eigenvalues, self.tol)

    @property
    def min_eigenvalue(self) -> float:
        return self.eigenvalues[0]

    def counts(self) -> tuple:
        return (self.n_stable, self.n_unstable, self.n_zero)


@dataclass(frozen=True)
class ConjugacyVerdict:
    topologically_conjugate: bool
    differentiably_conjugate_candidate: bool
    counts_a: tuple
    counts_b: tuple
    exponent_map: tuple | None  # nu_i / mu_i over matched nonzero pairs
    tol: float


def hessian(kind: str, net: DeepNet, data: Dataset, lambdas=()) -> np.ndarray:
    """Loss Hessian over all flattened weights by central finite differences
    of the analytic gradient; ridge terms contribute exact 2*lambda_k
    identity blocks, added analytically. The 2P bumped points flat +- h e_j
    are the members of stacked layers, evaluated in chunks of at most
    HESSIAN_STACK_ENTRIES activation entries.

    Pre-symmetrization asymmetry above 1e-4 relative is rejected, that
    pattern means the gradient itself is wrong.
    """
    flat = flatten_params(net.layers)
    dim = flat.size
    if dim > MAX_HESSIAN_DIM:
        raise ValueError(f"parameter dimension {dim} exceeds {MAX_HESSIAN_DIM}")
    lams = _check_lambdas(lambdas, net.depth)
    _check_kind(kind, data, net)
    shapes = [w.shape for w in net.layers]
    h = FD_STEP_BASE * max(1.0, float(np.abs(flat).max()))
    bumps = h * np.eye(dim)
    points = np.concatenate([flat + bumps, flat - bumps])
    widest = max(shape[0] for shape in shapes)
    chunk = max(1, HESSIAN_STACK_ENTRIES // (widest * len(data.labels)))
    grads = np.empty_like(points)
    kink = False
    terms, columns = _loss_terms(kind, data.labels), _columns(data.inputs)
    for start in range(0, 2 * dim, chunk):
        layers, out = (unflatten_params(a[start:start + chunk], shapes)
                       for a in (points, grads))
        hit = _terms_and_gradient(terms, net, columns, layers, out)[2]
        kink = kink or bool(np.any(hit))
    cols = ((grads[:dim] - grads[dim:]) / (2.0 * h)).T
    if kink and net.activation == "relu":
        warnings.warn(
            "finite differences crossed a relu kink; Hessian entries near "
            "that coordinate are unreliable (use smoothed_relu)"
        )
    asym = float(np.abs(cols - cols.T).max())
    denom = max(float(np.abs(cols).max()), 1e-300)
    if asym / denom > ASYMMETRY_RTOL:
        raise ValueError(
            f"Hessian asymmetry {asym / denom:.3e} before symmetrization; "
            "this signals a gradient bug"
        )
    h_mat = 0.5 * (cols + cols.T)
    if lams:
        h_mat[np.diag_indices(dim)] += _two_lambdas(lams, shapes)
    return h_mat


def classify(h_mat, tol: float = DEFAULT_ZERO_TOL) -> SpectrumReport:
    """Spectrum of a symmetric flow matrix split into stable (< -thr),
    unstable (> +thr) and zero (within thr = tol * spectral radius). A
    negative tol, which would count some eigenvalues twice, is refused."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    a = check_matrix(h_mat, "matrix")
    dec = symmetric_eig(a)
    evals = np.sort(dec.eigenvalues)
    thr = _zero_threshold(evals, tol)
    n_stable = int((evals < -thr).sum())
    n_unstable = int((evals > thr).sum())
    n_zero = evals.size - n_stable - n_unstable
    return SpectrumReport(
        eigenvalues=tuple(float(v) for v in evals), n_stable=n_stable,
        n_unstable=n_unstable, n_zero=n_zero, tol=tol,
        convention=FLOW_CONVENTION)


def classify_loss_hessian(h_mat, tol: float = DEFAULT_ZERO_TOL) -> SpectrumReport:
    """classify(-H) presented in loss-Hessian orientation: the report lists
    the eigenvalues of H, and stable counts those above +thr (descending
    directions of the flow dx/dt = -H x are the ones that decay)."""
    flow_report = classify(-np.asarray(h_mat, dtype=float), tol=tol)
    evals = tuple(sorted(-v for v in flow_report.eigenvalues))
    return replace(flow_report, eigenvalues=evals, convention=LOSS_CONVENTION)


class SweepEntry(NamedTuple):
    lam: float
    report: SpectrumReport  # loss-Hessian orientation, ridge included
    grad_norm: float
    warning: str


def hyperbolicity_sweep(
    kind: str,
    net: DeepNet,
    data: Dataset,
    lambda_list,
    equilibrate: bool = True,
    step: float = 1e-2,
    max_steps: int = 400_000,
) -> list:
    """Per-lambda equilibrium spectra of the ridge-regularized loss.

    With equilibrate=True each lambda gets its own equilibrium, warm-started
    from the previous one. A state whose regularized gradient norm exceeds
    EQUILIBRIUM_GRAD_TOL is still classified but carries a per-lambda
    warning.
    """
    _check_kind(kind, data, net)
    terms, columns = _loss_terms(kind, data.labels), _columns(data.inputs)
    shapes = [w.shape for w in net.layers]
    entries = []
    current = net
    for lam in lambda_list:
        lam = float(lam)
        lams = (lam,) * current.depth
        if equilibrate:
            state = FlowState(net=current, step=step, lambdas=lams)
            stop = StopRule(max_steps=max_steps,
                            grad_norm_below=EQUILIBRIUM_GRAD_TOL * 0.1)
            current = run_flows([state], kind, data, stop,
                                sample_every=10**9)[0].final_state.net
        grad = flatten_params(_terms_and_gradient(terms, current, columns)[1])
        grad += _two_lambdas(lams, shapes) * flatten_params(current.layers)
        gnorm = float(_grad_norm(grad))
        warning = ""
        if gnorm > EQUILIBRIUM_GRAD_TOL:
            warning = (f"not at equilibrium: regularized gradient norm "
                       f"{gnorm:.3e} exceeds {EQUILIBRIUM_GRAD_TOL:.1e}")
        h_mat = hessian(kind, current, data, lambdas=lams)
        entries.append(SweepEntry(lam, classify_loss_hessian(h_mat), gnorm,
                                  warning))
    return entries


def virtual_linear_system(net: DeepNet, data: Dataset) -> Dataset:
    """Per-sample flattened gradients as rows of a linear regression problem
    whose square-loss Hessian 2 sum x'_n x'_n^T reproduces the deep net's
    Hessian at an interpolating minimum.

    Labels are <x'_n, w_flat> so the current flattened point interpolates
    the virtual problem too. Residuals above 1e-6 are rejected, the identity
    only holds where every residual vanishes. Each sample is a batch of
    one in a single broadcast forward and backward pass, whose relu kink
    flags, one per sample, are counted in a warning.
    """
    n = len(data.labels)
    out, acts, derivs, kink = batch_forward(net, data.inputs[:, None, :])
    if out.shape[1] != 1:
        raise ValueError("virtual construction needs a scalar-output net")
    kinked = int(np.count_nonzero(kink))
    if kinked:
        warnings.warn(
            f"{kinked} sample(s) sit on a relu kink; their virtual rows use "
            "subgradient 0"
        )
    residuals = out[:, 0, 0] - data.labels
    worst = float(np.abs(residuals).max())
    if worst > 1e-6:
        raise ValueError(
            f"residual {worst:.3e} exceeds 1e-6; the virtual identity "
            "holds only at an interpolating minimum"
        )
    flat = flatten_params(net.layers)
    virtual_inputs = np.empty((n, flat.size))
    batch_backprop(net, acts, derivs, np.ones((n, 1, 1)),
                   out=unflatten_params(virtual_inputs,
                                        [w.shape for w in net.layers]))
    labels = virtual_inputs @ flat
    return Dataset(virtual_inputs, labels, task="regression")


def linear_square_hessian(x_mat) -> np.ndarray:
    """2 X^T X, the constant Hessian of the summed square loss."""
    x = np.asarray(x_mat, dtype=float)
    return 2.0 * x.T @ x


def linear_exponential_hessian(w, data: Dataset) -> np.ndarray:
    """sum_n x_n x_n^T exp(-y_n w.x_n), closed form for a linear model."""
    w = np.asarray(w, dtype=float)
    x = data.inputs
    weights = np.exp(-data.labels * (x @ w))
    return (x.T * weights) @ x


def conjugacy_compare(h_a, h_b, tol: float = 1e-6) -> ConjugacyVerdict:
    """Compare two symmetric linear systems given in the same orientation.

    Topological conjugacy of the induced flows needs only matching
    (stable, unstable, zero) counts; a differentiable conjugacy candidate
    needs the sorted eigenvalue multisets to match within tol relative to
    the larger spectral radius. The exponent map pairs sorted same-sign
    eigenvalues (b over a) and exists only when the counts match.
    """
    rep_a = classify(h_a)
    rep_b = classify(h_b)
    counts_match = rep_a.counts() == rep_b.counts()
    scale = max(
        abs(rep_a.eigenvalues[0]), abs(rep_a.eigenvalues[-1]),
        abs(rep_b.eigenvalues[0]), abs(rep_b.eigenvalues[-1]), 1e-300,
    )
    same_dim = len(rep_a.eigenvalues) == len(rep_b.eigenvalues)
    differentiable = False
    if same_dim:
        diffs = np.abs(
            np.asarray(rep_a.eigenvalues) - np.asarray(rep_b.eigenvalues)
        )
        differentiable = bool(diffs.max() <= tol * scale)
    exponent_map = None
    if counts_match and same_dim:
        thr_a, thr_b = rep_a.threshold, rep_b.threshold
        ratios = []
        for sign in (-1.0, 1.0):
            mu = sorted(v for v in rep_a.eigenvalues if sign * v > thr_a)
            nu = sorted(v for v in rep_b.eigenvalues if sign * v > thr_b)
            ratios.extend(n / m for m, n in zip(mu, nu))
        exponent_map = tuple(ratios)
    return ConjugacyVerdict(
        topologically_conjugate=counts_match or differentiable,
        differentiably_conjugate_candidate=differentiable,
        counts_a=rep_a.counts(),
        counts_b=rep_b.counts(),
        exponent_map=exponent_map,
        tol=tol,
    )


def _class_label(value: float, thr: float, convention: str) -> str:
    if abs(value) <= thr:
        return "zero"
    if convention == LOSS_CONVENTION:
        return "stable" if value > 0.0 else "unstable"
    return "stable" if value < 0.0 else "unstable"


def write_spectrum_csv(report: SpectrumReport, path, header_comment: str = ""):
    """CSV rows index,eigenvalue,class; a comment line states the
    orientation convention."""
    thr = report.threshold
    _write_table(
        path, header_comment, ["index", "eigenvalue", "class"],
        ([i, v, _class_label(v, thr, report.convention)]
         for i, v in enumerate(report.eigenvalues)),
        extra_comment=f"convention: {report.convention}",
    )
