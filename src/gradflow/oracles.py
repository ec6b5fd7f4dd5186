"""Independent ground-truth computations used to verify flow limits.

Everything here is deliberately brute-force or closed-form: subset
enumeration for the hard-margin SVM, the convergent Ei series for the
logarithmic integral with a safeguarded Newton inverse, and bisection for
the 1-d non-separable equilibrium. If a flow result disagrees with these,
the flow is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .linalg import gram_solve, symmetric_eig
from .losses import Dataset

MAX_SVM_SAMPLES = 20
EULER_GAMMA = 0.5772156649015329
FEASIBILITY_SLACK = 1e-9


@dataclass(frozen=True)
class MarginSolution:
    """Hard-margin SVM answer: minimal-norm w with y_n w.x_n >= 1."""

    w_raw: np.ndarray
    w_tilde: np.ndarray
    margin: float
    support_indices: tuple


class NonSeparableError(ValueError):
    """Raised when no enumerated candidate satisfies every constraint."""

    def __init__(self, message, violated_indices):
        super().__init__(message)
        self.violated_indices = tuple(violated_indices)


def hard_margin_svm(data: Dataset) -> MarginSolution:
    """Exact max-margin separator through the origin by subset enumeration.

    For each candidate support set S, solve the equality-constrained
    minimum-norm system y_n w.x_n = 1 (n in S) through the signed Gram
    matrix, keep candidates feasible on every constraint, and return the
    smallest-norm one. The optimum is determined by a linearly independent
    active set, which has at most d members, so subsets up to size d+1
    cover it; ties go to the first subset in lexicographic order.
    """
    if data.task != "binary":
        raise ValueError("hard_margin_svm needs binary -1/+1 labels")
    n, d = data.inputs.shape
    if n > MAX_SVM_SAMPLES:
        raise ValueError(
            f"subset enumeration is budgeted for N <= {MAX_SVM_SAMPLES}, got {n}"
        )
    signed = data.labels[:, None] * data.inputs
    best_w = None
    best_norm = None
    max_size = min(n, d + 1)
    for size in range(1, max_size + 1):
        for subset in combinations(range(n), size):
            z = signed[list(subset)]
            # a zero Gram keeps no eigenvalue: w = 0 is infeasible below
            w = z.T @ gram_solve(symmetric_eig(z @ z.T), np.ones(size))[0]
            if (signed @ w).min() < 1.0 - FEASIBILITY_SLACK:
                continue
            norm = float(w @ w)
            if best_norm is None or norm < best_norm * (1.0 - 1e-12):
                best_norm = norm
                best_w = w
    if best_w is None:
        # report the least-violating direction to make the failure concrete
        scores = signed @ signed.sum(axis=0)
        bad = np.nonzero(scores <= 0.0)[0]
        raise NonSeparableError(
            "no feasible separator found; samples "
            f"{bad.tolist()} oppose the aggregate direction",
            bad.tolist(),
        )
    norm = float(np.sqrt(best_w @ best_w))
    activations = signed @ best_w
    support = tuple(
        int(i) for i in np.nonzero(np.abs(activations - 1.0) <= 1e-9)[0]
    )
    return MarginSolution(
        w_raw=best_w,
        w_tilde=best_w / norm,
        margin=1.0 / norm,
        support_indices=support,
    )


def logarithmic_integral(z: float) -> float:
    """Principal value of the integral of dt/log t from 0 to z, z > 1.

    Sums the convergent series li(z) = gamma + ln x + sum_k x^k / (k k!)
    with x = ln z (Abramowitz & Stegun 5.1.10) until a term no longer
    changes the sum. For z > 1 every term of the sum is positive, so the
    sum loses nothing to cancellation. Only near Soldner's root (z ~ 1.4514),
    where li is zero, does gamma + ln x cancel the sum; the error there is
    absolute, about 1e-16.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 1.0:
        raise ValueError(f"logarithmic integral needs z > 1, got {z}")
    x = math.log(z)
    term = 1.0  # x^k / k!
    total = 0.0
    k = 0
    while True:
        k += 1
        term *= x / k
        grown = total + term / k
        if grown == total:
            break
        total = grown
    return EULER_GAMMA + math.log(x) + total


def inverse_logarithmic_integral(y: float) -> float:
    """The z > 1 with li(z) = y, by safeguarded Newton on the increasing
    branch.

    li is increasing and concave there (li'(z) = 1/ln z), so a Newton step
    from any point lands at or below the root; a step that leaves the
    bracket [lo, hi] is replaced by bisection in log(z - 1). The bracket
    squares its upper end until it holds y. Stops once a Newton step is
    below 1e-13 relative to max(1, z); the step is quadratically small by
    then, so the result is as exact as li itself.
    """
    lo = 1.0 + 1e-9
    while logarithmic_integral(lo) > y:
        lo = 1.0 + (lo - 1.0) / 1000.0
        if lo - 1.0 < 1e-15:
            raise ValueError(f"target {y} below the representable branch")
    hi = 2.0
    li_hi = logarithmic_integral(hi)
    while li_hi < y:
        if hi >= 1e300:
            raise ValueError(f"target {y} too large to invert")
        lo, hi = hi, min(hi * hi, 1e300)
        li_hi = logarithmic_integral(hi)
    z, li_z = hi, li_hi
    for _ in range(200):
        step = (li_z - y) * math.log(z)
        if abs(step) <= 1e-13 * max(1.0, z):
            return z - step
        z -= step
        if not lo < z < hi:
            z = 1.0 + math.sqrt(lo - 1.0) * math.sqrt(hi - 1.0)
        li_z = logarithmic_integral(z)
        if li_z < y:
            lo = z
        else:
            hi = z
    return z


def growth_closed_form(k: int, f_tilde: float, t: float, rho0: float = 0.0) -> float:
    """Closed-form per-layer scale rho(t) for the single-sample growth ODE
    rhodot = f * k * rho^(k-1) * exp(-rho^k * f), equal scales across layers.

    k=1 integrates to a plain logarithm; k=2 routes through the inverse
    logarithmic integral of exp(rho^2 f). Other depths have no closed form
    here; integrate numerically instead.
    """
    if f_tilde <= 0.0:
        raise ValueError("growth needs a positive margin value f_tilde")
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if k == 1:
        return float(np.log(f_tilde**2 * t + np.exp(rho0 * f_tilde)) / f_tilde)
    if k == 2:
        if rho0 <= 0.0:
            raise ValueError(
                "k=2 needs rho0 > 0; the all-zero scale is a fixed point"
            )
        c = logarithmic_integral(float(np.exp(f_tilde * rho0**2)))
        big_r = inverse_logarithmic_integral(4.0 * f_tilde * t + c)
        return float(np.sqrt(np.log(big_r) / f_tilde))
    raise ValueError(
        f"closed forms cover k in (1, 2); integrate k={k} numerically"
    )


class Equilibrium1D(NamedTuple):
    w_star: float
    f_prime: float


def nonseparable_equilibrium_1d(x1: float, x2: float) -> Equilibrium1D:
    """Unique rest point of wdot = -x1 exp(x1 w) + x2 exp(-x2 w), 0 < x1 < x2.

    Found by bisection to 1e-12 and returned with the (always negative)
    derivative of the right-hand side there, so hyperbolicity is explicit.
    """
    if not 0.0 < x1 < x2:
        raise ValueError(f"need 0 < x1 < x2, got x1={x1}, x2={x2}")

    def rhs(w):
        return -x1 * np.exp(x1 * w) + x2 * np.exp(-x2 * w)

    lo, hi = 0.0, 1.0
    while rhs(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("bisection bracket failed to close")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rhs(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    w_star = 0.5 * (lo + hi)
    f_prime = float(-x1**2 * np.exp(x1 * w_star) - x2**2 * np.exp(-x2 * w_star))
    return Equilibrium1D(float(w_star), f_prime)
