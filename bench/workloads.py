"""The benchmark's workloads: what one op invokes, and how its outputs are
checked.

An op is a fixed list of ``gradflow`` CLI invocations at the run's
scenario seed. Every input is made here from that seed. The checks compare
the files of a run's first op with computations made apart from the
program (numpy, mpmath, a 2-d max-margin search) or with properties the
method must have; each check returns a list of problems, empty when the
outputs are right.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

# Scenario seeds are taken modulo this range. Every op size below was
# checked to pass the scenario's own predicates at each seed in it.
SEED_RANGE = 16

# At 4 repetitions the defaults' overlapping blobs (std 0.55) leave the
# test-risk trend to one or two test points, and noise 0.25 lets the output
# layer's mean norm fall in some cycle; both fail the scenario's predicates
# at some seeds. Separated blobs and stronger noise pass at every seed.
DEEPNET = {
    "variant": "deepnet",
    "repetitions": 4,
    "control_repetitions": 1,
    "cycles": 3,
    "interval": 500,
    "pretrain_steps": 1000,
    "blob_std": 0.25,
    "noise_rel_std": 0.5,
}
# Work that does not depend on the seed: with max_time off every
# exponential-loss flow takes exactly max_steps steps (at the default
# max_time=1e150 they stop after 5k to 40k steps depending on the margin),
# and a wide 2 x 16 square-loss problem is well conditioned enough that its
# grad-norm stop comes after nearly the same number of steps at every seed.
DIRECTION = {
    "n_datasets": 2,
    "n_inits": 5,
    "blob_std": 0.1,
    "max_time": None,
    "max_steps": 3000,
    "square_samples": 2,
    "square_dim": 16,
}
SPECTRUM_DIMS = (3, 25, 1)  # 100 parameters
SPECTRUM_POINTS = 20
SWEEP = {"max_degree": 150}
GROWTH = {"ks": [1, 2, 4], "closed_form_points": 2}
SINE = {"variant": "sine", "degree": 39, "n_train": 9}

COSINE_TARGET = 0.999


@dataclass(frozen=True)
class Invocation:
    command: str
    config: dict


def scenario_seed(seed: int) -> int:
    return seed % SEED_RANGE


def _blobs(rng, n_per_class, dim, center, std):
    c = np.asarray(center, dtype=float)[:dim]
    x = np.vstack([rng.normal(0.0, std, size=(n_per_class, dim)) + c,
                   rng.normal(0.0, std, size=(n_per_class, dim)) - c])
    y = np.array([1.0] * n_per_class + [-1.0] * n_per_class)
    return x, y


def spectrum_inputs(seed: int) -> dict:
    """Blob data and explicit weights of a smoothed-relu net at a random
    point, so the check can rebuild the very same Hessian."""
    rng = np.random.default_rng(10_000 + seed)
    x, y = _blobs(rng, SPECTRUM_POINTS // 2, SPECTRUM_DIMS[0],
                  (1.0, 0.6, -0.4), 0.6)
    layers = [rng.normal(size=(SPECTRUM_DIMS[k + 1], SPECTRUM_DIMS[k]))
              / math.sqrt(SPECTRUM_DIMS[k])
              for k in range(len(SPECTRUM_DIMS) - 1)]
    return {
        "dataset": {"inputs": x.tolist(), "labels": y.tolist()},
        "net": {"layers": [w.tolist() for w in layers],
                "activation": "smoothed_relu"},
        "loss": "logistic",
    }


def svm_inputs(seed: int) -> dict:
    """Twelve 2-d points that a line through the origin separates; redrawn
    until the benchmark's own margin search says so."""
    for attempt in itertools.count():
        rng = np.random.default_rng([20_000 + seed, attempt])
        x, y = _blobs(rng, 6, 2, (1.0, 0.7), 0.5)
        if max_margin_2d(x, y)[1] > 0.0:
            return {"dataset": {"inputs": x.tolist(), "labels": y.tolist()}}


def invocations(workload: str, seed: int) -> list:
    if workload == "deepnet":
        return [Invocation("perturb", DEEPNET)]
    if workload == "direction":
        return [Invocation("direction", DIRECTION)]
    if workload == "analysis":
        return [Invocation("spectrum", spectrum_inputs(seed)),
                Invocation("sweep", SWEEP),
                Invocation("growth", GROWTH),
                Invocation("perturb", SINE)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# reading the program's files


def read_table(path) -> list:
    """CSV rows as dicts; '#' comment lines skipped, empty cells None."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = []
    for row in csv.DictReader(lines):
        rows.append({k: (None if v == "" else _number(v))
                     for k, v in row.items()})
    return rows


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def read_report(out_dir, scenario) -> dict:
    with open(os.path.join(out_dir, f"{scenario}_report.json")) as fh:
        return json.load(fh)


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# independent references


def max_margin_2d(x, y):
    """Max-margin unit direction through the origin for 2-d data.

    The margin min_i y_i <x_i, u> over unit u is a minimum of sinusoids in
    the angle of u, so its maximum sits where one of them peaks (u along
    some y_i x_i) or where two cross (u orthogonal to y_i x_i - y_j x_j).
    Returns (u, margin); a margin <= 0 means no separator exists.
    """
    z = np.asarray(y, float)[:, None] * np.asarray(x, float)
    candidates = [zi / np.hypot(*zi) for zi in z if np.hypot(*zi) > 0.0]
    for i, j in itertools.combinations(range(len(z)), 2):
        d = z[i] - z[j]
        norm = np.hypot(*d)
        if norm > 0.0:
            perp = np.array([-d[1], d[0]]) / norm
            candidates += [perp, -perp]
    margins = [float((z @ u).min()) for u in candidates]
    best = int(np.argmax(margins))
    return candidates[best], margins[best]


def closed_form_k2(t, f_tilde, rho0):
    """rho(t) for depth 2 from li(R) = 4 f t + li(exp(f rho0^2)),
    rho = sqrt(log R / f), with mpmath's li and a bracketing root finder."""
    import mpmath

    mpmath.mp.dps = 30
    target = 4 * f_tilde * mpmath.mpf(t) + mpmath.li(mpmath.exp(f_tilde * rho0**2))
    lo = mpmath.mpf(1) + mpmath.mpf("1e-12")
    hi = mpmath.mpf(2)
    while mpmath.li(hi) < target:
        hi *= 2
    root = mpmath.findroot(lambda r: mpmath.li(r) - target, (lo, hi),
                           solver="anderson")
    return float(mpmath.sqrt(mpmath.log(root) / f_tilde))


# ---------------------------------------------------------------------------
# checks on a run's first op


def check_deepnet(out) -> list:
    problems = []
    reps = sorted(n for n in os.listdir(out) if re.search(r"_rep\d+\.csv$", n))
    if len(reps) != DEEPNET["repetitions"]:
        return [f"deepnet: {len(reps)} repetition traces, expected "
                f"{DEEPNET['repetitions']}"]
    tables = [read_table(os.path.join(out, n)) for n in reps]
    if any(row["train_error"] != 0.0 for t in tables for row in t):
        problems.append("deepnet: train error not 0 at some cycle boundary")
    norms = np.array([[[row["norm_l1"], row["norm_l2"]] for row in t]
                      for t in tables]).mean(axis=0)
    if not (np.diff(norms, axis=0) > 0.0).all():
        problems.append("deepnet: mean layer norms do not rise every cycle")
    control = np.asarray(
        read_report(out, "toy_deepnet_perturbation")["aggregates"]
        ["control_growth"])
    if not (norms[-1] - norms[0] > control).all():
        problems.append("deepnet: perturbed norms grew no more than the "
                        "controls'")
    return problems


def check_direction(out) -> list:
    problems = []
    scenario = "convergence_direction_study"
    for ds in range(DIRECTION["n_datasets"]):
        rows = read_table(os.path.join(out, f"{scenario}_ds{ds:02d}.csv"))
        losses = [row["loss"] for row in rows]
        if any(b > a for a, b in zip(losses, losses[1:])):
            problems.append(f"direction: dataset {ds} sampled loss rises")
        if not rows[-1]["margin_cosine"] >= COSINE_TARGET:
            problems.append(f"direction: dataset {ds} final margin cosine "
                            f"{rows[-1]['margin_cosine']!r}")
    for row in read_table(os.path.join(out, f"{scenario}_plot.csv")):
        if not row["min_pairwise_cosine"] >= COSINE_TARGET:
            problems.append(f"direction: dataset {int(row['dataset'])} inits "
                            f"agree only to {row['min_pairwise_cosine']!r}")
    return problems


def check_svm(out_dir, config) -> list:
    with open(os.path.join(out_dir, "svm_solution.json")) as fh:
        sol = json.load(fh)
    data = config["dataset"]
    u, margin = max_margin_2d(data["inputs"], data["labels"])
    problems = []
    if _rel(sol["margin"], margin) > 1e-9:
        problems.append(f"svm: margin {sol['margin']!r}, expected {margin!r}")
    if np.abs(np.asarray(sol["w_tilde"]) - u).max() > 1e-8:
        problems.append(f"svm: direction {sol['w_tilde']}, expected "
                        f"{u.tolist()}")
    return problems


def check_spectrum(out_dir, config) -> list:
    from gradflow.losses import Dataset
    from gradflow.network import DeepNet
    from gradflow.spectra import hessian

    data = Dataset(np.asarray(config["dataset"]["inputs"]),
                   np.asarray(config["dataset"]["labels"]))
    net = DeepNet(tuple(np.asarray(w) for w in config["net"]["layers"]),
                  activation=config["net"]["activation"])
    expected = np.linalg.eigvalsh(hessian(config["loss"], net, data))
    rows = read_table(os.path.join(out_dir, "spectrum.csv"))
    got = np.array([row["eigenvalue"] for row in rows])
    radius = float(np.abs(expected).max())
    problems = []
    if got.shape != expected.shape:
        return [f"spectrum: {got.size} eigenvalues, expected {expected.size}"]
    err = float(np.abs(np.sort(got) - expected).max())
    if err > 1e-9 * radius:
        problems.append(f"spectrum: eigenvalues off by {err:.3e} "
                        f"(radius {radius:.3e})")
    thr = 1e-8 * radius  # the CLI's default tol, loss convention
    want = {"stable": int((expected > thr).sum()),
            "unstable": int((expected < -thr).sum())}
    want["zero"] = expected.size - want["stable"] - want["unstable"]
    have = {k: sum(1 for row in rows if row["class"] == k) for k in want}
    if have != want:
        problems.append(f"spectrum: class counts {have}, expected {want}")
    return problems


def _sweep_design(x, degree):
    return np.vander(x, degree + 1, increasing=True)


def check_sweep(out_dir) -> list:
    n_train, n_test, freq = 76, 600, 4.0  # the scenario's defaults
    i = np.arange(1, n_train + 1)
    x = np.cos((2.0 * i - 1.0) * np.pi / (2.0 * n_train))
    y = np.sin(2.0 * np.pi * freq * x)
    xt = np.linspace(-1.0, 1.0, n_test)
    yt = np.sin(2.0 * np.pi * freq * xt)
    rows = read_table(os.path.join(out_dir, "min_norm_degree_sweep_plot.csv"))
    problems = []
    checked = 0
    for row in rows:
        deg = int(row["degree"])
        design = _sweep_design(x, deg)
        if np.linalg.cond(design) > 1e4:
            continue
        checked += 1
        w = np.linalg.lstsq(design, y, rcond=None)[0]
        want = {"train_sse": float(((design @ w - y) ** 2).sum()),
                "test_mse": float(((_sweep_design(xt, deg) @ w - yt) ** 2)
                                  .mean()),
                "norm": float(np.sqrt(w @ w))}
        for key, value in want.items():
            if row[key] is None or _rel(row[key], value) > 1e-8:
                problems.append(f"sweep: degree {deg} {key} {row[key]!r}, "
                                f"lstsq {value!r}")
    if checked < 5:
        problems.append(f"sweep: only {checked} well-conditioned degrees")
    return problems


def check_growth(out_dir) -> list:
    f_tilde, rho0, rho0_k1 = 1.0, 0.5, 0.0  # the scenario's defaults
    problems = []
    for row in read_table(os.path.join(out_dir, "growth_asymptotics_k1.csv")):
        t = row["t"]
        want = math.log(f_tilde**2 * t + math.exp(rho0_k1 * f_tilde)) / f_tilde
        if _rel(row["rho"], want) > 1e-6:
            problems.append(f"growth: k=1 rho {row['rho']!r} at t={t!r}, "
                            f"closed form {want!r}")
    for row in read_table(os.path.join(out_dir, "growth_asymptotics_k2.csv")):
        want = closed_form_k2(row["t"], f_tilde, rho0)
        if _rel(row["rho"], want) > 1e-3:
            problems.append(f"growth: k=2 rho {row['rho']!r} at "
                            f"t={row['t']!r}, closed form {want!r}")
    return problems


def check_sine(out_dir) -> list:
    report = read_report(out_dir, "sine_polynomial_perturbation")
    want = SINE["degree"] + 1 - SINE["n_train"]
    got = report["aggregates"]["null_dimension"]
    return [] if got == want else [f"sine: null dimension {got}, "
                                   f"expected {want}"]


def check(workload: str, dirs, configs) -> list:
    """Problems found in one op's files; dirs[i] and configs[i] belong to
    the op's invocation i."""
    if workload == "deepnet":
        return check_deepnet(dirs[0])
    if workload == "direction":
        return check_direction(dirs[0])
    return (check_spectrum(dirs[0], configs[0]) + check_sweep(dirs[1])
            + check_growth(dirs[2]) + check_sine(dirs[3]))
