"""Scenario drivers for the package's headline studies.

Each scenario consumes an ExperimentConfig, runs a deterministic batch of
repetitions (per-repetition generator seeded base_seed + index), writes
per-repetition trace CSVs plus a plot-ready CSV and an aggregate JSON
report, and returns a ScenarioReport whose pass/fail predicates are
evaluated mechanically from the recorded traces.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .flow import (
    FlowState,
    LinearSquareGD,
    PerturbationProtocol,
    StopRule,
    TraceRefs,
    TrajectoryTrace,
    _write_table,
    flow_step,
    growth_numeric_trace,
    perturb_and_reconverge,
    run_flow,
)
from .linalg import extended_min_norm
from .losses import Dataset, classification_error
from .network import DeepNet, random_net
from .oracles import (
    NonSeparableError,
    growth_closed_form,
    hard_margin_svm,
)

# a report fails outright past this exclusion rate, whatever else passed
MAX_EXCLUSION_RATE = 0.10

SCENARIO_DEFAULTS = {
    "sine_polynomial_perturbation": {
        "n_train": 9,
        "n_test": 100,
        "degree": 39,
        "frequency": 4.0,
        "step": 0.2,
        # the step above is quoted per-sample; False applies it to the
        # summed loss unscaled
        "mean_loss_step": True,
        "interval": 120_000,
        "noise_std": 0.45,
        "per_coordinate": True,
        "total_steps": 10_000_000,
        "stop_fraction": 0.5,
        "repetitions": 29,
        "perturb": True,
        "init_scale": 0.0,
        "reconverge_tol": 1e-6,
        "flat_tol": 1e-4,
    },
    "min_norm_degree_sweep": {
        "min_degree": 1,
        "max_degree": 300,
        "n_train": 76,
        "n_test": 600,
        "frequency": 4.0,
        "interp_tol": 1e-8,
        "condition_flag_threshold": 1e8,
        "repetitions": 1,
    },
    "toy_deepnet_perturbation": {
        "dims": (2, 64, 1),
        "activation": "smoothed_relu",
        "init_scale": 0.7,
        "blob_center": (1.2, 0.9),
        "blob_std": 0.55,
        "n_train_per_class": 10,
        "n_test_per_class": 100,
        "loss": "logistic",
        "step": 0.05,
        "pretrain_steps": 4000,
        "interval": 1500,
        "cycles": 12,
        "noise_rel_std": 0.25,
        "repetitions": 16,
        "control_repetitions": 4,
        "trend_slope_tol": 1e-4,
        "control_growth_factor": 2.0,
    },
    "growth_asymptotics": {
        "ks": (1, 2, 4),
        "f_tilde": 1.0,
        "rho0": 0.5,
        "rho0_k1": 0.0,
        "t_min": 1e-2,
        "t_max": 1e4,
        "grid_points": 61,
        "slope_window": (1e3, 1e5),
        "slope_points": 21,
        "slope_band": (0.95, 1.05),
        "closed_form_points": 9,
        "li_rel_tol": 1e-3,
        "repetitions": 1,
    },
    "convergence_direction_study": {
        "n_datasets": 10,
        "n_points": 12,
        "n_inits": 5,
        "blob_center": (1.0, 0.7),
        "blob_std": 0.5,
        "init_scale": 1.0,
        "step": 0.1,
        # direction gap decays ~ 1/log t, so the horizon is generous;
        # near-degenerate margins advance slowly in log time and need
        # the full step budget
        "max_time": 1e150,
        "max_steps": 40_000,
        "cosine_target": 0.999,
        "square_samples": 4,
        "square_dim": 8,
        "square_step": 0.02,
        "square_steps": 200_000,
        "square_tol": 1e-6,
        "max_regenerations": 50,
        "repetitions": 1,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario name, base seed, output directory, parameter overrides.

    Unknown parameter keys are rejected by name so a typo in a config
    file fails loudly instead of silently running defaults.
    """

    scenario: str
    seed: int = 0
    output_dir: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIO_DEFAULTS:
            known = ", ".join(sorted(SCENARIO_DEFAULTS))
            raise ValueError(
                f"scenario: unknown scenario {self.scenario!r}; known: {known}"
            )
        if not isinstance(self.seed, (int, np.integer)) or isinstance(
            self.seed, bool
        ):
            raise ValueError(f"seed: must be an integer, got {self.seed!r}")
        defaults = SCENARIO_DEFAULTS[self.scenario]
        for key in self.params:
            if key not in defaults:
                raise ValueError(
                    f"params.{key}: unknown parameter for {self.scenario}"
                )
        merged = {**defaults, **self.params}
        reps = merged.get("repetitions", 1)
        if not isinstance(reps, (int, np.integer)) or reps < 1:
            raise ValueError(f"params.repetitions: must be >= 1, got {reps!r}")

    def resolved(self) -> dict:
        return {**SCENARIO_DEFAULTS[self.scenario], **self.params}

    def config_hash(self) -> str:
        body = json.dumps(
            {
                "scenario": self.scenario,
                "seed": int(self.seed),
                "params": _jsonable(self.resolved()),
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()[:12]

    def header(self) -> str:
        return (
            f"scenario={self.scenario} config={self.config_hash()} "
            f"seed={self.seed}"
        )


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    config_hash: str
    repetitions: int
    excluded: int
    predicates: dict
    aggregates: dict
    trace_paths: list
    notes: list

    @property
    def passed(self) -> bool:
        return bool(self.predicates) and all(self.predicates.values())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _write_json(path, body):
    """The one JSON writer: sorted keys, two-space indent, LF endings."""
    with open(path, "w", newline="\n") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_json(report: ScenarioReport, path, header: str = ""):
    # Basenames only: reruns into a different directory stay byte-identical.
    body = {
        "scenario": report.scenario,
        "seed": report.seed,
        "config_hash": report.config_hash,
        "repetitions": report.repetitions,
        "excluded": report.excluded,
        "passed": report.passed,
        "predicates": _jsonable(report.predicates),
        "aggregates": _jsonable(report.aggregates),
        "trace_paths": [os.path.basename(p) for p in report.trace_paths],
        "notes": list(report.notes),
    }
    if header:
        body["header"] = header
    _write_json(path, body)


def chebyshev_nodes(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return np.cos((2.0 * i - 1.0) * np.pi / (2.0 * n))


def _sine_target(x, frequency):
    return np.sin(2.0 * np.pi * frequency * np.asarray(x, dtype=float))


def _monomials(x, degree):
    return np.vander(np.asarray(x, dtype=float), degree + 1, increasing=True)


def _out_path(config, name):
    if config.output_dir is None:
        return None
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def _write_csv(config, name, trace_paths, columns, rows):
    """Write one table of the run, if it has an output directory."""
    path = _out_path(config, name)
    if path:
        _write_table(path, config.header(), columns, rows)
        trace_paths.append(path)


def _finish_report(config, repetitions, excluded, predicates, aggregates,
                   trace_paths, notes) -> ScenarioReport:
    """Every scenario's report; written, if the run has an output
    directory, as the run's last file."""
    report = ScenarioReport(
        scenario=config.scenario,
        seed=config.seed,
        config_hash=config.config_hash(),
        repetitions=repetitions,
        excluded=excluded,
        predicates=predicates,
        aggregates=aggregates,
        trace_paths=trace_paths,
        notes=notes,
    )
    path = _out_path(config, f"{config.scenario}_report.json")
    if path:
        write_report_json(report, path, header=config.header())
        report.trace_paths.append(path)
    return report


# ---------------------------------------------------------------------------
# sine target, polynomial model, perturb-and-reconverge study


def sine_polynomial_perturbation(config: ExperimentConfig) -> ScenarioReport:
    """Polynomial regression on a sine, trained by exact square-loss GD,
    with periodic Gaussian weight perturbations through the first half of
    the schedule. The perturbed run grows its weight norm through a
    null-space random walk; the unperturbed control stays flat.
    """
    p = config.resolved()
    notes = []
    x = chebyshev_nodes(p["n_train"])
    y = _sine_target(x, p["frequency"])
    design = _monomials(x, p["degree"])
    step = p["step"] / p["n_train"] if p["mean_loss_step"] else p["step"]
    gd = LinearSquareGD(design, y, step)
    if not gd.stable:
        notes.append(f"step {step:.4g} exceeds the GD stability limit")
    x_test = np.linspace(-1.0, 1.0, p["n_test"])
    test_design = _monomials(x_test, p["degree"])
    y_test = _sine_target(x_test, p["frequency"])
    null_basis = gd.null_basis
    null_dim = null_basis.shape[1]

    total = int(p["total_steps"])
    interval = int(p["interval"])
    if p["perturb"]:
        checkpoints = list(range(interval, total, interval)) + [total]
        stop_after = int(total * p["stop_fraction"])
    else:
        # ten evenly spaced checkpoints; the last two give the flatness check
        span = max(1, total // 10)
        checkpoints = list(range(span, total, span)) + [total]
        stop_after = 0
    sigma = float(p["noise_std"])
    dim = design.shape[1]
    reps = int(p["repetitions"])
    tol = float(p["reconverge_tol"])

    traces, included = [], []
    trace_paths = []
    for rep in range(reps):
        rng = np.random.default_rng(config.seed + rep)
        if p["init_scale"] > 0.0:
            w = p["init_scale"] * rng.normal(size=dim)
        else:
            w = np.zeros(dim)
        trace = TrajectoryTrace(layer_count=1)
        pert_count = 0
        done = 0
        bad = False
        for cp in checkpoints:
            w = gd.propagate(w, cp - done)
            done = cp
            resid = design @ w - y
            sse = float(resid @ resid)
            mse = sse / p["n_train"]
            test_mse = float(((test_design @ w - y_test) ** 2).mean())
            null_norm = float(np.sqrt(((null_basis.T @ w) ** 2).sum()))
            flag = ""
            if p["perturb"] and mse > tol:
                flag = "not_reconverged"
                bad = True
            trace.times.append(done * step)
            trace.losses.append(sse)
            trace.train_errors.append(mse)
            trace.test_errors.append(test_mse)
            trace.layer_norms.append((float(np.sqrt(w @ w)),))
            trace.margin_cosines.append(None)
            trace.nullspace_norms.append(null_norm)
            trace.perturbation_counts.append(pert_count)
            trace.row_flags.append(flag)
            if p["perturb"] and cp < stop_after and cp < total:
                if p["per_coordinate"]:
                    w = w + rng.normal(0.0, sigma, size=dim)
                else:
                    draw = rng.normal(size=dim)
                    w = w + draw * (sigma / np.sqrt(draw @ draw))
                pert_count += 1
        if not p["perturb"]:
            bad = trace.train_errors[-1] > tol
            if bad:
                trace.row_flags[-1] = "not_converged"
        trace.converged = not bad
        trace.stop_reason = "schedule_complete"
        traces.append(trace)
        included.append(not bad)
        _write_csv(config, f"{config.scenario}_rep{rep:02d}.csv",
                   trace_paths, trace.header(), trace.rows())

    excluded = included.count(False)
    keep = [t for t, ok in zip(traces, included) if ok]
    predicates = {"exclusions_ok": excluded <= MAX_EXCLUSION_RATE * reps}
    aggregates = {"null_dimension": null_dim, "gd_stable": gd.stable}
    if keep:
        train = np.array([t.train_errors for t in keep])
        test = np.array([t.test_errors for t in keep])
        norms = np.array([[row[0] for row in t.layer_norms] for t in keep])
        nulls2 = np.array([t.nullspace_norms for t in keep]) ** 2
        counts = np.array(keep[0].perturbation_counts)
        aggregates.update(
            {
                "checkpoint_times": [t * step for t in checkpoints],
                "mean_train_error": train.mean(axis=0),
                "std_train_error": train.std(axis=0),
                "mean_test_error": test.mean(axis=0),
                "std_test_error": test.std(axis=0),
                "mean_norm": norms.mean(axis=0),
                "std_norm": norms.std(axis=0),
                "mean_null_sq": nulls2.mean(axis=0),
                "perturbation_counts": counts,
            }
        )
        if p["perturb"]:
            # each event adds an independent Gaussian whose null component
            # re-convergence cannot touch, so null energy performs a
            # random walk with E = m * sigma^2 * null_dim
            per_event = sigma**2 * (
                null_dim if p["per_coordinate"] else null_dim / dim
            )
            prediction = counts * per_event
            aggregates["null_sq_prediction"] = prediction
            final_m = int(counts[-1])
            obs = float(nulls2.mean(axis=0)[-1])
            pred = float(prediction[-1])
            aggregates["final_null_sq_observed"] = obs
            aggregates["final_null_sq_predicted"] = pred
            predicates["train_reconverges_every_cycle"] = bool(
                (train <= tol).all()
            )
            # through the first checkpoint after the last event; later rows
            # shed residual row-space noise and may dip by rounding-scale
            last_active = int(np.searchsorted(counts, final_m)) + 1
            mean_norm = norms.mean(axis=0)
            predicates["mean_norm_nondecreasing_while_perturbing"] = bool(
                (np.diff(mean_norm[:last_active]) >= -1e-9).all()
            )
            predicates["null_walk_within_20pct"] = (
                pred > 0 and abs(obs / pred - 1.0) <= 0.2
            )
        else:
            mean_norm = norms.mean(axis=0)
            half = len(checkpoints) // 2
            rel = abs(mean_norm[-1] - mean_norm[half]) / (1.0 + mean_norm[-1])
            aggregates["norm_drift_after_halfway"] = float(rel)
            predicates["train_converges"] = bool(
                (train[:, -1] <= tol).all()
            )
            predicates["norms_flat_after_convergence"] = bool(
                rel <= p["flat_tol"]
            )
        cols = [
            "checkpoint",
            "time",
            "mean_train_error",
            "mean_test_error",
            "mean_norm",
            "mean_null_sq",
            "perturbation_count",
        ]
        rows = [
            [
                i,
                checkpoints[i] * step,
                float(train.mean(axis=0)[i]),
                float(test.mean(axis=0)[i]),
                float(norms.mean(axis=0)[i]),
                float(nulls2.mean(axis=0)[i]),
                int(counts[i]),
            ]
            for i in range(len(checkpoints))
        ]
        _write_csv(config, f"{config.scenario}_plot.csv", trace_paths, cols,
                   rows)
    else:
        predicates["exclusions_ok"] = False

    return _finish_report(config, reps, excluded, predicates, aggregates,
                          trace_paths, notes)


# ---------------------------------------------------------------------------
# minimum-norm interpolation across polynomial degree


def min_norm_degree_sweep(config: ExperimentConfig) -> ScenarioReport:
    """Minimum-norm polynomial fits of the sine target across degrees.

    Underfits at low degree, interpolates from degree n_train - 1 on, and
    overfits again at the top of the range. Monomial features make the
    solve catastrophically ill-conditioned past a few dozen degrees, so
    each entry routes through the extended-precision solver and carries a
    conditioning flag; residuals are accumulated in long double because
    coefficients ~1e10 shred float64 evaluation.
    """
    p = config.resolved()
    notes = []
    x = chebyshev_nodes(p["n_train"])
    y = _sine_target(x, p["frequency"])
    x_test = np.linspace(-1.0, 1.0, p["n_test"])
    y_test = _sine_target(x_test, p["frequency"])
    x_ld = x.astype(np.longdouble)
    xt_ld = x_test.astype(np.longdouble)
    degrees = list(range(int(p["min_degree"]), int(p["max_degree"]) + 1))

    rows = []
    for deg in degrees:
        design = _monomials(x, deg)
        try:
            w, cond = extended_min_norm(design, y, return_condition=True)
        except ValueError as err:
            notes.append(f"degree {deg}: {err}")
            rows.append([deg, None, None, None, None, "rank_deficient"])
            continue
        v_ld = np.vander(x_ld, deg + 1, increasing=True)
        vt_ld = np.vander(xt_ld, deg + 1, increasing=True)
        w_ld = w.astype(np.longdouble)
        train_sse = float(((v_ld @ w_ld - y) ** 2).sum())
        test_mse = float(((vt_ld @ w_ld - y_test) ** 2).mean())
        flag = "ill_conditioned" if cond >= p["condition_flag_threshold"] else ""
        rows.append(
            [deg, train_sse, test_mse, float(np.sqrt(w @ w)), cond, flag]
        )

    solved = [r for r in rows if r[1] is not None]
    excluded = len(rows) - len(solved)
    by_degree = {r[0]: r for r in solved}
    tol = float(p["interp_tol"])
    interp_degrees = [r[0] for r in solved if r[1] <= tol]
    # the analytic target lets plain approximation cross the tolerance
    # well before rank forces interpolation, so the first crossing is
    # informative only; the load-bearing claim is that everything from
    # the structural threshold n_train - 1 upward sits at the tolerance
    first_crossing = min(interp_degrees) if interp_degrees else None
    max_deg = int(p["max_degree"])
    high = [r for r in solved if r[0] >= p["n_train"]]
    at_threshold = [r for r in solved if r[0] >= p["n_train"] - 1]
    intermediate = [
        r for r in solved if p["min_degree"] < r[0] < max_deg
    ]

    predicates = {
        "degree_one_underfits": (
            1 in by_degree
            and by_degree[1][1] >= 1.0
            and by_degree[1][2] >= 0.1
        ),
        "interpolates_from_n_train": bool(high)
        and all(r[1] <= tol for r in high),
        "interpolates_from_threshold": bool(at_threshold)
        and all(r[1] <= tol for r in at_threshold),
        "test_rises_at_max_degree": (
            max_deg in by_degree
            and bool(intermediate)
            and by_degree[max_deg][2] > min(r[2] for r in intermediate)
        ),
        "condition_flags_fire": any(r[5] == "ill_conditioned" for r in solved),
        "exclusions_ok": excluded <= MAX_EXCLUSION_RATE * len(degrees),
    }
    aggregates = {
        "first_degree_within_tolerance": first_crossing,
        "best_intermediate_test_mse": (
            min(r[2] for r in intermediate) if intermediate else None
        ),
        "max_degree_test_mse": (
            by_degree[max_deg][2] if max_deg in by_degree else None
        ),
        "max_train_sse_past_threshold": (
            max(r[1] for r in high) if high else None
        ),
        "flagged_degrees": sum(1 for r in solved if r[5]),
    }
    trace_paths = []
    _write_csv(
        config,
        f"{config.scenario}_plot.csv",
        trace_paths,
        ["degree", "train_sse", "test_mse", "norm", "condition", "flag"],
        rows,
    )
    return _finish_report(config, 1, excluded, predicates, aggregates,
                          trace_paths, notes)


# ---------------------------------------------------------------------------
# toy deep net, blob data, perturb-and-reconverge


def _blob_data(rng, center, std, n_per_class) -> Dataset:
    c = np.asarray(center, dtype=float)
    xs, ys = [], []
    for sign, ctr in ((1.0, c), (-1.0, -c)):
        xs.append(rng.normal(0.0, std, size=(n_per_class, 2)) + ctr)
        ys.extend([sign] * n_per_class)
    return Dataset(np.vstack(xs), np.array(ys))


def toy_deepnet_perturbation(config: ExperimentConfig) -> ScenarioReport:
    """Small dense net on 2-d blobs under the perturbation protocol.

    Noise std is a quarter of each layer's weight std. Training error
    returns to zero every cycle, per-layer norms ratchet upward, and the
    held-out 0/1 risk drifts no better; an unperturbed control grows its
    norms only through the slow separable-loss divergence.
    """
    p = config.resolved()
    notes = []
    data_rng = np.random.default_rng(config.seed)
    train = _blob_data(data_rng, p["blob_center"], p["blob_std"],
                       p["n_train_per_class"])
    test = _blob_data(data_rng, p["blob_center"], p["blob_std"],
                      p["n_test_per_class"])
    refs = TraceRefs(test_data=test)
    proto = PerturbationProtocol(
        noise_std=p["noise_rel_std"],
        interval=int(p["interval"]),
        repetitions=int(p["cycles"]),
        mode="relative",
        per_coordinate=True,
    )
    reps = int(p["repetitions"])
    kind = p["loss"]

    def pretrained(rep):
        net = random_net(
            np.random.default_rng(config.seed + 1 + rep),
            tuple(p["dims"]),
            activation=p["activation"],
            scale=p["init_scale"],
        )
        state = FlowState(
            net=net, step=p["step"], rng_seed=config.seed + 500_000 + rep
        )
        state = flow_step(state, kind, train, int(p["pretrain_steps"]))
        return state, classification_error(state.net, train)

    pretrain = [pretrained(rep) for rep in range(reps)]
    states = [state for state, _ in pretrain]
    traces, included, trace_paths = [], [], []
    for rep, (state, train_error) in enumerate(pretrain):
        if train_error > 0.0:
            traces.append(None)
            included.append(False)
            notes.append(f"repetition {rep}: pretraining left errors")
            continue
        trace = perturb_and_reconverge(state, proto, kind, train, refs=refs)
        ok = not any(trace.row_flags)
        traces.append(trace)
        included.append(ok)
        _write_csv(config, f"{config.scenario}_rep{rep:02d}.csv",
                   trace_paths, trace.header(), trace.rows())

    excluded = included.count(False)
    keep = [t for t, ok in zip(traces, included) if ok]
    predicates = {"exclusions_ok": excluded <= MAX_EXCLUSION_RATE * reps}
    aggregates = {}
    if keep:
        norms = np.array([t.layer_norms for t in keep])  # rep x row x layer
        test01 = np.array([t.test_errors for t in keep], dtype=float)
        train01 = np.array([t.train_errors for t in keep], dtype=float)
        mean_norms = norms.mean(axis=0)
        mean_test = test01.mean(axis=0)
        inc = np.diff(mean_norms, axis=0)
        idx = np.arange(len(mean_test), dtype=float)
        slope = float(np.polyfit(idx, mean_test, 1)[0])
        predicates["train_error_zero_each_cycle"] = bool(
            (train01 == 0.0).all()
        )
        predicates["mean_layer_norms_increase_each_cycle"] = bool(
            (inc > 0.0).all()
        )
        predicates["test_risk_trend_nondecreasing"] = bool(
            slope >= -p["trend_slope_tol"]
            and mean_test[-1] >= mean_test[0] - 1e-12
        )
        aggregates.update(
            {
                "mean_layer_norms": mean_norms,
                "mean_test_error": mean_test,
                "std_test_error": test01.std(axis=0),
                "test_risk_slope_per_cycle": slope,
                "min_norm_increment": float(inc.min()),
            }
        )

        # control twin: same pretrained states flowed without noise
        ctrl_growth = []
        horizon = int(p["interval"]) * (int(p["cycles"]) + 1)
        for state in states[: int(p["control_repetitions"])]:
            base = np.array([float(np.sqrt((w * w).sum()))
                             for w in state.net.layers])
            fin = np.array([float(np.sqrt((w * w).sum())) for w in
                            flow_step(state, kind, train, horizon).net.layers])
            ctrl_growth.append(fin - base)
        ctrl = np.array(ctrl_growth).mean(axis=0)
        pert_growth = mean_norms[-1] - mean_norms[0]
        aggregates["control_growth"] = ctrl
        aggregates["perturbed_growth"] = pert_growth
        predicates["control_grows_slowly"] = bool(
            (ctrl >= -1e-9).all()
            and (pert_growth >= p["control_growth_factor"]
                 * np.maximum(ctrl, 0.0)).all()
        )
        cols = ["cycle"] + [
            f"mean_norm_l{k + 1}" for k in range(mean_norms.shape[1])
        ] + ["mean_train01", "mean_test01"]
        rows = [
            [i, *[float(v) for v in mean_norms[i]],
             float(train01.mean(axis=0)[i]), float(mean_test[i])]
            for i in range(mean_norms.shape[0])
        ]
        _write_csv(config, f"{config.scenario}_plot.csv", trace_paths, cols,
                   rows)
    else:
        predicates["exclusions_ok"] = False

    return _finish_report(config, reps, excluded, predicates, aggregates,
                          trace_paths, notes)


# ---------------------------------------------------------------------------
# single-sample growth asymptotics across depth


def growth_asymptotics(config: ExperimentConfig) -> ScenarioReport:
    """Per-layer scale growth of the single-sample separable flow.

    Depth one grows like log t; deeper stacks push the product of scales
    above log t (the excess keeps widening) while each individual layer
    falls ever further below it.
    """
    p = config.resolved()
    notes = []
    f_tilde = float(p["f_tilde"])
    t_grid = np.geomspace(p["t_min"], p["t_max"], int(p["grid_points"]))
    ks = tuple(int(k) for k in p["ks"])
    if any(k >= 2 for k in ks) and p["rho0"] <= 0.0:
        raise ValueError(
            "params.rho0: must be > 0 for depth >= 2 (zero scales are a "
            "fixed point of the growth dynamics)"
        )

    # the points each check reads besides t_grid; integrated in the same pass
    extra = {}
    if 1 in ks:
        sw = p["slope_window"]
        extra[1] = np.geomspace(sw[0], sw[1], int(p["slope_points"]))
    if 2 in ks:
        extra[2] = np.geomspace(max(p["t_min"], 0.1), p["t_max"],
                                int(p["closed_form_points"]))

    curves, at_extra, bad = {}, {}, []
    trace_paths = []
    for k in ks:
        rho0 = p["rho0_k1"] if k == 1 else p["rho0"]
        # sorted set, not np.union1d: np.unique imports numpy.ma (~1.6 MB)
        grid = np.array(sorted({*t_grid, *extra.get(k, ())}))
        rho = np.asarray(growth_numeric_trace(k, f_tilde, rho0, grid))
        if not np.all(np.isfinite(rho)) or np.any(np.diff(rho) < 0.0):
            bad.append(k)
            notes.append(f"k={k}: non-finite or decreasing growth curve")
        curves[k] = rho[np.searchsorted(grid, t_grid)]
        if k in extra:
            at_extra[k] = rho[np.searchsorted(grid, extra[k])]
        rows = [
            [float(t), float(np.log(t)), float(r), float(r**k)]
            for t, r in zip(t_grid, curves[k])
        ]
        _write_csv(config, f"{config.scenario}_k{k}.csv", trace_paths,
                   ["t", "log_t", "rho", "product"], rows)

    predicates = {"exclusions_ok": not bad}
    aggregates = {"t_max": p["t_max"]}
    log_tmax = float(np.log(p["t_max"]))

    if 1 in ks:
        slope = float(np.polyfit(np.log(extra[1]), at_extra[1], 1)[0])
        lo, hi = p["slope_band"]
        predicates["k1_slope_in_band"] = lo <= slope <= hi
        aggregates["k1_slope"] = slope

    if 2 in ks:
        rel = []
        for t, num in zip(extra[2], at_extra[2]):
            ref = growth_closed_form(2, f_tilde, float(t), p["rho0"])
            rel.append(abs(float(num) - ref) / max(abs(ref), 1e-300))
        worst = float(np.max(rel))  # a NaN propagates, unlike max()
        aggregates["k2_closed_form_max_rel_err"] = worst
        predicates["k2_matches_closed_form"] = worst <= p["li_rel_tol"]

    deep = [k for k in ks if k >= 2]
    tail = t_grid > np.e
    for k in deep:
        rho = curves[k]
        prod = rho**k
        excess = prod[tail] - np.log(t_grid[tail])
        layer_ratio = rho[tail] / np.log(t_grid[tail])
        predicates[f"k{k}_product_above_logt_at_tmax"] = (
            float(prod[-1]) > log_tmax
        )
        predicates[f"k{k}_layer_below_logt_at_tmax"] = (
            float(rho[-1]) < log_tmax
        )
        predicates[f"k{k}_excess_increasing"] = bool(
            (np.diff(excess) > 0.0).all()
        )
        predicates[f"k{k}_layer_ratio_decreasing"] = bool(
            (np.diff(layer_ratio) < 0.0).all()
        )
        aggregates[f"k{k}_product_at_tmax"] = float(prod[-1])
        aggregates[f"k{k}_rho_at_tmax"] = float(rho[-1])
    if len(deep) >= 2:
        lo_k, hi_k = min(deep), max(deep)
        predicates["deeper_product_faster"] = float(
            curves[hi_k][-1] ** hi_k
        ) > float(curves[lo_k][-1] ** lo_k)

    return _finish_report(config, 1, len(bad), predicates, aggregates,
                          trace_paths, notes)


# ---------------------------------------------------------------------------
# limit directions: exponential loss vs the margin oracle, square loss
# vs the minimum-norm oracle


def _separable_dataset(config, p, index, notes):
    """Blob pair that the through-origin margin oracle accepts; regenerate
    with a shifted seed on failure and log the count."""
    regen = 0
    for attempt in range(int(p["max_regenerations"])):
        rng = np.random.default_rng(
            config.seed + 131 * index + 10_007 * attempt
        )
        n_half = p["n_points"] // 2
        data = _blob_data(rng, p["blob_center"], p["blob_std"], n_half)
        try:
            margin = hard_margin_svm(data)
            if regen:
                notes.append(
                    f"dataset {index}: regenerated {regen} time(s)"
                )
            return data, margin, regen
        except NonSeparableError:
            regen += 1
    raise RuntimeError(
        f"dataset {index}: no separable draw in "
        f"{p['max_regenerations']} attempts"
    )


def convergence_direction_study(config: ExperimentConfig) -> ScenarioReport:
    """Init independence of the exponential-loss limit direction, against
    the init dependence of the square-loss limit point.

    Exponential flows from random inits all line up with the max-margin
    oracle; square-loss flows keep whatever null-space component the init
    carried, shifting the limit away from the minimum-norm solution by
    exactly that component.
    """
    p = config.resolved()
    notes = []
    target = float(p["cosine_target"])
    total_regen = 0
    per_dataset = []
    trace_paths = []
    for ds in range(int(p["n_datasets"])):
        data, margin, regen = _separable_dataset(config, p, ds, notes)
        total_regen += regen
        refs = TraceRefs(
            reference_direction=margin.w_tilde.astype(float)
        )
        finals = []
        for init in range(int(p["n_inits"])):
            rng = np.random.default_rng(config.seed + 100 * ds + init + 1)
            w0 = p["init_scale"] * rng.normal(size=(1, data.dim))
            state = FlowState(
                net=DeepNet((w0,), activation="relu", top_linear=True),
                step=p["step"],
            )
            out = run_flow(
                state, "exponential", data,
                StopRule(max_time=p["max_time"],
                         max_steps=int(p["max_steps"])),
                sample_every=1000,
                stepping="loss_rescaled",
                refs=refs,
            )
            w = out.final_state.net.layers[0].ravel()
            finals.append(w / np.sqrt(w @ w))
            if init == 0:
                _write_csv(config, f"{config.scenario}_ds{ds:02d}.csv",
                           trace_paths, out.header(), out.rows())
        finals = np.array(finals)
        oracle_cos = finals @ margin.w_tilde
        pair_cos = finals @ finals.T
        iu = np.triu_indices(len(finals), k=1)
        per_dataset.append(
            {
                "dataset": ds,
                "min_cosine_to_oracle": float(oracle_cos.min()),
                "min_pairwise_cosine": float(pair_cos[iu].min())
                if iu[0].size
                else 1.0,
                "margin": float(margin.margin),
            }
        )

    min_oracle = min(d["min_cosine_to_oracle"] for d in per_dataset)
    min_pair = min(d["min_pairwise_cosine"] for d in per_dataset)

    # square-loss contrast on an underdetermined linear problem
    sq_rng = np.random.default_rng(config.seed + 777)
    x_sq = sq_rng.normal(size=(int(p["square_samples"]), int(p["square_dim"])))
    y_sq = sq_rng.normal(size=int(p["square_samples"]))
    sq_data = Dataset(x_sq, y_sq, task="regression")
    gd = LinearSquareGD(x_sq, y_sq, p["square_step"])
    w_min = gd.w_min_norm
    c = gd.null_basis @ sq_rng.normal(size=gd.null_basis.shape[1])

    def square_limit(w0):
        state = FlowState(
            net=DeepNet((w0.reshape(1, -1),), activation="relu",
                        top_linear=True),
            step=p["square_step"],
        )
        out = run_flow(
            state, "square", sq_data,
            StopRule(max_steps=int(p["square_steps"]),
                     grad_norm_below=1e-12),
            sample_every=10_000,
        )
        return out.final_state.net.layers[0].ravel()

    w_zero = square_limit(np.zeros(int(p["square_dim"])))
    w_null = square_limit(c.copy())
    gap_zero = float(np.abs(w_zero - w_min).max())
    gap_null = float(np.abs(w_null - (w_min + c)).max())

    predicates = {
        "all_inits_match_oracle": min_oracle >= target,
        "pairwise_directions_agree": min_pair >= target,
        "square_zero_init_matches_min_norm": gap_zero <= p["square_tol"],
        "square_null_component_preserved": gap_null <= p["square_tol"],
        "exclusions_ok": True,
    }
    aggregates = {
        "per_dataset": per_dataset,
        "min_cosine_to_oracle": min_oracle,
        "min_pairwise_cosine": min_pair,
        "square_zero_init_gap": gap_zero,
        "square_null_init_gap": gap_null,
        "regenerated_datasets": total_regen,
    }
    _write_csv(
        config,
        f"{config.scenario}_plot.csv",
        trace_paths,
        ["dataset", "min_cosine_to_oracle", "min_pairwise_cosine", "margin"],
        [
            [d["dataset"], d["min_cosine_to_oracle"],
             d["min_pairwise_cosine"], d["margin"]]
            for d in per_dataset
        ],
    )
    return _finish_report(config, int(p["n_datasets"]), 0, predicates,
                          aggregates, trace_paths, notes)


SCENARIO_RUNNERS = {
    "sine_polynomial_perturbation": sine_polynomial_perturbation,
    "min_norm_degree_sweep": min_norm_degree_sweep,
    "toy_deepnet_perturbation": toy_deepnet_perturbation,
    "growth_asymptotics": growth_asymptotics,
    "convergence_direction_study": convergence_direction_study,
}


def run_scenario(config: ExperimentConfig) -> ScenarioReport:
    return SCENARIO_RUNNERS[config.scenario](config)
