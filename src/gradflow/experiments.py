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
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .flow import (
    LOSS_FLOOR,
    RECONVERGE_TOL,
    FlowState,
    LinearSquareGD,
    PerturbationProtocol,
    StopRule,
    TraceRefs,
    TraceRow,
    TrajectoryTrace,
    _write_table,
    growth_numeric_trace,
    run_flows,
    stacked_perturb_and_reconverge,
)
from .linalg import RANK_DEFICIENT, extended_min_norm_path
from .losses import Dataset
from .network import DeepNet, random_net
from .oracles import (
    MAX_SVM_SAMPLES,
    NonSeparableError,
    growth_closed_form,
    hard_margin_svm,
)

# a report fails outright past this exclusion rate, whatever else passed
MAX_EXCLUSION_RATE = 0.10
# params that may also be null: no time budget, only the step budget
NULLABLE_PARAMS = ("max_time",)
# bounds on a given number by its field's own name, in every command (ks for
# params.ks[0]): value >= floor, value > 0; other integers are counts >= 1.
# Two inits make a pair to compare; two grid points put one at t_max.
FLOORS = {"degree": 0, "min_degree": 0, "slope_points": 2, "blob_std": 0.0,
          "tol": 0.0, "lambdas": 0.0, "n_inits": 2, "grid_points": 2}
POSITIVE_PARAMS = ("step", "square_step", "noise_std", "noise_rel_std",
                   "f_tilde", "t_min", "slope_window", "max_time",
                   "stop_fraction")
# largest value a param may take: a fraction, and the points the margin
# oracle's subset enumeration is budgeted for
CEILINGS = {"stop_fraction": 1.0, "n_points": MAX_SVM_SAMPLES}
# integer params split evenly between two classes
EVEN_PARAMS = ("n_points",)
# (low, high) pairs of params with low <= high
ORDERED_PARAMS = (("min_degree", "max_degree"),
                  ("control_repetitions", "repetitions"), ("t_min", "t_max"))
# list params of exactly two entries: a 2-d blob center, a (low, high) window
PAIR_PARAMS = ("blob_center", "slope_window")
# the toy deepnet's choices: the binary losses, and the activations that
# need no polynomial coefficients (no param carries them)
CHOICE_PARAMS = {"loss": ("square", "exponential", "logistic"),
                 "activation": ("relu", "smoothed_relu", "linear")}

# The predicates' acceptance thresholds. They are fixed here, not scenario
# params, so that no config can turn a failing run into a pass; the sine's
# re-convergence tolerance is flow.RECONVERGE_TOL.
FLAT_TOL = 1e-4  # sine control: relative norm drift after the halfway mark
INTERP_TOL = 1e-8  # sweep: training SSE at which a fit interpolates
CONDITION_FLAG_THRESHOLD = 1e8  # sweep: condition number flagged ill
TREND_SLOPE_TOL = 1e-4  # toy deepnet: test-risk fall per cycle allowed
CONTROL_GROWTH_FACTOR = 2.0  # toy deepnet: perturbed over control growth
SLOPE_BAND = (0.95, 1.05)  # growth: depth-1 slope of rho against log t
LI_REL_TOL = 1e-3  # growth: depth-2 relative gap to the li closed form
COSINE_TARGET = 0.999  # direction: cosine to the oracle and pairwise
SQUARE_TOL = 1e-6  # direction: square-loss gap to its limit point

SCENARIO_DEFAULTS = {
    "sine_polynomial_perturbation": {
        "n_train": 9,
        "n_test": 100,
        "degree": 39,
        "frequency": 4.0,
        # per sample: the summed loss steps by step / n_train
        "step": 0.2,
        "interval": 120_000,
        "noise_std": 0.45,
        "total_steps": 10_000_000,
        "stop_fraction": 0.5,
        "repetitions": 29,
        "perturb": True,
        "init_scale": 0.0,
    },
    "min_norm_degree_sweep": {
        "min_degree": 1,
        "max_degree": 300,
        "n_train": 76,
        "n_test": 600,
        "frequency": 4.0,
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
        "closed_form_points": 9,
    },
    "convergence_direction_study": {
        "n_datasets": 10,
        "n_points": 12,
        "n_inits": 5,
        "blob_center": (1.0, 0.7),
        "blob_std": 0.5,
        "init_scale": 1.0,
        # loss-rescaled steps (dt = step / L): where a flow ends is set by
        # the horizon step * max_steps = 12,000, not by the step count.
        # The direction gap decays ~ 1/log t, so the horizon is generous;
        # near-degenerate margins advance slowly in log time and need all
        # of it (at seed 2 a margin-0.017 dataset is still at cosine
        # 0.9969 at horizon 4,000)
        "step": 1.6,
        "max_time": 1e150,
        "max_steps": 7_500,
        "square_samples": 4,
        "square_dim": 8,
        "square_step": 0.02,
        "square_steps": 200_000,
        "max_regenerations": 50,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario name, base seed, output directory, parameter overrides.

    Unknown parameter keys are rejected by name so a typo in a config
    file fails loudly instead of silently running defaults. _check_param
    types and bounds each given value; the rules here are of shape and
    between params: an odd EVEN_PARAMS count, a PAIR_PARAMS list without
    two entries, a CHOICE_PARAMS string outside its choices, toy deepnet
    dims not from 2 inputs to 1 output, growth ks empty or with a repeat or
    a depth >= 2 beside rho0 <= 0, ORDERED_PARAMS out of order, a
    perturbed sine run that stops perturbing before its first checkpoint,
    and direction-study or toy deepnet inits of scale 0.
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
        typed = {}
        for key, value in self.params.items():
            if key not in defaults:
                raise ValueError(
                    f"params.{key}: unknown parameter for {self.scenario}"
                )
            typed[key] = (value if value is None and key in NULLABLE_PARAMS
                          else _check_param(f"params.{key}", value,
                                            defaults[key]))
        # the typed values, so that 1 and 1.0 for a float are one config
        object.__setattr__(self, "params", typed)
        merged = {**defaults, **typed}
        for key, value in merged.items():
            if key in EVEN_PARAMS and value % 2:
                raise ValueError(f"params.{key}: must be even, got {value!r}")
            if key in PAIR_PARAMS and len(value) != 2:
                raise ValueError(
                    f"params.{key}: must have 2 entries, got {list(value)}")
            if key in CHOICE_PARAMS and value not in CHOICE_PARAMS[key]:
                raise ValueError(
                    f"params.{key}: must be one of "
                    f"{', '.join(CHOICE_PARAMS[key])}, got {value!r}")
            # the toy deepnet's 2-d blobs, one output
            if key == "dims" and (value[:1] != (2,) or value[-1:] != (1,)):
                raise ValueError("params.dims: must start at 2 and end "
                                 f"at 1, got {list(value)}")
            if key == "ks":
                if not value:
                    raise ValueError(
                        "params.ks: must name at least one depth, got []")
                if len(set(value)) < len(value):
                    raise ValueError("params.ks: depths must be distinct, "
                                     f"got {list(value)}")
                if max(value) >= 2 and merged["rho0"] <= 0.0:
                    raise ValueError(
                        "params.rho0: must be > 0 for depth >= 2 (zero scales "
                        "are a fixed point of the growth dynamics)")
        for low, high in ORDERED_PARAMS:
            if {low, high} <= merged.keys() and merged[high] < merged[low]:
                raise ValueError(
                    f"params.{high}: must be >= params.{low} "
                    f"({merged[low]!r}), got {merged[high]!r}"
                )
        # the sine study perturbs at its checkpoints before stop_after
        if "stop_fraction" in merged and merged["perturb"]:
            stop_after = int(merged["total_steps"] * merged["stop_fraction"])
            if stop_after <= merged["interval"]:
                raise ValueError(
                    "params.stop_fraction: perturbs nothing, since "
                    f"int(total_steps * stop_fraction) = {stop_after} is not "
                    f"above params.interval ({merged['interval']!r})")
        # the direction study compares the flows of distinct inits
        if "n_inits" in merged and merged["init_scale"] == 0.0:
            raise ValueError("params.init_scale: must be nonzero (at 0.0 "
                             "every init is the zero vector)")
        # a zero multilayer net is a fixed point of the toy deepnet's flow
        if "pretrain_steps" in merged and merged["init_scale"] == 0.0:
            raise ValueError("params.init_scale: must be nonzero (at 0.0 "
                             "the net is a fixed point of the flow)")

    def resolved(self) -> dict:
        return {**SCENARIO_DEFAULTS[self.scenario], **self.params}

    def _identity(self) -> dict:
        return {"scenario": self.scenario, "seed": self.seed,
                "params": self.resolved()}

    def config_hash(self) -> str:
        return _config_digest(self._identity())

    def header(self) -> str:
        return run_header(self.scenario, self._identity(), self.seed)


def _config_digest(body) -> str:
    """The first 12 hex digits of the sha256 of body as sorted-key JSON."""
    return hashlib.sha256(json.dumps(
        body, sort_keys=True, default=_json_default).encode()).hexdigest()[:12]


def run_header(name, body, seed) -> str:
    """The header line of every output file, scenario or one-shot command:
    its name, the digest of the config body that identifies the run, and
    its seed."""
    return f"scenario={name} config={_config_digest(body)} seed={seed}"


def _check_param(name, value, default):
    """value as default's type, refused by name unless it has that type: a
    bool for a bool, an integer for an integer count, any finite number
    (made a float) for a float, a string for a string, and a list (or
    tuple) of such entries (made a tuple) for a tuple. JSON's NaN and
    Infinity, and an integer too large for a float, are not finite. A number
    is then bounded, here only, by FLOORS, POSITIVE_PARAMS and CEILINGS
    under its field's own name (name's last part without an index); any other
    integer is a count of at least 1."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name}: must be a list, got {value!r}")
        return tuple(_check_param(f"{name}[{i}]", entry, default[0])
                     for i, entry in enumerate(value))
    if isinstance(default, bool):
        ok, kind = isinstance(value, (bool, np.bool_)), "true or false"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:
        types = (int, np.integer)
        if isinstance(default, float):
            types += (float, np.floating)
        ok = isinstance(value, types) and not isinstance(value, bool)
        kind = "a number" if isinstance(default, float) else "an integer"
    if not ok:
        raise ValueError(f"{name}: must be {kind}, got {value!r}")
    # a Python int compares exactly, so one past float's range fails too
    if isinstance(default, float) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name}: must be finite, got {value!r}")
    value = type(default)(value)
    field = name.rsplit(".", 1)[-1].split("[")[0]
    if field in POSITIVE_PARAMS and not value > 0:
        raise ValueError(f"{name}: must be > 0, got {value!r}")
    floor = FLOORS.get(field, 1 if type(default) is int else None)
    if floor is not None and value < floor:
        raise ValueError(f"{name}: must be >= {floor}, got {value!r}")
    ceiling = CEILINGS.get(field)
    if ceiling is not None and value > ceiling:
        raise ValueError(f"{name}: must be <= {ceiling}, got {value!r}")
    return value


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


def _json_default(obj):
    """json's hook for what it cannot write itself: numpy arrays as lists,
    numpy scalars as the Python values they hold."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def _json_text(body) -> str:
    """The one JSON layout: sorted keys, two-space indent."""
    return json.dumps(body, indent=2, sort_keys=True, default=_json_default)


def _write_json(path, body):
    """Write _json_text(body) and a final newline, with LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_json_text(body) + "\n")


def write_report_json(report: ScenarioReport, path, header: str):
    # Basenames only: reruns into a different directory stay byte-identical.
    _write_json(path, {
        **asdict(report), "passed": report.passed, "header": header,
        "trace_paths": [os.path.basename(p) for p in report.trace_paths]})


def chebyshev_nodes(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return np.cos((2.0 * i - 1.0) * np.pi / (2.0 * n))


def _sine_target(x, frequency):
    return np.sin(2.0 * np.pi * frequency * np.asarray(x, dtype=float))


def _monomials(x, degree):
    return np.vander(np.asarray(x, dtype=float), degree + 1, increasing=True)


class _Run:
    """One scenario run's record: its notes, the files it wrote and the
    header line every file starts with. A table is written as
    <scenario>_<name>.csv, and only when the run has an output directory;
    report() closes the run and writes the report JSON last."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.header = config.header()
        self.notes, self.paths = [], []

    def _path(self, name):
        """The path of the run's file <scenario>_<name>, made on first use;
        None without an output directory."""
        out = self.config.output_dir
        if out is None:
            return None
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, f"{self.config.scenario}_{name}")

    def table(self, name, columns, rows):
        path = self._path(f"{name}.csv")
        if path:
            _write_table(path, self.header, columns, rows)
            self.paths.append(path)

    def report(self, repetitions, excluded, predicates,
               aggregates) -> ScenarioReport:
        config = self.config
        report = ScenarioReport(
            scenario=config.scenario,
            seed=config.seed,
            config_hash=config.config_hash(),
            repetitions=repetitions,
            excluded=excluded,
            predicates=predicates,
            aggregates=aggregates,
            trace_paths=self.paths,
            notes=self.notes,
        )
        path = self._path("report.json")
        if path:
            write_report_json(report, path, self.header)
            self.paths.append(path)
        return report


# ---------------------------------------------------------------------------
# sine target, polynomial model, perturb-and-reconverge study


def sine_polynomial_perturbation(config: ExperimentConfig) -> ScenarioReport:
    """Polynomial regression on a sine, trained by exact square-loss GD,
    with periodic Gaussian weight perturbations through the first half of
    the schedule. The perturbed run grows its weight norm through a
    null-space random walk; the unperturbed control stays flat.

    The repetitions advance as the rows of one (R, d) stack: each
    checkpoint is one LinearSquareGD.propagate call for all of them, and
    every per-checkpoint quantity is one einsum or reduction over the
    stack, so a repetition's rows do not depend on how many run beside it.
    Repetition r draws its init and then one perturbation per event from
    its own generator, seeded seed + r.
    """
    p = config.resolved()
    run = _Run(config)
    x = chebyshev_nodes(p["n_train"])
    y = _sine_target(x, p["frequency"])
    design = _monomials(x, p["degree"])
    step = p["step"] / p["n_train"]
    gd = LinearSquareGD(design, y, step)
    if not gd.stable:
        run.notes.append(f"step {step:.4g} exceeds the GD stability limit")
    x_test = np.linspace(-1.0, 1.0, p["n_test"])
    test_design = _monomials(x_test, p["degree"])
    y_test = _sine_target(x_test, p["frequency"])
    null_basis = gd.null_basis
    null_dim = null_basis.shape[1]

    total = p["total_steps"]
    interval = p["interval"]
    if p["perturb"]:
        checkpoints = list(range(interval, total, interval)) + [total]
        stop_after = int(total * p["stop_fraction"])
    else:
        # ten evenly spaced checkpoints; the last two give the flatness check
        span = max(1, total // 10)
        checkpoints = list(range(span, total, span)) + [total]
        stop_after = 0
    sigma = p["noise_std"]
    dim = design.shape[1]
    reps = p["repetitions"]

    rngs = [np.random.default_rng(config.seed + rep) for rep in range(reps)]
    if p["init_scale"] != 0.0:
        w = p["init_scale"] * np.stack([rng.normal(size=dim) for rng in rngs])
    else:
        w = np.zeros((reps, dim))
    # (R, checkpoints) arrays, one column per checkpoint
    sse, test_mse, norms, null_norms = (np.empty((reps, len(checkpoints)))
                                        for _ in range(4))
    counts = np.zeros(len(checkpoints), dtype=int)
    done = 0
    for i, cp in enumerate(checkpoints):
        w = gd.propagate(w, cp - done)
        done = cp
        resid = np.einsum("nj,rj->rn", design, w) - y
        sse[:, i] = np.einsum("rn,rn->r", resid, resid)
        test_resid = np.einsum("nj,rj->rn", test_design, w) - y_test
        test_mse[:, i] = (test_resid**2).mean(axis=1)
        norms[:, i] = np.sqrt(np.einsum("rj,rj->r", w, w))
        null_norms[:, i] = np.sqrt(
            (np.einsum("jk,rj->rk", null_basis, w) ** 2).sum(axis=1))
        if p["perturb"] and cp < stop_after and cp < total:
            w = w + np.stack([rng.normal(0.0, sigma, size=dim)
                              for rng in rngs])
            counts[i + 1:] += 1
    train = sse / p["n_train"]
    # a perturbed repetition re-converges at every checkpoint, a control
    # one by the last; ~(<=), not >, since a NaN loss has not re-converged
    unconverged = ~(train <= RECONVERGE_TOL)
    included = ~(unconverged.any(axis=1) if p["perturb"]
                 else unconverged[:, -1])

    times = [cp * step for cp in checkpoints]
    for rep in range(reps):
        trace = TrajectoryTrace(layer_count=1, rows=[
            TraceRow(t, value, tr, te, (norm,), None, null, count)
            for t, value, tr, te, norm, null, count in zip(
                times, sse[rep].tolist(), train[rep].tolist(),
                test_mse[rep].tolist(), norms[rep].tolist(),
                null_norms[rep].tolist(), counts.tolist())])
        run.table(f"rep{rep:02d}", trace.header(), trace.csv_rows())

    excluded = reps - int(included.sum())
    predicates = {"exclusions_ok": excluded <= MAX_EXCLUSION_RATE * reps}
    aggregates = {"null_dimension": null_dim, "gd_stable": gd.stable}
    if included.any():
        train, test_mse = train[included], test_mse[included]
        norms, nulls2 = norms[included], null_norms[included] ** 2
        mean_train, mean_test = train.mean(axis=0), test_mse.mean(axis=0)
        mean_norm, mean_null_sq = norms.mean(axis=0), nulls2.mean(axis=0)
        aggregates.update(
            checkpoint_times=times,
            mean_train_error=mean_train,
            std_train_error=train.std(axis=0),
            mean_test_error=mean_test,
            std_test_error=test_mse.std(axis=0),
            mean_norm=mean_norm,
            std_norm=norms.std(axis=0),
            mean_null_sq=mean_null_sq,
            perturbation_counts=counts,
        )
        if p["perturb"]:
            # each event adds an independent Gaussian whose null component
            # re-convergence cannot touch, so null energy performs a
            # random walk with E = m * sigma^2 * null_dim
            prediction = counts * (sigma**2 * null_dim)
            aggregates["null_sq_prediction"] = prediction
            final_m = int(counts[-1])
            obs = float(mean_null_sq[-1])
            pred = float(prediction[-1])
            aggregates["final_null_sq_observed"] = obs
            aggregates["final_null_sq_predicted"] = pred
            predicates["train_reconverges_every_cycle"] = bool(
                (train <= RECONVERGE_TOL).all()
            )
            # through the first checkpoint after the last event; later rows
            # shed residual row-space noise and may dip by rounding-scale
            last_active = int(np.searchsorted(counts, final_m)) + 1
            predicates["mean_norm_nondecreasing_while_perturbing"] = bool(
                (np.diff(mean_norm[:last_active]) >= -1e-9).all()
            )
            predicates["null_walk_within_20pct"] = (
                pred > 0 and abs(obs / pred - 1.0) <= 0.2
            )
        else:
            half = len(checkpoints) // 2
            rel = abs(mean_norm[-1] - mean_norm[half]) / (1.0 + mean_norm[-1])
            aggregates["norm_drift_after_halfway"] = float(rel)
            predicates["train_converges"] = bool(
                (train[:, -1] <= RECONVERGE_TOL).all()
            )
            predicates["norms_flat_after_convergence"] = bool(rel <= FLAT_TOL)
        cols = ["checkpoint", "time", "mean_train_error", "mean_test_error",
                "mean_norm", "mean_null_sq", "perturbation_count"]
        rows = zip(range(len(times)), times, mean_train.tolist(),
                   mean_test.tolist(), mean_norm.tolist(),
                   mean_null_sq.tolist(), counts.tolist())
        run.table("plot", cols, rows)

    return run.report(reps, excluded, predicates, aggregates)


# ---------------------------------------------------------------------------
# minimum-norm interpolation across polynomial degree


def min_norm_degree_sweep(config: ExperimentConfig) -> ScenarioReport:
    """Minimum-norm polynomial fits of the sine target across degrees.

    Underfits at low degree, interpolates from degree n_train - 1 on, and
    overfits again at the top of the range. Monomial features make the
    solve catastrophically ill-conditioned past a few dozen degrees, so
    every degree is read off one extended-precision path solve and carries
    a conditioning flag; a degree the path refuses as rank deficient is an
    exclusion. Residuals are accumulated in long double because
    coefficients ~1e10 shred float64 evaluation.
    """
    p = config.resolved()
    run = _Run(config)
    x = chebyshev_nodes(p["n_train"])
    y = _sine_target(x, p["frequency"])
    x_test = np.linspace(-1.0, 1.0, p["n_test"])
    y_test = _sine_target(x_test, p["frequency"])
    min_deg, max_deg = p["min_degree"], p["max_degree"]
    degrees = range(min_deg, max_deg + 1)
    # long-double features at every degree: column slices of these
    v_ld = np.vander(x.astype(np.longdouble), max_deg + 1, increasing=True)
    vt_ld = np.vander(x_test.astype(np.longdouble), max_deg + 1,
                      increasing=True)
    fits = extended_min_norm_path(_monomials(x, max_deg), y, min_deg + 1)

    rows = []
    for deg, solved in zip(degrees, fits):
        if solved is None:
            run.notes.append(f"degree {deg}: {RANK_DEFICIENT}")
            rows.append([deg, None, None, None, None, "rank_deficient"])
            continue
        w, cond = solved
        w_ld = w.astype(np.longdouble)
        # long double: np.dot, not @ (same bits, faster; see linalg)
        train_sse = float(((np.dot(v_ld[:, :deg + 1], w_ld) - y) ** 2).sum())
        test_mse = float(
            ((np.dot(vt_ld[:, :deg + 1], w_ld) - y_test) ** 2).mean())
        flag = "ill_conditioned" if cond >= CONDITION_FLAG_THRESHOLD else ""
        rows.append(
            [deg, train_sse, test_mse, float(np.sqrt(w @ w)), cond, flag]
        )

    solved = [r for r in rows if r[1] is not None]
    excluded = len(rows) - len(solved)
    by_degree = {r[0]: r for r in solved}
    interp_degrees = [r[0] for r in solved if r[1] <= INTERP_TOL]
    # the analytic target lets plain approximation cross the tolerance
    # well before rank forces interpolation, so the first crossing is
    # informative only; the load-bearing claim is that everything from
    # the structural threshold n_train - 1 upward sits at the tolerance
    first_crossing = min(interp_degrees) if interp_degrees else None
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
        and all(r[1] <= INTERP_TOL for r in high),
        "interpolates_from_threshold": bool(at_threshold)
        and all(r[1] <= INTERP_TOL for r in at_threshold),
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
    run.table("plot", ["degree", "train_sse", "test_mse", "norm",
                       "condition", "flag"], rows)
    return run.report(len(degrees), excluded, predicates, aggregates)


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
    run = _Run(config)
    data_rng = np.random.default_rng(config.seed)
    train = _blob_data(data_rng, p["blob_center"], p["blob_std"],
                       p["n_train_per_class"])
    test = _blob_data(data_rng, p["blob_center"], p["blob_std"],
                      p["n_test_per_class"])
    refs = TraceRefs(test_data=test)
    proto = PerturbationProtocol(
        noise_std=p["noise_rel_std"],
        interval=p["interval"],
        repetitions=p["cycles"],
    )
    reps = p["repetitions"]
    kind = p["loss"]

    # one stacked call per phase: pretrain every repetition, then run the
    # protocol on those that pretrained to zero training error, with the
    # control twins (the first pretrained states, whatever their error)
    # flowing unperturbed in the same stack
    pretrain_steps = p["pretrain_steps"]
    pretrained = run_flows([
        FlowState(
            net=random_net(np.random.default_rng(config.seed + 1 + rep),
                           p["dims"], activation=p["activation"],
                           scale=p["init_scale"]),
            step=p["step"], rng_seed=config.seed + 500_000 + rep,
        )
        for rep in range(reps)
    ], kind, train, StopRule(max_steps=pretrain_steps),
        sample_every=pretrain_steps)
    states = [trace.final_state for trace in pretrained]
    ready = []
    for rep, trace in enumerate(pretrained):
        if trace.rows[-1].train_error > 0.0:
            run.notes.append(f"repetition {rep}: pretraining left errors")
        else:
            ready.append(rep)
    traces, controls = [None] * reps, []
    if ready:
        protocol_traces = stacked_perturb_and_reconverge(
            [states[rep] for rep in ready], proto, kind, train, refs=refs,
            controls=states[: p["control_repetitions"]])
        for rep, trace in zip(ready, protocol_traces):
            traces[rep] = trace
        controls = protocol_traces[len(ready):]
    included = []
    for rep, trace in enumerate(traces):
        included.append(trace is not None
                        and not any(row.flag for row in trace.rows))
        if trace is not None:
            run.table(f"rep{rep:02d}", trace.header(), trace.csv_rows())

    excluded = included.count(False)
    keep = [t for t, ok in zip(traces, included) if ok]
    predicates = {"exclusions_ok": excluded <= MAX_EXCLUSION_RATE * reps}
    aggregates = {}
    if keep:
        table = [t.rows for t in keep]  # rep x row
        norms = np.array([[r.norms for r in rs] for rs in table])  # x layer
        test01 = np.array([[r.test_error for r in rs] for rs in table])
        train01 = np.array([[r.train_error for r in rs] for rs in table])
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
            slope >= -TREND_SLOPE_TOL
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

        # control twins: the same pretrained states flowed without noise
        ctrl = np.array([np.subtract(twin.rows[-1].norms, twin.rows[0].norms)
                         for twin in controls]).mean(axis=0)
        pert_growth = mean_norms[-1] - mean_norms[0]
        aggregates["control_growth"] = ctrl
        aggregates["perturbed_growth"] = pert_growth
        predicates["control_grows_slowly"] = bool(
            (ctrl >= -1e-9).all()
            and (pert_growth >= CONTROL_GROWTH_FACTOR
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
        run.table("plot", cols, rows)

    return run.report(reps, excluded, predicates, aggregates)


# ---------------------------------------------------------------------------
# single-sample growth asymptotics across depth


def growth_asymptotics(config: ExperimentConfig) -> ScenarioReport:
    """Per-layer scale growth of the single-sample separable flow.

    Depth one grows like log t; deeper stacks push the product of scales
    above log t (the excess keeps widening) while each individual layer
    falls ever further below it. Its params are checked by ExperimentConfig.
    """
    p = config.resolved()
    run = _Run(config)
    f_tilde = p["f_tilde"]
    t_grid = np.geomspace(p["t_min"], p["t_max"], p["grid_points"])
    ks = p["ks"]

    # the points each check reads besides t_grid; integrated in the same pass
    extra = {}
    if 1 in ks:
        sw = p["slope_window"]
        extra[1] = np.geomspace(sw[0], sw[1], p["slope_points"])
    if 2 in ks:
        extra[2] = np.geomspace(max(p["t_min"], 0.1), p["t_max"],
                                p["closed_form_points"])

    curves, at_extra, bad = {}, {}, []
    for k in ks:
        rho0 = p["rho0_k1"] if k == 1 else p["rho0"]
        # sorted set, not np.union1d: np.unique imports numpy.ma (~1.6 MB)
        grid = np.array(sorted({*t_grid, *extra.get(k, ())}))
        rho = np.asarray(growth_numeric_trace(k, f_tilde, rho0, grid))
        if not np.all(np.isfinite(rho)) or np.any(np.diff(rho) < 0.0):
            bad.append(k)
            run.notes.append(f"k={k}: non-finite or decreasing growth curve")
        curves[k] = rho[np.searchsorted(grid, t_grid)]
        if k in extra:
            at_extra[k] = rho[np.searchsorted(grid, extra[k])]
        rows = [
            [float(t), float(np.log(t)), float(r), float(r**k)]
            for t, r in zip(t_grid, curves[k])
        ]
        run.table(f"k{k}", ["t", "log_t", "rho", "product"], rows)

    predicates = {"exclusions_ok": not bad}
    aggregates = {"t_max": p["t_max"]}
    log_tmax = float(np.log(p["t_max"]))

    if 1 in ks:
        slope = float(np.polyfit(np.log(extra[1]), at_extra[1], 1)[0])
        lo, hi = SLOPE_BAND
        predicates["k1_slope_in_band"] = lo <= slope <= hi
        aggregates["k1_slope"] = slope

    if 2 in ks:
        rel = []
        for t, num in zip(extra[2], at_extra[2]):
            ref = growth_closed_form(2, f_tilde, float(t), p["rho0"])
            rel.append(abs(float(num) - ref) / max(abs(ref), 1e-300))
        worst = float(np.max(rel))  # a NaN propagates, unlike max()
        aggregates["k2_closed_form_max_rel_err"] = worst
        predicates["k2_matches_closed_form"] = worst <= LI_REL_TOL

    deep = [k for k in ks if k >= 2]
    tail = t_grid > np.e
    trend = np.count_nonzero(tail) >= 2  # a trend needs two points past e
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
        predicates[f"k{k}_excess_increasing"] = trend and bool(
            (np.diff(excess) > 0.0).all()
        )
        predicates[f"k{k}_layer_ratio_decreasing"] = trend and bool(
            (np.diff(layer_ratio) < 0.0).all()
        )
        aggregates[f"k{k}_product_at_tmax"] = float(prod[-1])
        aggregates[f"k{k}_rho_at_tmax"] = float(rho[-1])
    if len(deep) >= 2:
        lo_k, hi_k = min(deep), max(deep)
        predicates["deeper_product_faster"] = float(
            curves[hi_k][-1] ** hi_k
        ) > float(curves[lo_k][-1] ** lo_k)

    return run.report(len(ks), len(bad), predicates, aggregates)


# ---------------------------------------------------------------------------
# limit directions: exponential loss vs the margin oracle, square loss
# vs the minimum-norm oracle


def _separable_dataset(config, p, index, notes):
    """Blob pair that the through-origin margin oracle accepts; regenerate
    with a shifted seed on failure and log the count."""
    regen = 0
    for attempt in range(p["max_regenerations"]):
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
    raise ValueError(
        f"params.max_regenerations: dataset {index} found no separable draw "
        f"in {p['max_regenerations']} attempts"
    )


def convergence_direction_study(config: ExperimentConfig) -> ScenarioReport:
    """Init independence of the exponential-loss limit direction, against
    the init dependence of the square-loss limit point.

    Exponential flows from random inits all line up with the max-margin
    oracle; square-loss flows keep whatever null-space component the init
    carried, shifting the limit away from the minimum-norm solution by
    exactly that component.

    All n_datasets x n_inits exponential flows run as one stacked flow.
    Excluded: exponential flows whose backtracking gave up at some step,
    and square-loss flows that stopped before their gradient-norm target.
    A flow that ends at max_steps is not excluded; the exponential flows
    are meant to run into the step budget. Steps taken on the loss floor
    are counted in floored_steps and noted, never excluded.
    """
    p = config.resolved()
    run = _Run(config)
    n_datasets, n_inits = p["n_datasets"], p["n_inits"]
    drawn = [_separable_dataset(config, p, ds, run.notes)
             for ds in range(n_datasets)]
    total_regen = sum(regen for _, _, regen in drawn)

    # every (dataset, init) pair is one member of a single stacked flow
    states, datasets, refs = [], [], []
    for ds, (data, margin, _) in enumerate(drawn):
        ref = TraceRefs(reference_direction=margin.w_tilde.astype(float))
        for init in range(n_inits):
            rng = np.random.default_rng(config.seed + 100 * ds + init + 1)
            w0 = p["init_scale"] * rng.normal(size=(1, data.dim))
            states.append(FlowState(
                net=DeepNet((w0,), activation="relu", top_linear=True),
                step=p["step"],
            ))
            datasets.append(data)
            refs.append(ref)
    outs = run_flows(
        states, "exponential", datasets,
        StopRule(max_time=p["max_time"], max_steps=p["max_steps"]),
        sample_every=1000,
        stepping="loss_rescaled",
        refs=refs,
    )
    # a flow whose backtracking gave up took a step that raised the loss
    excluded = sum(out.counts["backtrack_giveups"] > 0 for out in outs)
    floored = sum(out.counts["floored_steps"] for out in outs)
    if floored:
        run.notes.append(f"{floored} exponential flow step(s) taken at a loss "
                     f"below LOSS_FLOOR = {LOSS_FLOOR:.0e}")

    per_dataset = []
    for ds, (_, margin, _) in enumerate(drawn):
        members = outs[ds * n_inits:(ds + 1) * n_inits]
        run.table(f"ds{ds:02d}", members[0].header(), members[0].csv_rows())
        finals = []
        for out in members:
            w = out.final_state.net.layers[0].ravel()
            finals.append(w / np.sqrt(w @ w))
        finals = np.array(finals)
        oracle_cos = finals @ margin.w_tilde
        pair_cos = finals @ finals.T
        iu = np.triu_indices(len(finals), k=1)
        per_dataset.append(
            {
                "dataset": ds,
                "min_cosine_to_oracle": float(oracle_cos.min()),
                "min_pairwise_cosine": float(pair_cos[iu].min()),
                "margin": float(margin.margin),
            }
        )

    min_oracle = min(d["min_cosine_to_oracle"] for d in per_dataset)
    min_pair = min(d["min_pairwise_cosine"] for d in per_dataset)

    # square-loss contrast on an underdetermined linear problem
    sq_rng = np.random.default_rng(config.seed + 777)
    x_sq = sq_rng.normal(size=(p["square_samples"], p["square_dim"]))
    y_sq = sq_rng.normal(size=p["square_samples"])
    sq_data = Dataset(x_sq, y_sq, task="regression")
    gd = LinearSquareGD(x_sq, y_sq, p["square_step"])
    w_min = gd.w_min_norm
    c = gd.null_basis @ sq_rng.normal(size=gd.null_basis.shape[1])

    # one flow from zero, one from the null-space component c
    squares = run_flows(
        [FlowState(net=DeepNet((w0.reshape(1, -1),), activation="relu",
                               top_linear=True),
                   step=p["square_step"])
         for w0 in (np.zeros(p["square_dim"]), c)],
        "square", sq_data,
        StopRule(max_steps=p["square_steps"], grad_norm_below=1e-12),
        sample_every=10_000,
    )
    # a square-loss flow stopped short of its limit says nothing about it
    excluded += sum(out.stop_reason != "grad_norm_below" for out in squares)
    w_zero, w_null = (out.final_state.net.layers[0].ravel() for out in squares)
    gap_zero = float(np.abs(w_zero - w_min).max())
    gap_null = float(np.abs(w_null - (w_min + c)).max())

    predicates = {
        "all_inits_match_oracle": min_oracle >= COSINE_TARGET,
        "pairwise_directions_agree": min_pair >= COSINE_TARGET,
        "square_zero_init_matches_min_norm": gap_zero <= SQUARE_TOL,
        "square_null_component_preserved": gap_null <= SQUARE_TOL,
        "exclusions_ok": excluded <= MAX_EXCLUSION_RATE * n_datasets,
    }
    aggregates = {
        "per_dataset": per_dataset,
        "min_cosine_to_oracle": min_oracle,
        "min_pairwise_cosine": min_pair,
        "square_zero_init_gap": gap_zero,
        "square_null_init_gap": gap_null,
        "regenerated_datasets": total_regen,
        "floored_steps": floored,
    }
    cols = ["dataset", "min_cosine_to_oracle", "min_pairwise_cosine",
            "margin"]
    run.table("plot", cols, [[d[c] for c in cols] for d in per_dataset])
    return run.report(len(outs) + len(squares), excluded, predicates,
                      aggregates)


def run_scenario(config: ExperimentConfig) -> ScenarioReport:
    """Run the module function named config.scenario, looked up at call
    time, so that a wrapper or a stub bound to that name is what runs."""
    return globals()[config.scenario](config)
