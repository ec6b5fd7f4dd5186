"""Command-line front end.

Subcommands cover the one-shot primitives (flow, spectrum, svm) and the
scenario drivers (perturb, growth, sweep, direction). Configs are JSON,
one flat schema per subcommand; every output file embeds a header line
with the config hash and seed so reruns are byte-comparable.

Exit codes: 0 success, 1 validation or I/O error (message names the
offending field or path), 2 scenario predicate failure, 64 unknown
subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, fields

import numpy as np

from .experiments import (ExperimentConfig, _check_param, _json_text,
                          _write_json, run_header, run_scenario)
from .flow import FlowState, StopRule, run_flows, write_trace_csv
from .losses import LOSS_KINDS, Dataset
from .network import DeepNet, random_net
from .oracles import hard_margin_svm
from .spectra import classify, classify_loss_hessian, hessian, write_spectrum_csv

USAGE = """usage: gradflow <subcommand> --config FILE [--output-dir DIR] [--seed N] [-v]

subcommands:
  flow       integrate a gradient flow from a JSON spec, write the trace CSV
  spectrum   loss Hessian eigenvalues and stability classes at a point
  svm        brute-force hard-margin separator for a small dataset
  perturb    perturb-and-reconverge scenario (variant: sine or deepnet)
  growth     single-sample per-layer growth asymptotics scenario
  sweep      minimum-norm interpolation sweep across polynomial degree
  direction  limit-direction study: exponential vs square loss

environment: GRADFLOW_SEED is used when neither --seed nor the config
file provides one.
"""

SCENARIO_BY_COMMAND = {
    "growth": "growth_asymptotics",
    "sweep": "min_norm_degree_sweep",
    "direction": "convergence_direction_study",
}
PERTURB_VARIANTS = {
    "sine": "sine_polynomial_perturbation",
    "deepnet": "toy_deepnet_perturbation",
}
COMMANDS = ("flow", "spectrum", "svm", "perturb", "growth", "sweep",
            "direction")
# the keys each config object may hold; any other is refused by name
FLOW_KEYS = ("seed", "dataset", "net", "loss", "step", "lambdas",
             "sample_every", "stepping", "stop")
SPECTRUM_KEYS = ("seed", "dataset", "net", "loss", "lambdas", "convention",
                 "tol")
SVM_KEYS = ("seed", "dataset")
DATASET_KEYS = ("inputs", "labels", "task")
NET_KEYS = ("dims", "layers", "activation", "epsilon", "scale", "top_linear",
            "coefficients")
STOP_KEYS = tuple(f.name for f in fields(StopRule))


class CliError(ValueError):
    """Validation failure; the message names the offending field or path."""


def _load_config(path) -> dict:
    # open rather than test isfile: a pipe such as <(echo '{}') is no
    # regular file, yet readable
    try:
        with open(path) as fh:
            body = json.load(fh)
    except (FileNotFoundError, IsADirectoryError) as err:
        raise CliError(f"config: no such file: {path}") from err
    except json.JSONDecodeError as err:
        raise CliError(f"config: invalid JSON in {path}: {err}") from err
    if not isinstance(body, dict):
        raise CliError(f"config: top level of {path} must be an object")
    return body


def _resolve_seed(args, body) -> int:
    """The seed from --seed, else the config, else GRADFLOW_SEED, else 0.
    The config gives a JSON integer, the flag and the variable an integer
    string; anything else (2.9, true, "2.9") is refused, not truncated."""
    for source, value in (
        ("--seed", args.seed),
        ("seed", body.get("seed")),
        ("GRADFLOW_SEED", os.environ.get("GRADFLOW_SEED")),
    ):
        if value is None:
            continue
        if source == "seed":
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = re.fullmatch(r"\s*[+-]?[0-9]+\s*", value) is not None
        if not ok:
            raise CliError(f"{source}: not an integer: {value!r}")
        return int(value)
    return 0


def _check_keys(obj, allowed, prefix=""):
    for key in obj:
        if key not in allowed:
            raise CliError(f"{prefix}{key}: unknown key")


def _run_header(command, body, seed) -> str:
    return run_header(command,
                      {"command": command, "config": body, "seed": seed},
                      seed)


def _dataset_from(body) -> Dataset:
    obj = body.get("dataset")
    if not isinstance(obj, dict):
        raise CliError("dataset: required object with inputs and labels")
    _check_keys(obj, DATASET_KEYS, "dataset.")
    for key in ("inputs", "labels"):
        if key not in obj:
            raise CliError(f"dataset.{key}: required")
    try:
        return Dataset(
            np.asarray(obj["inputs"], dtype=float),
            np.asarray(obj["labels"], dtype=float),
            task=obj.get("task", "binary"),
        )
    except ValueError as err:
        raise CliError(f"dataset: {err}") from err


def _net_from(body, seed) -> DeepNet:
    obj = body.get("net")
    if not isinstance(obj, dict):
        raise CliError("net: required object with dims or layers")
    _check_keys(obj, NET_KEYS, "net.")
    if "layers" in obj:
        for key in ("dims", "scale"):
            if key in obj:
                raise CliError(f"net.{key}: cannot be combined with "
                               "net.layers")
    kwargs = {"activation": obj.get("activation", "relu")}
    if "coefficients" in obj:
        if kwargs["activation"] != "polynomial":
            raise CliError("net.coefficients: only for the polynomial "
                           f"activation, not {kwargs['activation']!r}")
        kwargs["coefficients"] = _check_param(
            "net.coefficients", obj["coefficients"], (0.0,))
    if "epsilon" in obj:
        kwargs["epsilon"] = _check_param("net.epsilon", obj["epsilon"], 0.0)
    if "top_linear" in obj:
        kwargs["top_linear"] = _check_param("net.top_linear",
                                            obj["top_linear"], False)
    dims = _check_param("net.dims", obj.get("dims", []), (0,))
    scale = _check_param("net.scale", obj.get("scale", 1.0), 0.0)
    try:
        if "layers" in obj:
            layers = tuple(
                np.atleast_2d(np.asarray(w, dtype=float)) for w in obj["layers"]
            )
            return DeepNet(layers, **kwargs)
        if "dims" in obj:
            return random_net(np.random.default_rng(seed), dims, scale=scale,
                              **kwargs)
    except ValueError as err:
        raise CliError(f"net: {err}") from err
    raise CliError("net: needs either dims or layers")


def _loss_kind(body) -> str:
    kind = body.get("loss")
    if kind not in LOSS_KINDS:
        raise CliError(f"loss: must be one of {LOSS_KINDS}, got {kind!r}")
    return kind


def _stop_rule(body) -> StopRule:
    obj = body.get("stop")
    if not isinstance(obj, dict):
        raise CliError("stop: required object with at least one bound")
    _check_keys(obj, STOP_KEYS, "stop.")
    if not obj:
        raise CliError("stop: at least one bound required")
    bounds = {key: None if value is None
              else _check_param(f"stop.{key}", value,
                                0 if key == "max_steps" else 0.0)
              for key, value in obj.items()}
    try:
        return StopRule(**bounds)
    except (TypeError, ValueError) as err:
        raise CliError(f"stop: {err}") from err


def _out(args, name) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def _cmd_flow(args, body, seed) -> int:
    _check_keys(body, FLOW_KEYS)
    header = _run_header("flow", body, seed)
    data = _dataset_from(body)
    net = _net_from(body, seed)
    if "step" not in body:
        raise CliError("step: required")
    step = _check_param("step", body["step"], 0.0)
    lambdas = _check_param("lambdas", body.get("lambdas", []), (0.0,))
    sample_every = _check_param("sample_every", body.get("sample_every", 100),
                                0)
    kind, stop = _loss_kind(body), _stop_rule(body)
    state = FlowState(net=net, step=step, lambdas=lambdas, rng_seed=seed)
    trace = run_flows([state], kind, data, stop, sample_every=sample_every,
                      stepping=body.get("stepping", "fixed"))[0]
    path = _out(args, "flow_trace.csv")
    write_trace_csv(trace, path, header_comment=header)
    print(f"wrote {path} ({len(trace.times)} rows, "
          f"stop: {trace.stop_reason})")
    for name, label in (("backtrack_giveups", "backtrack give-ups"),
                        ("floored_steps", "loss-floored steps"),
                        ("kink_events", "relu kinks")):
        if trace.counts[name]:
            print(f"{label}: {trace.counts[name]}")
    if args.verbose:
        print(f"final loss {trace.losses[-1]!r} at time {trace.times[-1]!r}")
    return 0


def _cmd_spectrum(args, body, seed) -> int:
    _check_keys(body, SPECTRUM_KEYS)
    header = _run_header("spectrum", body, seed)
    data = _dataset_from(body)
    net = _net_from(body, seed)
    lambdas = _check_param("lambdas", body.get("lambdas", []), (0.0,))
    convention = body.get("convention", "loss")
    if convention not in ("loss", "flow"):
        raise CliError(f"convention: must be loss or flow, got {convention!r}")
    tol = _check_param("tol", body.get("tol", 1e-8), 0.0)
    h_mat = hessian(_loss_kind(body), net, data, lambdas=lambdas)
    if convention == "loss":
        report = classify_loss_hessian(h_mat, tol=tol)
    else:
        report = classify(-h_mat, tol=tol)
    path = _out(args, "spectrum.csv")
    write_spectrum_csv(report, path, header_comment=header)
    stable, unstable, zero = report.counts()
    print(f"wrote {path} (stable {stable}, unstable {unstable}, "
          f"zero {zero})")
    return 0


def _cmd_svm(args, body, seed) -> int:
    _check_keys(body, SVM_KEYS)
    header = _run_header("svm", body, seed)
    data = _dataset_from(body)
    try:
        sol = hard_margin_svm(data)
    except ValueError as err:
        raise CliError(f"dataset: {err}") from err
    path = _out(args, "svm_solution.json")
    payload = {**asdict(sol), "header": header}
    _write_json(path, payload)
    print(f"wrote {path} (margin {sol.margin!r}, "
          f"{len(sol.support_indices)} support points)")
    if args.verbose:
        print(_json_text(payload))
    return 0


def _cmd_scenario(args, command, body, seed) -> int:
    if command == "perturb":
        variant = body.get("variant", "sine")
        if variant not in PERTURB_VARIANTS:
            known = ", ".join(sorted(PERTURB_VARIANTS))
            raise CliError(f"variant: unknown variant {variant!r}; "
                           f"known: {known}")
        scenario = PERTURB_VARIANTS[variant]
    else:
        scenario = SCENARIO_BY_COMMAND[command]
    params = {k: v for k, v in body.items() if k not in ("seed", "variant")}
    config = ExperimentConfig(scenario=scenario, seed=seed,
                              output_dir=args.output_dir, params=params)
    report = run_scenario(config)
    failed = sorted(k for k, v in report.predicates.items() if not v)
    print(f"{scenario}: {'pass' if report.passed else 'FAIL'} "
          f"({len(report.trace_paths)} files, "
          f"{report.excluded}/{report.repetitions} excluded)")
    if args.verbose:
        for key in sorted(report.predicates):
            print(f"  {key}: {'pass' if report.predicates[key] else 'FAIL'}")
        for note in report.notes:
            print(f"  note: {note}")
    if not report.passed:
        for key in failed:
            print(f"failed predicate: {key}", file=sys.stderr)
        return 2
    return 0


def _build_parser(command) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"gradflow {command}")
    parser.add_argument("--config", required=True)
    parser.add_argument("--output-dir", default=".")
    parser.add_argument("--seed", default=None)
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0
    if not argv or argv[0] not in COMMANDS:
        bad = argv[0] if argv else "(none)"
        print(f"unknown subcommand: {bad}", file=sys.stderr)
        print(USAGE, end="", file=sys.stderr)
        return 64
    command, rest = argv[0], argv[1:]
    parser = _build_parser(command)
    try:
        args = parser.parse_args(rest)
    except SystemExit as exc:
        # argparse already printed a message naming the flag
        return 0 if exc.code == 0 else 1
    try:
        body = _load_config(args.config)
        seed = _resolve_seed(args, body)
        if command == "flow":
            return _cmd_flow(args, body, seed)
        if command == "spectrum":
            return _cmd_spectrum(args, body, seed)
        if command == "svm":
            return _cmd_svm(args, body, seed)
        return _cmd_scenario(args, command, body, seed)
    except (CliError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
