"""Benchmark of the gradflow CLI, one workload per process.

    python3 bench/run.py --workload {deepnet,direction,analysis} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src. The
process is a closed loop with one client: it repeats one identical op (a
fixed list of ``gradflow.cli.main`` invocations at the run's scenario seed)
until S seconds have passed. Every invocation is timed between two timings
of the reference kernel in refkernel.py and costed in its units ("ref").

The first op's output files are checked (workloads.py); every later op's
files must hash equal to the first op's. An op whose invocation exits
non-zero or raises, whose checks fail, or whose files differ, counts as
failed.

--trace 0 prints the end-to-end metrics: op_cost_ref, setup_s and
peak_rss_mb. --trace 1 spends the first half of the run untraced and the
second half with tracer.py installed, and prints the per-layer metrics and
the tracing overhead. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import refkernel  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60
# A bare process that only imports numpy; on the reference host (README.md)
# it is ready after BARE_SPAWN_S seconds, median of 20. Process start-up
# follows the host's speed far more closely than the kernel does.
BARE_ARGV = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
BARE_SPAWN_S = 0.148

# (metric, unit); "calls" and "self_ref" come from the tracer's counters
LAYER_METRICS = [
    ("flow.run_flow.calls", "count"),
    ("flow.run_flow.self_ref", "ref"),
    ("flow.perturb_and_reconverge.self_ref", "ref"),
    ("losses.loss_and_gradient.calls", "count"),
    ("losses.loss_and_gradient.self_ref", "ref"),
    ("losses.loss.calls", "count"),
    ("losses.classification_error.calls", "count"),
    ("network.DeepNet.with_layers.calls", "count"),
    ("network.DeepNet.with_layers.self_ref", "ref"),
    ("linalg.symmetric_eig.calls", "count"),
    ("linalg.symmetric_eig.self_ref", "ref"),
    ("linalg.symmetric_eig.max_dim", "count"),
    ("linalg.extended_min_norm.calls", "count"),
    ("linalg.extended_min_norm.self_ref", "ref"),
    ("linalg.extended_min_norm.rank_deficient", "count"),
    ("linalg.min_norm_least_squares.calls", "count"),
    ("oracles.logarithmic_integral.calls", "count"),
    ("oracles.logarithmic_integral.self_ref", "ref"),
    ("oracles.inverse_logarithmic_integral.calls", "count"),
    ("oracles.hard_margin_svm.calls", "count"),
    ("oracles.hard_margin_svm.self_ref", "ref"),
    ("spectra.hessian.self_ref", "ref"),
    ("spectra.classify.self_ref", "ref"),
    ("flow.growth_numeric_trace.calls", "count"),
    ("flow.growth_numeric_trace.self_ref", "ref"),
    ("experiments.run_scenario.self_ref", "ref"),
    ("flow.write_trace_csv.calls", "count"),
    ("flow.write_trace_csv.self_ref", "ref"),
    ("cli.main.self_ref", "ref"),
    ("trace_overhead", "ratio"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("deepnet", "direction", "analysis"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up into DIR, print "ready" and exit (times setup_s)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import gradflow from ./src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "gradflow", "cli.py")):
        raise SystemExit(f"bench: no gradflow sources under {SRC}; run from "
                         "the root of a checkout")
    sys.path.insert(0, SRC)
    import gradflow.cli

    if not os.path.abspath(gradflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported gradflow from {gradflow.__file__}")
    return gradflow


def set_up(workload, seed, run_dir):
    """Imports, inputs and config files: everything before the first op.

    Returns (package, [(command, config path, config)]).
    """
    package = import_program()
    os.makedirs(run_dir, exist_ok=True)
    plan = []
    for i, inv in enumerate(workloads.invocations(workload, seed)):
        path = os.path.join(run_dir, f"config{i}-{inv.command}.json")
        with open(path, "w") as fh:
            json.dump(inv.config, fh)
        plan.append((inv.command, path, inv.config))
    return package, plan


def spawn_until_ready(argv) -> float:
    """Seconds from spawning argv until it prints its "ready" line."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"bench: {argv[1]} process failed "
                         f"(exit {child.returncode})")
    return elapsed


def time_setups(args, run_dir):
    """Set-up time: spawning a fresh workload process until it is ready
    for its first op. Each spawn sits between two bare numpy spawns and is
    scaled by them to the reference host's speed.

    Returns (median scaled seconds, median raw seconds).
    """
    bare = [spawn_until_ready(BARE_ARGV)]
    scaled, raw = [], []
    for k in range(SETUP_SAMPLES):
        seconds = spawn_until_ready(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only", os.path.join(run_dir, f"setup{k}")])
        bare.append(spawn_until_ready(BARE_ARGV))
        raw.append(seconds)
        scaled.append(seconds * BARE_SPAWN_S / (0.5 * (bare[-2] + bare[-1])))
    return statistics.median(scaled), statistics.median(raw)


def tree_digest(path) -> str:
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def invoke(package, argv):
    """One CLI invocation, output captured. Returns (ok, captured text)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = package.cli.main(argv)
        except Exception as err:  # a crash is a failed op, not a dead run
            code = f"{type(err).__name__}: {err}"
    if code != 0:
        return False, f"{sink.getvalue()}exit: {code}"
    return True, sink.getvalue()


def run_op(package, plan, seed, op_dir, tracer=None):
    """One op. Returns a record with its cost in ref and raw seconds, and,
    when traced, the layer counters costed by each invocation's kernel."""
    record = {"ref": 0.0, "seconds": 0.0, "kernel": [], "ok": True,
              "dirs": [], "layers": {}}
    for i, (command, config_path, _) in enumerate(plan):
        out = os.path.join(op_dir, f"{i}-{command}")
        argv = [command, "--config", config_path, "--seed", str(seed),
                "--output-dir", out]
        if tracer is None:
            (ok, text), seconds, kernel = refkernel.timed(
                lambda: invoke(package, argv))
        else:
            tracer.reset()
            (ok, text), seconds, kernel = refkernel.timed(
                lambda: tracer.traced(invoke, package, argv),
                on_sample=tracer.exclude)
            add_layers(record["layers"], tracer, kernel)
        record["ref"] += seconds / kernel
        record["seconds"] += seconds
        record["kernel"].append(kernel)
        record["dirs"].append(out)
        if not ok:
            record["ok"] = False
            print(f"bench: gradflow {command} failed:\n{text}",
                  file=sys.stderr)
    return record


def add_layers(layers, tracer, kernel):
    """Fold one traced invocation into an op's layer metrics."""
    for name, n in tracer.calls.items():
        layers[f"{name}.calls"] = layers.get(f"{name}.calls", 0) + n
    for name, s in tracer.self_seconds.items():
        key = f"{name}.self_ref"
        layers[key] = layers.get(key, 0.0) + s / kernel
    for name, n in tracer.events.items():
        layers[name] = layers.get(name, 0) + n
    for name, n in tracer.gauges.items():
        layers[name] = max(layers.get(name, 0), n)


def svm_check(package, seed, run_dir) -> list:
    """Once per run: gradflow svm against the benchmark's own search."""
    config = workloads.svm_inputs(seed)
    path = os.path.join(run_dir, "svm-config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    out = os.path.join(run_dir, "svm")
    ok, text = invoke(package, ["svm", "--config", path, "--seed", str(seed),
                                "--output-dir", out])
    if not ok:
        return [f"svm: gradflow svm failed: {text}"]
    return workloads.check_svm(out, config)


def run(args):
    seed = workloads.scenario_seed(args.seed)
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    try:
        setup = None if args.trace else time_setups(args, run_dir)
        package, plan = set_up(args.workload, seed, run_dir)
        return measure(args, seed, package, plan, run_dir, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, seed, package, plan, run_dir, setup):
    start = time.perf_counter()
    deadline = start + args.seconds
    traced_from = start + args.seconds / 2 if args.trace else None
    tracer = None
    ops, problems = [], []
    first_digest = None
    while True:
        if tracer is None and traced_from is not None and ops and (
                time.perf_counter() >= traced_from):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(package)
        op_dir = os.path.join(run_dir, f"op{len(ops):03d}")
        record = run_op(package, plan, seed, op_dir, tracer)
        record["traced"] = tracer is not None
        if record["ok"]:
            digest = tree_digest(op_dir)
            if first_digest is None:
                first_digest = digest
                try:
                    found = workloads.check(args.workload, record["dirs"],
                                            [cfg for _, _, cfg in plan])
                    if args.workload == "direction":
                        found += svm_check(package, seed, run_dir)
                except Exception:  # unreadable outputs fail the check
                    found = [f"outputs unreadable:\n{traceback.format_exc()}"]
                problems += found
                record["ok"] = not found
            elif digest != first_digest:
                record["ok"] = False
                problems.append(f"op {len(ops)}: output files differ from "
                                "the first op's")
        shutil.rmtree(op_dir, ignore_errors=True)
        ops.append(record)
        now = time.perf_counter()
        if now >= deadline and (tracer is not None or not args.trace):
            break
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)

    plain = _ok_or_all([r for r in ops if not r["traced"]])
    cost = statistics.median(r["ref"] for r in plain)
    raw = statistics.median(r["seconds"] for r in plain)
    kernel = statistics.median(k for r in plain for k in r["kernel"])
    print(f"# {args.workload} seed {args.seed} (scenario seed {seed}): "
          f"{len(ops)} ops, median {cost:.4g} ref = {raw:.4g} s raw, "
          f"kernel {kernel * 1e3:.4g} ms")
    if setup is not None:
        print(f"# set-up {setup[1]:.4g} s raw, {setup[0]:.4g} s at the "
              "reference host's speed")
    if args.trace:
        metrics = layer_metrics(_ok_or_all([r for r in ops if r["traced"]]),
                                cost)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_cost_ref": {"value": cost, "unit": "ref"},
            "setup_s": {"value": setup[0], "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": len(ops),
            "failed": sum(1 for r in ops if not r["ok"]), "metrics": metrics}


def _ok_or_all(records):
    """The records of ops that did not fail, or all if every one failed."""
    return [r for r in records if r["ok"]] or records


def layer_metrics(traced, plain_cost):
    """Medians over the traced ops; counts repeat exactly between ops."""
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace_overhead":
            value = statistics.median(r["ref"] for r in traced) / plain_cost
        else:
            value = statistics.median(r["layers"].get(name, 0)
                                      for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    counts = [{k: v for k, v in r["layers"].items() if k.endswith(".calls")}
              for r in traced]
    if any(c != counts[0] for c in counts):
        print("bench: call counts differ between traced ops",
              file=sys.stderr)
    return metrics


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_only:
        set_up(args.workload, workloads.scenario_seed(args.seed),
               args.setup_only)
        print("ready", flush=True)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
