"""Self-tests of the benchmark's own parts: the reference kernel and the
normalisation by it, the tracer's self-time accounting, the 2-d margin
search used to check ``gradflow svm``, and the metric names in
BENCHMARK.json.

    python3 -m pytest bench
"""

import json
import os
import statistics
import time

import numpy as np
import pytest

import refkernel
import run
from tracer import Tracer
from workloads import max_margin_2d

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("passes,trials", [(2, 7), (40, 3)])
def test_n_times_the_kernel_work_reads_about_n_ref(passes, trials):
    # the longer op is also sampled from the interval timer while it runs
    def synthetic_op():
        for _ in range(passes):
            refkernel.kernel()

    refs = []
    for _ in range(trials):
        _, seconds, kernel = refkernel.timed(synthetic_op)
        refs.append(seconds / kernel / passes)
    assert 0.8 <= statistics.median(refs) <= 1.25, refs


def test_slowing_op_and_kernel_together_leaves_ref_unchanged(monkeypatch):
    now = [0.0]
    slowdown = [1.0]

    def fake_kernel():
        now[0] += 0.004 * slowdown[0]

    def fake_op():
        now[0] += 0.150 * slowdown[0]

    monkeypatch.setattr(refkernel, "clock", lambda: now[0])
    monkeypatch.setattr(refkernel, "kernel", fake_kernel)
    refs = {}
    for factor in (1.0, 1.7, 3.0):
        slowdown[0] = factor
        _, seconds, kernel = refkernel.timed(fake_op)
        assert abs(seconds - 0.150 * factor) < 1e-12
        refs[factor] = seconds / kernel
    assert all(abs(r - 37.5) < 1e-9 for r in refs.values()), refs


def test_tracer_splits_time_into_self_time():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("m.outer",
                        lambda: (time.sleep(0.01), inner(), inner()))
    outer()
    assert not tracer.calls  # inactive: nothing recorded
    t0 = time.perf_counter()
    tracer.traced(outer)
    tracer.traced(outer)
    total = time.perf_counter() - t0
    assert tracer.calls == {"m.outer": 2, "m.inner": 4}
    assert tracer.self_seconds["m.inner"] >= 0.08
    assert 0.02 <= tracer.self_seconds["m.outer"]
    assert tracer.self_seconds["m.outer"] < 0.5 * tracer.self_seconds["m.inner"]
    assert abs(sum(tracer.self_seconds.values()) - total) < 0.01
    assert not tracer.active


def test_max_margin_2d_matches_an_angle_scan():
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(0, 0.5, (6, 2)) + (1.0, 0.7),
                   rng.normal(0, 0.5, (6, 2)) - (1.0, 0.7)])
    y = np.array([1.0] * 6 + [-1.0] * 6)
    u, margin = max_margin_2d(x, y)
    angles = np.linspace(0.0, 2.0 * np.pi, 200_001)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    scan = ((y[:, None] * x) @ dirs.T).min(axis=0)
    assert abs(np.hypot(*u) - 1.0) < 1e-12
    assert margin >= scan.max() - 1e-12
    assert margin - scan.max() < 1e-8
    u2, m2 = max_margin_2d(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                           np.array([1.0, -1.0]))
    assert np.allclose(u2, [1.0, 0.0]) and abs(m2 - 1.0) < 1e-15


def test_benchmark_json_names_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _ in run.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [
        unit for _, unit in run.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "op_cost_ref", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == [
        "deepnet", "direction", "analysis"]
