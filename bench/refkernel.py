"""Fixed reference kernel and the op-cost normalisation built on it.

The host this benchmark runs on is shared: its speed drifts by tens of
percent between runs and within one. A slowdown hits the program and a
fixed piece of Python/numpy work alike, so the benchmark times this
kernel right before, right after and every INTERVAL_S during every program
invocation, and reports each invocation's wall time in units of the
kernel's mean time ("ref").

The kernel mixes the kinds of work the program spends its time in:
small-array numpy calls (the flow step), a scalar float loop (the
quadrature and RK4 integrators), long-double row updates (the extended
precision QR) and Jacobi-style row rotations (the eigensolver). It uses
only Python and numpy and never calls the program.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter

# the kernel is also timed this often while an invocation runs: the host's
# speed changes within a second, so timings taken only at the ends of a
# multi-second invocation do not follow it
INTERVAL_S = 0.1


def _small_numpy(rounds: int = 120) -> float:
    x = np.linspace(-1.0, 1.0, 24).reshape(12, 2)
    y = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    w = np.array([[0.3, -0.2]])
    acc = 0.0
    for _ in range(rounds):
        z = w @ x.T
        m = y * z[0]
        e = np.exp(-np.minimum(m, 50.0))
        g = -(y * e) @ x
        w = w - 0.01 * g[None, :]
        acc += float(e.sum())
    return acc


def _scalar_loop(n: int = 6000) -> float:
    acc = 0.0
    h = 1.0 / n
    for i in range(n):
        u = 1.5 + i * h
        acc += h / math.log(u) + 0.5 * math.exp(-u * u)
    return acc


def _longdouble_rows(n: int = 48) -> float:
    i = np.arange(n, dtype=np.longdouble)
    a = 1.0 / (1.0 + i[:, None] + 2.0 * i[None, :])
    for k in range(n - 1):
        v = a[k:, k].copy()
        v[0] += math.copysign(float(np.sqrt((v * v).sum())), float(v[0]))
        vn2 = (v * v).sum()
        a[k:, k:] -= np.outer(v, (2.0 / vn2) * (v @ a[k:, k:]))
    return float(np.abs(np.diag(a)).sum())


def _jacobi_rotations(n: int = 18) -> float:
    i = np.arange(n, dtype=float)
    h = 1.0 / (1.0 + np.abs(i[:, None] - i[None, :])) + np.diag(i)
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = h[p, q]
            theta = (h[q, q] - h[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            hp, hq = h[p].copy(), h[q].copy()
            h[p], h[q] = c * hp - s * hq, s * hp + c * hq
            cp, cq = h[:, p].copy(), h[:, q].copy()
            h[:, p], h[:, q] = c * cp - s * cq, s * cp + c * cq
    return float(np.trace(h))


def kernel() -> float:
    """One pass of the fixed work; returns a checksum so nothing is skipped."""
    return (_small_numpy() + _scalar_loop() + _longdouble_rows()
            + _jacobi_rotations())


def kernel_seconds() -> float:
    t0 = clock()
    kernel()
    return clock() - t0


def timed(fn, on_sample=None):
    """Run fn with the kernel timed right before and after it and, from
    an interval timer, every INTERVAL_S while it runs.

    Returns (fn's result, fn's wall seconds net of the kernel passes made
    inside it, mean kernel seconds); fn's cost in ref is the ratio of the
    two. on_sample(seconds) hears of each pass made inside fn.
    """
    samples = [kernel_seconds()]
    inside = []
    running = True

    def sample(signum, frame):
        if not running:
            return
        elapsed = kernel_seconds()
        inside.append(elapsed)
        if on_sample is not None:
            on_sample(elapsed)
        # re-armed only now, so a slow pass cannot starve fn
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
    t0 = clock()
    try:
        result = fn()
    finally:
        running = False
        seconds = clock() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples += inside
    samples.append(kernel_seconds())
    return result, seconds - sum(inside), statistics.fmean(samples)
