"""Integrators for every dynamical system in the package.

Plain explicit-Euler gradient flow (optionally ridge-regularized), a
loss-rescaled stepping mode for the logarithmically slow separable runs,
an exact mode-by-mode propagator for linear square-loss descent (the
workhorse behind million-step perturbation schedules), the normalized
scale/direction system, and the perturb-and-reconverge protocol. There is
one Euler driver, run_flows, and one protocol driver,
stacked_perturb_and_reconverge; both take a list of states, and one flow
is a stack of one. A loss-rescaled step taken at the loss floor is counted
in the trace. The normalized system weights its samples by the
exponential loss's one table in losses, clamp and warning included.

Trace CSV columns, in order: time, loss, train_error, test_error,
norm_l1..norm_lK, margin_cosine, nullspace_norm, residual_norm,
perturbation_count. Cells without a configured reference stay empty;
residual_norm has none and is always empty, kept so the format stays put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import frobenius_norm, gram_solve, symmetric_eig
from .losses import (
    Dataset,
    _check_kind,
    _loss_terms,
    _terms_and_gradient,
    classification_error,
    loss,
    mean_squared_error,
)
from .network import (HOMOGENEOUS, DeepNet, _columns, batch_backprop,
                      batch_forward, flatten_params, normalize_layers,
                      unflatten_params)

LOSS_EXPLOSION_FACTOR = 10.0
MAX_HALVINGS = 40
MAX_ITERATIONS_HARD_CAP = 200_000_000
V_DRIFT_INVARIANT = 1e-6
# a regression fit has re-converged once its loss is at most this
RECONVERGE_TOL = 1e-6
# loss-rescaled steps divide by the loss, never by less than this
LOSS_FLOOR = 1e-300
# how a flow's time advances per step: by `step`, or by step / loss
STEPPINGS = ("fixed", "loss_rescaled")


@dataclass(frozen=True)
class FlowState:
    """One point on a gradient-descent trajectory."""

    net: DeepNet
    step: float
    time: float = 0.0
    lambdas: tuple = ()  # per-layer ridge strength, empty means all zero
    rng_seed: int = 0

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.time < 0.0:
            raise ValueError("time must be nonnegative")
        lams = tuple(float(l) for l in self.lambdas)
        if lams and len(lams) != self.net.depth:
            raise ValueError(
                f"{len(lams)} lambdas for {self.net.depth} layers"
            )
        if any(l < 0.0 for l in lams):
            raise ValueError("lambdas must be nonnegative")
        object.__setattr__(self, "lambdas", lams)

    def lambda_array(self) -> np.ndarray:
        if self.lambdas:
            return np.asarray(self.lambdas)
        return np.zeros(self.net.depth)


@dataclass(frozen=True)
class StopRule:
    """Stopping condition for run_flows, shared by every flow it runs.

    Exactly one notion of success: if loss_below / grad_norm_below /
    direction_angle_below is set, meeting any of them means convergence
    and max_time / max_steps are just the budget. With only max_time or
    max_steps set, exhausting the budget is itself the (trivial) rule.
    """

    max_time: float | None = None
    max_steps: int | None = None
    loss_below: float | None = None
    grad_norm_below: float | None = None
    direction_angle_below: float | None = None

    def __post_init__(self):
        if self.max_time is None and self.max_steps is None:
            raise ValueError("need a budget: max_time or max_steps")

    @property
    def has_target(self) -> bool:
        return (
            self.loss_below is not None
            or self.grad_norm_below is not None
            or self.direction_angle_below is not None
        )


@dataclass(frozen=True)
class TraceRefs:
    """Optional references that turn on the extra trace columns.

    margin_cosine compares the flattened weights against reference_direction;
    nullspace_norm projects them on the rows of null_basis. Both are meant
    for single-layer linear runs where the flattened weights are the weight
    vector itself.
    """

    test_data: Dataset | None = None
    reference_direction: np.ndarray | None = None
    null_basis: np.ndarray | None = None


@dataclass
class TrajectoryTrace:
    layer_count: int
    times: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    train_errors: list = field(default_factory=list)
    test_errors: list = field(default_factory=list)
    layer_norms: list = field(default_factory=list)  # one K-tuple per row
    margin_cosines: list = field(default_factory=list)
    nullspace_norms: list = field(default_factory=list)
    perturbation_counts: list = field(default_factory=list)
    row_flags: list = field(default_factory=list)  # "" or a short marker
    converged: bool = False
    stop_reason: str = ""
    final_state: FlowState | None = None
    # points the flow took, its start included, with a relu pre-activation
    # of exactly 0 (where the subgradient 0 is used)
    kink_events: int = 0
    # loss_rescaled steps taken although the loss still rose after
    # MAX_HALVINGS halvings; a count only, not a CSV column
    backtrack_giveups: int = 0
    # loss_rescaled steps taken at a loss below LOSS_FLOOR, where dt is
    # step / LOSS_FLOOR instead of step / loss; a count only, as above
    floored_steps: int = 0

    def header(self) -> list:
        cols = ["time", "loss", "train_error", "test_error"]
        cols += [f"norm_l{k + 1}" for k in range(self.layer_count)]
        cols += [
            "margin_cosine",
            "nullspace_norm",
            "residual_norm",
            "perturbation_count",
        ]
        return cols

    def rows(self):
        for i in range(len(self.times)):
            row = [self.times[i], self.losses[i], self.train_errors[i],
                   self.test_errors[i]]
            row += list(self.layer_norms[i])
            row += [self.margin_cosines[i], self.nullspace_norms[i], None,
                    self.perturbation_counts[i]]
            yield row


def _fmt_cell(value) -> str:
    # most cells are floats, np.float64 among them, so they are tested first
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_table(path, header_comment, columns, rows, extra_comment=""):
    """The one CSV writer: LF endings, shortest-round-trip floats, and up
    to two '#' comment lines above the column names."""
    with open(path, "w", newline="\n") as fh:
        for comment in (header_comment, extra_comment):
            if comment:
                fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def write_trace_csv(trace: TrajectoryTrace, path, header_comment: str = ""):
    _write_table(path, header_comment, trace.header(), trace.rows())


def _error_metric(net: DeepNet, data: Dataset | None):
    """Mean squared error for regression data, else the 0/1 error."""
    if data is None:
        return None
    if data.task == "regression":
        return mean_squared_error(net, data)
    return classification_error(net, data)


def _cosine(u, v) -> float:
    nu = float(np.sqrt((u * u).sum()))
    nv = float(np.sqrt((v * v).sum()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float((u * v).sum() / (nu * nv))


def _record(trace, refs, net, train_error, time, value, pert_count, flag=""):
    trace.times.append(time)
    trace.losses.append(value)
    trace.train_errors.append(train_error)
    trace.test_errors.append(_error_metric(net, refs.test_data if refs else None))
    trace.layer_norms.append(tuple(frobenius_norm(w) for w in net.layers))
    flat = flatten_params(net.layers)
    if refs is not None and refs.reference_direction is not None:
        trace.margin_cosines.append(_cosine(flat, refs.reference_direction))
    else:
        trace.margin_cosines.append(None)
    if refs is not None and refs.null_basis is not None:
        trace.nullspace_norms.append(float(np.sqrt(((refs.null_basis @ flat) ** 2).sum())))
    else:
        trace.nullspace_norms.append(None)
    trace.perturbation_counts.append(pert_count)
    trace.row_flags.append(flag)


def _two_lambdas(lambdas):
    """Per-layer 2 lam_k, (R, 1, 1) for (R, K) lambdas, so that it scales
    stacked layers member by member; None when no lambda is set."""
    lambdas = np.asarray(lambdas, dtype=float)
    if not lambdas.any():
        return None
    return [2.0 * lam[..., None, None] for lam in np.moveaxis(lambdas, -1, 0)]


def _total_gradient(grads, layers, two_lambdas):
    """Gradient of the ridge-regularized objective, per layer."""
    if two_lambdas is None:
        return grads
    return [g + tl * w for g, tl, w in zip(grads, two_lambdas, layers)]


def _grad_norm(grads):
    """Frobenius norm over all layers; one per member for stacked grads."""
    return np.sqrt(sum((g * g).reshape(g.shape[:-2] + (-1,)).sum(axis=-1)
                       for g in grads))


class _Euler:
    """The flow's one explicit-Euler step, for R flows ("members") that
    advance as one array computation; run_flows drives it.

    Member r has its own weights, data (or data shared by all members),
    step size, halving count and give-up count. The current point and a
    trial point live in two (R, P) float64 buffers with the stacked layers
    (R, rows, cols) as views into them, so a step rewrites numbers in place
    instead of building nets; net(r) builds member r's net when it is read.
    The loss kind is checked once per member up front; every trial point is
    checked for non-finite weights, and one is an error, never absorbed.
    """

    def __init__(self, nets, kind: str, datasets, lambdas):
        """nets: R nets of one architecture; datasets: one Dataset for
        every member or one per member; lambdas: (R, K) ridge strengths."""
        arch = nets[0]
        self.shapes = [w.shape for w in arch.layers]
        for net in nets[1:]:
            if ([w.shape for w in net.layers] != self.shapes
                    or replace(net, layers=arch.layers) != arch):
                raise ValueError("stacked flows need nets of one architecture")
        shared = isinstance(datasets, Dataset)
        self.datasets = [datasets] * len(nets) if shared else list(datasets)
        if len(self.datasets) != len(nets):
            raise ValueError(
                f"{len(self.datasets)} datasets for {len(nets)} flows"
            )
        for net, data in zip(nets, self.datasets):
            _check_kind(kind, data, net)
        self.kind, self.arch, self.shared = kind, arch, shared
        if shared:
            self._take_data(datasets.inputs, datasets.labels)
        else:
            self._take_data(np.stack([d.inputs for d in self.datasets]),
                            np.stack([d.labels for d in self.datasets]))
        self.ids = np.arange(len(nets))  # each member's place in nets
        self.two_lambdas = _two_lambdas(lambdas)
        self._bind(np.stack([flatten_params(net.layers) for net in nets]))
        self.value, self.grads, kink = self._evaluate(self.layers)
        self._set_total()
        self.kink_events = np.zeros(len(nets), dtype=int) + kink
        self.backtrack_giveups = np.zeros(len(nets), dtype=int)

    def _take_data(self, inputs, labels):
        """Fix what every step reads of the data: the inputs as columns and
        the loss formula on these labels."""
        self.inputs, self.labels = inputs, labels
        self.columns = _columns(inputs)
        self.terms = _loss_terms(self.kind, labels)

    def _bind(self, flat):
        """Take flat as the current point, with a fresh trial buffer."""
        self.flat, self._trial_flat = flat, np.empty_like(flat)
        self.layers = unflatten_params(flat, self.shapes)
        self._trial_layers = unflatten_params(self._trial_flat, self.shapes)

    def net(self, r) -> DeepNet:
        """Member r's current point as a net on the current buffer: read it
        before the next step, or drop the member first (see keep)."""
        return self.arch.with_layers(w[r] for w in self.layers)

    def keep(self, mask):
        """Drop the members where mask is False. The survivors move to new
        buffers, so no buffer behind a dropped member's net is written
        again."""
        index = np.flatnonzero(mask)
        self.ids = self.ids[index]
        self.datasets = [self.datasets[i] for i in index]
        if not self.shared:
            self._take_data(self.inputs[index], self.labels[index])
        if self.two_lambdas is not None:
            self.two_lambdas = [tl[index] for tl in self.two_lambdas]
        self._bind(self.flat[index])
        self.value, self.grads = self.value[index], [g[index]
                                                     for g in self.grads]
        self._set_total()
        self.kink_events = self.kink_events[index]
        self.backtrack_giveups = self.backtrack_giveups[index]

    def _evaluate(self, layers):
        return _terms_and_gradient(self.terms, self.arch, self.columns,
                                   layers)

    def _set_total(self):
        """The step direction: the loss gradient, plus 2 lam_k W_k where a
        ridge term is set."""
        self.total = (self.grads if self.two_lambdas is None else
                      _total_gradient(self.grads, self.layers,
                                      self.two_lambdas))

    def step(self, dt, backtrack: bool):
        """Move every member to W_k - dt * (grad_k + 2 lam_k W_k), dt one
        entry per member; returns dt, holding the dt each member took.

        Without backtrack a loss jump by more than LOSS_EXPLOSION_FACTOR
        raises: it is the signature of a step beyond the stability limit.
        With it, a member's dt halves (in place) while its loss would rise;
        a step still rising after MAX_HALVINGS halvings is taken and
        counted as a give-up of that member.
        """
        halvings = 0
        d = dt[:, None, None]  # a view: it sees every halving of dt
        trial = self._trial_flat
        while True:
            for w, g, out in zip(self.layers, self.total, self._trial_layers):
                np.subtract(w, d * g, out=out)
            # a count, not a sum: finite weights may sum past float's range
            if np.count_nonzero(np.isfinite(trial)) < trial.size:
                bad = ~np.isfinite(trial).all(axis=-1)
                r = np.flatnonzero(bad)[0]
                raise ValueError(self._named(
                    r, f"non-finite weights after a step of {dt[r]:.3e}; "
                    "reduce the step"))
            value, grads, kink = self._evaluate(self._trial_layers)
            if not backtrack:
                blown = value > LOSS_EXPLOSION_FACTOR * np.maximum(self.value,
                                                                   1e-300)
                if np.count_nonzero(blown):
                    r = np.flatnonzero(blown)[0]
                    raise ValueError(self._named(
                        r, f"loss exploded {self.value[r]:.3e} -> "
                        f"{value[r]:.3e}; reduce step below {dt[r]:.3e}"))
                break
            rising = value > self.value
            if not np.count_nonzero(rising):
                break
            if halvings >= MAX_HALVINGS:
                self.backtrack_giveups += rising
                break
            # a member whose loss fell takes its step again at the same dt:
            # the same point, value, gradient and kink flag, bit for bit
            dt[rising] *= 0.5
            halvings += 1
        self.flat, self._trial_flat = self._trial_flat, self.flat
        self.layers, self._trial_layers = self._trial_layers, self.layers
        self.value, self.grads = value, grads
        if kink is not False:  # False for nets without a relu layer
            self.kink_events += kink
        self._set_total()
        return dt

    def _named(self, r, text) -> str:
        return _member(text, self.ids[r], len(self.ids))


def _member(text, r, n) -> str:
    """text as the error of flow r among n; a lone flow goes unnamed."""
    return text if n == 1 else f"flow {r}: {text}"


def run_flows(
    states,
    kind: str,
    datasets,
    stop: StopRule,
    sample_every: int = 100,
    stepping: str = "fixed",
    refs=None,
) -> list:
    """Iterate R Euler flows as one stacked computation until each one's
    stop rule or budget hits; one TrajectoryTrace per state. This is the
    one loop that steps _Euler: the perturbation protocol and every
    scenario flow are calls of it.

    datasets and refs are one Dataset / TraceRefs for every flow, or one
    per flow. Each flow keeps its own step, time, stop reason and trace
    rows, bitwise those of a stack of one; a flow that has stopped takes
    no further step.

    stepping="fixed" advances time by `step` per iteration. For
    stepping="loss_rescaled" each iteration advances time by step/loss,
    the same trajectory under a monotone time change; useful for
    exponential-family losses whose interesting behavior lives at
    exponentially large times. The rescaled mode backtracks (halves the
    substep) when a step would increase the loss. It divides by the loss
    floored at LOSS_FLOOR; each step taken from a loss below the floor,
    whose dt is then step / LOSS_FLOOR, is counted in the trace's
    floored_steps.
    """
    if stepping not in STEPPINGS:
        raise ValueError(f"unknown stepping {stepping!r}")
    _check_count("sample_every", sample_every)
    n = len(states)
    if not isinstance(refs, (list, tuple)):
        refs = [refs] * n
    if len(refs) != n:
        raise ValueError(f"{len(refs)} refs for {n} flows")
    euler = _Euler([s.net for s in states], kind, datasets,
                   [s.lambda_array() for s in states])
    steps = np.array([s.step for s in states])
    t = np.array([s.time for s in states], dtype=float)
    traces = [TrajectoryTrace(layer_count=s.net.depth) for s in states]
    if stop.max_steps is not None:
        max_steps = np.full(n, min(stop.max_steps, MAX_ITERATIONS_HARD_CAP))
    elif stepping == "fixed":
        max_steps = np.minimum(np.ceil((stop.max_time - t) / steps) + 1,
                               MAX_ITERATIONS_HARD_CAP)
    else:
        max_steps = np.full(n, MAX_ITERATIONS_HARD_CAP)
    first_budget = float(max_steps.min())  # the earliest member's budget
    has_target = stop.has_target
    backtrack = stepping == "loss_rescaled"
    snapshots = np.zeros_like(euler.flat)  # direction_angle_below state
    snapshot_times = np.full(n, np.nan)
    floored = np.zeros(n, dtype=int)

    def finish(i, converged, reason):
        """Close the trace of euler's member i, which stops here."""
        r = euler.ids[i]
        trace, state = traces[r], states[r]
        time, value, net = float(t[i]), float(euler.value[i]), euler.net(i)
        if not trace.times or trace.times[-1] != time:
            _record(trace, refs[r], net,
                    _error_metric(net, euler.datasets[i]), time, value, 0)
        trace.converged, trace.stop_reason = converged, reason
        trace.kink_events = int(euler.kink_events[i])
        trace.backtrack_giveups = int(euler.backtrack_giveups[i])
        trace.floored_steps = int(floored[i])
        # member i leaves the stack next, so no step writes under net again
        trace.final_state = replace(state, net=net, time=time)

    iteration = 0
    while True:
        if iteration % sample_every == 0:
            for i, r in enumerate(euler.ids):
                net = euler.net(i)
                _record(traces[r], refs[r], net,
                        _error_metric(net, euler.datasets[i]),
                        float(t[i]), float(euler.value[i]), 0)
        # without a target, no flow halts before a budget or max_time hits
        if (has_target or iteration >= first_budget
                or (stop.max_time is not None and t.max() >= stop.max_time)):
            # (hits, converged, reason), first match wins; with only a
            # budget, exhausting it is the (trivial) rule
            checks = []
            if stop.loss_below is not None:
                checks.append((euler.value <= stop.loss_below, True,
                               "loss_below"))
            if stop.grad_norm_below is not None:
                checks.append((_grad_norm(euler.total)
                               <= stop.grad_norm_below, True,
                               "grad_norm_below"))
            if stop.direction_angle_below is not None:
                checks.append((_direction_stalled(
                    euler.flat, t, snapshots, snapshot_times,
                    stop.direction_angle_below), True, "direction_stalled"))
            if stop.max_time is not None:
                checks.append((t >= stop.max_time, not has_target,
                               "max_time"))
            checks.append((iteration >= max_steps,
                           not has_target and stop.max_steps is not None,
                           "max_steps"))
            halt = np.logical_or.reduce([hits for hits, _, _ in checks])
            if halt.any():
                for i in np.flatnonzero(halt):
                    finish(i, *next((ok, why) for hits, ok, why in checks
                                    if hits[i]))
                keep = ~halt
                if not keep.any():
                    break
                euler.keep(keep)
                t, steps, max_steps = t[keep], steps[keep], max_steps[keep]
                snapshots = snapshots[keep]
                snapshot_times = snapshot_times[keep]
                floored = floored[keep]
                first_budget = float(max_steps.min())

        dt = steps
        if backtrack:
            floored += euler.value < LOSS_FLOOR
            dt = steps / np.maximum(euler.value, LOSS_FLOOR)
        t += euler.step(dt, backtrack)
        iteration += 1
    return traces


def _check_count(name, value):
    """Refuse, by name, a value that is not an integer >= 1."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise ValueError(f"{name}: must be an integer >= 1, got {value!r}")


def _direction_stalled(flat, t, snapshots, snapshot_times, threshold):
    """direction_angle_below, one flag per flow: a flow has stalled when its
    unit direction moved by less than `threshold` radians since the
    snapshot taken at half its current time; snapshots are then renewed."""
    norm = np.sqrt((flat * flat).sum(axis=-1))
    moving = norm > 0.0
    direction = flat / np.where(moving, norm, 1.0)[:, None]
    first = moving & np.isnan(snapshot_times)
    due = moving & (t >= 2.0 * snapshot_times)
    # 2 asin(|u - v|/2) resolves angles arccos cannot
    gap = np.sqrt(((direction - snapshots) ** 2).sum(axis=-1))
    angle = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * gap))
    stalled = due & (angle < threshold)
    renew = first | (due & ~stalled)
    snapshots[renew] = direction[renew]
    snapshot_times[renew] = np.where(first, np.maximum(t, 1e-12), t)[renew]
    return stalled


class LinearSquareGD:
    """Exact fixed-step gradient descent for the summed square loss of a
    linear model, propagated mode by mode.

    One eigendecomposition of X^T X up front, which also gives w_min_norm
    and the null_basis columns; afterwards n steps of GD from any w, or
    from a stack of them, cost two products with the eigenvectors, equal
    in exact arithmetic to iterating w <- w - step * 2 X^T (X w - y).
    Null modes (zero eigenvalues) pass through unchanged, which is the
    invariance the perturbation experiments measure.
    """

    def __init__(self, x_mat, y, step: float):
        self.x = np.asarray(x_mat, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.step = float(step)
        dec = symmetric_eig(self.x.T @ self.x)
        self.w_min_norm, keep = gram_solve(dec, self.x.T @ self.y)
        self.null_basis = dec.eigenvectors[:, ~keep]
        self.eigenvalues = np.maximum(dec.eigenvalues, 0.0)
        self.basis = dec.eigenvectors
        self.stable = bool(np.abs(1.0 - 2.0 * self.step * self.eigenvalues).max() <= 1.0)

    def propagate(self, w0, n_steps: int) -> np.ndarray:
        """State after n_steps of exact GD from w0: one start (d,) or a
        stack of starts (R, d), one state per row. Both products are
        einsums, not matmuls, so a row's bits do not depend on the stack
        around it."""
        c = np.einsum("ji,...j->...i", self.basis,
                      np.asarray(w0, float) - self.w_min_norm)
        factors = (1.0 - 2.0 * self.step * self.eigenvalues) ** n_steps
        return self.w_min_norm + np.einsum("ij,...j->...i", self.basis,
                                           factors * c)


@dataclass(frozen=True)
class PerturbationProtocol:
    """Perturb-then-reconverge schedule: repetitions + 1 cycles of
    `interval` flow steps (the re-convergence budget), with a perturbation
    after every cycle but the last.

    noise_std is relative: each layer's entries get Gaussian noise of std
    noise_std times that layer's weight std (see _draw_perturbation).
    """

    noise_std: float
    interval: int
    repetitions: int

    def __post_init__(self):
        if not self.noise_std > 0.0:
            raise ValueError("noise_std must be positive")
        _check_count("interval", self.interval)
        _check_count("repetitions", self.repetitions)


def _draw_perturbation(rng, layers, protocol):
    """Per layer, Gaussian noise of std noise_std times the layer's weight
    std (noise_std itself where that std is 0), drawn in layer order."""
    deltas = []
    for w in layers:
        spread = float(w.std())
        sigma = protocol.noise_std * (spread if spread > 0.0 else 1.0)
        deltas.append(sigma * rng.normal(size=w.shape))
    return deltas


def stacked_perturb_and_reconverge(
    states,
    protocol: PerturbationProtocol,
    kind: str,
    data: Dataset,
    refs: TraceRefs | None = None,
    controls=(),
) -> list:
    """Alternate Gaussian weight perturbations with interval-long re-flows,
    for R states of one architecture on shared data; one trace per state,
    then one per control.

    Every trace records the start plus one row per cycle, at its end (just
    before its perturbation); a row's perturbation_count is its cycle's
    index. A cycle whose training criterion (classification error 0, or
    loss <= RECONVERGE_TOL for regression) is not met gets flagged, and the
    run continues. Each perturbation is one draw, applied as drawn even
    where it puts a relu pre-activation on the kink; kink_events sums the
    re-flows' kink_events, so a kinked perturbed point counts once, as the
    start of the next cycle's re-flow.

    controls are states of the same architecture that flow alongside and
    are never perturbed: their rows have perturbation_count 0 and no flag,
    and they need not start at zero training error. A control's last row
    and final state are those of one unbroken run_flows of
    interval * (repetitions + 1) steps.

    The re-flows of a cycle, controls included, are one run_flows call,
    sampled at its two ends; each flow's last row and final state are the
    cycle boundary. Each state keeps its own perturbation stream (seeded by
    its rng_seed), time, kinks, row flags and final state, bitwise those of
    a stack of one.
    """
    regression = data.task == "regression"

    def reconverged(value, train_error):
        return value <= RECONVERGE_TOL if regression else train_error == 0.0

    perturbed = len(states)
    states, traces = list(states) + list(controls), []
    for r, state in enumerate(states):
        net = state.net
        value, train_error = loss(kind, net, data), _error_metric(net, data)
        if r < perturbed and not reconverged(value, train_error):
            raise ValueError(_member(
                f"start the protocol at an interpolating state (loss "
                f"{value:.3e} > {RECONVERGE_TOL:.1e})" if regression
                else "start the protocol at zero training error",
                r, len(states)))
        traces.append(TrajectoryTrace(layer_count=net.depth))
        _record(traces[-1], refs, net, train_error, state.time, value, 0)
    rngs = [np.random.default_rng(s.rng_seed) for s in states[:perturbed]]
    for cycle in range(protocol.repetitions + 1):
        ends = run_flows(states, kind, data,
                         StopRule(max_steps=protocol.interval),
                         sample_every=protocol.interval)
        for r, (trace, end) in enumerate(zip(traces, ends)):
            net, value = end.final_state.net, end.losses[-1]
            train_error = end.train_errors[-1]
            trace.kink_events += end.kink_events
            control = r >= perturbed
            _record(trace, refs, net, train_error, end.final_state.time,
                    value, 0 if control else cycle,
                    "" if control or reconverged(value, train_error)
                    else "not_reconverged")
            if cycle < protocol.repetitions and not control:
                deltas = _draw_perturbation(rngs[r], net.layers, protocol)
                net = net.with_layers(
                    [w + d for w, d in zip(net.layers, deltas)])
            states[r] = replace(end.final_state, net=net)
    for state, trace in zip(states, traces):
        trace.converged = True
        trace.stop_reason = "schedule_complete"
        trace.final_state = state
    return traces


@dataclass(frozen=True)
class NormalizedFlowState:
    """Scales rho_k and unit-Frobenius directions V_k, evolved separately.

    Every step recomputes lambda_k = <V_k, B_k>/2, the multiplier that
    keeps V_k on the unit sphere.
    """

    unit_net: DeepNet
    rhos: tuple
    step: float
    time: float = 0.0
    stepping: str = "fixed"

    def __post_init__(self):
        if self.stepping not in STEPPINGS:
            raise ValueError(f"unknown stepping {self.stepping!r}")
        rhos = tuple(float(r) for r in self.rhos)
        if len(rhos) != self.unit_net.depth:
            raise ValueError("need one rho per layer")
        if any(r <= 0.0 for r in rhos):
            raise ValueError("rhos must stay positive")
        for k, v in enumerate(self.unit_net.layers):
            if abs(frobenius_norm(v) - 1.0) > V_DRIFT_INVARIANT:
                raise ValueError(f"layer {k + 1} is not unit Frobenius norm")
        object.__setattr__(self, "rhos", rhos)

    def assembled_net(self) -> DeepNet:
        return self.unit_net.with_layers(
            [r * v for r, v in zip(self.rhos, self.unit_net.layers)]
        )


def normalized_state_from_net(net: DeepNet, step: float, **kwargs):
    rhos, unit = normalize_layers(net)
    return NormalizedFlowState(unit_net=unit, rhos=tuple(rhos), step=step, **kwargs)


def normalized_flow_step(state: NormalizedFlowState, data: Dataset) -> NormalizedFlowState:
    """One Euler step of the coupled scale/direction system.

    rho_k moves by the per-scale gradient (prod_{i!=k} rho_i times the
    loss-weighted margin sum, always positive on separated data); V_k by
    B_k - 2 lambda_k V_k and is renormalized. The loss, its sample weights
    exp(-prod f~) and the output delta come from the exponential loss's
    one table, clamp and warning included; a loss-rescaled step refuses a
    loss that has underflowed.
    """
    if state.unit_net.activation not in HOMOGENEOUS:
        raise ValueError("normalized dynamics needs a homogeneous activation")
    if data.task != "binary":
        raise ValueError("normalized dynamics is stated for binary data")
    unit = state.unit_net
    rhos = np.asarray(state.rhos)
    prod = float(np.prod(rhos))
    out, _, acts, derivs, _ = batch_forward(unit, data.inputs)
    value, ddelta = _loss_terms("exponential", data.labels)(prod * out)
    # ddelta is -y exp(-prod f~); with y = +-1 every sign flip is exact
    margin_mass = float((-ddelta[0] * out[0]).sum())
    rho_dots = (prod / rhos) * margin_mass
    dt = state.step
    if state.stepping == "loss_rescaled":
        # extra 1/(1+prod) keeps the tangent step bounded: the direction
        # gradient B_k carries a factor prod that the loss does not cancel
        scale = float(value) * (1.0 + prod)
        if scale < LOSS_FLOOR:
            raise ValueError(
                f"the loss underflowed ({float(value):.3e}); a loss-rescaled "
                "step would divide by it"
            )
        dt = state.step / scale
    new_layers = []
    new_rhos = rhos + dt * rho_dots
    if np.any(new_rhos <= 0.0):
        raise ValueError(
            "a scale crossed zero (the state does not separate the data); "
            "run the plain flow to a separating state before switching to "
            "normalized coordinates"
        )
    b_list = batch_backprop(unit, acts, derivs, ddelta * -prod)
    for v, b in zip(unit.layers, b_list):
        lam = 0.5 * float((v * b).sum())
        v_new = v + dt * (b - 2.0 * lam * v)
        norm = frobenius_norm(v_new)
        new_layers.append(v_new / norm if norm > 0.0 else v)
    return replace(
        state,
        unit_net=unit.with_layers(new_layers),
        rhos=tuple(float(r) for r in new_rhos),
        time=state.time + dt,
    )


def run_normalized_flow(
    state: NormalizedFlowState,
    data: Dataset,
    n_steps: int,
    sample_every: int = 100,
    max_time: float | None = None,
):
    """Iterate normalized_flow_step; returns (final state, diagnostics).

    Stops after n_steps or once state.time reaches max_time. Diagnostics:
    times, rho history (list of tuples), loss history of the assembled net
    under the exponential loss.
    """
    times, rho_hist, losses = [], [], []
    for i in range(n_steps):
        if max_time is not None and state.time >= max_time:
            break
        if i % sample_every == 0:
            times.append(state.time)
            rho_hist.append(state.rhos)
            losses.append(loss("exponential", state.assembled_net(), data))
        state = normalized_flow_step(state, data)
    times.append(state.time)
    rho_hist.append(state.rhos)
    losses.append(loss("exponential", state.assembled_net(), data))
    return state, {"times": times, "rhos": rho_hist, "losses": losses}


def growth_numeric_trace(k: int, f_tilde: float, rho0: float, t_grid):
    """RK4 integration of the single-sample growth ODE
    rhodot = f k rho^(k-1) exp(-rho^k f) through the given time grid.

    Steps are uniform in log time past t=1 (the dynamics is logarithmic),
    uniform in plain time before that. The loop runs on Python floats; each
    log-time step's end factor exp(s + h) is the next step's start factor.
    Where math.exp or a power overflows and raises (numpy's saturate to
    inf), that grid interval is stepped again on numpy scalars, so the
    curve turns non-finite from there on instead of raising.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if f_tilde <= 0.0:
        raise ValueError("f_tilde must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0.0) or t_grid[0] < 0.0:
        raise ValueError("t_grid must be strictly increasing and nonnegative")
    k, f_tilde = int(k), float(f_tilde)
    fk, km1 = f_tilde * k, k - 1

    def rk4(rho, s, s_end, max_h, log_time, exp):
        """RK4 in s from s to s_end, d rho/ds = dt/ds * rhs(rho), where
        dt/ds is exp(s) in log time and 1 in plain time."""
        n = max(1, math.ceil((s_end - s) / max_h))
        h = (s_end - s) / n
        half, sixth = 0.5 * h, h / 6.0
        b = c = exp(s) if log_time else 1.0
        for _ in range(n):
            a = c
            if log_time:
                b, c = exp(s + half), exp(s + h)
            k1 = a * (fk * rho**km1 * exp(-(rho**k) * f_tilde))
            r = rho + half * k1
            k2 = b * (fk * r**km1 * exp(-(r**k) * f_tilde))
            r = rho + half * k2
            k3 = b * (fk * r**km1 * exp(-(r**k) * f_tilde))
            r = rho + h * k3
            k4 = c * (fk * r**km1 * exp(-(r**k) * f_tilde))
            rho += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s += h
        return rho

    def advance(rho, t_a, t_b, lib):
        if t_a < min(t_b, 1.0):  # plain time, s = t
            rho = rk4(rho, t_a, min(t_b, 1.0), 5e-4, False, lib.exp)
            t_a = 1.0
        if t_a < t_b:  # log time, s = log t
            rho = rk4(rho, lib.log(t_a), lib.log(t_b), 1e-3, True, lib.exp)
        return rho

    rhos = []
    rho = float(rho0)
    t_prev = 0.0
    for t in t_grid.tolist():
        try:
            rho = advance(rho, t_prev, t, math)
        except OverflowError:
            rho = advance(np.float64(rho), t_prev, t, np)
        rhos.append(rho)
        t_prev = t
    return np.array(rhos)
