"""Integrators for every dynamical system in the package.

Plain explicit-Euler gradient flow (optionally ridge-regularized), a
loss-rescaled stepping mode for the logarithmically slow separable runs,
an exact mode-by-mode propagator for linear square-loss descent (the
workhorse behind million-step perturbation schedules), the normalized
scale/direction system, and the perturb-and-reconverge protocol. There is
one Euler driver, run_flows, which makes every trace row, and one protocol
driver, stacked_perturb_and_reconverge, which relabels its rows; both take
a list of states, and one flow is a stack of one. A normalized flow is a
stack whose states carry scales (FlowState.rhos); run_flows steps it with
the same guarded step, trace rows and counts. A loss-rescaled step taken
at the loss floor is counted in the trace.

Trace CSV columns, in order: time, loss, train_error, test_error,
norm_l1..norm_lK, margin_cosine, nullspace_norm, residual_norm,
perturbation_count. Cells without a configured reference stay empty;
residual_norm has none and is always empty, kept so the format stays put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .linalg import frobenius_norm, gram_solve, symmetric_eig
from .losses import (
    Dataset,
    _check_kind,
    _loss_terms,
    _terms_and_gradient,
    classification_error,
    mean_squared_error,
)
from .network import (HOMOGENEOUS, DeepNet, _columns, _forward_columns,
                      batch_backprop, flatten_params, unflatten_params)

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
# per-flow event counts, the keys of TrajectoryTrace.counts; counts only,
# not CSV columns. kink_events: points the flow took, its start included,
# with a relu pre-activation of exactly 0 (where the subgradient 0 is used).
# backtrack_giveups: loss_rescaled steps taken although the loss still rose
# after MAX_HALVINGS halvings. floored_steps: loss_rescaled steps taken at a
# loss below LOSS_FLOOR, where dt is step / LOSS_FLOOR instead of step / loss.
COUNTS = ("kink_events", "backtrack_giveups", "floored_steps")


def _check_lambdas(lambdas, depth) -> tuple:
    """Per-layer ridge strengths as floats: none, or one per layer and each
    at least 0."""
    lams = tuple(float(l) for l in lambdas)
    if lams and len(lams) != depth:
        raise ValueError(f"{len(lams)} lambdas for {depth} layers")
    if not all(l >= 0.0 for l in lams):
        raise ValueError("lambdas must be nonnegative")
    return lams


@dataclass(frozen=True)
class FlowState:
    """One point on a gradient-descent trajectory.

    A normalized state carries scales rhos, one per layer: its weights are
    rho_k V_k, and net holds the unit-Frobenius directions V_k.
    """

    net: DeepNet
    step: float
    time: float = 0.0
    lambdas: tuple = ()  # per-layer ridge strength, empty means all zero
    rng_seed: int = 0
    rhos: tuple = ()  # per-layer scales of a normalized state

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time!r}")
        if self.time < 0.0:
            raise ValueError("time must be nonnegative")
        lams = _check_lambdas(self.lambdas, self.net.depth)
        object.__setattr__(self, "lambdas", lams)
        rhos = tuple(float(r) for r in self.rhos)
        if rhos:
            if any(lams):
                raise ValueError("a normalized state takes no lambdas")
            if len(rhos) != self.net.depth:
                raise ValueError("need one rho per layer")
            if not all(r > 0.0 for r in rhos):
                raise ValueError("rhos must stay positive")
            for k, v in enumerate(self.net.layers):
                if abs(frobenius_norm(v) - 1.0) > V_DRIFT_INVARIANT:
                    raise ValueError(
                        f"layer {k + 1} is not unit Frobenius norm")
        object.__setattr__(self, "rhos", rhos)


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
        if self.max_time is not None and not math.isfinite(self.max_time):
            raise ValueError(f"max_time must be finite, got {self.max_time!r}")

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


class TraceRow(NamedTuple):
    """One sampled point of a flow; a cell without its reference is None,
    and flag is "" or a short marker."""

    time: float
    loss: float
    train_error: float | None
    test_error: float | None
    norms: tuple
    margin_cosine: float | None
    nullspace_norm: float | None
    perturbation_count: int = 0
    flag: str = ""


@dataclass
class TrajectoryTrace:
    layer_count: int
    rows: list = field(default_factory=list)  # TraceRow, in time order
    converged: bool = False
    stop_reason: str = ""
    final_state: FlowState | None = None
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))

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

    def csv_rows(self):
        """The rows in header()'s columns, residual_norm empty."""
        for row in self.rows:
            yield [row.time, row.loss, row.train_error, row.test_error,
                   *row.norms, row.margin_cosine, row.nullspace_norm, None,
                   row.perturbation_count]


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
    _write_table(path, header_comment, trace.header(), trace.csv_rows())


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


def _row(refs, net, data, time, value) -> TraceRow:
    """net's row at time, at loss value, with its error on data."""
    flat, cosine, nullspace = flatten_params(net.layers), None, None
    if refs is not None and refs.reference_direction is not None:
        cosine = _cosine(flat, refs.reference_direction)
    if refs is not None and refs.null_basis is not None:
        nullspace = float(np.sqrt(((refs.null_basis @ flat) ** 2).sum()))
    return TraceRow(time, value, _error_metric(net, data),
                    _error_metric(net, refs.test_data if refs else None),
                    tuple(frobenius_norm(w) for w in net.layers), cosine,
                    nullspace)


def _two_lambdas(lambdas, shapes):
    """2 lam_k on each entry of layer k in the flat layout of layers of
    shapes (see flatten_params); one row per member for (R, K) lambdas."""
    return np.repeat(2.0 * np.asarray(lambdas, dtype=float),
                     [rows * cols for rows, cols in shapes], axis=-1)


def _grad_norm(grad):
    """Frobenius norm of a flat gradient; one per member for (R, P)."""
    return np.sqrt(np.add.reduce(grad * grad, axis=-1))


class _Euler:
    """The flow's one explicit-Euler step, for R flows ("members") that
    advance as one array computation; run_flows drives it.

    Member r has its own weights, data (or data shared by all members),
    step size and COUNTS. The current point and a trial point live in
    two (R, P) float64 buffers with the stacked layers (R, rows, cols) as
    views into them, so a step rewrites numbers in place instead of
    building nets; net(r) builds member r's net when it is read. The two
    points' step directions live in two more such buffers, which the
    backward pass writes into through their views and which swap with the
    weights', so no evaluation allocates a gradient. The loss kind is
    checked once per member up front; every trial point is checked for
    non-finite weights, and one is an error, never absorbed.

    A normalized stack's layers are the unit directions V_k of the net
    rho_k V_k, and its scales rho_k are one more (1, K) view after them.
    rho_k moves down its gradient -(prod(rho) / rho_k) sum_n(-l'_n f_n); V_k
    along B_k - 2 lam_k V_k, B_k = -dL/dV_k, with lam_k = <V_k, B_k>/2
    keeping V_k on the unit sphere, and is then renormalized.
    """

    def __init__(self, states, kind: str, datasets):
        """states: R states of one architecture, all plain or all
        normalized; datasets: one Dataset for every member or one per
        member."""
        arch = states[0].net
        self.shapes = [w.shape for w in arch.layers]
        for net in [s.net for s in states[1:]]:
            if ([w.shape for w in net.layers] != self.shapes
                    or replace(net, layers=arch.layers) != arch):
                raise ValueError("stacked flows need nets of one architecture")
        self.normalized = bool(states[0].rhos)
        if any(bool(s.rhos) != self.normalized for s in states):
            raise ValueError("a stack cannot mix plain and normalized flows")
        shared = isinstance(datasets, Dataset)
        self.datasets = [datasets] * len(states) if shared else list(datasets)
        if len(self.datasets) != len(states):
            raise ValueError(
                f"{len(self.datasets)} datasets for {len(states)} flows"
            )
        if self.normalized:
            if arch.activation not in HOMOGENEOUS:
                raise ValueError(
                    "normalized dynamics needs a homogeneous activation")
            if any(data.task != "binary" for data in self.datasets):
                raise ValueError("normalized dynamics is stated for binary data")
            self.shapes.append((1, arch.depth))
        for state, data in zip(states, self.datasets):
            _check_kind(kind, data, state.net)
        self.kind, self.arch, self.shared = kind, arch, shared
        if shared:
            self._take_data(datasets.inputs, datasets.labels)
        else:
            self._take_data(np.stack([d.inputs for d in self.datasets]),
                            np.stack([d.labels for d in self.datasets]))
        self.ids = np.arange(len(states))  # each member's place in states
        lams = np.array([s.lambdas or (0.0,) * arch.depth for s in states])
        self.two_lambdas = (_two_lambdas(lams, self.shapes[:arch.depth])
                            if lams.any() else None)
        flat = np.stack([flatten_params([*s.net.layers, s.rhos])
                         for s in states])
        self._bind(flat, np.empty_like(flat))
        self._pending = None  # what a normalized direction() still needs
        self.value, kink = self._evaluate(self.flat, self.layers, self.grad,
                                          self.grads)
        self.counts = {name: np.zeros(len(states), int) for name in COUNTS}
        self.counts["kink_events"] += kink

    def _take_data(self, inputs, labels):
        """Fix what every step reads of the data: the inputs as columns and
        the loss formula on these labels."""
        self.inputs, self.labels = inputs, labels
        self.columns = _columns(inputs)
        self.terms = _loss_terms(self.kind, labels)

    def _bind(self, flat, grad):
        """Take flat, with its step direction grad, as the current point;
        the trial point gets fresh buffers. All views are made here."""
        self.flat, self._trial_flat = flat, np.empty_like(flat)
        self.grad, self._trial_grad = grad, np.empty_like(grad)
        self.layers, self._trial_layers, self.grads, self._trial_grads = (
            unflatten_params(b, self.shapes) for b in
            (flat, self._trial_flat, grad, self._trial_grad))

    def net(self, r, unit=False) -> DeepNet:
        """Member r's current point as a net on the current buffer: read it
        before the next step, or drop the member first (see keep). A
        normalized member's net is rho_k V_k, or V_k with unit=True."""
        layers = [w[r] for w in self.layers[:self.arch.depth]]
        if self.normalized and not unit:
            layers = [rho * v for rho, v in zip(self.layers[-1][r, 0], layers)]
        return self.arch.with_layers(layers)

    def keep(self, mask):
        """Drop the members where mask is False. The survivors move to new
        buffers, so no buffer behind a dropped member's net is written
        again."""
        index = np.flatnonzero(mask)
        self.direction()
        self.ids = self.ids[index]
        self.datasets = [self.datasets[i] for i in index]
        if not self.shared:
            self._take_data(self.inputs[index], self.labels[index])
        if self.two_lambdas is not None:
            self.two_lambdas = self.two_lambdas[index]
        self._bind(self.flat[index], self.grad[index])
        self.value = self.value[index]
        self.counts = {name: c[index] for name, c in self.counts.items()}

    def _evaluate(self, flat, layers, grad, grads):
        """The loss and kink flags at the point flat, whose views are
        layers; its step direction (the loss gradient plus any 2 lam_k W_k)
        goes into grad through its views grads. A normalized stack writes
        only its scales' entries here; direction() writes its layers'."""
        if not self.normalized:
            value, _, kink = _terms_and_gradient(self.terms, self.arch,
                                                 self.columns, layers, grads)
            if self.two_lambdas is not None:
                grad += self.two_lambdas * flat
            return value, kink
        *units, rho = layers
        prod = np.multiply.reduce(rho, axis=-1, keepdims=True)
        out, _, acts, derivs, kink = _forward_columns(self.arch,
                                                      self.columns, units)
        value, ddelta = self.terms(prod * out)
        mass = np.add.reduce(-ddelta * out, axis=-1, keepdims=True)
        np.multiply(prod / rho, -mass, out=grads[-1])
        self._pending = acts, derivs, ddelta, prod
        return value, kink

    def direction(self) -> np.ndarray:
        """The flat step direction at the current point, a normalized
        stack's -(B_k - 2 lam_k V_k) written in place on first use: its
        backward pass may overflow where a scale would cross zero, so step
        refuses that first."""
        if self._pending is not None:
            acts, derivs, ddelta, prod = self._pending
            self._pending = None
            units, bs = self.layers[:-1], self.grads[:-1]
            batch_backprop(self.arch, acts, derivs, ddelta * -prod, units, bs)
            for v, b in zip(units, bs):
                lam = 0.5 * _member_sum(v * b)
                b -= 2.0 * lam * v
                np.negative(b, out=b)
        return self.grad

    def step(self, steps, rescaled: bool):
        """Move every member to W_k - dt * direction_k; returns the dt
        each took. dt is steps, or if rescaled steps / loss, the loss
        floored at LOSS_FLOOR (a floored step is counted); a normalized
        member's is steps / (loss (1 + prod(rho))), refused below the floor,
        whose extra factor bounds the V step (B_k carries prod(rho)).

        Without rescaled a loss jump by more than LOSS_EXPLOSION_FACTOR
        raises: it is the signature of a step beyond the stability limit.
        With a ridge term it is a jump of the objective
        L + sum_k lam_k ||W_k||^2, which a stable step lowers even where it
        raises L. With rescaled, a member's dt halves (in place) while its
        loss would rise; a step still rising after MAX_HALVINGS halvings is
        taken and counted as a give-up of that member.
        """
        dt = steps
        if rescaled:
            scale = self.value
            if self.normalized:
                scale = scale * (1.0 + np.multiply.reduce(self.layers[-1][:, 0],
                                                          axis=-1))
                self._refuse(scale < LOSS_FLOOR, lambda r: (
                    f"the loss underflowed ({self.value[r]:.3e}); a "
                    "loss-rescaled step would divide by it"))
            self.counts["floored_steps"] += scale < LOSS_FLOOR
            dt = steps / np.maximum(scale, LOSS_FLOOR)
        d = dt[:, None]  # a view: it sees every halving of dt
        if self.normalized:
            rho, rho_grad = self.layers[-1][:, 0], self.grads[-1][:, 0]
            self._refuse((rho - d * rho_grad <= 0.0).any(axis=1),
                lambda r: "a scale crossed zero (the state does not separate "
                "the data); run the plain flow to a separating state before "
                "switching to normalized coordinates")
        total = self.direction()
        halvings = 0
        trial = self._trial_flat
        while True:
            np.subtract(self.flat, d * total, out=trial)
            if self.normalized:
                for v in self._trial_layers[:-1]:
                    np.divide(v, np.sqrt(_member_sum(v * v)), out=v)
            # a count, not a sum: finite weights may sum past float's range
            if np.count_nonzero(np.isfinite(trial)) < trial.size:
                self._refuse(~np.isfinite(trial).all(axis=-1), lambda r: (
                    f"non-finite weights after a step of {dt[r]:.3e}; "
                    "reduce the step"))
            value, kink = self._evaluate(trial, self._trial_layers,
                                         self._trial_grad, self._trial_grads)
            if not rescaled:
                before, after = self.value, value
                if self.two_lambdas is not None:
                    before = before + self._ridge(self.flat)
                    after = after + self._ridge(trial)
                self._refuse(
                    after > LOSS_EXPLOSION_FACTOR * np.maximum(before, 1e-300),
                    lambda r: f"loss exploded {before[r]:.3e} -> "
                    f"{after[r]:.3e}; reduce step below {dt[r]:.3e}")
                break
            rising = value > self.value
            if not np.count_nonzero(rising):
                break
            if halvings >= MAX_HALVINGS:
                self.counts["backtrack_giveups"] += rising
                break
            # a member whose loss fell takes its step again at the same dt:
            # the same point, value, gradient and kink flag, bit for bit
            dt[rising] *= 0.5
            halvings += 1
        self.flat, self._trial_flat = self._trial_flat, self.flat
        self.layers, self._trial_layers = self._trial_layers, self.layers
        self.grad, self._trial_grad = self._trial_grad, self.grad
        self.grads, self._trial_grads = self._trial_grads, self.grads
        self.value = value
        if kink is not False:  # False for nets without a relu layer
            self.counts["kink_events"] += kink
        return dt

    def _ridge(self, flat):
        """sum_k lam_k ||W_k||^2 at the point flat, one per member."""
        return np.add.reduce(0.5 * self.two_lambdas * flat * flat, axis=-1)

    def _refuse(self, bad, text):
        """Raise text(r) for the first member r where bad is set, if any."""
        if np.count_nonzero(bad):
            r = np.flatnonzero(bad)[0]
            raise ValueError(_member(text(r), self.ids[r], len(self.ids)))


def _member_sum(a):
    """The sum of each member's entries of stacked a, as (R, 1, 1)."""
    return np.add.reduce(a.reshape(len(a), -1), axis=-1)[:, None, None]


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
    one loop that steps _Euler: the perturbation protocol, the normalized
    system and every scenario flow are calls of it.

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
    counts["floored_steps"]. It takes no ridge term: its backtracking
    reads the loss alone.

    A stack of normalized states (see FlowState.rhos) records rows of the
    net rho_k V_k, so a row's norm_lk is rho_k to rounding, and final
    states of its unit layers and exact scales; direction_angle_below reads
    the unit layers.
    """
    if stepping not in STEPPINGS:
        raise ValueError(f"unknown stepping {stepping!r}")
    if stepping == "loss_rescaled" and any(any(s.lambdas) for s in states):
        raise ValueError("lambdas: loss_rescaled steps divide by the loss "
                         "alone, so they take no ridge term")
    _check_count("sample_every", sample_every)
    n = len(states)
    if not isinstance(refs, (list, tuple)):
        refs = [refs] * n
    if len(refs) != n:
        raise ValueError(f"{len(refs)} refs for {n} flows")
    euler = _Euler(states, kind, datasets)
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
    rescaled = stepping == "loss_rescaled"
    width = euler.flat.shape[1] - len(states[0].rhos)  # the layers' part
    snapshots = np.zeros((n, width))  # direction_angle_below state
    snapshot_times = np.full(n, np.nan)

    def finish(i, converged, reason):
        """Close the trace of euler's member i, which stops here."""
        r = euler.ids[i]
        trace, state = traces[r], states[r]
        time, value, net = float(t[i]), float(euler.value[i]), euler.net(i)
        if not trace.rows or trace.rows[-1].time != time:
            trace.rows.append(_row(refs[r], net, euler.datasets[i], time,
                                   value))
        trace.converged, trace.stop_reason = converged, reason
        trace.counts = {name: int(c[i]) for name, c in euler.counts.items()}
        # member i leaves the stack next, so no step writes under net again;
        # a normalized one resumes from its unit layers and exact scales
        trace.final_state = (
            replace(state, net=euler.net(i, unit=True), time=time,
                    rhos=tuple(euler.layers[-1][i, 0]))
            if euler.normalized else replace(state, net=net, time=time))

    iteration = 0
    while True:
        if iteration % sample_every == 0:
            for i, r in enumerate(euler.ids):
                traces[r].rows.append(_row(refs[r], euler.net(i),
                                           euler.datasets[i], float(t[i]),
                                           float(euler.value[i])))
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
                checks.append((_grad_norm(euler.direction())
                               <= stop.grad_norm_below, True,
                               "grad_norm_below"))
            if stop.direction_angle_below is not None:
                checks.append((_direction_stalled(
                    euler.flat[:, :width], t, snapshots, snapshot_times,
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
                first_budget = float(max_steps.min())

        t += euler.step(steps, rescaled)
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

    Every trace holds the start plus one row per cycle, at its end (just
    before its perturbation): rows of the cycles' run_flows calls, which
    take refs. A perturbed member's cycle-end row is relabeled with the
    cycle's index as perturbation_count, and flagged where its training
    criterion (classification error 0, or loss <= RECONVERGE_TOL for
    regression) is not met; the run continues. Every perturbed start is
    checked before any noise is drawn. Each perturbation is one draw,
    applied as drawn even where it puts a relu pre-activation on the kink;
    each count sums the re-flows' counts, so a kinked perturbed point
    counts once, as the start of the next cycle's re-flow.

    controls are states of the same architecture that flow alongside and
    are never perturbed: their rows have perturbation_count 0 and no flag,
    and they need not start at zero training error. A control's last row
    and final state are those of one unbroken run_flows of
    interval * (repetitions + 1) steps.

    The re-flows of a cycle, controls included, are one run_flows call,
    sampled at its two ends; each flow's last row and final state are the
    cycle boundary. Each state keeps its own perturbation stream (seeded by
    its rng_seed), time, counts, row flags and final state, bitwise those of
    a stack of one.
    """
    if any(s.rhos for s in [*states, *controls]):
        raise ValueError("the protocol perturbs plain flows only, not "
                         "normalized ones")
    regression = data.task == "regression"

    def reconverged(row):
        return (row.loss <= RECONVERGE_TOL if regression
                else row.train_error == 0.0)

    perturbed = len(states)
    states = list(states) + list(controls)
    traces = [TrajectoryTrace(layer_count=s.net.depth) for s in states]
    rngs = [np.random.default_rng(s.rng_seed) for s in states[:perturbed]]
    for cycle in range(protocol.repetitions + 1):
        ends = run_flows(states, kind, data,
                         StopRule(max_steps=protocol.interval),
                         sample_every=protocol.interval, refs=refs)
        for r, end in enumerate(ends[:perturbed] if cycle == 0 else ()):
            start = end.rows[0]  # checked before any noise is drawn
            if not reconverged(start):
                raise ValueError(_member(
                    f"start the protocol at an interpolating state (loss "
                    f"{start.loss:.3e} > {RECONVERGE_TOL:.1e})" if regression
                    else "start the protocol at zero training error",
                    r, len(states)))
        for r, (trace, end) in enumerate(zip(traces, ends)):
            row, net = end.rows[-1], end.final_state.net
            for name, count in end.counts.items():
                trace.counts[name] += count
            if r < perturbed:  # a control's rows are run_flows' own
                row = row._replace(perturbation_count=cycle, flag=(
                    "" if reconverged(row) else "not_reconverged"))
            trace.rows += [end.rows[0], row] if cycle == 0 else [row]
            if r < perturbed and cycle < protocol.repetitions:
                deltas = _draw_perturbation(rngs[r], net.layers, protocol)
                net = net.with_layers(
                    [w + d for w, d in zip(net.layers, deltas)])
            states[r] = replace(end.final_state, net=net)
    for state, trace in zip(states, traces):
        trace.converged = True
        trace.stop_reason = "schedule_complete"
        trace.final_state = state
    return traces


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
