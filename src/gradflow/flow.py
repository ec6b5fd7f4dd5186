"""Integrators for every dynamical system in the package.

Plain explicit-Euler gradient flow (optionally ridge-regularized), a
loss-rescaled stepping mode for the logarithmically slow separable runs,
an exact mode-by-mode propagator for linear square-loss descent (the
workhorse behind million-step perturbation schedules), the normalized
scale/direction systems, and the perturb-and-reconverge protocol.

Trace CSV columns, in order: time, loss, train_error, test_error,
norm_l1..norm_lK, margin_cosine, nullspace_norm, residual_norm,
perturbation_count. Cells without a configured reference stay empty;
residual_norm has none and is always empty, kept so the format stays put.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import frobenius_norm, gram_solve, symmetric_eig
from .losses import (
    Dataset,
    _check_kind,
    _loss_and_gradient,
    classification_error,
    loss,
    mean_squared_error,
)
from .network import (DeepNet, batch_backprop, batch_forward, flatten_params,
                      normalize_layers, unflatten_params)

LOSS_EXPLOSION_FACTOR = 10.0
MAX_HALVINGS = 40
MAX_ITERATIONS_HARD_CAP = 200_000_000
V_DRIFT_LOG_THRESHOLD = 1e-4
V_DRIFT_INVARIANT = 1e-6


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
    """Stopping condition for run_flow.

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
    kink_events: int = 0
    # loss_rescaled steps taken although the loss still rose after
    # MAX_HALVINGS halvings; a count only, not a CSV column
    backtrack_giveups: int = 0

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


def _total_gradient(grads, layers, lambdas):
    """Gradient of the ridge-regularized objective, per layer."""
    if not np.any(lambdas):
        return grads
    return [g + 2.0 * lam * w for g, lam, w in zip(grads, lambdas, layers)]


def _grad_norm(grads) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


class _Euler:
    """The flow's one explicit-Euler step, shared by flow_step and run_flow.

    The current point and a trial point live in two flat float64 buffers,
    each wrapped once in a DeepNet whose layers are views into it, so a
    step rewrites numbers in place instead of building a net. The loss
    kind is checked once up front; every trial point is checked for
    non-finite weights once, and one is an error, never absorbed.
    """

    def __init__(self, net: DeepNet, kind: str, data: Dataset, lambdas):
        _check_kind(kind, data, net)
        self.kind, self.data, self.lambdas = kind, data, lambdas
        shapes = [w.shape for w in net.layers]
        self.flat = flatten_params(net.layers)
        self.net = net.with_layers(unflatten_params(self.flat, shapes))
        # zeros, not empty: the net built on it checks its entries are finite
        self._trial_flat = np.zeros_like(self.flat)
        self._trial = net.with_layers(unflatten_params(self._trial_flat, shapes))
        self.value, grads, kink = _loss_and_gradient(kind, self.net, data)
        self.total = _total_gradient(grads, self.net.layers, lambdas)
        self.kink_events = int(kink)
        self.backtrack_giveups = 0

    def step(self, dt: float, backtrack: bool) -> float:
        """Move to W_k - dt * (grad_k + 2 lam_k W_k); returns the dt taken.

        Without backtrack a loss jump by more than LOSS_EXPLOSION_FACTOR
        raises: it is the signature of a step beyond the stability limit.
        With it, dt halves while the loss would rise; a step still rising
        after MAX_HALVINGS halvings is taken and counted as a give-up.
        """
        halvings = 0
        while True:
            for w, g, out in zip(self.net.layers, self.total, self._trial.layers):
                np.subtract(w, dt * g, out=out)
            if not np.isfinite(self._trial_flat).all():
                raise ValueError(
                    f"non-finite weights after a step of {dt:.3e}; "
                    "reduce the step"
                )
            value, grads, kink = _loss_and_gradient(self.kind, self._trial, self.data)
            if not backtrack and value > LOSS_EXPLOSION_FACTOR * max(self.value, 1e-300):
                raise ValueError(
                    f"loss exploded {self.value:.3e} -> {value:.3e}; "
                    f"reduce step below {dt:.3e}"
                )
            if not backtrack or value <= self.value:
                break
            if halvings >= MAX_HALVINGS:
                self.backtrack_giveups += 1
                break
            dt *= 0.5
            halvings += 1
        self.net, self._trial = self._trial, self.net
        self.flat, self._trial_flat = self._trial_flat, self.flat
        self.value = value
        self.total = _total_gradient(grads, self.net.layers, self.lambdas)
        self.kink_events += int(kink)
        return dt


def flow_step(state: FlowState, kind: str, data: Dataset,
              n_steps: int = 1) -> FlowState:
    """n_steps guarded explicit-Euler steps, W_k <- W_k - step*(grad_k +
    2 lam W_k), the steps run_flow takes with fixed stepping; time adds up
    step by step as in run_flow."""
    euler = _Euler(state.net, kind, data, state.lambda_array())
    t = state.time
    for _ in range(n_steps):
        t += euler.step(state.step, backtrack=False)
    return replace(state, net=euler.net, time=t)


def run_flow(
    state: FlowState,
    kind: str,
    data: Dataset,
    stop: StopRule,
    sample_every: int = 100,
    stepping: str = "fixed",
    refs: TraceRefs | None = None,
) -> TrajectoryTrace:
    """Iterate the Euler flow until the stop rule or budget hits.

    stepping="fixed" advances time by `step` per iteration. For
    stepping="loss_rescaled" each iteration advances time by step/loss,
    the same trajectory under a monotone time change; useful for
    exponential-family losses whose interesting behavior lives at
    exponentially large times. The rescaled mode backtracks (halves the
    substep) when a step would increase the loss.
    """
    if stepping not in ("fixed", "loss_rescaled"):
        raise ValueError(f"unknown stepping {stepping!r}")
    euler = _Euler(state.net, kind, data, state.lambda_array())
    t = state.time
    trace = TrajectoryTrace(layer_count=state.net.depth)
    max_steps = stop.max_steps
    if max_steps is None:
        if stepping == "fixed":
            max_steps = int(np.ceil((stop.max_time - t) / state.step)) + 1
        else:
            max_steps = MAX_ITERATIONS_HARD_CAP
    max_steps = min(max_steps, MAX_ITERATIONS_HARD_CAP)

    dir_snapshot = None
    dir_snapshot_time = None
    iteration = 0
    while True:
        if iteration % sample_every == 0:
            _record(trace, refs, euler.net, _error_metric(euler.net, data),
                    t, euler.value, 0)
        if stop.loss_below is not None and euler.value <= stop.loss_below:
            converged, reason = True, "loss_below"
            break
        if (stop.grad_norm_below is not None
                and _grad_norm(euler.total) <= stop.grad_norm_below):
            converged, reason = True, "grad_norm_below"
            break
        if stop.direction_angle_below is not None:
            flat = euler.flat
            norm = float(np.sqrt((flat * flat).sum()))
            if norm > 0.0:
                direction = flat / norm
                if dir_snapshot is None:
                    dir_snapshot, dir_snapshot_time = direction, max(t, 1e-12)
                elif t >= 2.0 * dir_snapshot_time:
                    # 2 asin(|u - v|/2) resolves angles arccos cannot
                    gap = float(np.sqrt(((direction - dir_snapshot) ** 2).sum()))
                    angle = 2.0 * np.arcsin(min(1.0, 0.5 * gap))
                    if angle < stop.direction_angle_below:
                        converged, reason = True, "direction_stalled"
                        break
                    dir_snapshot, dir_snapshot_time = direction, t
        if stop.max_time is not None and t >= stop.max_time:
            converged = not stop.has_target
            reason = "max_time"
            break
        if iteration >= max_steps:
            converged = not stop.has_target and stop.max_steps is not None
            reason = "max_steps"
            break

        if stepping == "fixed":
            dt = state.step
        else:
            dt = state.step / max(euler.value, 1e-300)
        t += euler.step(dt, backtrack=stepping == "loss_rescaled")
        iteration += 1

    if not trace.times or trace.times[-1] != t:
        _record(trace, refs, euler.net, _error_metric(euler.net, data), t,
                euler.value, 0)
    trace.converged = converged
    trace.stop_reason = reason
    trace.kink_events = euler.kink_events
    trace.backtrack_giveups = euler.backtrack_giveups
    # the buffers behind euler.net are not written once run_flow returns
    trace.final_state = replace(state, net=euler.net, time=t)
    return trace


class LinearSquareGD:
    """Exact fixed-step gradient descent for the summed square loss of a
    linear model, propagated mode by mode.

    One eigendecomposition of X^T X up front, which also gives w_min_norm
    and the null_basis columns; afterwards n steps of GD from any w cost a
    couple of matrix-vector products, bit-identical in exact arithmetic to
    iterating w <- w - step * 2 X^T (X w - y). Null modes (zero
    eigenvalues) pass through unchanged, which is the invariance the
    perturbation experiments measure.
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
        """State after n_steps of exact GD from w0."""
        c = self.basis.T @ (np.asarray(w0, float) - self.w_min_norm)
        factors = (1.0 - 2.0 * self.step * self.eigenvalues) ** n_steps
        return self.w_min_norm + self.basis @ (factors * c)


@dataclass(frozen=True)
class PerturbationProtocol:
    """Perturb-then-reconverge schedule.

    noise_std is an absolute per-entry standard deviation in "absolute"
    mode, or a fraction of each layer's empirical weight std in "relative"
    mode. per_coordinate=False rescales each perturbation to total norm
    noise_std instead. interval is the number of flow steps between
    perturbations (also the re-convergence budget); perturbations stop
    after step index stop_after or after `repetitions` events.
    """

    noise_std: float
    interval: int
    repetitions: int
    stop_after: int | None = None
    mode: str = "absolute"
    per_coordinate: bool = True

    def __post_init__(self):
        if not self.noise_std > 0.0:
            raise ValueError("noise_std must be positive")
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.mode not in ("absolute", "relative"):
            raise ValueError(f"unknown noise mode {self.mode!r}")


def _draw_perturbation(rng, layers, protocol):
    deltas = []
    for w in layers:
        sigma = protocol.noise_std
        if protocol.mode == "relative":
            spread = float(w.std())
            sigma = protocol.noise_std * (spread if spread > 0.0 else 1.0)
        deltas.append(sigma * rng.normal(size=w.shape))
    if not protocol.per_coordinate:
        total = np.sqrt(sum(float((d * d).sum()) for d in deltas))
        if total > 0.0:
            deltas = [d * (protocol.noise_std / total) for d in deltas]
    return deltas


def perturb_and_reconverge(
    state: FlowState,
    protocol: PerturbationProtocol,
    kind: str,
    data: Dataset,
    total_steps: int | None = None,
    reconverge_tol: float = 1e-6,
    refs: TraceRefs | None = None,
) -> TrajectoryTrace:
    """Alternate Gaussian weight perturbations with interval-long re-flows.

    The trace records one row per cycle boundary (just before each
    perturbation) plus the final state. A cycle whose training criterion
    (classification error 0, or loss <= reconverge_tol for regression) is
    not met gets flagged, and the run continues. kink_events counts the
    relu kinks met by the re-convergence steps and the perturbation redraws.
    """
    net = state.net
    value = loss(kind, net, data)
    train_error = _error_metric(net, data)
    if data.task == "regression":
        if value > reconverge_tol:
            raise ValueError(
                f"start the protocol at an interpolating state "
                f"(loss {value:.3e} > {reconverge_tol:.1e})"
            )
    elif train_error > 0.0:
        raise ValueError("start the protocol at zero training error")
    stop_after = protocol.stop_after
    if stop_after is None:
        stop_after = protocol.interval * protocol.repetitions
    if total_steps is None:
        total_steps = stop_after + protocol.interval
    rng = np.random.default_rng(state.rng_seed)
    trace = TrajectoryTrace(layer_count=net.depth)
    pert_count = 0
    t = state.time
    step_idx = 0
    _record(trace, refs, net, train_error, t, value, pert_count)
    while step_idx < total_steps:
        chunk = min(protocol.interval, total_steps - step_idx)
        euler = _Euler(net, kind, data, state.lambda_array())
        for _ in range(chunk):
            t += euler.step(state.step, backtrack=False)
        net, value = euler.net, euler.value
        train_error = _error_metric(net, data)
        trace.kink_events += euler.kink_events
        step_idx += chunk
        ok = (
            value <= reconverge_tol
            if data.task == "regression"
            else train_error == 0.0
        )
        flag = "" if ok else "not_reconverged"
        may_perturb = (
            step_idx <= stop_after and pert_count < protocol.repetitions
            and step_idx < total_steps
        )
        _record(trace, refs, net, train_error, t, value, pert_count, flag)
        if may_perturb:
            for _ in range(5):
                deltas = _draw_perturbation(rng, net.layers, protocol)
                candidate = net.with_layers(
                    [w + d for w, d in zip(net.layers, deltas)]
                )
                kink = batch_forward(candidate, data.inputs)[-1]
                if not kink:
                    break
                trace.kink_events += 1
            net = candidate
            pert_count += 1
    trace.converged = True
    trace.stop_reason = "schedule_complete"
    trace.final_state = replace(state, net=net, time=t)
    return trace


@dataclass(frozen=True)
class NormalizedFlowState:
    """Scales rho_k and unit-Frobenius directions V_k, evolved separately.

    lambda_mode="constraint" recomputes lambda_k = <V_k, B_k>/2 every step
    (the multiplier that keeps V_k on the unit sphere); "fixed" uses the
    given lambdas as a static penalty.
    """

    unit_net: DeepNet
    rhos: tuple
    step: float
    time: float = 0.0
    lambda_mode: str = "constraint"
    lambdas: tuple = ()
    stepping: str = "fixed"
    renorm_events: int = 0
    max_v_drift: float = 0.0

    def __post_init__(self):
        if self.lambda_mode not in ("constraint", "fixed"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.stepping not in ("fixed", "loss_rescaled"):
            raise ValueError(f"unknown stepping {self.stepping!r}")
        if self.lambda_mode == "fixed" and len(self.lambdas) != self.unit_net.depth:
            raise ValueError("fixed mode needs one lambda per layer")
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
    B_k - 2 lambda_k V_k and is renormalized, with drifts beyond 1e-4
    counted as events.
    """
    if state.unit_net.activation not in ("relu", "linear"):
        raise ValueError("normalized dynamics needs a homogeneous activation")
    if data.task != "binary":
        raise ValueError("normalized dynamics is stated for binary data")
    unit = state.unit_net
    rhos = np.asarray(state.rhos)
    prod = float(np.prod(rhos))
    out, _, acts, derivs, _ = batch_forward(unit, data.inputs)
    f_tilde = data.labels * out[0]
    weights = np.exp(-np.minimum(prod * f_tilde, 709.0))
    margin_mass = float((weights * f_tilde).sum())
    rho_dots = (prod / rhos) * margin_mass
    b_delta = (data.labels * weights)[None, :] * prod
    b_list = batch_backprop(unit, acts, derivs, b_delta)
    dt = state.step
    if state.stepping == "loss_rescaled":
        # extra 1/(1+prod) keeps the tangent step bounded: the direction
        # gradient B_k carries a factor prod that the loss does not cancel
        dt = state.step / max(float(weights.sum()) * (1.0 + prod), 1e-300)
    new_layers = []
    new_rhos = rhos + dt * rho_dots
    if np.any(new_rhos <= 0.0):
        raise ValueError(
            "a scale crossed zero (the state does not separate the data); "
            "run the plain flow to a separating state before switching to "
            "normalized coordinates"
        )
    events = state.renorm_events
    max_drift = state.max_v_drift
    for k, (v, b) in enumerate(zip(unit.layers, b_list)):
        if state.lambda_mode == "constraint":
            lam = 0.5 * float((v * b).sum())
        else:
            lam = state.lambdas[k]
        v_new = v + dt * (b - 2.0 * lam * v)
        norm = frobenius_norm(v_new)
        drift = abs(norm - 1.0)
        max_drift = max(max_drift, drift)
        if drift > V_DRIFT_LOG_THRESHOLD:
            events += 1
        new_layers.append(v_new / norm if norm > 0.0 else v)
    return replace(
        state,
        unit_net=unit.with_layers(new_layers),
        rhos=tuple(float(r) for r in new_rhos),
        time=state.time + dt,
        renorm_events=events,
        max_v_drift=max_drift,
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


@dataclass
class DirectionTrace:
    times: list
    norms: list
    directions: list
    unit_drift_max: float


def normalized_direction_flow(
    w0,
    data: Dataset,
    n_steps: int,
    step: float,
    stepping: str = "loss_rescaled",
    sample_every: int = 100,
) -> DirectionTrace:
    """Single-layer split dynamics: the norm r grows by the loss-weighted
    margin sum while the unit direction moves in the tangent plane scaled
    by 1/r. Requires the starting direction to separate the data.
    """
    if data.task != "binary":
        raise ValueError("direction dynamics needs binary data")
    w0 = np.asarray(w0, dtype=float)
    r = float(np.sqrt(w0 @ w0))
    if r == 0.0:
        raise ValueError("starting weights must be nonzero")
    w_dir = w0 / r
    x = data.inputs
    y = data.labels
    margins = y * (x @ w_dir)
    if margins.min() <= 0.0:
        raise ValueError(
            "starting direction must separate the data "
            f"(worst margin {margins.min():.3e})"
        )
    t = 0.0
    times, norms, dirs = [], [], []
    drift = 0.0
    for i in range(n_steps):
        f_tilde = y * (x @ w_dir)
        weights = np.exp(-np.minimum(r * f_tilde, 709.0))
        loss_val = float(weights.sum())
        r_dot = float((weights * f_tilde).sum())
        b = (y * weights) @ x
        tangent = (b - float(w_dir @ b) * w_dir) / r
        if i % sample_every == 0:
            times.append(t)
            norms.append(r)
            dirs.append(w_dir.copy())
        dt = step if stepping == "fixed" else step / max(loss_val, 1e-300)
        r += dt * r_dot
        w_dir = w_dir + dt * tangent
        norm = float(np.sqrt(w_dir @ w_dir))
        drift = max(drift, abs(norm - 1.0))
        w_dir /= norm
        t += dt
    times.append(t)
    norms.append(r)
    dirs.append(w_dir.copy())
    return DirectionTrace(times, norms, dirs, drift)


def growth_numeric_trace(k: int, f_tilde: float, rho0: float, t_grid):
    """RK4 integration of the single-sample growth ODE
    rhodot = f k rho^(k-1) exp(-rho^k f) through the given time grid.

    Steps are uniform in log time past t=1 (the dynamics is logarithmic),
    uniform in plain time before that.
    """
    if f_tilde <= 0.0:
        raise ValueError("f_tilde must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0.0) or t_grid[0] < 0.0:
        raise ValueError("t_grid must be strictly increasing and nonnegative")

    def rhs(rho):
        return f_tilde * k * rho ** (k - 1) * np.exp(-(rho**k) * f_tilde)

    def rk4(rho, s, s_end, max_h, dt_ds):
        """RK4 in s from s to s_end, d rho/ds = dt_ds(s) * rhs(rho)."""
        n = max(1, int(np.ceil((s_end - s) / max_h)))
        h = (s_end - s) / n
        for _ in range(n):
            a, b, c = dt_ds(s), dt_ds(s + 0.5 * h), dt_ds(s + h)
            k1 = a * rhs(rho)
            k2 = b * rhs(rho + 0.5 * h * k1)
            k3 = b * rhs(rho + 0.5 * h * k2)
            k4 = c * rhs(rho + h * k3)
            rho += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s += h
        return rho

    def advance(rho, t_a, t_b):
        if t_a < min(t_b, 1.0):  # plain time, s = t
            rho = rk4(rho, t_a, min(t_b, 1.0), 5e-4, lambda s: 1.0)
            t_a = 1.0
        if t_a < t_b:  # log time, s = log t
            rho = rk4(rho, np.log(t_a), np.log(t_b), 1e-3, np.exp)
        return rho

    rhos = []
    rho = float(rho0)
    t_prev = 0.0
    for t in t_grid:
        rho = advance(rho, t_prev, float(t))
        rhos.append(rho)
        t_prev = float(t)
    return np.array(rhos)
