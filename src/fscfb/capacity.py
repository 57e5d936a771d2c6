"""Finite-horizon feedback-capacity estimation.

The estimator maximizes (1/N) I(X^N -> Y^N | s_0) over causal input
policies p(x^N || y^{N-1}) for a unifilar channel. Policies are
parametrized by softmax logits per history, and the ascent uses the exact
gradient of the directed information through the trajectory law. A
Blahut-Arimoto solver provides the memoryless-channel oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import UnifilarChannel
from .errors import DomainError, ResourceLimitError, ShapeError, ValidationError
from .info import (
    INPUTS,
    CausalKernel,
    JointLaw,
    binary_entropy,
    causal_product,
    directed_information,
)

POLICY_ROW_TOL = 1e-12
_STEP_GROW = 1.3
_STEP_MIN = 1e-18


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for the multi-start ascent; defaults match the CLI defaults."""

    restarts: int = 8
    max_iters: int = 20000
    tol: float = 1e-10          # objective stall threshold over the window
    stall_window: int = 50
    grad_tol: float = 1e-8      # max-norm stopping criterion
    seed: int = 0
    max_paths: int = 4096       # (|X||Y|)^N guard; 4096 = binary N=6
    init_scale: float = 1.0     # stddev of random logit inits
    check_gradient: bool = True
    fd_step: float = 1e-6


@dataclass(frozen=True)
class CausalPolicy:
    """Input policy p(x_n | x^{n-1}, y^{n-1}) for a fixed horizon.

    ``steps[n-1]`` is a ((|X||Y|)^(n-1), |X|) table; the flat history index
    packs the (x_k, y_k) pairs most-recent-last, each pair as x*|Y| + y.
    """

    horizon: int
    x_size: int
    y_size: int
    steps: tuple

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("policy horizon must be >= 1")
        if len(self.steps) != self.horizon:
            raise ShapeError(f"{len(self.steps)} step tables for horizon {self.horizon}")
        pair = self.x_size * self.y_size
        frozen = []
        for n, raw in enumerate(self.steps, start=1):
            t = np.asarray(raw, dtype=float)
            want = (pair ** (n - 1), self.x_size)
            if t.shape != want:
                raise ShapeError(f"step {n} table has shape {t.shape}, expected {want}")
            sums = t.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > POLICY_ROW_TOL):
                h = int(np.argmax(np.abs(sums - 1.0)))
                raise ValidationError(
                    f"step {n} conditional at history {h} sums to {sums[h]:.17g}"
                )
            if np.any(t < 0):
                raise ValidationError(f"step {n} has negative probabilities")
            t = np.array(t, copy=True)
            t.flags.writeable = False
            frozen.append(t)
        object.__setattr__(self, "steps", tuple(frozen))

    @staticmethod
    def uniform(x_size: int, y_size: int, horizon: int) -> "CausalPolicy":
        return CausalPolicy.iid(np.full(x_size, 1.0 / x_size), y_size, horizon)

    @staticmethod
    def iid(dist, y_size: int, horizon: int) -> "CausalPolicy":
        dist = np.asarray(dist, dtype=float)
        x_size = dist.size
        pair = x_size * y_size
        steps = tuple(
            np.tile(dist, (pair ** (n - 1), 1)) for n in range(1, horizon + 1)
        )
        return CausalPolicy(horizon, x_size, y_size, steps)

    def free_parameter_count(self) -> int:
        pair = self.x_size * self.y_size
        return sum(pair ** (n - 1) * (self.x_size - 1) for n in range(1, self.horizon + 1))

    def to_kernel(self) -> CausalKernel:
        """Repack the flat history tables into a dense input-side causal kernel."""
        x, y = self.x_size, self.y_size
        steps = []
        for n, t in enumerate(self.steps, start=1):
            arr = t.reshape((x, y) * (n - 1) + (x,))
            perm = (
                list(range(0, 2 * (n - 1), 2))
                + list(range(1, 2 * (n - 1), 2))
                + [2 * (n - 1)]
            )
            steps.append(arr.transpose(perm))
        return CausalKernel(self.horizon, INPUTS, x, y, tuple(steps))


def feedback_channel_kernel(u: UnifilarChannel, s0: int, horizon: int) -> CausalKernel:
    """Output-side kernel p(y_n | y^{n-1}, x^n) = W(y_n | x_n, s_{n-1}(history)).

    The unifilar state after any (x, y) history is deterministic given s_0,
    so each history prefix selects one row of W.
    """
    if not 0 <= s0 < u.s_size:
        raise IndexError(f"state {s0} outside 0..{u.s_size - 1}")
    x, y = u.x_size, u.y_size
    steps = []
    for n in range(1, horizon + 1):
        t = np.empty((y,) * (n - 1) + (x,) * n + (y,))
        for hist in np.ndindex((x,) * (n - 1) + (y,) * (n - 1)):
            xh, yh = hist[: n - 1], hist[n - 1 :]
            s = s0
            for xk, yk in zip(xh, yh):
                s = int(u.f[s, xk, yk])
            t[yh + xh] = u.w[s]
        steps.append(t)
    return CausalKernel(horizon, "outputs", y, x, tuple(steps))


def trajectory_law(u: UnifilarChannel, s0: int, policy: CausalPolicy) -> JointLaw:
    """Exact joint p(x^N, y^N | s_0) induced by the policy on the channel."""
    if policy.x_size != u.x_size or policy.y_size != u.y_size:
        raise ShapeError("policy alphabets do not match the channel")
    return causal_product(
        policy.to_kernel(), feedback_channel_kernel(u, s0, policy.horizon)
    )


def evaluate_rate(u: UnifilarChannel, s0: int, policy: CausalPolicy) -> float:
    """(1/N) I(X^N -> Y^N | s_0) in bits per channel use."""
    joint = trajectory_law(u, s0, policy)
    return directed_information(joint, policy.horizon) / policy.horizon


class _PathModel:
    """Flat enumeration of all (x, y) trajectories for fast ascent iterations.

    The objective is J = (1/N) sum_p P(p) [log2 Wseq(p) - log2 Q(y(p))] with
    P the path law under the current policy, Wseq the channel factor and Q
    the output-sequence marginal. Its exact logit gradient reduces to
    history-grouped sums of P*L because the Q-term's derivative integrates
    to zero.

    Every step shares one logit table of shape (sum_{n<N} (|X||Y|)^n, |X|);
    step n's rows, one per history of length n, are ``theta[steps[n]]``.
    ``rows`` and ``cells`` list, step-major, the row and the flat table entry
    each path draws at each step, so one gather or one scatter serves all
    steps while every sum still takes its terms in path order.
    """

    def __init__(self, u: UnifilarChannel, s0: int, horizon: int):
        x, y = u.x_size, u.y_size
        pair = x * y
        paths = pair**horizon
        digits = np.stack(np.unravel_index(np.arange(paths), (pair,) * horizon))
        xs, ys = digits // y, digits % y
        self.horizon = horizon
        self.y_size = y
        offsets = np.concatenate(([0], np.cumsum(pair ** np.arange(horizon))))
        self.steps = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self.theta_shape = (int(offsets[-1]), x)
        hist = np.zeros_like(digits)
        for n in range(1, horizon):
            hist[n] = hist[n - 1] * pair + digits[n - 1]
        self.rows = (hist + offsets[:-1, None]).ravel()
        self.cells = self.rows * x + xs.ravel()
        state = np.full(paths, s0, dtype=np.int64)
        wseq = np.ones(paths)
        for n in range(horizon):
            wseq *= u.w[state, xs[n], ys[n]]
            state = u.f[state, xs[n], ys[n]]
        self.wseq = wseq
        self.logw = np.where(wseq > 0, np.log2(np.where(wseq > 0, wseq, 1.0)), 0.0)
        self.yidx = np.zeros(paths, dtype=np.int64)
        for n in range(horizon):
            self.yidx = self.yidx * y + ys[n]

    @staticmethod
    def softmax(theta: np.ndarray) -> np.ndarray:
        z = theta - theta.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def objective(self, pi):
        prob = self.wseq.copy()
        for factor in pi.ravel()[self.cells].reshape(self.horizon, -1):
            prob *= factor
        q = np.bincount(self.yidx, weights=prob, minlength=self.y_size**self.horizon)
        pos = prob > 0
        loss = np.zeros(prob.size)
        loss[pos] = self.logw[pos] - np.log2(q[self.yidx[pos]])
        value = float(prob @ loss) / self.horizon
        return value, prob, loss

    def gradient(self, pi, prob, loss):
        pl = np.concatenate((prob * loss,) * self.horizon)
        s1 = np.bincount(self.cells, weights=pl, minlength=pi.size).reshape(pi.shape)
        s0 = np.bincount(self.rows, weights=pl, minlength=pi.shape[0])
        return (s1 - pi * s0[:, None]) / self.horizon

    def objective_at(self, theta) -> float:
        return self.objective(self.softmax(theta))[0]

    def step_sums(self, a, b) -> float:
        """sum(a * b) added one step's rows at a time, in step order: the
        rounding that the recorded ascent trajectories pin."""
        ab = a * b
        return sum(float(ab[rows].sum()) for rows in self.steps)


def _ascend(model: _PathModel, theta, cfg: OptimizerSettings):
    pi = model.softmax(theta)
    value, prob, loss = model.objective(pi)
    eta = 1.0
    trace = [value]
    grad_norm = np.inf
    converged = False
    iters = 0
    prev_theta = None
    prev_grad = None
    for iters in range(1, cfg.max_iters + 1):
        grad = model.gradient(pi, prob, loss)
        grad_norm = float(np.abs(grad).max())
        if grad_norm < cfg.grad_tol:
            converged = True
            break
        if prev_grad is not None:
            # Barzilai-Borwein trial step; flat ridges need far fewer
            # halving cycles this way than a purely adaptive step does
            s = theta - prev_theta
            s_dot_s = model.step_sums(s, s)
            s_dot_y = model.step_sums(s, grad - prev_grad)
            if s_dot_y < 0.0:  # concave curvature along the last step
                eta = min(max(s_dot_s / -s_dot_y, _STEP_MIN), 1e6)
        prev_theta = theta
        prev_grad = grad
        improved = False
        while eta >= _STEP_MIN:
            trial = theta + eta * grad
            trial_pi = model.softmax(trial)
            trial_value, trial_prob, trial_loss = model.objective(trial_pi)
            if trial_value > value:
                theta, pi = trial, trial_pi
                value, prob, loss = trial_value, trial_prob, trial_loss
                eta = min(eta * _STEP_GROW, 1e6)
                improved = True
                break
            eta *= 0.5
        if not improved:
            converged = True  # no ascent step improves: numerically stationary
            break
        trace.append(value)
        if (
            len(trace) > cfg.stall_window
            and value - trace[-cfg.stall_window - 1] < cfg.tol
        ):
            converged = True
            break
    return theta, value, iters, grad_norm, converged


def _central_difference_error(model: _PathModel, theta, cfg: OptimizerSettings) -> float:
    pi = model.softmax(theta)
    _, prob, loss = model.objective(pi)
    grad = model.gradient(pi, prob, loss)
    h = cfg.fd_step
    worst = 0.0
    theta = theta.copy()  # the caller's logits stay bit-exact
    for idx in np.ndindex(theta.shape):
        saved = theta[idx]
        theta[idx] = saved + h
        up = model.objective_at(theta)
        theta[idx] = saved - h
        down = model.objective_at(theta)
        theta[idx] = saved
        worst = max(worst, abs((up - down) / (2 * h) - grad[idx]))
    return worst


@dataclass(frozen=True)
class CapacityEstimate:
    """A finite-horizon feedback-rate estimate and how it was obtained."""

    value: float
    horizon: int
    initial_state: int | None
    state_mode: str  # "fixed" | "min" | "max"
    policy: CausalPolicy | None = None
    diagnostics: dict = field(default_factory=dict)


def optimize_rate(
    u: UnifilarChannel, s0: int, horizon: int, cfg: OptimizerSettings | None = None
) -> CapacityEstimate:
    """Multi-start gradient ascent over causal policies from a fixed initial state.

    Start 0 is the uniform policy, so the result is never below the
    uniform-iid baseline; remaining starts use seeded random logits. The
    analytic gradient is cross-checked against central finite differences
    at the returned solution.
    """
    cfg = cfg or OptimizerSettings()
    if not 0 <= s0 < u.s_size:
        raise IndexError(f"state {s0} outside 0..{u.s_size - 1}")
    paths = (u.x_size * u.y_size) ** horizon
    if paths > cfg.max_paths:
        raise ResourceLimitError(
            f"horizon {horizon} needs {paths} trajectories, over the limit of {cfg.max_paths}",
            limit=cfg.max_paths,
        )
    model = _PathModel(u, s0, horizon)

    best = None
    total_iters = 0
    for restart in range(max(1, cfg.restarts)):
        if restart == 0:
            theta0 = np.zeros(model.theta_shape)
        else:
            rng = np.random.default_rng([cfg.seed, restart])
            theta0 = rng.normal(0.0, cfg.init_scale, model.theta_shape)
        theta, value, iters, grad_norm, converged = _ascend(model, theta0, cfg)
        total_iters += iters
        if best is None or value > best[1]:
            best = (theta, value, restart, grad_norm, converged)
    theta, fast_value, best_restart, grad_norm, converged = best

    diagnostics = {
        "restarts": max(1, cfg.restarts),
        "best_restart": best_restart,
        "iterations": total_iters,
        "final_grad_norm": grad_norm,
        "converged": converged,
        "fast_value": fast_value,
    }
    if cfg.check_gradient:
        diagnostics["grad_check_error"] = _central_difference_error(model, theta, cfg)

    pi = model.softmax(theta)
    policy = CausalPolicy(horizon, u.x_size, u.y_size, tuple(pi[rows] for rows in model.steps))
    value = evaluate_rate(u, s0, policy)
    return CapacityEstimate(
        value=value,
        horizon=horizon,
        initial_state=s0,
        state_mode="fixed",
        policy=policy,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class FiniteNBracket:
    """Per-initial-state estimates at one horizon plus their min and max.

    The min of the per-state maxima upper-bounds the max-min lower-capacity
    quantity at this horizon; it is a bracket, not that max-min itself.
    """

    horizon: int
    per_state: tuple
    low: CapacityEstimate
    high: CapacityEstimate
    bracket_only: bool = True
    note: str = "min over initial states of per-state maxima; not the joint max-min"


def finite_n_bracket(
    u: UnifilarChannel, horizon: int, cfg: OptimizerSettings | None = None
) -> FiniteNBracket:
    """Run the estimator once per initial state and report the spread."""
    per_state = tuple(optimize_rate(u, s0, horizon, cfg) for s0 in range(u.s_size))
    lo = min(per_state, key=lambda e: (e.value, e.initial_state))
    hi = max(per_state, key=lambda e: (e.value, -e.initial_state))
    low = CapacityEstimate(lo.value, horizon, lo.initial_state, "min", lo.policy, lo.diagnostics)
    high = CapacityEstimate(hi.value, horizon, hi.initial_state, "max", hi.policy, hi.diagnostics)
    return FiniteNBracket(horizon=horizon, per_state=per_state, low=low, high=high)


@dataclass(frozen=True)
class DmcCapacityResult:
    capacity: float
    input_dist: np.ndarray
    iterations: int
    bracket: float


def dmc_capacity(w, tol: float = 1e-10, max_iters: int = 2_000_000) -> DmcCapacityResult:
    """Memoryless-channel capacity by alternating maximization.

    Iterates the multiplicative input update until the standard upper and
    lower capacity bounds differ by less than ``tol`` and returns their
    midpoint together with the maximizing input distribution.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ShapeError(f"channel table must be 2-d, got shape {w.shape}")
    if np.any(w < 0):
        raise ValidationError("channel has negative entries")
    sums = w.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > POLICY_ROW_TOL):
        x = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(f"channel row x={x} sums to {sums[x]:.17g}")
    x_size = w.shape[0]
    logw = np.where(w > 0, np.log2(np.where(w > 0, w, 1.0)), 0.0)
    r = np.full(x_size, 1.0 / x_size)
    for it in range(1, max_iters + 1):
        q = r @ w
        logq = np.where(q > 0, np.log2(np.where(q > 0, q, 1.0)), 0.0)
        # d[x] = KL(w[x] || q) in bits; exact where w[x,y] > 0 implies q[y] > 0
        d = (w * (logw - logq[None, :])).sum(axis=1)
        lower = float(r @ d)
        upper = float(d.max())
        if upper - lower < tol:
            return DmcCapacityResult(
                capacity=(upper + lower) / 2.0,
                input_dist=r,
                iterations=it,
                bracket=upper - lower,
            )
        r = r * np.exp2(d)
        r = r / r.sum()
    raise ResourceLimitError(
        f"capacity bracket did not close below {tol} in {max_iters} iterations",
        limit=max_iters,
    )


def z_channel_closed_form(eps: float):
    """Capacity and maximizer of the Z-channel that flips input 0 with prob eps.

    Returns (log2(1 + 2^(-g)), [p0, 1 - p0]) with g = H2(eps)/(1 - eps) and
    p0 = 1 / ((1 - eps) (1 + 2^g)).
    """
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise DomainError(f"flip probability {eps} outside (0, 1/2)")
    g = binary_entropy(eps) / (1.0 - eps)
    capacity = float(np.log2(1.0 + 2.0**-g))
    p0 = 1.0 / ((1.0 - eps) * (1.0 + 2.0**g))
    return capacity, np.array([p0, 1.0 - p0])
