"""Finite-horizon feedback-capacity estimation.

The estimator maximizes (1/N) I(X^N -> Y^N | s_0) over causal input
policies p(x^N || y^{N-1}) for a unifilar channel. Every (x^N, y^N) path
has one channel factor, because the unifilar state is a function of the
path, so the rate is a sum over flat path tables. An over-relaxed
directed-information Blahut-Arimoto maximizes it and certifies an upper
bound as it goes. A memoryless Blahut-Arimoto solver provides the
single-state oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channels import UnifilarChannel
from .errors import DomainError, FscError, ResourceLimitError, ShapeError, ValidationError
from .info import MAX_JOINT_ENTRIES, binary_entropy

POLICY_ROW_TOL = 1e-12
MAX_PATHS = 4096     # (|X||Y|)^N guard on the solver; 4096 = binary N=6
_LN2 = np.log(2.0)


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs of the Blahut-Arimoto solver; defaults match the CLI defaults."""

    max_iters: int = 20000      # policy updates
    tol: float = 1e-10          # stop once upper - lower < tol


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
            off = np.abs(sums - 1.0)
            if not np.all(off <= POLICY_ROW_TOL):  # written so that NaN fails it
                h = int(np.argmax(off))  # argmax picks a NaN first
                raise ValidationError(
                    f"step {n} conditional at history {h} sums to {sums[h]:.17g}"
                )
            if not np.all(t >= 0):
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


def _check_cell(u: UnifilarChannel, s0: int, horizon: int, entries, limit: int, what: str):
    """Refuse, before anything is allocated, a horizon below 1, an initial
    state outside the channel and tables of more than ``limit`` ``what``."""
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= s0 < u.s_size:
        raise IndexError(f"state {s0} outside 0..{u.s_size - 1}")
    if entries > limit:
        raise ResourceLimitError(
            f"horizon {horizon} needs {entries} {what}, over the limit of {limit}",
            limit=limit,
        )


def _path_tables(
    u: UnifilarChannel, s0: int, horizon: int, limit: int = MAX_JOINT_ENTRIES, factors=None
):
    """Wseq, log2 Wseq and the output-sequence index of every (x^N, y^N) path.

    Paths are numbered like the policy's flat histories: the (x_n, y_n)
    pairs most-recent-last, each pair as x*|Y| + y. Bad horizons and states,
    and more than ``limit`` paths, are refused before anything is allocated.
    Each step's channel factor W_n(y_n | x_n, s_{n-1}), shaped (histories
    of length n-1, |X|, |Y|), is appended to ``factors`` if that is a list
    (at binary N = 10 they would add a quarter to evaluate_rate's peak).
    """
    x, y = u.x_size, u.y_size
    _check_cell(u, s0, horizon, (x * y) ** horizon, limit, "trajectories")
    wseq = np.ones(1)
    state = np.array([s0])
    yidx = np.zeros(1, dtype=np.int64)
    for _ in range(horizon):
        if factors is not None:
            factors.append(u.w[state])
        wseq = (wseq[:, None, None] * u.w[state]).ravel()
        state = u.f[state].ravel()
        yidx = np.broadcast_to(yidx[:, None, None] * y + np.arange(y), (yidx.size, x, y)).ravel()
    logw = np.where(wseq > 0, wseq, 1.0)
    return wseq, np.log2(logw, out=logw), yidx


def _path_rate(prob, logw, yidx, horizon: int, y_size: int, loss=None):
    """(1/N) sum_p P(p) L(p) with the loss L = log2 Wseq - log2 Q(y(p)),
    written into ``loss`` if given, and Q, the output-sequence marginal of
    the path law P."""
    q = np.bincount(yidx, weights=prob, minlength=y_size**horizon)
    loss = np.subtract(logw, np.log2(np.where(q > 0, q, 1.0))[yidx], out=loss)
    return float(prob @ loss) / horizon, q


def evaluate_rate(u: UnifilarChannel, s0: int, policy: CausalPolicy) -> float:
    """(1/N) I(X^N -> Y^N | s_0) in bits per channel use."""
    if policy.x_size != u.x_size or policy.y_size != u.y_size:
        raise ShapeError("policy alphabets do not match the channel")
    n_steps = policy.horizon
    prob, logw, yidx = _path_tables(u, s0, n_steps)
    pair = u.x_size * u.y_size
    for n, step in enumerate(policy.steps):
        # each (history, x_n) entry covers y_n and every continuation
        prob *= np.repeat(step.ravel(), u.y_size * pair ** (n_steps - 1 - n))
    value, _ = _path_rate(prob, logw, yidx, n_steps, u.y_size, loss=logw)  # in place: peak memory
    if not np.isfinite(value):
        raise FscError(f"directed information is not finite: {value!r}")
    return value


def iid_rate(u: UnifilarChannel, s0: int, dist, horizon: int) -> float:
    """(1/N) I(X^N -> Y^N | s_0) of inputs drawn iid from ``dist``, in bits
    per channel use.

    Inputs that ignore the past need no path tables: the forward recursion
    runs over the lattice nodes (y^n, s_n), alpha_n(y^n, s_n) = P(y^n, s_n),
    one step at a time through g(s_{n-1}, y_n, s_n) = sum_x p(x)
    W(y_n | x, s_{n-1}) over the x with f(s_{n-1}, x, y_n) = s_n. The rate is
    (E log2 Wseq - sum Q log2 Q) / N with Q(y^N) = sum_s alpha_N, and
    E log2 Wseq is summed step by step over the state marginal. The last
    step spans |S||X||Y|^N transitions, which the joint-table guard bounds.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (u.x_size,):
        raise ShapeError(f"input law has shape {dist.shape}, expected ({u.x_size},)")
    if not (abs(dist.sum() - 1.0) <= POLICY_ROW_TOL and np.all(dist >= 0)):  # NaN fails it
        raise ValidationError(f"input law {dist.tolist()} is not a distribution")
    s, x, y = u.w.shape
    _check_cell(u, s0, horizon, s * x * y**horizon, MAX_JOINT_ENTRIES, "lattice transitions")
    mass = u.w * dist[:, None]  # p(x) W(y | x, s), indexed [s, x, y]
    elogw = (mass * np.log2(np.where(mass > 0, u.w, 1.0))).sum(axis=(1, 2))
    sp, _, yy = np.indices(u.w.shape)
    step = np.bincount(((sp * y + yy) * s + u.f).ravel(), weights=mass.ravel(), minlength=s * y * s)
    step = step.reshape(s, y * s)
    alpha = np.zeros((1, s))  # rows y^n, columns s_n
    alpha[0, s0] = 1.0
    expected = 0.0
    for _ in range(horizon):
        expected += float(alpha.sum(axis=0) @ elogw)
        alpha = (alpha @ step).reshape(-1, s)
    q = alpha.sum(axis=1)
    q = q[q > 0]
    value = (expected - float(q @ np.log2(q))) / horizon
    if not np.isfinite(value):
        raise FscError(f"directed information is not finite: {value!r}")
    return value


def _logsumexp(t):
    """ln sum_x exp t[x, h] for every column h."""
    if len(t) == 2:
        return np.logaddexp(t[0], t[1])  # one ufunc in place of six
    top = t.max(axis=0)
    return np.log(np.exp(t - top).sum(axis=0)) + top


class _PathModel:
    """Flat enumeration of all (x^N, y^N) paths for the Blahut-Arimoto solver.

    The policy is one log-probability table theta of shape
    (|X|, sum_{n<N} (|X||Y|)^n), x-major so that every reduction over x
    runs along whole rows; step n's columns, one per history of length n,
    are ``theta[:, steps[n]]``. ``cells`` lists, step-major, the flat table
    entry each path draws at each step, so one gather serves all steps.

    ``forward`` leaves two per-path tables in ``buf``: the log posterior
    z = ln P(x^N | y^N) and the loss L = log2 Wseq - log2 Q(y^N), whose
    P-weighted mean is the rate. ``backward`` folds both to the root one
    step at a time through the step's channel factor: z into the
    Blahut-Arimoto policy update, L into the best deterministic policy's
    value of the rate linearized at the current policy.
    """

    def __init__(self, u: UnifilarChannel, s0: int, horizon: int):
        self.factors = []
        self.wseq, self.logw, self.yidx = _path_tables(u, s0, horizon, MAX_PATHS, self.factors)
        x, y = u.x_size, u.y_size
        pair = x * y
        self.horizon = horizon
        self.y_size = y
        offsets = np.concatenate(([0], np.cumsum(pair ** np.arange(horizon))))
        self.steps = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self.theta_shape = (x, int(offsets[-1]))
        path = np.arange(self.wseq.size)
        later = pair ** np.arange(horizon - 1, -1, -1)[:, None]  # paths per step-n pair
        rows = path // (later * pair) + offsets[:-1, None]
        self.cells = (path // later % pair // y * offsets[-1] + rows).ravel()
        # pick[x, (x, y)] = 1: sums a history's (x_n, y_n) entries over y_n
        self.pick = np.repeat(np.eye(x), y, axis=1)
        # the output sequences some path reaches: L is exact only where Q > 0 on all of them
        self.reached = np.bincount(self.yidx, weights=self.wseq, minlength=y**horizon) > 0
        self.buf = np.empty((2, self.wseq.size))

    def forward(self, theta):
        """The rate of the policy exp(theta), and whether L is exact."""
        lp = theta.ravel()[self.cells].reshape(self.horizon, -1).sum(axis=0)
        prob = self.wseq * np.exp(lp)
        z, loss = self.buf
        value, q = _path_rate(prob, self.logw, self.yidx, self.horizon, self.y_size, loss)
        np.multiply(loss, _LN2, out=z)
        z += lp
        return value, bool(q[self.reached].all())

    def backward(self, out):
        """Write the Blahut-Arimoto update of the last forward's policy into
        ``out`` and return the linearized rate's maximum, an upper bound on
        the horizon-N optimum when L is exact."""
        a = self.buf
        for n in range(self.horizon - 1, -1, -1):
            w = self.factors[n]
            h = w.shape[0]
            # expectations over y_n, laid out (x_n, [z histories, L histories])
            e = self.pick @ (a.reshape(2, h, -1) * w.reshape(h, -1)).reshape(2 * h, -1).T
            ez, ev = e[:, :h], e[:, h:]
            lse = _logsumexp(ez)
            np.subtract(ez, lse, out=out[:, self.steps[n]])
            a = a[:, :h]  # one entry per history of length n-1
            a[0] = lse
            ev.max(axis=0, out=a[1])
        return float(a[1, 0]) / self.horizon


def _ascend(model: _PathModel, theta, cfg: OptimizerSettings):
    """Over-relaxed Blahut-Arimoto from the log-policy ``theta``.

    Each iteration moves to theta + omega (theta_BA - theta), renormalized,
    if that does not lower the rate, and otherwise to the plain update
    theta_BA, which never does; omega grows 1.5-fold on every accepted
    move and is reset to 1 on a rejected one. Rounding can put the smallest
    upper bound seen an ulp below the rate; it is reported as at least that.
    """
    value, exact = model.forward(theta)
    update = np.empty_like(theta)
    upper = np.inf
    omega = 1.0
    iters = 0
    while True:
        bound = model.backward(update)
        if exact:
            upper = min(upper, bound)
        if upper - value < cfg.tol or iters >= cfg.max_iters:
            break
        iters += 1
        if omega > 1.0:
            trial = theta + omega * (update - theta)
            trial -= _logsumexp(trial)
            trial_value, trial_exact = model.forward(trial)
            if trial_value >= value:
                theta, value, exact = trial, trial_value, trial_exact
                omega *= 1.5
                continue
            omega = 1.0
        else:
            omega = 1.5
        theta, update = update, np.empty_like(update)
        value, exact = model.forward(theta)
    return theta, value, max(upper, value), iters


@dataclass(frozen=True)
class CapacityEstimate:
    """A finite-horizon feedback-rate estimate and how it was obtained:
    ``value`` is the rate of ``policy``, and ``upper`` a certified upper
    bound on the horizon-N optimum."""

    value: float
    horizon: int
    initial_state: int | None
    state_mode: str  # "fixed" | "min" | "max"
    policy: CausalPolicy | None = None
    diagnostics: dict = field(default_factory=dict)
    upper: float = np.inf


def optimize_rate(
    u: UnifilarChannel, s0: int, horizon: int, cfg: OptimizerSettings | None = None
) -> CapacityEstimate:
    """Blahut-Arimoto over causal policies from a fixed initial state.

    The run starts at the uniform policy, so the result is never below the
    uniform-iid baseline, and stops once upper - value < ``cfg.tol`` or
    after ``cfg.max_iters`` updates. The rate is concave in
    p(x^N || y^{N-1}), which enters the path law linearly, so the rate
    linearized at any policy, maximized over deterministic causal
    policies, bounds the optimum from above.
    """
    cfg = cfg or OptimizerSettings()
    model = _PathModel(u, s0, horizon)
    theta = np.full(model.theta_shape, -np.log(u.x_size))
    theta, value, upper, iters = _ascend(model, theta, cfg)
    pi = np.exp(theta)
    policy = CausalPolicy(horizon, u.x_size, u.y_size, tuple(pi[:, c].T for c in model.steps))
    return CapacityEstimate(
        value=value,
        horizon=horizon,
        initial_state=s0,
        state_mode="fixed",
        policy=policy,
        diagnostics={"iterations": iters, "converged": upper - value < cfg.tol},
        upper=upper,
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
    """Run the estimator once per initial state and report the spread.

    The min (max) over states of the optima lies between the min (max) of
    the per-state values and the min (max) of the per-state upper bounds.
    """
    cfg = cfg or OptimizerSettings()
    per_state = tuple(optimize_rate(u, s0, horizon, cfg) for s0 in range(u.s_size))
    uppers = [e.upper for e in per_state]

    def extreme(pick, mode):  # ties go to the lowest state
        est, upper = pick(per_state, key=lambda e: e.value), pick(uppers)
        diagnostics = {**est.diagnostics, "converged": upper - est.value < cfg.tol}
        return replace(est, state_mode=mode, upper=upper, diagnostics=diagnostics)

    return FiniteNBracket(horizon, per_state, extreme(min, "min"), extreme(max, "max"))


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
    if not np.all(w >= 0):  # written so that NaN fails it
        raise ValidationError("channel has negative or NaN entries")
    sums = w.sum(axis=1)
    off = np.abs(sums - 1.0)
    if not np.all(off <= POLICY_ROW_TOL):
        x = int(np.argmax(off))
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
