"""Finite-horizon feedback-capacity estimation.

The estimator maximizes (1/N) I(X^N -> Y^N | s_0) over causal input
policies for a unifilar channel. With s_0 known, policies
pi_n(x | s_{n-1}, y^{n-1}) reach the horizon-N optimum, so every rate is
computed on the lattice of nodes (s_n, y^n): a forward pass carries
P(s_n, y^n) to the output law Q(y^N), and a directed-information
Blahut-Arimoto update, with the upper bound it certifies, folds back over
the same nodes; the ascent over-relaxes it and corrects each trial by a
secant step. A memoryless Blahut-Arimoto
solver provides the single-state oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .channels import UnifilarChannel, compose_unifilar
from .errors import DomainError, FscError, ResourceLimitError, ShapeError, ValidationError

POLICY_ROW_TOL = 1e-12
MAX_JOINT_ENTRIES = 4**10  # |S||X||Y|^N lattice transitions; N <= 18 for binary two-state
_LN2 = float(np.log(2.0))
_LN_FLOOR = float(np.log(1e-3))  # drop inputs the update lowers below this; re-admit at it
_FACE_EVERY = 32                 # updates between changes of the policy's support
_OMEGA_MAX = 1.5**40             # trials tie once the rate is flat to rounding; omega stops here


def binary_entropy(p: float) -> float:
    """H2(p) in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs of the Blahut-Arimoto solver; defaults match the CLI defaults."""

    max_iters: int = 20000      # policy updates
    tol: float = 1e-10          # stop once upper - lower < tol

    def __post_init__(self):
        # written so that NaN fails: a bracket never closes below a tol <= 0
        if not self.max_iters >= 0:
            raise ValidationError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0.0 < self.tol < np.inf:
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")


def _check_cell(u: UnifilarChannel, s0: int, horizon: int):
    """Refuse, before anything is allocated, a horizon below 1, an initial
    state outside the channel and a lattice of more than
    ``MAX_JOINT_ENTRIES`` transitions."""
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= s0 < u.s_size:
        raise DomainError(f"state {s0} outside 0..{u.s_size - 1}")
    entries = u.s_size * u.x_size * u.y_size**horizon
    if entries > MAX_JOINT_ENTRIES:
        raise ResourceLimitError(
            f"horizon {horizon} needs {entries} lattice transitions, "
            f"over the limit of {MAX_JOINT_ENTRIES}",
            limit=MAX_JOINT_ENTRIES,
        )


def _logsumexp(t):
    """ln sum_x exp t[x, h] for every column h."""
    if len(t) == 2:
        return np.logaddexp(t[0], t[1])  # one ufunc in place of six
    top = t.max(axis=0)
    return np.log(np.exp(t - top).sum(axis=0)) + top


class _Lattice:
    """The nodes (s_n, y^n) of a unifilar channel run from a known s_0.

    Node (s, y^n) has the flat index s |Y|^n + y^n, where y^n reads the
    outputs as a base-|Y| number with the latest one the most significant
    digit. The |Y| children of (s, y^{n-1}) then lie |Y|^{n-1} apart, and a
    step is one product with the transition table
    t[(x, s), (s', y)] = W(y | x, s) [f(s, x, y) = s'], the composed law, or
    at step N with ``tq``, W itself, which gives Q(y^N) directly.

    The policy is one log-probability table theta of shape
    (|X|, sum_{n<N} |S||Y|^n), x-major so that every reduction over x runs
    along whole rows; step n's columns, one per node (s_{n-1}, y^{n-1}), are
    ``theta[:, steps[n-1]]``.

    ``forward`` carries alpha_n(s_n, y^n) = P(s_n, y^n) to Q(y^N) and the
    rate (1/N)(sum_n E log2 W - sum Q log2 Q). ``backward`` folds, in nats,
    Z_N = V_N = -ln Q back to the root: E_n = ln pi_n + sum_y W [ln W + Z_n]
    gives the Blahut-Arimoto update softmax_x E_n and Z_{n-1} = logsumexp_x
    E_n, and V_{n-1} = max_x sum_y W [ln W + V_n] is the best deterministic
    policy's value of the rate linearized at the current policy. Terms of
    earlier steps are constant in x_n, so they cancel in the softmax and
    shift the max alike: the lattice iterates are those of the update over
    whole (x^N, y^N) histories.
    """

    prunes = True  # ``backward`` re-admits excluded inputs, so ``_ascend`` may drop them
    accelerates = True  # ``rate`` keeps the node masses the secant step weighs by

    def __init__(self, u: UnifilarChannel, s0: int, horizon: int):
        _check_cell(u, s0, horizon)
        s, x, y = u.w.shape
        self.shape, self.s0, self.horizon, self.y_size = u.w.shape, s0, horizon, y
        self.t = compose_unifilar(u).law.transpose(1, 0, 3, 2).reshape(x * s, s * y)
        self.tq = u.w.transpose(1, 0, 2).reshape(x * s, y)
        # sum_y W ln W per (x, s), one row per entry of a step's joint table
        wlnw = u.w * np.log(np.where(u.w > 0, u.w, 1.0))
        self.wlnw = wlnw.sum(axis=2).T.reshape(x * s, 1)
        # the forward pass's tables: a step's transitions, then a row that sums E ln W
        self.transfer = [np.vstack((step.T, self.wlnw.T))
                         for step in [self.t] * (horizon - 1) + [self.tq]]
        self.root = np.eye(s)[s0]
        offsets = np.concatenate(([0], np.cumsum(s * y ** np.arange(horizon))))
        self.steps = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self.theta_shape = (x, int(offsets[-1]))
        self.mass = np.empty(self.theta_shape[1])

    @cached_property
    def reachable(self):
        """How many output sequences some path reaches. Q is exactly 0 on the
        others, and the linearized rate is exact only if Q > 0 on all of these."""
        s, x, y = self.shape
        edge = (self.t > 0).reshape(x, s, s * y).any(axis=0).astype(float)
        node = self.root
        for _ in range(self.horizon):
            node = (edge.T @ node.reshape(s, -1) > 0).ravel()
        return np.count_nonzero(node.reshape(s, -1).any(axis=0))

    def rate(self, pi):
        """The rate of the policy table ``pi`` (probabilities, laid out like
        theta), Q(y^N), and ln Q with 0 where Q = 0. Each column's node mass
        P(s_{n-1}, y^{n-1}) is kept in ``self.mass``, laid out like theta's
        columns."""
        s, x, _ = self.shape
        alpha = self.root
        expected = 0.0  # E ln Wseq
        for cols, transfer in zip(self.steps, self.transfer):
            self.mass[cols] = alpha
            mass = transfer @ (pi[:, cols] * alpha).reshape(x * s, -1)
            expected += float(mass[-1].sum())
            alpha = mass[:-1].ravel()
        lnq = np.log(alpha + (alpha == 0))
        return (expected - float(alpha @ lnq)) / (self.horizon * _LN2), alpha, lnq

    def forward(self, theta):
        """The rate of the policy exp(theta), and whether the linearized rate
        the bound rests on is exact."""
        self.theta = theta
        value, q, self.lnq = self.rate(np.exp(theta))
        return value, bool(np.count_nonzero(q) == self.reachable)

    def policy(self, theta):
        """The per-step tables pi_n[s, y^{n-1}, x] of the log-policy ``theta``."""
        s, x, _ = self.shape
        pi = np.exp(theta)
        return tuple(np.moveaxis(pi[:, c].reshape(x, s, -1), 0, -1).copy() for c in self.steps)

    def backward(self, out, admit=None):
        """Write the Blahut-Arimoto update of the last forward's policy into
        ``out`` and return the linearized rate's maximum, an upper bound on
        the horizon-N optimum when the linearized rate is exact.

        With ``admit`` (nats), an input the policy excludes whose gain
        g = sum_y W [ln W + Z_n] passes its node's Z_{n-1} = ln sum_x pi e^g
        by at least ``admit`` violates the optimality (KKT) conditions by
        that much; its update entry is written as ln 1e-3, not -inf, and the
        column is left unnormalized."""
        s, x, y = self.shape
        # sum_y W [ln W + Z_n] and the same with V_n; Z_N = V_N
        ez = ev = self.tq @ -self.lnq.reshape(y, -1) + self.wlnw
        for n in range(self.horizon - 1, -1, -1):
            cols = self.steps[n]
            gain = ez.reshape(x, -1)
            ez = gain + self.theta[:, cols]
            z = _logsumexp(ez)
            np.subtract(ez, z, out=out[:, cols])
            if admit is not None:
                out[:, cols][np.isneginf(ez) & (gain >= z + admit)] = _LN_FLOOR
            v = ev.reshape(x, -1).max(axis=0)
            if n:
                ez = self.t @ z.reshape(s * y, -1) + self.wlnw
                ev = self.t @ v.reshape(s * y, -1) + self.wlnw
        return float(v[self.s0]) / (self.horizon * _LN2)


def iid_rate(u: UnifilarChannel, s0: int, dist, horizon: int) -> float:
    """(1/N) I(X^N -> Y^N | s_0) of inputs drawn iid from ``dist``, in bits
    per channel use: the lattice forward pass at the constant policy."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (u.x_size,):
        raise ShapeError(f"input law has shape {dist.shape}, expected ({u.x_size},)")
    if not (abs(dist.sum() - 1.0) <= POLICY_ROW_TOL and np.all(dist >= 0)):  # NaN fails it
        raise ValidationError(f"input law {dist.tolist()} is not a distribution")
    lattice = _Lattice(u, s0, horizon)
    value = lattice.rate(np.broadcast_to(dist[:, None], lattice.theta_shape))[0]
    if not np.isfinite(value):
        raise FscError(f"directed information is not finite: {value!r}")
    return value


def _ascend(model: _Lattice, theta, cfg: OptimizerSettings):
    """Over-relaxed Blahut-Arimoto from the log-policy ``theta``.

    Each iteration tries a trial step, renormalized, and moves there if that
    does not lower the rate, and otherwise to the plain update theta_BA,
    which never does; omega grows 1.5-fold on every accepted move, up to
    ``_OMEGA_MAX``, and is reset to 1 on a rejected one. With g = theta_BA -
    theta on the finite entries, the trial is theta + omega g, corrected by
    one secant (Anderson) step: given dx = theta - theta' and dg = g - g'
    from the last plain or accepted update theta' -> theta,
    theta + omega g - gamma (dx + omega dg) with
    gamma = <dg, g>_w / <dg, dg>_w, which cancels the part of g the last
    step predicts. The weight w = P(node) pi(x | node) of each entry, the
    Fisher metric of the policy (Matz & Duhamel, ITW 2004), keeps columns no
    path reaches out of the fit. A rejection restarts the history from the
    plain update, where omega = 1 still takes the corrected trial; a change
    of face clears it. Models without node masses (``accelerates`` false)
    take the uncorrected trial, which at omega = 1 is theta_BA itself.

    Every ``_FACE_EVERY`` updates the run may move to another face of the
    policy simplex. An input whose update is below 1e-3 and still falling is
    dropped, set to exactly 0 (theta = -inf), which the multiplicative
    update keeps; a normalized column cannot lower every entry, so each
    keeps one. A dropped input comes back at 1e-3, never to be dropped
    again, when the policy misses an output sequence the channel can emit
    (no optimum does: the rate's slope toward such a sequence is infinite),
    or when ``model.backward`` finds it violating the optimality conditions
    by at least the current gap, upper - value in nats per use. At a fixed
    point on a face the gap is at most the largest violation, since
    V_0 - Z_0, N ln 2 times the gap there, gains at most one violation per
    step. So a face without the optimum cannot hold the run, while an input
    that vanishes only in the limit is not brought back by the small
    violations on the way there. The faces cannot cycle. A change of face
    is a renormalized plain step; omega carries over a drop, which moves
    the policy by less than 1e-3, and is reset to 1 by a re-admission. An
    optimum on the boundary, which the update approaches only like 1/k, is
    then approached at the update's linear rate on its face. Models without
    re-admission (``prunes`` false) keep every input.

    The upper bound is the linearized rate's maximum over every
    deterministic policy, dropped inputs included, so it holds whatever the
    support; it starts at log2|Y|, which bounds every rate. Rounding can put
    it an ulp below the rate; it is reported as at least that. A change of
    face can lower the rate, so the best policy seen is returned. Returns
    (theta, value, upper, counts): the counts of updates, of dropped and
    re-admitted inputs, and of accepted trials with a secant correction.
    """
    value, exact = model.forward(theta)
    best = value, theta
    update = np.empty_like(theta)
    upper = float(np.log2(model.y_size))
    kept = np.zeros(theta.shape, dtype=bool)  # re-admitted inputs, never dropped again
    omega = 1.0
    last = None  # (theta_k - theta_{k-1}, step at theta_{k-1}) after a plain or accepted update
    iters = pruned = readmitted = accelerated = 0
    while True:
        epoch = model.prunes and (iters + 1) % _FACE_EVERY == 0
        if epoch:
            bound = model.backward(update, (upper - value) * _LN2)
        else:
            bound = model.backward(update)
        if exact:
            upper = min(upper, bound)
        if upper - value < cfg.tol or iters >= cfg.max_iters:
            break
        iters += 1
        n_back = n_drop = 0
        if epoch:
            if not exact:
                update[np.isneginf(update)] = _LN_FLOOR
            back = np.isneginf(theta) & (update > -np.inf)
            drop = (update < _LN_FLOOR) & (update < theta) & ~kept
            n_back, n_drop = int(np.count_nonzero(back)), int(np.count_nonzero(drop))
        if n_back or n_drop:
            readmitted += n_back
            pruned += n_drop
            kept |= back
            update[drop] = -np.inf
            update -= _logsumexp(update)
            best = max(best, (value, theta), key=lambda b: b[0])
            last = None
            if n_back:
                omega = 1.0
        else:
            with np.errstate(invalid="ignore"):  # -inf - -inf on dropped inputs
                step = update - theta
            step[np.isnan(step)] = 0.0
            move, gamma = omega * step, 0.0
            if last is not None and model.accelerates:
                dx, dg = last[0], step - last[1]
                weighted = model.mass * np.exp(theta) * dg
                den = float(np.vdot(weighted, dg))
                if den > 0.0:
                    gamma = float(np.vdot(weighted, step)) / den
                    move -= gamma * (dx + omega * dg)
            if omega == 1.0 and gamma == 0.0:  # the trial is the plain update
                omega, last = 1.5, (step, step)
            else:
                trial = theta + move
                shift = _logsumexp(trial)
                trial -= shift
                trial_value, trial_exact = model.forward(trial)
                if trial_value >= value:
                    accelerated += gamma != 0.0
                    last = move - shift, step
                    theta, value, exact = trial, trial_value, trial_exact
                    omega = min(1.5 * omega, _OMEGA_MAX)
                    continue
                omega, last = 1.0, (step, step)
        theta, update = update, np.empty_like(update)
        value, exact = model.forward(theta)
    value, theta = max(best, (value, theta), key=lambda b: b[0])
    counts = {"iterations": iters, "pruned": pruned, "readmitted": readmitted,
              "accelerated": accelerated}
    return theta, value, max(upper, value), counts


@dataclass(frozen=True)
class CapacityEstimate:
    """A finite-horizon feedback-rate estimate and how it was obtained:
    ``value`` is the rate of ``policy``, and ``upper`` a certified upper
    bound on the horizon-N optimum. ``policy[n-1][s, y, x]`` is
    pi_n(x | s_{n-1} = s, y^{n-1}), where y numbers the output history
    sum_k y_k |Y|^(k-1), the first output the least significant digit."""

    value: float
    horizon: int
    initial_state: int | None
    state_mode: str  # "fixed" | "min" | "max"
    policy: tuple | None = None
    diagnostics: dict = field(default_factory=dict)
    upper: float = np.inf


def optimize_rate(
    u: UnifilarChannel, s0: int, horizon: int, cfg: OptimizerSettings | None = None
) -> CapacityEstimate:
    """Blahut-Arimoto over causal policies from a fixed initial state.

    The run starts at the uniform policy, so the result is never below the
    uniform-iid baseline, and stops once upper - value < ``cfg.tol`` or
    after ``cfg.max_iters`` updates. The rate is concave in
    p(x^N || y^{N-1}), which enters the joint law linearly, so the rate
    linearized at any policy, maximized over deterministic causal
    policies, bounds the optimum from above. ``diagnostics`` holds
    ``converged`` and ``_ascend``'s counts: ``iterations``, the inputs
    ``pruned`` (dropped to probability 0) and ``readmitted``, and the
    ``accelerated`` (secant-corrected) moves accepted.
    """
    cfg = cfg or OptimizerSettings()
    model = _Lattice(u, s0, horizon)
    theta = np.full(model.theta_shape, -np.log(u.x_size))
    theta, value, upper, counts = _ascend(model, theta, cfg)
    return CapacityEstimate(
        value=value,
        horizon=horizon,
        initial_state=s0,
        state_mode="fixed",
        policy=model.policy(theta),
        diagnostics={**counts, "converged": upper - value < cfg.tol},
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
