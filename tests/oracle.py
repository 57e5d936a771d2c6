"""The brute-force references the library is tested against, one per quantity.

None of these shares code with ``fscfb.capacity``:

- the rate and the Blahut-Arimoto update: flat path tables over every
  (x^N, y^N) path, with the history-indexed ``CausalPolicy``, the path law
  ``path_law``, the exact rate ``evaluate_rate`` and ``_PathModel``, the
  Blahut-Arimoto model over whole histories, which runs its own
  over-relaxed loop in ``optimize_paths``; ``conftest.brute_joint`` and
  ``conftest.brute_directed_info`` check them by loops;
- the capacity of a memoryless channel: the plain alternating maximization,
  with its own bracket, against which ``dmc_capacity`` is checked.

The n-fold law of a general channel is ``conftest.brute_nfold``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fscfb import (
    DomainError,
    FscError,
    OptimizerSettings,
    ResourceLimitError,
    ShapeError,
    UnifilarChannel,
    ValidationError,
)
from fscfb.capacity import MAX_JOINT_ENTRIES, POLICY_ROW_TOL

MAX_PATHS = 4096     # (|X||Y|)^N guard on _PathModel; 4096 = binary N=6
OMEGA_MAX = 1.5**40  # over-relaxation cap: the trial stays finite once the rate is flat
_LN2 = np.log(2.0)


# --- flat path tables ------------------------------------------------------


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
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= s0 < u.s_size:
        raise DomainError(f"state {s0} outside 0..{u.s_size - 1}")
    paths = (x * y) ** horizon
    if paths > limit:
        raise ResourceLimitError(
            f"horizon {horizon} needs {paths} trajectories, over the limit of {limit}", limit=limit
        )
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


def path_law(u: UnifilarChannel, s0: int, policy: CausalPolicy):
    """P(x^N, y^N | s_0) of every path under ``policy``, with the path
    tables' log2 Wseq and output-sequence index; the paths are numbered as
    ``_path_tables`` numbers them."""
    if policy.x_size != u.x_size or policy.y_size != u.y_size:
        raise ShapeError("policy alphabets do not match the channel")
    n_steps = policy.horizon
    prob, logw, yidx = _path_tables(u, s0, n_steps)
    pair = u.x_size * u.y_size
    for n, step in enumerate(policy.steps):
        # each (history, x_n) entry covers y_n and every continuation
        prob *= np.repeat(step.ravel(), u.y_size * pair ** (n_steps - 1 - n))
    return prob, logw, yidx


def evaluate_rate(u: UnifilarChannel, s0: int, policy) -> float:
    """(1/N) I(X^N -> Y^N | s_0) in bits per channel use of a CausalPolicy or
    of a lattice policy as ``CapacityEstimate.policy`` holds it."""
    if not isinstance(policy, CausalPolicy):
        policy = causal_policy(u, s0, policy)
    prob, logw, yidx = path_law(u, s0, policy)
    # the loss is written over logw: peak memory
    value, _ = _path_rate(prob, logw, yidx, policy.horizon, u.y_size, loss=logw)
    if not np.isfinite(value):
        raise FscError(f"directed information is not finite: {value!r}")
    return value


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
            lse = np.logaddexp.reduce(ez, axis=0)
            np.subtract(ez, lse, out=out[:, self.steps[n]])
            a = a[:, :h]  # one entry per history of length n-1
            a[0] = lse
            ev.max(axis=0, out=a[1])
        return float(a[1, 0]) / self.horizon


def causal_policy(u: UnifilarChannel, s0: int, steps) -> CausalPolicy:
    """Expand a lattice policy, ``steps[n-1][s, y^{n-1}, x]``, into the
    history-indexed policy it induces from s_0 through the channel's state
    walk: each (x^{n-1}, y^{n-1}) history reads the row of the state it
    leads to and of its outputs, numbered sum_k y_k |Y|^(k-1)."""
    x, y = u.x_size, u.y_size
    state = np.array([s0])
    code = np.zeros(1, dtype=np.int64)
    tables = []
    for n, step in enumerate(steps):
        tables.append(np.asarray(step)[state, code])
        state = u.f[state].ravel()
        code = (code[:, None, None] + y**n * np.arange(y)).repeat(x, axis=1).ravel()
    return CausalPolicy(len(tables), x, y, tuple(tables))


def optimize_paths(u: UnifilarChannel, s0: int, horizon: int, cfg: OptimizerSettings):
    """Over-relaxed Blahut-Arimoto on ``_PathModel`` from the uniform policy,
    an ascent independent of the library's: it keeps every input (a dropped
    input's -inf would turn the posterior fold into NaN) and takes no secant
    step. The trial theta + omega (theta_BA - theta), renormalized, is kept
    unless it lowers the rate, and omega then grows 1.5-fold up to
    ``OMEGA_MAX``; otherwise the run takes theta_BA, which never lowers it,
    and omega restarts at 1, where the trial is theta_BA itself. The upper
    bound starts at log2|Y|. Returns (value, upper, theta) once
    upper - value < ``cfg.tol`` or after ``cfg.max_iters`` updates."""
    model = _PathModel(u, s0, horizon)
    theta = np.full(model.theta_shape, -np.log(u.x_size))
    update = np.empty_like(theta)
    value, exact = model.forward(theta)
    upper, omega, iters = float(np.log2(u.y_size)), 1.0, 0
    while True:
        bound = model.backward(update)
        if exact:
            upper = min(upper, bound)
        if upper - value < cfg.tol or iters >= cfg.max_iters:
            return value, max(upper, value), theta
        iters += 1
        if omega > 1.0:
            trial = theta + omega * (update - theta)
            trial -= np.logaddexp.reduce(trial, axis=0)
            trial_value, trial_exact = model.forward(trial)
            if trial_value >= value:
                theta, value, exact = trial, trial_value, trial_exact
                omega = min(1.5 * omega, OMEGA_MAX)
                continue
            omega = 1.0
        else:
            omega = 1.5
        theta, update = update, theta
        value, exact = model.forward(theta)


# --- memoryless capacity --------------------------------------------------


@dataclass(frozen=True)
class PlainCapacity:
    """The midpoint and the width of the closed bracket."""

    capacity: float
    bracket: float


def plain_dmc_capacity(w, tol: float = 1e-10, max_iters: int = 2_000_000) -> PlainCapacity:
    """Memoryless-channel capacity by plain alternating maximization.

    Iterates the multiplicative input update r <- r 2^D(W_x || Q) until the
    bounds I(r) <= C <= max_x D(W_x || Q) differ by less than ``tol`` and
    returns their midpoint and their gap.
    """
    w = np.asarray(w, dtype=float)
    logw = np.where(w > 0, np.log2(np.where(w > 0, w, 1.0)), 0.0)
    r = np.full(w.shape[0], 1.0 / w.shape[0])
    for _ in range(max_iters):
        q = r @ w
        logq = np.where(q > 0, np.log2(np.where(q > 0, q, 1.0)), 0.0)
        # d[x] = KL(w[x] || q) in bits; exact where w[x,y] > 0 implies q[y] > 0
        d = (w * (logw - logq[None, :])).sum(axis=1)
        lower = float(r @ d)
        upper = float(d.max())
        if upper - lower < tol:
            return PlainCapacity(capacity=(upper + lower) / 2.0, bracket=upper - lower)
        r = r * np.exp2(d)
        r = r / r.sum()
    raise ResourceLimitError(
        f"capacity bracket did not close below {tol} in {max_iters} iterations", limit=max_iters
    )
