"""The brute-force references the library is tested against.

None of these computes a rate on the lattice in ``fscfb.capacity``; the
path model shares only ``_check_cell`` and ``_logsumexp`` with it:

- flat path tables over every (x^N, y^N) path, with the history-indexed
  ``CausalPolicy``, the exact rate ``evaluate_rate`` and ``_PathModel``, the
  Blahut-Arimoto model over whole histories, which runs its own
  over-relaxed loop in ``optimize_paths``;
- the dense stack: joint laws, causal kernels, their causal product, and
  directed information as a conditional-MI sum cross-checked against the
  entropy-difference form, with the memoryless-bound check;
- the n-fold law P^n(y^n, s_n | x^n, s_0) of a general channel and its
  state marginal;
- the plain alternating maximization of a memoryless channel's capacity,
  with its own bracket, against which ``dmc_capacity`` is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fscfb import (
    FiniteStateChannel,
    FscError,
    OptimizerSettings,
    ResourceLimitError,
    ShapeError,
    UnifilarChannel,
    ValidationError,
)
from fscfb.capacity import (
    MAX_JOINT_ENTRIES,
    POLICY_ROW_TOL,
    _check_cell,
    _logsumexp,
)
from fscfb.channels import ROW_SUM_TOL, _frozen

MAX_PATHS = 4096     # (|X||Y|)^N guard on _PathModel; 4096 = binary N=6
OMEGA_MAX = 1.5**40  # over-relaxation cap: the trial stays finite once the rate is flat
JOINT_SUM_TOL = 1e-10
KERNEL_ROW_TOL = 1e-12
CROSS_CHECK_TOL = 1e-9
COMPOSED_SUM_TOL = 1e-10  # after n-fold composition (accumulated error)
_LN2 = np.log(2.0)

INPUTS = "inputs"    # p(x_n | x^{n-1}, y^{n-1}): sees strictly prior outputs
OUTPUTS = "outputs"  # p(y_n | y^{n-1}, x^n): sees the current input


class ContractViolationError(FscError, RuntimeError):
    """A caller-asserted precondition failed an internal consistency check."""


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

    def free_parameter_count(self) -> int:
        pair = self.x_size * self.y_size
        return sum(pair ** (n - 1) * (self.x_size - 1) for n in range(1, self.horizon + 1))


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
    _check_cell(u, s0, horizon)
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


def evaluate_rate(u: UnifilarChannel, s0: int, policy) -> float:
    """(1/N) I(X^N -> Y^N | s_0) in bits per channel use of a CausalPolicy or
    of a lattice policy as ``CapacityEstimate.policy`` holds it."""
    if not isinstance(policy, CausalPolicy):
        policy = causal_policy(u, s0, policy)
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
            trial -= _logsumexp(trial)
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


# --- the dense stack -------------------------------------------------------


def _plogp(t: np.ndarray) -> float:
    pos = t[t > 0]
    return float(-(pos * np.log2(pos)).sum())


@dataclass(frozen=True)
class JointLaw:
    """Dense probability table over a product of finite alphabets."""

    dims: tuple
    table: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        table = np.asarray(self.table, dtype=float)
        if table.shape != dims:
            raise ShapeError(f"table shape {table.shape} does not match dims {dims}")
        if table.size > MAX_JOINT_ENTRIES:
            raise ResourceLimitError(
                f"dense joint with {table.size} entries exceeds the guard of {MAX_JOINT_ENTRIES}",
                limit=MAX_JOINT_ENTRIES,
            )
        # written so that NaN fails the checks: every comparison with NaN is False
        if not np.all(table >= 0):
            raise ValidationError("joint law has negative or NaN entries")
        total = table.sum()
        if not abs(total - 1.0) <= JOINT_SUM_TOL:
            raise ValidationError(f"joint law sums to {total:.17g}, expected 1")
        tbl = np.array(table, copy=True)
        tbl.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "table", tbl)


@dataclass(frozen=True)
class CausalKernel:
    """Per-step conditional tables for one side of a causally conditioned pair.

    ``steps[n-1]`` has axes (own-history ... , other-history ... , own-current);
    the other-history block has length n-1 for an input kernel and n for an
    output kernel.
    """

    horizon: int
    direction: str
    own_size: int
    other_size: int
    steps: tuple

    def __post_init__(self):
        if self.direction not in (INPUTS, OUTPUTS):
            raise ValidationError(f"unknown kernel direction {self.direction!r}")
        if self.horizon < 1:
            raise ValidationError("kernel horizon must be >= 1")
        if len(self.steps) != self.horizon:
            raise ShapeError(f"{len(self.steps)} step tables for horizon {self.horizon}")
        frozen = []
        for n, raw in enumerate(self.steps, start=1):
            t = np.asarray(raw, dtype=float)
            other = n - 1 if self.direction == INPUTS else n
            want = (self.own_size,) * (n - 1) + (self.other_size,) * other + (self.own_size,)
            if t.shape != want:
                raise ShapeError(f"step {n} table has shape {t.shape}, expected {want}")
            sums = t.sum(axis=-1)
            off = ~(np.abs(sums - 1.0) <= KERNEL_ROW_TOL)  # NaN fails the check
            if off.any():
                bad = np.argwhere(off)[0]
                raise ValidationError(
                    f"step {n} conditional at history {tuple(int(i) for i in bad)} "
                    f"sums to {sums[tuple(bad)]:.17g}"
                )
            if not np.all(t >= 0):  # written so that NaN fails it
                raise ValidationError(f"step {n} has negative or NaN entries")
            t = np.array(t, copy=True)
            t.flags.writeable = False
            frozen.append(t)
        object.__setattr__(self, "steps", tuple(frozen))

    @staticmethod
    def iid_inputs(dist, horizon: int, y_size: int) -> "CausalKernel":
        """Input kernel that ignores all history: p(x_n) = dist for every n."""
        dist = np.asarray(dist, dtype=float)
        x_size = dist.size
        steps = []
        for n in range(1, horizon + 1):
            shape = (x_size,) * (n - 1) + (y_size,) * (n - 1) + (x_size,)
            steps.append(np.broadcast_to(dist, shape).copy())
        return CausalKernel(horizon, INPUTS, x_size, y_size, tuple(steps))

    @staticmethod
    def uniform_inputs(x_size: int, horizon: int, y_size: int) -> "CausalKernel":
        return CausalKernel.iid_inputs(np.full(x_size, 1.0 / x_size), horizon, y_size)

    @staticmethod
    def memoryless_outputs(w, horizon: int) -> "CausalKernel":
        """Output kernel of a memoryless channel w[x, y] used for ``horizon`` steps."""
        w = np.asarray(w, dtype=float)
        if w.ndim != 2:
            raise ShapeError(f"memoryless channel must be 2-d, got shape {w.shape}")
        x_size, y_size = w.shape
        steps = []
        for n in range(1, horizon + 1):
            shape = (y_size,) * (n - 1) + (x_size,) * n + (y_size,)
            view = w.reshape((1,) * (2 * n - 2) + (x_size, y_size))
            steps.append(np.broadcast_to(view, shape).copy())
        return CausalKernel(horizon, OUTPUTS, y_size, x_size, tuple(steps))


def causal_product(k: CausalKernel, other: CausalKernel) -> JointLaw:
    """Multiply an input kernel and an output kernel into the joint p(x^N, y^N)."""
    if {k.direction, other.direction} != {INPUTS, OUTPUTS}:
        raise ShapeError("causal_product needs one input kernel and one output kernel")
    ki = k if k.direction == INPUTS else other
    ko = other if k.direction == INPUTS else k
    if ki.horizon != ko.horizon:
        raise ShapeError(f"horizon mismatch: {ki.horizon} vs {ko.horizon}")
    if ki.own_size != ko.other_size or ki.other_size != ko.own_size:
        raise ShapeError("kernel alphabets do not pair up")
    big_n = ki.horizon
    x_size, y_size = ki.own_size, ko.own_size
    if (x_size * y_size) ** big_n > MAX_JOINT_ENTRIES:
        raise ResourceLimitError(
            f"joint over ({x_size}*{y_size})^{big_n} entries exceeds the dense guard",
            limit=MAX_JOINT_ENTRIES,
        )
    out = np.ones((x_size,) * big_n + (y_size,) * big_n)
    for n in range(1, big_n + 1):
        ti = ki.steps[n - 1]  # (x^{n-1}, y^{n-1}, x_n)
        perm = list(range(n - 1)) + [2 * (n - 1)] + list(range(n - 1, 2 * (n - 1)))
        arr = ti.transpose(perm).reshape(
            (x_size,) * n + (1,) * (big_n - n) + (y_size,) * (n - 1) + (1,) * (big_n - n + 1)
        )
        out = out * arr
        to = ko.steps[n - 1]  # (y^{n-1}, x^n, y_n)
        perm = list(range(n - 1, 2 * n - 1)) + list(range(n - 1)) + [2 * n - 1]
        arr = to.transpose(perm).reshape(
            (x_size,) * n + (1,) * (big_n - n) + (y_size,) * n + (1,) * (big_n - n)
        )
        out = out * arr
    return JointLaw(dims=(x_size,) * big_n + (y_size,) * big_n, table=out)


def _step_marginal(table: np.ndarray, n: int, big_n: int) -> np.ndarray:
    """p(x^n, y^n) from the full table; result axes (x_1..x_n, y_1..y_n)."""
    drop = tuple(range(n, big_n)) + tuple(range(big_n + n, 2 * big_n))
    return table.sum(axis=drop) if drop else table


def directed_information(joint: JointLaw, n_steps: int) -> float:
    """I(X^N -> Y^N) in bits: the sum over n of I(X^n; Y_n | Y^{n-1}).

    Also evaluates the entropy-difference form
    sum_n [H(Y_n|Y^{n-1}) - H(Y_n|X^n,Y^{n-1})] and insists the two paths
    agree; conditionals on zero-probability histories contribute nothing.
    """
    if len(joint.dims) != 2 * n_steps:
        raise ShapeError(f"joint has {len(joint.dims)} axes, expected {2 * n_steps}")
    table = joint.table
    total = 0.0
    total_entdiff = 0.0
    for n in range(1, n_steps + 1):
        a = _step_marginal(table, n, n_steps)          # p(x^n, y^n)
        b = a.sum(axis=-1, keepdims=True)              # p(x^n, y^{n-1})
        c = a.sum(axis=tuple(range(n)), keepdims=True)  # p(y^n)
        d = c.sum(axis=-1, keepdims=True)              # p(y^{n-1})
        # log2 of p(x^n,y^n) p(y^{n-1}) / (p(x^n,y^{n-1}) p(y^n)) as the
        # difference of two conditionals' logs, each conditional in (0, 1]
        # where a > 0: the products a*d and b*c underflow to 0/0 once a
        # history's probability nears 1e-160, and the quotient of the two
        # conditionals overflows when p(y_n | y^{n-1}) is subnormal
        y_cond = np.divide(c, d, out=np.ones_like(c), where=c > 0)
        log_ratio = np.ones_like(a)
        np.divide(a, b, out=log_ratio, where=a > 0)
        np.log2(log_ratio, out=log_ratio)
        log_ratio -= np.log2(y_cond)  # finite everywhere; a = 0 zeroes the masked terms
        total += float((a * log_ratio).sum())
        total_entdiff += _plogp(c) - _plogp(d) - _plogp(a) + _plogp(b)
    if not np.isfinite(total) or abs(total - total_entdiff) > CROSS_CHECK_TOL:
        raise FscError(
            f"directed information cross-check failed: {total!r} vs {total_entdiff!r}"
        )
    if -CROSS_CHECK_TOL < total < 0.0:
        total = 0.0
    return total


@dataclass(frozen=True)
class MemorylessBoundReport:
    """Directed information against the single-letter sum for a memoryless joint."""

    directed: float
    sum_single: float
    outputs_independent: bool


def memoryless_bound_check(joint: JointLaw, n_steps: int) -> MemorylessBoundReport:
    """Check the memoryless-channel bound I(X^N -> Y^N) <= sum_n I(X_n; Y_n).

    The joint must come from a memoryless channel; this is verified by
    requiring p(y_n | x^n, y^{n-1}) to depend on x_n only, across steps and
    histories of positive probability.
    """
    if len(joint.dims) != 2 * n_steps:
        raise ShapeError(f"joint has {len(joint.dims)} axes, expected {2 * n_steps}")
    table = joint.table
    x_size = joint.dims[0]
    y_size = joint.dims[n_steps]

    w_est = np.full((x_size, y_size), np.nan)
    for n in range(1, n_steps + 1):
        a = _step_marginal(table, n, n_steps)
        b = a.sum(axis=-1, keepdims=True)
        ok = np.broadcast_to(b > 0, a.shape)
        cond = np.divide(a, b, out=np.zeros_like(a), where=ok)
        cond = np.moveaxis(cond, (n - 1, a.ndim - 1), (0, 1))
        okm = np.moveaxis(ok, (n - 1, a.ndim - 1), (0, 1))
        for xv in range(x_size):
            for yv in range(y_size):
                vals = cond[xv, yv][okm[xv, yv]]
                if vals.size == 0:
                    continue
                if np.isnan(w_est[xv, yv]):
                    w_est[xv, yv] = vals[0]
                if np.abs(vals - w_est[xv, yv]).max() > CROSS_CHECK_TOL:
                    raise ContractViolationError(
                        "joint is not memoryless: p(y_n | x^n, y^{n-1}) varies with history"
                    )

    directed = directed_information(joint, n_steps)

    sum_single = 0.0
    per_step_y = []
    for n in range(1, n_steps + 1):
        a = _step_marginal(table, n, n_steps)
        keep = (n - 1, a.ndim - 1)
        m = a.sum(axis=tuple(i for i in range(a.ndim) if i not in keep))  # p(x_n, y_n)
        px = m.sum(axis=1, keepdims=True)
        py = m.sum(axis=0, keepdims=True)
        mask = m > 0
        ratio = np.ones_like(m)
        np.divide(m, px * py, out=ratio, where=mask)
        sum_single += float((m[mask] * np.log2(ratio[mask])).sum())
        per_step_y.append(m.sum(axis=0))

    y_joint = table.sum(axis=tuple(range(n_steps)))
    y_prod = np.ones(())
    for py in per_step_y:
        y_prod = np.multiply.outer(y_prod, py)
    outputs_independent = bool(np.abs(y_joint - y_prod).max() < CROSS_CHECK_TOL)

    if directed > sum_single + CROSS_CHECK_TOL:
        raise FscError(
            f"memoryless bound violated: directed {directed!r} > single-letter {sum_single!r}"
        )
    return MemorylessBoundReport(directed, sum_single, outputs_independent)


# --- n-fold laws of a general channel -------------------------------------


@dataclass(frozen=True)
class StateBeliefTable:
    """q(s_n | x^n, s_0): distribution over the final state for one input path."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ShapeError("state belief must be a vector over states")
        if not abs(values.sum() - 1.0) <= ROW_SUM_TOL:
            raise ValidationError(f"state belief sums to {values.sum():.17g}, expected 1")
        if not np.all(values >= 0):  # written so that NaN fails it
            raise ValidationError("state belief has negative or NaN entries")
        object.__setattr__(self, "values", _frozen(values))


def _check_symbols(c: FiniteStateChannel, x_seq, s0: int) -> list[int]:
    xs = [int(x) for x in x_seq]
    for x in xs:
        if not 0 <= x < c.x_size:
            raise IndexError(f"input symbol {x} outside 0..{c.x_size - 1}")
    if not 0 <= s0 < c.s_size:
        raise IndexError(f"state {s0} outside 0..{c.s_size - 1}")
    return xs


def n_fold_law(c: FiniteStateChannel, x_seq, s0: int, n: int) -> np.ndarray:
    """Joint P^n(y^n, s_n | x^n, s_0) as a (Y, ..., Y, S) table with n output axes.

    Built by the forward recursion that sums the one-step law over the
    intermediate state: P^n = sum_{s_{n-1}} P(y_n, s_n | x_n, s_{n-1}) P^{n-1}.
    """
    if n < 1:
        raise ValidationError(f"horizon must be >= 1, got {n}")
    xs = _check_symbols(c, x_seq, s0)
    if len(xs) != n:
        raise ShapeError(f"x_seq has length {len(xs)}, expected n = {n}")
    table = c.law[s0, xs[0]]  # (Y, S)
    for x in xs[1:]:
        # contract the trailing state axis with the next step's s_prev axis
        table = np.tensordot(table, c.law[:, x], axes=(table.ndim - 1, 0))
    total = table.sum()
    if abs(total - 1.0) > COMPOSED_SUM_TOL:
        raise ValidationError(f"n-fold law sums to {total:.17g}; accumulated error too large")
    return table


def state_marginal(c: FiniteStateChannel, x_seq, s0: int, n: int) -> StateBeliefTable:
    """q^n(s_n | x^n, s_0): the n-fold law summed over all output sequences."""
    if n == 0:
        values = np.zeros(c.s_size)
        if not 0 <= s0 < c.s_size:
            raise IndexError(f"state {s0} outside 0..{c.s_size - 1}")
        values[s0] = 1.0
        return StateBeliefTable(values)
    table = n_fold_law(c, x_seq, s0, n)
    return StateBeliefTable(table.sum(axis=tuple(range(table.ndim - 1))))


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
