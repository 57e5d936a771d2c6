"""The brute-force references the library is tested against, one per quantity.

None of these shares code with ``fscfb.capacity``, and none iterates to a
tolerance. Flat path tables over every (x^N, y^N) path, with the
history-indexed ``CausalPolicy`` and the path law ``path_law``, check each
end of a certified bracket [value, upper] at the policy it returns, whose
own bracket it is:

- ``value`` against ``evaluate_rate``, the exact rate of that policy;
- ``upper`` against min(U*, log2|Y|), with U* = ``linearized_max``, the
  rate linearized at that policy and maximized over every deterministic
  causal policy by one fold back over the histories, which bounds the
  horizon-N optimum.

``segment_rate``, the best rate on a grid of the segment toward U*'s
maximizer, is a rate of a policy; it checks U* itself from below. At N = 1
on one state the pair [``evaluate_rate``, ``linearized_max``] is
[I(p), max_x D(W_x || Q_p)], the bracket of a memoryless channel's
capacity.

``conftest.brute_joint`` and ``conftest.brute_directed_info`` check the
path tables by loops. The n-fold law of a general channel is
``conftest.brute_nfold``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fscfb import (
    DomainError,
    FscError,
    ResourceLimitError,
    ShapeError,
    UnifilarChannel,
    ValidationError,
)
from fscfb.capacity import MAX_JOINT_ENTRIES, POLICY_ROW_TOL


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


def _path_tables(u: UnifilarChannel, s0: int, horizon: int, factors=None):
    """Wseq, log2 Wseq and the output-sequence index of every (x^N, y^N) path.

    Paths are numbered like the policy's flat histories: the (x_n, y_n)
    pairs most-recent-last, each pair as x*|Y| + y. Bad horizons and states,
    and more than ``MAX_JOINT_ENTRIES`` paths, are refused before anything
    is allocated.
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
    if paths > MAX_JOINT_ENTRIES:
        raise ResourceLimitError(
            f"horizon {horizon} needs {paths} trajectories, over the limit of {MAX_JOINT_ENTRIES}",
            limit=MAX_JOINT_ENTRIES,
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


def path_law(u: UnifilarChannel, s0: int, policy: CausalPolicy, factors=None):
    """P(x^N, y^N | s_0) of every path under ``policy``, with the path
    tables' log2 Wseq and output-sequence index; the paths are numbered as
    ``_path_tables`` numbers them, which appends each step's channel factor
    to ``factors`` if that is a list."""
    if policy.x_size != u.x_size or policy.y_size != u.y_size:
        raise ShapeError("policy alphabets do not match the channel")
    n_steps = policy.horizon
    prob, logw, yidx = _path_tables(u, s0, n_steps, factors)
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


def linearized_max(u: UnifilarChannel, s0: int, policy, argmax=None) -> float:
    """U*, the certified upper end at ``policy`` (a CausalPolicy or a lattice
    policy): the rate linearized there, (1/N) sum_p P'(p) L(p) with the loss
    L = log2 Wseq - log2 Q of ``_path_rate``, maximized over every causal
    path law P'. The rate is concave in the path law, so U* bounds the
    horizon-N optimum. A linear function peaks at a deterministic policy, so
    L is folded back over the (x^n, y^n) histories with the best input at
    each: V_{n-1}(h) = max_x sum_y W_n(y | x, s(h)) V_n(h x y), and U* =
    V_0 / N. It is +inf when Q misses an output sequence some path reaches,
    where L is infinite. If ``argmax`` is a list, the deterministic
    CausalPolicy of those best inputs is appended to it."""
    if not isinstance(policy, CausalPolicy):
        policy = causal_policy(u, s0, policy)
    factors, picks = [], []
    prob, logw, yidx = path_law(u, s0, policy, factors)
    # V_N = L, written over logw: peak memory
    _, q = _path_rate(prob, logw, yidx, policy.horizon, u.y_size, loss=logw)
    value = logw
    value[q[yidx] == 0] = np.inf
    for w in reversed(factors):  # a path of zero probability adds nothing, even at +inf
        gains = np.multiply(value.reshape(w.shape), w, out=np.zeros(w.shape), where=w > 0)
        gains = gains.sum(axis=2)
        picks.insert(0, np.eye(u.x_size)[gains.argmax(axis=1)])
        value = gains.max(axis=1)
    if argmax is not None:
        argmax.append(CausalPolicy(policy.horizon, u.x_size, u.y_size, tuple(picks)))
    return float(value[0]) / policy.horizon


def segment_rate(u: UnifilarChannel, s0: int, policy, toward: CausalPolicy) -> float:
    """The best rate on the segment from the path law of ``policy`` (a
    CausalPolicy or a lattice policy) to that of ``toward``, over t = 0 and
    t = 2^-k for k < 60: causal path laws form a convex set, so each point is
    the rate of a policy, a lower bound on the horizon-N optimum. Toward the
    policy that attains U*, the rate rises at slope U* - rate from t = 0,
    so a ``policy`` whose rate is below the optimum's gains some of the gap."""
    if not isinstance(policy, CausalPolicy):
        policy = causal_policy(u, s0, policy)
    prob, logw, yidx = path_law(u, s0, policy)
    step = path_law(u, s0, toward)[0] - prob
    return max(_path_rate(prob + t * step, logw, yidx, policy.horizon, u.y_size)[0]
               for t in (0.0, *2.0 ** -np.arange(60)))


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
