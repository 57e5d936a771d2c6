"""Finite-horizon feedback-capacity estimation.

The estimator maximizes (1/N) I(X^N -> Y^N | s_0) over causal input
policies for a unifilar channel. With s_0 known, policies
pi_n(x | s_{n-1}, y^{n-1}) reach the horizon-N optimum, so every rate is
computed on the lattice of nodes (s_n, y^n): a forward pass carries
P(s_n, y^n) to the output law Q(y^N), and a directed-information
Blahut-Arimoto update, with the upper bound it certifies, folds back over
the same nodes; the ascent over-relaxes it and corrects each trial by a
secant step. The same solver, on one state at horizon 1, gives the
capacity of a memoryless channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .channels import UnifilarChannel
from .errors import (
    DomainError,
    FscError,
    ResourceLimitError,
    ShapeError,
    ValidationError,
    check_at_least,
    check_budget,
    describe_int,
)

POLICY_ROW_TOL = 1e-12
MAX_JOINT_ENTRIES = 4**10  # |S||X||Y|^N lattice transitions; N <= 18 for binary two-state
_LN2 = float(np.log(2.0))
_LN_FLOOR = float(np.log(1e-3))  # drop inputs the update lowers below this; re-admit at it
_FACE_EVERY = 32                 # updates between changes of the policy's support
_OMEGA_MAX = 1.5**40             # trials tie once the rate is flat to rounding; omega stops here
_MEMORY = 4                      # update pairs each secant step is fitted to
_RIDGE = 1e-8                    # on the unit diagonal of the secant fit
_TINY = float(np.finfo(float).tiny)  # a secant pair of smaller weight gets gamma 0
_BLOCK = 1 << 14                 # columns per pass of a large secant fit's Gram product


def binary_entropy(p: float) -> float:
    """H2(p) in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs of the Blahut-Arimoto solver; defaults match the CLI defaults.
    ``max_iters`` is an int and ``tol`` an int or a float, so a boolean, a
    string, a null or a list is refused."""

    max_iters: int = 20000      # policy updates
    tol: float = 1e-10          # stop once upper - lower < tol

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, int):
            raise ValidationError(f"max_iters must be an int, got {self.max_iters!r}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float)):
            raise ValidationError(f"tol must be a number, got {self.tol!r}")
        check_at_least("max_iters", self.max_iters, 0)
        # written so that NaN fails: a bracket never closes below a tol <= 0
        if not 0.0 < self.tol < np.inf:
            raise ValidationError(f"{describe_int('tol', self.tol, ' = ')} is not positive and finite")


def _check_cell(u: UnifilarChannel, s0: int, horizon: int):
    """Refuse, before anything is allocated, a horizon below 1, an initial
    state outside the channel and a lattice of more than
    ``MAX_JOINT_ENTRIES`` transitions."""
    check_at_least("horizon", horizon, 1)
    if not 0 <= s0 < u.s_size:
        raise DomainError(f"{describe_int('state', s0)} outside 0..{u.s_size - 1}")
    check_budget("horizon", horizon, lambda n: u.s_size * u.x_size * u.y_size**n,
                 MAX_JOINT_ENTRIES, "lattice transitions")


def _logsumexp(t, out=None):
    """ln sum_x exp t[x, h] for every column h, written into ``out`` if given."""
    if len(t) == 2:
        return np.logaddexp(t[0], t[1], out=out)  # one ufunc in place of six
    top = np.maximum.reduce(t, axis=0)
    total = np.add.reduce(np.exp(t - top), axis=0)
    return np.add(np.log(total, out=total), top, out=out)


def _normalize(t, free=None):
    """Shift every column of ``t`` in place so that sum_x exp t[x, h] = 1;
    return the shifts. The column max comes off before the log of the sum:
    near -1.8e15 the ulp is 0.25, so t - (top + ln total) would round a
    column off the simplex. The max and the log-sum are written into the
    first two rows of ``free``, a table as wide as ``t`` that nothing reads
    until the shifts are used, and the shifts into its first row."""
    top, lse = (None, None) if free is None else free[:2]
    if len(t) == 2:
        t0, t1 = t
        top = np.maximum(t0, t1, out=top)
        t -= top
        lse = np.logaddexp(t0, t1, out=lse)
    else:
        top = np.maximum.reduce(t, axis=0, out=top)
        t -= top
        lse = np.log(np.add.reduce(np.exp(t), axis=0), out=lse)
    t -= lse
    return np.add(top, lse, out=top)


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

    The lattice allocates every table its passes write once, so a pass
    allocates nothing. Theta-shaped, in one block: ``iterates``, three
    tables that ``_ascend`` rotates through as its iterate, its update and
    its trial; ``pi``, the policy exp(theta) of the last forward, which
    ``_ascend`` also uses as scratch until the next one; ``joint``; and
    ``move``, the secant step. The column blocks of each level of the
    iterates and ``pi`` are views bound here (``_blocks``), and those of
    ``joint`` sit in ``carry``; any other theta-shaped array, such as a
    caller's theta, is sliced anew on each pass, with the same values.
    Beside them: ``alpha``, each level's
    P(s_n, y^n) at that level's columns; ``q``, Q(y^N); ``zq``, -ln Q over
    a row of ones; and ``scratch``, one contiguous buffer that holds in turn
    each level's product pi_n alpha_n, which the transition product reads
    as (|X||S|, |Y|^n), and the backward's gains. The tables that only
    ``backward`` uses are made at its first call (``_fold``).
    """

    def __init__(self, u: UnifilarChannel, s0: int, horizon: int):
        _check_cell(u, s0, horizon)
        s, x, y = u.w.shape
        self.shape, self.s0, self.horizon, self.y_size = u.w.shape, s0, horizon, y
        lands = u.f[:, :, None] == np.arange(s)[:, None]  # [s, x, s', y]: f(s, x, y) = s'
        self.t = (lands * u.w[:, :, None]).swapaxes(0, 1).reshape(x * s, s * y)
        self.tq = u.w.transpose(1, 0, 2).reshape(x * s, y)
        widths = [s * y**n for n in range(horizon)]  # the nodes of each level
        offsets = list(accumulate(widths, initial=0))
        self.steps = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
        self.theta_shape = (x, offsets[-1])
        *self.iterates, self.pi, self.joint, self.move = np.empty((6,) + self.theta_shape)
        self._bound = {id(a): [a[:, c] for c in self.steps] for a in (*self.iterates, self.pi)}
        # sum_y W ln W per (x, s), and laid out like theta: E ln Wseq = <joint, wlnw>
        wlnw = np.add.reduce(u.w * np.log(np.where(u.w > 0, u.w, 1.0)), axis=2).T
        self.wlnw = np.concatenate([wlnw] * horizon, axis=1).repeat(
            [y**n for n in range(horizon) for _ in range(s)], axis=1)
        # the larger of the last level's product (or gains) and the pair of
        # gains of the level below it
        self.scratch = np.empty(x * max(widths[-1], 2 * widths[-2] if horizon > 1 else 0))
        self.alpha = np.zeros(offsets[-1])
        self.alpha[s0] = 1.0
        self.root = self.alpha[:s]
        self.q = np.empty(y**horizon)
        self.zq = np.ones((y + 1, y ** (horizon - 1)))
        self.z_out = self.zq[:-1].reshape(-1)
        # per level: alpha_n, the product pi_n alpha_n in scratch and as
        # (|X||S|, |Y|^n), the level's block of joint, and the transition
        # product that writes alpha_{n+1} (T^T), or Q (tq^T) at the last level
        transfers = [self.t.T.copy()] * (horizon - 1) + [self.tq.T.copy()]
        targets = [self.alpha[c].reshape(s * y, -1) for c in self.steps[1:]]
        targets.append(self.q.reshape(y, -1))
        self.carry = []
        for cols, width, transfer, target in zip(self.steps, widths, transfers, targets):
            prod = self.scratch[:x * width].reshape(x, -1)
            self.carry.append((self.alpha[cols], prod, prod.reshape(x * s, -1),
                               self.joint[:, cols], transfer, target))

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

    @cached_property
    def _fold(self):
        """The tables only ``backward`` uses, made at its first call.

        ``backward`` multiplies [t | sum_y W ln W] by level n's Z and V,
        split by the latest output and stacked over a row of ones (``zv``),
        so that one product writes both gains of level n - 1, sum_y W
        [ln W + Z_n] and sum_y W [ln W + V_n], into scratch (``below``); the
        top level's gains are [tq | sum_y W ln W] times ``zq``. Returns the
        top product's target and, per level, (z, v, gz, gv, the rows of gv,
        zv, below), with the gains as (|X|, columns)."""
        s, x, y = self.shape
        wlnw = self.wlnw[:, :s].reshape(x * s, 1)  # level 0 holds sum_y W ln W once
        self.tzv = np.concatenate((self.t, wlnw), axis=1)
        self.tqz = np.concatenate((self.tq, wlnw), axis=1)
        widths = [c.stop - c.start for c in self.steps]
        zv = [np.empty((2, s))] + [np.ones((2, s * y + 1, w // s)) for w in widths[:-1]]
        gains = []
        for width in widths[:-1]:
            g = self.scratch[:2 * x * width].reshape(2, x * s, -1)
            gains.append((g, *g.reshape(2, x, -1)))
        g = self.scratch[:x * widths[-1]].reshape(x * s, -1)
        gains.append((g, g.reshape(x, -1), g.reshape(x, -1)))
        folds = []
        for n, (b, (_, gz, gv)) in enumerate(zip(zv, gains)):
            z, v = b if n == 0 else b[:, :-1].reshape(2, -1)  # the rows of ones left out
            folds.append((z, v, gz, gv, tuple(gv), b, gains[n - 1][0] if n else None))
        return gains[-1][0], folds

    def _blocks(self, table):
        """The column blocks of ``table``, one per level: bound once for the
        lattice's own tables, sliced anew for any other theta-shaped array."""
        blocks = self._bound.get(id(table))
        return [table[:, c] for c in self.steps] if blocks is None else blocks

    def rate(self, pi):
        """The rate of the policy table ``pi`` (probabilities, laid out like
        theta) and Q(y^N); Z_N = -ln Q, with 0 where Q = 0, is kept for
        ``backward``. The joint law P(s_{n-1}, y^{n-1}) pi_n(x | s_{n-1},
        y^{n-1}) of each entry, the secant step's Fisher weight, is kept in
        ``self.joint``."""
        for pi_n, (alpha, prod, stacked, joint_n, transfer, target) in zip(
                self._blocks(pi), self.carry):
            np.multiply(pi_n, alpha, out=prod)
            np.copyto(joint_n, prod)
            np.matmul(transfer, stacked, out=target)
        q, z = self.q, self.z_out
        self.support = np.count_nonzero(q)
        np.log(q if self.support == q.size else q + (q == 0), out=z)
        np.negative(z, out=z)
        expected = float(np.vdot(self.joint, self.wlnw))  # E ln Wseq
        return (expected + float(np.dot(q, z))) / (self.horizon * _LN2), q

    def forward(self, theta):
        """The rate of the policy exp(theta), kept in ``self.pi``, and whether
        the linearized rate the bound rests on is exact."""
        self.theta = theta
        value, q = self.rate(np.exp(theta, out=self.pi))
        # Q > 0 only where a path reaches, so a Q > 0 everywhere needs no count
        return value, self.support == q.size or self.support == self.reachable

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
        binary = self.shape[1] == 2
        top, folds = self._fold
        theta, out = self._blocks(self.theta), self._blocks(out)
        np.matmul(self.tqz, self.zq, out=top)  # sum_y W [ln W + Z_N], and with V_N
        for n in range(self.horizon - 1, -1, -1):
            z, v, gz, gv, gv_rows, zv, below = folds[n]
            ez = out[n]
            np.add(gz, theta[n], out=ez)
            _logsumexp(ez, out=z)
            np.subtract(ez, z, out=ez)
            if admit is not None:
                ez[np.isneginf(ez) & (gz >= z + admit)] = _LN_FLOOR
            if binary:  # the reduction's values in one two-row call
                np.maximum(*gv_rows, out=v)
            else:
                np.maximum.reduce(gv, axis=0, out=v)
            if n:
                np.matmul(self.tzv, zv, out=below)
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


def _gram(rows, weight):
    """rows diag(weight) rows^T, in nested lists, summed ``_BLOCK`` columns
    at a time, so that the weighted copy of the rows stays in cache: at
    N = 18, five rows of 2^20 entries take 8 ms that way and 28 ms in one
    pass. A table of at most ``_BLOCK`` columns is one block."""
    blocks = (slice(a, a + _BLOCK) for a in range(0, len(weight), _BLOCK))
    return sum((rows[:, b] * weight[b]) @ rows[:, b].T for b in blocks).tolist()


def _secant(gram):
    """The coefficients gamma of the secant step from the Gram matrix, in
    nested lists, of g, dg_1, .., dg_k: the least-squares fit of g by the
    dg's, with ``_RIDGE`` added to the diagonal of their block A once A is
    scaled to a unit diagonal; that is, A's diagonal grows by the factor
    1 + ``_RIDGE``. A dg of zero weight gets gamma 0, and so does one whose
    weight <dg, dg>_w is subnormal: its Gram entries keep a few bits at
    most, too few for the ridge to keep the system positive definite (a
    weight of 2.5e-323 eliminated to a pivot of exactly 0). The system is
    at most ``_MEMORY`` square and positive definite, so Gaussian
    elimination without pivoting, in plain floats, solves it."""
    k = len(gram) - 1
    rows = [row[1:] + row[:1] for row in gram[1:]]  # [A | b]
    for i in range(k):
        if rows[i][i] >= _TINY:
            rows[i][i] *= 1.0 + _RIDGE
        else:  # a row and column of the identity for a dead dg
            for row in rows:
                row[i] = 0.0
            rows[i] = [float(i == j) for j in range(k)] + [0.0]
    for i, pivot in enumerate(rows):
        for row in rows[i + 1:]:
            f = row[i] / pivot[i]
            for j in range(i + 1, k + 1):
                row[j] -= f * pivot[j]
    gamma = [0.0] * k
    for i in range(k - 1, -1, -1):
        row = rows[i]
        total = row[k]
        for j in range(i + 1, k):
            total -= row[j] * gamma[j]
        gamma[i] = total / row[i]
    return gamma


def _drop_underflows(theta, pi):
    """Set to -inf every finite entry of ``theta`` whose probability
    ``pi`` = exp(theta) underflows to 0, which leaves the policy as it is;
    return their count."""
    if np.count_nonzero(pi) == pi.size:  # no probability is 0
        return 0
    under = pi == 0.0
    under &= np.isfinite(theta)
    count = int(np.count_nonzero(under))
    if count:
        theta[under] = -np.inf
    return count


def _ascend(model: _Lattice, theta, cfg: OptimizerSettings):
    """Over-relaxed Blahut-Arimoto from the log-policy ``theta``.

    Each iteration tries a trial step, renormalized, and moves there if that
    does not lower the rate, and otherwise to the plain update theta_BA,
    which never does; omega grows 1.5-fold on every accepted move, up to
    ``_OMEGA_MAX``, and is reset to 1 on a rejected one. With g = theta_BA -
    theta on the finite entries, the trial is theta + omega g, corrected by
    a secant (Anderson) step over the last ``_MEMORY`` plain or accepted
    updates: with dx_i and dg_i the changes of theta and of g over update i,
    theta + omega g - sum_i gamma_i (dx_i + omega dg_i), where gamma is the
    least-squares fit of g by the dg_i in the weighted inner product
    <a, b>_w = sum w a b (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011).
    It cancels the part of g that the recent updates predict; with one pair,
    gamma = <dg, g>_w / <dg, dg>_w. ``_secant`` scales the fit to a unit
    diagonal and adds ``_RIDGE`` to it, so nearly parallel dg's cannot blow
    gamma up. The weight w = P(node) pi(x | node) of each entry, the Fisher
    metric of the policy (Matz & Duhamel, ITW 2004), keeps columns no path
    reaches out of the fit. A rejection restarts the history from the plain
    update, where omega = 1 still takes the corrected trial; a change of
    face clears it.

    Every ``_FACE_EVERY`` updates the run may move to another face of the
    policy simplex. An input whose update is below 1e-3 and still falling is
    dropped, set to exactly 0 (theta = -inf), which the multiplicative
    update keeps; a normalized column cannot lower every entry, so each
    keeps one. A dropped input comes back at 1e-3 when the policy misses an
    output sequence the channel can emit (no optimum does: the rate's slope
    toward such a sequence is infinite), or when ``model.backward`` finds it
    violating the optimality conditions by at least the last bound's gap,
    upper - value in nats per use (the same pass computes the current one);
    a re-admitted input is exempt from later epochs' drops. At a fixed point
    on a face the gap is at most the largest violation, since V_0 - Z_0,
    N ln 2 times the gap there, gains at most one violation per step. So a
    face without the optimum cannot hold the run, while an input that
    vanishes only in the limit is not brought back by the small violations
    on the way there. A change of face is a renormalized plain step; omega
    carries over a drop, which moves the policy by less than 1e-3, and is
    reset to 1 by a re-admission. An optimum on the boundary, which the
    update approaches only like 1/k, is then approached at the update's
    linear rate on its face. An entry whose probability underflows to 0,
    which a long over-relaxed step can leave finite far below any floor, is
    dropped too as soon as an iterate holds it, and counted as a drop:
    finite, the re-admission test would never see it, and the update would
    take thousands of steps to raise it. This drops re-admitted inputs as
    well, so an input can leave and come back more than once; what keeps
    that from cycling is only the re-admission rule, which brings an input
    back when its violation is what holds the bracket open.

    Each iterate's bracket is its own: its rate, and the linearized rate's
    maximum over every deterministic policy, dropped inputs included, so it
    holds whatever the support, capped at log2|Y|, which bounds every rate;
    log2|Y| alone where the linearized rate is not exact. The run stops on
    it and returns the last iterate with it, so the returned policy
    re-checks it; a change of face can lower the rate, so a run capped just
    after one may return less than one capped just before. Rounding can put
    the upper end an ulp below the rate; it is reported as at least that.

    The iterate, the update and the trial rotate through the lattice's
    ``iterates``, so an update allocates nothing: a table is reused once
    nothing reads it, the returned theta is one of them, and the caller's
    ``theta`` is only read. Returns (theta, value, upper, counts): the
    counts of updates, of dropped and re-admitted inputs, of accepted trials
    with a secant correction and of rejected trials.
    """
    start = theta
    theta, update, trial = model.iterates
    np.copyto(theta, start)
    value, exact = model.forward(theta)
    ceiling = float(np.log2(model.y_size))  # bounds every rate
    kept = np.zeros(theta.shape, dtype=bool)  # re-admitted inputs: no epoch drops them
    finite = np.empty(theta.shape, dtype=bool)
    omega = 1.0
    # g at the current iterate, then the dg_i and the dx_i, in rings of _MEMORY
    history = np.zeros((1 + 2 * _MEMORY,) + theta.shape)
    step, dgs, dxs = history[0], history[1:1 + _MEMORY], history[1 + _MEMORY:]
    flat = history.reshape(len(history), -1)
    weight, move_flat = model.joint.reshape(-1), model.move.reshape(-1)
    # pi is rewritten by the next forward, so until then it can take a
    # renormalization's column max and log-sum; one input's table is too narrow
    free = model.pi if len(theta) > 1 else None
    # pairs recorded since the history was cleared; once pending, the last
    # move's dx sits in its ring slot and its g in step, waiting for dg
    pairs, pending = 0, False
    iters = pruned = readmitted = accelerated = rejected = 0
    while True:
        epoch = (iters + 1) % _FACE_EVERY == 0
        if epoch:
            bound = model.backward(update, (upper - value) * _LN2)
        else:
            bound = model.backward(update)
        upper = min(bound, ceiling) if exact else ceiling
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
            _normalize(update, free)
            pairs, pending = 0, False
            if n_back:
                omega = 1.0
        else:
            np.isfinite(np.add(theta, update, out=trial), out=finite)  # trial is free here
            trial.fill(0.0)  # g is 0 on dropped inputs; it waits in trial
            np.subtract(update, theta, out=trial, where=finite)
            if pending:  # the last move's pair is complete
                np.subtract(trial, step, out=dgs[pairs % _MEMORY])
                pairs += 1
            np.copyto(step, trial)
            pending, gamma = True, ()
            if pairs:
                fit = flat[:min(pairs, _MEMORY) + 1]
                gamma = _secant(_gram(fit, weight))
            dx = dxs[pairs % _MEMORY]  # where this update's move goes
            if omega == 1.0 and not any(gamma):  # the trial is the plain update
                omega = 1.5
                np.copyto(dx, step)
            else:
                pad = [0.0] * (_MEMORY - len(gamma))
                coef = [omega, *(-omega * c for c in gamma), *pad, *(-c for c in gamma), *pad]
                np.dot(coef, flat, out=move_flat)
                np.add(theta, model.move, out=trial)
                # dx before the forward overwrites the shifts; a rejected
                # trial's dx is not used: the history restarts, and its slot
                # is written again before a fit gives it a coefficient
                np.subtract(model.move, _normalize(trial, free), out=dx)
                trial_value, trial_exact = model.forward(trial)
                if trial_value >= value:
                    accelerated += any(gamma)
                    pruned += _drop_underflows(trial, model.pi)
                    theta, trial = trial, theta
                    value, exact = trial_value, trial_exact
                    omega = min(1.5 * omega, _OMEGA_MAX)
                    continue
                rejected += 1
                omega, pairs = 1.0, 0
                np.copyto(dxs[0], step)
        theta, update = update, theta
        value, exact = model.forward(theta)
        pruned += _drop_underflows(theta, model.pi)
    counts = {"iterations": iters, "pruned": pruned, "readmitted": readmitted,
              "accelerated": accelerated, "rejected": rejected}
    return theta, value, max(upper, value), counts


@dataclass(frozen=True)
class CapacityEstimate:
    """A finite-horizon feedback-rate estimate and how it was obtained:
    ``value`` is the rate of ``policy``, and ``upper`` a certified upper
    bound on the horizon-N optimum, that of ``policy``: the rate linearized
    there and maximized over deterministic policies, capped at log2|Y|.
    ``policy[n-1][s, y, x]`` is pi_n(x | s_{n-1} = s, y^{n-1}), where y
    numbers the output history sum_k y_k |Y|^(k-1), the first output the
    least significant digit."""

    value: float
    upper: float
    policy: tuple
    diagnostics: dict


def optimize_rate(
    u: UnifilarChannel, s0: int, horizon: int, cfg: OptimizerSettings | None = None
) -> CapacityEstimate:
    """Blahut-Arimoto over causal policies from a fixed initial state.

    The run starts at the uniform policy and stops once upper - value <
    ``cfg.tol`` or after ``cfg.max_iters`` updates, with its last policy and
    that policy's own bracket. Only a change of face, every ``_FACE_EVERY``
    updates, can lower the rate, so a capped run ends below the uniform-iid
    baseline only if one did, and a closed one at most ``cfg.tol``. The rate
    is concave in p(x^N || y^{N-1}), which enters the joint law linearly, so
    the rate linearized at any policy, maximized over deterministic causal
    policies, bounds the optimum from above. ``diagnostics`` holds
    ``converged`` and ``_ascend``'s counts: ``iterations``, the inputs
    ``pruned`` (dropped to probability 0) and ``readmitted``, the
    ``accelerated`` (secant-corrected) moves accepted and the trials
    ``rejected``.
    """
    cfg = cfg or OptimizerSettings()
    model = _Lattice(u, s0, horizon)
    theta = np.full(model.theta_shape, -np.log(u.x_size))
    theta, value, upper, counts = _ascend(model, theta, cfg)
    return CapacityEstimate(
        value=value,
        upper=upper,
        policy=model.policy(theta),
        diagnostics={**counts, "converged": upper - value < cfg.tol},
    )


def dmc_capacity(w) -> CapacityEstimate:
    """Capacity of the memoryless channel ``w[x, y]``, in bits per use.

    Feedback does not raise a memoryless capacity, so this is the
    Blahut-Arimoto solver on the one-state channel at horizon 1: its
    estimate's certificate [value, upper] brackets the capacity, and
    ``policy[0][0, 0]`` is the returned input law. A bracket that does not
    close raises ``ResourceLimitError``.
    """
    w = np.asarray(w, dtype=float)
    u = UnifilarChannel(w[None], np.zeros((1,) + w.shape, dtype=int))
    cfg = OptimizerSettings()
    est = optimize_rate(u, 0, 1, cfg)
    if not est.diagnostics["converged"]:
        raise ResourceLimitError(
            f"capacity bracket did not close below {cfg.tol} in {cfg.max_iters} updates",
            limit=cfg.max_iters,
        )
    return est


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
