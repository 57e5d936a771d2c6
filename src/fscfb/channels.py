"""Finite-state channels: representation, validation, and structural checks.

A general channel is the joint law P(y, s_next | x, s_prev) over finite
alphabets, stored as a dense (S, X, Y, S) table. A unifilar channel is the
pair (W, f): a per-state output law W(y | x, s_prev) plus a deterministic
next-state table f(s_prev, x, y).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError, check_at_least, check_budget

ROW_SUM_TOL = 1e-12       # stochasticity tolerance at validation time
INDECOMP_BUDGET = 10**7   # |X|^n * |S|^2 entries an exhaustive sweep may touch
_GAP_BLOCK = 2**20        # floats in one level of the sweep before it goes prefix by prefix


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


# _check_rows and _check_range are written so that NaN fails them: every
# comparison with NaN is False.
def _check_rows(rows: np.ndarray, what: str) -> None:
    ok = np.abs(rows - 1.0) <= ROW_SUM_TOL
    if not ok.all():
        s, x = np.argwhere(~ok)[0]
        raise ValidationError(
            f"{what} row (s_prev={s}, x={x}) sums to {rows[s, x]:.17g}, expected 1"
        )


def _check_range(table: np.ndarray, what: str) -> None:
    ok = (table >= 0.0) & (table <= 1.0)
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        idx = tuple(int(i) for i in bad)
        raise ValidationError(f"{what} entry {idx} = {table[tuple(bad)]:.17g} outside [0, 1]")


@dataclass(frozen=True)
class FiniteStateChannel:
    """P(y, s_next | x, s_prev) as a (S, X, Y, S) table; immutable once built."""

    law: np.ndarray

    def __post_init__(self):
        law = np.asarray(self.law, dtype=float)
        if law.ndim != 4 or law.shape[0] != law.shape[3]:
            raise ShapeError(f"law must have shape (S, X, Y, S), got {law.shape}")
        if min(law.shape[:3]) < 1:
            raise ValidationError("alphabet sizes must be >= 1")
        _check_range(law, "law")
        _check_rows(law.sum(axis=(2, 3)), "law")
        object.__setattr__(self, "law", _frozen(law))

    @property
    def s_size(self) -> int:
        return self.law.shape[0]

    @property
    def x_size(self) -> int:
        return self.law.shape[1]

    @property
    def y_size(self) -> int:
        return self.law.shape[2]


@dataclass(frozen=True)
class UnifilarChannel:
    """Pair (W, f): per-state output law plus deterministic next-state table.

    ``w[s_prev, x, y]`` is the output probability, ``f[s_prev, x, y]`` the
    next state. Both tables are indexed the same way and frozen after
    validation.
    """

    w: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        f = np.asarray(self.f)
        if w.ndim != 3:
            raise ShapeError(f"w must have shape (S, X, Y), got {w.shape}")
        if f.shape != w.shape:
            raise ShapeError(f"f shape {f.shape} must match w shape {w.shape}")
        if not np.issubdtype(f.dtype, np.integer):
            if not np.all(f == np.floor(f)):
                raise ValidationError("f must contain integer state indices")
            f = f.astype(np.int64)
        s_size = w.shape[0]
        if f.size and not (f.min() >= 0 and f.max() < s_size):
            bad = np.argwhere((f < 0) | (f >= s_size))[0]
            raise ValidationError(
                f"f entry {tuple(int(i) for i in bad)} = {f[tuple(bad)]} outside 0..{s_size - 1}"
            )
        _check_range(w, "w")
        _check_rows(w.sum(axis=2), "w")
        object.__setattr__(self, "w", _frozen(w))
        object.__setattr__(self, "f", _frozen(f))

    @property
    def s_size(self) -> int:
        return self.w.shape[0]

    @property
    def x_size(self) -> int:
        return self.w.shape[1]

    @property
    def y_size(self) -> int:
        return self.w.shape[2]


@dataclass(frozen=True)
class ConnectivityReport:
    """Verdict of the strong-connectivity check on the support graph.

    ``witness`` is an unreachable (from_state, to_state) pair when the
    verdict is negative; ``max_hops`` is the largest shortest-path length
    over all ordered state pairs when it is positive (path lengths are not
    certified minimal in the multi-step input sense).
    """

    connected: bool
    witness: tuple[int, int] | None = None
    max_hops: int | None = None


def compose_unifilar(u: UnifilarChannel) -> FiniteStateChannel:
    """Expand (W, f) into the joint law: mass W(y|x,s') on s = f(s',x,y), else 0."""
    s_size, x_size, y_size = u.w.shape
    law = np.zeros((s_size, x_size, y_size, s_size))
    sp, x, y = np.indices((s_size, x_size, y_size))
    law[sp, x, y, u.f] = u.w
    return FiniteStateChannel(law)


def indecomposability_gaps(c: FiniteStateChannel, n: int) -> list[float]:
    """Worst-case initial-state memory after each of 1..n steps.

    Entry k-1 is max over (s_k, x^k, s_0, s_0') of
    |q^k(s_k|x^k,s_0) - q^k(s_k|x^k,s_0')|, swept exhaustively over every
    input sequence. One level recursion serves every horizon. Level k is
    q[s_0, (x^k, s_k)], the initial state outermost, so one 2-D product
    steps every row q^{k-1}(.|x^{k-1},s_0) through the kernels of all
    inputs at once, and the pairwise maximum is the largest spread
    max_{s_0} - min_{s_0} over the columns. The order of the input
    sequences never matters to a max. Levels of more than ``_GAP_BLOCK``
    floats are swept one input prefix at a time. Refuses horizons whose
    sweep would touch more than ``INDECOMP_BUDGET`` table entries.
    """
    check_at_least("horizon", n, 1)
    s, x = c.s_size, c.x_size
    check_budget("horizon", n, lambda k: x**k * s * s, INDECOMP_BUDGET, "sweep entries")
    # kernel[s_prev, (x, s_next)]: the one-step state kernels, outputs summed
    # out, side by side
    kernel = c.law.sum(axis=2).reshape(s, x * s)
    gaps = [0.0] * n

    def sweep(q, first, last):
        for k in range(first, last):
            q = (q.reshape(-1, s) @ kernel).reshape(s, -1)
            spread = np.maximum.reduce(q, axis=0) - np.minimum.reduce(q, axis=0)
            gaps[k] = max(gaps[k], float(spread.max()))
        return q

    deep = 1  # levels swept per prefix
    while deep < n and x ** (deep + 1) * s * s <= _GAP_BLOCK:
        deep += 1
    top = sweep(np.eye(s), 0, n - deep).reshape(s, -1, s)
    for j in range(top.shape[1]):
        sweep(top[:, j], n - deep, n)
    return gaps


def strongly_connected(c: FiniteStateChannel) -> ConnectivityReport:
    """Decide whether every state reaches every state with positive probability.

    Uses the support graph with an edge s' -> s iff some (x, y) has
    law(s', x, y, s) > 0; reachability there coincides with reachability
    under some input distribution. Reaching is counted over >= 1 steps.
    """
    s_size = c.s_size
    adj = (c.law > 0).any(axis=(1, 2))
    dist = np.full((s_size, s_size), -1, dtype=int)
    for src in range(s_size):
        queue = deque(int(t) for t in np.flatnonzero(adj[src]))
        for t in queue:
            dist[src, t] = 1
        while queue:
            node = queue.popleft()
            for t in np.flatnonzero(adj[node]):
                if dist[src, t] < 0:
                    dist[src, t] = dist[src, node] + 1
                    queue.append(int(t))
    for tgt in range(s_size):
        for src in range(s_size):
            if dist[src, tgt] < 0:
                return ConnectivityReport(connected=False, witness=(src, tgt))
    return ConnectivityReport(connected=True, max_hops=int(dist.max()))


def tv_distance(a: FiniteStateChannel, b: FiniteStateChannel) -> float:
    """Channel distance: max over (s_prev, x) of the L1 gap between joint rows."""
    if a.law.shape != b.law.shape:
        raise ShapeError(f"channel shapes differ: {a.law.shape} vs {b.law.shape}")
    return float(np.abs(a.law - b.law).sum(axis=(2, 3)).max())
