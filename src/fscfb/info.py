"""Exact entropic quantities on finite joint distributions.

Joint laws over (x^N, y^N) are dense tables with the N input axes first and
the N output axes last. Causal kernels hold one conditional table per step:
an input kernel factors p(x^N || y^{N-1}) = prod_n p(x_n | x^{n-1}, y^{n-1}),
an output kernel factors p(y^N || x^N) = prod_n p(y_n | y^{n-1}, x^n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    DomainError,
    FscError,
    ResourceLimitError,
    ShapeError,
    ValidationError,
)

JOINT_SUM_TOL = 1e-10
KERNEL_ROW_TOL = 1e-12
CROSS_CHECK_TOL = 1e-9
MAX_JOINT_ENTRIES = 4**10  # dense-joint guard; N <= 10 for binary alphabets

INPUTS = "inputs"    # p(x_n | x^{n-1}, y^{n-1}): sees strictly prior outputs
OUTPUTS = "outputs"  # p(y_n | y^{n-1}, x^n): sees the current input


def binary_entropy(p: float) -> float:
    """H2(p) in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


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
        if np.any(table < 0):
            raise ValidationError("joint law has negative entries")
        total = table.sum()
        if abs(total - 1.0) > JOINT_SUM_TOL:
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
            if np.any(np.abs(sums - 1.0) > KERNEL_ROW_TOL):
                bad = np.argwhere(np.abs(sums - 1.0) > KERNEL_ROW_TOL)[0]
                raise ValidationError(
                    f"step {n} conditional at history {tuple(int(i) for i in bad)} "
                    f"sums to {sums[tuple(bad)]:.17g}"
                )
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
        mask = a > 0
        # p(x^n,y^n) p(y^{n-1}) / (p(x^n,y^{n-1}) p(y^n)) as a quotient of two
        # conditionals in (0, 1] where a > 0: the products a*d and b*c
        # underflow to 0/0 once a history's probability nears 1e-160
        y_cond = np.divide(c, d, out=np.ones_like(c), where=d > 0)
        ratio = np.ones_like(a)
        np.divide(a, b, out=ratio, where=mask)
        np.divide(ratio, y_cond, out=ratio, where=mask)
        total += float((a[mask] * np.log2(ratio[mask])).sum())
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
