"""Shared generators and brute-force oracles for the test suite.

The oracles here deliberately use plain dict/loop enumeration so they stay
independent of the vectorized implementations they check, and import no
private name of ``fscfb``. Each is the one reference for its quantity:
``brute_nfold`` for the n-fold law, ``brute_indecomp_gap`` for the
state-memory gap and ``brute_certificate`` for the convergence certificate;
``brute_joint`` and ``brute_directed_info`` check the path tables of
``oracle.py``, the reference for the rate.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from fscfb import FiniteStateChannel, UnifilarChannel
from oracle import CausalPolicy, causal_policy


def rand_fsc(rng, s_size=2, x_size=2, y_size=2):
    law = rng.random((s_size, x_size, y_size, s_size))
    law /= law.sum(axis=(2, 3), keepdims=True)
    return FiniteStateChannel(law)


def single_state(w):
    """The memoryless channel w[x, y] as a unifilar channel of one state."""
    w = np.asarray(w, dtype=float)
    return UnifilarChannel(w[None, :, :], np.zeros((1,) + w.shape, dtype=int))


def rand_unifilar(rng, s_size=2, x_size=2, y_size=2):
    w = rng.random((s_size, x_size, y_size))
    w /= w.sum(axis=2, keepdims=True)
    f = rng.integers(0, s_size, size=(s_size, x_size, y_size))
    return UnifilarChannel(w, f)


def rand_policy(rng, x_size, y_size, horizon):
    steps = []
    for n in range(1, horizon + 1):
        t = rng.random(((x_size * y_size) ** (n - 1), x_size))
        t /= t.sum(axis=1, keepdims=True)
        steps.append(t)
    return CausalPolicy(horizon, x_size, y_size, tuple(steps))


def brute_nfold(law, x_seq, s0):
    """P^n(y^n, s_n | x^n, s_0) by summing every (y^n, s^n) path explicitly."""
    y_size, s_size = law.shape[2], law.shape[0]
    n = len(x_seq)
    out = {}
    for ys in itertools.product(range(y_size), repeat=n):
        for states in itertools.product(range(s_size), repeat=n):
            p = 1.0
            prev = s0
            for x, y, s in zip(x_seq, ys, states):
                p *= law[prev, x, y, s]
                prev = s
            key = ys + (states[-1],)
            out[key] = out.get(key, 0.0) + p
    return out


def brute_joint(u, s0, policy):
    """p(x^N, y^N | s_0) with axes x_1..x_N, y_1..y_N, one path at a time
    through the policy's history rows and the channel's state walk. A
    lattice policy is first expanded into its history rows."""
    if not isinstance(policy, CausalPolicy):
        policy = causal_policy(u, s0, policy)
    n_steps, x_size, y_size = policy.horizon, u.x_size, u.y_size
    joint = np.zeros((x_size,) * n_steps + (y_size,) * n_steps)
    for xs in itertools.product(range(x_size), repeat=n_steps):
        for ys in itertools.product(range(y_size), repeat=n_steps):
            p, s, h = 1.0, s0, 0
            for n in range(n_steps):
                p *= policy.steps[n][h, xs[n]] * u.w[s, xs[n], ys[n]]
                s = int(u.f[s, xs[n], ys[n]])
                h = h * x_size * y_size + xs[n] * y_size + ys[n]
            joint[xs + ys] = p
    return joint


def brute_directed_info(table, n_steps):
    """Conditional-MI sum by dictionary enumeration over all index tuples."""
    dims = table.shape
    total = 0.0
    for n in range(1, n_steps + 1):
        pxy, pxy_prev, py, py_prev = {}, {}, {}, {}
        for idx in itertools.product(*(range(d) for d in dims)):
            p = table[idx]
            if p == 0:
                continue
            xs = idx[:n]
            ys = idx[n_steps : n_steps + n]
            pxy[xs + ys] = pxy.get(xs + ys, 0.0) + p
            pxy_prev[xs + ys[:-1]] = pxy_prev.get(xs + ys[:-1], 0.0) + p
            py[ys] = py.get(ys, 0.0) + p
            py_prev[ys[:-1]] = py_prev.get(ys[:-1], 0.0) + p
        for key, p in pxy.items():
            xs, ys = key[:n], key[n:]
            total += p * np.log2(
                p * py_prev[ys[:-1]] / (pxy_prev[xs + ys[:-1]] * py[ys])
            )
    return total


def brute_indecomp_gap(c, n):
    """The state-memory gap after n steps, one input sequence at a time:
    max over x^n of the largest |q^n(s_n|x^n,s_0) - q^n(s_n|x^n,s_0')|."""
    t = c.law.sum(axis=2)
    gap = 0.0
    for x_seq in itertools.product(range(c.x_size), repeat=n):
        q = np.eye(c.s_size)  # rows: conditional state law per initial state
        for x in x_seq:
            q = q @ t[:, x, :]
        gap = max(gap, float(np.abs(q[:, None, :] - q[None, :, :]).max()))
    return gap


def brute_certificate(values):
    """The effective-convergence certificate by comparing every pair."""
    out = []
    for big_m in range(1, len(values) + 1):
        bound = Fraction(1, 2**big_m)
        ref = values[big_m - 1]
        out.append(all(abs(v - ref) < bound for v in values[big_m - 1 :]))
    return out


class CountingOracle:
    """An oracle that answers as ``inner`` does and counts the queries made of it."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = 0

    def halting_step(self, n, m):
        self.queries += 1
        return self.inner.halting_step(n, m)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
