"""Channel gallery: the two-state noiseless/Z switch family and its extensions.

All constructors build their tables in exact rational arithmetic and derive
the float channel from them, so files can echo the defining fractions
verbatim.

The shared next-state table routes (0,0) and (1,1) from state 0 back to 0
and the mismatched pairs to 1, while state 1 absorbs everything except
(1,0), which returns to 0:

    f[s'][x][y]     y=0  y=1
    s'=0, x=0        0    1
    s'=0, x=1        1    0
    s'=1, x=0        1    1
    s'=1, x=1        0    1
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .capacity import MAX_JOINT_ENTRIES
from .channel_io import LoadedChannel, as_fraction
from .channels import UnifilarChannel
from .errors import BIT_BUDGET, DomainError, check_at_least, check_budget, describe_int

_HALF = Fraction(1, 2)

# f[s'][x][y] for the two-state family
BASE_F = ((0, 1), (1, 0)), ((1, 1), (0, 1))


def _make(exact_w, f, label, params) -> LoadedChannel:
    channel = UnifilarChannel(np.array(exact_w, dtype=float), np.array(f))
    return LoadedChannel("unifilar", channel, label=label, params=dict(params), exact_w=exact_w)


def _switch_pair(eps, mix: Fraction, label: str, /, **params) -> LoadedChannel:
    """The switch pair at (eps, mix). eps is checked here, and leads the
    recorded params, so a file lists it first."""
    eps = as_fraction(eps)
    if not 0 < eps < _HALF:
        raise DomainError(f"{describe_int('eps', eps, ' = ')} outside (0, 1/2)")
    one = Fraction(1)
    w = [
        [[one - mix, mix], [mix, one - mix]],
        [[one - eps, eps], [mix, one - mix]],
    ]
    return _make(w, BASE_F, label, {"eps": eps, **params})


def noiseless_z_pair(eps) -> LoadedChannel:
    """Two states: an identity channel and a Z-channel with flip probability eps.

    With the shared next-state table each state is absorbing on its own
    support, so the initial state is never forgotten.
    """
    return _switch_pair(eps, Fraction(0), "noiseless-z")


def mixing_pair(eps, mix) -> LoadedChannel:
    """The switch family with symmetric noise ``mix`` stirring the two states.

    mix = 0 degenerates to the noiseless/Z pair; any mix > 0 makes the
    channel strongly connected.
    """
    mix = as_fraction(mix)
    if not 0 <= mix <= _HALF:
        raise DomainError(f"{describe_int('mix', mix, ' = ')} outside [0, 1/2]")
    return _switch_pair(eps, mix, "mixing", mix=mix)


def inverse_k_pair(eps, k: int) -> LoadedChannel:
    """The mixing channel at mix = 1/k; distance 2/k from the noiseless/Z pair."""
    k = int(k)
    check_at_least("k", k, 1, DomainError)
    return _switch_pair(eps, Fraction(1, k), "inverse-k", k=k)


def extend_alphabets(g: LoadedChannel, x_size: int, y_size: int) -> LoadedChannel:
    """Grow the input/output alphabets with inert symbols.

    New output symbols never occur (probability zero under every input) and
    new input symbols replay input 0's output law; every pair involving a
    new symbol freezes the state. No policy can extract anything from the
    added symbols, so rates and the support graph's verdicts are unchanged.
    Over ``MAX_JOINT_ENTRIES`` entries, a horizon-1 lattice's, are refused.
    """
    x_size, y_size = int(x_size), int(y_size)
    s_size, old_x, old_y = g.channel.w.shape
    check_at_least("x_size", x_size, old_x, DomainError)  # alphabets only grow
    check_at_least("y_size", y_size, old_y, DomainError)
    check_budget("x_size * y_size", x_size * y_size, lambda xy: s_size * xy,
                 MAX_JOINT_ENTRIES, "table entries")
    exact_w = g.exact_table()
    zero = Fraction(0)
    w = [
        [[zero] * y_size for _ in range(x_size)]
        for _ in range(s_size)
    ]
    f = [[[sp] * y_size for _ in range(x_size)] for sp in range(s_size)]
    for sp in range(s_size):
        for x in range(x_size):
            src = x if x < old_x else 0
            for y in range(old_y):
                w[sp][x][y] = exact_w[sp][src][y]
            if x < old_x:
                for y in range(old_y):
                    f[sp][x][y] = int(g.channel.f[sp, x, y])
            # pairs with a new input or a new output keep f = s'
    params = dict(g.params)
    params.update({"x_size": x_size, "y_size": y_size})
    return _make(w, f, g.label, params)


def extend_states(g: LoadedChannel, s_size: int) -> LoadedChannel:
    """Append states 2..s_size-1 as increasingly noisy Z-channels.

    State s >= 2 flips input 0 with probability delta_s = eps + (1/2 - eps)^(s-1),
    strictly noisier than state 1 and at most 1/2. The next-state table
    chains the new states: state 0's (0,1) pair now enters state 2,
    intermediate states advance on (0,1) and fall back to 0 on any other
    supported pair, zero-probability pairs freeze, and the last state sends
    every supported pair back to 0. Over ``BIT_BUDGET`` denominator bits, about
    log2(b) s_size^2 / 2 for 1/2 - eps = a/b, or ``MAX_JOINT_ENTRIES`` table
    entries, as for ``extend_alphabets``, are refused before any table.
    """
    s_size = int(s_size)
    check_at_least("state count", s_size, 2, DomainError)
    if g.channel.s_size != 2:
        raise DomainError("state extension starts from the two-state family")
    eps = g.params.get("eps")
    if eps is None:
        raise DomainError("base channel does not record its eps parameter")
    eps = as_fraction(eps)
    step = (_HALF - eps).denominator.bit_length()
    check_budget("s_size", s_size, lambda s: step * s * s // 2, BIT_BUDGET, "denominator bits")
    _, x_size, y_size = g.channel.w.shape
    check_budget("s_size", s_size, lambda s: s * x_size * y_size, MAX_JOINT_ENTRIES,
                 "table entries")
    if s_size == 2:
        return g

    zero, one = Fraction(0), Fraction(1)
    w = [[list(row) for row in state] for state in g.exact_table()]
    f = [[[int(v) for v in row] for row in state] for state in np.asarray(g.channel.f)]
    # state 0's (x, y) = (0, 1) pair now opens the chain of new states
    f[0][0][1] = 2

    for s in range(2, s_size):
        delta = eps + (_HALF - eps) ** (s - 1)
        w_s = [[zero] * y_size for _ in range(x_size)]
        w_s[0][0] = one - delta
        w_s[0][1] = delta
        w_s[1][1] = one
        for x in range(2, x_size):
            w_s[x] = list(w_s[0])  # inert extra inputs replay input 0
        last = s == s_size - 1
        f_s = [[s] * y_size for _ in range(x_size)]
        for x in range(2):
            for y in range(y_size):
                if w_s[x][y] == 0:
                    continue  # unsupported pairs freeze in place
                if not last and (x, y) == (0, 1):
                    f_s[x][y] = s + 1
                else:
                    f_s[x][y] = 0
        # pairs with inert extra inputs freeze, like the alphabet extension
        w.append(w_s)
        f.append(f_s)

    params = dict(g.params)
    params["s_size"] = s_size
    return _make(w, f, g.label, params)
