"""Seeded inputs and CLI invocations of the fscfb benchmark workloads.

A workload seed selects one of ``POOL`` input variants (seed % POOL). Each
variant fixes a random unifilar channel with exact fraction entries, the
parameters of the gallery channels, the counter-machine input and the
optimizer ``--seed``; ``reference/<workload>.json`` holds the outputs the
program gave for every variant when the benchmark was defined.

Run as a script, this module builds one workload's input files and loads
them back, which is the set-up a CLI user pays before the first solve:

    python3 bench/workloads.py <workload> <variant> <workdir>
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The shallow sweeps and the wide cells share one workload: with two
# workloads each run can measure for a minute within the time all runs may
# take, and the shared host's speed drifts over tens of seconds.
WORKLOADS = ("solve", "structure")
POOL = 32

# Every channel the workloads solve has a binary output alphabet, so no
# reported rate may exceed log2|Y| = 1 bit per channel use.
RATE_MAX = 1.0

# Halts on even inputs only. Workload inputs are odd, so every oracle query
# runs for its whole step budget and lambda-seq costs the same for every seed.
PARITY_PROGRAM = """\
# halts iff r0 is even
jz r0 6
dec r0
jz r0 5
dec r0
jmp 0
jmp 5
halt
"""


@dataclass(frozen=True)
class Sizes:
    sweep_n: int      # horizon of the shallow sweeps and of the discontinuity demo
    sweep_cap: int    # --max-iters for the random channel's sweep
    deep_n: int       # horizon of the wide cells
    deep_cap: int     # --max-iters for the wide cells
    di_n: int         # directed-info horizon
    gap_n: int        # indecomp sweep horizon
    m_max: int        # lambda-seq length


# The wide cells run N=5 (1024 paths), not the guard's N=6 (4096): at N=6 the
# path tables outgrow the per-core caches, and on a shared host their time
# then follows the neighbours' load. Over five seeds, in runs interleaved on
# one host, a pass of these cells spread 23% (interquartile) at N=6 and 9% at N=5.
FULL = Sizes(sweep_n=2, sweep_cap=500, deep_n=5, deep_cap=2000, di_n=10, gap_n=12, m_max=200)
TINY = Sizes(sweep_n=1, sweep_cap=20, deep_n=2, deep_cap=20, di_n=2, gap_n=3, m_max=8)


@dataclass(frozen=True)
class Variant:
    opt_seed: int
    random_w: tuple   # [s][x] -> (p(y=0), p(y=1)) as Fractions
    random_f: tuple   # [s][x][y] -> next state
    eps: Fraction
    mix: Fraction
    k: int
    ext_x: int
    ext_y: int
    ext_s: int
    machine_input: int


def draw(variant: int) -> Variant:
    rng = random.Random(f"fscfb-bench-{variant}")
    w = []
    for _ in range(2):
        row = []
        for _ in range(2):
            q = rng.randint(3, 8)
            a = rng.randint(1, q - 1)
            row.append((Fraction(a, q), Fraction(q - a, q)))
        w.append(tuple(row))
    # f(s, x, y) = x ^ h(s, y): the input moves the state from every state and
    # output, as in the trapdoor channel. Channels whose state ignores the
    # input can have an interior optimum that the ascent reaches in under 100
    # iterations; in this family every variant's wide cell runs to the
    # iteration cap, so the cost of a pass does not depend on the seed.
    h = [[rng.randint(0, 1) for _ in range(2)] for _ in range(2)]
    f = tuple(
        tuple(tuple(x ^ h[s][y] for y in range(2)) for x in range(2)) for s in range(2)
    )
    return Variant(
        opt_seed=rng.randrange(2**31),
        random_w=tuple(w),
        random_f=f,
        eps=rng.choice([Fraction(1, 8), Fraction(1, 6), Fraction(1, 5), Fraction(1, 4),
                        Fraction(1, 3), Fraction(3, 8)]),
        mix=rng.choice([Fraction(0), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)]),
        k=rng.choice([2, 4, 8, 16, 32]),
        ext_x=rng.randint(3, 4),
        ext_y=rng.randint(3, 4),
        ext_s=rng.randint(3, 6),
        machine_input=rng.randrange(1, 1000, 2),
    )


def _exact_unifilar(exact_w, f):
    import numpy as np

    from fscfb.channel_io import LoadedChannel
    from fscfb.channels import UnifilarChannel

    floats = np.array([[[float(p) for p in row] for row in state] for state in exact_w])
    return LoadedChannel("unifilar", UnifilarChannel(floats, np.array(f)), exact_w=exact_w)


def _trapdoor():
    # the state is the ball left behind: f = s ^ x ^ y; equal inputs pass
    # through, unequal ones emit either ball with probability 1/2
    half, one, zero = Fraction(1, 2), Fraction(1), Fraction(0)
    exact_w = (
        ((one, zero), (half, half)),
        ((half, half), (zero, one)),
    )
    f = tuple(
        tuple(tuple(s ^ x ^ y for y in range(2)) for x in range(2)) for s in range(2)
    )
    return _exact_unifilar(exact_w, f)


def prepare(workload: str, variant: int, workdir: Path) -> None:
    """Write the workload's input files, then load every channel file back."""
    from fscfb import channel_io, gallery

    v = draw(variant)
    workdir.mkdir(parents=True, exist_ok=True)
    channels = {"random.json": _exact_unifilar(v.random_w, v.random_f)}
    if workload == "solve":
        channels["mixing.json"] = gallery.mixing_pair("1/4", "1/8")
    channels["trapdoor.json"] = _trapdoor()
    if workload == "structure":
        channels["extended.json"] = gallery.extend_states(gallery.mixing_pair(v.eps, v.mix), 6)
        (workdir / "parity.cm").write_text(PARITY_PROGRAM)
    for name, obj in channels.items():
        (workdir / name).write_text(channel_io.dumps_channel(obj))
    for name in channels:
        channel_io.load_channel(workdir / name)


@dataclass(frozen=True)
class Op:
    name: str     # stable label; the key of the op's reference entry
    argv: tuple   # arguments to fscfb.cli.main


def ops(workload: str, variant: int, workdir: Path, sizes: Sizes = FULL) -> list:
    """The CLI invocations of one pass over the workload."""
    v = draw(variant)
    fmt = ("--format", "json")
    seed = ("--seed", str(v.opt_seed))

    def path(name):
        return str(workdir / name)

    if workload == "solve":
        # shallow horizons over many cells, where per-cell costs and the
        # ascent's step logic dominate and path tables hold at most 16 paths
        cells = ("--all-states", "--sweep-n", "--n", str(sizes.sweep_n), "--restarts", "1")
        # one cell each at a wide horizon: the path-table kernel, the
        # finite-difference check and the dense re-evaluation
        cell = ("--n", str(sizes.deep_n), "--s0", "0", "--restarts", "1",
                "--max-iters", str(sizes.deep_cap))
        return [
            Op("sweep-mixing", ("capacity", path("mixing.json"), *cells, *seed, *fmt)),
            # the random channel's stall point ranges over two orders of
            # magnitude between seeds; the cap keeps its cost nearly fixed
            Op("sweep-random", ("capacity", path("random.json"), *cells,
                                "--max-iters", str(sizes.sweep_cap), *seed, *fmt)),
            Op("discontinuity-demo", ("discontinuity-demo", "--eps", "1/4", "--k-list", "4,16",
                                      "--n", str(sizes.sweep_n), "--restarts", "1", *seed, *fmt)),
            *(Op(f"deep-{name}", ("capacity", path(f"{name}.json"), *cell, *seed, *fmt))
              for name in ("trapdoor", "random")),
        ]
    if workload != "structure":
        raise ValueError(f"unknown workload {workload!r}")
    gallery_args = {
        "noiseless-z": ("--eps", str(v.eps)),
        "mixing": ("--eps", str(v.eps), "--mix", str(v.mix)),
        "inverse-k": ("--eps", str(v.eps), "--k", str(v.k)),
        "extend-alphabets": ("--eps", str(v.eps), "--mix", str(v.mix),
                             "--x", str(v.ext_x), "--y", str(v.ext_y)),
        "extend-states": ("--eps", str(v.eps), "--mix", str(v.mix), "--s", str(v.ext_s)),
    }
    out = [
        Op(f"gallery-{name}", ("gallery", name, *args, "--out", path(f"gallery-{name}.json"), *fmt))
        for name, args in gallery_args.items()
    ]
    out += [
        Op("validate-extended", ("validate", path("extended.json"), *fmt)),
        Op("indecomp-extended", ("indecomp", path("extended.json"), "--n", str(sizes.gap_n),
                                 "--sweep-n", *fmt)),
        Op("connectivity-extended", ("connectivity", path("extended.json"), *fmt)),
        Op("connectivity-random", ("connectivity", path("random.json"), *fmt)),
    ]
    out += [
        Op(f"dmc-capacity-{name}-s{s}", ("dmc-capacity", path(f"{name}.json"), "--s0", str(s), *fmt))
        for name, states in (("extended", 6), ("random", 2))
        for s in range(states)
    ]
    out += [
        Op(f"directed-info-{name}", ("directed-info", path(f"{name}.json"), "--n", str(sizes.di_n),
                                     "--s0", "0", *fmt))
        for name in ("trapdoor", "random")
    ]
    out.append(Op("lambda-seq-parity", ("lambda-seq", "--program", path("parity.cm"),
                                        "--input", str(v.machine_input),
                                        "--m-max", str(sizes.m_max), *fmt)))
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
