import itertools
import time
import tracemalloc

import numpy as np
import pytest

from fscfb import (
    FiniteStateChannel,
    ResourceLimitError,
    ShapeError,
    UnifilarChannel,
    ValidationError,
    compose_unifilar,
    extend_alphabets,
    extend_states,
    indecomposability_gaps,
    mixing_pair,
    noiseless_z_pair,
    strongly_connected,
    tv_distance,
)
import fscfb.channels
from conftest import brute_indecomp_gap, rand_fsc


EPS = 0.25


def test_unifilar_validation_names_bad_row():
    w = np.full((2, 2, 2), 0.5)
    w[1, 0] = [0.6, 0.3]  # sums to 0.9
    f = np.zeros((2, 2, 2), dtype=int)
    with pytest.raises(ValidationError, match=r"s_prev=1, x=0"):
        UnifilarChannel(w, f)


def test_unifilar_validation_rejects_bad_states():
    w = np.full((2, 2, 2), 0.5)
    f = np.zeros((2, 2, 2), dtype=int)
    f[0, 1, 1] = 2
    with pytest.raises(ValidationError, match="outside"):
        UnifilarChannel(w, f)


def test_unifilar_validation_names_the_first_bad_entry():
    # the whole-table checks pass a good table; a bad one is named by its first entry
    w = np.full((2, 2, 2), 0.5)
    w[1, 1] = [np.nan, 0.5]
    f = np.zeros((2, 2, 2), dtype=int)
    with pytest.raises(ValidationError, match=r"^w entry \(1, 1, 0\) = nan outside \[0, 1\]$"):
        UnifilarChannel(w, f)
    w[1, 1] = 0.5
    f[1, 0, 1], f[1, 1, 1] = -1, 2
    with pytest.raises(ValidationError, match=r"^f entry \(1, 0, 1\) = -1 outside 0\.\.1$"):
        UnifilarChannel(w, f)


def test_fsc_validation():
    law = np.zeros((2, 2, 2, 2))
    law[:, :, 0, 0] = 1.0
    c = FiniteStateChannel(law)
    assert (c.s_size, c.x_size, c.y_size) == (2, 2, 2)
    with pytest.raises(ShapeError):
        FiniteStateChannel(np.ones((2, 2, 2)))
    law[0, 0, 0, 0] = 0.5
    with pytest.raises(ValidationError, match=r"s_prev=0, x=0"):
        FiniteStateChannel(law)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda t: UnifilarChannel(np.full((1, 2, 2), t), np.zeros((1, 2, 2), dtype=int)),
        lambda t: FiniteStateChannel(np.full((1, 2, 2, 1), t)),
    ],
    ids=["unifilar", "general"],
)
def test_validation_rejects_non_finite_entries(build, bad):
    with pytest.raises(ValidationError):
        build(bad)


def test_channels_are_immutable():
    g = noiseless_z_pair(EPS)
    with pytest.raises(ValueError):
        g.channel.w[0, 0, 0] = 0.3
    with pytest.raises(ValueError):
        compose_unifilar(g.channel).law[0, 0, 0, 0] = 0.3


def test_compose_unifilar_entries():
    u = noiseless_z_pair(EPS).channel
    law = compose_unifilar(u).law
    assert law[0, 0, 0, 0] == 1.0  # noiseless state keeps itself on (0, 0)
    assert law[1, 0, 1, 1] == EPS  # Z-state flip lands where f says
    # indicator structure: anything off f's target is zero
    for sp, x, y in itertools.product(range(2), repeat=3):
        target = u.f[sp, x, y]
        for s in range(2):
            if s != target:
                assert law[sp, x, y, s] == 0.0


def test_compose_rows_inherit_stochasticity(rng):
    for _ in range(20):
        w = rng.random((3, 2, 2))
        w /= w.sum(axis=2, keepdims=True)
        f = rng.integers(0, 3, size=(3, 2, 2))
        u = UnifilarChannel(w, f)
        law = compose_unifilar(u).law
        # composing only relocates mass, so the row sums match bit for bit
        assert np.array_equal(law.sum(axis=(2, 3)), u.w.sum(axis=2))


def test_indecomposability_gap_single_state():
    law = np.zeros((1, 2, 2, 1))
    law[:, :, 0, 0] = 0.25
    law[:, :, 1, 0] = 0.75
    c = FiniteStateChannel(law)
    for n in (1, 3, 5):
        assert indecomposability_gaps(c, n)[-1] == 0.0


def test_indecomposability_gap_frozen_states():
    c = compose_unifilar(noiseless_z_pair(EPS).channel)
    for n in (1, 4, 8):
        assert indecomposability_gaps(c, n)[-1] == 1.0  # states never mix


def test_indecomposability_gap_decays_when_mixing():
    c = compose_unifilar(mixing_pair(EPS, 0.25).channel)
    assert indecomposability_gaps(c, 8)[-1] < indecomposability_gaps(c, 2)[-1]


def test_indecomposability_gap_range(rng):
    for _ in range(10):
        c = rand_fsc(rng, s_size=3)
        g = indecomposability_gaps(c, 3)[-1]
        assert 0.0 <= g <= 2.0


def test_indecomposability_budget():
    # binary two-state: 2^22 * 2^2 entries are over the budget of 10^7
    c = compose_unifilar(noiseless_z_pair(EPS).channel)
    refusal = "^horizon 22 needs 16777216 sweep entries, over the limit of 10000000$"
    with pytest.raises(ResourceLimitError, match=refusal) as err:
        indecomposability_gaps(c, 22)
    assert err.value.limit == fscfb.channels.INDECOMP_BUDGET


@pytest.mark.parametrize("n", [20_000, 10**7])
def test_indecomposability_refuses_huge_horizons_without_forming_the_count(n):
    # 3^20000 has over 4,300 digits, too many to print, and 3^(10^7) takes
    # seconds to form; the horizon alone is over the budget
    c = extend_alphabets(mixing_pair(EPS, 0.25), 3, 3).as_general()
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"horizon {n} needs at least .* sweep entries") as err:
        indecomposability_gaps(c, n)
    assert err.value.limit == fscfb.channels.INDECOMP_BUDGET
    assert time.perf_counter() - start < 1.0


# a 64-float block sends every level past the first few through the prefix
# sweep; a 1-float block leaves one level per prefix (deep = 1), so every
# level after the first goes prefix by prefix
GAP_BLOCKS = pytest.mark.parametrize(
    "block", [fscfb.channels._GAP_BLOCK, 64, 1], ids=["one-pass", "prefixes", "one-level-prefixes"])


@GAP_BLOCKS
def test_indecomposability_gaps_equal_the_per_sequence_loop(rng, monkeypatch, block):
    monkeypatch.setattr(fscfb.channels, "_GAP_BLOCK", block)
    for _ in range(12):
        x_size = int(rng.integers(1, 4))
        c = rand_fsc(rng, s_size=int(rng.integers(1, 5)), x_size=x_size,
                     y_size=int(rng.integers(1, 4)))
        n = 8 if x_size < 3 else 5
        gaps = indecomposability_gaps(c, n)
        assert gaps == [brute_indecomp_gap(c, k) for k in range(1, n + 1)]


@GAP_BLOCKS
@pytest.mark.parametrize("s_size, x_size", [(3, 1), (1, 3)], ids=["one-input", "one-state"])
def test_indecomposability_gaps_on_a_single_input_or_state(rng, monkeypatch, block, s_size, x_size):
    monkeypatch.setattr(fscfb.channels, "_GAP_BLOCK", block)
    c = rand_fsc(rng, s_size=s_size, x_size=x_size, y_size=2)
    gaps = indecomposability_gaps(c, 10)
    assert gaps == [brute_indecomp_gap(c, k) for k in range(1, 11)]


def test_indecomposability_gaps_on_the_extended_mixing_channel(monkeypatch):
    # the shape of the benchmark's indecomp op: 6 states, binary input, n = 12
    c = extend_states(mixing_pair("1/4", "1/8"), 6).as_general()
    brute = [brute_indecomp_gap(c, k) for k in range(1, 13)]
    for block in (fscfb.channels._GAP_BLOCK, 64, 1):
        monkeypatch.setattr(fscfb.channels, "_GAP_BLOCK", block)
        assert indecomposability_gaps(c, 12) == brute


@pytest.mark.parametrize("n", [0, -1])
def test_indecomposability_gap_rejects_horizons_below_one(n):
    c = compose_unifilar(noiseless_z_pair(EPS).channel)
    with pytest.raises(ValidationError):
        indecomposability_gaps(c, n)


def test_indecomposability_sweep_memory_is_bounded(rng):
    # 2 inputs, 6 states: n = 18 is the deepest sweep the budget admits
    c = rand_fsc(rng, s_size=6, x_size=2)
    with pytest.raises(ResourceLimitError):
        indecomposability_gaps(c, 19)
    tracemalloc.start()
    try:
        gaps = indecomposability_gaps(c, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gaps) == 18 and 0.0 <= gaps[-1] <= gaps[0]
    assert peak < 32 * 2**20


def test_strongly_connected_verdicts():
    frozen = compose_unifilar(noiseless_z_pair(EPS).channel)
    rep = strongly_connected(frozen)
    assert not rep.connected and rep.witness == (1, 0)

    mixing = compose_unifilar(mixing_pair(EPS, 0.25).channel)
    rep = strongly_connected(mixing)
    assert rep.connected and rep.witness is None and rep.max_hops == 1

    law = np.zeros((1, 2, 2, 1))
    law[:, :, 0, 0] = 1.0
    assert strongly_connected(FiniteStateChannel(law)).connected


def test_strongly_connected_label_invariance(rng):
    for _ in range(20):
        c = rand_fsc(rng, s_size=3)
        base = strongly_connected(c).connected
        perm_x = rng.permutation(2)
        perm_y = rng.permutation(2)
        relabeled = FiniteStateChannel(c.law[:, perm_x][:, :, perm_y])
        assert strongly_connected(relabeled).connected == base


def test_tv_distance_identity_and_mismatch():
    a = compose_unifilar(noiseless_z_pair(EPS).channel)
    assert tv_distance(a, a) == 0.0
    law = np.zeros((1, 2, 2, 1))
    law[:, :, 0, 0] = 1.0
    with pytest.raises(ShapeError):
        tv_distance(a, FiniteStateChannel(law))


def test_tv_distance_is_a_metric(rng):
    chans = [rand_fsc(rng) for _ in range(6)]
    for a in chans:
        for b in chans:
            dab = tv_distance(a, b)
            assert dab == tv_distance(b, a)
            assert dab >= 0.0
            if a is b:
                assert dab == 0.0
    for a, b, c in itertools.permutations(chans[:4], 3):
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-15


def test_tv_distance_separates_distinct_channels(rng):
    a = rand_fsc(rng)
    law = a.law.copy()
    law[0, 0] = law[0, 0][::-1]  # swap two output rows
    b = FiniteStateChannel(law)
    if not np.array_equal(a.law, b.law):
        assert tv_distance(a, b) > 0.0
