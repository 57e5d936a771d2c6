import hashlib
import json
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fscfb import (
    DomainError,
    LoadedChannel,
    OptimizerSettings,
    ResourceLimitError,
    compose_unifilar,
    dumps_channel,
    extend_alphabets,
    extend_states,
    inverse_k_pair,
    loads_channel,
    mixing_pair,
    noiseless_z_pair,
    optimize_rate,
    strongly_connected,
    tv_distance,
)
from fscfb.capacity import MAX_JOINT_ENTRIES
from fscfb.errors import BIT_BUDGET

HALF = Fraction(1, 2)
FAST = OptimizerSettings()


def exact_equal(a, b):
    return a.exact_w == b.exact_w and np.array_equal(a.channel.f, b.channel.f)


def test_noiseless_z_tables():
    g = noiseless_z_pair("1/4")
    assert g.exact_w[0] == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert g.exact_w[1] == ((Fraction(3, 4), Fraction(1, 4)), (Fraction(0), Fraction(1)))
    f = np.asarray(g.channel.f)
    # state 0: matched pairs self-loop, mismatched pairs leave
    assert f[0, 0, 0] == 0 and f[0, 1, 1] == 0
    assert f[0, 0, 1] == 1 and f[0, 1, 0] == 1
    # state 1: only (1, 0) escapes
    assert f[1, 0, 0] == 1 and f[1, 0, 1] == 1 and f[1, 1, 1] == 1
    assert f[1, 1, 0] == 0
    # floats mirror the exact tables entry by entry
    assert np.array_equal(
        g.channel.w, np.array([[list(map(float, r)) for r in s] for s in g.exact_w])
    )


def test_noiseless_z_is_not_connected():
    g = noiseless_z_pair("1/4")
    rep = strongly_connected(compose_unifilar(g.channel))
    assert not rep.connected and rep.witness == (1, 0)


@pytest.mark.parametrize("eps", ["0", "1/2", "-1/4", "3/5"])
def test_noiseless_z_domain(eps):
    with pytest.raises(DomainError):
        noiseless_z_pair(eps)


def test_mixing_pair_tables():
    g = mixing_pair("1/4", "1/8")
    assert g.exact_w[0] == (
        (Fraction(7, 8), Fraction(1, 8)),
        (Fraction(1, 8), Fraction(7, 8)),
    )
    assert g.exact_w[1] == (
        (Fraction(3, 4), Fraction(1, 4)),
        (Fraction(1, 8), Fraction(7, 8)),
    )


def test_mixing_zero_degenerates_to_noiseless_z():
    assert exact_equal(mixing_pair("1/4", 0), noiseless_z_pair("1/4"))


@pytest.mark.parametrize("mix", ["-1/8", "3/4", "2/3"])
def test_mixing_domain(mix):
    with pytest.raises(DomainError):
        mixing_pair("1/4", mix)


@pytest.mark.parametrize("mix", ["1/8", "1/4", "1/2"])
def test_mixing_is_strongly_connected(mix):
    g = mixing_pair("1/4", mix)
    assert strongly_connected(compose_unifilar(g.channel)).connected


def test_inverse_k_matches_mixing():
    assert exact_equal(inverse_k_pair("1/4", 2), mixing_pair("1/4", "1/2"))
    with pytest.raises(DomainError):
        inverse_k_pair("1/4", 0)
    # k = 1 pushes the mix to 1, still a valid strongly connected channel
    g1 = inverse_k_pair("1/4", 1)
    assert strongly_connected(compose_unifilar(g1.channel)).connected


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 64])
def test_inverse_k_distance(k):
    base = compose_unifilar(mixing_pair("1/4", 0).channel)
    gk = compose_unifilar(inverse_k_pair("1/4", k).channel)
    assert tv_distance(base, gk) == pytest.approx(2.0 / k, abs=1e-15)


def test_family_distance_is_linear_in_mix():
    a = compose_unifilar(mixing_pair("1/4", "1/8").channel)
    b = compose_unifilar(mixing_pair("1/4", "3/8").channel)
    assert tv_distance(a, b) == pytest.approx(2 * abs(1 / 8 - 3 / 8), abs=1e-15)


def test_extend_alphabets_identity():
    g = mixing_pair("1/4", "1/4")
    same = extend_alphabets(g, 2, 2)
    assert exact_equal(g, same)
    with pytest.raises(DomainError):
        extend_alphabets(g, 1, 2)


def test_extend_alphabets_structure():
    g = extend_alphabets(mixing_pair("1/4", "1/4"), 4, 3)
    assert (g.channel.x_size, g.channel.y_size, g.channel.s_size) == (4, 3, 2)
    w = g.channel.w
    f = np.asarray(g.channel.f)
    # new outputs carry no mass
    assert np.all(w[:, :, 2] == 0.0)
    # new inputs replay input 0's law on the old outputs
    assert np.array_equal(w[:, 2, :2], w[:, 0, :2])
    assert np.array_equal(w[:, 3, :2], w[:, 0, :2])
    # pairs involving a new symbol freeze the state
    for sp in range(2):
        assert np.all(f[sp, 2:, :] == sp)
        assert np.all(f[sp, :, 2:] == sp)
    compose_unifilar(g.channel)  # passes validation


@pytest.mark.parametrize("mix", [0, "1/4"])
def test_extend_alphabets_preserves_connectivity(mix):
    base = mixing_pair("1/4", mix)
    ext = extend_alphabets(base, 3, 3)
    assert (
        strongly_connected(compose_unifilar(ext.channel)).connected
        == strongly_connected(compose_unifilar(base.channel)).connected
    )


@pytest.mark.parametrize("mix", [0, "1/4"])
def test_extend_alphabets_preserves_rates(mix):
    base = mixing_pair("1/4", mix)
    ext = extend_alphabets(base, 3, 3)
    for s0 in (0, 1):
        a = optimize_rate(base.channel, s0, 2, FAST)
        b = optimize_rate(ext.channel, s0, 2, FAST)
        assert b.value == pytest.approx(a.value, abs=1e-6)


def test_extend_states_noise_values():
    g = extend_states(mixing_pair("1/4", "1/4"), 8)
    # appended state s flips input 0 with delta_s = eps + (1/2 - eps)^(s-1)
    assert g.exact_w[2][0][1] == Fraction(1, 2)
    assert g.exact_w[3][0][1] == Fraction(5, 16)
    for s in range(2, 8):
        d = g.exact_w[s][0][1]
        assert Fraction(1, 4) < d <= HALF


def test_extend_states_three_state_structure():
    g = extend_states(mixing_pair("1/4", "1/4"), 3)
    assert g.channel.s_size == 3
    f = np.asarray(g.channel.f)
    w = g.channel.w
    # state 0 now opens the chain on (0, 1)
    assert f[0, 0, 1] == 2
    # appended state: Z-channel with delta_2 = 1/2
    assert w[2, 0, 0] == 0.5 and w[2, 0, 1] == 0.5
    assert w[2, 1, 0] == 0.0 and w[2, 1, 1] == 1.0
    # last state: supported pairs return to 0, the dead (1, 0) pair self-loops
    assert f[2, 0, 0] == 0 and f[2, 0, 1] == 0 and f[2, 1, 1] == 0
    assert f[2, 1, 0] == 2
    # states 1 keeps the base behaviour
    assert f[1, 0, 1] == 1 and f[1, 1, 0] == 0


def test_extend_states_chain_advances():
    g = extend_states(mixing_pair("1/4", "1/4"), 4)
    f = np.asarray(g.channel.f)
    # intermediate state 2 advances on (0, 1) and returns otherwise
    assert f[2, 0, 1] == 3
    assert f[2, 0, 0] == 0 and f[2, 1, 1] == 0
    assert f[2, 1, 0] == 2
    # final state 3 routes all supported pairs home
    assert f[3, 0, 0] == 0 and f[3, 0, 1] == 0 and f[3, 1, 1] == 0
    assert f[3, 1, 0] == 3


@pytest.mark.parametrize("s_size", [3, 4, 5])
def test_extend_states_connectivity(s_size):
    g = extend_states(mixing_pair("1/4", "1/4"), s_size)
    law = compose_unifilar(g.channel)  # also validates stochasticity
    assert strongly_connected(law).connected


def test_extend_states_guards():
    with pytest.raises(DomainError):
        extend_states(mixing_pair("1/4", "1/4"), 1)
    with pytest.raises(DomainError):
        extend_states(extend_states(mixing_pair("1/4", "1/4"), 3), 4)


@pytest.mark.parametrize("build, limit", [
    (lambda g: extend_states(g, 10**5000), BIT_BUDGET),
    (lambda g: extend_states(g, 10**6), BIT_BUDGET),
    (lambda g: extend_alphabets(g, 10**6, 10**6), MAX_JOINT_ENTRIES),
], ids=["states-huge", "states", "alphabets"])
def test_extensions_over_their_budget_are_refused_before_any_table_is_built(build, limit):
    g = mixing_pair("1/4", "1/4")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="needs at least") as err:
            build(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.limit == limit
    assert time.perf_counter() - start < 1.0
    assert peak < 100_000


def test_extension_budgets_at_their_edge():
    def refused(build, message):
        with pytest.raises(ResourceLimitError, match=f"^{message}, over the limit of "):
            build()

    # 1/2 - 1/4 = 1/4 has a 3-bit denominator: s states cost 3 s^2 / 2 bits
    g = mixing_pair("1/4", "1/4")
    assert extend_states(g, 2581).channel.s_size == 2581
    refused(lambda: extend_states(g, 2582), "s_size 2582 needs 10000086 denominator bits")
    # two states: x y <= 2^19 entries per state
    refused(lambda: extend_alphabets(g, 512, 1025),
            r"x_size \* y_size 524800 needs 1049600 table entries")
    # the states of a grown alphabet share that budget
    refused(lambda: extend_states(extend_alphabets(g, 32, 32), 1025),
            "s_size 1025 needs 1049600 table entries")


def test_extension_order_alphabets_after_states():
    g = extend_states(mixing_pair("1/4", "1/8"), 3)
    # states first, then alphabets is not supported; alphabets first is
    g2 = extend_states(extend_alphabets(mixing_pair("1/4", "1/8"), 3, 3), 4)
    assert (g2.channel.x_size, g2.channel.y_size, g2.channel.s_size) == (3, 3, 4)
    law = compose_unifilar(g2.channel)
    assert strongly_connected(law).connected
    assert g.channel.s_size == 3


def _with_one_decimal(g):
    """``g`` written to a file, with w[1][0][0] (3/4 here) given as a decimal."""
    doc = json.loads(dumps_channel(g))
    doc["w"][1][0][0] = 0.75
    return loads_channel(json.dumps(doc))


EXTENSIONS = {
    "alphabets": lambda g: extend_alphabets(g, 3, 3),
    "states": lambda g: extend_states(g, 4),
}


@pytest.mark.parametrize("extend", EXTENSIONS.values(), ids=EXTENSIONS)
def test_extensions_take_a_loaded_file_with_a_decimal_entry(extend):
    base = mixing_pair("1/4", "1/8")
    loaded = _with_one_decimal(base)
    ext = extend(loaded)
    want = extend(base)
    assert np.array_equal(ext.channel.w, want.channel.w)
    assert np.array_equal(ext.channel.f, want.channel.f)
    # the decimal stays a decimal and every fraction stays exact
    assert ext.exact_w[1][0][0] == 0.75 and isinstance(ext.exact_w[1][0][0], float)
    assert ext.exact_w[1][0][1] == Fraction(1, 4)
    assert json.loads(dumps_channel(ext))["w"][1][0][:2] == [0.75, "1/4"]


@pytest.mark.parametrize("extend", EXTENSIONS.values(), ids=EXTENSIONS)
def test_extensions_take_a_hand_wrapped_channel(extend):
    base = mixing_pair("1/4", "1/8")
    wrapped = LoadedChannel("unifilar", base.channel, params={"eps": Fraction(1, 4)})
    assert wrapped.exact_w == tuple(tuple(map(tuple, s)) for s in base.channel.w.tolist())
    ext = extend(wrapped)
    want = extend(base)
    assert np.array_equal(ext.channel.w, want.channel.w)
    assert np.array_equal(ext.channel.f, want.channel.f)


# SHA-256 of each construction's channel file, fixed when the gallery's
# tables and the file layout were last changed on purpose
GALLERY_DIGESTS = {
    "noiseless-z": (lambda: noiseless_z_pair("1/4"),
                    "2864c12aaa260a6afb769d9cb40b4e84e2bff8d1fbcaa3eb486be88e012ef03c"),
    "mixing": (lambda: mixing_pair("1/4", "1/8"),
               "cb5ff4a5777ee3e1cbebdcd72a1107d162008e23673d6ad99a4eaeee9369a9d2"),
    "inverse-k": (lambda: inverse_k_pair("1/4", 16),
                  "2617498104362d3a991bb4b2f8ffdbeb554628f535b58281d0abc2017fcec5e8"),
    "extend-alphabets": (lambda: extend_alphabets(mixing_pair("1/5", "1/16"), 3, 4),
                         "c4f6d2e29049480b1ba08395fa9d0ab6d8cb98bec138673ae403277e65b0f238"),
    "extend-states": (lambda: extend_states(mixing_pair("1/3", "1/8"), 5),
                      "c15f8ebd7b458ecf8fa92d1a38402974516f1484e674372d29db812e7d79d01a"),
}


@pytest.mark.parametrize("name", GALLERY_DIGESTS)
def test_gallery_files_are_pinned_byte_for_byte(name):
    build, digest = GALLERY_DIGESTS[name]
    assert hashlib.sha256(dumps_channel(build()).encode()).hexdigest() == digest
