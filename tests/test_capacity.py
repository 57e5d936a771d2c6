import functools
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscfb import (
    DomainError,
    FixedHaltingOracle,
    LoadedChannel,
    OptimizerSettings,
    ResourceLimitError,
    ShapeError,
    UnifilarChannel,
    ValidationError,
    binary_entropy,
    compose_unifilar,
    dmc_capacity,
    dumps_channel,
    extend_alphabets,
    extend_states,
    iid_rate,
    indecomposability_gaps,
    inverse_k_pair,
    lambda_sequence,
    mixing_pair,
    noiseless_z_pair,
    optimize_rate,
    z_channel_closed_form,
)
from fscfb import capacity
from fscfb.channels import INDECOMP_BUDGET
from fscfb.errors import BIT_BUDGET
from fscfb.cli import main
from fscfb.capacity import _ascend, _Lattice, _secant
from conftest import (
    CountingOracle,
    brute_directed_info,
    brute_joint,
    brute_nfold,
    rand_policy,
    rand_unifilar,
    single_state,
)
from oracle import (
    CausalPolicy,
    _path_rate,
    causal_policy,
    evaluate_rate,
    linearized_max,
    path_law,
    segment_rate,
)

H2_QUARTER = 0.8112781244591328  # -p log2 p - (1-p) log2 (1-p) at p = 1/4
C_Z_QUARTER = 0.5582386267373455  # log2(1 + 2^(-g)) at eps = 1/4
P0_QUARTER = 0.42782559679176746
BSC_QUARTER = 0.18872187554086717   # 1 - H2(1/4)
BSC_011 = 0.500084041835472         # 1 - H2(0.11)

FAST = OptimizerSettings()


def trapdoor():
    """Permuting channel: emit the trapped ball or the input with equal odds;
    the one not emitted becomes the state."""
    w = np.zeros((2, 2, 2))
    f = np.zeros((2, 2, 2), dtype=int)
    for s, x, y in np.ndindex(2, 2, 2):
        f[s, x, y] = s ^ x ^ y
    for s in range(2):
        for x in range(2):
            if x == s:
                w[s, x, x] = 1.0
            else:
                w[s, x] = [0.5, 0.5]
    return UnifilarChannel(w, f)


def test_policy_validation():
    with pytest.raises(ValidationError):
        CausalPolicy(1, 2, 2, (np.array([[0.5, 0.6]]),))
    with pytest.raises(ShapeError):
        CausalPolicy(2, 2, 2, (np.array([[0.5, 0.5]]),))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda t: CausalPolicy(1, 2, 2, (np.array([[t, t]]),)),
        lambda t: dmc_capacity([[t, t], [0.5, 0.5]]),
    ],
    ids=["policy", "dmc"],
)
def test_validation_rejects_non_finite_entries(build, bad):
    with pytest.raises(ValidationError):
        build(bad)


def stochastic(rng, shape, zeros):
    """Random rows over the last axis; with ``zeros``, ~40% of entries are 0."""
    t = rng.random(shape)
    if zeros:
        t[rng.random(shape) < 0.4] = 0.0
        t[..., 0] += t.sum(axis=-1) == 0  # no empty rows
    return t / t.sum(axis=-1, keepdims=True)


def test_evaluate_rate_matches_brute_force_oracles(rng):
    for case in range(48):
        s_size = int(rng.integers(1, 4))
        x_size, y_size = (int(v) for v in rng.choice([2, 3], size=2))
        n = int(rng.integers(1, 4))
        u = UnifilarChannel(
            stochastic(rng, (s_size, x_size, y_size), zeros=case % 2 == 1),
            rng.integers(0, s_size, size=(s_size, x_size, y_size)),
        )
        pol = CausalPolicy(n, x_size, y_size, tuple(
            stochastic(rng, ((x_size * y_size) ** k, x_size), zeros=case % 4 >= 2)
            for k in range(n)
        ))
        s0 = int(rng.integers(0, s_size))
        rate = evaluate_rate(u, s0, pol)
        assert rate == pytest.approx(brute_directed_info(brute_joint(u, s0, pol), n) / n, abs=1e-12)


@pytest.mark.parametrize(
    "s0, horizon, error",
    [(0, 8, ResourceLimitError), (2, 7, DomainError), (-1, 7, DomainError)],
)
def test_evaluate_rate_guards_refuse_before_allocating(s0, horizon, error):
    # |X||Y| = 6: N = 8 has 6^8 > 4^10 paths, and N = 7 tables would take 2 MB each
    u = UnifilarChannel(np.full((2, 2, 3), 1 / 3), np.zeros((2, 2, 3), dtype=int))
    pol = CausalPolicy.uniform(2, 3, horizon)
    tracemalloc.start()
    try:
        with pytest.raises(error):
            evaluate_rate(u, s0, pol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@st.composite
def iid_cells(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_size = draw(st.integers(1, 3))
    x_size = draw(st.integers(2, 3))
    y_size = draw(st.integers(2, 3))
    u = UnifilarChannel(
        stochastic(rng, (s_size, x_size, y_size), zeros=draw(st.booleans())),
        rng.integers(0, s_size, size=(s_size, x_size, y_size)),
    )
    dist = stochastic(rng, (x_size,), zeros=draw(st.booleans()))
    return u, int(rng.integers(0, s_size)), dist, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(iid_cells())
def test_iid_rate_matches_path_tables_and_brute_force(cell):
    u, s0, dist, n = cell
    pol = CausalPolicy.iid(dist, u.y_size, n)
    rate = iid_rate(u, s0, dist, n)
    assert rate == pytest.approx(evaluate_rate(u, s0, pol), abs=1e-12)
    assert rate == pytest.approx(brute_directed_info(brute_joint(u, s0, pol), n) / n, abs=1e-12)


@pytest.mark.parametrize(
    "s0, dist, horizon, error",
    [
        (0, [0.5, 0.5], 19, ResourceLimitError),  # 2 * 2 * 2^19 > 4^10 transitions
        (0, [0.5, 0.5], 0, ValidationError),
        (2, [0.5, 0.5], 5, DomainError),
        (-1, [0.5, 0.5], 5, DomainError),
        (0, [0.5, 0.25, 0.25], 5, ShapeError),
        (0, [0.5, 0.4], 5, ValidationError),
        (0, [np.nan, np.nan], 5, ValidationError),
    ],
)
def test_iid_rate_guards_refuse_before_allocating(s0, dist, horizon, error):
    u = mixing_pair(0.25, 0.25).channel
    tracemalloc.start()
    try:
        with pytest.raises(error):
            iid_rate(u, s0, dist, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_iid_rate_reaches_the_lattice_limit():
    # binary two-state: N = 18 is the largest horizon within 4^10 transitions
    u = noiseless_z_pair(0.25).channel
    assert iid_rate(u, 0, [0.5, 0.5], 18) == pytest.approx(1.0, abs=1e-12)


def test_iid_rate_reference_points():
    # an output law the same for every input and state carries nothing
    f = np.array([[[0, 1], [1, 0]], [[1, 1], [0, 0]]])
    deaf = UnifilarChannel(np.tile([0.3, 0.7], (2, 2, 1)), f)
    for n in (1, 2, 3):
        assert iid_rate(deaf, 0, [0.4, 0.6], n) == pytest.approx(0.0, abs=1e-12)
    # the noiseless state carries one bit per use under uniform inputs
    u = noiseless_z_pair(0.25).channel
    for n in (1, 2, 3, 4):
        assert iid_rate(u, 0, [0.5, 0.5], n) == pytest.approx(1.0, abs=1e-12)
    # the Z state at its optimal input law reaches the closed form
    cap, dist = z_channel_closed_form(0.25)
    assert iid_rate(u, 1, dist, 1) == pytest.approx(cap, abs=1e-12)


def test_iid_rate_with_underflowing_probabilities():
    u = trapdoor()
    rate = iid_rate(u, 0, [1.0 - 1e-200, 1e-200], 2)
    assert np.isfinite(rate)
    assert rate == pytest.approx(iid_rate(u, 0, [1.0, 0.0], 2), abs=1e-12)


def test_lattice_rate_lies_between_zero_and_log_alphabet(rng):
    """0 <= I(X^N -> Y^N | s_0) / N <= log2 min(|X|, |Y|) at random lattice
    policies, sparse ones too; an output that ignores the input gives 0."""
    for case in range(48):
        s, x, y = (int(v) for v in rng.integers([1, 2, 2], [4, 4, 4]))
        n = int(rng.integers(1, 5))
        u = UnifilarChannel(stochastic(rng, (s, x, y), zeros=case % 2 == 1),
                            rng.integers(0, s, size=(s, x, y)))
        lattice = _Lattice(u, int(rng.integers(0, s)), n)
        pi = stochastic(rng, lattice.theta_shape[::-1], zeros=case % 4 >= 2).T
        rate = lattice.rate(pi)[0]
        assert -1e-12 <= rate <= np.log2(min(x, y)) + 1e-12  # rounding may put a 0 below 0
        deaf = UnifilarChannel(np.broadcast_to(u.w[0, 0], u.w.shape), u.f)
        assert _Lattice(deaf, lattice.s0, n).rate(pi)[0] == pytest.approx(0.0, abs=1e-12)


def test_evaluate_rate_noiseless_uniform():
    u = noiseless_z_pair(0.25).channel
    assert evaluate_rate(u, 0, CausalPolicy.uniform(2, 2, 2)) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_rate_constant_policy_is_zero():
    u = mixing_pair(0.25, 0.25).channel
    pol = CausalPolicy.iid([1.0, 0.0], 2, 2)
    assert evaluate_rate(u, 0, pol) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_rate_z_state_optimal_input():
    u = noiseless_z_pair(0.25).channel
    cap, dist = z_channel_closed_form(0.25)
    got = evaluate_rate(u, 1, CausalPolicy.iid(dist, 2, 1))
    assert got == pytest.approx(cap, abs=1e-9)  # closed-form self-consistency


def test_evaluate_rate_shape_guard():
    u = noiseless_z_pair(0.25).channel
    with pytest.raises(ShapeError):
        evaluate_rate(u, 0, CausalPolicy.uniform(3, 2, 2))


def brute_path_law(u, s0, pol):
    """The brute-force joint, flattened in the path tables' (x_1, y_1, ..., x_N, y_N) order."""
    n = pol.horizon
    joint = brute_joint(u, s0, pol)
    return joint.transpose([k for i in range(n) for k in (i, n + i)]).ravel()


@pytest.mark.parametrize(
    "builder",
    [
        lambda: noiseless_z_pair(0.25).channel,
        lambda: mixing_pair(0.25, 0.125).channel,
    ],
)
def test_gradient_matches_finite_differences(rng, builder):
    """L is the rate's gradient along every move between causal path laws:
    the upper bound, the best linearized rate, rests on it."""
    u = builder()
    h = 1e-5
    policies = [rand_policy(rng, 2, 2, 2) for _ in range(20)]
    # and the policy a capped solve returns
    capped = optimize_rate(u, 0, 2, OptimizerSettings(max_iters=5))
    policies.append(causal_policy(u, 0, capped.policy))
    for pol in policies:
        law, logw, yidx = path_law(u, 0, pol)
        loss = np.empty_like(law)
        _path_rate(law, logw, yidx, 2, 2, loss)
        prob = brute_path_law(u, 0, pol)
        move = brute_path_law(u, 0, rand_policy(rng, 2, 2, 2)) - prob

        def rate(t):
            return _path_rate(prob + t * move, logw, yidx, 2, 2)[0]

        assert (rate(h) - rate(-h)) / (2 * h) == pytest.approx(move @ loss / 2, abs=1e-7)


def lattice_theta(steps):
    """The lattice's x-major log-policy table of per-step tables pi_n[s, y^{n-1}, x]."""
    with np.errstate(divide="ignore"):
        return np.log(np.concatenate([t.reshape(-1, t.shape[-1]) for t in steps]).T)


def test_lattice_matches_the_path_model(rng):
    """The rate and the upper bound agree with the path tables at the policy
    the lattice policy induces: the bound with ``linearized_max``, which is
    finite exactly when the lattice calls its bound exact. The update is
    checked by what it must do, not against a second update."""
    for case in range(48):
        s_size = int(rng.integers(1, 4))
        x_size, y_size = (int(v) for v in rng.choice([2, 3], size=2))
        n = int(rng.integers(1, 4))
        u = UnifilarChannel(
            stochastic(rng, (s_size, x_size, y_size), zeros=case % 2 == 1),
            rng.integers(0, s_size, size=(s_size, x_size, y_size)),
        )
        s0 = int(rng.integers(0, s_size))
        steps = [stochastic(rng, (s_size, y_size**k, x_size), zeros=case % 4 >= 2)
                 for k in range(n)]
        lattice = _Lattice(u, s0, n)
        value, exact = lattice.forward(lattice_theta(steps))
        assert value == pytest.approx(evaluate_rate(u, s0, steps), abs=1e-12)
        upper = linearized_max(u, s0, steps)
        assert exact == np.isfinite(upper)
        if exact:
            update = np.empty(lattice.theta_shape)
            assert lattice.backward(update) == pytest.approx(upper, abs=1e-12)
            # the Blahut-Arimoto update is a policy, and it does not lower the rate
            assert evaluate_rate(u, s0, lattice.policy(update)) >= value - 1e-12


def test_lattice_flags_outputs_the_policy_cannot_reach():
    # Q(1) underflows to 0 though a path reaches it
    u = single_state(np.eye(2))
    model = _Lattice(u, 0, 1)
    assert model.forward(np.log([[0.5], [0.5]]))[1]
    assert not model.forward(np.array([[0.0], [-1000.0]]))[1]


def test_linearized_max_flags_outputs_the_policy_cannot_reach():
    # the twin of the lattice's flag: the loss of the path (1, 1) is infinite
    u = single_state(np.eye(2))
    assert linearized_max(u, 0, CausalPolicy.iid([0.5, 0.5], 2, 1)) == pytest.approx(1.0)
    assert linearized_max(u, 0, CausalPolicy.iid([1.0, 0.0], 2, 1)) == np.inf


def test_linearized_max_is_the_best_deterministic_policy(rng):
    """The fold equals the rate linearized at the policy, maximized over every
    deterministic causal policy x_n = d_n(y^{n-1}) one by one: 2^7 = 128 of
    them at binary N = 3; the policy of its best inputs attains that maximum."""
    codes = []  # y^k as a number at each flat history (x y)^k: the low bit of each pair
    for k in range(3):
        hist = np.arange(4**k)
        codes.append(sum((((hist >> 2 * i) & 1) << i for i in range(k)), 0 * hist))
    for case in range(9):
        n, s_size = case % 3 + 1, int(rng.integers(1, 4))
        u = UnifilarChannel(stochastic(rng, (s_size, 2, 2), zeros=case % 2 == 1),
                            rng.integers(0, s_size, size=(s_size, 2, 2)))
        s0 = int(rng.integers(0, s_size))
        pol = rand_policy(rng, 2, 2, n)
        law, logw, yidx = path_law(u, s0, pol)
        loss = np.empty_like(law)
        _path_rate(law, logw, yidx, n, 2, loss)
        best = -np.inf
        for picks in itertools.product(range(2), repeat=2**n - 1):
            steps = tuple(np.eye(2)[np.array(picks[2**k - 1:2**(k + 1) - 1])[codes[k]]]
                          for k in range(n))
            best = max(best, path_law(u, s0, CausalPolicy(n, 2, 2, steps))[0] @ loss / n)
        argmax = []
        assert linearized_max(u, s0, pol, argmax) == pytest.approx(best, abs=1e-12)
        # the maximizer it returns attains it, and the rate rises toward it
        assert path_law(u, s0, argmax[0])[0] @ loss / n == pytest.approx(best, abs=1e-12)
        rate = evaluate_rate(u, s0, pol)
        assert rate < segment_rate(u, s0, pol, argmax[0]) <= best + 1e-12


def test_lattice_output_law_is_the_n_fold_law(rng):
    # under an open-loop input sequence Q(y^N) is the n-fold law summed over s_N
    for _ in range(12):
        s_size, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        u = rand_unifilar(rng, s_size, 2, 3)
        xs = rng.integers(0, 2, size=n)
        s0 = int(rng.integers(0, s_size))
        lattice = _Lattice(u, s0, n)
        pi = np.zeros(lattice.theta_shape)
        for x, cols in zip(xs, lattice.steps):
            pi[x, cols] = 1.0
        q = lattice.rate(pi)[1].reshape((3,) * n)  # axes y_N .. y_1
        law = np.zeros((3,) * n)  # axes y_1 .. y_N
        for (*ys, _), p in brute_nfold(compose_unifilar(u).law, xs, s0).items():
            law[tuple(ys)] += p
        assert np.allclose(q, law.transpose(range(n - 1, -1, -1)), rtol=0, atol=1e-15)


def test_lattice_table_is_the_composed_law(rng):
    # scattered from (W, f), the transition table holds each W entry once,
    # beside zeros, just as the composed law does
    for _ in range(20):
        s, x, y = (int(v) for v in rng.integers(1, 4, size=3))
        u = rand_unifilar(rng, s, x, y)
        lattice = _Lattice(u, int(rng.integers(0, s)), int(rng.integers(1, 4)))
        want = compose_unifilar(u).law.transpose(1, 0, 3, 2).reshape(x * s, s * y)
        assert np.array_equal(lattice.t, want)


@pytest.mark.parametrize("x_size", [2, 3])
def test_lattice_tables_and_foreign_arrays_give_the_same_passes(rng, x_size):
    """The lattice binds the level views of its own tables once and slices
    any other theta-shaped array anew on each pass; the two give the same
    bits, at |X| = 2 (two-row ufuncs) and at |X| = 3 (the reductions)."""
    for case in range(16):
        s, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        u = UnifilarChannel(stochastic(rng, (s, x_size, 2), zeros=case % 2 == 1),
                            rng.integers(0, s, size=(s, x_size, 2)))
        s0 = int(rng.integers(0, s))
        lattice = _Lattice(u, s0, n)
        with np.errstate(divide="ignore"):
            theta = np.log(stochastic(rng, lattice.theta_shape[::-1], zeros=True)).T.copy()
        own, own_out = lattice.iterates[:2]
        np.copyto(own, theta)
        for admit in (None, 0.0, 0.05):
            passes = []
            for table, out in ((own, own_out), (theta, np.empty(lattice.theta_shape))):
                value, exact = lattice.forward(table)
                joint = lattice.joint.copy()
                bound = lattice.backward(out, admit)
                passes.append((value, exact, joint.tobytes(), bound, out.tobytes()))
            assert passes[0] == passes[1]
        pi = np.exp(theta)
        foreign = lattice.rate(pi)[0]
        np.copyto(lattice.pi, pi)
        assert lattice.rate(lattice.pi)[0] == foreign
        # iid_rate passes a broadcast view, which is never bound
        dist = stochastic(rng, (x_size,), zeros=False)
        np.copyto(lattice.pi, dist[:, None])
        assert iid_rate(u, s0, dist, n) == lattice.rate(lattice.pi)[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_optimize_noiseless_state(n):
    u = noiseless_z_pair(0.25).channel
    est = optimize_rate(u, 0, n, FAST)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_optimize_z_state_matches_closed_form():
    u = noiseless_z_pair(0.25).channel
    est = optimize_rate(u, 1, 1, FAST)
    assert est.value == pytest.approx(C_Z_QUARTER, abs=1e-6)
    assert est.policy[0][1, 0, 0] == pytest.approx(P0_QUARTER, abs=1e-4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_optimize_memoryless_wrap_matches_oracle(n):
    u = single_state([[0.89, 0.11], [0.11, 0.89]])
    est = optimize_rate(u, 0, n, FAST)
    assert est.value == pytest.approx(BSC_011, abs=1e-4)


def test_optimize_never_below_uniform_baseline(rng):
    for _ in range(5):
        u = rand_unifilar(rng)
        n = int(rng.integers(1, 4))
        baseline = evaluate_rate(u, 0, CausalPolicy.uniform(2, 2, n))
        est = optimize_rate(u, 0, n, FAST)
        assert est.value >= baseline - 1e-9


def test_optimize_relabeling_invariance():
    u = noiseless_z_pair(0.25).channel
    # swap both input and output labels consistently
    w = u.w[:, ::-1, :][:, :, ::-1]
    f = u.f[:, ::-1, :][:, :, ::-1]
    relabeled = UnifilarChannel(w, f)
    for n in (1, 2):
        a = optimize_rate(u, 1, n, FAST)
        b = optimize_rate(relabeled, 1, n, FAST)
        assert a.value == pytest.approx(b.value, abs=1e-6)


def test_optimize_horizon_guard():
    # binary two-state: 2 * 2 * 2^19 > 4^10 lattice transitions
    u = noiseless_z_pair(0.25).channel
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            optimize_rate(u, 0, 19, OptimizerSettings())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("horizon", [20_000, 10**7])
@pytest.mark.parametrize("run", [
    lambda u, n: optimize_rate(u, 0, n),
    lambda u, n: iid_rate(u, 0, [1 / 3] * 3, n),
], ids=["optimize_rate", "iid_rate"])
def test_huge_horizons_are_refused_without_forming_the_count(run, horizon):
    # 3^20000 has over 4,300 digits, too many to print, and 3^(10^7) takes
    # seconds to form; the horizon alone is over the limit
    u = extend_alphabets(mixing_pair(0.25, 0.25), 3, 3).channel
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"horizon {horizon} needs at least") as err:
        run(u, horizon)
    assert err.value.limit == capacity.MAX_JOINT_ENTRIES
    assert time.perf_counter() - start < 1.0


# 10^5000 has 16,610 bits and over 4,300 digits, too many to print
HUGE = 10**5000


@pytest.mark.parametrize("run, limit, over, below", [
    (lambda u, c, oracle, h: optimize_rate(u, 0, h), capacity.MAX_JOINT_ENTRIES, 30,
     (ValidationError, "horizon must be >= 1, got a value of 16,610 bits")),
    (lambda u, c, oracle, h: iid_rate(u, 0, [1 / 3] * 3, h), capacity.MAX_JOINT_ENTRIES, 30,
     (ValidationError, "horizon must be >= 1, got a value of 16,610 bits")),
    (lambda u, c, oracle, h: indecomposability_gaps(c, h), INDECOMP_BUDGET, 30,
     (ValidationError, "horizon must be >= 1, got a value of 16,610 bits")),
    (lambda u, c, oracle, h: lambda_sequence(oracle, 1, h), BIT_BUDGET, 5000,
     (DomainError, "indices must be >= 1, got n=1, m of 16,610 bits")),
], ids=["optimize_rate", "iid_rate", "indecomposability_gaps", "lambda_sequence"])
@pytest.mark.parametrize("value", ["huge", "np.int64", "-huge"])
def test_horizons_too_long_to_print_are_refused_by_their_bit_length(run, limit, over, below, value):
    # a NumPy integer horizon over the limit is refused the same way, named in
    # decimal; one below 1 is refused as such, named by its bit length
    error, horizon, named = {
        "huge": (ResourceLimitError, HUGE, " of 16,610 bits needs .*at least"),
        "np.int64": (ResourceLimitError, np.int64(over), f" {over} needs"),
        "-huge": (below[0], -HUGE, f"^{below[1]}$"),
    }[value]
    u = extend_alphabets(mixing_pair(0.25, 0.25), 3, 3).channel
    c = compose_unifilar(u)
    oracle = CountingOracle(FixedHaltingOracle({}))
    tracemalloc.start()
    try:
        with pytest.raises(error, match=named) as err:
            run(u, c, oracle, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if error is ResourceLimitError:
        assert err.value.limit == limit
    assert oracle.queries == 0
    assert peak < 100_000


def test_a_state_too_long_to_print_is_refused_by_its_bit_length():
    with pytest.raises(DomainError, match=r"^state of 16,610 bits outside 0\.\.1$"):
        optimize_rate(noiseless_z_pair(0.25).channel, HUGE, 2)


@pytest.mark.parametrize("settings", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}, {"tol": np.inf}, {"max_iters": -5},
    {"max_iters": 2.0}, {"max_iters": True}, {"max_iters": None}, {"tol": "1e-9"}, {"tol": [1]},
    {"tol": True},
])
def test_optimizer_settings_reject_malformed_values(settings):
    # a bracket never closes below tol <= 0, NaN compares false with any
    # width, and an infinite tol stops before the first update; a count of
    # updates is an int, 2.0 included, and neither setting is a bool
    with pytest.raises(ValidationError):
        OptimizerSettings(**settings)


@pytest.mark.parametrize("horizon", [0, -1])
def test_optimize_rejects_horizons_below_one(horizon):
    u = noiseless_z_pair(0.25).channel
    with pytest.raises(ValidationError, match="horizon"):
        optimize_rate(u, 0, horizon)


def test_optimize_is_deterministic():
    u = mixing_pair(0.25, 0.125).channel
    a = optimize_rate(u, 0, 2, FAST)
    b = optimize_rate(u, 0, 2, FAST)
    assert a.value == b.value
    assert all(np.array_equal(x, y) for x, y in zip(a.policy, b.policy))


def test_optimize_trapdoor_channel_approaches_known_limit():
    # its feedback capacity is the log of the golden ratio, and
    # finite-horizon maxima climb toward it
    u = trapdoor()
    limit = np.log2((1 + 5**0.5) / 2)
    values = [optimize_rate(u, 0, n, FAST).value for n in (1, 2, 3, 4)]
    assert values[0] == pytest.approx(np.log2(1.25), abs=1e-9)  # one-shot Z form
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < limit for v in values)
    assert values[-1] > 0.62  # within 0.08 bits of the limit by N = 4


# (channel, s0, N) -> the value that 300 iterations of the softmax ascent,
# the solver before Blahut-Arimoto, reported: a rate some policy reaches
GOLDEN_CELLS = {
    "mixing": (lambda: mixing_pair(0.25, 0.125).channel, 0, 2, 0.4564106311455448),
    "trapdoor": (trapdoor, 0, 3, 0.5962220170565199),
    "noiseless-z": (lambda: noiseless_z_pair(0.25).channel, 1, 2, 0.5582386267373455),
}
GOLDEN = OptimizerSettings(max_iters=300)


@pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
def test_optimize_bracket_against_golden_value(cell):
    """The recorded value is the rate of a policy, so the certified upper
    bound lies above it, and the rate found is not below it."""
    build, s0, n, old = GOLDEN_CELLS[cell]
    est = optimize_rate(build(), s0, n, GOLDEN)
    assert est.diagnostics["converged"]
    assert est.value >= old - 1e-12
    assert est.upper >= old
    assert est.upper - est.value < GOLDEN.tol


GALLERY = {
    "noiseless-z": lambda: noiseless_z_pair(0.25).channel,
    "mixing": lambda: mixing_pair(0.25, 0.125).channel,
    "inverse-k": lambda: inverse_k_pair(0.25, 4).channel,
    "extend-states": lambda: extend_states(mixing_pair(0.25, 0.125), 3).channel,
    "trapdoor": trapdoor,
}


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_optimize_bracket_closes_at_small_horizons(name):
    u = GALLERY[name]()
    for n in range(1, 5):
        for s0 in range(u.s_size):
            est = optimize_rate(u, s0, n)
            assert est.diagnostics["converged"]
            assert 0.0 <= est.upper - est.value <= 1e-9


AGREE = OptimizerSettings(max_iters=300)


def assert_brackets_agree(u, s0, n):
    """Each end of the certified bracket against its reference at the
    policy returned: ``value`` is that policy's rate, and ``upper`` is
    min(U*, log2|Y|), with U* the rate linearized there and maximized over
    every deterministic policy, which bounds the optimum."""
    est = optimize_rate(u, s0, n, AGREE)
    assert abs(est.value - evaluate_rate(u, s0, est.policy)) <= 1e-12
    top = min(linearized_max(u, s0, est.policy), np.log2(u.y_size))
    assert abs(est.upper - top) <= 1e-12


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_lattice_bracket_agrees_with_the_path_oracle(name):
    u = GALLERY[name]()
    for n in range(1, 6):
        for s0 in range(u.s_size):
            assert_brackets_agree(u, s0, n)


def test_a_converged_bracket_is_the_returned_policys_own():
    """A converged run's bracket is the returned policy's own. On this cell
    the least bound over the iterates is within 4.7e-11 of the rate after
    30 updates, while that iterate's own U* - value is 1.08e-10, over
    ``tol``; the run must go on until the returned policy closes it."""
    w = [[[0.48, 0.52], [0.644, 0.356]], [[0.237, 0.763], [0.315, 0.685]]]
    u = UnifilarChannel(np.array(w), np.array([[[0, 0], [1, 1]], [[0, 1], [1, 1]]]))
    cfg = OptimizerSettings()
    est = optimize_rate(u, 1, 2, cfg)
    top = linearized_max(u, 1, est.policy)
    assert est.diagnostics["converged"]
    assert top - est.value < cfg.tol
    assert abs(est.upper - min(top, 1.0)) <= 1e-12


def test_optimize_trapdoor_at_horizon_ten():
    start = time.perf_counter()
    est = optimize_rate(trapdoor(), 0, 10, OptimizerSettings(max_iters=300))
    elapsed = time.perf_counter() - start
    assert est.diagnostics["converged"]
    assert 0.6659 < est.value <= est.upper < 0.6660
    assert elapsed < 5.0


def test_optimize_iteration_cap_leaves_the_bracket_open():
    u = mixing_pair(0.25, 0.125).channel
    cfg = OptimizerSettings(max_iters=3)
    est = optimize_rate(u, 0, 2, cfg)
    assert est.diagnostics["iterations"] == 3
    assert not est.diagnostics["converged"]
    assert est.upper - est.value > cfg.tol


def underflowed(theta):
    """The finite entries of a log-policy whose probability is exactly 0."""
    return np.isfinite(theta) & (np.exp(theta) == 0.0)


class CheckedLattice(_Lattice):
    """A lattice that checks every policy the solver evaluates and every
    iterate it moves to. ``forward`` checks that no entry is NaN and every
    column is a distribution, so its largest entry is at least ln 1/|X| and
    no column is all -inf; ``backward``, run on the last accepted policy,
    that every column is a distribution with no finite entry whose
    probability is 0."""

    def forward(self, theta):
        x = theta.shape[0]
        assert np.all(theta.max(axis=0) >= -np.log(x) - 1e-12)
        np.testing.assert_allclose(np.exp(theta).sum(axis=0), 1.0, rtol=0, atol=1e-12)
        return super().forward(theta)

    def backward(self, out, admit=None):
        np.testing.assert_allclose(np.exp(self.theta).sum(axis=0), 1.0, rtol=0, atol=1e-12)
        assert not underflowed(self.theta).any()
        return super().backward(out, admit)


@pytest.mark.parametrize("n", [5, 6])
def test_face_restriction_closes_the_degenerate_trapdoor_cells(n):
    """From N = 5 one input of the trapdoor's optimum vanishes only like 1/k
    under the update; dropped to exactly 0, it no longer holds the bracket
    open, which closes within 400 updates where 2,000 left it at ~1e-9."""
    cfg = OptimizerSettings(max_iters=400)
    model = CheckedLattice(trapdoor(), 0, n)
    with np.errstate(invalid="raise", divide="raise"):
        _, value, upper, counts = _ascend(model, np.full(model.theta_shape, -np.log(2)), cfg)
    assert upper - value < cfg.tol
    assert counts["pruned"] > 0 and counts["readmitted"] == 0
    if n == 5:
        assert value >= 0.6374684737677  # where 2,000 updates on every input stopped
    est = optimize_rate(trapdoor(), 0, n, cfg)
    assert (est.value, est.upper) == (value, upper)
    assert est.diagnostics == {**counts, "converged": True}


def test_the_bracket_is_the_returned_iterates_own_at_every_cap():
    """The ascent reuses the lattice's tables for its iterates and returns
    the last one. At each cap around the trapdoor's first change of face at
    N = 10, a fresh lattice gives the returned value, bit for bit, as the
    rate of the returned policy, and the returned upper end as its bound."""
    pruned = []
    for cap in range(29, 36):
        model = _Lattice(trapdoor(), 0, 10)
        theta, value, upper, counts = _ascend(model, np.full(model.theta_shape, -np.log(2)),
                                              OptimizerSettings(max_iters=cap))
        fresh = _Lattice(trapdoor(), 0, 10)
        assert fresh.forward(theta) == (value, True)
        assert upper == min(fresh.backward(np.empty(fresh.theta_shape)), 1.0)
        pruned.append(counts["pruned"])
    assert pruned[0] < pruned[-1]  # the caps straddle the change of face


@pytest.mark.parametrize("n, capped", [(7, 0.653809139317), (10, 0.665947907681)])
def test_secant_step_closes_the_deep_trapdoor_cells(n, capped):
    """From N = 7 inputs of the trapdoor's optimum vanish one after another,
    and 2,000 over-relaxed updates left the bracket near 2e-9 at the rate
    ``capped``; the secant correction closes it within 300."""
    est = optimize_rate(trapdoor(), 0, n, OptimizerSettings(max_iters=300))
    assert est.diagnostics["converged"]
    assert est.diagnostics["accelerated"] > 0
    assert est.value >= capped


@pytest.mark.parametrize("n", [1, 2, 3])
def test_secant_step_closes_the_flat_memoryless_cell(n):
    """A near-useless binary channel's rate is flat in the policy, and the
    over-relaxed update, reset at every overshoot, took thousands of updates
    to close its bracket."""
    u = single_state([[0.4233, 0.5767], [0.4355, 0.5645]])
    cfg = OptimizerSettings(max_iters=50)
    est, one = optimize_rate(u, 0, n, cfg), optimize_rate(u, 0, 1, cfg)
    assert est.diagnostics["converged"]
    # feedback does not raise a memoryless channel's capacity: C_N = C_1
    assert one.value - 1e-12 <= est.upper and est.value <= one.upper + 1e-12


def test_secant_step_weighs_by_the_node_masses():
    """The secant fit weighs each entry by P(node) pi(x | node). Unweighted,
    columns no path reaches, such as the other initial state's root, drive
    the fit, and the run crawls: 500 updates left these cells open by up to
    2e-4."""
    w = np.array([[[1/2, 1/2], [2/3, 1/3]], [[3/4, 1/4], [2/5, 3/5]]])
    f = np.array([[[1, 1], [0, 0]], [[1, 0], [0, 1]]])
    u = UnifilarChannel(w, f)
    for n in (1, 2, 3):
        for s0 in (0, 1):
            est = optimize_rate(u, s0, n, OptimizerSettings(max_iters=100))
            assert est.diagnostics["converged"]


@pytest.mark.parametrize("n", range(3, 13))
def test_secant_history_closes_the_trapdoor_cells_within_sixty_updates(n):
    """Fitted to the last four updates, the secant step closes every
    trapdoor cell up to N = 12 just after the first change of face; fitted
    to the last one, N = 5 to 9 took 63 to 153 updates."""
    for s0 in (0, 1):
        est = optimize_rate(trapdoor(), s0, n, OptimizerSettings(max_iters=60))
        assert est.diagnostics["converged"]


@pytest.mark.parametrize("s0", [0, 1])
def test_underflowed_inputs_are_dropped_so_the_deep_trapdoor_closes(s0):
    """An over-relaxed step can leave an input at theta = -12,194: finite, so
    neither the drop rule nor the re-admission test saw it, though its
    probability is 0. The trapdoor at N = 16 then stalled 1.9e-6 open for
    2,000 updates; with such entries dropped it closes just after the first
    change of face."""
    model = _Lattice(trapdoor(), s0, 16)
    with np.errstate(invalid="raise"):
        theta, value, upper, counts = _ascend(model, np.full(model.theta_shape, -np.log(2)),
                                              OptimizerSettings(max_iters=100))
    assert upper - value < FAST.tol
    assert not underflowed(theta).any()
    assert value >= 0.6765579871


@pytest.mark.parametrize("seed", [199, 4468])
def test_plain_updates_drop_their_underflowed_inputs_too(seed):
    """Not only an over-relaxed trial can push a probability to 0: on these
    random channels, found by a search over 5,000, a plain update does."""
    rng = np.random.default_rng(seed)
    s, x, y = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
    n = int(rng.integers(1, 4 if x * y == 4 else 3))
    w = stochastic(rng, (s, x, y), zeros=bool(rng.integers(0, 2)))
    u = UnifilarChannel(w, rng.integers(0, s, size=(s, x, y)))
    model = CheckedLattice(u, int(rng.integers(0, s)), n)
    _ascend(model, np.full(model.theta_shape, -np.log(x)), OptimizerSettings(max_iters=200))


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("s0", [0, 1])
def test_readmitted_inputs_that_underflow_are_dropped_and_the_cell_still_closes(
        monkeypatch, s0, n):
    """The underflow drop spares no input, re-admitted ones included. From
    the policy that always sends 0, the trapdoor misses output sequences, so
    the first change of face re-admits 62 to 126 inputs, and the
    over-relaxed steps after it push some of them back to probability 0;
    the run still closes, in 65 to 83 updates."""
    seen, drop = {"hits": 0, "dropped": None}, capacity._drop_underflows

    def spy(theta, pi):
        dropped = seen["dropped"]
        if dropped is None:
            dropped = seen["dropped"] = np.zeros(theta.shape, dtype=bool)
        # finite now, and -inf in an earlier iterate: it was re-admitted
        seen["hits"] += int(np.count_nonzero(underflowed(theta) & dropped))
        count = drop(theta, pi)
        dropped |= np.isneginf(theta)
        return count

    monkeypatch.setattr(capacity, "_drop_underflows", spy)
    model = _Lattice(trapdoor(), s0, n)
    theta = np.zeros(model.theta_shape)
    theta[1] = -np.inf
    with np.errstate(invalid="raise"):
        theta, value, upper, counts = _ascend(model, theta, OptimizerSettings(max_iters=150))
    assert seen["hits"] > 0 and counts["readmitted"] > 0
    assert upper - value < FAST.tol
    assert not underflowed(theta).any()
    golden = optimize_rate(trapdoor(), s0, n)
    assert value == pytest.approx(golden.value, abs=1e-9)


def test_one_pair_secant_fit_is_the_closed_form():
    """With one pair the fit is gamma = <dg, g>_w / <dg, dg>_w up to the
    ridge; with more it solves the normal equations scaled to a unit
    diagonal, and a pair of zero weight gets gamma 0."""
    rng = np.random.default_rng(5)
    g, weight = rng.normal(size=12), rng.random(12)
    dgs = rng.normal(size=(4, 12))
    fit = np.vstack((g, dgs[:1]))
    (gamma,) = _secant(((fit * weight) @ fit.T).tolist())
    assert gamma == pytest.approx(np.sum(weight * dgs[0] * g) / np.sum(weight * dgs[0] ** 2),
                                  rel=1e-7)
    fit = np.vstack((g, dgs))
    gram = (fit * weight) @ fit.T
    scale = np.diag(gram)[1:] ** -0.5
    normal = gram[1:, 1:] * np.outer(scale, scale) + 1e-8 * np.eye(4)
    expected = np.linalg.solve(normal, gram[0, 1:] * scale) * scale
    np.testing.assert_allclose(_secant(gram.tolist()), expected, rtol=1e-9)
    fit[2] = 0.0
    gamma = _secant(((fit * weight) @ fit.T).tolist())
    assert gamma[1] == 0.0 and all(np.isfinite(gamma))


def test_secant_fit_gives_a_pair_of_subnormal_weight_gamma_0():
    """A Gram matrix an ascent from a start on a face produced: dg_2's
    weight 2.5e-323 is subnormal, and eliminating it against dg_1 left a
    pivot of exactly 0. That pair gets gamma 0, and the others the fit
    they get without it."""
    gram = [
        [1.760927925138783e-32, 0.0, 0.0, 2.3862761680228836e-32, 0.0],
        [0.0, 1.3144383978714992e-266, 5.969660660033487e-295,
         1.522812483853231e-265, 3.9239496301464607e-266],
        [0.0, 5.969660660033487e-295, 2.5e-323, 6.916013555437252e-294,
         1.7821031230501447e-294],
        [2.3862761680228836e-32, 1.5228124838532312e-265, 6.916013555437252e-294,
         3.6369726537910854e-32, 4.54600192178992e-265],
        [0.0, 3.9239496301464607e-266, 1.7821031230501447e-294,
         4.54600192178992e-265, 1.1714037512035468e-265],
    ]
    gamma = _secant(gram)
    assert gamma[1] == 0.0 and all(np.isfinite(gamma))
    kept = [0, 1, 3, 4]
    assert [gamma[0], *gamma[2:]] == _secant([[gram[i][j] for j in kept] for i in kept])


def test_ascent_keeps_every_trial_finite_once_the_rate_is_flat():
    """Past convergence every over-relaxed trial ties with the rate to
    rounding and is accepted; omega is capped, so the steps never overflow
    into a NaN policy."""
    model = CheckedLattice(mixing_pair(0.25, 0.125).channel, 0, 2)
    cfg = OptimizerSettings(max_iters=2000, tol=1e-300)  # a bracket no rounding reaches
    with np.errstate(invalid="raise", over="raise"):
        _, value, upper, counts = _ascend(model, np.full(model.theta_shape, -np.log(2)), cfg)
    assert counts["iterations"] == 2000
    assert 0.0 <= upper - value < 1e-15


@pytest.mark.parametrize("dropped", [0, 1])
def test_face_restriction_readmits_an_input_the_optimum_needs(dropped):
    """Started with one input of the Z channel dropped, the run brings it
    back and closes at the closed form. Without input 1 the gain of input 1
    passes its node's z (a KKT violation); without input 0 the policy never
    emits output 0, which no optimum misses."""
    eps = 0.25
    model = CheckedLattice(single_state([[1 - eps, eps], [0.0, 1.0]]), 0, 1)
    theta = np.zeros(model.theta_shape)
    theta[dropped] = -np.inf
    theta, value, upper, counts = _ascend(model, theta, FAST)
    capacity, p = z_channel_closed_form(eps)
    assert counts["readmitted"] == 1
    assert value - 1e-12 <= capacity <= upper + 1e-12
    assert upper - value < FAST.tol
    assert np.exp(theta[:, 0]) == pytest.approx(p, abs=1e-4)


@st.composite
def unifilar_cells(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_size = draw(st.integers(1, 3))
    x_size = draw(st.integers(2, 3))
    y_size = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3 if x_size * y_size == 4 else 2))
    u = UnifilarChannel(
        stochastic(rng, (s_size, x_size, y_size), zeros=draw(st.booleans())),
        rng.integers(0, s_size, size=(s_size, x_size, y_size)),
    )
    return rng, u, int(rng.integers(0, s_size)), n


@settings(max_examples=40, deadline=None)
@given(unifilar_cells())
def test_optimize_bracket_is_certified(cell):
    rng, u, s0, n = cell
    est = optimize_rate(u, s0, n, OptimizerSettings(max_iters=200))
    # the lower end is the rate of the returned policy
    assert est.value == pytest.approx(evaluate_rate(u, s0, est.policy), abs=1e-12)
    assert est.upper >= est.value
    # the upper end lies above the rate of every policy: full, sparse and deterministic ones
    x, y = u.x_size, u.y_size
    for zeros in (False, True):
        pol = CausalPolicy(n, x, y, tuple(
            stochastic(rng, ((x * y) ** k, x), zeros=zeros) for k in range(n)
        ))
        assert evaluate_rate(u, s0, pol) <= est.upper + 1e-12
    picks = [np.eye(x)[rng.integers(0, x, size=(x * y) ** k)] for k in range(n)]
    assert evaluate_rate(u, s0, CausalPolicy(n, x, y, tuple(picks))) <= est.upper + 1e-12


@settings(max_examples=40, deadline=None)
@given(unifilar_cells())
def test_ascent_returns_no_underflowed_input(cell):
    _, u, s0, n = cell
    model = _Lattice(u, s0, n)
    theta = _ascend(model, np.full(model.theta_shape, -np.log(u.x_size)),
                    OptimizerSettings(max_iters=200))[0]
    assert not underflowed(theta).any()


@settings(max_examples=40, deadline=None)
@given(unifilar_cells())
def test_lattice_bracket_agrees_with_the_path_oracle_on_random_channels(cell):
    _, u, s0, n = cell
    assert_brackets_agree(u, s0, n)


@settings(max_examples=40, deadline=None)
@given(unifilar_cells())
def test_lattice_bracket_is_bounded_and_relabelling_invariant(cell):
    rng, u, s0, n = cell
    cfg = OptimizerSettings(max_iters=200)
    est = optimize_rate(u, s0, n, cfg)
    assert 0.0 <= est.value <= est.upper
    # C_N <= log2|Y|, where the certified bound starts; only a rate that
    # rounding puts above log2|Y| can lift the reported upper end past it
    assert est.value <= np.log2(u.y_size) + 1e-12
    assert est.upper <= max(np.log2(u.y_size), est.value)
    # the same channel with its input, output and state labels permuted
    ps, px, py = (rng.permutation(k) for k in u.w.shape)
    w, f = np.empty_like(u.w), np.empty_like(u.f)
    w[np.ix_(ps, px, py)] = u.w
    f[np.ix_(ps, px, py)] = ps[u.f]
    other = optimize_rate(UnifilarChannel(w, f), int(ps[s0]), n, cfg)
    assert est.value <= other.upper + 1e-12
    assert other.value <= est.upper + 1e-12


@settings(max_examples=40, deadline=None)
@given(unifilar_cells())
def test_bracket_from_a_start_on_a_face_overlaps_the_uniform_start(cell):
    """Started from a random policy with inputs dropped (each column keeps
    one), the run returns a policy whose exact rate is its value, and its
    bracket overlaps the one from the uniform start."""
    rng, u, s0, n = cell
    cfg = OptimizerSettings(max_iters=200)
    model = CheckedLattice(u, s0, n)
    with np.errstate(divide="ignore"):
        theta = np.log(stochastic(rng, model.theta_shape[::-1], zeros=True)).T.copy()
    theta, value, upper, _ = _ascend(model, theta, cfg)
    assert value == _Lattice(u, s0, n).forward(theta)[0]
    est = optimize_rate(u, s0, n, cfg)
    assert value <= est.upper + 1e-12
    assert est.value <= upper + 1e-12


@pytest.mark.parametrize("offsets", [(0.0, -1.25, -0.25), (0.25, 0.0)])
def test_normalize_keeps_a_far_column_on_the_simplex(offsets):
    """A secant trial can put a column near -1.8e15, where the ulp is 0.25:
    t - (top + ln total) summed to 0.976 on the three-entry column and to
    1.079 on the binary one. Taking the max off first keeps both at 1."""
    t = -1.8e15 + np.array(offsets)[:, None]
    shift = capacity._normalize(t)
    np.testing.assert_allclose(np.exp(t).sum(axis=0), 1.0, rtol=0, atol=1e-12)
    assert shift == pytest.approx(-1.8e15, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(unifilar_cells())
def test_every_accepted_iterate_is_a_policy(cell):
    rng, u, s0, n = cell
    model = CheckedLattice(u, s0, n)
    with np.errstate(divide="ignore"):
        theta = np.log(stochastic(rng, model.theta_shape[::-1], zeros=True)).T.copy()
    _ascend(model, theta, OptimizerSettings(max_iters=200))


@pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
def test_optimize_fast_value_matches_dense_value(cell):
    # the lattice value against the brute-force rate of the dense joint
    build, s0, n, _ = GOLDEN_CELLS[cell]
    u = build()
    est = optimize_rate(u, s0, n, GOLDEN)
    joint = brute_joint(u, s0, est.policy)
    assert est.value == pytest.approx(brute_directed_info(joint, n) / n, abs=1e-12)


def test_evaluate_rate_with_underflowing_probabilities():
    # a*d and b*c underflow to 0/0 at a probability of 1e-200
    u = trapdoor()
    second = np.full((4, 2), 0.5)
    tiny = CausalPolicy(2, 2, 2, (np.array([[1.0 - 1e-200, 1e-200]]), second))
    exact = CausalPolicy(2, 2, 2, (np.array([[1.0, 0.0]]), second))
    rate = evaluate_rate(u, 0, tiny)
    assert np.isfinite(rate)
    assert rate == pytest.approx(evaluate_rate(u, 0, exact), abs=1e-12)


def all_states_rows(record, n, tmp_path, capsys):
    """The rows of ``capacity --all-states`` at horizon n, by their s0 label."""
    path = tmp_path / "channel.json"
    path.write_text(dumps_channel(record))
    assert main(["capacity", str(path), "--n", str(n), "--all-states", "--format", "json"]) == 0
    return {row["s0"]: row for row in json.loads(capsys.readouterr().out)["rows"]}


def test_finite_n_bracket_frozen_family(tmp_path, capsys):
    record = noiseless_z_pair(0.25)
    rows = all_states_rows(record, 2, tmp_path, capsys)
    assert list(rows) == ["0", "1", "min", "max"]
    low, high = rows["min"], rows["max"]
    assert rows["0"]["rate"] == pytest.approx(1.0, abs=1e-6)
    assert rows["1"]["rate"] == pytest.approx(C_Z_QUARTER, abs=1e-6)
    assert low["rate"] <= high["rate"]
    # the min and max over states of the optima lie in these brackets
    ests = [optimize_rate(record.channel, s0, 2, FAST) for s0 in range(2)]
    for s0, est in enumerate(ests):
        assert (rows[str(s0)]["rate"], rows[str(s0)]["gap"]) == (est.value, est.upper - est.value)
    uppers = [est.upper for est in ests]
    assert low["gap"] == min(uppers) - low["rate"]
    assert high["gap"] == max(uppers) - high["rate"]
    for row in (low, high):
        assert row["converged"] == (row["gap"] < FAST.tol)


def test_finite_n_bracket_mixing_states_agree(tmp_path, capsys):
    rows = all_states_rows(mixing_pair(0.25, 0.25), 4, tmp_path, capsys)
    assert rows["max"]["rate"] - rows["min"]["rate"] < 0.05


def test_bracket_single_state_degenerate(tmp_path, capsys):
    record = LoadedChannel("unifilar", single_state([[0.75, 0.25], [0.25, 0.75]]))
    rows = all_states_rows(record, 2, tmp_path, capsys)
    assert rows["min"]["rate"] == rows["max"]["rate"]


def test_dmc_capacity_identity():
    res = dmc_capacity(np.eye(2))
    assert (res.value + res.upper) / 2 == pytest.approx(1.0, abs=1e-10)
    assert res.upper - res.value < 1e-10


def test_dmc_capacity_bsc():
    res = dmc_capacity([[0.75, 0.25], [0.25, 0.75]])
    assert (res.value + res.upper) / 2 == pytest.approx(BSC_QUARTER, abs=1e-10)
    assert np.allclose(res.policy[0][0, 0], [0.5, 0.5], atol=1e-6)


def test_dmc_capacity_z_channel():
    res = dmc_capacity([[0.75, 0.25], [0.0, 1.0]])
    assert (res.value + res.upper) / 2 == pytest.approx(C_Z_QUARTER, abs=1e-9)
    assert res.policy[0][0, 0][0] == pytest.approx(P0_QUARTER, abs=1e-6)


def test_dmc_capacity_raises_on_an_open_bracket(monkeypatch):
    # the uniform start is not optimal on the Z-channel, so no update leaves it open
    no_updates = functools.partial(OptimizerSettings, max_iters=0)
    monkeypatch.setattr(capacity, "OptimizerSettings", no_updates)
    with pytest.raises(ResourceLimitError, match="did not close"):
        dmc_capacity([[0.75, 0.25], [0.0, 1.0]])


def test_dmc_capacity_validation():
    with pytest.raises(ValidationError, match="x=1"):
        dmc_capacity([[0.5, 0.5], [0.5, 0.4]])
    with pytest.raises(ShapeError):
        dmc_capacity(np.full((2, 2, 2), 0.5))


def test_z_channel_closed_form_values():
    cap, dist = z_channel_closed_form(0.25)
    assert cap == pytest.approx(C_Z_QUARTER, abs=1e-15)
    assert dist[0] == pytest.approx(P0_QUARTER, abs=1e-15)
    assert dist.sum() == pytest.approx(1.0, abs=1e-15)
    # noiseless limit
    assert z_channel_closed_form(1e-9)[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("eps", [0.0, 0.5, -0.1, 0.9])
def test_z_channel_closed_form_domain(eps):
    with pytest.raises(DomainError):
        z_channel_closed_form(eps)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.25) == pytest.approx(H2_QUARTER, abs=1e-15)
    assert binary_entropy(0.25) == binary_entropy(0.75)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(p):
    with pytest.raises(DomainError):
        binary_entropy(p)
