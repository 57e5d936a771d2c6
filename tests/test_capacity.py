import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscfb import (
    DomainError,
    OptimizerSettings,
    ResourceLimitError,
    ShapeError,
    UnifilarChannel,
    ValidationError,
    compose_unifilar,
    dmc_capacity,
    extend_states,
    finite_n_bracket,
    iid_rate,
    inverse_k_pair,
    mixing_pair,
    noiseless_z_pair,
    optimize_rate,
    z_channel_closed_form,
)
from fscfb import capacity
from fscfb.capacity import _ascend, _Lattice, _secant
from conftest import brute_directed_info, brute_joint, rand_policy, rand_unifilar
from oracle import (
    CausalPolicy,
    JointLaw,
    _PathModel,
    _path_rate,
    causal_policy,
    directed_information,
    evaluate_rate,
    n_fold_law,
    optimize_paths,
    plain_dmc_capacity,
)

C_Z_QUARTER = 0.5582386267373455
P0_QUARTER = 0.42782559679176746
BSC_QUARTER = 0.18872187554086717   # 1 - H2(1/4)
BSC_011 = 0.500084041835472         # 1 - H2(0.11)

FAST = OptimizerSettings()


def single_state(w):
    w = np.asarray(w, dtype=float)
    return UnifilarChannel(w[None, :, :], np.zeros((1,) + w.shape, dtype=int))


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


def test_policy_validation_and_parameter_count():
    pol = CausalPolicy.uniform(2, 2, 3)
    assert pol.free_parameter_count() == (1 + 4 + 16) * 1
    pol3 = CausalPolicy.uniform(3, 2, 2)
    assert pol3.free_parameter_count() == 1 * 2 + 6 * 2
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
        joint = brute_joint(u, s0, pol)
        rate = evaluate_rate(u, s0, pol)
        assert rate == pytest.approx(
            directed_information(JointLaw(joint.shape, joint), n) / n, abs=1e-12
        )
        assert rate == pytest.approx(brute_directed_info(joint, n) / n, abs=1e-12)


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


def log_table(pol):
    """The model's x-major log-policy table of a CausalPolicy."""
    return np.log(np.concatenate(pol.steps)).T


def path_law(u, s0, pol):
    """The brute-force joint, flattened in the model's (x_1, y_1, ..., x_N, y_N) path order."""
    n = pol.horizon
    joint = brute_joint(u, s0, pol)
    return joint.transpose([k for i in range(n) for k in (i, n + i)]).ravel()


def test_path_model_objective_matches_evaluate_rate(rng):
    u = mixing_pair(0.25, 0.125).channel
    model = _PathModel(u, 0, 3)
    pol = rand_policy(rng, 2, 2, 3)
    value, exact = model.forward(log_table(pol))
    # the factors multiplied as a sum of logs, not in a product
    assert exact
    assert value == pytest.approx(evaluate_rate(u, 0, pol), abs=1e-14)
    # z = ln P(x^N | y^N) and L = log2 Wseq - log2 Q(y^N) against the brute-force joint
    prob = path_law(u, 0, pol)
    q = np.bincount(model.yidx, weights=prob)[model.yidx]
    z, loss = model.buf
    live = prob > 0
    assert np.allclose(z[live], np.log(prob[live] / q[live]), rtol=0, atol=1e-12)
    assert np.allclose(loss[live], np.log2(model.wseq[live] / q[live]), rtol=0, atol=1e-12)


def test_path_model_flags_outputs_the_policy_cannot_reach():
    # a noiseless channel whose policy all but never sends 1: Q(1) underflows
    # to 0 though a path reaches it, so L is not the gradient there
    u = single_state(np.eye(2))
    model = _PathModel(u, 0, 1)
    assert model.forward(np.log([[0.5], [0.5]]))[1]
    assert not model.forward(np.array([[0.0], [-1000.0]]))[1]


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
    model = _PathModel(u, 0, 2)
    h = 1e-5
    policies = [rand_policy(rng, 2, 2, 2) for _ in range(20)]
    # and the policy a capped solve returns
    theta = optimize_paths(u, 0, 2, OptimizerSettings(max_iters=5))[2]
    policies.append(CausalPolicy(2, 2, 2, tuple(np.exp(theta[:, c]).T for c in model.steps)))
    for pol in policies:
        model.forward(log_table(pol))
        loss = model.buf[1].copy()
        prob = path_law(u, 0, pol)
        move = path_law(u, 0, rand_policy(rng, 2, 2, 2)) - prob

        def rate(t):
            return _path_rate(prob + t * move, model.logw, model.yidx, 2, 2)[0]

        assert (rate(h) - rate(-h)) / (2 * h) == pytest.approx(move @ loss / 2, abs=1e-7)


def lattice_theta(steps):
    """The lattice's x-major log-policy table of per-step tables pi_n[s, y^{n-1}, x]."""
    with np.errstate(divide="ignore"):
        return np.log(np.concatenate([t.reshape(-1, t.shape[-1]) for t in steps]).T)


def test_lattice_matches_the_path_model(rng):
    """The rate, the upper bound and the rate after one update agree with the
    path tables at the policy the lattice policy induces."""
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
        if case % 4 >= 2:
            continue  # a policy with zeros: no path-model log table
        assert exact
        paths = _PathModel(u, s0, n)
        assert paths.forward(log_table(causal_policy(u, s0, steps)))[1]
        update, path_update = np.empty(lattice.theta_shape), np.empty(paths.theta_shape)
        assert lattice.backward(update) == pytest.approx(paths.backward(path_update), abs=1e-12)
        path_policy = CausalPolicy(n, x_size, y_size,
                                   tuple(np.exp(path_update[:, c]).T for c in paths.steps))
        assert evaluate_rate(u, s0, lattice.policy(update)) == pytest.approx(
            evaluate_rate(u, s0, path_policy), abs=1e-12)


def test_lattice_flags_outputs_the_policy_cannot_reach():
    # as the path model: Q(1) underflows to 0 though a path reaches it
    u = single_state(np.eye(2))
    model = _Lattice(u, 0, 1)
    assert model.forward(np.log([[0.5], [0.5]]))[1]
    assert not model.forward(np.array([[0.0], [-1000.0]]))[1]


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
        law = n_fold_law(compose_unifilar(u), xs, s0, n).sum(axis=-1)
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


@pytest.mark.parametrize("settings", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}, {"tol": np.inf}, {"max_iters": -5},
])
def test_optimizer_settings_reject_malformed_values(settings):
    # a bracket never closes below tol <= 0, NaN compares false with any
    # width, and an infinite tol stops before the first update
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
    est = optimize_rate(u, s0, n, AGREE)
    value, upper, _ = optimize_paths(u, s0, n, AGREE)
    assert est.value <= upper + 1e-12
    assert value <= est.upper + 1e-12
    if est.diagnostics["converged"] and upper - value < AGREE.tol:
        assert est.value == pytest.approx(value, abs=1e-9)


def test_path_oracle_loop_closes_on_memoryless_channels(rng):
    """The oracle's own over-relaxed loop, at N = 1 on one state, brackets
    the capacity that plain alternating maximization finds, and closes."""
    channels = [[[0.75, 0.25], [0.25, 0.75]], [[1.0, 0.0], [0.25, 0.75]], np.eye(3)]
    shapes = [(2, 3), (3, 2), (3, 3), (4, 2)]
    channels += [stochastic(rng, shape, zeros=False) for shape in shapes]
    for w in channels:
        value, upper, _ = optimize_paths(single_state(w), 0, 1, FAST)
        ref = plain_dmc_capacity(w)
        assert upper - value < FAST.tol
        assert value - ref.bracket <= ref.capacity <= upper + ref.bracket


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_lattice_bracket_agrees_with_the_path_oracle(name):
    u = GALLERY[name]()
    for n in range(1, 6):
        for s0 in range(u.s_size):
            assert_brackets_agree(u, s0, n)


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


class ColumnCheckedLattice(_Lattice):
    """A lattice that checks every policy the solver evaluates: no NaN, and
    every column a distribution, so its largest entry is at least
    ln 1/|X| and no column is all -inf."""

    def forward(self, theta):
        x = theta.shape[0]
        assert np.all(theta.max(axis=0) >= -np.log(x) - 1e-12)
        np.testing.assert_allclose(np.exp(theta).sum(axis=0), 1.0, rtol=0, atol=1e-12)
        return super().forward(theta)


@pytest.mark.parametrize("n", [5, 6])
def test_face_restriction_closes_the_degenerate_trapdoor_cells(n):
    """From N = 5 one input of the trapdoor's optimum vanishes only like 1/k
    under the update; dropped to exactly 0, it no longer holds the bracket
    open, which closes within 400 updates where 2,000 left it at ~1e-9."""
    cfg = OptimizerSettings(max_iters=400)
    model = ColumnCheckedLattice(trapdoor(), 0, n)
    with np.errstate(invalid="raise", divide="raise"):
        _, value, upper, counts = _ascend(model, np.full(model.theta_shape, -np.log(2)), cfg)
    assert upper - value < cfg.tol
    assert counts["pruned"] > 0 and counts["readmitted"] == 0
    if n == 5:
        assert value >= 0.6374684737677  # where 2,000 updates on every input stopped
    est = optimize_rate(trapdoor(), 0, n, cfg)
    assert (est.value, est.upper) == (value, upper)
    assert est.diagnostics == {**counts, "converged": True}


class RecordingLattice(_Lattice):
    """A lattice that keeps the rate of the last policy it evaluated: when
    ``_ascend`` stops, that of its final iterate."""

    def forward(self, theta):
        self.last, exact = super().forward(theta)
        return self.last, exact


def test_face_restriction_never_lowers_the_reported_rate():
    """A change of face can lower the rate: on the trapdoor at N = 10, the
    522 inputs dropped at update 32 cost the iterate 4e-9. A run reports the
    best policy it saw, so its rate never falls as the iteration cap grows."""
    values, iterates, pruned = [], [], []
    for cap in range(29, 36):
        model = RecordingLattice(trapdoor(), 0, 10)
        _, value, _, counts = _ascend(model, np.full(model.theta_shape, -np.log(2)),
                                      OptimizerSettings(max_iters=cap))
        values.append(value)
        iterates.append(model.last)
        pruned.append(counts["pruned"])
    assert values == sorted(values)
    lowered = [k for k in range(1, len(values))
               if pruned[k] > pruned[k - 1] and iterates[k] < values[k - 1] - 1e-9]
    assert lowered
    assert all(values[k] == values[k - 1] for k in lowered)


def test_rotated_tables_leave_the_best_policy_as_it_was_seen():
    """The ascent reuses the lattice's tables for its iterates, so the best
    policy is copied out at a change of face. At each cap around the
    trapdoor's first change of face at N = 10, some of which return a policy
    seen before it, the returned policy's rate is the returned value, bit
    for bit."""
    for cap in range(29, 36):
        model = _Lattice(trapdoor(), 0, 10)
        theta, value, _, _ = _ascend(model, np.full(model.theta_shape, -np.log(2)),
                                     OptimizerSettings(max_iters=cap))
        assert value == _Lattice(trapdoor(), 0, 10).forward(theta)[0]


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


def underflowed(theta):
    """The finite entries of a log-policy whose probability is exactly 0."""
    return np.isfinite(theta) & (np.exp(theta) == 0.0)


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


class UnderflowCheckedLattice(_Lattice):
    """A lattice that checks every iterate the update is computed from: no
    finite entry whose probability is 0."""

    def backward(self, out, admit=None):
        assert not underflowed(self.theta).any()
        return super().backward(out, admit)


@pytest.mark.parametrize("seed", [199, 4468])
def test_plain_updates_drop_their_underflowed_inputs_too(seed):
    """Not only an over-relaxed trial can push a probability to 0: on these
    random channels, found by a search over 5,000, a plain update does."""
    rng = np.random.default_rng(seed)
    s, x, y = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
    n = int(rng.integers(1, 4 if x * y == 4 else 3))
    w = stochastic(rng, (s, x, y), zeros=bool(rng.integers(0, 2)))
    u = UnifilarChannel(w, rng.integers(0, s, size=(s, x, y)))
    model = UnderflowCheckedLattice(u, int(rng.integers(0, s)), n)
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
    model = ColumnCheckedLattice(mixing_pair(0.25, 0.125).channel, 0, 2)
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
    model = ColumnCheckedLattice(single_state([[1 - eps, eps], [0.0, 1.0]]), 0, 1)
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
    model = ColumnCheckedLattice(u, s0, n)
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


class IterateCheckedLattice(_Lattice):
    """A lattice that checks the policy of every iterate ``_ascend`` moves
    to: ``backward`` runs on the last accepted policy."""

    def backward(self, out, admit=None):
        np.testing.assert_allclose(np.exp(self.theta).sum(axis=0), 1.0, rtol=0, atol=1e-12)
        return super().backward(out, admit)


@settings(max_examples=40, deadline=None)
@given(unifilar_cells())
def test_every_accepted_iterate_is_a_policy(cell):
    rng, u, s0, n = cell
    model = IterateCheckedLattice(u, s0, n)
    with np.errstate(divide="ignore"):
        theta = np.log(stochastic(rng, model.theta_shape[::-1], zeros=True)).T.copy()
    _ascend(model, theta, OptimizerSettings(max_iters=200))


@pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
def test_optimize_fast_value_matches_dense_value(cell):
    # the path-table value against the dense and the brute-force oracle
    build, s0, n, _ = GOLDEN_CELLS[cell]
    u = build()
    est = optimize_rate(u, s0, n, GOLDEN)
    joint = brute_joint(u, s0, est.policy)
    dense = directed_information(JointLaw(joint.shape, joint), n) / n
    assert est.value == pytest.approx(dense, abs=1e-12)
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


def test_finite_n_bracket_frozen_family():
    u = noiseless_z_pair(0.25).channel
    br = finite_n_bracket(u, 2, FAST)
    values = {est.initial_state: est.value for est in br.per_state}
    assert values[0] == pytest.approx(1.0, abs=1e-6)
    assert values[1] == pytest.approx(C_Z_QUARTER, abs=1e-6)
    assert br.low.value <= br.high.value
    assert br.low.state_mode == "min" and br.high.state_mode == "max"
    # the min and max over states of the optima lie in these brackets
    uppers = [est.upper for est in br.per_state]
    assert (br.low.upper, br.high.upper) == (min(uppers), max(uppers))
    for est in (br.low, br.high):
        assert est.diagnostics["converged"] == (est.upper - est.value < FAST.tol)


def test_finite_n_bracket_mixing_states_agree():
    u = mixing_pair(0.25, 0.25).channel
    br = finite_n_bracket(u, 4, FAST)
    assert br.high.value - br.low.value < 0.05


def test_bracket_single_state_degenerate():
    u = single_state([[0.75, 0.25], [0.25, 0.75]])
    br = finite_n_bracket(u, 2, FAST)
    assert br.low.value == br.high.value


def test_dmc_capacity_identity():
    res = dmc_capacity(np.eye(2))
    assert res.capacity == pytest.approx(1.0, abs=1e-10)
    assert res.bracket < 1e-10


def test_dmc_capacity_bsc():
    res = dmc_capacity([[0.75, 0.25], [0.25, 0.75]])
    assert res.capacity == pytest.approx(BSC_QUARTER, abs=1e-10)
    assert np.allclose(res.input_dist, [0.5, 0.5], atol=1e-6)


def test_dmc_capacity_z_channel():
    res = dmc_capacity([[0.75, 0.25], [0.0, 1.0]])
    assert res.capacity == pytest.approx(C_Z_QUARTER, abs=1e-9)
    assert res.input_dist[0] == pytest.approx(P0_QUARTER, abs=1e-6)


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
