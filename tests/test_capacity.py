import tracemalloc

import numpy as np
import pytest

from fscfb import (
    CausalPolicy,
    DomainError,
    JointLaw,
    OptimizerSettings,
    ResourceLimitError,
    ShapeError,
    UnifilarChannel,
    ValidationError,
    directed_information,
    dmc_capacity,
    evaluate_rate,
    finite_n_bracket,
    mixing_pair,
    noiseless_z_pair,
    optimize_rate,
    z_channel_closed_form,
)
from fscfb.capacity import _PathModel, _ascend
from conftest import brute_directed_info, brute_joint, rand_policy, rand_unifilar

C_Z_QUARTER = 0.5582386267373455
P0_QUARTER = 0.42782559679176746
BSC_QUARTER = 0.18872187554086717   # 1 - H2(1/4)
BSC_011 = 0.500084041835472         # 1 - H2(0.11)

FAST = OptimizerSettings(restarts=2)


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
    [(0, 8, ResourceLimitError), (2, 7, IndexError), (-1, 7, IndexError)],
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


def test_path_model_objective_matches_evaluate_rate(rng):
    u = mixing_pair(0.25, 0.125).channel
    model = _PathModel(u, 0, 3)
    pol = rand_policy(rng, 2, 2, 3)
    fast, _, _ = model.objective(np.concatenate(pol.steps))
    # the same factors multiplied in the same order: equal to the bit
    assert fast == evaluate_rate(u, 0, pol)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: noiseless_z_pair(0.25).channel,
        lambda: mixing_pair(0.25, 0.125).channel,
    ],
)
def test_gradient_matches_finite_differences(rng, builder):
    u = builder()
    model = _PathModel(u, 0, 2)
    h = 1e-6
    thetas = [rng.normal(0, 1.0, model.theta_shape) for _ in range(20)]
    # and the logits an ascent from a random start returns
    start = rng.normal(0, 1.0, model.theta_shape)
    thetas.append(_ascend(model, start, OptimizerSettings(max_iters=300))[0])
    for theta in thetas:
        pi = model.softmax(theta)
        _, prob, loss = model.objective(pi)
        grad = model.gradient(pi, prob, loss)
        worst = 0.0
        for idx in np.ndindex(theta.shape):
            t = theta.copy()
            t[idx] += h
            up = model.objective_at(t)
            t[idx] -= 2 * h
            down = model.objective_at(t)
            worst = max(worst, abs((up - down) / (2 * h) - grad[idx]))
        assert worst <= 1e-5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_optimize_noiseless_state(n):
    u = noiseless_z_pair(0.25).channel
    est = optimize_rate(u, 0, n, FAST)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_optimize_z_state_matches_closed_form():
    u = noiseless_z_pair(0.25).channel
    est = optimize_rate(u, 1, 1, FAST)
    assert est.value == pytest.approx(C_Z_QUARTER, abs=1e-6)
    assert est.policy.steps[0][0, 0] == pytest.approx(P0_QUARTER, abs=1e-4)


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
    u = noiseless_z_pair(0.25).channel
    with pytest.raises(ResourceLimitError):
        optimize_rate(u, 0, 7, OptimizerSettings())


def test_optimize_is_deterministic():
    u = mixing_pair(0.25, 0.125).channel
    a = optimize_rate(u, 0, 2, FAST)
    b = optimize_rate(u, 0, 2, FAST)
    assert a.value == b.value
    assert all(np.array_equal(x, y) for x, y in zip(a.policy.steps, b.policy.steps))


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


# (channel, s0, N) -> (iterations, final_grad_norm, value) of one capped run
GOLDEN_CELLS = {
    "mixing": (lambda: mixing_pair(0.25, 0.125).channel, 0, 2,
               (300, 3.6095870116353845e-05, 0.4564106311455448)),
    "trapdoor": (trapdoor, 0, 3, (300, 7.879806068623157e-06, 0.5962220170565199)),
    "noiseless-z": (lambda: noiseless_z_pair(0.25).channel, 1, 2,
                    (15, 7.975736460164029e-10, 0.5582386267373455)),
}
GOLDEN = OptimizerSettings(restarts=1, max_iters=300)


@pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
def test_optimize_golden_trajectory(cell):
    """The Barzilai-Borwein softmax ascent's exact trajectory on small cells.

    The values were recorded before the per-step logit tables became one flat
    table; that rewrite keeps the arithmetic and so every bit. The reported
    value is the ascent's own path-table objective at the best logits. An
    optimizer that replaces the ascent replaces this test.
    """
    build, s0, n, want = GOLDEN_CELLS[cell]
    est = optimize_rate(build(), s0, n, GOLDEN)
    d = est.diagnostics
    assert (d["iterations"], d["final_grad_norm"], est.value) == want


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
    assert br.bracket_only
    assert br.low.state_mode == "min" and br.high.state_mode == "max"


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
