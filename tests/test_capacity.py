import itertools

import numpy as np
import pytest

from fscfb import (
    CausalPolicy,
    DomainError,
    OptimizerSettings,
    ResourceLimitError,
    ShapeError,
    UnifilarChannel,
    ValidationError,
    dmc_capacity,
    evaluate_rate,
    feedback_channel_kernel,
    finite_n_bracket,
    mixing_pair,
    noiseless_z_pair,
    optimize_rate,
    trajectory_law,
    z_channel_closed_form,
)
from fscfb.capacity import _PathModel
from conftest import rand_policy, rand_unifilar

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


def test_policy_kernel_round_trip(rng):
    pol = rand_policy(rng, 2, 2, 3)
    kernel = pol.to_kernel()
    # step 3 table at history x=(1,0), y=(0,1) must match the flat row
    flat = (1 * 2 + 0) * 4 + (0 * 2 + 1)
    assert np.allclose(kernel.steps[2][1, 0, 0, 1], pol.steps[2][flat], atol=1e-15)


def test_feedback_kernel_tracks_the_state():
    u = noiseless_z_pair(0.25).channel
    k = feedback_channel_kernel(u, 1, 2)
    # every step-2 slice is W at the state that f assigns to the history
    for y1, x1 in np.ndindex(2, 2):
        s1 = u.f[1, x1, y1]
        assert np.allclose(k.steps[1][y1, x1], u.w[s1], atol=1e-15)
    k0 = feedback_channel_kernel(u, 0, 2)
    # from s0 = 0 the pair (x1, y1) = (0, 1) moves to the noisy state
    assert np.allclose(k0.steps[1][1, 0], u.w[1], atol=1e-15)
    assert np.allclose(k0.steps[1][0, 0], u.w[0], atol=1e-15)


def test_trajectory_law_matches_chain_rule(rng):
    u = mixing_pair(0.25, 0.125).channel
    for s0 in (0, 1):
        pol = rand_policy(rng, 2, 2, 3)
        joint = trajectory_law(u, s0, pol)
        brute = np.zeros((2,) * 6)
        for xs in itertools.product((0, 1), repeat=3):
            for ys in itertools.product((0, 1), repeat=3):
                p, s, h = 1.0, s0, 0
                for n in range(3):
                    p *= pol.steps[n][h, xs[n]] * u.w[s, xs[n], ys[n]]
                    s = int(u.f[s, xs[n], ys[n]])
                    h = h * 4 + xs[n] * 2 + ys[n]
                brute[xs + ys] = p
        assert np.abs(joint.table - brute).max() < 1e-15


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
    assert fast == pytest.approx(evaluate_rate(u, 0, pol), abs=1e-12)


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
    for _ in range(20):
        theta = rng.normal(0, 1.0, model.theta_shape)
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
    assert est.diagnostics["grad_check_error"] <= 1e-5


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


# (channel, s0, N) -> (iterations, final_grad_norm, fast_value) of one capped run
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
    table; that rewrite keeps the arithmetic and so every bit. ``fast_value``
    is the ascent's own path-table objective, so the dense evaluator's
    rounding does not enter. An optimizer that replaces the ascent replaces
    this test.
    """
    build, s0, n, want = GOLDEN_CELLS[cell]
    d = optimize_rate(build(), s0, n, GOLDEN).diagnostics
    assert (d["iterations"], d["final_grad_norm"], d["fast_value"]) == want


@pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
def test_optimize_fast_value_matches_dense_value(cell):
    build, s0, n, _ = GOLDEN_CELLS[cell]
    est = optimize_rate(build(), s0, n, GOLDEN)
    assert est.diagnostics["fast_value"] == pytest.approx(est.value, abs=1e-12)


def test_gradient_check_leaves_the_policy_bit_exact(rng):
    # moving a logit by +h, -2h, +h in place can round it to a neighbour
    for _ in range(4):
        u = rand_unifilar(rng)
        on = optimize_rate(u, 0, 3, OptimizerSettings(restarts=2, max_iters=300))
        off = optimize_rate(
            u, 0, 3, OptimizerSettings(restarts=2, max_iters=300, check_gradient=False)
        )
        assert "grad_check_error" in on.diagnostics
        assert all(np.array_equal(a, b) for a, b in zip(on.policy.steps, off.policy.steps))
        assert on.value == off.value


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
