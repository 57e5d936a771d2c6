"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fscfb import (
    FixedHaltingOracle,
    compose_unifilar,
    dmc_capacity,
    extend_states,
    iid_rate,
    indecomposability_gaps,
    inverse_k_pair,
    lambda_double_sequence,
    mixing_pair,
    noiseless_z_pair,
    optimize_rate,
    strongly_connected,
    tv_distance,
    z_channel_closed_form,
)
from fscfb.capacity import _Lattice
from fscfb.cli import main
from conftest import single_state
from oracle import CausalPolicy, causal_policy, evaluate_rate, linearized_max, path_law


def zchannel(eps: float):
    return np.array([[1.0 - eps, eps], [0.0, 1.0]])


def test_criterion_1_closed_form_vs_oracle():
    # at the closed form's law p*, the enumerated bracket [I(p*), max_x D(W_x || Q)]
    started = time.monotonic()
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
        closed, law = z_channel_closed_form(float(eps))
        u, policy = single_state(zchannel(float(eps))), CausalPolicy.iid(law, 2, 1)
        lower, upper = evaluate_rate(u, 0, policy), linearized_max(u, 0, policy)
        assert lower - 1e-12 <= closed <= upper + 1e-12
        assert upper - lower <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: closed form lies in the enumerated bracket "
          f"[I(p*), max_x D(W_x || Q)] at its own law, at most 1e-12 wide, "
          f"for eps in {{1/10, 1/4, 2/5}} ({elapsed:.3f}s)")


def test_criterion_2_noiseless_feedback_rate():
    started = time.monotonic()
    u = noiseless_z_pair(Fraction(1, 4)).channel
    for n in (1, 2, 3, 4):
        est = optimize_rate(u, 0, n)
        assert est.value == pytest.approx(1.0, abs=1e-6), f"N={n}: {est.value}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 2 PASS: noiseless initial state reaches 1.0 +/- 1e-6 "
          f"for N in 1..4 ({elapsed:.1f}s)")


def test_criterion_3_memoryless_equality_regime():
    rng = np.random.default_rng(3)
    random_channels = []
    for _ in range(25):
        w = rng.random((2, 2))
        w /= w.sum(axis=1, keepdims=True)
        random_channels.append(w)
    # near-useless channels: a BSC flipping with 0.45, and a random channel
    # of capacity 0.0148 that takes the plain update 781 iterations
    near_useless = [np.array([[0.55, 0.45], [0.45, 0.55]]),
                    np.array([[2 / 7, 5 / 7], [1 / 6, 5 / 6]])]
    worst = 0.0
    for w in random_channels + near_useless:
        u = single_state(w)
        res = dmc_capacity(w)
        # the enumerated bracket [I(p), max_x D(W_x || Q)] at the returned law p
        lower, upper = evaluate_rate(u, 0, res.policy), linearized_max(u, 0, res.policy)
        assert upper - lower <= 1e-9
        capacity = (lower + upper) / 2
        for n in (1, 2, 3):
            est = optimize_rate(u, 0, n)
            worst = max(worst, abs(est.value - capacity))
            assert abs(est.value - capacity) <= 1e-4
        # dmc_capacity's bracket end by end: its value is I(p), its upper min(U*, 1)
        assert abs(res.value - lower) <= 1e-12
        assert abs(res.upper - min(upper, 1.0)) <= 1e-12
        assert res.diagnostics["iterations"] <= 50
    print(f"ACCEPTANCE 3 PASS: {len(random_channels)} random and {len(near_useless)} "
          f"near-useless memoryless wraps match the enumerated bracket at "
          f"dmc_capacity's law for N in 1..3 within 1e-4 (worst {worst:.2e}); "
          f"dmc_capacity's bracket lies in it")


def single_letter_sum(u, policy):
    """sum_n I(X_n; Y_n) in bits, from the path oracle's law of every path."""
    pairs = path_law(u, 0, policy)[0].reshape((u.x_size, u.y_size) * policy.horizon)
    total = 0.0
    for n in range(policy.horizon):
        others = tuple(k for k in range(pairs.ndim) if k // 2 != n)
        m = pairs.sum(axis=others)  # p(x_n, y_n)
        outer = m.sum(axis=1, keepdims=True) * m.sum(axis=0, keepdims=True)
        live = m > 0
        total += float((m[live] * np.log2(m[live] / outer[live])).sum())
    return total


def test_criterion_4_memoryless_bound_suite():
    # on a memoryless channel I(X^N -> Y^N) <= sum_n I(X_n; Y_n), with
    # equality under iid inputs (Massey, ISIT 1990): the library's rate of
    # iid laws and of random feedback policies against the path oracle's sum
    rng = np.random.default_rng(4)
    iid_checked = 0
    for trial in range(1000):
        x_size = int(rng.integers(2, 4))
        y_size = int(rng.integers(2, 4))
        horizon = int(rng.integers(1, 5))
        w = rng.random((x_size, y_size))
        w /= w.sum(axis=1, keepdims=True)
        u = single_state(w)
        iid = trial % 2 == 0
        if iid:
            dist = rng.random(x_size)
            dist /= dist.sum()
            directed = horizon * iid_rate(u, 0, dist, horizon)
            policy = CausalPolicy.iid(dist, y_size, horizon)
        else:
            lattice = _Lattice(u, 0, horizon)
            pi = rng.random(lattice.theta_shape)
            pi /= pi.sum(axis=0)
            directed = horizon * lattice.rate(pi)[0]
            policy = causal_policy(u, 0, lattice.policy(np.log(pi)))
        sum_single = single_letter_sum(u, policy)
        assert directed <= sum_single + 1e-9
        if iid:
            assert abs(directed - sum_single) <= 1e-9
            iid_checked += 1
    print(f"ACCEPTANCE 4 PASS: the library's directed information never exceeds "
          f"the single-letter sum on 1000 instances; equality on {iid_checked} iid laws")


def test_criterion_5_discontinuity_at_desk_scale():
    eps = Fraction(1, 4)
    closed, _ = z_channel_closed_form(float(eps))
    gap0 = 1.0 - closed
    assert abs(gap0 - 0.4417) <= 1e-4  # closed-form state gap at eps = 1/4

    base = compose_unifilar(mixing_pair(eps, 0).channel)
    for k in (2, 4, 8, 16, 32, 64):
        gk = compose_unifilar(inverse_k_pair(eps, k).channel)
        assert tv_distance(base, gk) == 2.0 / k  # exact for dyadic 1/k

    g4 = inverse_k_pair(eps, 4).channel
    est0 = optimize_rate(g4, 0, 4)
    est1 = optimize_rate(g4, 1, 4)
    assert abs(est0.value - est1.value) < gap0
    print(f"ACCEPTANCE 5 PASS: distance to the limit channel is exactly 2/k while "
          f"its state gap stays {gap0:.4f}; k=4 horizon-4 spread "
          f"{abs(est0.value - est1.value):.2e}")


def test_criterion_6_connectivity_verdicts():
    frozen = compose_unifilar(noiseless_z_pair(Fraction(1, 4)).channel)
    assert not strongly_connected(frozen).connected
    for mix in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
        law = compose_unifilar(mixing_pair(Fraction(1, 4), mix).channel)
        assert strongly_connected(law).connected
    for s_size in (3, 4, 5):
        g = extend_states(mixing_pair(Fraction(1, 4), Fraction(1, 4)), s_size)
        assert strongly_connected(compose_unifilar(g.channel)).connected
    print("ACCEPTANCE 6 PASS: frozen pair disconnected; mixing family and "
          "state extensions strongly connected")


def test_criterion_7_indecomposability_decay():
    law = compose_unifilar(mixing_pair(Fraction(1, 4), Fraction(1, 4)).channel)
    gaps = {n: indecomposability_gaps(law, n)[-1] for n in (2, 4, 6, 8, 10)}
    assert gaps[2] >= gaps[4] >= gaps[6] >= gaps[8]
    assert gaps[10] < 0.1
    print(f"ACCEPTANCE 7 PASS: state-memory gap decays "
          f"{gaps[2]:.4f} -> {gaps[8]:.4f} and is {gaps[10]:.4f} < 0.1 at n=10")


def test_criterion_8_effective_sequence_certificates():
    rng = np.random.default_rng(8)
    for _ in range(100):
        step = None if rng.random() < 0.25 else int(rng.integers(1, 19))
        oracle = FixedHaltingOracle({11: step} if step is not None else {})
        values = [lambda_double_sequence(oracle, 11, m) for m in range(1, 25)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        for big_m in range(1, 21):
            bound = Fraction(1, 2**big_m)
            assert all(
                abs(values[m - 1] - values[big_m - 1]) < bound
                for m in range(big_m, 25)
            )
    print("ACCEPTANCE 8 PASS: dyadic sequences certified effectively convergent "
          "for 100 oracles")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    channel = tmp_path / "mix.json"
    parity = tmp_path / "parity.cm"
    parity.write_text("jz r0 6\ndec r0\njz r0 5\ndec r0\njmp 0\njmp 5\nhalt\n")
    out_file = tmp_path / "report.csv"
    invocations = [
        ["gallery", "mixing", "--eps", "1/4", "--mix", "1/8", "--out", str(channel)],
        ["validate", str(channel), "--format", "csv"],
        ["capacity", str(channel), "--n", "2", "--s0", "0", "--format", "json"],
        ["directed-info", str(channel), "--n", "2", "--s0", "0", "--format", "csv"],
        ["dmc-capacity", str(channel), "--s0", "1", "--format", "csv"],
        ["discontinuity-demo", "--eps", "1/4", "--k-list", "2", "--n", "2",
         "--format", "csv"],
        ["lambda-seq", "--program", str(parity), "--input", "2", "--m-max", "10",
         "--format", "csv"],
        ["indecomp", str(channel), "--n", "4", "--sweep-n", "--format", "csv",
         "--out", str(out_file)],
        ["connectivity", str(channel), "--format", "table"],
    ]
    for argv in invocations:
        captures = []
        for _ in range(2):
            assert main(list(argv)) == 0
            out, _ = capsys.readouterr()
            files = b""
            if "--out" in argv:
                files = Path(argv[argv.index("--out") + 1]).read_bytes()
            captures.append((out.encode(), files))
        assert captures[0] == captures[1], f"non-deterministic output for {argv[0]}"
    print("ACCEPTANCE 9 PASS: every subcommand reproduces byte-identical "
          "reports across consecutive runs")
