from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fscfb import (
    CounterMachineOracle,
    DomainError,
    FixedHaltingOracle,
    OptimizerSettings,
    OracleError,
    ResourceLimitError,
    effective_certificate,
    lambda_double_sequence,
    lambda_sequence,
    mixing_pair,
    noiseless_z_pair,
    optimize_rate,
    parse_program,
    run_bounded,
    z_channel_closed_form,
)
from conftest import CountingOracle, brute_certificate

FAST = OptimizerSettings()

PARITY = """
# halts iff r0 is even
jz r0 6
dec r0
jz r0 5
dec r0
jmp 0
jmp 5        # odd inputs spin here forever
halt
"""


def test_lambda_sequence_halting_oracle():
    oracle = FixedHaltingOracle({1: 3})
    values = [lambda_double_sequence(oracle, 1, m) for m in range(1, 7)]
    assert values == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 8),
    ]


def test_lambda_sequence_never_halting():
    values = [lambda_double_sequence(FixedHaltingOracle({}), 5, m) for m in range(1, 6)]
    assert values == [Fraction(1, 2**m) for m in range(1, 6)]


def test_lambda_sequence_certificate(rng):
    for _ in range(25):
        step = None if rng.random() < 0.3 else int(rng.integers(1, 15))
        oracle = FixedHaltingOracle({7: step} if step else {})
        values = [lambda_double_sequence(oracle, 7, m) for m in range(1, 21)]
        for m in range(1, 20):
            assert values[m] <= values[m - 1]  # non-increasing in the budget
        for big_m in range(1, 21):
            bound = Fraction(1, 2**big_m)
            for m in range(big_m, 21):
                assert abs(values[m - 1] - values[big_m - 1]) < bound


dyadic = st.builds(lambda k, e: Fraction(k, 2**e), st.integers(-8, 8), st.integers(0, 40))


@given(st.lists(dyadic, max_size=30) | st.builds(lambda v, n: [v] * n, dyadic, st.integers(0, 30)))
@example([])
@example([Fraction(1, 4)] * 5)
def test_effective_certificate_equals_the_pairwise_check(values):
    assert effective_certificate(values) == brute_certificate(values)


@pytest.mark.parametrize("m", [1, 2, 7, 16, 33])
def test_lambda_sequence_matches_linear_scan_in_log_queries(m):
    for step in list(range(1, m + 2)) + [None]:
        reference = FixedHaltingOracle({1: step} if step else {})
        linear = next(
            (Fraction(1, 2**k) for k in range(1, m + 1) if reference.halting_step(1, k)),
            Fraction(1, 2**m),
        )
        oracle = CountingOracle(reference)
        assert lambda_double_sequence(oracle, 1, m) == linear
        assert oracle.queries == 1


def test_lambda_sequence_domain_and_failures():
    with pytest.raises(DomainError):
        lambda_double_sequence(FixedHaltingOracle({1: 1}), 0, 3)
    with pytest.raises(DomainError):
        lambda_double_sequence(FixedHaltingOracle({1: 1}), 1, 0)

    class Broken:
        def halting_step(self, n, m):
            raise RuntimeError("tape jam")

    with pytest.raises(OracleError, match="tape jam"):
        lambda_double_sequence(Broken(), 1, 3)


@pytest.mark.parametrize("answer", [0, 4, 2.5, "3", True], ids=["0", "m+1", "2.5", "'3'", "True"])
def test_lambda_sequence_refuses_an_answer_that_is_not_a_step(answer):
    # a step outside 1..m, a non-integer, or the True of a yes/no oracle
    class Odd:
        def halting_step(self, n, m):
            return answer

    with pytest.raises(OracleError, match=f"answered {answer!r} for n=1, m=3"):
        lambda_double_sequence(Odd(), 1, 3)
    with pytest.raises(OracleError, match=f"answered {answer!r}"):
        lambda_sequence(Odd(), 1, 3)


def test_lambda_sequence_refuses_more_than_its_denominator_bits_before_any_query():
    # exact values 2^-m hold M(M+1)/2 denominator bits: 10^7 admits M = 4,471
    oracle = CountingOracle(FixedHaltingOracle({}))
    with pytest.raises(ResourceLimitError, match="4472") as exc:
        lambda_sequence(oracle, 1, 4472)
    assert exc.value.limit == 10**7
    # m_max alone is over the budget; M(M+1)/2 would have too many digits to print
    with pytest.raises(ResourceLimitError, match="needs at least") as exc:
        lambda_sequence(oracle, 1, 10**3000)
    assert exc.value.limit == 10**7
    assert oracle.queries == 0
    assert lambda_sequence(oracle, 1, 4471)[-1] == Fraction(1, 2**4471)


def test_fixed_oracle_takes_a_dict():
    assert FixedHaltingOracle({2: 3}).halting_step(2, 3) == 3
    assert FixedHaltingOracle({2: 3}).halting_step(2, 2) is None
    assert FixedHaltingOracle({2: 3}).halting_step(1, 99) is None
    for times in (3, lambda n: 3):
        with pytest.raises(DomainError, match="a dict"):
            FixedHaltingOracle(times)


def test_counter_machine_parse_errors():
    with pytest.raises(OracleError):
        parse_program("bump r0")
    with pytest.raises(OracleError):
        parse_program("jz r0 9")
    with pytest.raises(OracleError):
        parse_program("inc x3")
    with pytest.raises(OracleError):
        parse_program("halt now")


def test_counter_machine_parity_program():
    prog = parse_program(PARITY)
    assert run_bounded(prog, 0, 10) is not None
    assert run_bounded(prog, 4, 50) is not None
    assert run_bounded(prog, 3, 5000) is None
    # empty programs halt immediately
    assert run_bounded(parse_program("# nothing"), 9, 1) == 0


def test_counter_machine_oracle_monotone():
    oracle = CounterMachineOracle(PARITY)
    halted_at = oracle.halting_step(6, 100)
    for m in range(1, 40):
        assert oracle.halting_step(6, m) == (halted_at if m >= halted_at else None)
    assert all(oracle.halting_step(7, m) is None for m in range(1, 60))


@pytest.mark.parametrize("text", ["", "# nothing\n", "halt\n", "inc r1\ndec r0\n",
                                  "jz r0 2\ninc r1\ninc r1\n", PARITY],
                         ids=["empty", "comments", "halt-only", "run-off", "jump-off", "parity"])
def test_counter_machine_lambda_matches_a_linear_scan_over_run_bounded(text):
    # the first step bound at which run_bounded reports a halt; a program
    # that halts before its first instruction counts as halted at bound 1
    program = parse_program(text)
    oracle = CounterMachineOracle(text)
    for n in range(1, 6):
        for m in (1, 2, 3, 12):
            first = next((k for k in range(1, m + 1) if run_bounded(program, n, k) is not None), m)
            assert lambda_double_sequence(oracle, n, m) == Fraction(1, 2**first)


def test_counter_machine_feeds_lambda_sequence():
    oracle = CounterMachineOracle(PARITY)
    lam_even = lambda_double_sequence(oracle, 2, 40)
    lam_odd = lambda_double_sequence(oracle, 3, 40)
    assert lam_even > Fraction(1, 2**40)  # halted: frozen dyadic value
    assert lam_odd == Fraction(1, 2**40)  # still running: keeps shrinking


def capacity_gap(u, s_a, s_b, horizon, cfg):
    """The finite-horizon initial-state capacity difference; the argument
    order fixes the sign."""
    return optimize_rate(u, s_a, horizon, cfg).value - optimize_rate(u, s_b, horizon, cfg).value


def test_capacity_gap_zero_for_same_state():
    u = mixing_pair("1/4", "1/4").channel
    assert capacity_gap(u, 1, 1, 2, FAST) == 0.0


def test_capacity_gap_frozen_family():
    u = noiseless_z_pair("1/4").channel
    gap = capacity_gap(u, 0, 1, 2, FAST)
    expect = 1.0 - z_channel_closed_form(0.25)[0]
    assert gap == pytest.approx(expect, abs=1e-5)
    # order of the states fixes the sign
    assert capacity_gap(u, 1, 0, 2, FAST) == pytest.approx(-expect, abs=1e-5)


def test_capacity_gap_small_when_mixing():
    u = mixing_pair("1/4", "1/4").channel
    assert abs(capacity_gap(u, 0, 1, 4, FAST)) < 0.05
