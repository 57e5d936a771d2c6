"""Step-bounded oracles and the effective-sequence scaffolding built on them.

An oracle is any object answering ``halting_step(n, m)``: the step at
which the underlying program halts on input n, if that is within m steps,
else None. A genuinely non-recursive halting set cannot be constructed, so
a mock and a small counter-machine interpreter stand in for it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BIT_BUDGET, DomainError, OracleError, check_budget, describe_int


class FixedHaltingOracle:
    """Mock oracle with prescribed halting steps: ``times`` maps an input
    to its halting step, and inputs it does not hold never halt."""

    def __init__(self, times: dict):
        if not isinstance(times, dict):
            raise DomainError("times must be a dict from input to halting step")
        self.times = times

    def halting_step(self, n: int, m: int):
        step = self.times.get(n)
        return step if step is not None and step <= m else None


# --- minimal counter-machine programs ------------------------------------
#
# One instruction per line; '#' starts a comment. Registers are r0, r1, ...
# with r0 holding the input and the rest starting at 0. Targets are 0-based
# instruction indices. Executing an instruction costs one step; `halt` or
# running past the last instruction stops the machine.
#
#   inc rK        add one to rK
#   dec rK        subtract one from rK (floors at 0)
#   jz rK T       jump to T when rK == 0
#   jmp T         jump to T
#   halt          stop

def parse_program(text: str) -> tuple:
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped.lower().split())
    program = []
    for idx, tokens in enumerate(lines):
        op = tokens[0]
        try:
            if op == "halt":
                if len(tokens) != 1:
                    raise ValueError("halt takes no operands")
                program.append(("halt",))
            elif op in ("inc", "dec"):
                program.append((op, _reg(tokens[1])))
            elif op == "jz":
                program.append(("jz", _reg(tokens[1]), int(tokens[2])))
            elif op == "jmp":
                program.append(("jmp", int(tokens[1])))
            else:
                raise ValueError(f"unknown instruction {op!r}")
        except (IndexError, ValueError) as exc:
            raise OracleError(f"bad instruction at line {idx}: {' '.join(tokens)}") from exc
    for idx, ins in enumerate(program):
        target = ins[2] if ins[0] == "jz" else ins[1] if ins[0] == "jmp" else None
        if target is not None and not 0 <= target < len(program):
            raise OracleError(f"jump target {target} out of range at line {idx}")
    return tuple(program)


def _reg(token: str) -> int:
    if not token.startswith("r") or not token[1:].isdigit():
        raise ValueError(f"bad register {token!r}")
    return int(token[1:])


def run_bounded(program, n: int, max_steps: int):
    """Execute up to max_steps instructions; return the halting step or None."""
    regs = {0: int(n)}
    pc = 0
    steps = 0
    while steps < max_steps:
        if pc >= len(program):
            return steps
        ins = program[pc]
        steps += 1
        op = ins[0]
        if op == "halt":
            return steps
        if op == "inc":
            regs[ins[1]] = regs.get(ins[1], 0) + 1
            pc += 1
        elif op == "dec":
            regs[ins[1]] = max(0, regs.get(ins[1], 0) - 1)
            pc += 1
        elif op == "jz":
            pc = ins[2] if regs.get(ins[1], 0) == 0 else pc + 1
        else:  # jmp
            pc = ins[1]
    if pc >= len(program):
        return steps
    return None


class CounterMachineOracle:
    def __init__(self, text: str):
        self.program = parse_program(text)

    def halting_step(self, n: int, m: int):
        # a program that halts before its first instruction halts at step 1
        step = run_bounded(self.program, n, m)
        return None if step is None else max(step, 1)


def lambda_double_sequence(oracle, n: int, m: int) -> Fraction:
    """Dyadic value 2^(-h) if the oracle halts on n at step h <= m, else 2^(-m).

    Non-increasing in m for fixed n, and |value(m) - value(M)| < 2^(-M)
    whenever m >= M, so the sequence converges effectively. The oracle is
    asked once; an answer other than None or a step in 1..m is refused.
    """
    if n < 1 or m < 1:
        raise DomainError(
            f"indices must be >= 1, got {describe_int('n', n, '=')}, {describe_int('m', m, '=')}")
    try:
        step = oracle.halting_step(n, m)
    except OracleError:
        raise
    except Exception as exc:
        raise OracleError(f"oracle query failed for n={n}: {exc}") from exc
    if step is None:
        return Fraction(1, 2**m)
    # a bool is an int, and would be the answer of a yes/no oracle
    if isinstance(step, bool) or not isinstance(step, int) or not 1 <= step <= m:
        raise OracleError(f"oracle answered {step!r} for n={n}, m={m}; expected None or 1..{m}")
    return Fraction(1, 2**step)


def lambda_sequence(oracle, n: int, m_max: int) -> list:
    """[lambda_double_sequence(oracle, n, m) for m in 1..m_max] from one query.

    The query at m_max gives l = min(h, m_max) for the halting step h, and
    lambda(n, m) = 2^(-min(l, m)). The values are exact, so their
    denominators hold m_max (m_max + 1) / 2 bits; more than ``BIT_BUDGET``
    is refused before the oracle is asked. An m_max below 1 counts no bits
    and is refused as an index.
    """
    check_budget("m_max", m_max, lambda m: max(m, 0) * (m + 1) // 2, BIT_BUDGET,
                 "denominator bits")
    last = lambda_double_sequence(oracle, n, m_max)
    halt = last.denominator.bit_length() - 1
    return [Fraction(1, 2**m) for m in range(1, halt)] + [last] * (m_max - halt + 1)


def effective_certificate(values) -> list:
    """Per-index effective-convergence check for a dyadic sequence.

    Entry M-1 (1-based M) is True when |values[m-1] - values[M-1]| < 2^(-M)
    for every m >= M in the given range. One backward pass keeps the
    suffix's largest and smallest value: every such m is within 2^(-M)
    exactly when both of those are. The rational values are compared as
    integer numerators over their least common denominator ``den``, where
    a gap d is below 2^(-M) exactly when d * 2^M < den.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    nums = [num * (den // d) for num, d in ratios]
    out = []
    hi = lo = nums[-1] if nums else None
    for big_m in range(len(nums), 0, -1):
        ref = nums[big_m - 1]
        hi, lo = max(hi, ref), min(lo, ref)
        out.append(max(hi - ref, ref - lo) << big_m < den)
    return out[::-1]
