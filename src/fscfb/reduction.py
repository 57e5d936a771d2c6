"""Step-bounded oracles and the effective-sequence scaffolding built on them.

An oracle is any object answering ``halted_within(n, m)``: has the
underlying program halted on input n within m steps? Answers must be
deterministic and monotone in m. A genuinely non-recursive halting set
cannot be constructed, so mocks and a small counter-machine interpreter
stand in for it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, OracleError, ResourceLimitError

_BIT_BUDGET = 10**7  # denominator bits, m_max (m_max + 1) / 2, a sequence may hold


class FixedHaltingOracle:
    """Mock oracle with prescribed halting steps.

    ``times`` is a dict from input to halting step (missing inputs never
    halt) or a single int used for every input.
    """

    def __init__(self, times):
        if isinstance(times, dict):
            self._lookup = times.get
        elif isinstance(times, int):
            self._lookup = lambda n: times
        else:
            raise DomainError("times must be a dict or an int")

    def halted_within(self, n: int, m: int) -> bool:
        step = self._lookup(n)
        return step is not None and step <= m


class NeverHaltingOracle:
    def halted_within(self, n: int, m: int) -> bool:
        return False


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
    def __init__(self, program):
        self.program = parse_program(program) if isinstance(program, str) else tuple(program)

    def halted_within(self, n: int, m: int) -> bool:
        return run_bounded(self.program, n, m) is not None


def lambda_double_sequence(oracle, n: int, m: int) -> Fraction:
    """Dyadic value 2^(-l) if the oracle halts on n within l <= m steps, else 2^(-m).

    Non-increasing in m for fixed n, and |value(m) - value(M)| < 2^(-M)
    whenever m >= M, so the sequence converges effectively.
    """
    if n < 1 or m < 1:
        raise DomainError(f"indices must be >= 1, got n={n}, m={m}")
    try:
        if not oracle.halted_within(n, m):
            return Fraction(1, 2**m)
        # answers are monotone in the step bound, so bisect for the first
        # halting step: at most ceil(log2 m) more queries
        lo, hi = 1, m
        while lo < hi:
            mid = (lo + hi) // 2
            if oracle.halted_within(n, mid):
                hi = mid
            else:
                lo = mid + 1
    except OracleError:
        raise
    except Exception as exc:
        raise OracleError(f"oracle query failed for n={n}: {exc}") from exc
    return Fraction(1, 2**lo)


def lambda_sequence(oracle, n: int, m_max: int) -> list:
    """[lambda_double_sequence(oracle, n, m) for m in 1..m_max] from one search.

    Answers are monotone in m, so the search at m_max finds l = min(h, m_max)
    for the first halting step h, and lambda(n, m) = 2^(-min(l, m)). A search
    per m would take O(m_max^2) machine steps. The values are exact, so
    their denominators hold m_max (m_max + 1) / 2 bits; more than
    ``_BIT_BUDGET`` is refused before the oracle is asked.
    """
    bits = m_max * (m_max + 1) // 2
    if bits > _BIT_BUDGET:
        raise ResourceLimitError(
            f"m_max = {m_max} needs {bits} denominator bits, over the budget of {_BIT_BUDGET}",
            limit=_BIT_BUDGET,
        )
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
