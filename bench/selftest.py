"""Self-test of the benchmark harness, at tiny sizes.

    python3 bench/selftest.py

For each workload it records one tiny pass as the reference and checks
that an untraced and a traced run emit every metric BENCHMARK.json names,
with its unit, and fail nothing, and that a second traced run repeats the
first one's iteration, objective-call, oracle-query and machine-step counts. It then corrupts one reference value and
checks that exactly that invocation fails, in every pass. Last, it checks
that the benchmark exits nonzero without printing a result when the
program is not beside it. Prints "selftest ok" on success.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run
import workloads
from workloads import POOL, ROOT, SRC, TINY

SEED = 5
# counts that must repeat exactly between two traced runs at one seed
EXACT_COUNTS = ("capacity.iterations", "capacity.objective.calls",
                "reduction.oracle_queries", "reduction.machine_steps")


def corrupt(reference: dict, op) -> None:
    """Change the first compared field in the reference entry of ``op``."""
    row = reference[op.name]["rows"][0]
    rules = run.RULES.get(op.argv[0], {})
    key = next(k for k in row if rules.get(k) != run.SKIP)
    value = row[key]
    if isinstance(value, bool):
        row[key] = not value
    elif isinstance(value, (int, float)):
        row[key] = value + 0.01
    else:
        row[key] = f"{value}-corrupted"


def check_metrics(result, declared, what):
    names = {m["name"] for m in declared}
    assert set(result["metrics"]) == names, f"{what}: {set(result['metrics']) ^ names}"
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{what}: {m['name']} in {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{what}: {m['name']} = {got['value']!r}"


def check_workload(workload, spec):
    variant = SEED % POOL
    workdir = run.WORK / workload
    workloads.prepare(workload, variant, workdir)
    ops = workloads.ops(workload, variant, workdir, TINY)
    _, results = run.run_pass(ops)
    reference = {op.name: run.record(op, r) for op, r in zip(ops, results)}

    traced = []
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, ())):
        what = f"{workload} trace {trace}"
        result, details = run.measure(workload, SEED, 0, trace, TINY, reference)
        assert result["correct"] and result["failed"] == 0, f"{what}: {details['failures']}"
        assert result["attempted"] >= len(ops), what
        if declared:
            check_metrics(result, declared, what)
        if trace:
            traced.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
    assert traced[0] == traced[1], f"{workload}: counts differ between runs: {traced}"

    bad = copy.deepcopy(reference)
    name = ops[0].name
    corrupt(bad, ops[0])
    result, details = run.measure(workload, SEED, 0, 0, TINY, bad)
    passes = len(details["pass_s"])
    assert not result["correct"], f"{workload}: corrupted {name} went unnoticed"
    assert result["failed"] == passes, f"{workload}: {details['failures']}"
    assert all(f" {name}: " in f for f in details["failures"]), details["failures"]


def check_refuses_without_program():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the program"
    assert not proc.stdout.strip(), f"printed a result without the program: {proc.stdout}"


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import fscfb  # noqa: F401  (loads every module before tracing)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        check_workload(workload, spec)
        print(f"{workload}: ok", flush=True)
    check_refuses_without_program()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
