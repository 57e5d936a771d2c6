"""The fscfb benchmark: seeded CLI workloads, checked outputs, per-layer traces.

    python3 bench/run.py --workload solve --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from anywhere; it works in the checkout that holds it, imports the
program from ``src/`` and keeps its files in ``bench/.work/``. One run:

1. drives the workload's invocations through ``fscfb.cli.main`` in this
   process, pass after pass, for ``--seconds`` (``wall_s`` is the median
   pass time, ``peak_rss_mb`` the process's peak resident memory);
2. times fresh interpreters that import fscfb and build and load the
   workload's input files, ``SETUP_FIRST`` before the first pass and one
   after each pass (``setup_s`` is their median);
3. checks every output against ``reference/<workload>.json`` and against
   the first pass's bytes; an invocation that exits nonzero or fails a
   check counts in ``failed``.

With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.PER_LAYER`` instead; a traced pass must print
byte for byte what the untraced one printed. The last line of stdout is one
JSON object; the line before it holds the machine facts and pass details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from workloads import FULL, POOL, RATE_MAX, ROOT, SRC, WORKLOADS

WORK = Path("bench") / ".work"
REFERENCE = Path(__file__).resolve().parent / "reference"
SETUP_FIRST = 4

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

RATE_TOL = 1e-6
EXACT_TOL = 1e-12
SKIP, RATE, BRACKET = "skip", "rate", "bracket"
# Per subcommand, the row fields that are not compared exactly:
# - RATE: an optimizer's estimate, the exact directed information of the
#   policy it found; it may exceed the reference but not drop below it by
#   more than RATE_TOL, and never exceeds log2|Y|;
# - BRACKET: the midpoint of a certified bracket whose width is the row's
#   "bracket" field; the bracket must overlap the reference's;
# - SKIP: how the solver got there (iterations, step sizes, and the
#   maximizing input law in dmc-capacity's p_x* columns).
# Every other field must equal the reference, floats to within 1e-12.
RULES = {
    "capacity": {"rate": RATE, "converged": SKIP, "restarts": SKIP, "iterations": SKIP,
                 "grad_norm": SKIP},
    "discontinuity-demo": {"est_s0_0": RATE, "est_s0_1": RATE, "gap": SKIP},
    "dmc-capacity": {"capacity": BRACKET, "iterations": SKIP, "bracket": SKIP},
    "gallery": {"path": SKIP, "file_digest": SKIP},
}


def machine_facts() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def invoke(argv) -> tuple:
    """Run one CLI invocation in this process; return (exit code, stdout, stderr, seconds)."""
    import fscfb.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fscfb.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this invocation, not the run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(ops) -> tuple:
    start = time.perf_counter()
    results = [invoke(op.argv) for op in ops]
    return time.perf_counter() - start, results


def written_digest(op) -> str | None:
    """Digest of the channel file a gallery invocation wrote, by content."""
    if op.argv[0] != "gallery":
        return None
    path = Path(op.argv[op.argv.index("--out") + 1])
    doc = json.loads(path.read_text())
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def record(op, result) -> dict:
    """The reference entry of one invocation's output."""
    code, out, err, _ = result
    if code != 0:
        raise RuntimeError(f"{op.name} exited {code}: {err.strip()}")
    entry = {"rows": json.loads(out)["rows"]}
    digest = written_digest(op)
    if digest:
        entry["written"] = digest
    return entry


def check(op, result, expected) -> str | None:
    """Why the invocation's output fails its reference, or None if it passes."""
    code, out, err, _ = result
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    if expected is None:
        return "no reference entry"
    try:
        rows = json.loads(out)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        return "report rows are not a list of objects"
    if len(rows) != len(expected["rows"]):
        return f"{len(rows)} rows, reference has {len(expected['rows'])}"
    rules = RULES.get(op.argv[0], {})
    for i, (row, ref) in enumerate(zip(rows, expected["rows"])):
        for key, want in ref.items():
            rule = rules.get(key, SKIP if key.startswith("p_x") else None)
            if rule == SKIP:
                continue
            if key not in row:
                return f"row {i} lacks {key}"
            got = row[key]
            numeric = isinstance(got, (int, float)) and not isinstance(got, bool)
            if rule in (RATE, BRACKET) and not numeric:
                return f"row {i} {key}={got!r} is not a number"
            if rule == RATE:
                if not want - RATE_TOL <= got <= RATE_MAX + EXACT_TOL:
                    return f"row {i} {key}={got!r} outside [{want!r} - {RATE_TOL}, {RATE_MAX}]"
            elif rule == BRACKET:
                half_widths = (row.get("bracket", 0.0) + ref["bracket"]) / 2
                if abs(got - want) > half_widths + EXACT_TOL:
                    return f"row {i} {key}={got!r}, reference {want!r}; brackets do not overlap"
            elif isinstance(want, float) and numeric:
                if abs(got - want) > EXACT_TOL:
                    return f"row {i} {key}={got!r}, reference {want!r}"
            elif got != want:
                return f"row {i} {key}={got!r}, reference {want!r}"
    if "written" in expected:
        try:
            digest = written_digest(op)
        except (OSError, ValueError) as exc:
            return f"written channel file unreadable: {exc}"
        if digest != expected["written"]:
            return "written channel file differs from the reference"
    return None


def load_reference(workload: str, variant: int) -> dict:
    doc = json.loads((REFERENCE / f"{workload}.json").read_text())
    return {name: doc["outputs"][digest] for name, digest in doc["variants"][str(variant)].items()}


def time_setup(workload: str, variant: int, workdir: Path) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path("bench") / "workloads.py"), workload, str(variant),
         str(workdir)],
        check=True,
    )
    return time.perf_counter() - start


class Judge:
    """Counts attempts and failures; every pass must repeat the first one's bytes."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.first = None
        self.verdicts = None
        self.attempted = 0
        self.failures = []

    def add(self, results, label):
        if self.first is None:
            self.first = results
            self.verdicts = [check(op, r, self.reference.get(op.name))
                             for op, r in zip(self.ops, results)]
        for op, result, first, verdict in zip(self.ops, results, self.first, self.verdicts):
            self.attempted += 1
            if result[0] == 0 and result[1] != first[1]:
                verdict = f"{label} stdout differs from the first pass"
            elif result[0] != 0:
                verdict = check(op, result, None)
            if verdict:
                self.failures.append(f"{label} {op.name}: {verdict}")


def measure(workload, seed, seconds, trace, sizes=FULL, reference=None) -> tuple:
    """Run one workload; return (result object, details)."""
    variant = seed % POOL
    workdir = WORK / workload
    ops = workloads.ops(workload, variant, workdir, sizes)
    if reference is None:
        reference = load_reference(workload, variant)
    judge = Judge(ops, reference)
    details = {"workload": workload, "seed": seed, "variant": variant}
    # the whole run, set-up samples and first pass too, keeps within --seconds
    start = time.perf_counter()

    if not trace:
        # set-up samples are spread over the run, so that one slow spell of
        # the host does not decide their median
        setup = [time_setup(workload, variant, workdir) for _ in range(SETUP_FIRST)]
        walls, passes = [], []
        while True:
            wall, results = run_pass(ops)
            walls.append(wall)
            passes.append(results)
            judge.add(results, f"pass {len(walls)}")
            setup.append(time_setup(workload, variant, workdir))
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        op_s = {op.name: statistics.median(p[i][3] for p in passes) for i, op in enumerate(ops)}
        details.update(pass_s=walls, setup_runs_s=setup, op_median_s=op_s)
    else:
        # the set-up is traced once, in this process, and added to every
        # pass's figures: it is what the channel_io and gallery layers serve
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workloads.prepare(workload, variant, workdir)
        finally:
            tracer.uninstall()
        setup_layers = tracer.snapshot()
        wall, results = run_pass(ops)
        untraced = [wall]
        judge.add(results, "untraced pass 1")
        traced, snapshots = [], []
        while True:
            tracer.reset()
            tracer.install()
            try:
                wall, results = run_pass(ops)
            finally:
                tracer.uninstall()
            traced.append(wall)
            snapshots.append(tracer.snapshot())
            judge.add(results, f"traced pass {len(traced)}")
            if time.perf_counter() - start + statistics.median(traced) > seconds:
                break
            wall, results = run_pass(ops)
            untraced.append(wall)
            judge.add(results, f"untraced pass {len(untraced)}")
        # median_low keeps counts whole: it picks a pass, never averages two
        values = {
            name: setup_layers[name] + statistics.median_low(s[name] for s in snapshots)
            for name in setup_layers
        }
        values["capacity.linesearch_accept_ratio"] = (
            values["capacity.ascend.gradient_calls"] / values["capacity.ascend.objective_calls"]
            if values["capacity.ascend.objective_calls"] else 0.0
        )
        values["trace.pass_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in tracing.PER_LAYER.items()}
        details.update(traced_pass_s=traced, untraced_pass_s=untraced)

    details["failures"] = judge.failures
    result = {
        "correct": not judge.failures,
        "attempted": judge.attempted,
        "failed": len(judge.failures),
        "metrics": metrics,
    }
    return result, details


def run_all(args) -> int:
    """Run every workload in its own process and print a summary table."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    lines = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        frac = result["failed"] / result["attempted"]
        lines.append(f"{workload:<10} failed_frac {frac:.4g} fraction "
                     f"({result['failed']} of {result['attempted']} ops)")
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}.{name}"] = metric
            lines.append(f"{workload:<10} {name} {metric['value']:.6g} {metric['unit']}")
    print("\n".join(lines))
    print(json.dumps(totals))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not (SRC / "fscfb" / "__init__.py").is_file():
        print(f"error: no fscfb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fscfb

    if Path(fscfb.__file__).resolve().parent != (SRC / "fscfb").resolve():
        print(f"error: imported fscfb from {fscfb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    facts = machine_facts()
    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    facts["loadavg_end"] = list(os.getloadavg())
    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not args.trace:
        frac = result["failed"] / result["attempted"]
        print(f"failed_frac {frac:.4g} fraction ({result['failed']} of {result['attempted']} ops)",
              file=sys.stderr)
    print(json.dumps({"machine": facts, **details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
