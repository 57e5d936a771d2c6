"""Record the reference outputs the benchmark checks against.

    python3 bench/record.py solve [structure]

Runs one pass of each named workload on every input variant and writes
``bench/reference/<workload>.json``. Run it only when the benchmark itself
changes: the references hold the outputs of the program at the commit that
recorded them, and later versions are checked against them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads
from workloads import POOL, ROOT, SRC


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in sys.argv[1:]:
        workdir = run.WORK / "record" / workload
        variants = {}
        for variant in range(POOL):
            workloads.prepare(workload, variant, workdir)
            ops = workloads.ops(workload, variant, workdir)
            _, results = run.run_pass(ops)
            variants[str(variant)] = {op.name: run.record(op, r) for op, r in zip(ops, results)}
            print(f"{workload} variant {variant} recorded", file=sys.stderr, flush=True)
        path = run.REFERENCE / f"{workload}.json"
        path.write_text(dump(workload, variants))
    return 0


def dump(workload: str, variants: dict) -> str:
    """Reference file text; identical outputs are stored once, under their digest."""
    outputs, index = {}, {}
    for variant, entries in variants.items():
        index[variant] = {}
        for name, entry in entries.items():
            text = json.dumps(entry, sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            outputs[digest] = text
            index[variant][name] = digest
    lines = [f'{{"workload": {json.dumps(workload)}, "pool": {POOL},', '"outputs": {']
    lines.append(",\n".join(f"{json.dumps(k)}: {v}" for k, v in sorted(outputs.items())))
    lines.append('},\n"variants": {')
    lines.append(",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                            for k, v in sorted(index.items(), key=lambda kv: int(kv[0]))))
    lines.append("}}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
