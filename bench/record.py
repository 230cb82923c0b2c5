"""Record the digest reference of every op the workloads can issue.

    python3 bench/record.py [--workload NAME ...]

Runs each op once, refuses to record an op whose structural check fails,
and rewrites ``bench/reference.json`` (other workloads' entries are kept).
For the queries workload it also records ``structure_constant_oracle`` for
every cuv query, which runs check against.
The reference pins the program's printed output at the commit that
recorded it; a later change whose output differs fails its ops.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from worker import ORACLE_KEY, REFERENCE, digest, load_library


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    lib, _ = load_library()
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    bad = 0
    for workload in args.workload or workloads.WORKLOADS:
        table = {}
        ops = workloads.all_ops(workload, lib)
        oracle = workloads.oracle_values(lib, ops) if workload == "queries" else {}
        for op in ops:
            result = op.call()
            problem = workloads.check(workload, op, result, oracle)
            if problem:
                print(f"{workload} {op.key}: {problem}", file=sys.stderr)
                bad += 1
                continue
            table[op.key] = digest(workloads.render(workload, op, result))
        if workload == "queries":
            ref[ORACLE_KEY] = dict(sorted(oracle.items()))
        ref[workload] = dict(sorted(table.items()))
        print(f"{workload}: {len(table)} digests", file=sys.stderr)
    if bad:
        print(f"{bad} ops failed their checks; reference not written", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
