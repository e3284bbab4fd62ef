"""Self-test: two traced runs at one seed must print identical deterministic counters.

Run from the repository root:

    python3 benchmarks/selftest.py

Each workload runs twice at seed 3 in fresh processes with ``--trace 1``; the
counters of pass 0 (nodes, pops, engine calls, Jacobian calls, spectral
iterations, report bytes and the sha256 over the canonical reports) must
match exactly, and both runs must pass their correctness checks.  In
``classify_mixed`` the report counters must cover exactly one report per
operation: the dumps inside ``tensor_digest`` are not reports.  Exits
non-zero otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent / "bench.py"
WORKLOADS = ("certify_holds", "classify_mixed", "verify_suites")
SEED = 3


def _run(workload: str) -> tuple[dict, bool]:
    out = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    counters = next(json.loads(line[len("COUNTERS "):]) for line in lines
                    if line.startswith("COUNTERS "))
    result = json.loads(lines[-1])
    return counters, out.returncode == 0 and result["correct"]


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, correct1 = _run(workload)
        second, correct2 = _run(workload)
        same = first == second
        one_report_per_op = (workload != "classify_mixed"
                             or first["report_dumps"] == first["ops_per_pass"])
        ok &= same and correct1 and correct2 and one_report_per_op
        print(f"{workload}: counters {'identical' if same else 'DIFFER'}, "
              f"correct {correct1 and correct2}, one report per operation "
              f"{one_report_per_op}: {json.dumps(first, sort_keys=True)}")
        if not same:
            print(f"  second run: {json.dumps(second, sort_keys=True)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
