"""tenclass benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 benchmarks/bench.py --workload certify_holds --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end metrics.
``--trace 1`` runs each pass untraced and then again with spans recorded at
every layer boundary, and reports the per-layer metrics plus the tracing
overhead.  Every run first checks the
built-in fixture corpus (untimed), checks each operation's output, prints a
readable table and the deterministic counters, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import os

# one process, one thread: pin suite parallelism and BLAS before numpy loads
os.environ["TENCLASS_THREADS"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_share": "share",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tenclass; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Median time of ``import tenclass`` (numpy included) in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def _tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    pct = 100 * (n - 10) // n if n > 10 else 100
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100) in integers
    return pct, xs[rank - 1]


def _timed_pass(workload, p: int):
    workload.inputs(p)  # built outside the timed pass
    t0, c0 = time.perf_counter(), time.process_time()
    res = workload.run_pass(p)
    res.wall = time.perf_counter() - t0
    res.cpu = time.process_time() - c0
    return res


def _closed_loop(step, seconds: float) -> None:
    """Call ``step(p)`` for passes 0, 1, ... and stop where the run ends closest to ``seconds``.

    ``step`` returns the wall time it took.
    """
    start = time.perf_counter()
    walls = []
    p = 0
    while True:
        walls.append(step(p))
        p += 1
        if time.perf_counter() - start + 0.5 * statistics.median(walls) >= seconds:
            return


def _end_to_end(results, setup_s: float) -> tuple[dict, dict]:
    latencies = [x for r in results for x in r.latencies]
    ops = sum(r.ops for r in results)
    verdicts = sum(r.verdicts for r in results)
    undecided = sum(r.undecided for r in results)
    pct, tail = _tail(latencies)
    # medians over passes: a pass that meets a burst of load on the host, or
    # a rare slow draw, moves a mean but not the median
    wall = statistics.median(r.wall for r in results)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in results),
        "ops_per_s": results[0].ops / wall,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_share": 1.0 - undecided / verdicts if verdicts else 0.0,
    }
    extra = {
        "passes": len(results),
        "ops_per_pass": results[0].ops,
        "latency_tail_percentile": pct,
        "latency_samples": len(latencies),
        "undecided_share": undecided / verdicts if verdicts else float("nan"),
        "failed_share": sum(r.failed for r in results) / ops,
    }
    return metrics, extra


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "TENCLASS_THREADS": os.environ["TENCLASS_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"== {title}")
    for name, unit in units.items():
        v = values.get(name)
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:52s} {shown:>14s} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify_holds", "classify_mixed", "verify_suites"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tenclass" / "__init__.py").is_file():
        print(f"benchmark: no tenclass sources under {SRC}", file=sys.stderr)
        return 2

    import_s = _import_seconds()
    sys.path.insert(0, str(SRC))
    import tenclass
    from tenclass import verify

    if Path(tenclass.__file__).resolve().parent != SRC / "tenclass":
        print(f"benchmark: imported tenclass from {tenclass.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    env = _environment()
    print("ENV " + json.dumps(env, sort_keys=True))

    problems = []
    t0 = time.perf_counter()
    fixtures = verify.run_fixtures()
    print(f"fixtures: passed={fixtures['passed']} in {time.perf_counter() - t0:.3f} s (untimed)")
    if not fixtures["passed"]:
        problems.append("fixture corpus mismatch")

    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    print(f"setup: import {import_s:.4f} s + inputs and warm-up "
          f"{', '.join(f'{s:.4f}' for s in setups)} s")

    suite_names = list(verify.SUITES)
    untraced, traced, first_pass = [], [], []
    recorder = tracing.Recorder()

    def untraced_step(p):
        untraced.append(_timed_pass(workload, p))
        return untraced[-1].wall

    def paired_step(p):
        # the same pass untraced, then traced: neighbours in time see the same
        # machine speed, so their wall-time ratio is the tracing overhead
        untraced.append(_timed_pass(workload, p))
        with recorder.installed():
            traced.append(_timed_pass(workload, p))
        if not first_pass:
            first_pass.append(recorder.snapshot())
        return untraced[-1].wall + traced[-1].wall

    _closed_loop(paired_step if args.trace else untraced_step, args.seconds)
    results = untraced + traced
    if args.trace and [r.sha256 for r in traced] != [r.sha256 for r in untraced]:
        problems.append("traced passes gave other results than untraced passes")

    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    metrics, extra = _end_to_end(untraced, setup_s)
    _print_table(f"{args.workload} end to end (untraced)", metrics, END_TO_END_UNITS)
    print("  " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in extra.items()))

    counters = {"sha256": results[0].sha256, "ops_per_pass": results[0].ops}
    if args.trace:
        overhead = sum(r.wall for r in traced) / sum(r.wall for r in untraced) - 1.0
        layers = tracing.layer_metrics(recorder.snapshot(), len(traced), overhead, suite_names)
        units = tracing.per_layer_metric_units(suite_names)
        _print_table(f"{args.workload} per layer (traced, mean per pass)", layers, units)
        # exact counts of pass 0, which every run at this seed repeats
        first = tracing.layer_metrics(first_pass[0], 1, overhead, suite_names)
        for key, metric in (("nodes", "subdivision.nodes"), ("pops", "subdivision.pops"),
                            ("engine_calls", "classifiers.engine_calls"),
                            ("decision_requests", "classifiers.decision_requests"),
                            ("jacobian_calls", "core.apply_jacobian.calls"),
                            ("spectral_iterations", "spectral.radius.iterations"),
                            ("report_bytes", "tensor_io.report_bytes")):
            counters[key] = None if first[metric] is None else int(first[metric])
        counters["report_dumps"] = first_pass[0].counts["report_dumps"]
        out_metrics = {name: {"value": 0.0 if layers[name] is None else layers[name],
                              "unit": unit} for name, unit in units.items()}
    else:
        out_metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    print("COUNTERS " + json.dumps(counters, sort_keys=True))

    correct = not problems
    for p in problems:
        print(f"benchmark: FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
