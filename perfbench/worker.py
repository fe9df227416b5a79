"""One timed round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--check] [--tiny]

run.py starts this once per round.  It imports spacmeter from the
checkout's src/, runs the workload's timed span, runs the point-queries
fault inputs and, with --check, the correctness checks, both after the
timed span.  The last line of its output is one JSON object with the
round's measurements.  With --trace, the public functions are wrapped by
the tracer first and the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spacmeter  # noqa: E402

import workloads  # noqa: E402


def blas_threads() -> int | None:
    """Threads of the OpenBLAS loaded into this process, if it says."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    if not Path(spacmeter.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"spacmeter imported from {spacmeter.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = workload.prepare(args.seed, args.tiny)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    outcome = workload.run(inputs)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = blas_threads()  # before the checks load scipy's own BLAS
    if tracer is not None:
        tracer.uninstall()  # the fault inputs and checks below are not traced

    attempted, failed, faults = outcome.attempted, outcome.failed, []
    if hasattr(workload, "faults"):
        tried, missed, faults = workload.faults()
        attempted += tried
        failed += missed
    problems = workload.check(inputs, outcome, args.seed) if args.check else []

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib,
        "points": outcome.points,
        "attempted": attempted,
        "failed": failed,
        "faults": faults,
        "latencies_ms": outcome.latencies_ms,
        "digest": outcome.digest(),
        "problems": problems,
        "cpu_count": os.cpu_count(),
        "blas_threads": threads,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layer_units"] = tracing.layer_metrics()
        tracer.write(HERE / "out" / f"{args.workload}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
