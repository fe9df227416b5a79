"""Run one benchmark workload of spacmeter and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from src/; the
run fails, printing no result, if src/spacmeter is not there.

The timed work runs in rounds, each in a fresh interpreter (worker.py),
so no cache is carried from one round to the next, as for a CLI user.
Rounds repeat while the next one is expected to end within S seconds, and
at least two run.  Set-up time is the median of several fresh interpreters
importing spacmeter, launched one after each round (the rest at the end),
so that they sample the same stretch of time as the rounds.  Every round does the same
operations, so the share of failed operations does not depend on how many
rounds fit.  The first round also runs the correctness checks, after its
timed span; every later round must give bit-identical outputs.

--trace 0 prints the end-to-end metrics of untraced rounds.  --trace 1 runs
untraced and traced rounds in pairs and prints the per-layer metrics of the
traced ones, with trace.overhead_s the traced minus the untraced wall time.

The rounds' environment loses the caller's thread settings, so the
caller's shell cannot change what is measured.  The sweep pool then runs
at its default size; the BLAS and OpenMP libraries get one thread each,
because two OpenBLAS threads on a shared two-core machine spin-wait on
each other, and a busy neighbour core then slows every workload 2-3x
(see README.md, "Thread environment").
The last line of output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("strength-sweeps", "verify-full", "point-queries")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mib": "MiB",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
}
ONE_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SCRUBBED_ENV = ONE_THREAD_ENV + (
    "SPACMETER_THREADS",
    "PYTHONPATH",
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONPYCACHEPREFIX",
)
SETUP_LAUNCHES = 7
# At least two rounds (or traced pairs) per run: point-queries then pools at
# least 400 point latencies, twenty of them beyond p95.
MIN_UNITS = 2
# Stop starting rounds after this long, whatever --seconds says, so that a
# run ends well inside three minutes.
WALL_CAP_S = 120.0
ROUND_TIMEOUT_S = 150.0

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); import spacmeter; "
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
)


class RoundFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    env.update(dict.fromkeys(ONE_THREAD_ENV, "1"))
    return env


def setup_launch(env: dict[str, str]) -> float:
    """Seconds from spawning an interpreter to `import spacmeter` returning."""
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RoundFailed(f"import spacmeter failed:\n{proc.stderr}")
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def run_round(args, env: dict[str, str], traced: bool, check: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--trace"] * traced + ["--check"] * check + ["--tiny"] * args.tiny
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"round exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_95(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[dict], setup: float) -> dict:
    latencies = [x for r in rounds for x in r["latencies_ms"]]
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "points_per_s": statistics.median(r["points"] / r["wall_s"] for r in rounds),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        "point_p50_ms": statistics.median(latencies),
        "point_p95_ms": percentile_95(latencies),
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(rounds: list[dict], traced: list[dict]) -> dict:
    units = traced[0]["layer_units"]
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in rounds))
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = metric(value, unit)
    return out


def stop(signum, frame):
    # subprocess.run kills and waits for the running round on the way out
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="a few points per round (self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "spacmeter" / "__init__.py").is_file():
        print(f"no spacmeter sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    env = child_env()
    launches = 3 if args.tiny else SETUP_LAUNCHES
    try:
        setup_launch(env)  # discarded: it may still be writing bytecode caches
        setup_samples = [setup_launch(env)]
        started = time.monotonic()
        rounds, traced, unit_costs = [], [], []
        while True:
            unit_start = time.monotonic()
            # in a traced run, alternate which of the pair goes first
            kinds = [False] if not args.trace else [len(traced) % 2 == 1, len(traced) % 2 == 0]
            for kind in kinds:
                result = run_round(args, env, kind, check=not rounds and not traced)
                (traced if kind else rounds).append(result)
            if len(setup_samples) < launches:
                setup_samples.append(setup_launch(env))
            unit_costs.append(time.monotonic() - unit_start)
            elapsed = time.monotonic() - started
            limit = min(args.seconds, WALL_CAP_S)
            if len(unit_costs) >= MIN_UNITS and elapsed + statistics.median(unit_costs) > limit:
                break
        while len(setup_samples) < launches:
            setup_samples.append(setup_launch(env))
        setup = statistics.median(setup_samples)
    except (RoundFailed, subprocess.TimeoutExpired) as err:
        print(f"{args.workload}: {err}", file=sys.stderr)
        return 1

    everything = rounds + traced
    problems = [p for r in everything for p in r["problems"]]
    digests = {r["digest"] for r in everything}
    if len(digests) > 1:
        problems.append(f"rounds of one seed gave different outputs: {sorted(digests)}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    first = everything[0]
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} traced_rounds={len(traced)} "
          f"cpu_count={first['cpu_count']} blas_threads={first['blas_threads']} "
          f"known_faults={len(first['faults'])}")
    print("round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    if traced:
        print("traced round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in traced))
    for fault in first["faults"]:
        print(f"  fault: {fault}")
    metrics = per_layer(rounds, traced) if args.trace else end_to_end(rounds, setup)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
