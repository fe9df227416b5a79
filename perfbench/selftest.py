"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json at a tiny size, untraced and traced,
and checks that each result is well formed, correct, and names exactly the
metrics of BENCHMARK.json with their units.  point-queries must fail exactly
its four known-fault inputs per round.  Last, it copies BENCHMARK.json and
perfbench/ into an otherwise empty directory and checks that run.py fails
there without printing a result.  Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# point-queries at tiny size: 4 points x 3 calls, plus the 4 fault inputs
TINY_POINT_QUERIES = (4, 16)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(bench: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        bad.append(f"{where}: correct is {result['correct']!r}\n{proc.stderr}")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        bad.append(f"{where}: attempted {attempted!r}, failed {failed!r}")
    elif workload == "point-queries":
        faults, per_round = TINY_POINT_QUERIES
        if failed * per_round != faults * attempted:
            bad.append(f"{where}: {failed} of {attempted} failed, not {faults} in {per_round}")
    elif failed:
        bad.append(f"{where}: {failed} of {attempted} failed")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
        bad.append(f"{where}: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            bad.append(f"{where}: {name} = {m['value']!r}")
    return bad


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "point-queries", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without src/ exited {proc.returncode} and printed {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_result(bench, workload, trace, run(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: done", flush=True)
    problems += check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
