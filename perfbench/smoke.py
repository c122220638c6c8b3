"""Smoke run of the benchmark on A1/A2 inputs; finishes in seconds.

    python3 perfbench/smoke.py

Runs every workload at ``--size smoke``, untraced and traced, and checks
that each prints a correct result with no failed operation and exactly the
metrics BENCHMARK.json names. Then copies the benchmark into a directory
without ``src`` and checks that it refuses to run there. Exits 1 on any
mismatch. It is a script, not a pytest test, so the repository's test suite
never pays for it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result['correct']=} {result['failed']=}"
                                f" {result['attempted']=}\n{proc.stderr}")
            if sorted(result["metrics"]) != sorted(names[trace]):
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            print(f"{workload} trace={trace}: {result['attempted']} operations, correct={result['correct']}")

    bare = os.path.join(HERE, "results", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, "identity", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran without heckemod sources")
    print(f"without src: exit {proc.returncode}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
