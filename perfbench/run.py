"""heckemod benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/heckemod``. Each round
starts a fresh interpreter (round.py), so no Weyl-group or root-system cache
carries over between rounds or runs. Rounds repeat while another one fits in
``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics: median set-up time over the
rounds and several set-up-only starts, and median wall time, CPU time and
peak resident memory of the rounds. ``--trace 1`` runs one untraced round,
then traced rounds, and prints the per-layer metrics (see tracing.py).
After the timed part, every round's output is checked against oracle.py and
the negative controls are run; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Records
and spans go to ``perfbench/results/``. ``--size smoke`` swaps in A1/A2
inputs that finish in seconds (see smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 7
#: A run must end within 180 s; rounds are killed past this budget.
RUN_BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def spawn(spec: dict, round_dir: str, started: float) -> dict:
    """Run one round in a fresh interpreter and return its timing record."""
    os.makedirs(round_dir, exist_ok=True)
    spec_path = os.path.join(round_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "round.py"), spec_path],
        cwd=ROOT, capture_output=True, text=True, timeout=max(budget, 1.0),
    )
    t_done = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"round exited {proc.returncode}: {proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["setup_end"] - t_spawn
    record["round_s"] = t_done - t_spawn
    if "end" in record:
        record["wall_s"] = record["end"] - record["setup_end"]
    return record


def run_rounds(workload, trace: bool, seconds: float, first: int, started: float) -> list[dict]:
    """Rounds until the next would not fit in ``seconds``; at least one."""
    t0 = time.monotonic()
    rounds = []
    while True:
        round_dir = os.path.join(RESULTS, workload.name, f"round-{first + len(rounds)}")
        spec = {"argv": workload.argv(round_dir), "types": workload.types, "trace": trace, "out_dir": round_dir}
        record = spawn(spec, round_dir, started)
        record["dir"], record["traced"] = round_dir, trace
        if record["exit_code"] not in (0, 1):
            raise RuntimeError(f"heckemod exited {record['exit_code']} in {round_dir}")
        rounds.append(record)
        typical = statistics.median(r["round_s"] for r in rounds)
        if time.monotonic() - t0 + typical > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("identity", "closed-forms", "structural"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "heckemod", "__init__.py")):
        print(f"error: no heckemod sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = workloads.Workload(args.workload, args.size)
    shutil.rmtree(os.path.join(RESULTS, workload.name), ignore_errors=True)

    setups = []
    if args.trace:
        rounds = run_rounds(workload, False, 0, 0, started)
        rounds += run_rounds(workload, True, args.seconds - rounds[0]["round_s"], 1, started)
    else:
        for k in range(SETUP_PROBES):
            spec = {"argv": None, "types": workload.types, "trace": False, "out_dir": None}
            setups.append(spawn(spec, os.path.join(RESULTS, workload.name, f"setup-{k}"), started)["setup_s"])
        rounds = run_rounds(workload, False, args.seconds, 0, started)

    # Untimed from here on: output checks, the seeded sample, negative controls.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    attempted = failed = 0
    problems = []
    for r in rounds:
        a, f, p = workload.check(r["dir"])
        attempted, failed = attempted + a, failed + f
        problems += [f"{os.path.basename(r['dir'])}: {x}" for x in p]
    if workload.name == "identity":
        problems += workloads.check_lhs_sample(workload, args.seed)
    controls = workloads.negative_controls()
    problems += [f"negative control {name} passed" for name, ok in controls if not ok]
    if attempted < 1:
        problems.append("no operation was attempted")

    if args.trace:
        untraced, traced = rounds[:1], rounds[1:]
        metrics = {
            name: {"value": (statistics.median_low if unit == "count" else statistics.median)(
                r["layers"].get(name, 0) for r in traced), "unit": unit}
            for name, unit in tracing.PER_LAYER if name != "trace.overhead_s"
        }
        overhead = statistics.median(r["wall_s"] for r in traced) - untraced[0]["wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        # Inclusive time of the two theorem sides, for the README's split of wall_s.
        for side in ("theorem_lhs", "theorem_rhs"):
            total = statistics.median(r["layers"].get(f"formulas.{side}.total_s", 0.0) for r in traced)
            print(f"{side} inclusive: {total:.3f} s of traced wall_s "
                  f"{statistics.median(r['wall_s'] for r in traced):.3f} s", file=sys.stderr)
    else:
        samples = {
            "setup_s": setups + [r["setup_s"] for r in rounds],
            "wall_s": [r["wall_s"] for r in rounds],
            "cpu_s": [r["cpu_s"] for r in rounds],
            "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        }
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END}

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "result": result, "rounds": rounds, "setup_probes_s": setups,
                   "controls": controls, "problems": problems}, fh, indent=1)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for name, ok in controls:
        print(f"negative control {name}: {'failed as it must' if ok else 'PASSED'}", file=sys.stderr)
    print(f"{workload.name}: {len(rounds)} rounds, {attempted} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
