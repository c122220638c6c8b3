"""One round of a workload in a fresh interpreter; run by run.py, not by hand.

    python3 perfbench/round.py <spec.json>

The spec names the heckemod command line, the types to build during set-up,
the directory for the command's output, and whether to trace. The round
imports heckemod from the checkout's ``src``, builds the root systems and
Weyl groups (set-up), then runs the command with its standard output sent to
a file. It prints one JSON record: the monotonic clock at the end of set-up
and after the last output was written, the CPU time between the two, the
process's peak resident memory and, when traced, the per-layer totals.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import heckemod
    from heckemod import cli, root_system

    if not os.path.abspath(heckemod.__file__).startswith(SRC + os.sep):
        print(f"error: imported heckemod from {heckemod.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    for type_name in spec["types"]:
        root_system.weyl_group(root_system.build_root_system(type_name))
    t_setup = time.monotonic()
    if spec["argv"] is None:
        print(json.dumps({"setup_end": t_setup}))
        return 0

    cpu0 = time.process_time()
    with open(os.path.join(spec["out_dir"], "stdout.txt"), "w") as out, contextlib.redirect_stdout(out):
        code = cli.main(spec["argv"])
    t_end = time.monotonic()
    cpu = time.process_time() - cpu0
    record = {
        "setup_end": t_setup,
        "end": t_end,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": code,
    }
    if tracer is not None:
        record["layers"] = tracer.totals
        tracer.write_spans(os.path.join(spec["out_dir"], "spans.json"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
