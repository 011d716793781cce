"""Child interpreter for one workload's timed pass or call count.

Usage: ``python3 perfbench/runner.py timed|calls WORKLOAD`` with the job
(inputs and settings) as JSON on stdin and ``src`` on ``PYTHONPATH``; the
result is one JSON object on stdout.

The timed pass runs in its own interpreter so the benchmark's input
generation leaves no garbage in the heap the program's collector scans,
and so the process's peak RSS is the program's.
"""

import json
import sys

import workloads

if __name__ == "__main__":
    mode, name = sys.argv[1], sys.argv[2]
    if mode not in ("timed", "calls"):
        raise SystemExit(f"unknown mode {mode!r}")
    job = json.load(sys.stdin)
    result = getattr(workloads.module(name), mode)(job)
    json.dump(result, sys.stdout)
