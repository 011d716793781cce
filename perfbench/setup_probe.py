"""Set-up probe: a fresh interpreter imports ``repro`` and runs a first op.

Usage: ``python3 perfbench/setup_probe.py compile-pipeline|corpus-batch``
with ``src`` on ``PYTHONPATH``.  It prints ``ready`` once the first op on
a tiny input has finished; that first op pays the lazy imports (NumPy
among them) a real caller pays.  The launcher times process start to that
line (see ``harness.time_fresh_launches``).  This file imports nothing
from the benchmark, so the time is the program's own.
"""

import sys

TINY = "proc tiny(n) {\n  x = 0;\n  while (x < n) {\n    x = x + 1;\n  }\n  return x;\n}\n"


def compile_first_op() -> None:
    from repro import run_analysis
    from repro.dataflow import ConstantPropagation, LiveVariables, ReachingDefinitions, solve_iterative
    from repro.lang import lower_program, parse_program
    from repro.ssa import construct_ssa, place_phis_pst

    [proc] = lower_program(parse_program(TINY))
    result = run_analysis(proc.cfg)
    phis = place_phis_pst(proc, result.pst)
    construct_ssa(proc, phis.phi_blocks)
    for problem in (ReachingDefinitions, LiveVariables, ConstantPropagation):
        solve_iterative(proc.cfg, problem(proc))


def batch_first_op() -> None:
    from repro import AnalysisConfig, run_batch
    from repro.lang import lower_program, parse_program

    procs = lower_program(parse_program(TINY))
    items = [(proc.name, (lambda p=proc: p.cfg)) for proc in procs]
    report = run_batch(items, config=AnalysisConfig(workers=2))
    if not report.ok:
        raise SystemExit(f"setup batch failed: {report.render()}")


if __name__ == "__main__":
    {"compile-pipeline": compile_first_op, "corpus-batch": batch_first_op}[sys.argv[1]]()
    print("ready", flush=True)
