"""compile-pipeline: the paper's §6 applications as a compiler middle end.

One op compiles one MiniLang file of eight procedures, serially and
in-process: ``parse_program`` -> ``lower_program``, then per procedure
``run_analysis`` -> ``place_phis_pst`` -> ``construct_ssa`` ->
``solve_iterative`` for reaching definitions, live variables and constant
propagation.  It is the only workload that runs ``ssa`` and ``dataflow``;
no batch or service code runs.

Inputs are four paper-shaped corpora (``standard_corpus``, 1,016
procedures) drawn from the run seed and cut into files in size-stratified
order, so every file holds the population's mix of small and large
procedures.  Per-procedure latency would depend on which procedures a
seed happens to draw (the median procedure's size moves about 6% between
seeds); a file's latency does not.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Optional

import harness
import reference

NAME = "compile-pipeline"
#: Op times are rescaled by host speed: on this in-process, single-core
#: workload the calibration unit tracks the program's speed, and rescaling
#: cut the run-to-run spread of p50 from 23% to 10% while the host drifted.
NORMALISE = True
CORPORA = 4
FILE_PROCS = 8

#: Files whose Python calls are counted, at the development seed.
COUNTED_OPS = 2

#: Worklist pops a dataflow solve may take per CFG node plus edge.  On the
#: corpus the most any converging solve takes is 9.  Constant propagation
#: fails to converge on some procedures (about 1 in 6,000; the first one
#: found is in seed 12's population, 59 blocks); the bound turns that hang
#: into a failed procedure, which ``failed`` and ``ok_ratio`` report.
SOLVER_STEPS_PER_ELEMENT = 100


def solver_budget(cfg):
    from repro.resilience.guards import Ticker

    return Ticker(step_budget=SOLVER_STEPS_PER_ELEMENT * (cfg.num_nodes + cfg.num_edges))


def make_inputs(seed: int) -> Dict:
    from repro.synth.corpus import standard_corpus

    rng = random.Random(f"{NAME}/{seed}")
    procs: List[str] = []
    for _ in range(CORPORA):
        for program in standard_corpus(seed=rng.randrange(1 << 30)):
            procs.extend(program.sources)
    order = harness.stratified_order([len(s) for s in procs])
    files = [
        "".join(procs[i] for i in order[start:start + FILE_PROCS])
        for start in range(0, len(order) - FILE_PROCS + 1, FILE_PROCS)
    ]
    return {"files": files}


def compile_op(text: str, tracer, op: int) -> List[Optional[tuple]]:
    """The timed pipeline over one file.

    Returns, per procedure, every artifact its answer is read from, or
    None where a dataflow solve did not converge.
    """
    from repro import run_analysis
    from repro.dataflow import ConstantPropagation, LiveVariables, ReachingDefinitions, solve_iterative
    from repro.errors import BudgetExceeded
    from repro.lang import lower_program, parse_program
    from repro.ssa import construct_ssa, place_phis_pst

    span = tracer.span
    out: List[Optional[tuple]] = []
    with span("op", op):
        with span("lang.parse", op):
            program = parse_program(text)
        with span("lang.lower", op):
            procs = lower_program(program)
        for proc in procs:
            cfg = proc.cfg
            with span("resilience.run_analysis", op):
                result = run_analysis(cfg)
            with span("ssa.place_phis_pst", op):
                phis = place_phis_pst(proc, result.pst)
            with span("ssa.construct_ssa", op):
                ssa = construct_ssa(proc, phis.phi_blocks)
            try:
                with span("dataflow.reaching", op):
                    reaching = solve_iterative(cfg, ReachingDefinitions(proc), solver_budget(cfg))
                with span("dataflow.live", op):
                    live = solve_iterative(cfg, LiveVariables(proc), solver_budget(cfg))
                with span("dataflow.constprop", op):
                    constprop = solve_iterative(cfg, ConstantPropagation(proc), solver_budget(cfg))
            except BudgetExceeded:
                out.append(None)
                continue
            out.append((result, phis, ssa, reaching, live, constprop))
    return out


def answer_of(result, phis, ssa, reaching, live, constprop) -> dict:
    from repro.ir import Phi
    from repro.ssa import verify_ssa

    return {
        "sese": reference.sese_pairs(result.pst.canonical_regions()),
        "idom": result.idom,
        "regions": result.control_regions,
        "phi": phis.phi_blocks,
        "ssa_phis": sum(isinstance(s, Phi) for block in ssa.blocks.values() for s in block),
        "ssa_violations": verify_ssa(ssa),
        "reaching": (reaching.before, reaching.after),
        "live": (live.before, live.after),
        "constprop": (constprop.before, constprop.after),
    }


def fingerprints(artifacts: List[Optional[tuple]]) -> List[Optional[int]]:
    return [
        reference.compile_fingerprint(answer_of(*a)) if a is not None and a[0].ok else None
        for a in artifacts
    ]


def expected_fingerprints(text: str) -> List[Optional[int]]:
    """Reference fingerprints per procedure; None where the reference
    solver does not converge either (no answer can match then)."""
    from repro.errors import BudgetExceeded
    from repro.lang import lower_program, parse_program

    out: List[Optional[int]] = []
    for proc in lower_program(parse_program(text)):
        try:
            out.append(reference.compile_fingerprint(reference.compile_answer(proc, solver_budget)))
        except BudgetExceeded:
            out.append(None)
    return out


def _pass(job: Dict, seconds: float, tracer, probe=None) -> List[list]:
    """Files for ``seconds``.

    Records ``[calib_ms, op_ms, procedures, fingerprints, degraded, file]``;
    :func:`_check` turns the fingerprints into the count that matched.
    """
    files = job["files"]

    def op(k):
        index = k % len(files)
        started = time.perf_counter()
        artifacts = compile_op(files[index], tracer, k)
        elapsed = (time.perf_counter() - started) * 1e3
        degraded = sum(1 for a in artifacts if a is not None and a[0].degraded)
        got = fingerprints(artifacts)
        del artifacts
        if probe is not None:
            probe.source(files[index], k)
        return [elapsed, len(got), got, degraded, index]

    return harness.timed_loop(seconds, op)


def _check(job: Dict, records: List[list]) -> None:
    files = job["files"]
    expected: Dict[int, List[Optional[int]]] = {}
    for record in records:
        index = record[5]
        if index not in expected:
            expected[index] = expected_fingerprints(files[index])
        want, got = expected[index], record[3]
        record[3] = sum(1 for g, w in zip(got, want) if g is not None and g == w)


def timed(job: Dict) -> Dict:
    compile_op(job["files"][-1], harness.NullTracer(), -1)  # lazy imports
    gc.collect()
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    with harness.GcWatch() as gc_watch:
        records = _pass(job, seconds, harness.NullTracer())
    out = {"records": records, "rss_mb": harness.self_max_rss_mb(), "gc": gc_watch.stats()}
    if job["trace"]:
        import layers
        import service_edit

        tracer, probe = harness.Tracer(), layers.Probe()
        out["traced"] = _pass(job, seconds, tracer, probe)
        out["layers"] = dict(
            probe.metrics(),
            **layers.span_metrics(tracer, sum(r[1] for r in out["traced"])),
            **layers.batch_probe("".join(job["files"][:4])),
            **service_edit.in_process_probe(layers.split_procedures(job["files"][0])[-2:]),
        )
        _check(job, out["traced"])
    _check(job, records)
    return out


def setup_seconds(root: str, env: Dict[str, str], launches: int) -> List[float]:
    return harness.probe_setups(NAME, root, env, launches)


def calls(job: Dict) -> Dict:
    """Python calls per layer per procedure, over the first files at the
    development seed."""
    import layers

    files = job["files"]
    null = harness.NullTracer()
    compile_op(files[-1], null, -1)
    counter = harness.CallCounter(job["package"])
    with counter:
        procs = sum(len(compile_op(files[k], null, k)) for k in range(COUNTED_OPS))
    return layers.calls_metrics(counter.per_layer(), procs, counter.lookups, counter.freezes)
