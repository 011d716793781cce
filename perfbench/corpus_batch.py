"""corpus-batch: ``run_batch`` over the paper-shaped corpus, as ``repro batch`` runs it.

Three ``standard_corpus`` seeds (762 procedures) drawn from the run seed
are cut into files of 32 procedures in size-stratified order, so every
file holds the population's mix of small and large procedures.  One op is
one ``run_batch(config=AnalysisConfig(workers=2))`` call over one file:
the parent parses and lowers it while two pool workers analyse its
procedures through the shared-memory transport.  Throughput counts
procedures; latency is per call.  No dataflow, ssa or service code runs.
"""

from __future__ import annotations

import gc
import random
import re
import time
from typing import Dict, List

import harness

NAME = "corpus-batch"
#: Op times are not rescaled by host speed: with two workers and the
#: parent busy on two cores, the calibration unit (run in the idle parent
#: between calls) did not track the batch's speed, and rescaling did not
#: narrow the spread.
NORMALISE = False
CORPORA = 3
FILE_PROCS = 32
WORKERS = 2

_PROC_NAME = re.compile(r"^proc\s+(\w+)\s*\(", re.MULTILINE)


def make_inputs(seed: int) -> Dict:
    from repro.synth.corpus import standard_corpus

    rng = random.Random(f"{NAME}/{seed}")
    procs: List[str] = []
    for c in range(CORPORA):
        for program in standard_corpus(seed=rng.randrange(1 << 30)):
            # Each corpus reuses the paper's procedure names; keep keys unique.
            procs.extend(_PROC_NAME.sub(rf"proc c{c}_\1(", s, count=1) for s in program.sources)
    order = harness.stratified_order([len(s) for s in procs])
    files = [
        "".join(procs[i] for i in order[start:start + FILE_PROCS])
        for start in range(0, len(order) - FILE_PROCS + 1, FILE_PROCS)
    ]
    # The expected keys come from the text, not from the front end.
    keys = [[f"f{n}::{name}" for name in _PROC_NAME.findall(text)] for n, text in enumerate(files)]
    return {"files": files, "keys": keys}


def batch_op(index: int, text: str, tracer, op: int):
    from repro import AnalysisConfig, run_batch
    from repro.lang import lower_program, parse_program

    def items():
        with tracer.span("lang.parse", op):
            program = parse_program(text)
        with tracer.span("lang.lower", op):
            procs = lower_program(program)
        for proc in procs:
            yield f"f{index}::{proc.name}", (lambda p=proc: p.cfg)

    with tracer.span("op", op):
        with tracer.span("resilience.run_batch", op):
            return run_batch(items(), config=AnalysisConfig(workers=WORKERS))


def _pass(job: Dict, seconds: float, tracer) -> List[list]:
    """Calls for ``seconds``; records ``[calib_ms, call_ms, items, ok, degraded, file]``.

    An item is right when its key is the expected one, in order, and the
    engine verified every stage on the fast path (status ``ok``).
    """
    files, keys = job["files"], job["keys"]

    def op(k):
        index = k % len(files)
        started = time.perf_counter()
        report = batch_op(index, files[index], tracer, k)
        elapsed = (time.perf_counter() - started) * 1e3
        got = [(r.key, r.status) for r in report.results]
        ok = sum(1 for key, pair in zip(keys[index], got) if pair == (key, "ok"))
        degraded = sum(1 for _, status in got if status == "degraded")
        return [elapsed, len(keys[index]), ok, degraded, index]

    return harness.timed_loop(seconds, op)


def timed(job: Dict) -> Dict:
    batch_op(0, job["files"][-1], harness.NullTracer(), -1)  # lazy imports, first pool
    gc.collect()
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    with harness.GcWatch() as gc_watch:
        records = _pass(job, seconds, harness.NullTracer())
    rss = harness.self_max_rss_mb() + WORKERS * harness.children_max_rss_mb()
    out = {"records": records, "rss_mb": rss, "gc": gc_watch.stats()}
    if job["trace"]:
        import layers
        import service_edit

        tracer, probe = harness.Tracer(), layers.Probe()
        out["traced"] = _pass(job, seconds, tracer)
        probe.source(job["files"][0], 0)
        out["layers"] = dict(
            probe.metrics(),
            **layers.span_metrics(tracer, sum(r[1] for r in out["traced"])),
            **layers.batch_probe(job["files"][0]),
            **service_edit.in_process_probe(layers.split_procedures(job["files"][0])[-2:]),
        )
    return out


def setup_seconds(root: str, env: Dict[str, str], launches: int) -> List[float]:
    return harness.probe_setups(NAME, root, env, launches)


def calls(job: Dict) -> Dict:
    """Python calls per layer in the parent, per procedure, for one file.

    Workers are separate processes, so their calls are not in these
    counts; compile-pipeline counts the same engine calls in-process.
    """
    import layers

    null = harness.NullTracer()
    batch_op(0, job["files"][-1], null, -1)
    counter = harness.CallCounter(job["package"])
    with counter:
        report = batch_op(0, job["files"][0], null, 0)
    items = len(report.results)
    return layers.calls_metrics(counter.per_layer(), items, counter.lookups, counter.freezes)
