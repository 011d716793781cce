"""The repository's benchmark: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-pipeline --seed 3 --seconds 15 --trace 0

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from a separate traced pass.

Flow: time several fresh set-ups; generate the seeded inputs here (only
source text and edge lists cross to the program); run the timed pass in a
child interpreter, which checks every answer against reference code once
its clock has stopped; with ``--trace 1``, also count Python calls per
layer in another child at the fixed development seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh set-ups timed per run; set-up reports their median.
SETUP_LAUNCHES = 9

#: Inputs for call counting, so counts compare exactly across runs.
DEV_SEED = 1

#: A child that has not finished by then has hung.
RUNNER_TIMEOUT_S = 160


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus-batch", "compile-pipeline", "service-edit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source at {src}/repro; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    import workloads

    module = workloads.module(args.workload)
    env = harness.program_env(root)
    setup = module.setup_seconds(root, env, SETUP_LAUNCHES)
    job = dict(module.make_inputs(args.seed), seconds=args.seconds, trace=bool(args.trace), root=root)
    out = json.loads(
        harness.run_child(
            [sys.executable, os.path.join(HERE, "runner.py"), "timed", args.workload],
            env, root, json.dumps(job), RUNNER_TIMEOUT_S,
        )
    )
    records = out["records"] + out.get("traced", [])
    attempted = sum(r[2] for r in records)
    ok = sum(r[3] for r in records)
    e2e = end_to_end(statistics.median(setup), out["records"], out["rss_mb"], module.NORMALISE)
    print(
        f"{args.workload} seed={args.seed} ops={len(out['records'])} setup={[round(s, 3) for s in setup]} "
        f"raw={raw_summary(out['records'])} e2e={e2e}",
        file=sys.stderr,
    )
    if args.trace:
        calls_job = dict(module.make_inputs(DEV_SEED), seconds=0, trace=False, root=root,
                         package=os.path.join(src, "repro"))
        counts = json.loads(
            harness.run_child(
                [sys.executable, os.path.join(HERE, "runner.py"), "calls", args.workload],
                harness.program_env(root, PYTHONHASHSEED="0"), root, json.dumps(calls_job), RUNNER_TIMEOUT_S,
            )
        )
        metrics = per_layer(out, counts)
    else:
        metrics = e2e
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}", file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())},
    }))
    return 0


def end_to_end(setup_s: float, records, rss_mb: float, normalise: bool) -> dict:
    """End-to-end metrics from ``[calib_ms, op_ms, attempted, ok, ...]`` records.

    ``normalise`` rescales op times by host speed (see NOTES.md for the
    per-workload evidence); set-up time is never rescaled.
    """
    import harness

    ms = [r[1] for r in records]
    if normalise:
        ms = harness.normalise(ms, [r[0] for r in records])
    attempted = sum(r[2] for r in records)
    ok = sum(r[3] for r in records)
    return {
        "setup_s": setup_s,
        "ops_per_s": ok / (sum(ms) / 1e3),
        "latency_p50_ms": harness.quantile(ms, 0.5),
        "latency_p90_ms": harness.quantile(ms, 0.9),
        "ok_ratio": ok / attempted,
        "peak_rss_mb": rss_mb,
    }


def raw_summary(records) -> dict:
    import harness

    ms = [r[1] for r in records]
    return {
        "p50": round(harness.quantile(ms, 0.5), 3),
        "p90": round(harness.quantile(ms, 0.9), 3),
        "ops_per_s": round(sum(r[3] for r in records) / (sum(ms) / 1e3), 3),
        "calib": round(statistics.median(r[0] for r in records), 4),
    }


def per_layer(out: dict, counts: dict) -> dict:
    import harness

    untraced, traced = out["records"], out["traced"]
    n = min(len(untraced), len(traced))
    plain = sum(harness.normalise([r[1] for r in untraced], [r[0] for r in untraced])[:n])
    with_spans = sum(harness.normalise([r[1] for r in traced], [r[0] for r in traced])[:n])
    raw = [r[1] for r in untraced]
    metrics = dict(out["layers"], **counts)
    metrics.update({
        "resilience.degraded_ratio": sum(r[4] for r in untraced) / sum(r[2] for r in untraced),
        "gc.gen2_count": out["gc"]["gen2"],
        "gc.pause_ms": out["gc"]["pause_ms"],
        "host.calib_ms": statistics.median(r[0] for r in untraced),
        "trace.overhead_ratio": with_spans / plain - 1,
        "raw.latency_p50_ms": harness.quantile(raw, 0.5),
        "raw.latency_p90_ms": harness.quantile(raw, 0.9),
        "raw.ops_per_s": sum(r[3] for r in untraced) / (sum(raw) / 1e3),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
