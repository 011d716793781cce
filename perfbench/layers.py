"""The traced pass's per-layer probe and the per-layer metric table.

The end-to-end ops only show the layers the caller touches directly.
Layers behind ``run_analysis`` (graph build and checks, the frozen CSR
snapshot, cycle equivalence, PST, dominators, control regions) are timed
here by calling their public functions on the same graph, beside the op.
Each workload runs the same probe on its own inputs, so every per-layer
metric is measured on every workload; BENCHMARK.json records which
layers lie on each workload's blocking path and which are off it.
"""

from __future__ import annotations

import os
import re
import statistics
import time
from typing import Dict, List, Tuple

from compile_pipeline import solver_budget
from harness import COUNTED_LAYERS, NullTracer, Tracer

from repro import run_analysis
from repro.cfg.builder import cfg_from_edges
from repro.cfg.validate import check_cfg
from repro.controldep.regions_cfs import control_regions_cfs
from repro.controldep.regions_fast import control_regions
from repro.core.cycle_equiv import cycle_equivalence_of_cfg
from repro.core.cycle_equiv_slow import cycle_equivalence_bracket_sets
from repro.core.pst import build_pst
from repro.dataflow import (
    ConstantPropagation,
    LiveVariables,
    ReachingDefinitions,
    solve_iterative,
)
from repro.dominance.iterative import immediate_dominators
from repro.dominance.lengauer_tarjan import lengauer_tarjan
from repro.errors import BudgetExceeded
from repro.kernel.csr import freeze
from repro.lang import lower_program, parse_program
from repro.ssa import construct_ssa, place_phis_pst

#: Probe span -> per-layer metric (mean ms per probed graph).
PROBE_MS = {
    "cfg.build": "cfg.build_ms",
    "cfg.check": "cfg.check_ms",
    "cfg.edge_split": "cfg.edge_split_ms",
    "kernel.freeze": "kernel.freeze_ms",
    "core.cycle_equiv": "core.cycle_equiv_ms",
    "core.build_pst": "core.build_pst_ms",
    "core.bracket_sets": "core.bracket_sets_ms",
    "dominance.lengauer_tarjan": "dominance.lengauer_tarjan_ms",
    "dominance.iterative": "dominance.iterative_ms",
    "controldep.regions": "controldep.regions_ms",
    "controldep.cfs": "controldep.cfs_ms",
    "resilience.engine": "resilience.engine_ms",
    "ssa.phi": "ssa.phi_ms",
    "ssa.rename": "ssa.rename_ms",
    "dataflow.reaching": "dataflow.reaching_ms",
    "dataflow.live": "dataflow.live_ms",
    "dataflow.constprop": "dataflow.constprop_ms",
}

#: The fast kernels ``run_analysis`` wraps: the base of engine_over_kernels.
KERNELS = ("core.cycle_equiv", "core.build_pst", "dominance.lengauer_tarjan", "controldep.regions")

DATAFLOW = (
    ("dataflow.reaching", ReachingDefinitions),
    ("dataflow.live", LiveVariables),
    ("dataflow.constprop", ConstantPropagation),
)

#: Op spans whose self time is reported as a share of op time.
SPAN_LAYERS = ("lang", "resilience", "ssa", "dataflow", "service")


def split_procedures(text: str) -> List[str]:
    """The procedures of a MiniLang file, each as its own source text."""
    return [part for part in re.split(r"(?m)^(?=proc\s)", text) if part.strip()]


def edge_specs(cfg) -> List[Tuple]:
    return [
        (e.source, e.target) if e.label is None else (e.source, e.target, e.label)
        for e in cfg.edges
    ]


class Probe:
    """Times each layer's public functions on MiniLang procedures."""

    def __init__(self):
        self.tracer = Tracer()
        self.graphs = 0
        self.lines = 0
        self.edges = 0
        self.regions_examined = 0.0

    def source(self, text: str, op: int) -> None:
        """Probe every procedure of a MiniLang file."""
        span = self.tracer.span
        with span("lang.parse", op):
            program = parse_program(text)
        with span("lang.lower", op):
            procs = lower_program(program)
        self.lines += text.count("\n") + 1
        for proc in procs:
            self._procedure(proc, op)

    def _procedure(self, proc, op: int) -> None:
        span = self.tracer.span
        specs = edge_specs(proc.cfg)
        start, end = proc.cfg.start, proc.cfg.end
        with span("cfg.build", op):
            cfg = cfg_from_edges(specs, start=start, end=end, validate=False)
        with span("cfg.check", op):
            check_cfg(cfg)
        with span("cfg.edge_split", op):
            cfg.edge_split()
        with span("kernel.freeze", op):
            freeze(cfg)
        with span("core.cycle_equiv", op):
            equiv = cycle_equivalence_of_cfg(cfg, validate=False)
        with span("core.build_pst", op):
            build_pst(cfg, equiv)
        augmented, _ = cfg.with_return_edge()
        with span("core.bracket_sets", op):
            cycle_equivalence_bracket_sets(augmented)
        with span("dominance.lengauer_tarjan", op):
            lengauer_tarjan(cfg)
        with span("dominance.iterative", op):
            immediate_dominators(cfg)
        with span("controldep.regions", op):
            control_regions(cfg, validate=False)
        with span("controldep.cfs", op):
            control_regions_cfs(cfg)
        fresh = cfg_from_edges(specs, start=start, end=end, validate=False)
        with span("resilience.engine", op):
            result = run_analysis(fresh)
        with span("ssa.phi", op):
            phis = place_phis_pst(proc, result.pst)
        with span("ssa.rename", op):
            construct_ssa(proc, phis.phi_blocks)
        for name, problem in DATAFLOW:
            with span(name, op):
                try:
                    solve_iterative(proc.cfg, problem(proc), solver_budget(proc.cfg))
                except BudgetExceeded:
                    pass  # the op fails the same way; the probe keeps the time
        variables = phis.regions_examined
        if variables:
            self.regions_examined += statistics.fmean(phis.examined_fraction(v) for v in variables)
        self.graphs += 1
        self.edges += cfg.num_edges

    def metrics(self) -> Dict[str, float]:
        ms = self.tracer.name_ms()
        out = {metric: ms[name] / self.graphs for name, metric in PROBE_MS.items()}
        out["lang.parse_us_per_line"] = ms["lang.parse"] * 1e3 / self.lines
        out["lang.lower_us_per_line"] = ms["lang.lower"] * 1e3 / self.lines
        out["resilience.engine_us_per_edge"] = ms["resilience.engine"] * 1e3 / self.edges
        out["resilience.engine_over_kernels"] = ms["resilience.engine"] / sum(ms[k] for k in KERNELS)
        out["ssa.regions_examined_fraction"] = self.regions_examined / self.graphs
        return out


def batch_probe(text: str) -> Dict[str, float]:
    """One corpus-batch call over a MiniLang file, as ``repro batch`` runs it.

    Parent busy ratio is the parent's CPU time over the batch's wall time;
    CPU per item adds the reaped workers' CPU time.
    """
    import corpus_batch

    before, wall = os.times(), time.perf_counter()
    report = corpus_batch.batch_op(0, text, NullTracer(), 0)
    after, wall = os.times(), time.perf_counter() - wall
    parent = (after.user - before.user) + (after.system - before.system)
    children = (after.children_user - before.children_user) + (
        after.children_system - before.children_system
    )
    return {
        "resilience.batch_parent_busy_ratio": parent / wall,
        "resilience.batch_cpu_s_per_item": (parent + children) / len(report.results),
    }


def span_metrics(tracer: Tracer, op_ms: float) -> Dict[str, float]:
    """Self-time share of each op-span layer, plus unattributed op time."""
    self_ms = tracer.layer_self_ms()
    out = {f"{layer}.self_share": self_ms.get(layer, 0.0) / op_ms for layer in SPAN_LAYERS}
    out["trace.unattributed_share"] = self_ms.get("op", 0.0) / op_ms
    return out


def calls_metrics(per_layer: Dict[str, int], ops: int, lookups: int, freezes: int) -> Dict[str, float]:
    out = {f"{layer}.calls_per_op": per_layer[layer] / ops for layer in COUNTED_LAYERS}
    out["total.calls_per_op"] = per_layer["total"] / ops
    out["kernel.registry_hit_ratio"] = (lookups - freezes) / lookups if lookups else 0.0
    return out
