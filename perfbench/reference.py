"""Reference answers, from code other than the timed path.

Every answer the benchmark checks is recomputed here with the slow,
independent implementations the repository keeps as oracles: the §3.3
bracket-set cycle equivalence (or the object-graph reference of the fast
one), object-graph SESE regions, the iterative reference dominators, the
CFS90 control regions, Cytron φ-placement and the object-graph reference
dataflow solver.  None of it runs while a
timer is running.
"""

from __future__ import annotations

from typing import Dict

from repro.cfg.graph import CFG
from repro.controldep.regions_cfs import control_regions_cfs
from repro.core.cycle_equiv import CycleEquivalence, cycle_equivalence_of_cfg_reference
from repro.core.cycle_equiv_slow import cycle_equivalence_bracket_sets
from repro.core.sese import canonical_sese_regions
from repro.dataflow import ConstantPropagation, LiveVariables, ReachingDefinitions
from repro.dataflow.iterative import solve_iterative_reference
from repro.dominance.iterative import immediate_dominators_reference
from repro.ssa import phi_blocks_cytron


def bracket_set_equivalence(cfg: CFG) -> CycleEquivalence:
    """Cycle-equivalence classes of ``cfg``'s edges by the §3.3 algorithm.

    The augmented copy lists ``cfg``'s edges in order, then the return
    edge, so classes map back by position.
    """
    augmented, back = cfg.with_return_edge()
    slow = cycle_equivalence_bracket_sets(augmented)
    ids: Dict[object, int] = {}
    copies = [edge for edge in augmented.edges if edge is not back]
    return CycleEquivalence(
        {orig: ids.setdefault(slow[copy], len(ids)) for orig, copy in zip(cfg.edges, copies)}
    )


def sese_pairs(regions) -> list:
    """Canonical regions as sorted (entry eid, exit eid) pairs."""
    return sorted((r.entry.eid, r.exit.eid) for r in regions)


def graph_summary(cfg: CFG) -> Dict[str, int]:
    """What the service reports about an analysed graph, recomputed.

    Service graphs have ~1,700 nodes, where the §3.3 bracket sets take a
    third of a second; the object-graph reference of the linear algorithm
    (no CSR snapshot, no kernel) gives the classes in milliseconds.
    """
    return {
        "nodes": cfg.num_nodes,
        "edges": cfg.num_edges,
        "regions": len(canonical_sese_regions(cfg, cycle_equivalence_of_cfg_reference(cfg))),
        "idom": len(immediate_dominators_reference(cfg)),
        "classes": len(control_regions_cfs(cfg)),
    }


def compile_answer(proc, budget) -> dict:
    """Everything one compile-pipeline op produces, by reference code.

    ``budget(cfg)`` makes the step-bounded ticker each dataflow solve runs
    under, as in the timed pipeline.
    """
    cfg = proc.cfg
    phis = phi_blocks_cytron(proc)
    return {
        "sese": sese_pairs(canonical_sese_regions(cfg, bracket_set_equivalence(cfg))),
        "idom": immediate_dominators_reference(cfg),
        "regions": control_regions_cfs(cfg),
        "phi": phis,
        "ssa_phis": sum(len(blocks) for blocks in phis.values()),
        "ssa_violations": [],
        "reaching": _solution(solve_iterative_reference(cfg, ReachingDefinitions(proc), budget(cfg))),
        "live": _solution(solve_iterative_reference(cfg, LiveVariables(proc), budget(cfg))),
        "constprop": _solution(solve_iterative_reference(cfg, ConstantPropagation(proc), budget(cfg))),
    }


def _solution(solution):
    return (solution.before, solution.after)


def compile_fingerprint(answer: dict) -> int:
    """A hash of a compile-pipeline answer (from either side).

    Hashes are compared only within one process, so string hashing's
    per-process seed does not matter; sets hash independently of order.
    """
    solutions = tuple(
        frozenset(side.items()) for key in ("reaching", "live", "constprop") for side in answer[key]
    )
    return hash(
        (
            tuple(answer["sese"]),
            frozenset(answer["idom"].items()),
            tuple(map(tuple, answer["regions"])),
            frozenset((var, frozenset(blocks)) for var, blocks in answer["phi"].items()),
            answer["ssa_phis"],
            tuple(answer["ssa_violations"]),
        )
        + solutions
    )
