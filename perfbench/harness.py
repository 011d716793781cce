"""Measurement plumbing shared by the workloads.

Nothing here imports ``repro``: the harness times, calibrates, traces and
counts calls, and the workload modules are the only callers of the program.

* :func:`calib_unit` is a fixed slice of interpreter work that touches no
  program code.  It runs only while no program work is in flight (between
  ops, or between ``run_batch`` calls) and tracks how fast the host is
  right now.
* :func:`normalise` rescales per-op timings by the calibration samples
  taken around them, so host-speed drift on a shared machine does not read
  as a change in the program.
* :class:`Tracer` keeps spans in memory (name, start, end, parent, op id)
  and computes self time per layer when the traced pass ends.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

#: What one :func:`calib_block` takes on the reference host (a 2-vCPU
#: x86-64 container, Python 3.11).  Normalised timings read as
#: milliseconds on a host running the calibration block at this speed.
CALIB_NOMINAL_MS = 1.1

#: Calibration samples on each side of an op that set its host speed.
CALIB_WINDOW = 4

#: Graph size of one calibration unit (about a millisecond).
CALIB_BLOCKS = 200


class _Block:
    __slots__ = ("name", "succ", "num")

    def __init__(self, name: str):
        self.name = name
        self.succ: List["_Block"] = []
        self.num = -1


def calib_unit() -> int:
    """A fixed slice of program-like interpreter work that calls no program code.

    It builds a small graph of slotted objects, numbers it by iterative
    depth-first search and runs one sweep of set-valued facts over it:
    attribute access, small allocations, dict and set traffic, the mix
    the analyses spend their time on.  A tight arithmetic loop tracked
    this host's speed swings about twice as strongly as the program did;
    this unit tracks them within a few percent.
    """
    blocks = [_Block(f"b{i}") for i in range(CALIB_BLOCKS)]
    for i, block in enumerate(blocks):
        block.succ = [blocks[(i * 7 + 1) % CALIB_BLOCKS], blocks[(i * 13 + 5) % CALIB_BLOCKS]]
    order: List[_Block] = []
    blocks[0].num = 0
    stack = [(blocks[0], iter(blocks[0].succ))]
    while stack:
        node, successors = stack[-1]
        for succ in successors:
            if succ.num < 0:
                succ.num = len(order) + len(stack)
                stack.append((succ, iter(succ.succ)))
                break
        else:
            stack.pop()
            order.append(node)
    facts = {block.name: {block.name} for block in blocks}
    for block in order:
        acc = facts[block.name]
        for succ in block.succ:
            if len(acc) < 8:
                acc = acc | facts[succ.name]
        facts[block.name] = acc
    return sum(len(v) for v in facts.values())


def calib_block() -> float:
    """Milliseconds of the faster of two calibration units.

    The minimum discards a unit hit by an interrupt or a collection.
    """
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        calib_unit()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def normalise(values_ms: Sequence[float], calibs_ms: Sequence[float]) -> List[float]:
    """Rescale each op by the median calibration block in its neighbourhood.

    ``calibs_ms[i]`` is the block measured just before op ``i``.  The
    window median of ``2 * CALIB_WINDOW + 1`` blocks follows drift within
    a run while ignoring single noisy blocks.
    """
    out = []
    n = len(calibs_ms)
    for i, value in enumerate(values_ms):
        lo, hi = max(0, i - CALIB_WINDOW), min(n, i + CALIB_WINDOW + 1)
        local = statistics.median(calibs_ms[lo:hi])
        out.append(value * CALIB_NOMINAL_MS / local)
    return out


def timed_loop(seconds: float, op) -> List[list]:
    """Run ``op(k)`` for k = 0, 1, ... until ``seconds`` have passed.

    A calibration block runs before each op, while no program work is in
    flight; each record is ``[calib_ms] + op(k)``.
    """
    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        calib = calib_block()
        records.append([calib] + op(k))
        k += 1
    return records


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile, ``q`` a multiple of 0.1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]


def stratified_order(sizes: Sequence[int]) -> List[int]:
    """Indices ordered so that every prefix spans the whole size range.

    Items are ranked by size and visited in bit-reversed rank order
    (0, N/2, N/4, 3N/4, ...).  A run that stops part-way through the
    population has still sampled small, median and large items in their
    population proportions, so p50/p90 do not depend on where it stopped.
    """
    by_size = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    bits = max(1, (len(sizes) - 1).bit_length())

    def reverse(rank: int) -> int:
        return int(format(rank, f"0{bits}b")[::-1], 2)

    ranks = sorted(range(len(sizes)), key=reverse)
    return [by_size[r] for r in ranks]


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

class Tracer:
    """In-memory spans: ``(name, start, end, parent index, op id)``."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, op: int):
        return _Span(self, name, op)

    def layer_self_ms(self) -> Dict[str, float]:
        """Self time per layer (span name up to the first dot), summed."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        out: Dict[str, float] = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) * 1e3 - child_ms[index]
        return out

    def name_ms(self) -> Dict[str, float]:
        """Total duration (ms) per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _parent, _op in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) * 1e3
        return out


class _Span:
    __slots__ = ("tracer", "name", "op", "index")

    def __init__(self, tracer: Tracer, name: str, op: int):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), 0.0, parent, self.op])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class NullTracer:
    """The untraced pass: same call sites, no recording."""

    def span(self, name: str, op: int):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class GcWatch:
    """Generation-2 collections and total collector pause, via gc.callbacks."""

    def __init__(self):
        self.gen2 = 0
        self.pause_ms = 0.0
        self._started = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_ms += (time.perf_counter() - self._started) * 1e3
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False

    def stats(self) -> Dict[str, float]:
        return {"gen2": self.gen2, "pause_ms": self.pause_ms}


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

def self_max_rss_mb() -> float:
    """Peak RSS of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_max_rss_mb() -> float:
    """Largest peak RSS among reaped child processes, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def program_env(root: str, **extra: str) -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro`` from source."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def time_fresh_launches(argv: List[str], env: Dict[str, str], cwd: str, launches: int) -> List[float]:
    """Seconds from process start to its first stdout line, per launch.

    The child prints one line once it is ready and then exits; a child
    that exits without the line, or non-zero, is an error.
    """
    out = []
    for _ in range(launches):
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            proc.stdout.read()
        finally:
            code = proc.wait(timeout=60)
        if code != 0 or not line.startswith("ready"):
            raise RuntimeError(f"setup probe {argv} failed with exit code {code}")
        out.append(ready)
    return out


def probe_setups(workload: str, root: str, env: Dict[str, str], launches: int) -> List[float]:
    """Set-up seconds of ``launches`` fresh ``setup_probe.py`` interpreters."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    return time_fresh_launches([sys.executable, probe, workload], env, root, launches)


def run_child(argv: List[str], env: Dict[str, str], cwd: str, stdin_text: str, timeout: float) -> str:
    """Run a helper interpreter to completion and return its stdout."""
    done = subprocess.run(
        argv, input=stdin_text, capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{argv} exited with code {done.returncode}")
    return done.stdout


# ----------------------------------------------------------------------
# call counting
# ----------------------------------------------------------------------

#: Modules of ``src/repro`` whose Python calls are counted per op.
COUNTED_LAYERS = (
    "cfg", "config", "controldep", "core", "dataflow", "dominance", "incremental",
    "ir", "kernel", "lang", "obs", "resilience", "service", "ssa",
)


class CallCounter:
    """Python calls per ``src/repro/<module>``, via the profile hook.

    Also counts calls of ``shared_frozen`` (registry lookups) and the
    ``freeze`` calls it makes (registry misses), which give the
    frozen-snapshot registry's hit ratio.
    """

    def __init__(self, package_dir: str):
        self.prefix = os.path.join(os.path.realpath(package_dir), "")
        self.per_file: Dict[str, int] = {}
        self.lookups = 0
        self.freezes = 0

    def _hook(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        filename = code.co_filename
        if filename.startswith(self.prefix):
            self.per_file[filename] = self.per_file.get(filename, 0) + 1
            name = code.co_name
            if name == "shared_frozen":
                self.lookups += 1
            elif name == "freeze" and frame.f_back.f_code.co_name == "shared_frozen":
                self.freezes += 1

    def __enter__(self):
        import threading

        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        import threading

        sys.setprofile(None)
        threading.setprofile(None)
        return False

    def per_layer(self) -> Dict[str, int]:
        out = {layer: 0 for layer in COUNTED_LAYERS}
        out["total"] = 0
        for filename, calls in self.per_file.items():
            rel = filename[len(self.prefix):]
            head = rel.split(os.sep, 1)[0]
            layer = head[:-3] if head.endswith(".py") else head
            if layer in out:
                out[layer] += calls
            out["total"] += calls
        return out
