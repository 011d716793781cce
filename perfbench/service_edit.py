"""service-edit: edit rounds against ``repro serve`` over HTTP.

``python -m repro serve --port 0`` runs as its own process and one
closed-loop client connection drives it: the next request goes out when
the previous answer is in.  The client rotates over three ~1,700-node
structured graphs (MiniLang procedures lowered to edge lists and sent with
the ``cfg`` spelling; the server never sees source).  One op is one edit
round, always the same four requests:

1. ``/apply_delta`` adds a node on an existing edge's endpoints;
2. ``/run_analysis`` misses, because the edit dropped cached responses;
3. ``/run_analysis`` again, which hits;
4. ``/apply_delta`` removes the node again.

Rounds are homogeneous, so the latency distribution has one mode.  The
inverse edit is ``remove_node``: ``remove_edge`` would need the parallel
edge's id, which the response does not return.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import harness

NAME = "service-edit"
#: Round times are not rescaled by host speed: half of a round is fixed
#: waiting on the loopback socket (see ``service.wire_ms``), the work runs
#: in another process, and rescaling widened the p50 spread from 4% to 16%.
NORMALISE = False
GRAPHS = 3
EDITS = 8
NODES = 1700
#: One client name per graph: the server splits its cache budget into
#: per-client shards, and one shard holds one graph of this size.
CLIENT = "perfbench-{}"
NEW_NODE = "perfbench_node"
HERE = os.path.dirname(os.path.abspath(__file__))


# ----------------------------------------------------------------------
# inputs and references
# ----------------------------------------------------------------------

def make_inputs(seed: int) -> Dict:
    from repro.cfg.builder import cfg_from_edges

    import layers
    import reference

    rng = random.Random(f"{NAME}/{seed}")
    graphs = []
    for g in range(GRAPHS):
        source, proc = _sized_procedure(rng, f"svc{g}")
        specs = layers.edge_specs(proc.cfg)
        start, end = proc.cfg.start, proc.cfg.end
        edits = []
        for u, v, *_ in rng.sample(specs, EDITS):
            edited = cfg_from_edges(specs + [(u, NEW_NODE), (NEW_NODE, v)], start=start, end=end)
            edits.append({
                "add": {"op": "add_node", "node": NEW_NODE, "preds": [u], "succs": [v]},
                "remove": {"op": "remove_node", "node": NEW_NODE},
                "expected": reference.graph_summary(edited),
            })
        graphs.append({
            "source": source,
            "cfg": {"edges": [list(s) for s in specs], "start": start, "end": end},
            "base": reference.graph_summary(proc.cfg),
            "edits": edits,
        })
    return {"graphs": graphs}


def _sized_procedure(rng: random.Random, name: str):
    """A structured procedure of about ``NODES`` blocks: a sequence of
    small random procedure bodies, added until their blocks reach it.

    One large random procedure's block count swings by a fifth between
    seeds; building from small pieces keeps graph size, and so round
    cost, out of the run-to-run spread.  The result is broad and shallow,
    the PST shape the paper reports for real procedures.
    """
    from repro.lang import astnodes as ast
    from repro.lang import lower_program, lower_procedure, parse_program
    from repro.lang.pretty import pretty_procedure
    from repro.synth.structured import random_procedure_ast

    statements, blocks = [], 0
    while blocks < NODES:
        piece = random_procedure_ast(rng.randrange(1 << 30), target_statements=rng.randint(20, 80))
        blocks += lower_procedure(piece).cfg.num_nodes - 2  # less its start and end
        statements.extend(piece.body.statements[:-1])  # less its return
    statements.append(ast.Return(ast.Var("p0")))
    source = pretty_procedure(ast.Procedure(name, ["p0", "p1", "p2"], ast.Block(statements)))
    [proc] = lower_program(parse_program(source))
    return source, proc


def expected_round(base: Dict, expected: Dict) -> Tuple:
    analyses = {
        "control-regions": {"classes": expected["classes"]},
        "dominators": {"entries": expected["idom"]},
        "pst": {"regions": expected["regions"]},
    }
    edited = {"nodes": expected["nodes"], "edges": expected["edges"]}
    return (
        (200, True, 1, edited, expected["regions"]),
        (200, True, False, edited, analyses),
        (200, True, True, edited, analyses),
        (200, True, 1, {"nodes": base["nodes"], "edges": base["edges"]}, base["regions"]),
    )


def observed_round(replies) -> Tuple:
    (s1, a), (s2, m), (s3, h), (s4, b) = replies
    return (
        (s1, a.get("ok"), a.get("applied"), a.get("graph"), a.get("pst", {}).get("regions")),
        (s2, m.get("ok"), m.get("cached"), m.get("graph"), m.get("analyses")),
        (s3, h.get("ok"), h.get("cached"), h.get("graph"), h.get("analyses")),
        (s4, b.get("ok"), b.get("applied"), b.get("graph"), b.get("pst", {}).get("regions")),
    )


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------

class Client:
    """One keep-alive connection; every request waits for its answer."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, path: str, body: bytes) -> Tuple[int, Dict]:
        self.conn.request("POST", path, body, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def get(self, path: str) -> Tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def encode(body: Dict) -> bytes:
    return json.dumps(body).encode()


def prepare(client: Client, graphs: List[Dict]) -> List[Dict]:
    """First request per graph (creates the server's entry); pre-encode bodies.

    Bodies are encoded once, here, so the timed rounds measure the
    program and the wire, not the client's JSON encoder.
    """
    prepared = []
    for g, graph in enumerate(graphs):
        client_name = CLIENT.format(g)
        analysis = encode({"client": client_name, "cfg": graph["cfg"]})
        status, reply = client.post("/run_analysis", analysis)
        if status != 200:
            raise RuntimeError(f"priming request failed: {status} {reply}")
        key = reply["key"]
        prepared.append({
            "analysis": analysis,
            "edits": [
                (
                    encode({"client": client_name, "key": key, "deltas": [edit["add"]]}),
                    encode({"client": client_name, "key": key, "deltas": [edit["remove"]]}),
                    expected_round(graph["base"], edit["expected"]),
                )
                for edit in graph["edits"]
            ],
        })
    return prepared


REQUESTS = ("service.apply", "service.miss", "service.hit", "service.apply_inverse")


def edit_round(client: Client, graph: Dict, edit: int, tracer, op: int):
    """The four requests; returns (replies, client ms each, server ms each)."""
    add, remove, _ = graph["edits"][edit]
    replies, client_ms = [], []
    for name, path, body in zip(
        REQUESTS,
        ("/apply_delta", "/run_analysis", "/run_analysis", "/apply_delta"),
        (add, graph["analysis"], graph["analysis"], remove),
    ):
        started = time.perf_counter()
        with tracer.span(name, op):
            replies.append(client.post(path, body))
        client_ms.append((time.perf_counter() - started) * 1e3)
    server_ms = [reply.get("elapsed", 0.0) * 1e3 for _, reply in replies]
    return replies, client_ms, server_ms


def _pass(client: Client, prepared: List[Dict], seconds: float, tracer) -> List[list]:
    """Rounds for ``seconds``; see :func:`round_record` for the fields."""

    def op(k):
        g = k % len(prepared)
        edit = (k // len(prepared)) % EDITS
        started = time.perf_counter()
        with tracer.span("op", k):
            replies, client_ms, server_ms = edit_round(client, prepared[g], edit, tracer, k)
        elapsed = (time.perf_counter() - started) * 1e3
        ok = observed_round(replies) == prepared[g]["edits"][edit][2]
        return round_record(elapsed, ok, g, replies, client_ms, server_ms)

    return harness.timed_loop(seconds, op)


def round_record(elapsed: float, ok: bool, graph: int, replies, client_ms, server_ms) -> list:
    """``[round_ms, 1, ok, degraded, graph, client ms x4, server ms x4,
    cache hits, non-2xx replies, edit_stats after the round]``."""
    degraded = int(bool(replies[1][1].get("degraded_ladder")))
    hits = sum(1 for _, reply in replies[1:3] if reply.get("cached"))
    errors = sum(1 for status, _ in replies if not 200 <= status < 300)
    stats = replies[3][1].get("edit_stats", {})
    return [elapsed, 1, int(ok), degraded, graph] + client_ms + server_ms + [hits, errors, stats]


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------

def start_server(root: str, env: Dict[str, str], watch_gc: bool = False):
    """Launch the server; returns (process, port) once it has announced.

    ``watch_gc`` runs it under ``serve_gc.py``, which counts the server's
    collections and prints them on exit.
    """
    argv = [sys.executable, os.path.join(HERE, "serve_gc.py")] if watch_gc else [sys.executable, "-m", "repro"]
    proc = subprocess.Popen(
        argv + ["serve", "--port", "0"], stdout=subprocess.PIPE, env=env, cwd=root, text=True
    )
    line = proc.stdout.readline()
    if "http://" not in line:
        stop_server(proc)
        raise RuntimeError(f"server did not announce itself: {line!r}")
    port = int(line.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])
    return proc, port


def stop_server(proc) -> str:
    """SIGTERM (the server drains), wait, and return what it printed after."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        rest, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        rest, _ = proc.communicate()
    return rest or ""


def wait_healthy(port: int, timeout: float = 60.0) -> None:
    deadline = time.perf_counter() + timeout
    while True:
        try:
            client = Client(port)
            try:
                status, _ = client.get("/healthz")
            finally:
                client.close()
            if status == 200:
                return
        except OSError:
            pass
        if time.perf_counter() > deadline:
            raise RuntimeError("server never became healthy")
        time.sleep(0.002)


def setup_seconds(root: str, env: Dict[str, str], launches: int) -> List[float]:
    """Fresh server processes: process start to ``/healthz`` answering 200."""
    out = []
    for _ in range(launches):
        started = time.perf_counter()
        proc, port = start_server(root, env)
        try:
            wait_healthy(port)
            out.append(time.perf_counter() - started)
        finally:
            stop_server(proc)
    return out


def _session(job: Dict, seconds: float, tracer, watch_gc: bool):
    """One server process: prime, run a pass, read its peak RSS, stop it."""
    env = harness.program_env(job["root"])
    proc, port = start_server(job["root"], env, watch_gc)
    client = Client(port)
    try:
        prepared = prepare(client, job["graphs"])
        for g in range(len(prepared)):  # warm each graph's edit path once
            edit_round(client, prepared[g], 0, harness.NullTracer(), -1)
        gc.collect()
        records = _pass(client, prepared, seconds, tracer)
    finally:
        client.close()
        tail = stop_server(proc)
    gc_stats = json.loads(tail.strip().splitlines()[-1]) if watch_gc else None
    # The server is the only child reaped so far.
    return records, harness.children_max_rss_mb(), gc_stats


def timed(job: Dict) -> Dict:
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    records, rss, gc_stats = _session(job, seconds, harness.NullTracer(), watch_gc=job["trace"])
    out = {"records": records, "rss_mb": rss, "gc": gc_stats or {"gen2": 0, "pause_ms": 0.0}}
    if job["trace"]:
        import layers

        tracer, probe = harness.Tracer(), layers.Probe()
        traced, _, _ = _session(job, seconds, tracer, watch_gc=False)
        for k, graph in enumerate(job["graphs"]):
            probe.source(graph["source"], k)
        out["traced"] = traced
        out["layers"] = dict(
            probe.metrics(),
            **layers.span_metrics(tracer, sum(r[1] for r in traced)),
            **layers.batch_probe("".join(graph["source"] for graph in job["graphs"])),
            **service_metrics(traced),
        )
    return out


def service_metrics(records: List[list]) -> Dict[str, float]:
    """Per-request client and server times, and the edit layer's counters.

    ``records`` come from :func:`timed_loop` over :func:`round_record`.
    Edit counters are per graph (one edit session each), so their deltas
    are taken per graph and summed.
    """
    client = [sum(column, ()) for column in zip(*[[(x,) for x in r[6:10]] for r in records])]
    server = [sum(column, ()) for column in zip(*[[(x,) for x in r[10:14]] for r in records])]
    first: Dict[int, Dict] = {}
    last: Dict[int, Dict] = {}
    for r in records:
        first.setdefault(r[5], r[16])
        last[r[5]] = r[16]

    def delta(name: str) -> int:
        return sum(last[g].get(name, 0) - first[g].get(name, 0) for g in last)

    applied = delta("deltas_applied") or 1
    every_client = sum(client, ())
    every_server = sum(server, ())
    return {
        "service.apply_ms": statistics.fmean(client[0] + client[3]),
        "service.miss_ms": statistics.fmean(client[1]),
        "service.hit_ms": statistics.fmean(client[2]),
        "service.server_ms": statistics.fmean(every_server),
        "service.wire_ms": statistics.fmean(every_client) - statistics.fmean(every_server),
        "service.hit_ratio": sum(r[14] for r in records) / (2 * len(records)),
        "service.error_ratio": sum(r[15] for r in records) / (4 * len(records)),
        "incremental.apply_ms": statistics.fmean(server[0] + server[3]),
        "incremental.splice_ratio": delta("splices") / applied,
        "incremental.full_recompute_ratio": delta("full_recomputes") / applied,
    }


@contextlib.contextmanager
def in_process_server():
    """An ``AnalysisServer`` on a loopback port in this process; yields a client."""
    from repro.service.server import AnalysisServer, ServiceConfig

    server = AnalysisServer(ServiceConfig(port=0))
    httpd = server.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = Client(server.address[1])
    try:
        yield client
    finally:
        client.close()
        server.shutdown()
        thread.join(timeout=30)


def in_process_probe(sources: List[str]) -> Dict[str, float]:
    """The service layer on another workload's graphs, off its path.

    Runs three edit rounds per graph against :func:`in_process_server`, so
    ``service.*`` and ``incremental.*`` are measured on every workload's
    inputs.
    """
    from repro.lang import lower_program, parse_program

    import layers
    import reference

    graphs = []
    for source in sources:
        [proc] = lower_program(parse_program(source))
        specs = layers.edge_specs(proc.cfg)
        base = reference.graph_summary(proc.cfg)
        u, v = specs[len(specs) // 2][:2]
        graphs.append({
            "cfg": {"edges": [list(s) for s in specs], "start": proc.cfg.start, "end": proc.cfg.end},
            "base": base,
            "edits": [{
                "add": {"op": "add_node", "node": NEW_NODE, "preds": [u], "succs": [v]},
                "remove": {"op": "remove_node", "node": NEW_NODE},
                "expected": base,
            }],
        })
    with in_process_server() as client:
        prepared = prepare(client, graphs)
        records = []
        for k in range(3 * len(prepared)):
            g = k % len(prepared)
            replies, client_ms, server_ms = edit_round(client, prepared[g], 0, harness.NullTracer(), k)
            records.append([0.0] + round_record(0.0, True, g, replies, client_ms, server_ms))
    return service_metrics(records)


def calls(job: Dict) -> Dict:
    """Python calls per layer per round, server in-process, two rounds per graph."""
    import layers

    null = harness.NullTracer()
    with in_process_server() as client:
        prepared = prepare(client, job["graphs"])
        for g in range(len(prepared)):
            edit_round(client, prepared[g], 0, null, -1)
        counter = harness.CallCounter(job["package"])
        rounds = 2 * len(prepared)
        # The server serves a keep-alive connection on one thread, started
        # with the connection; reconnect so that thread starts under the hook.
        client.close()
        with counter:
            for k in range(rounds):
                edit_round(client, prepared[k % len(prepared)], 1 + k // len(prepared), null, k)
    return layers.calls_metrics(counter.per_layer(), rounds, counter.lookups, counter.freezes)
