"""The benchmark's own tests: its answer checks must catch a wrong answer.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "src")]

import compile_pipeline  # noqa: E402
import corpus_batch  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import service_edit  # noqa: E402


def _compile_job():
    # The smallest procedures keep the test quick.
    procs = sorted(layers.split_procedures("".join(compile_pipeline.make_inputs(1)["files"])), key=len)
    return {"files": ["".join(procs[i:i + 4]) for i in range(0, 12, 4)]}


def _ok_ratio(records):
    return run.end_to_end(1.0, records, 1.0, False)["ok_ratio"]


def test_compile_pipeline_answers_match_reference():
    job = _compile_job()
    records = compile_pipeline._pass(job, 0.5, harness.NullTracer())
    compile_pipeline._check(job, records)
    assert records and _ok_ratio(records) == 1.0


def test_corrupted_compile_answer_lowers_ok_ratio(monkeypatch):
    job = _compile_job()
    honest = compile_pipeline.answer_of
    calls = []

    def corrupted(*artifacts):
        answer = honest(*artifacts)
        calls.append(1)
        if len(calls) == 2:  # one wrong dominator entry in the second procedure
            node = next(iter(answer["idom"]))
            answer["idom"] = dict(answer["idom"], **{node: "not-a-node"})
        return answer

    monkeypatch.setattr(compile_pipeline, "answer_of", corrupted)
    records = compile_pipeline._pass(job, 0.5, harness.NullTracer())
    compile_pipeline._check(job, records)
    assert len(records) >= 1
    assert _ok_ratio(records) < 1.0
    assert sum(r[2] - r[3] for r in records) == 1


def test_corrupted_batch_status_lowers_ok_ratio(monkeypatch):
    job = corpus_batch.make_inputs(1)
    job = {"files": job["files"][:1], "keys": job["keys"][:1]}
    honest = corpus_batch.batch_op

    def corrupted(*args):
        report = honest(*args)
        report.results[3].status = "failed"
        return report

    monkeypatch.setattr(corpus_batch, "batch_op", corrupted)
    records = corpus_batch._pass(job, 0.1, harness.NullTracer())
    assert records and records[0][2] == len(job["keys"][0])
    assert records[0][3] == records[0][2] - 1
    assert _ok_ratio(records) < 1.0


def test_corrupted_service_reply_fails_the_round():
    base = {"nodes": 10, "edges": 12, "regions": 4, "idom": 10, "classes": 6}
    edited = {"nodes": 11, "edges": 14, "regions": 5, "idom": 11, "classes": 7}
    expected = service_edit.expected_round(base, edited)
    analyses = {
        "control-regions": {"classes": 7},
        "dominators": {"entries": 11},
        "pst": {"regions": 5},
    }
    graph = {"nodes": 11, "edges": 14}
    replies = [
        (200, {"ok": True, "applied": 1, "graph": graph, "pst": {"regions": 5}}),
        (200, {"ok": True, "cached": False, "graph": graph, "analyses": analyses}),
        (200, {"ok": True, "cached": True, "graph": graph, "analyses": analyses}),
        (200, {"ok": True, "applied": 1, "graph": {"nodes": 10, "edges": 12}, "pst": {"regions": 4}}),
    ]
    assert service_edit.observed_round(replies) == expected
    wrong = dict(analyses, pst={"regions": 6})
    replies[2] = (200, dict(replies[2][1], analyses=wrong))
    assert service_edit.observed_round(replies) != expected
