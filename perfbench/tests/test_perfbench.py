"""Self-tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import benchstats  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402
from spantrace import Span, Tracer  # noqa: E402
from streammem import GateConfig, PRESETS, QueryRequest, RemoteBackendConfig  # noqa: E402
from streammem import remote_ports, stub_ports  # noqa: E402
from streammem.errors import BackendError  # noqa: E402
from streammem.frame_gate import Chunk  # noqa: E402
from streammem.harness import gen_trace  # noqa: E402
from streammem.pipeline import run_sim  # noqa: E402
from streammem.retrieval import assemble_context, encode_query  # noqa: E402


# -- the percentile rule --------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert benchstats.percentile(range(1, 101), 90) == 90
    with pytest.raises(benchstats.TooFewSamples):
        benchstats.percentile(range(1, 100), 90)
    assert benchstats.percentile(range(1, 1001), 99) == 990
    with pytest.raises(benchstats.TooFewSamples):
        benchstats.percentile(range(1, 1000), 99)
    assert benchstats.min_samples(90) == 100
    assert benchstats.min_samples(99) == 1000


def test_percentile_rejects_bad_input():
    with pytest.raises(benchstats.TooFewSamples):
        benchstats.percentile([], 50)
    with pytest.raises(ValueError):
        benchstats.percentile(range(1000), 100)


def test_recall_floor_fails_only_improbable_shortfalls():
    # P(X <= 14 | n=20, p=0.95) is 3.3e-4, P(X <= 15) is 2.6e-3
    assert workloads.below_floor(14, 20)
    assert not workloads.below_floor(15, 20)
    assert not workloads.below_floor(18, 20)
    assert workloads.below_floor(178, 200)
    assert not workloads.below_floor(0, 1)


# -- self time ------------------------------------------------------------------


def span(sid, name, start, end, parent=0, thread=1):
    return Span(sid, name, start, end, parent, thread, None, True)


def test_self_time_subtracts_children_only():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 3.0, parent=1),
        span(3, "b", 4.0, 8.0, parent=1),
        span(4, "b.inner", 5.0, 6.5, parent=3),
        span(5, "other", 20.0, 21.0),
    ]
    selfs = spantrace.self_times(spans)
    assert selfs == {1: 4.0, 2: 2.0, 3: 2.5, 4: 1.5, 5: 1.0}
    assert sum(selfs[s] for s in (1, 2, 3, 4)) == 10.0  # self times partition the root


def test_query_ids_group_sim_steps_and_engine_queries():
    spans = [
        span(1, spantrace.SIM_ROOT, 0, 100),
        span(2, "frame_gate.update", 1, 2, parent=1),
        span(3, "memory_core.snapshot", 3, 4, parent=1),
        span(4, "retrieval.encode_query", 4, 5, parent=1),
        span(5, "ports.text_encoder", 4.1, 4.9, parent=4),
        span(6, "ports.generator", 5, 6, parent=1),
        span(7, "memory_core.dialogue_append", 6, 7, parent=1),
        span(8, "frame_gate.update", 7, 8, parent=1),
        span(9, spantrace.QUERY_ROOT, 200, 210, thread=2),
        span(10, "retrieval.assemble_context", 201, 205, parent=9, thread=2),
    ]
    qid = spantrace.query_ids(spans)
    assert qid == {3: 0, 4: 0, 5: 0, 6: 0, 9: 1, 10: 1}
    assert spantrace.query_starts(spans, qid) == [3, 200]


# -- wrapper transparency -------------------------------------------------------


class Thing:
    def work(self, x):
        return [x]

    def fail(self):
        raise BackendError("port down", endpoint="embed")


def test_wrapper_passes_results_and_exceptions_through():
    tracer = Tracer()
    result = object()
    assert tracer.wrap("f", lambda: result)() is result
    error = BackendError("port down", endpoint="embed", attempts=3)

    def failing():
        raise error

    with pytest.raises(BackendError) as info:
        tracer.wrap("g", failing)()
    assert info.value is error
    assert [(s.name, s.ok) for s in tracer.spans] == [("f", True), ("g", False)]


def test_patch_restores_class_and_instance_attributes():
    tracer = Tracer()
    original = Thing.__dict__["work"]
    thing = Thing()
    tracer.patch("thing.work", Thing, "work", note=lambda a, r: len(r))
    tracer.patch("thing.fail", thing, "fail")
    assert thing.work(7) == [7]
    with pytest.raises(BackendError):
        thing.fail()
    tracer.restore()
    assert Thing.__dict__["work"] is original
    assert "fail" not in vars(thing)
    assert [(s.name, s.value, s.ok) for s in tracer.spans] == [
        ("thing.work", 1.0, True), ("thing.fail", None, False)]


def test_missing_name_is_reported_missing_not_zero():
    tracer = Tracer()
    tracer.patch("memory_core.kmeans", object(), "kmeans")
    tracer.patch("frame_gate.update", Thing, "update")  # no such attribute
    assert tracer.missing == ["memory_core.kmeans", "frame_gate.update"]
    metrics = spantrace.layer_metrics(tracer, {"wall": 1.0})
    for name in ("memory_core.kmeans.calls", "memory_core.kmeans.busy_s",
                 "memory_core.kmeans.rows", "frame_gate.update.calls",
                 "frame_gate.kept_ratio"):
        assert metrics[name] is None, name
    assert metrics["ports.text_encoder.calls"] == 0.0


def test_traced_replay_is_byte_identical_and_counts_repeat():
    trace = gen_trace(num_scenes=3, scene_duration=6.0, fps=5.0, seed=4)
    frames = trace.frames()
    requests = [QueryRequest(q.question, q.t_input) for q in trace.queries]
    cfg = PRESETS["base"]
    gate = GateConfig(threshold_t=cfg.threshold_t)
    plain = run_sim(frames, requests, cfg, gate, stub_ports()).to_json_str()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        ports = workloads.traced_ports(tracer, stub_ports())
        workloads.instrument(tracer)
        try:
            traced = tracer.wrap(spantrace.SIM_ROOT, run_sim)(frames, requests, cfg, gate, ports)
        finally:
            tracer.restore()
        assert traced.to_json_str() == plain
        assert not tracer.missing
        metrics = spantrace.layer_metrics(tracer, {"wall": 1.0})
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["frame_gate.update.calls"] == len(frames)
    assert counts[0]["retrieval.encode_query.calls"] == len(requests)


def test_oracles_agree_with_retrieval():
    trace = gen_trace(num_scenes=4, scene_duration=10.0, fps=5.0, seed=2)
    cfg = PRESETS["base"]
    with workloads.captured_snapshots() as seen:
        run_sim(trace.frames(), [QueryRequest(q.question, q.t_input) for q in trace.queries],
                cfg, GateConfig(threshold_t=cfg.threshold_t), stub_ports())
    ports = stub_ports()
    for (_, snap), query in zip(seen, trace.queries):
        q = encode_query(query.question, ports.text_encoder)
        bundle = assemble_context(snap, q, cfg)
        path = tuple((s.level, s.index) for s in bundle.path.steps)
        assert path == workloads.oracle_path(snap.tree, q.vec)
        assert bundle.dialogue_context == workloads.oracle_dialogue(snap.dialogue, q.vec)


# -- the stub model server ------------------------------------------------------


@pytest.fixture
def server_url():
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "model_server.py"), str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(proc.stdout.readline())
        yield f"http://127.0.0.1:{port}"
    finally:
        proc.stdin.close()
        assert proc.wait(timeout=10) == 0  # closing stdin stops the server
        proc.stdout.close()


def test_server_answers_like_the_stub_ports(server_url):
    stub = stub_ports()
    remote = remote_ports(RemoteBackendConfig(base_url=server_url))
    for text in ("what was happening in the harbor scene", "", "Q: a A: b"):
        assert np.array_equal(remote.text_encoder(text), stub.text_encoder(text))
    chunk = Chunk(embeddings=(), span=(0.0, 1.0), tags=("kitchen", "garden"))
    assert remote.captioner.caption_chunk(chunk) == stub.captioner.caption_chunk(chunk)
    captions = ["scene: kitchen", "scene: garden, unknown"]
    assert remote.captioner.summarize(captions) == stub.captioner.summarize(captions)
    assert remote.judge("q", "scene: kitchen", "scene: kitchen") == stub.judge(
        "q", "scene: kitchen", "scene: kitchen")

    trace = gen_trace(num_scenes=3, scene_duration=8.0, fps=5.0, seed=1)
    requests = [QueryRequest(q.question, q.t_input) for q in trace.queries]
    cfg = PRESETS["base"]
    gate = GateConfig(threshold_t=cfg.threshold_t)
    via_stub = run_sim(trace.frames(), requests, cfg, gate, stub)
    via_server = run_sim(trace.frames(), requests, cfg, gate,
                         dataclasses.replace(remote, judge=stub.judge))
    assert [(a.answer, a.bundle_digest) for a in via_server.answers] == [
        (a.answer, a.bundle_digest) for a in via_stub.answers]
