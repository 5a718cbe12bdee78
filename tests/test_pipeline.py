import dataclasses
import hashlib
import itertools
import os
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from oracles import scan_dialogue
from streammem.cli import main
from streammem.errors import BackendError, InputError
from streammem.frame_gate import Frame, FrameGate, GateConfig, VisionBuffer
from streammem.harness import (
    SceneDef,
    SceneSpec,
    gen_trace,
    save_trace,
    smooth_texture,
    synth_scenes,
)
from streammem.memory_core import PRESETS, MemoryConfig, MemoryStore
from streammem.pipeline import (
    Engine,
    QueryRequest,
    run,
    run_sim,
    run_wall,
)
from streammem.ports import TagCaptioner, stub_ports
from streammem.retrieval import assemble_context, bundle_digest, encode_query


def moving_scene_frames(n_scenes=3, duration=10.0, fps=5.0, seed=0, motion=0.5):
    spec = SceneSpec(
        scenes=tuple(
            SceneDef(tags=(f"scene{i}",), duration=duration, motion=motion)
            for i in range(n_scenes)
        ),
        fps=fps,
        seed=seed,
    )
    frames = list(synth_scenes(spec))
    return frames


def small_cfg(**kw):
    defaults = dict(chunk_len_L=5, group_size_g=2, cluster_goal_C=2, rng_seed=0)
    defaults.update(kw)
    return MemoryConfig(**defaults)


def sequential_reference_digests(frames, queries, mem_cfg, gate_cfg, ports):
    """Straight-line replay of the same event order, no scheduling machinery."""
    gate = FrameGate(gate_cfg)
    buf = VisionBuffer(mem_cfg.chunk_len_L)
    store = MemoryStore(mem_cfg, ports.captioner, ports.text_encoder)
    digests = []
    frame_iter = iter(frames)
    pending = next(frame_iter, None)
    qi = 0
    while pending is not None or qi < len(queries):
        ft = pending.timestamp if pending is not None else None
        qt = queries[qi].t_input if qi < len(queries) else None
        if ft is not None and (qt is None or ft <= qt):
            decision = gate.update(pending)
            if decision.kept:
                chunk = buf.push(ports.frame_encoder(pending))
                if chunk is not None:
                    store.on_chunk(chunk)
            pending = next(frame_iter, None)
            if pending is None:
                final = buf.flush()
                if final is not None:
                    store.on_chunk(final)
        else:
            req = queries[qi]
            q = encode_query(req.question, ports.text_encoder)
            bundle = assemble_context(store.snapshot(), q, mem_cfg)
            digests.append(bundle_digest(bundle))
            answer = ports.generator(bundle)
            store.on_answer(req.question, answer, req.t_input)
            qi += 1
    return digests


class TestRunSim:
    def test_identical_frames_keep_one_no_answers(self):
        tex = smooth_texture(np.random.default_rng(0), 32)
        frames = [Frame(pixels=tex, timestamp=float(i)) for i in range(100)]
        report = run_sim(frames, [], small_cfg(), GateConfig(threshold_t=0.35), stub_ports())
        assert report.frames_in == 100
        assert report.frames_kept == 1
        assert report.answers == []

    def test_same_seed_byte_identical_reports(self):
        frames = moving_scene_frames()
        queries = [QueryRequest("what was in the scene1 scene", 15.0)]
        cfg, gcfg, ports = small_cfg(), GateConfig(threshold_t=0.35), stub_ports()
        a = run_sim(frames, queries, cfg, gcfg, ports).to_json_str()
        b = run_sim(moving_scene_frames(), queries, cfg, gcfg, ports).to_json_str()
        assert a == b

    def test_digests_match_sequential_reference(self):
        frames = moving_scene_frames()
        queries = [
            QueryRequest("what was in the scene0 scene", 12.0),
            QueryRequest("what was in the scene1 scene", 22.0),
            QueryRequest("tell me about scene2", 29.0),
        ]
        cfg, gcfg, ports = small_cfg(), GateConfig(threshold_t=0.35), stub_ports()
        report = run_sim(frames, queries, cfg, gcfg, ports)
        expected = sequential_reference_digests(
            moving_scene_frames(), queries, cfg, gcfg, ports
        )
        assert [a.bundle_digest for a in report.answers] == expected

    def test_query_before_any_frame_still_answered(self):
        frames = moving_scene_frames(n_scenes=1, duration=5.0)
        report = run_sim(
            frames,
            [QueryRequest("anything there", -1.0)],
            small_cfg(),
            GateConfig(),
            stub_ports(),
        )
        assert len(report.answers) == 1
        assert report.answers[0].answer == "no visual memory yet"

    def test_rpd_nonnegative_and_order_preserved(self):
        frames = moving_scene_frames()
        queries = [QueryRequest(f"q{i} scene{i % 3}", 5.0 + 8.0 * i) for i in range(3)]
        report = run_sim(frames, queries, small_cfg(), GateConfig(), stub_ports())
        assert all(a.rpd >= 0 for a in report.answers)
        assert [a.t_input for a in report.answers] == sorted(
            a.t_input for a in report.answers
        )
        for a in report.answers:
            assert a.rpd == pytest.approx(a.t_start - a.t_input)

    def test_sim_answers_take_no_stream_time(self):
        frames = moving_scene_frames()
        queries = [QueryRequest(f"q{i} scene{i % 3}", 5.0 + 8.0 * i) for i in range(3)]
        report = run_sim(frames, queries, small_cfg(), GateConfig(), stub_ports())
        assert len(report.answers) == 3
        for a in report.answers:
            assert a.t_start == a.t_done == a.t_input
            assert a.rpd == 0.0

    def test_unsorted_queries_rejected(self):
        frames = moving_scene_frames(n_scenes=1, duration=2.0)
        with pytest.raises(InputError):
            run_sim(
                frames,
                [QueryRequest("b", 5.0), QueryRequest("a", 1.0)],
                small_cfg(),
                GateConfig(),
                stub_ports(),
            )

    def test_follow_up_query_sees_prior_turn(self):
        frames = moving_scene_frames(n_scenes=2, duration=10.0)
        queries = [
            QueryRequest("describe the scene0 lantern area", 12.0),
            QueryRequest("remind me about the scene0 lantern area you described", 18.0),
        ]
        report = run_sim(frames, queries, small_cfg(), GateConfig(), stub_ports())
        assert "recalling" in report.answers[1].answer
        assert "lantern" in report.answers[1].answer

    def test_threshold_zero_loses_no_embeddings(self):
        frames = moving_scene_frames(n_scenes=2, duration=6.0, motion=0.4)
        cfg = small_cfg(chunk_len_L=7)
        report = run_sim(frames, [], cfg, GateConfig(threshold_t=0.0), stub_ports())
        # a fresh store replay to inspect the final tree
        store = MemoryStore(cfg, stub_ports().captioner, stub_ports().text_encoder)
        assert report.frames_kept == report.frames_in
        # every kept frame lands in exactly one flushed chunk
        expected_units = -(-report.frames_kept // cfg.chunk_len_L)
        frames2 = moving_scene_frames(n_scenes=2, duration=6.0, motion=0.4)
        gate = FrameGate(GateConfig(threshold_t=0.0))
        buf = VisionBuffer(cfg.chunk_len_L)
        ports = stub_ports()
        total = 0
        for f in frames2:
            if gate.update(f).kept:
                chunk = buf.push(ports.frame_encoder(f))
                if chunk:
                    store.on_chunk(chunk)
                    total += len(chunk)
        final = buf.flush()
        if final:
            store.on_chunk(final)
            total += len(final)
        assert total == report.frames_kept
        assert len(store.tree) == expected_units


# sha256 of run_sim(...).to_json_str(), taken from the implementation that
# ran k-means one restart and one cluster at a time, took the gate's
# gradients afresh on every compare and averaged each histogram cell alone:
# making these kernels faster must not change a report byte
REPORT_SHA256 = {
    ("slow", 14101): "8ed68c48b6133e14a1b8e2d1c5093f130b73fef9204d187c94139b9201570a4d",
    ("slow", 14102): "43f18bff2d34df47244d86ef78d904558984ab292e8ef43454e4d275000f2a94",
    ("base", 14101): "cb91a859efe3384625af06143fe0e47f2570afede21acc84ce5b6d0d90ec6f4f",
    ("base", 14102): "06b7bd618ad9de5f87172e5d7925457a785acfe40cc157b549d7ca6b8689d26b",
    ("fast", 14101): "ad6b449c3ff97aeb7a7bf571330678673bcbd5ef455420fabe2926e954b7479f",
    ("fast", 14102): "354c72af9056b7700d4efee2d3546dc701d848584234e2396d98e69abe8dab64",
}


@pytest.mark.parametrize(("preset", "seed"), list(REPORT_SHA256))
def test_report_bytes_pinned(preset, seed):
    cfg = dataclasses.replace(PRESETS[preset], rng_seed=seed)
    trace = gen_trace(6, 20, fps=10, seed=seed)
    queries = [QueryRequest(q.question, q.t_input) for q in trace.queries]
    report = run_sim(trace.frames(), queries, cfg, GateConfig(threshold_t=cfg.threshold_t),
                     stub_ports())
    assert hashlib.sha256(report.to_json_str().encode()).hexdigest() == REPORT_SHA256[(preset, seed)]


class TestWallMode:
    def test_basic_run_produces_answers_and_valid_snapshots(self):
        frames = moving_scene_frames(n_scenes=2, duration=8.0)
        queries = [QueryRequest("what is in scene0", 9.0), QueryRequest("scene1 now", 15.9)]
        cfg = small_cfg()
        report = run_wall(frames, queries, cfg, GateConfig(threshold_t=0.35), stub_ports())
        assert report.frames_in == len(frames)
        assert len(report.answers) == 2
        assert all(a.rpd >= 0 for a in report.answers)

    def test_engine_rejects_query_after_stop(self):
        engine = Engine(small_cfg(), GateConfig(), stub_ports())
        engine.start(iter(moving_scene_frames(n_scenes=1, duration=2.0)))
        engine.wait_source_done()
        engine.stop()
        with pytest.raises(InputError):
            engine.submit_query("too late")

    def test_snapshot_isolation_under_concurrent_queries(self):
        frames = moving_scene_frames(n_scenes=3, duration=6.0, fps=10.0)
        cfg = small_cfg(chunk_len_L=3, group_size_g=2)
        engine = Engine(cfg, GateConfig(threshold_t=0.0), stub_ports())
        engine.start(iter(frames))
        try:
            for i in range(100):
                snap = engine.latest_snapshot()
                snap.check(cfg.group_size_g)
                engine.submit_query(f"query {i} scene{i % 3}")
        finally:
            engine.wait_source_done()
            engine.stop()
        engine.latest_snapshot().check(cfg.group_size_g)

    def test_run_dispatch_unknown_mode(self):
        with pytest.raises(InputError):
            run([], [], small_cfg(), GateConfig(), stub_ports(), clock_mode="quantum")


def finish_within(fn, timeout):
    """Run fn in a daemon thread; fail if it has not returned or raised
    within `timeout` seconds.  Returns (result, exception)."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except Exception as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    return out.get("result"), out.get("error")


class FailingCaptioner(TagCaptioner):
    def caption_chunk(self, chunk):
        raise RuntimeError("captioner down")


class FailingSummarizer(TagCaptioner):
    def summarize(self, captions):
        raise RuntimeError("summarizer down")


class FailingGenerator:
    def __call__(self, bundle):
        raise RuntimeError("generator down")


class FailingFrameEncoder:
    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fail_at = fail_at
        self.calls = 0

    def __call__(self, frame):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("frame encoder down")
        return self.inner(frame)


class DialogueFailingTextEncoder:
    """Encodes queries and captions, fails on every dialogue-turn write."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, text):
        if text.startswith("Q: "):
            raise RuntimeError("text encoder down")
        return self.inner(text)


class InputRejectingCaptioner(TagCaptioner):
    def caption_chunk(self, chunk):
        raise InputError("chunk rejected")


class CountingCaptioner(TagCaptioner):
    def __init__(self):
        self.chunks = 0

    def caption_chunk(self, chunk):
        self.chunks += 1
        return super().caption_chunk(chunk)


def wall_queries():
    return [QueryRequest(f"what is in scene{i}", 4.0 + 5.0 * i) for i in range(5)]


class TestWallFailures:
    def run_failing(self, ports):
        frames = moving_scene_frames(n_scenes=3, duration=10.0)
        return finish_within(
            lambda: run_wall(frames, wall_queries(), small_cfg(), GateConfig(), ports), 10.0
        )

    def test_failing_captioner_is_raised(self):
        ports = dataclasses.replace(stub_ports(), captioner=FailingCaptioner())
        _, error = self.run_failing(ports)
        assert isinstance(error, BackendError)
        assert "captioner down" in str(error)

    @pytest.mark.parametrize("driver", [run_sim, run_wall], ids=["sim", "wall"])
    def test_failing_summarize_is_backend_error(self, driver):
        # a parent build's port failure surfaces like a chunk build's
        ports = dataclasses.replace(stub_ports(), captioner=FailingSummarizer())
        frames = moving_scene_frames(n_scenes=3, duration=10.0)
        _, error = finish_within(
            lambda: driver(frames, wall_queries(), small_cfg(), GateConfig(), ports), 10.0
        )
        assert isinstance(error, BackendError)
        assert "summarizer down" in str(error)

    def test_failing_generator_is_answer_error_in_sim(self):
        ports = dataclasses.replace(stub_ports(), generator=FailingGenerator())
        frames = moving_scene_frames(n_scenes=3, duration=10.0)
        report = run_sim(frames, wall_queries(), small_cfg(), GateConfig(), ports)
        assert [(a.answer, a.error) for a in report.answers] == (
            [("", "generation failed: generator down")] * len(wall_queries())
        )

    def test_failing_generator_is_answer_error_in_engine(self):
        ports = dataclasses.replace(stub_ports(), generator=FailingGenerator())
        engine = Engine(small_cfg(), GateConfig(), ports)
        engine.start(iter(moving_scene_frames(n_scenes=1, duration=2.0)))
        assert engine.wait_source_done(10.0)
        assert engine.submit_query("what is in scene0").error == "generation failed: generator down"
        _, error = finish_within(engine.stop, 10.0)
        assert error is None
        assert engine.latest_snapshot().dialogue == ()  # a failed answer forms no turn

    def test_empty_question_refused_and_engine_answers_on(self):
        engine = Engine(small_cfg(), GateConfig(), stub_ports())
        engine.start(iter(moving_scene_frames(n_scenes=1, duration=2.0)))
        assert engine.wait_source_done(10.0)
        with pytest.raises(InputError):
            engine.submit_query("")
        assert engine.submit_query("what is in scene0").error is None
        _, error = finish_within(engine.stop, 10.0)
        assert error is None
        assert [e.question for e in engine.latest_snapshot().dialogue] == ["what is in scene0"]

    def test_failing_frame_encoder_is_raised(self):
        ports = stub_ports()
        ports.frame_encoder = FailingFrameEncoder(ports.frame_encoder, fail_at=10)
        _, error = self.run_failing(ports)
        assert isinstance(error, BackendError)
        assert str(error) == "frame encoding failed: frame encoder down"
        assert ports.frame_encoder.calls == 10  # intake stopped at the failure

    def test_failing_frame_encoder_is_backend_error_in_sim(self):
        ports = stub_ports()
        ports.frame_encoder = FailingFrameEncoder(ports.frame_encoder, fail_at=10)
        with pytest.raises(BackendError, match="^frame encoding failed: frame encoder down$"):
            run_sim(moving_scene_frames(), wall_queries(), small_cfg(), GateConfig(), ports)
        assert ports.frame_encoder.calls == 10

    def test_failing_frame_encoder_is_raised_from_engine_stop(self):
        ports = stub_ports()
        ports.frame_encoder = FailingFrameEncoder(ports.frame_encoder, fail_at=10)
        engine = Engine(small_cfg(), GateConfig(), ports)
        engine.start(iter(moving_scene_frames()))
        assert engine.wait_source_done(10.0)  # the failure ends intake
        _, error = finish_within(engine.stop, 10.0)
        assert isinstance(error, BackendError)
        assert str(error) == "frame encoding failed: frame encoder down"

    @pytest.mark.parametrize(("captioner", "message"), [
        (FailingCaptioner(), "captioner down"), (FailingSummarizer(), "summarizer down"),
    ], ids=["chunk", "parent"])
    def test_build_failure_names_its_span(self, captioner, message):
        ports = dataclasses.replace(stub_ports(), captioner=captioner)
        with pytest.raises(BackendError,
                           match=rf"^captioning span \(\d+\.\d+, \d+\.\d+\) failed: {message}$"):
            run_sim(moving_scene_frames(), [], small_cfg(), GateConfig(), ports)

    def test_input_error_in_a_port_stays_an_input_error(self):
        ports = dataclasses.replace(stub_ports(), captioner=InputRejectingCaptioner())
        with pytest.raises(InputError, match="^chunk rejected$"):
            run_sim(moving_scene_frames(), [], small_cfg(), GateConfig(), ports)

    def test_failing_dialogue_write_is_raised(self):
        ports = stub_ports()
        ports.text_encoder = DialogueFailingTextEncoder(ports.text_encoder)
        _, error = self.run_failing(ports)
        assert isinstance(error, BackendError)
        assert "text encoder down" in str(error)

    def test_engine_raises_failure_from_submit_and_stop(self):
        ports = dataclasses.replace(stub_ports(), captioner=FailingCaptioner())
        engine = Engine(small_cfg(), GateConfig(), ports)
        engine.start(iter(moving_scene_frames()))
        _, error = finish_within(engine.stop, 10.0)
        assert isinstance(error, BackendError)
        with pytest.raises(BackendError):
            engine.submit_query("anything")

    def test_failing_dialogue_write_after_source_is_raised(self):
        ports = stub_ports()
        ports.text_encoder = DialogueFailingTextEncoder(ports.text_encoder)
        engine = Engine(small_cfg(), GateConfig(), ports)
        engine.start(iter(moving_scene_frames(n_scenes=1, duration=2.0)))
        assert engine.wait_source_done(10.0)
        assert engine.submit_query("scene0 now").error is None
        _, error = finish_within(engine.stop, 10.0)
        assert isinstance(error, BackendError)
        assert "text encoder down" in str(error)
        with pytest.raises(BackendError):
            engine.submit_query("anything")

    def test_cli_wall_run_against_unreachable_backend_exits_3(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        save_trace(gen_trace(num_scenes=2, scene_duration=6.0), trace_path)
        with socket.socket() as sock:  # a port nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        code, error = finish_within(
            lambda: main([
                "run", str(trace_path), "--clock", "wall", "--backend", "remote",
                "--remote-url", f"http://127.0.0.1:{port}", "--out", str(tmp_path / "out"),
            ]),
            30.0,
        )
        assert error is None
        assert code == 3


class TestThinFrames:
    """The gate's stride leaves both downsampled sides at 2 pixels or more."""

    @staticmethod
    def frames(shape, n=12):
        tex = np.random.default_rng(15108).random(shape)
        return [Frame(pixels=np.roll(tex, 3 * i, axis=1), timestamp=float(i)) for i in range(n)]

    @pytest.mark.parametrize("shape", [(8, 600), (4, 300), (600, 8)], ids=lambda s: "%dx%d" % s)
    def test_thin_frames_pass_through_run_sim(self, shape):
        queries = [QueryRequest("what is in the frame", 11.0)]
        report = run_sim(self.frames(shape), queries, small_cfg(), GateConfig(), stub_ports())
        assert report.frames_in == 12 and report.frames_kept >= 1
        assert report.answers[0].error is None

    @pytest.mark.parametrize("shape", [(1, 8), (8, 1)], ids=lambda s: "%dx%d" % s)
    def test_frames_one_pixel_thin_rejected(self, shape):
        with pytest.raises(InputError, match="2 x 2 pixels"):
            run_sim(self.frames(shape), [], small_cfg(), GateConfig(), stub_ports())


class TestWallScheduling:
    def test_intake_never_runs_ahead_of_formation(self):
        release = threading.Event()

        class BlockingCaptioner(TagCaptioner):
            def caption_chunk(self, chunk):
                release.wait()
                return super().caption_chunk(chunk)

        cfg = small_cfg(chunk_len_L=3)
        frames = moving_scene_frames(n_scenes=3, duration=6.0, fps=10.0)
        pulled = []

        def source():
            for frame in frames:
                pulled.append(frame)
                yield frame

        ports = dataclasses.replace(stub_ports(), captioner=BlockingCaptioner())
        engine = Engine(cfg, GateConfig(threshold_t=0.0), ports)
        engine.start(source())
        try:
            assert not engine.wait_source_done(0.5)
            # the first chunk is being formed, and no frame past it was pulled
            assert len(pulled) == cfg.chunk_len_L
            # a query answers while formation is blocked
            record, error = finish_within(lambda: engine.submit_query("scene0 now"), 10.0)
            assert error is None and record.error is None
        finally:
            release.set()
            assert engine.wait_source_done(10.0)
            _, error = finish_within(engine.stop, 10.0)
        assert error is None
        assert engine.frames_in == len(frames)

    @pytest.mark.parametrize("failing", [False, True], ids=["clean", "failing"])
    def test_one_thread_that_stop_ends(self, failing):
        ports = stub_ports()
        if failing:
            ports = dataclasses.replace(ports, captioner=FailingCaptioner())
        engine = Engine(small_cfg(), GateConfig(), ports)
        before = set(threading.enumerate())
        engine.start(iter(moving_scene_frames()))
        started = set(threading.enumerate()) - before
        _, error = finish_within(engine.stop, 10.0)
        assert len(started) == 1
        assert isinstance(error, BackendError) if failing else error is None
        assert not set(threading.enumerate()) - before

    def test_every_answer_before_stop_reaches_dialogue(self):
        # four query threads beside the stream worker, with frequent thread
        # switches: a lost or reordered inbox item would break the assertions
        cfg = small_cfg()
        engine = Engine(cfg, GateConfig(), stub_ports())
        records = [[] for _ in range(4)]

        def client(k):
            for i in range(25):
                records[k].append(engine.submit_query(f"client {k} question {i} scene{i % 3}"))

        def session():
            engine.start(iter(moving_scene_frames()))
            clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
            for t in clients:
                t.start()
            for t in clients:
                t.join()
            engine.stop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _, error = finish_within(session, 30.0)
        finally:
            sys.setswitchinterval(interval)
        assert error is None
        final = engine.latest_snapshot()
        final.check(cfg.group_size_g)
        turns = [(e.question, e.answer) for e in final.dialogue]
        assert sorted(turns) == sorted((r.question, r.answer) for rs in records for r in rs)
        for rs in records:  # each client's turns keep its order
            mine = [turn for turn in turns if turn[0] in {r.question for r in rs}]
            assert mine == [(r.question, r.answer) for r in rs]

    def test_queries_read_the_dialogue_index_while_the_worker_appends(self, monkeypatch):
        # four clients ask 200 questions, so the worker's appends cross the
        # index's block edges at 64 and 192 turns while lookups read it: each
        # lookup must equal a per-turn scan of the snapshot it read, also
        # when that snapshot is read again after every append
        cfg = small_cfg()
        engine = Engine(cfg, GateConfig(), stub_ports())
        reads = []

        def recorded(snapshot, q, mem_cfg):
            bundle = assemble_context(snapshot, q, mem_cfg)
            reads.append((snapshot, q, bundle))
            return bundle

        monkeypatch.setattr("streammem.pipeline.assemble_context", recorded)

        def client(k):
            for i in range(50):
                engine.submit_query(f"client {k} asks about w{i % 7} in scene{i % 3}")

        def session():
            engine.start(iter(moving_scene_frames(n_scenes=1, duration=2.0)))
            assert engine.wait_source_done(10.0)
            clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
            for t in clients:
                t.start()
            for t in clients:
                t.join()
            engine.stop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _, error = finish_within(session, 60.0)
        finally:
            sys.setswitchinterval(interval)
        assert error is None
        assert len(engine.latest_snapshot().dialogue) == len(reads) == 200
        hits = 0
        for snapshot, q, bundle in reads:
            expected = scan_dialogue([e.vec for e in snapshot.dialogue], q.vec,
                                     cfg.min_dialogue_sim)
            if expected is None:
                assert bundle.dialogue_context is None
            else:
                hits += 1
                turn = snapshot.dialogue[expected[0]]
                assert bundle.dialogue_context == (turn.question, turn.answer)
                assert bundle.dialogue_similarity == expected[1]
            assert bundle_digest(assemble_context(snapshot, q, cfg)) == bundle_digest(bundle)
        assert hits > 100

    def test_wall_and_sim_agree_on_kept_frames_and_units(self):
        frames = moving_scene_frames(n_scenes=3, duration=10.0)
        cfg, gcfg = small_cfg(), GateConfig(threshold_t=0.35)
        counts = []
        for driver in (run_sim, run_wall):
            captioner = CountingCaptioner()
            ports = dataclasses.replace(stub_ports(), captioner=captioner)
            report = driver(frames, [], cfg, gcfg, ports)
            counts.append((report.frames_kept, captioner.chunks))
        assert counts[0] == counts[1]
        assert counts[0][1] == -(-counts[0][0] // cfg.chunk_len_L)


def endless_frames():
    """The frames of a short synthetic stream, repeated with ever later
    timestamps: a source that never ends."""
    frames = moving_scene_frames(n_scenes=2, duration=4.0)
    period = frames[-1].timestamp + 1.0
    for lap in itertools.count():
        for frame in frames:
            yield dataclasses.replace(frame, timestamp=frame.timestamp + lap * period)


class TestStop:
    def test_stop_ends_an_endless_source(self):
        engine = Engine(small_cfg(), GateConfig(), stub_ports())
        engine.start(endless_frames())
        engine.wait_progress(20.0)
        records = [engine.submit_query(f"what is in scene{i}") for i in range(3)]
        _, error = finish_within(engine.stop, 1.0)
        assert error is None
        assert engine.wait_source_done(0.0)
        turns = [(e.question, e.answer) for e in engine.latest_snapshot().dialogue]
        assert turns == [(r.question, r.answer) for r in records]

    def test_turn_answered_during_stop_is_formed_or_refused(self):
        # a client keeps asking while stop runs: each record it was given
        # must be in the final dialogue, and the rest must be refused
        engine = Engine(small_cfg(), GateConfig(), stub_ports())
        engine.start(iter(moving_scene_frames(n_scenes=1, duration=2.0)))
        assert engine.wait_source_done(10.0)
        records = []
        asking = threading.Event()

        def client():
            try:
                while True:
                    records.append(engine.submit_query("what is in scene0"))
                    asking.set()
            except InputError:
                pass

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        assert asking.wait(10.0)
        _, error = finish_within(engine.stop, 10.0)
        thread.join(10.0)
        assert error is None and not thread.is_alive()
        assert len(engine.latest_snapshot().dialogue) == len(records)

    def test_unstopped_engine_lets_the_interpreter_exit(self):
        # the worker then waits forever for turns: only a daemon lets the
        # process end
        script = textwrap.dedent("""
            from streammem.frame_gate import GateConfig
            from streammem.harness import SceneDef, SceneSpec, synth_scenes
            from streammem.memory_core import MemoryConfig
            from streammem.pipeline import Engine
            from streammem.ports import stub_ports

            scene = SceneDef(tags=("kitchen",), duration=4.0, motion=0.5)
            frames = list(synth_scenes(SceneSpec(scenes=(scene,))))
            engine = Engine(MemoryConfig(chunk_len_L=5), GateConfig(), stub_ports())
            engine.start(iter(frames))
            assert engine.wait_source_done(10.0)
            assert engine.submit_query("what is in the kitchen scene").error is None
        """)
        src = str(Path(sys.modules[Engine.__module__].__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=30,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
