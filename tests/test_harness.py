import dataclasses
import hashlib
import io
import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from streammem.cli import main
from streammem.errors import BackendError, InputError
from streammem.frame_gate import Frame, FrameGate, GateConfig, MotionReference
from streammem.harness import (
    MAX_FRAME_SIZE,
    SWEEP_COLUMNS,
    SceneDef,
    SceneSpec,
    ScoredAnswer,
    Trace,
    TraceQuery,
    compute_metrics,
    gen_trace,
    load_trace,
    repl,
    run_benchmark,
    save_trace,
    sweep,
    synth_scenes,
)
from streammem.memory_core import PRESETS, MemoryConfig
from streammem.pipeline import AnswerRecord
from streammem.ports import TagCaptioner, hash_text_encode, stub_ports
from streammem.retrieval import cosine_similarity


def spec_2scenes(motion=0.5, **kw):
    return SceneSpec(
        scenes=(
            SceneDef(tags=("kitchen",), duration=4.0, motion=motion),
            SceneDef(tags=("garden",), duration=4.0, motion=motion),
        ),
        fps=5.0,
        **kw,
    )


def fake_record(rpd=0.1):
    return AnswerRecord(
        question="q", answer="a", t_input=0.0, t_start=rpd, t_done=rpd, rpd=rpd,
        bundle_digest="d",
    )


def scored(scores, rpds=None, tasks=None):
    rpds = rpds or [0.1] * len(scores)
    tasks = tasks or ["SF"] * len(scores)
    return [
        ScoredAnswer(record=fake_record(r), score=s, verdict="yes" if s >= 3 else "no",
                     task_type=t)
        for s, r, t in zip(scores, rpds, tasks)
    ]


class TestSynthScenes:
    def test_deterministic(self):
        a = list(synth_scenes(spec_2scenes()))
        b = list(synth_scenes(spec_2scenes()))
        assert len(a) == len(b) == 40
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))

    def test_zero_motion_zero_noise_frames_identical_within_scene(self):
        frames = list(synth_scenes(spec_2scenes(motion=0.0)))
        first_scene = [f for f in frames if f.tags == ("kitchen",)]
        assert all(
            np.array_equal(first_scene[0].pixels, f.pixels) for f in first_scene
        )

    def test_zero_motion_stream_keeps_only_first_frame(self):
        frames = list(synth_scenes(
            SceneSpec(scenes=(SceneDef(tags=("kitchen",), duration=4.0, motion=0.0),))
        ))
        gate = FrameGate(GateConfig(threshold_t=0.35))
        kept = [gate.update(f).kept for f in frames]
        assert kept[0] is True
        assert sum(kept) == 1

    def test_scene_boundary_magnitude_spikes_for_low_motion(self):
        for motion in (0.0, 0.1, 0.2):
            boundary_mags, within_mags = [], []
            for seed in range(20):
                frames = list(synth_scenes(spec_2scenes(motion=motion, seed=seed)))
                mags = [
                    MotionReference.of(p).motion_to(c).magnitude
                    for p, c in zip(frames, frames[1:])
                ]
                boundary = (
                    next(i for i, f in enumerate(frames) if f.tags == ("garden",)) - 1
                )
                boundary_mags.append(mags[boundary])
                within_mags.extend(m for i, m in enumerate(mags) if i != boundary)
            assert np.mean(boundary_mags) > np.mean(within_mags)

    def test_timestamps_follow_fps(self):
        frames = list(synth_scenes(spec_2scenes()))
        assert frames[0].timestamp == 0.0
        assert frames[7].timestamp == pytest.approx(7 / 5.0)

    def test_frames_stream(self):
        frames = synth_scenes(spec_2scenes())
        assert iter(frames) is frames
        assert next(frames).tags == ("kitchen",)


class TestTraceIO:
    def test_roundtrip_identity(self, tmp_path):
        trace = gen_trace(num_scenes=3, scene_duration=8.0, seed=4)
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_gen_trace_covers_task_types(self):
        trace = gen_trace(num_scenes=4, scene_duration=20.0, seed=1)
        kinds = {q.task_type for q in trace.queries}
        assert "SF" in kinds and "CI" in kinds
        assert kinds & {"SM", "LM"}
        assert all(
            b.t_input >= a.t_input for a, b in zip(trace.queries, trace.queries[1:])
        )

    def test_invalid_json_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "source": {}}\nnot json\n')
        with pytest.raises(InputError, match="2"):
            load_trace(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "no_header.jsonl"
        path.write_text('{"type": "query", "t_input": 0.0, "question": "q"}\n')
        with pytest.raises(InputError, match="header"):
            load_trace(path)

    def test_unsorted_queries_rejected(self, tmp_path):
        path = tmp_path / "unsorted.jsonl"
        lines = [
            {"type": "header", "source": {"kind": "dir", "path": "x"}},
            {"type": "query", "t_input": 5.0, "question": "b"},
            {"type": "query", "t_input": 1.0, "question": "a"},
        ]
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        with pytest.raises(InputError, match="sorted"):
            load_trace(path)

    def test_unknown_task_type_rejected(self):
        with pytest.raises(InputError):
            TraceQuery(t_input=0.0, question="q", reference_answer="", task_type="XX")

    def test_integer_t_input_is_held_as_a_float(self, tmp_path):
        path = tmp_path / "int.jsonl"
        lines = [
            {"type": "header", "source": {"kind": "dir", "path": "x"}},
            {"type": "query", "t_input": 5, "question": "q"},
        ]
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        (query,) = load_trace(path).queries
        assert type(query.t_input) is float and query.t_input == 5.0

    @pytest.mark.parametrize(
        "field,value",
        [("seed", "abc"), ("seed", 1.5), ("seed", True), ("frame_size", True),
         ("fps", "5"), ("noise", True), ("max_shift", False)],
    )
    def test_spec_numbers_must_be_numbers(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be"):
            SceneSpec(scenes=(SceneDef(("a",), 1.0, 0.0),), **{field: value})

    @pytest.mark.parametrize("field,value", [("duration", True), ("motion", "0.5")])
    def test_scene_numbers_must_be_numbers(self, field, value):
        scene = {"tags": ("kitchen",), "duration": 4.0, "motion": 0.5, field: value}
        with pytest.raises(InputError, match="must be a number"):
            SceneDef(**scene)

    def test_spec_defaults_come_from_the_dataclass(self):
        spec = SceneSpec.from_json({"scenes": [{"tags": ["a"], "duration": 1.0, "motion": 0.0}]})
        assert spec == SceneSpec(scenes=(SceneDef(("a",), 1.0, 0.0),))


# sha256 of the files save_trace and run_benchmark write for gen_trace(6, 20,
# fps=10, seed=15104), taken from the implementation that listed each
# record's fields by hand: serializing from the dataclasses changes no byte
TRACE_SHA256 = "0df15585740b31388a7ddfcfeb8f034edd05b323cbfae5823316730dd5a6a349"
REPORT_JSON_SHA256 = {
    "slow": "6490b33c76e9ea0055f0642dad0ac42fd738f6b4185679d89ea1ce7d0b182b1d",
    "fast": "23b2d34f564f9e9b3a97aad81104f3df4925a0c146ff68074895c15b597b1ee5",
}


@pytest.mark.parametrize("preset", list(REPORT_JSON_SHA256))
def test_trace_and_report_bytes_pinned(preset, tmp_path):
    seed = 15104
    trace = gen_trace(6, 20, fps=10, seed=seed)
    save_trace(trace, tmp_path / "trace.jsonl")
    assert hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest() == TRACE_SHA256
    cfg = dataclasses.replace(PRESETS[preset], rng_seed=seed)
    run_benchmark(trace, cfg, stub_ports(), out_dir=tmp_path / "out")
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == REPORT_JSON_SHA256[preset]


class TestMetrics:
    def test_coherence_worked_example(self):
        report = compute_metrics(scored([5, 3, 5]))
        assert report.coherence == pytest.approx(2.0)
        assert report.mean_score == pytest.approx(13 / 3)

    def test_accuracy_indicator_at_threshold(self):
        report = compute_metrics(scored([5, 4, 2]))
        assert report.accuracy == pytest.approx(2 / 3)

    def test_single_turn_has_no_coherence(self):
        assert compute_metrics(scored([4])).coherence is None

    def test_rpd_stats(self):
        report = compute_metrics(scored([5, 5], rpds=[0.2, 0.4]))
        assert report.rpd_mean == pytest.approx(0.3)
        assert report.rpd_p95 == pytest.approx(np.percentile([0.2, 0.4], 95))

    def test_per_task_breakdown(self):
        report = compute_metrics(scored([5, 1, 4], tasks=["SM", "SM", "CI"]))
        assert report.per_task["SM"] == {
            "count": 2, "mean_score": 3.0, "accuracy": 0.5,
        }
        assert report.per_task["CI"]["count"] == 1
        assert "KG" not in report.per_task

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            compute_metrics([])


@pytest.fixture(scope="module")
def short_trace():
    return gen_trace(num_scenes=2, scene_duration=6.0, fps=5.0, seed=3)


class TestRunBenchmark:
    def test_report_schema_and_files(self, short_trace, tmp_path):
        report, metrics, doc = run_benchmark(
            short_trace,
            MemoryConfig(chunk_len_L=5, group_size_g=2, cluster_goal_C=2),
            stub_ports(),
            out_dir=tmp_path,
        )
        assert set(doc) == {
            "frames_in", "frames_kept", "duration", "fps_in", "fps_kept",
            "clock_mode", "config", "answers", "metrics",
        }
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == doc
        lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
        assert len(lines) == len(short_trace.queries) == len(report.answers)
        first = json.loads(lines[0])
        assert {"question", "answer", "score", "verdict", "rpd"} <= set(first)
        assert doc["config"]["chunk_len_L"] == 5
        assert metrics.accuracy >= 0.0

    def test_transcript_line_is_the_answer_record_and_its_judgement(self, short_trace,
                                                                    tmp_path):
        report, _, _ = run_benchmark(
            short_trace,
            MemoryConfig(chunk_len_L=5, group_size_g=2, cluster_goal_C=2),
            stub_ports(),
            out_dir=tmp_path,
        )
        lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
        for line, record, query in zip(lines, report.answers, short_trace.queries):
            doc = json.loads(line)
            judged = {k: doc.pop(k) for k in ("reference_answer", "task_type", "score", "verdict")}
            assert doc == record.to_json()  # t_done included
            assert judged["reference_answer"] == query.reference_answer
            assert judged["task_type"] == query.task_type
            assert judged["verdict"] in ("yes", "no") and 0 <= judged["score"] <= 5

    def test_failing_judge_is_backend_error(self, short_trace, tmp_path):
        def judge(question, reference, prediction):
            raise RuntimeError("judge down")

        ports = dataclasses.replace(stub_ports(), judge=judge)
        with pytest.raises(BackendError, match="^judging failed: judge down$"):
            run_benchmark(short_trace, MemoryConfig(chunk_len_L=5, group_size_g=2,
                                                    cluster_goal_C=2),
                          ports, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_recall_answers_name_their_scene(self, short_trace):
        _, _, doc = run_benchmark(
            short_trace,
            MemoryConfig(chunk_len_L=5, group_size_g=2, cluster_goal_C=2),
            stub_ports(),
        )
        recalls = [
            (a, q) for a, q in zip(doc["answers"], short_trace.queries)
            if q.task_type in ("SM", "LM")
        ]
        assert recalls
        for answer, query in recalls:
            tag = query.reference_answer.removeprefix("scene: ")
            assert tag in answer["answer"]


    def test_gate_threshold_follows_memory_config(self, short_trace):
        _, _, doc = run_benchmark(
            short_trace,
            MemoryConfig(threshold_t=0.2, chunk_len_L=5, group_size_g=2, cluster_goal_C=2),
            stub_ports(),
        )
        config = doc["config"]
        assert config["gate_threshold_t"] == config["threshold_t"] == 0.2
        assert [k for k in config if k.startswith("gate_")] == ["gate_threshold_t"]

    def test_peak_memory_does_not_grow_with_trace_length(self):
        # frames stream, so a run holds what its memories hold and never the
        # frame list: the 2400 frames that 3200 adds to 800 are 42 MiB of pixels
        peaks = []
        for scenes in (4, 16):  # 800 and 3200 frames
            trace = gen_trace(scenes, 20.0, fps=10.0)
            tracemalloc.start()
            try:
                run_benchmark(trace, MemoryConfig(), stub_ports())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 4 * 2**20, [f"{p / 2**20:.1f} MiB" for p in peaks]


class TestSweep:
    def test_threshold_sweep_kept_ratio_monotone(self, short_trace, tmp_path):
        out = tmp_path / "sweep_t.csv"
        rows = sweep(
            short_trace, "t", [0.1, 0.3, 0.6, 0.9],
            MemoryConfig(chunk_len_L=5, group_size_g=2, cluster_goal_C=2),
            stub_ports(), out_path=out,
        )
        ratios = [r["kept_ratio"] for r in rows]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        header = out.read_text().splitlines()[0]
        assert header.split(",") == SWEEP_COLUMNS

    def test_single_value_sweep(self, short_trace):
        rows = sweep(
            short_trace, "L", [10],
            MemoryConfig(), stub_ports(),
        )
        assert len(rows) == 1
        assert rows[0]["value"] == 10

    def test_unknown_parameter_rejected(self, short_trace):
        with pytest.raises(InputError):
            sweep(short_trace, "Z", [1], MemoryConfig(), stub_ports())

    def test_empty_values_rejected(self, short_trace):
        with pytest.raises(InputError):
            sweep(short_trace, "g", [], MemoryConfig(), stub_ports())


class TestRepl:
    def test_scripted_session(self):
        stdin = io.StringIO("what is in the kitchen scene\nquit\nignored\n")
        stdout = io.StringIO()
        spec = spec_2scenes()
        report = repl(
            MemoryConfig(threshold_t=0.0, chunk_len_L=5, group_size_g=2, cluster_goal_C=2),
            stub_ports(),
            spec,
            stdin=stdin,
            stdout=stdout,
        )
        text = stdout.getvalue()
        assert "answer:" in text
        assert "rpd:" in text
        assert len(report.answers) == 1
        final = json.loads(text.strip().splitlines()[-1])
        assert final["clock_mode"] == "wall"

    def test_prints_the_path_of_the_bundle_answered_from(self):
        # the question is read once the captioner has begun the second chunk,
        # so the first unit is published, and that caption waits for the
        # answers, so the second is not; the second question fails encoding
        began_second, answered = threading.Event(), threading.Event()
        captions = []

        class Captioner(TagCaptioner):
            def caption_chunk(self, chunk):
                captions.append(super().caption_chunk(chunk))
                if len(captions) == 2:
                    began_second.set()
                    answered.wait(timeout=30)
                return captions[-1]

        def text_encoder(text):
            if text == "unanswerable":
                raise RuntimeError("text encoder down")
            return hash_text_encode(text)

        def lines():
            assert began_second.wait(timeout=30)
            yield "what is in the kitchen scene\n"
            yield "unanswerable\n"
            answered.set()
            yield "quit\n"

        stdout = io.StringIO()
        ports = dataclasses.replace(stub_ports(), captioner=Captioner(), text_encoder=text_encoder)
        report = repl(MemoryConfig(threshold_t=0.0, chunk_len_L=5, group_size_g=2,
                                   cluster_goal_C=2), ports, spec_2scenes(), lines(), stdout)
        sim = cosine_similarity(hash_text_encode("what is in the kitchen scene"),
                                hash_text_encode(captions[0]))
        paths = [line for line in stdout.getvalue().splitlines() if line.startswith("path:")]
        assert paths == [f"path: L0#0({sim:.4f})"]
        assert [a.error for a in report.answers] == [
            None, "query encoding failed: text encoder down"]

    def test_quit_ends_a_long_stream_early(self):
        spec = SceneSpec(scenes=tuple(
            SceneDef(tags=(f"scene{i}",), duration=20.0, motion=0.5) for i in range(20)
        ))
        frames = list(synth_scenes(spec))
        report = repl(MemoryConfig(), stub_ports(), spec,
                      stdin=io.StringIO("quit\n"), stdout=io.StringIO())
        assert 0 < report.frames_in < len(frames)


class TestCli:
    @pytest.mark.parametrize("flag", [["--out", "x"], ["--clock", "wall"]], ids=lambda f: f[0])
    def test_repl_rejects_replay_flags(self, flag, capsys):
        # repl always streams in wall-clock mode and writes no files
        with pytest.raises(SystemExit) as exc:
            main(["repl", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_gen_trace_then_run(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "gen-trace", str(trace_path), "--scenes", "2",
            "--scene-duration", "6", "--seed", "3",
        ]) == 0
        out_dir = tmp_path / "out"
        assert main(["run", str(trace_path), "--out", str(out_dir)]) == 0
        captured = capsys.readouterr().out
        assert "frames_in=" in captured
        report = json.loads((out_dir / "report.json").read_text())
        assert report["clock_mode"] == "sim"

    def test_run_echoes_preset_config(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        out_dir = tmp_path / "out_fast"
        assert main(["run", str(trace_path), "--preset", "fast", "--out", str(out_dir)]) == 0
        cfg = json.loads((out_dir / "report.json").read_text())["config"]
        assert cfg["threshold_t"] == 0.58
        assert cfg["chunk_len_L"] == 30
        assert cfg["group_size_g"] == 15

    def test_sweep_writes_csv(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        out_dir = tmp_path / "sweep_out"
        assert main([
            "sweep", str(trace_path), "t", "0.2,0.5", "--out", str(out_dir),
        ]) == 0
        lines = (out_dir / "sweep_t.csv").read_text().splitlines()
        assert lines[0].split(",") == SWEEP_COLUMNS
        assert len(lines) == 3

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.jsonl")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_config_field_exits_2(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"bogus_field": 1}')
        assert main(["run", str(trace_path), "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "config,message",
        [
            ("[1]", "must hold a JSON object"),
            ('{"chunk_len_L": "x"}', "bad config"),
            ('{"norm_scale": 3}', "unexpected keyword argument 'norm_scale'"),
            ('{"threshold_t": "x"}', "bad config"),
            pytest.param('{"chunk_len_L": 1%s}' % ("0" * 5000), "cannot read config",
                         id="integer-of-5001-digits"),
            pytest.param('{"group_size_g": 2.5}', "c.json: group_size_g must be",
                         id="group_size_g-fraction"),
            pytest.param('{"cluster_goal_C": 2.5}', "c.json: cluster_goal_C must be",
                         id="cluster_goal_C-fraction"),
            pytest.param('{"short_len_S": 2.5}', "c.json: short_len_S must be",
                         id="short_len_S-fraction"),
            pytest.param('{"candidate_len_N": 1%s}' % ("0" * 400),
                         "c.json: candidate_len_N must be a 64-bit integer",
                         id="candidate_len_N-400-digits"),
            pytest.param('{"chunk_len_L": true}', "c.json: chunk_len_L must be",
                         id="chunk_len_L-bool"),
            pytest.param('{"chunk_len_L": 2.5}', "c.json: chunk_len_L must be",
                         id="chunk_len_L-fraction"),
            pytest.param('{"threshold_t": true}', "c.json: threshold_t must be",
                         id="threshold_t-bool"),
            pytest.param('{"min_dialogue_sim": true}',
                         "c.json: min_dialogue_sim must be", id="min_dialogue_sim-bool"),
            pytest.param('{"rng_seed": 1.5}', "c.json: rng_seed must be",
                         id="rng_seed-fraction"),
            pytest.param('{"rng_seed": 9223372036854775808}',
                         "c.json: rng_seed must be a 64-bit integer",
                         id="rng_seed-2**63"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, config, message):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(config)
        assert main(["run", str(trace_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("url", ["localhost:8099", "ftp://h/"])
    def test_bad_remote_url_exits_2(self, tmp_path, capsys, url):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        assert main(["run", str(trace_path), "--backend", "remote", "--remote-url", url,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "remote url" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_sweep_value_exits_2(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        assert main(["sweep", str(trace_path), "L", "3,x", "--out", str(tmp_path / "out")]) == 2
        assert "bad sweep value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_override_applies(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"chunk_len_L": 7, "threshold_t": 0.2}')
        out_dir = tmp_path / "out_cfg"
        assert main([
            "run", str(trace_path), "--config", str(cfg_path), "--out", str(out_dir),
        ]) == 0
        cfg = json.loads((out_dir / "report.json").read_text())["config"]
        assert cfg["chunk_len_L"] == 7
        assert cfg["gate_threshold_t"] == 0.2

    def test_config_fields_apply_together(self, tmp_path):
        # S > N of the base preset, but not of the file's config as a whole
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"short_len_S": 30, "candidate_len_N": 40}')
        out_dir = tmp_path / "out_cfg"
        assert main([
            "run", str(trace_path), "--config", str(cfg_path), "--out", str(out_dir),
        ]) == 0
        cfg = json.loads((out_dir / "report.json").read_text())["config"]
        assert (cfg["short_len_S"], cfg["candidate_len_N"]) == (30, 40)

    @pytest.mark.parametrize(
        "argv,record,message",
        [
            (["gen-trace", "{tmp}/t.jsonl", "--scenes", "0"], None, "at least one scene"),
            (["repl", "--scenes", "0"], None, "at least one scene"),
            (["run", "{tmp}/t.jsonl"], "[1]", "must be a JSON object"),
            (["run", "{tmp}/t.jsonl"], '{"type": "query", "t_input": 20.0, "question": 5}',
             "question must be a non-empty string"),
            (["run", "{tmp}/t.jsonl"], '{"type": "query", "t_input": 20.0, "question": ""}',
             "question must be a non-empty string"),
            (["run", "{tmp}/t.jsonl"],
             '{"type": "query", "t_input": 20.0, "question": "q", "reference_answer": ["x"]}',
             "reference_answer must be a string"),
            (["run", "{tmp}/t.jsonl"], '{"type": "query", "t_input": "20.5", "question": "q"}',
             "t_input must be a number"),
            (["run", "{tmp}/t.jsonl"], '{"type": "query", "t_input": true, "question": "q"}',
             "t_input must be a number"),
            (["run", "{tmp}/t.jsonl"],
             '{"type": "query", "t_input": 20.0, "question": "q", "priority": 1}',
             "unexpected keyword argument 'priority'"),
            (["run", "{tmp}/t.jsonl"], '{"type": "query", "t_input": 20.0}',
             "missing 1 required positional argument: 'question'"),
            (["run", "{tmp}/t.jsonl"], '{"type": "query", "t_input": 1%s, "question": "q"}'
             % ("0" * 400), "t_input must be finite"),
            (["run", "{tmp}/t.jsonl"], '{"type": "query", "t_input": 1%s, "question": "q"}'
             % ("0" * 5000), "invalid JSON"),
        ],
        ids=["gen-trace-0-scenes", "repl-0-scenes", "record-not-object",
             "question-not-string", "question-empty", "reference-not-string",
             "t_input-string", "t_input-bool", "query-unknown-field", "query-lacks-question",
             "t_input-400-digits", "t_input-5001-digits"],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, argv, record, message):
        trace_path = tmp_path / "t.jsonl"
        argv = [a.format(tmp=tmp_path) for a in argv]
        if record is not None:
            save_trace(gen_trace(num_scenes=2, scene_duration=6.0), trace_path)
            with open(trace_path, "a") as fh:
                fh.write(record + "\n")
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert record is not None or not trace_path.exists()

    def test_dir_trace_of_one_row_frames_exits_2(self, tmp_path, capsys):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for i in range(3):
            (frames_dir / f"{i:03d}.pgm").write_bytes(b"P5\n8 1\n255\n" + bytes(range(i, i + 8)))
        trace_path = tmp_path / "trace.jsonl"
        save_trace(Trace(source={"kind": "dir", "path": str(frames_dir)}, queries=()), trace_path)
        assert main(["run", str(trace_path), "--out", str(tmp_path / "out")]) == 2
        assert "at least 2 x 2 pixels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("clock", ["sim", "wall"])
    def test_bad_pgm_mid_directory_exits_2(self, tmp_path, capsys, monkeypatch, clock):
        # each file is read when the run pulls its frame: the frames before
        # the bad one are gated first, and the run still ends in an input error
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        pixels = np.random.default_rng(0).integers(0, 256, (3, 64), dtype=np.uint8)
        for i in range(3):
            (frames_dir / f"{i:03d}.pgm").write_bytes(b"P5\n8 8\n255\n" + pixels[i].tobytes())
        (frames_dir / "003.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(10))  # 10 of 64 pixels
        query = TraceQuery(t_input=1.5, question="what is showing")
        trace_path = tmp_path / "trace.jsonl"
        save_trace(Trace(source={"kind": "dir", "path": str(frames_dir)}, queries=(query,)),
                   trace_path)
        events = []
        read, update = Frame.from_pgm, FrameGate.update
        monkeypatch.setattr(Frame, "from_pgm", staticmethod(
            lambda path, timestamp: events.append(Path(path).name) or read(path, timestamp)))
        monkeypatch.setattr(FrameGate, "update",
                            lambda gate, frame: events.append("gate") or update(gate, frame))
        assert main(["run", str(trace_path), "--clock", clock,
                     "--out", str(tmp_path / "out")]) == 2
        assert "cannot parse PGM" in capsys.readouterr().err
        assert events == ["000.pgm", "gate", "001.pgm", "gate", "002.pgm", "gate", "003.pgm"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("clock", ["sim", "wall"])
    def test_unreadable_pgm_exits_2(self, tmp_path, capsys, clock):
        frames_dir = tmp_path / "frames"
        (frames_dir / "000.pgm").mkdir(parents=True)  # listed as a frame, read as a directory
        trace_path = tmp_path / "trace.jsonl"
        save_trace(Trace(source={"kind": "dir", "path": str(frames_dir)}, queries=()), trace_path)
        assert main(["run", str(trace_path), "--clock", clock,
                     "--out", str(tmp_path / "out")]) == 2
        assert "cannot read PGM" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("clock", ["sim", "wall"])
    @pytest.mark.parametrize("later,problem", [
        (np.ones(256), "width 256, where the first turn's is 512"),
        (np.full(512, np.nan), "non-finite values"),
    ], ids=["width", "nan"])
    def test_bad_dialogue_vector_exits_3(self, tmp_path, capsys, monkeypatch, clock, later,
                                         problem):
        # the text encoder answers the first turn well and every later turn badly
        turns = []

        def text_encoder(text):
            if not text.startswith("Q: "):
                return hash_text_encode(text)
            turns.append(text)
            return hash_text_encode(text) if len(turns) == 1 else later

        monkeypatch.setattr("streammem.cli.stub_ports", lambda: dataclasses.replace(
            stub_ports(), text_encoder=text_encoder))
        trace_path = tmp_path / "trace.jsonl"
        save_trace(gen_trace(num_scenes=2, scene_duration=6.0, seed=24), trace_path)
        assert main(["run", str(trace_path), "--clock", clock,
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"dialogue encoding failed: {problem}" in err
        assert "Traceback" not in err
        assert len(turns) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("clock", ["sim", "wall"])
    @pytest.mark.parametrize("first_bad,change,problem", [
        (26, lambda t: t[:, :16], "token shape (4, 16), where the first kept frame's is (4, 32)"),
        (10, lambda t: t[:, :16], "token shape (4, 16)"),
        (1, lambda t: t * 1e200, "a token value over 1.15792e+77 in magnitude"),
        (3, lambda t: np.vstack([t[:1] * np.nan, t[1:]]), "non-finite token values"),
        (2, lambda t: t.ravel(), "tokens that are not a nonempty 2-D array of numbers"),
    ], ids=["width-at-chunk-start", "width-in-chunk", "huge", "nan", "1-d"])
    def test_bad_frame_tokens_exit_3(self, tmp_path, capsys, monkeypatch, clock, first_bad,
                                     change, problem):
        # the frame encoder answers well until its first_bad-th kept frame;
        # the base preset's chunks hold 25 kept frames
        encoder, calls = stub_ports().frame_encoder, []

        def frame_encoder(frame):
            calls.append(frame)
            embedding = encoder(frame)
            if len(calls) < first_bad:
                return embedding
            return dataclasses.replace(embedding, tokens=change(embedding.tokens))

        monkeypatch.setattr("streammem.cli.stub_ports", lambda: dataclasses.replace(
            stub_ports(), frame_encoder=frame_encoder))
        trace_path = tmp_path / "trace.jsonl"
        save_trace(gen_trace(num_scenes=2, scene_duration=6.0, seed=24), trace_path)
        assert main(["run", str(trace_path), "--clock", clock,
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"backend error: frame encoding failed: {problem}" in err
        assert "Traceback" not in err
        assert len(calls) == first_bad
        assert not (tmp_path / "out").exists()

    def test_trace_not_utf8_exits_2(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_bytes(b'{"type": "header", "source": {"kind": "dir", "path": "\xff"}}\n')
        assert main(["run", str(trace_path), "--out", str(tmp_path / "out")]) == 2
        assert f"{trace_path}:1: invalid JSON: 'utf-8' codec" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            pytest.param(text, message, id=text) for text, message in [
                ('{"min_dialogue_sim": NaN}', "must be finite"),
                ('{"forgetting_scale_s": Infinity}', "must be finite"),
                ('{"threshold_t": Infinity}', "must be finite"),
                ('{"chunk_len_L": NaN}', "chunk_len_L must be an integer"),  # an int field
            ]
        ],
    )
    def test_non_finite_config_exits_2(self, tmp_path, capsys, overrides, message):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(overrides)
        assert main(["run", str(trace_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header,query",
        [
            ({}, '{"type": "query", "t_input": NaN, "question": "q"}'),
            ({}, '{"type": "query", "t_input": -Infinity, "question": "q"}'),
            ({"fps": float("nan")}, None),
            ({"fps": float("inf")}, None),
            ({"noise": float("nan")}, None),
        ],
    )
    def test_non_finite_trace_exits_2(self, tmp_path, capsys, header, query):
        trace = gen_trace(num_scenes=2, scene_duration=6.0)
        trace.source["spec"].update(header)
        trace_path = tmp_path / "trace.jsonl"
        save_trace(trace, trace_path)
        if query is not None:
            with open(trace_path, "a") as fh:
                fh.write(query + "\n")
        assert main(["run", str(trace_path), "--out", str(tmp_path / "out")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "source,message",
        [
            ({"kind": "synthetic", "spec": {}}, "lacks field 'scenes'"),
            ({"kind": "synthetic"}, "needs a 'spec'"),
            ({"kind": "synthetic", "spec": {"scenes": [
                {"tags": ["kitchen"], "duration": "x", "motion": 0.5}]}}, "bad synthetic spec"),
            ({"kind": "synthetic", "spec": {"scenes": [], "frame_size": 0}}, "frame_size"),
            ({"kind": "synthetic", "spec": {"scenes": [], "max_shift": "x"}}, "bad synthetic spec"),
            ({"kind": "dir"}, "needs a 'path'"),
            (["synthetic"], "'source' object"),
            ({"kind": "synthetic", "spec": {"scenes": [
                {"tags": "kitchen", "duration": 4.0, "motion": 0.5}]}}, "list of strings"),
            ({"kind": "synthetic", "spec": {"scenes": [
                {"tags": ["kitchen", 3], "duration": 4.0, "motion": 0.5}]}}, "list of strings"),
            ({"kind": "dir", "path": ".", "fps": 0}, "fps must be positive"),
            ({"kind": "synthetic", "spec": {"scenes": [], "speed": 2.0}},
             "unexpected keyword argument 'speed'"),
            ({"kind": "synthetic", "spec": {"scenes": [
                {"tags": ["kitchen"], "duration": 4.0, "motion": 0.5, "speed": 2.0}]}},
             "unexpected keyword argument 'speed'"),
            ({"kind": "synthetic", "spec": {"scenes": [], "seed": "abc"}},
             "seed must be an integer"),
            ({"kind": "synthetic", "spec": {"scenes": [], "noise": True}},
             "noise must be a number"),
            ({"kind": "synthetic", "spec": {"scenes": [
                {"tags": ["kitchen"], "duration": 4.0, "motion": True}]}},
             "scene motion must be a number"),
            ({"kind": "synthetic", "spec": {"scenes": [
                {"tags": ["kitchen"], "duration": 10**400, "motion": 0.5}]}},
             "scene duration must be finite"),
            ({"kind": "synthetic", "spec": {"scenes": [], "fps": 10**400}}, "fps must be finite"),
            ({"kind": "dir", "path": 5}, "needs a 'path' string"),
            ({"kind": "dir", "path": None}, "needs a 'path' string"),
            ({"kind": "dir", "path": ["."]}, "needs a 'path' string"),
            ({"kind": "dir", "path": ".", "fps": True}, "fps must be a number"),
            ({"kind": "dir", "path": ".", "speed": 2.0}, "unknown dir source field 'speed'"),
            ({"kind": "synthetic", "spec": {"scenes": []}, "speed": 2.0},
             "unknown synthetic source field 'speed'"),
            ({"kind": ["dir"], "path": "."}, "unknown frame source kind"),
            ({"kind": "synthetic", "spec": {"scenes": [], "frame_size": 2**40}},
             "frame_size must be in [4, 1024]"),
            ({"kind": "synthetic", "spec": {"scenes": [],
                                             "frame_size": MAX_FRAME_SIZE + 1}},
             "frame_size must be in [4, 1024]"),
        ],
    )
    def test_malformed_trace_header_exits_2(self, tmp_path, capsys, source, message):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(json.dumps({"type": "header", "source": source}) + "\n")
        assert main(["run", str(trace_path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
