import io
import json

import numpy as np
import pytest

from streammem.cli import main
from streammem.errors import InputError
from streammem.frame_gate import FrameGate, GateConfig
from streammem.harness import (
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
from streammem.memory_core import MemoryConfig
from streammem.pipeline import AnswerRecord
from streammem.ports import stub_ports


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
        a, _ = synth_scenes(spec_2scenes())
        b, _ = synth_scenes(spec_2scenes())
        assert len(a) == len(b) == 40
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))

    def test_zero_motion_zero_noise_frames_identical_within_scene(self):
        frames, timeline = synth_scenes(spec_2scenes(motion=0.0))
        first_scene = [f for f in frames if f.tags == ("kitchen",)]
        assert all(
            np.array_equal(first_scene[0].pixels, f.pixels) for f in first_scene
        )
        assert timeline[0][2] == ("kitchen",)

    def test_zero_motion_stream_keeps_only_first_frame(self):
        frames, _ = synth_scenes(
            SceneSpec(scenes=(SceneDef(tags=("kitchen",), duration=4.0, motion=0.0),))
        )
        gate = FrameGate(GateConfig(threshold_t=0.35))
        kept = [gate.update(f).kept for f in frames]
        assert kept[0] is True
        assert sum(kept) == 1

    def test_scene_boundary_magnitude_spikes_for_low_motion(self):
        from streammem.frame_gate import estimate_motion

        for motion in (0.0, 0.1, 0.2):
            boundary_mags, within_mags = [], []
            for seed in range(20):
                frames, _ = synth_scenes(spec_2scenes(motion=motion, seed=seed))
                mags = [
                    estimate_motion(p, c).magnitude
                    for p, c in zip(frames, frames[1:])
                ]
                boundary = (
                    next(i for i, f in enumerate(frames) if f.tags == ("garden",)) - 1
                )
                boundary_mags.append(mags[boundary])
                within_mags.extend(m for i, m in enumerate(mags) if i != boundary)
            assert np.mean(boundary_mags) > np.mean(within_mags)

    def test_timestamps_follow_fps(self):
        frames, _ = synth_scenes(spec_2scenes())
        assert frames[0].timestamp == 0.0
        assert frames[7].timestamp == pytest.approx(7 / 5.0)


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

    def test_quit_ends_a_long_stream_early(self):
        spec = SceneSpec(scenes=tuple(
            SceneDef(tags=(f"scene{i}",), duration=20.0, motion=0.5) for i in range(20)
        ))
        frames, _ = synth_scenes(spec)
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
            ('{"norm_scale": 3}', "unknown config field 'norm_scale'"),
            ('{"threshold_t": "x"}', "bad config"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, config, message):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        assert main(["run", str(trace_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
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
        ],
        ids=["gen-trace-0-scenes", "repl-0-scenes", "record-not-object",
             "question-not-string", "question-empty", "reference-not-string"],
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

    @pytest.mark.parametrize(
        "overrides",
        [
            '{"min_dialogue_sim": NaN}',
            '{"forgetting_scale_s": Infinity}',
            '{"threshold_t": Infinity}',
            '{"chunk_len_L": NaN}',
        ],
    )
    def test_non_finite_config_exits_2(self, tmp_path, capsys, overrides):
        trace_path = tmp_path / "trace.jsonl"
        main(["gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(overrides)
        assert main(["run", str(trace_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "must be finite" in capsys.readouterr().err

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
        ],
    )
    def test_malformed_trace_header_exits_2(self, tmp_path, capsys, source, message):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(json.dumps({"type": "header", "source": source}) + "\n")
        assert main(["run", str(trace_path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
