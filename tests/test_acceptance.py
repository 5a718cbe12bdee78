"""Acceptance suite: every top-level behavioural claim of the engine, checked
against independent oracles or exact formulas.  One test per criterion; each
test's pass/fail line is the verdict for that criterion.

 1. optical-flow shift recovery vs exhaustive-SSD oracle
 2. gate keep-count monotone in the threshold
 3. k-means objective vs exhaustive best-partition oracle
 4. tree level sizes follow the iterated-ceiling law
 5. greedy descent vs independent per-level argmax oracle
 6. metric formulas (coherence / accuracy / rpd) exact
 7. forgetting-curve sampler frequencies vs analytic weights
 8. end-to-end scene recall and dialogue attachment rates, on pooled short
    traces and on long traces that grow a second tree level
 9. concurrency soundness (wall-clock stress + sim replay identity)
10. preset configurations echoed exactly in report.json
"""

import json
import time

import numpy as np
import pytest

from oracles import (
    argmax_descent,
    best_partition_objective,
    iterated_ceil_sizes,
    ssd_shift,
    tree_view_to_json,
)
from test_retrieval import random_tree_view
from streammem.cli import main
from streammem.frame_gate import Frame, FrameGate, GateConfig, MotionReference
from streammem.harness import compute_metrics, gen_trace, run_benchmark, smooth_texture
from streammem.memory_core import (
    PRESETS,
    MemoryConfig,
    MemoryTree,
    TreeNode,
    check_tree_invariants,
    kmeans,
    refresh_short_term,
)
from streammem.pipeline import AnswerRecord, Engine, QueryRequest, run_sim
from streammem.ports import PortSet, TagCaptioner, hash_text_encode, stub_ports
from streammem.retrieval import QueryVec, descend_tree
from test_harness import scored


def test_criterion_01_optical_flow_matches_ssd_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(20)
    hits = 0
    for _ in range(50):
        tex = smooth_texture(np.random.default_rng(rng.integers(1 << 30)), 48)
        dx, dy = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        prev = Frame(pixels=tex, timestamp=0.0)
        cur = Frame(pixels=np.roll(np.roll(tex, dy, axis=0), dx, axis=1), timestamp=1.0)
        est = MotionReference.of(prev).motion_to(cur)
        odx, ody = ssd_shift(prev.pixels, cur.pixels)
        if abs(est.u - odx) <= 0.5 and abs(est.v - ody) <= 0.5:
            hits += 1
    assert hits >= 48  # >= 95% of 50
    same = MotionReference.of(prev).motion_to(prev)
    assert same.magnitude == 0.0
    assert time.monotonic() - started < 10.0


def test_criterion_02_gating_monotone_in_threshold():
    thresholds = [round(0.1 * i, 1) for i in range(1, 10)]
    for seed in range(10):
        trace = gen_trace(num_scenes=3, scene_duration=6.0, fps=5.0,
                          motion=0.2 + 0.06 * seed, seed=seed)
        frames = trace.frames()
        kept_counts = []
        for t in thresholds:
            gate = FrameGate(GateConfig(threshold_t=t))
            kept_counts.append(sum(gate.update(f).kept for f in frames))
        assert all(b <= a for a, b in zip(kept_counts, kept_counts[1:])), (
            f"stream {seed}: kept counts {kept_counts} not non-increasing"
        )


def test_criterion_03_kmeans_objective_vs_exhaustive_oracle():
    rng = np.random.default_rng(30)
    optimal = 0
    for i in range(200):
        m = int(rng.integers(2, 13))
        k = int(rng.integers(1, 4))
        points = rng.standard_normal((m, int(rng.integers(1, 5))))
        result = kmeans(points, k, seed=i)
        best = best_partition_objective(points, min(k, m))
        if abs(result.objective - best) <= 1e-9:
            optimal += 1
        else:
            history = result.objective_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:])), (
                f"instance {i}: non-monotone objective history {history}"
            )
    assert optimal >= 180  # >= 90% of 200


def _dummy_unit(i: int) -> TreeNode:
    rng = np.random.default_rng(1000 + i)
    return TreeNode(
        centroids=rng.standard_normal((2, 4)),
        caption=f"scene: tag{i}",
        caption_vec=hash_text_encode(f"scene tag{i}"),
        span=(float(i), i + 0.5),
        level=0,
    )


def test_criterion_04_tree_shape_law():
    captioner, encoder = TagCaptioner(), hash_text_encode
    for g in (2, 3, 10, 15):
        cfg = MemoryConfig(group_size_g=g, cluster_goal_C=2)
        tree = MemoryTree(cfg)
        for b in range(1, 201):
            tree.append(_dummy_unit(b - 1), captioner, encoder)
            sizes = [len(level) for level in tree.view()]
            assert sizes == iterated_ceil_sizes(b, g), f"B={b}, g={g}: {sizes}"
    cfg = MemoryConfig(group_size_g=2, cluster_goal_C=2)
    tree = MemoryTree(cfg)
    for i in range(4):
        tree.append(_dummy_unit(i), captioner, encoder)
    assert [len(level) for level in tree.view()] == [4, 2]


def test_criterion_05_descent_matches_argmax_oracle():
    rng = np.random.default_rng(50)
    for i in range(100):
        fanout = int(rng.integers(2, 5))
        # depth <= 4 for fanout 2 means at most fanout**3 basic units
        n_basic = int(rng.integers(1, fanout**3 + 1))
        with_ties = i % 5 == 0  # every fifth tree built with deliberate ties
        view = random_tree_view(rng, n_basic, fanout, tie_groups=with_ties)
        q = QueryVec(vec=rng.standard_normal(6), text="q")
        path = descend_tree(view, q)
        expected = argmax_descent(tree_view_to_json(view), q.vec)
        assert [(s.level, s.index) for s in path.steps] == expected, (
            f"tree {i} (fanout={fanout}, n={n_basic}, ties={with_ties})"
        )


def test_criterion_06_metric_formulas_exact():
    report = compute_metrics(scored([5, 3, 5]))
    assert abs(report.coherence - 2.0) <= 1e-9
    report = compute_metrics(scored([5, 4, 2]))
    assert abs(report.accuracy - 2 / 3) <= 1e-9
    record = AnswerRecord(
        question="q", answer="a", t_input=10.0, t_start=10.9, t_done=11.0,
        rpd=10.9 - 10.0, bundle_digest="d",
    )
    assert abs(record.rpd - 0.9) <= 1e-9


def test_criterion_07_forgetting_sampler_frequencies():
    from conftest import make_embedding

    cfg = MemoryConfig(short_len_S=1, candidate_len_N=3, forgetting_scale_s=1.0)
    recent = [make_embedding(float(t)) for t in range(3)]  # newest last
    rng = np.random.default_rng(70)
    counts = {0.0: 0, 1.0: 0, 2.0: 0}
    draws = 100_000
    for _ in range(draws):
        picked = refresh_short_term(recent, cfg, rng)
        counts[picked.units[0].source_timestamp] += 1
    raw = np.exp(-np.arange(3) / 1.0)  # age 0 = newest = timestamp 2.0
    expected = raw / raw.sum()
    for age, ts in enumerate([2.0, 1.0, 0.0]):
        assert abs(counts[ts] / draws - expected[age]) <= 0.01, (
            f"age {age}: observed {counts[ts] / draws:.4f}, expected {expected[age]:.4f}"
        )


class _RecordingGenerator:
    def __init__(self, inner):
        self.inner = inner
        self.bundles = []

    def __call__(self, bundle):
        self.bundles.append(bundle)
        return self.inner(bundle)


def test_criterion_08_end_to_end_recall_rates():
    started = time.monotonic()
    mem_cfg = PRESETS["base"]
    gate_cfg = GateConfig(threshold_t=mem_cfg.threshold_t)
    tag_total = tag_hits = ci_total = ci_hits = 0
    for seed in range(50):
        trace = gen_trace(num_scenes=5, scene_duration=20.0, fps=5.0, seed=seed)
        base = stub_ports()
        recorder = _RecordingGenerator(base.generator)
        ports = PortSet(
            frame_encoder=base.frame_encoder,
            text_encoder=base.text_encoder,
            captioner=base.captioner,
            generator=recorder,
            judge=base.judge,
        )
        query_requests = [QueryRequest(q.question, q.t_input) for q in trace.queries]
        run_sim(trace.frames(), query_requests, mem_cfg, gate_cfg, ports)
        for bundle, query in zip(recorder.bundles, trace.queries):
            tag = query.reference_answer.removeprefix("scene: ")
            if query.task_type in ("SM", "LM"):
                tag_total += 1
                if tag in (bundle.path.best_caption or ""):
                    tag_hits += 1
            elif query.task_type == "CI":
                ci_total += 1
                if bundle.dialogue_context is not None and tag in bundle.dialogue_context[0]:
                    ci_hits += 1
    assert tag_total >= 200 and ci_total == 50
    assert tag_hits / tag_total >= 0.95, f"tag recall {tag_hits}/{tag_total}"
    assert ci_hits / ci_total >= 0.95, f"dialogue attach {ci_hits}/{ci_total}"
    assert time.monotonic() - started < 120.0


def test_criterion_08_long_trace_recall():
    # 20-scene traces grow a level 2, where greedy descent has to choose
    # between parents whose captions are unions of many tags; these seeds
    # scored 12, 14, 12 and 13 of 20 with 256-wide, prefixed stub captions
    mem_cfg = PRESETS["base"]
    gate_cfg = GateConfig(threshold_t=mem_cfg.threshold_t)
    pooled_hits = pooled_total = 0
    for seed in (25, 28, 901, 917):
        trace = gen_trace(num_scenes=20, scene_duration=30.0, fps=10.0, seed=seed)
        base = stub_ports()
        recorder = _RecordingGenerator(base.generator)
        ports = PortSet(
            frame_encoder=base.frame_encoder,
            text_encoder=base.text_encoder,
            captioner=base.captioner,
            generator=recorder,
            judge=base.judge,
        )
        query_requests = [QueryRequest(q.question, q.t_input) for q in trace.queries]
        run_sim(trace.frames(), query_requests, mem_cfg, gate_cfg, ports)
        asked = [(b, q) for b, q in zip(recorder.bundles, trace.queries)
                 if q.task_type in ("SM", "LM")]
        hits = sum(q.reference_answer in b.path.best_caption for b, q in asked)
        assert len(asked) == 20 and hits >= 15, f"seed {seed}: tag recall {hits}/20"
        pooled_hits += hits
        pooled_total += len(asked)
    assert pooled_hits / pooled_total >= 0.95, f"tag recall {pooled_hits}/{pooled_total}"


def test_criterion_09_concurrency_soundness():
    # wall-clock stress: 1000 queries against a live engine, every snapshot
    # must satisfy the structural invariants
    trace = gen_trace(num_scenes=5, scene_duration=20.0, fps=10.0, seed=9)
    cfg = MemoryConfig(chunk_len_L=10, group_size_g=3, cluster_goal_C=2)
    engine = Engine(cfg, GateConfig(threshold_t=0.2), stub_ports())
    engine.start(iter(trace.frames()))
    try:
        for i in range(1000):
            snap = engine.latest_snapshot()
            snap.check(cfg.group_size_g)
            check_tree_invariants(snap.tree, cfg.group_size_g)
            engine.submit_query(f"stress query {i} about the scene")
    finally:
        engine.wait_source_done()
        engine.stop()
    final = engine.latest_snapshot()
    final.check(cfg.group_size_g)
    check_tree_invariants(final.tree, cfg.group_size_g)

    # simulated replay of one trace twice: byte-identical reports
    gate_cfg = GateConfig(threshold_t=0.35)
    query_requests = [QueryRequest(q.question, q.t_input) for q in trace.queries]
    first = run_sim(trace.frames(), query_requests, cfg, gate_cfg, stub_ports()).to_json_str()
    second = run_sim(trace.frames(), query_requests, cfg, gate_cfg, stub_ports()).to_json_str()
    assert first == second


@pytest.mark.parametrize(
    "preset,expected",
    [
        ("slow", {"threshold_t": 0.13, "chunk_len_L": 35, "group_size_g": 15, "cluster_goal_C": 5}),
        ("base", {"threshold_t": 0.35, "chunk_len_L": 25, "group_size_g": 10, "cluster_goal_C": 5}),
        ("fast", {"threshold_t": 0.58, "chunk_len_L": 30, "group_size_g": 15, "cluster_goal_C": 5}),
    ],
)
def test_criterion_10_presets_echoed_in_report(tmp_path, preset, expected):
    trace_path = tmp_path / "trace.jsonl"
    assert main([
        "gen-trace", str(trace_path), "--scenes", "2", "--scene-duration", "6",
    ]) == 0
    out_dir = tmp_path / f"out_{preset}"
    assert main([
        "run", str(trace_path), "--preset", preset, "--out", str(out_dir),
    ]) == 0
    config = json.loads((out_dir / "report.json").read_text())["config"]
    for key, value in expected.items():
        assert config[key] == value, f"{preset}: {key}={config[key]} != {value}"
    assert config["gate_threshold_t"] == expected["threshold_t"]
