"""Benchmark harness: synthetic scene streams with ground truth, trace
replay, metric computation, parameter sweeps, and an interactive mode.

The harness drives the pipeline from the caller's thread; only a wall-clock
run adds a thread, the engine's one stream worker.  Frames stream: a trace's
source is checked before a run starts, and each frame is made or read only
when the driver pulls it, so a run holds no list of its frames.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, call_port, check_numbers, require_number
from .frame_gate import Frame, GateConfig
from .memory_core import MemoryConfig, derive_seed
from .pipeline import AnswerRecord, Engine, QueryRequest, RunReport, run
from .ports import PASS_SCORE, PortSet

TASK_TYPES = ("OS", "LM", "SM", "CI", "KG", "SF")


# a frame is frame_size**2 float64 pixels: 8 MiB at this cap
MAX_FRAME_SIZE = 1024


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass(frozen=True)
class SceneDef:
    tags: tuple[str, ...]
    duration: float
    motion: float  # in [0, 1]

    def __post_init__(self):
        check_numbers(self, "scene ")
        if not self.duration > 0:
            raise InputError(f"scene duration must be positive, got {self.duration}")
        if not 0.0 <= self.motion <= 1.0:
            raise InputError(f"scene motion must be in [0, 1], got {self.motion}")


@dataclass(frozen=True)
class SceneSpec:
    scenes: tuple[SceneDef, ...]
    fps: float = 5.0
    noise: float = 0.0
    seed: int = 0
    frame_size: int = 48
    max_shift: float = 3.0

    def __post_init__(self):
        check_numbers(self)
        if not self.fps > 0:
            raise InputError(f"fps must be positive, got {self.fps}")
        if not self.noise >= 0:
            raise InputError(f"noise must be non-negative, got {self.noise}")
        # a frame must hold at least the stub frame encoder's 4 x 4 histogram cells
        if not 4 <= self.frame_size <= MAX_FRAME_SIZE:
            raise InputError(
                f"frame_size must be in [4, {MAX_FRAME_SIZE}], got {self.frame_size}")

    def to_json(self) -> dict:
        """The spec as JSON values, lists where the dataclass holds tuples."""
        doc = dataclasses.asdict(self)
        doc["scenes"] = [dict(s, tags=list(s["tags"])) for s in doc["scenes"]]
        return doc

    @staticmethod
    def from_json(doc) -> "SceneSpec":
        """Parse a trace header's spec; a missing or unknown field or a value
        of the wrong type is an InputError."""
        if not isinstance(doc, dict):
            raise InputError("a synthetic frame source needs a 'spec' object")

        def scene(s) -> SceneDef:
            tags = s["tags"]
            if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                raise InputError(f"scene tags must be a list of strings, got {tags!r}")
            return SceneDef(**{**s, "tags": tuple(tags)})

        try:
            return SceneSpec(**{**doc, "scenes": tuple(scene(s) for s in doc["scenes"])})
        except KeyError as exc:
            raise InputError(f"synthetic spec lacks field {exc}") from exc
        except (TypeError, InputError) as exc:
            raise InputError(f"bad synthetic spec: {exc}") from exc


def smooth_texture(rng: np.random.Generator, size: int, cutoff: int = 2) -> np.ndarray:
    """Periodic low-frequency texture: FFT low-pass of white noise, scaled to
    [0.15, 0.85].  Periodicity keeps np.roll shifts exact at the borders.

    The default cutoff keeps the texture smooth enough that the gradient
    linearization stays accurate over multi-pixel shifts, and gradient-rich
    enough that unrelated textures register as large apparent motion."""
    noise = rng.standard_normal((size, size))
    spectrum = np.fft.fft2(noise)
    freq = np.fft.fftfreq(size) * size
    mask = (np.abs(freq)[:, None] <= cutoff) & (np.abs(freq)[None, :] <= cutoff)
    tex = np.real(np.fft.ifft2(spectrum * mask))
    lo, hi = tex.min(), tex.max()
    if hi - lo < 1e-12:
        return np.full((size, size), 0.5)
    return 0.15 + 0.7 * (tex - lo) / (hi - lo)


def synth_scenes(spec: SceneSpec):
    """Yield the spec's frames one at a time: per scene, a tag-keyed base
    texture translated by motion * max_shift px per frame plus seeded noise.
    Frame i is stamped i / fps."""
    frame_index = 0
    noise_rng = np.random.default_rng(derive_seed(spec.seed, "noise", 0))
    for scene in spec.scenes:
        tex_seed = derive_seed(spec.seed, "scene-tex:" + "|".join(scene.tags), 0)
        tex = smooth_texture(np.random.default_rng(tex_seed), spec.frame_size)
        offset = 0.0
        for _ in range(max(1, int(round(scene.duration * spec.fps)))):
            shifted = np.roll(tex, int(round(offset)), axis=1)
            if spec.noise > 0:
                shifted = np.clip(
                    shifted + noise_rng.normal(0.0, spec.noise, shifted.shape), 0.0, 1.0
                )
            yield Frame(pixels=shifted, timestamp=frame_index / spec.fps, tags=scene.tags)
            offset += scene.motion * spec.max_shift
            frame_index += 1


def frames_from_dir(path: str | Path, fps: float = 1.0):
    """Grayscale PGM images ordered by filename, timestamps index/fps.  The
    files are listed now; each is read when its frame is pulled."""
    require_number("fps", fps)
    if not fps > 0:
        raise InputError(f"fps must be positive, got {fps!r}")
    files = sorted(Path(path).glob("*.pgm"))
    if not files:
        raise InputError(f"no .pgm files in {path}")
    return (Frame.from_pgm(f, timestamp=i / fps) for i, f in enumerate(files))


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class TraceQuery:
    t_input: float
    question: str
    reference_answer: str = ""
    task_type: str = "SF"

    def __post_init__(self):
        check_numbers(self)
        object.__setattr__(self, "t_input", float(self.t_input))  # reports write times as floats
        if not isinstance(self.question, str) or not self.question:
            raise InputError(f"question must be a non-empty string, got {self.question!r}")
        if not isinstance(self.reference_answer, str):
            raise InputError(f"reference_answer must be a string, got {self.reference_answer!r}")
        if self.task_type not in TASK_TYPES:
            raise InputError(f"unknown task type {self.task_type!r}")


_SOURCE_FIELDS = {"synthetic": {"kind", "spec"}, "dir": {"kind", "path", "fps"}}


@dataclass(frozen=True)
class Trace:
    source: dict  # {"kind": "synthetic", "spec": {...}} | {"kind": "dir", ...}
    queries: tuple[TraceQuery, ...]

    def iter_frames(self):
        """The source's frames as an iterator.  The source is checked, and a
        dir source's files listed, now; each frame is made or read when it
        is pulled."""
        kind = self.source.get("kind")
        if kind not in ("synthetic", "dir"):  # not the dict: a list kind is unhashable
            raise InputError(f"unknown frame source kind {kind!r}")
        unknown = sorted(set(self.source) - _SOURCE_FIELDS[kind])
        if unknown:
            raise InputError(f"unknown {kind} source field {unknown[0]!r}")
        if kind == "synthetic":
            return synth_scenes(SceneSpec.from_json(self.source.get("spec")))
        path = self.source.get("path")
        if not isinstance(path, str):
            raise InputError(f"a dir frame source needs a 'path' string, got {path!r}")
        return frames_from_dir(path, self.source.get("fps", 1.0))

    def frames(self) -> list[Frame]:
        """The frames as a list, for a caller that replays or indexes them."""
        return list(self.iter_frames())


def save_trace(trace: Trace, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "header", "source": trace.source}) + "\n")
        for q in trace.queries:
            fh.write(json.dumps({"type": "query", **dataclasses.asdict(q)}) + "\n")


def load_trace(path: str | Path) -> Trace:
    source = None
    queries: list[TraceQuery] = []
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read trace {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line.decode())
            except ValueError as exc:  # not UTF-8, bad JSON, or an integer of over 4300 digits
                raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise InputError(f"{path}:{lineno}: a record must be a JSON object")
            kind = doc.pop("type", None)
            if kind == "header":
                source = doc.get("source")
            elif kind == "query":
                try:
                    queries.append(TraceQuery(**doc))
                except (TypeError, InputError) as exc:
                    raise InputError(f"{path}:{lineno}: bad query record: {exc}") from exc
            else:
                raise InputError(f"{path}:{lineno}: unknown record type {kind!r}")
    if not isinstance(source, dict):
        raise InputError(f"{path}: trace has no header record with a 'source' object")
    if any(b.t_input < a.t_input for a, b in zip(queries, queries[1:])):
        raise InputError(f"{path}: queries not sorted by t_input")
    return Trace(source=source, queries=tuple(queries))


_TAG_POOL = (
    "kitchen", "garden", "workshop", "harbor", "library",
    "market", "rooftop", "cellar", "meadow", "station",
    "forge", "orchard", "quarry", "lagoon", "summit",
)


def gen_trace(
    num_scenes: int = 5,
    scene_duration: float = 20.0,
    fps: float = 5.0,
    motion: float = 0.5,
    noise: float = 0.0,
    seed: int = 0,
) -> Trace:
    """Build a synthetic trace: one tagged scene per segment, one recall query
    per scene after it ends, plus an opening SF query and a CI follow-up."""
    if num_scenes < 1:
        raise InputError(f"a trace needs at least one scene, got {num_scenes}")
    rng = np.random.default_rng(derive_seed(seed, "trace", 0))
    tags = list(_TAG_POOL)
    rng.shuffle(tags)
    scenes = tuple(
        SceneDef(tags=(tags[i % len(tags)],), duration=scene_duration, motion=motion)
        for i in range(num_scenes)
    )
    spec = SceneSpec(scenes=scenes, fps=fps, noise=noise, seed=seed)
    total = num_scenes * scene_duration
    queries: list[TraceQuery] = [
        TraceQuery(
            t_input=min(5.0, total / 2),
            question="what scene is showing right now",
            reference_answer=scenes[0].tags[0],
            task_type="SF",
        )
    ]
    for i, scene in enumerate(scenes):
        end = (i + 1) * scene_duration
        delay = 10.0 if end + 10.0 < total else 2.0
        task = "SM" if delay <= 20.0 else "LM"
        tag = scene.tags[0]
        queries.append(
            TraceQuery(
                t_input=min(end + delay, total - 0.5),
                question=f"what was happening in the {tag} scene",
                reference_answer=tag,
                task_type=task,
            )
        )
    first_tag = scenes[0].tags[0]
    queries.append(
        TraceQuery(
            t_input=total - 0.25,
            question=f"earlier i asked about the {first_tag} scene, remind me about the {first_tag} scene",
            reference_answer=first_tag,
            task_type="CI",
        )
    )
    queries.sort(key=lambda q: q.t_input)
    return Trace(source={"kind": "synthetic", "spec": spec.to_json()}, queries=tuple(queries))


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class ScoredAnswer:
    record: AnswerRecord
    score: int
    verdict: str
    task_type: str = "SF"


@dataclass(frozen=True)
class MetricsReport:
    mean_score: float
    accuracy: float
    coherence: float | None  # absent with a single turn
    rpd_mean: float
    rpd_p95: float
    per_task: dict

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def compute_metrics(scored: list[ScoredAnswer]) -> MetricsReport:
    """Mean score, indicator accuracy at the judge's pass score, coherence as
    the mean absolute difference of consecutive turn scores, and delay
    statistics."""
    if not scored:
        raise InputError("need at least one scored answer")
    scores = np.array([s.score for s in scored], dtype=np.float64)
    rpds = np.array([s.record.rpd for s in scored], dtype=np.float64)
    coherence = None
    if len(scores) >= 2:
        coherence = float(np.mean(np.abs(np.diff(scores))))
    per_task: dict = {}
    for task in TASK_TYPES:
        subset = [s for s in scored if s.task_type == task]
        if subset:
            sub_scores = np.array([s.score for s in subset], dtype=np.float64)
            per_task[task] = {
                "count": len(subset),
                "mean_score": float(sub_scores.mean()),
                "accuracy": float((sub_scores >= PASS_SCORE).mean()),
            }
    return MetricsReport(
        mean_score=float(scores.mean()),
        accuracy=float((scores >= PASS_SCORE).mean()),
        coherence=coherence,
        rpd_mean=float(rpds.mean()),
        rpd_p95=float(np.percentile(rpds, 95)),
        per_task=per_task,
    )


# ---------------------------------------------------------------------------
# benchmark runs


def judge_answers(
    report: RunReport, queries: tuple[TraceQuery, ...], judge
) -> list[ScoredAnswer]:
    """Score each answer; a failed answer scores 0 unjudged, and a failing
    judge is a BackendError."""
    scored = []
    for record, query in zip(report.answers, queries):
        verdict, score = ("no", 0) if record.error is not None else call_port(
            "judging", judge, query.question, query.reference_answer, record.answer)
        scored.append(ScoredAnswer(record=record, score=score, verdict=verdict,
                                   task_type=query.task_type))
    return scored


def run_benchmark(
    trace: Trace,
    mem_cfg: MemoryConfig,
    ports: PortSet,
    out_dir: str | Path | None = None,
    clock_mode: str = "sim",
):
    """Run the pipeline over a trace, judge every answer, and (optionally)
    write report.json plus transcript.jsonl to out_dir.  The gate takes its
    threshold from `mem_cfg.threshold_t`."""
    gate_cfg = GateConfig(threshold_t=mem_cfg.threshold_t)
    query_requests = [QueryRequest(question=q.question, t_input=q.t_input) for q in trace.queries]
    report = run(trace.iter_frames(), query_requests, mem_cfg, gate_cfg, ports,
                 clock_mode=clock_mode)
    scored = judge_answers(report, trace.queries, ports.judge)
    metrics = compute_metrics(scored) if scored else None

    doc = report.to_json()
    doc["metrics"] = metrics.to_json() if metrics else None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
        (out / "report.json").write_text(text + "\n")
        with open(out / "transcript.jsonl", "w") as fh:
            for s, q in zip(scored, trace.queries):
                line = {**s.record.to_json(), "reference_answer": q.reference_answer,
                        "task_type": s.task_type, "score": s.score, "verdict": s.verdict}
                fh.write(json.dumps(line, sort_keys=True, allow_nan=False) + "\n")
    return report, metrics, doc


SWEEP_PARAMS = {
    "t": "threshold_t",
    "L": "chunk_len_L",
    "g": "group_size_g",
    "C": "cluster_goal_C",
}

SWEEP_COLUMNS = ["value", "accuracy", "rpd_mean", "fps", "kept_ratio"]


def sweep(
    trace: Trace,
    parameter: str,
    values: list,
    mem_cfg: MemoryConfig,
    ports: PortSet,
    out_path: str | Path | None = None,
    clock_mode: str = "sim",
) -> list[dict]:
    """One benchmark run per parameter value with fixed seeds; returns (and
    optionally writes) one CSV row per value."""
    if parameter not in SWEEP_PARAMS:
        raise InputError(f"sweep parameter must be one of {sorted(SWEEP_PARAMS)}")
    if not values:
        raise InputError("sweep needs at least one value")
    rows = []
    for value in values:
        cfg = dataclasses.replace(mem_cfg, **{SWEEP_PARAMS[parameter]: value})
        report, metrics, _ = run_benchmark(trace, cfg, ports, out_dir=None, clock_mode=clock_mode)
        rows.append(
            {
                "value": value,
                "accuracy": metrics.accuracy if metrics else "",
                "rpd_mean": metrics.rpd_mean if metrics else "",
                "fps": report.fps_in,
                "kept_ratio": report.frames_kept / report.frames_in if report.frames_in else 0.0,
            }
        )
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows


# ---------------------------------------------------------------------------
# interactive mode


def repl(
    mem_cfg: MemoryConfig,
    ports: PortSet,
    spec: SceneSpec,
    stdin=None,
    stdout=None,
) -> RunReport:
    """Stream a synthetic source in wall-clock mode and answer questions read
    from standard input; 'quit' or end-of-input shuts down cleanly."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    bundle = None  # the last one generated from; submit_query runs on this thread

    def generate(b):
        nonlocal bundle
        bundle = b
        return ports.generator(b)

    engine = Engine(mem_cfg, GateConfig(threshold_t=mem_cfg.threshold_t),
                    dataclasses.replace(ports, generator=generate))
    engine.start(synth_scenes(spec))
    answers: list[AnswerRecord] = []
    try:
        for line in stdin:
            question = line.strip()
            if not question:
                continue
            if question == "quit":
                break
            record = engine.submit_query(question)
            answers.append(record)
            if record.error is None:
                print(f"answer: {record.answer}", file=stdout)
            else:
                print(f"error: {record.error}", file=stdout)
            print(f"rpd: {record.rpd:.4f}s", file=stdout)
            if record.bundle_digest and bundle.path.steps:  # no digest: encoding failed
                path_str = " -> ".join(
                    f"L{s.level}#{s.index}({s.similarity:.4f})" for s in bundle.path.steps
                )
                print(f"path: {path_str}", file=stdout)
    finally:
        engine.stop()
    report = engine.report(answers)
    print(json.dumps(report.to_json(), sort_keys=True), file=stdout)
    return report
