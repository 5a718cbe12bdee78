"""The benchmark's four workloads.

Each drives streammem only through its public API (`run_sim`, `Engine`,
`stub_ports`/`remote_ports`, `gen_trace`) and repeats one fixed unit of work
(a replay, a live pass, a dialogue session) until its time is spent.  Inputs
come from the workload seed; the program receives only generated frames and
queries.  Every unit of work is checked; a failed check is a problem that
makes the run incorrect.

Timings use `time.perf_counter`.  In a traced repetition the layers are
wrapped by `spantrace.Tracer`; its figures feed only the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import math
import queue
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import streammem.frame_gate as frame_gate
import streammem.memory_core as memory_core
import streammem.pipeline as pipeline
import streammem.ports as streammem_ports
import streammem.retrieval as retrieval
from streammem import PRESETS, Engine, GateConfig, QueryRequest, RemoteBackendConfig
from streammem import remote_ports, stub_ports
from streammem.harness import gen_trace
from streammem.ports import hash_text_encode

import spantrace
from spantrace import QUERY_ROOT, SIM_ROOT, Tracer

CFG = PRESETS["base"]
GATE = GateConfig(threshold_t=CFG.threshold_t)
SETUP_REPEATS = 100  # set-up takes 3 to 70 microseconds; time it many times
STALL_S = 60.0  # a pass that makes no progress this long has hung
RECALL_FLOOR = 0.95  # criterion 8's bound on tag recall and CI dialogue attach
FLOOR_ALPHA = 1e-3  # a program at the floor fails the floor check this rarely
FOLLOW_UP_SHARE = 0.5  # assumed share of dialogue-growth queries that follow up


class Stalled(RuntimeError):
    """The engine stopped making progress; its threads cannot be joined."""


@dataclass
class Tally:
    """Everything measured over one run, across its repetitions."""

    setup_s: list[float] = field(default_factory=list)
    # per untraced repetition: (input frames, seconds) of its ingest, and
    # in dialogue-growth (answered queries, seconds) of its session
    frames: list[tuple[int, float]] = field(default_factory=list)
    queries: list[tuple[int, float]] = field(default_factory=list)
    latency_ms: list[list[float]] = field(default_factory=list)  # per untraced repetition
    lag_ms: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # untraced repetitions
    traced_walls: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)  # one per traced repetition
    tracers: list[Tracer] = field(default_factory=list)
    recall: list[int] = field(default_factory=lambda: [0, 0])  # tag hits, asked
    ci_attach: list[int] = field(default_factory=lambda: [0, 0])  # hits, asked
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok and problem not in self.problems:
            self.problems.append(problem)

    def drop_timings(self) -> None:
        """Forget the timings so far (a warm-up's); checks and counts stay."""
        for timings in (self.setup_s, self.frames, self.queries, self.latency_ms,
                        self.lag_ms, self.walls):
            timings.clear()


class Source:
    """Benchmark-owned frame iterator.

    Intake pulls it as fast as it can (a closed loop).  Each hand-over and
    each resume is stamped, so the gaps are the time intake spent on a frame.
    A scheduled time becomes due at the first frame pulled at or past it; in
    run_sim, which answers a query after the frames stamped at its time, the
    first frame past it (`strict`).
    """

    def __init__(self, frames, schedule=(), strict=False, on_due=None):
        self.frames = frames
        self.schedule = list(schedule)
        self.strict = strict
        self.on_due = on_due
        self.handed: list[float] = []
        self.resumed: list[float] = []
        self.due: list[float] = []
        self.thread = None

    def _mark_due(self, t, ts):
        due, schedule = self.due, self.schedule
        while len(due) < len(schedule) and (ts > schedule[len(due)] or (
                not self.strict and ts == schedule[len(due)])):
            due.append(t)
            if self.on_due is not None:
                self.on_due(len(due) - 1)

    def __iter__(self):
        self.thread = threading.get_ident()
        for frame in self.frames:
            t = perf_counter()
            self._mark_due(t, frame.timestamp)
            self.handed.append(t)
            yield frame
            self.resumed.append(perf_counter())
        self._mark_due(perf_counter(), math.inf)


class AnswerProbe:
    """Generator port wrapper: keeps each bundle (the source of tag recall)
    and the time its answer was ready (the end of the query)."""

    def __init__(self, inner):
        self.inner = inner
        self.bundles: list = []
        self.done: list[float] = []

    def __call__(self, bundle):
        answer = self.inner(bundle)
        self.done.append(perf_counter())
        self.bundles.append(bundle)
        return answer


@contextlib.contextmanager
def captured_snapshots():
    """Keep (store, snapshot) for every MemoryStore.snapshot() call, so a
    run_sim replay's snapshots can be checked after it returns."""
    seen: list = []
    original = memory_core.MemoryStore.snapshot

    def snapshot(store):
        snap = original(store)
        seen.append((store, snap))
        return snap

    memory_core.MemoryStore.snapshot = snapshot
    try:
        yield seen
    finally:
        memory_core.MemoryStore.snapshot = original


def endpoint_name(args, name):
    # RemoteClient.call(self, endpoint, payload)
    endpoint = args[1] if len(args) > 1 else None
    return f"{name}.{endpoint}" if isinstance(endpoint, str) else name


def instrument(tracer: Tracer) -> None:
    """Wrap the module and class attributes the pipeline calls."""
    tracer.patch("frame_gate.update", frame_gate.FrameGate, "update",
                 note=lambda a, r: r.kept)
    tracer.patch("frame_gate.buffer_push", frame_gate.VisionBuffer, "push")
    tracer.patch("memory_core.kmeans", memory_core, "kmeans", note=lambda a, r: len(a[0]))
    tracer.patch("memory_core.make_unit", memory_core, "make_unit")
    tracer.patch("memory_core.on_chunk", memory_core.MemoryStore, "on_chunk")
    tracer.patch("memory_core.tree_append", memory_core.MemoryTree, "append")
    tracer.patch("memory_core.snapshot", memory_core.MemoryStore, "snapshot")
    tracer.patch("memory_core.dialogue_append", memory_core.MemoryStore, "on_answer")
    tracer.patch("retrieval.encode_query", pipeline, "encode_query")
    tracer.patch("retrieval.assemble_context", pipeline, "assemble_context")
    tracer.patch("retrieval.bundle_digest", pipeline, "bundle_digest")
    tracer.patch("retrieval.descend_tree", retrieval, "descend_tree")
    tracer.patch("retrieval.retrieve_dialogue", retrieval, "retrieve_dialogue",
                 note=lambda a, r: r is not None)
    tracer.patch("ports.remote", streammem_ports.RemoteClient, "call", name_of=endpoint_name)


def traced_ports(tracer: Tracer, ports):
    """Wrap the injected port objects; the captioner's methods are patched on
    the instance, which belongs to this repetition only."""
    changes = {}
    for name in ("frame_encoder", "text_encoder", "generator"):
        port = getattr(ports, name, None)
        if callable(port):
            changes[name] = tracer.wrap(f"ports.{name}", port)
        else:
            tracer.missing.append(f"ports.{name}")
    captioner = getattr(ports, "captioner", None)
    for method in ("caption_chunk", "summarize"):
        tracer.patch(f"ports.captioner.{method}", captioner, method)
    return dataclasses.replace(ports, **changes)


def with_probe(ports):
    probe = AnswerProbe(ports.generator)
    return dataclasses.replace(ports, generator=probe), probe


def level0(snapshot) -> int:
    return len(snapshot.tree[0]) if snapshot.tree else 0


def snapshot_problem(snapshot) -> str | None:
    try:
        snapshot.check(CFG.group_size_g)
    except AssertionError as exc:
        return f"snapshot v{snapshot.version} fails MemorySnapshot.check: {exc}"
    return None


def scene_tags(trace) -> list[tuple[str, float]]:
    """(tag, end time) of each scene of a gen_trace trace."""
    out, t = [], 0.0
    for scene in trace.source["spec"]["scenes"]:
        t += scene["duration"]
        out.append((scene["tags"][0], t))
    return out


class Workload:
    name = ""
    why = ""
    warmup = 0  # untimed repetitions before the timed ones

    def __init__(self, seed: int, tally: Tally):
        self.seed = seed
        self.tally = tally

    def rep(self, tracer: Tracer | None) -> dict:
        """Run one unit of work; return what the layer metrics need."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def timed_setup(self, build, tracer):
        """Build ports and engine; untraced repetitions time it repeatedly."""
        if tracer is not None:
            return build(tracer)
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            product = build(None)
            self.tally.setup_s.append(perf_counter() - start)
        return product


# ---------------------------------------------------------------------------
# replay-long and remote-replay: run_sim over a whole trace


class ReplayLong(Workload):
    name = "replay-long"
    why = ("formation-bound batch replay (the `streammem run` default); "
           "k-means dominates and the query path is negligible")
    num_scenes = 20
    recall_floor = True  # criterion 8's bound, checked per repetition
    # the first replay in a process runs 10-20% slower than the next ones
    # (the heap grows, caches fill), by an amount that differs from run to run
    warmup = 1

    def __init__(self, seed, tally):
        super().__init__(seed, tally)
        self.trace = gen_trace(num_scenes=self.num_scenes, scene_duration=30.0, fps=10.0,
                               seed=seed)
        self.frames = self.trace.frames()
        self.requests = [QueryRequest(q.question, q.t_input) for q in self.trace.queries]
        self.report_bytes = None

    def make_ports(self):
        return stub_ports()

    def build(self, tracer):
        # run_sim builds its own stages, so set-up is building the ports
        ports = self.make_ports()
        return ports if tracer is None else traced_ports(tracer, ports)

    def replay(self, ports, tracer=None):
        ports, probe = with_probe(ports)
        source = Source(self.frames, [r.t_input for r in self.requests], strict=True)
        sim = pipeline.run_sim if tracer is None else tracer.wrap(SIM_ROOT, pipeline.run_sim)
        with captured_snapshots() as seen:
            if tracer is not None:
                instrument(tracer)
            try:
                report = sim(source, self.requests, CFG, GATE, ports)
                end = perf_counter()
            finally:
                if tracer is not None:
                    tracer.restore()
        return report, probe, source, seen, end

    def rep(self, tracer):
        tally = self.tally
        ports = self.timed_setup(self.build, tracer)
        before = self.remote_attempts()
        report, probe, source, seen, end = self.replay(ports, tracer)
        wall = end - source.handed[0]
        after = self.remote_attempts()

        self.check_report(report, probe, seen)
        answered = [a for a in report.answers if a.error is None]
        tally.attempted += report.frames_in + len(report.answers)
        tally.failed += len(report.answers) - len(answered)
        if tracer is None:
            tally.walls.append(wall)
            tally.frames.append((report.frames_in, wall))
            done = iter(probe.done)
            tally.latency_ms.append([(next(done) - due) * 1e3 for answer, due
                                     in zip(report.answers, source.due) if answer.error is None])
        else:
            tally.traced_walls.append(wall)
        final = memory_core.MemoryStore.snapshot(seen[-1][0]) if seen else None
        return {
            "wall": wall,
            "handed": source.handed,
            "resumed": source.resumed,
            "intake_thread": source.thread,
            "due": source.due,
            "tree_levels": [len(level) for level in final.tree] if final else [],
            "dialogue_turns": len(final.dialogue) if final else 0,
            "remote_attempts": after - before,
        }

    def remote_attempts(self) -> int:
        return 0

    def check_report(self, report, probe, seen):
        tally = self.tally
        text = report.to_json_str()
        if self.report_bytes is None:
            self.report_bytes = text
        tally.check(text == self.report_bytes,
                    "report bytes differ between repetitions of one seed")
        for _, snap in seen:
            problem = snapshot_problem(snap)
            tally.check(problem is None, problem or "")
        # run_sim reads one snapshot per query, before encoding it
        answered = [(q, snap) for q, a, (_, snap)
                    in zip(self.trace.queries, report.answers, seen) if a.error is None]
        recall, ci_attach = [0, 0], [0, 0]  # hits, asked
        for bundle, (query, snap) in zip(probe.bundles, answered):
            qvec = hash_text_encode(query.question)
            path = tuple((step.level, step.index) for step in bundle.path.steps)
            tally.check(path == oracle_path(snap.tree, qvec),
                        f"descent path differs from the argmax oracle: {query.question!r}")
            tally.check(bundle.dialogue_context == oracle_dialogue(snap.dialogue, qvec),
                        f"dialogue turn differs from the top-1 oracle: {query.question!r}")
            tag = query.reference_answer.removeprefix("scene: ")
            if query.task_type in ("SM", "LM"):
                recall[0] += tag in (bundle.path.best_caption or "")
                recall[1] += 1
            elif query.task_type == "CI":
                ci_attach[0] += (bundle.dialogue_context is not None
                                 and tag in bundle.dialogue_context[0])
                ci_attach[1] += 1
        for total, (hits, asked) in ((tally.recall, recall), (tally.ci_attach, ci_attach)):
            total[0] += hits
            total[1] += asked
        if self.recall_floor:
            for what, (hits, asked) in (("tag recall", recall), ("CI dialogue attach", ci_attach)):
                tally.check(not below_floor(hits, asked),
                            f"{what} {hits}/{asked} is below criterion 8's {RECALL_FLOOR} "
                            f"(binomial p < {FLOOR_ALPHA:g})")


def below_floor(hits: int, asked: int) -> bool:
    """True when `hits` of `asked` is too few for a recall of RECALL_FLOOR:
    a program whose recall is at the floor scores this low or lower with
    probability below FLOOR_ALPHA (one-sided exact binomial test).  A bare
    hits/asked >= 0.95 on a trace's ~20 queries would fail such a program
    in about a quarter of seeds, where criterion 8 pools 50 traces."""
    p = sum(math.comb(asked, k) * RECALL_FLOOR**k * (1 - RECALL_FLOOR)**(asked - k)
            for k in range(hits + 1))
    return p < FLOOR_ALPHA


def _cosine(a, b) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return 0.0 if na == 0.0 or nb == 0.0 else float(np.dot(a, b) / (na * nb))


def oracle_path(tree, qvec) -> tuple:
    """Reference greedy descent: at each level the argmax cosine among the
    chosen node's children (all nodes at the top), ties to the earlier span,
    then the lower index; returns (level, index) per step."""
    if not tree:
        return ()
    path = []
    level = len(tree) - 1
    candidates = range(len(tree[level]))
    while True:
        nodes = tree[level]
        best = min(candidates,
                   key=lambda i: (-_cosine(qvec, nodes[i].caption_vec), nodes[i].span[0], i))
        path.append((level, best))
        if level == 0:
            return tuple(path)
        candidates = range(nodes[best].child_start, nodes[best].child_end)
        level -= 1


def oracle_dialogue(entries, qvec):
    """Reference top-1 dialogue turn: highest cosine, ties to the most recent
    turn, None below the configured cutoff."""
    sims = [_cosine(qvec, e.vec) for e in entries]
    if not sims or max(sims) < CFG.min_dialogue_sim:
        return None
    best = max(range(len(sims)), key=lambda i: (sims[i], i))
    return (entries[best].question, entries[best].answer)


class RemoteReplay(ReplayLong):
    name = "remote-replay"
    why = ("the only workload through RemoteClient: JSON over loopback HTTP "
           "with keep-alive and retries")
    num_scenes = 10
    recall_floor = False
    warmup = 0  # set-up's stub replay has already warmed the process

    def __init__(self, seed, tally):
        super().__init__(seed, tally)
        report, _, _, _, _ = self.replay(stub_ports())
        self.expected = [(a.answer, a.bundle_digest) for a in report.answers]
        src = Path(streammem_ports.__file__).resolve().parent.parent
        self.server = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("model_server.py")), str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("model server did not start")
        self.port = int(line)
        self.remote_cfg = RemoteBackendConfig(base_url=f"http://127.0.0.1:{self.port}")

    def make_ports(self):
        return remote_ports(self.remote_cfg)

    def remote_attempts(self) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return sum(json.loads(conn.getresponse().read())["attempts"].values())
        finally:
            conn.close()

    def check_report(self, report, probe, seen):
        super().check_report(report, probe, seen)
        got = [(a.answer, a.bundle_digest) for a in report.answers]
        self.tally.check(got == self.expected,
                         "remote answers or bundle digests differ from the stub replay")

    def close(self):
        if self.server is None:
            return
        self.server.stdin.close()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None


# ---------------------------------------------------------------------------
# live-ingest: the threaded Engine with recall queries fired by stream time


class LiveIngest(Workload):
    name = "live-ingest"
    why = ("the threaded pipeline under a closed-loop source, with queries "
           "contending with formation for the interpreter")
    query_every_s = 2.0  # stream seconds between recall queries

    def __init__(self, seed, tally):
        super().__init__(seed, tally)
        trace = gen_trace(num_scenes=20, scene_duration=30.0, fps=10.0, seed=seed)
        self.frames = trace.frames()
        self.index = {f.timestamp: i for i, f in enumerate(self.frames)}
        scenes = scene_tags(trace)
        rng = random.Random(seed)
        self.schedule = []
        t = scenes[0][1] + 10.0
        while t < scenes[-1][1] - 1.0:
            ended = [tag for tag, end in scenes if end + 10.0 <= t]
            self.schedule.append((t, rng.choice(ended)))
            t += self.query_every_s
        # the same trace through run_sim, for the kept-frame and unit counts
        probe_t = self.frames[-1].timestamp + 1.0
        with captured_snapshots() as seen:
            report = pipeline.run_sim(self.frames, [QueryRequest("final", probe_t)], CFG, GATE,
                                      stub_ports())
        self.sim_kept = report.frames_kept
        self.sim_units = level0(seen[-1][1])

    def build(self, tracer):
        ports, probe = with_probe(stub_ports())
        if tracer is not None:
            ports = traced_ports(tracer, ports)
        return Engine(CFG, GATE, ports), probe

    def rep(self, tracer):
        tally = self.tally
        engine, probe = self.timed_setup(self.build, tracer)
        due_q: queue.SimpleQueue = queue.SimpleQueue()
        source = Source(self.frames, [t for t, _ in self.schedule], on_due=due_q.put)
        submit = engine.submit_query if tracer is None else tracer.wrap(QUERY_ROOT,
                                                                       engine.submit_query)
        asked = []
        if tracer is not None:
            instrument(tracer)
        try:
            engine.start(source)
            for k, (_, tag) in enumerate(self.schedule):
                try:
                    due_q.get(timeout=STALL_S)
                except queue.Empty:
                    raise Stalled(f"query {k} never became due") from None
                read = perf_counter()
                snap = engine.latest_snapshot()
                record = submit(f"what was happening in the {tag} scene")
                asked.append((tag, snap, read, perf_counter(), record))
            if not engine.wait_source_done(STALL_S):
                raise Stalled("intake did not finish")
            engine.stop()
            end = perf_counter()
        finally:
            if tracer is not None:
                tracer.restore()
        wall = end - source.handed[0]

        final = engine.latest_snapshot()
        for problem in map(snapshot_problem, [a[1] for a in asked] + [final]):
            tally.check(problem is None, problem or "")
        tally.check(engine.frames_kept == self.sim_kept,
                    f"frames_kept {engine.frames_kept} != sim {self.sim_kept}")
        tally.check(level0(final) == self.sim_units,
                    f"level-0 units {level0(final)} != sim {self.sim_units}")
        bundles = iter(probe.bundles)
        tally.attempted += engine.frames_in + len(asked)
        latencies = []
        for k, (tag, snap, read, done, record) in enumerate(asked):
            if record.error is not None:
                tally.failed += 1
                continue
            bundle = next(bundles)
            tally.recall[0] += tag in (bundle.path.best_caption or "")
            tally.recall[1] += 1
            if tracer is None:
                latencies.append((done - source.due[k]) * 1e3)
                if snap.tree:
                    newest = self.index[snap.tree[0][-1].span[1]]
                    tally.lag_ms.append((read - source.handed[newest]) * 1e3)
        if tracer is None:
            tally.walls.append(wall)
            tally.frames.append((engine.frames_in, wall))
            tally.latency_ms.append(latencies)
        else:
            tally.traced_walls.append(wall)
        return {
            "wall": wall,
            "handed": source.handed,
            "resumed": source.resumed,
            "intake_thread": source.thread,
            "due": source.due,
            "tree_levels": [len(level) for level in final.tree],
            "dialogue_turns": len(final.dialogue),
        }


# ---------------------------------------------------------------------------
# dialogue-growth: one closed-loop client against a growing dialogue memory


def dialogue_questions(seed: int, n: int) -> list[str]:
    """Fresh questions of random words, which share no word with any earlier
    turn and so miss dialogue memory, mixed with follow-ups that repeat an
    earlier question and so hit it.  The mix is an assumption, not measured
    traffic."""
    rng = random.Random(seed)
    fresh: list[str] = []
    out: list[str] = []
    for _ in range(n):
        if fresh and rng.random() < FOLLOW_UP_SHARE:
            out.append(f"remind me about {rng.choice(fresh)}")
        else:
            fresh.append(" ".join(f"w{rng.randrange(10**6)}" for _ in range(5)))
            out.append(fresh[-1])
    return out


class DialogueGrowth(Workload):
    name = "dialogue-growth"
    why = ("query-path bound: dialogue memory grows from 0 to N turns while "
           "formation writes every answer back; formation is otherwise idle")
    session_queries = 500

    def __init__(self, seed, tally):
        super().__init__(seed, tally)
        trace = gen_trace(num_scenes=5, scene_duration=20.0, fps=5.0, seed=seed)
        self.frames = trace.frames()
        self.questions = dialogue_questions(seed, self.session_queries)

    def build(self, tracer):
        ports = stub_ports()
        if tracer is not None:
            ports = traced_ports(tracer, ports)
        engine = Engine(CFG, GATE, ports)
        source = Source(self.frames)
        engine.start(source)
        if not engine.wait_source_done(STALL_S):
            raise Stalled("warm-up intake did not finish")
        expected = math.ceil(engine.frames_kept / CFG.chunk_len_L)
        deadline = perf_counter() + STALL_S
        while level0(engine.latest_snapshot()) < expected:
            if perf_counter() > deadline:
                raise Stalled("warm-up formation did not finish")
            time.sleep(0.0005)
        return engine, (engine.frames_in, perf_counter() - source.handed[0])

    def timed_setup(self, build, tracer):
        # the warm-up ingest is part of set-up, so each session sets up once
        start = perf_counter()
        engine, ingest = build(tracer)
        if tracer is None:
            self.tally.setup_s.append(perf_counter() - start)
            self.tally.frames.append(ingest)
        return engine

    def rep(self, tracer):
        tally = self.tally
        engine = self.timed_setup(self.build, tracer)
        submit = engine.submit_query
        if tracer is not None:
            tracer.spans.clear()  # the warm-up is set-up, not the measured phase
            submit = tracer.wrap(QUERY_ROOT, submit)
            instrument(tracer)
        latencies = []
        errors = 0
        try:
            start = perf_counter()
            for question in self.questions:
                t0 = perf_counter()
                record = submit(question)
                latencies.append((perf_counter() - t0) * 1e3)
                errors += record.error is not None
            end = perf_counter()
            engine.stop()
        finally:
            if tracer is not None:
                tracer.restore()
        wall = end - start
        final = engine.latest_snapshot()
        answered = len(self.questions) - errors
        tally.check(len(final.dialogue) == answered,
                    f"dialogue turns {len(final.dialogue)} != answered queries {answered}")
        problem = snapshot_problem(final)
        tally.check(problem is None, problem or "")
        tally.attempted += len(self.questions)
        tally.failed += errors
        if tracer is None:
            tally.walls.append(wall)
            tally.queries.append((answered, wall))
            tally.latency_ms.append(latencies)
        else:
            tally.traced_walls.append(wall)
        return {
            "wall": wall,
            "tree_levels": [len(level) for level in final.tree],
            "dialogue_turns": len(final.dialogue),
        }


WORKLOADS = {w.name: w for w in (ReplayLong, LiveIngest, DialogueGrowth, RemoteReplay)}


def run(name: str, seed: int, seconds: float, trace: bool) -> Tally:
    """Repeat the workload's unit of work for about `seconds`; with `trace`,
    alternate untraced and traced repetitions."""
    tally = Tally()
    workload = WORKLOADS[name](seed, tally)
    try:
        start = perf_counter()
        for _ in range(workload.warmup):
            workload.rep(None)
        tally.drop_timings()
        durations = []
        while True:
            t0 = perf_counter()
            workload.rep(None)
            if trace:
                tracer = Tracer()
                phase = workload.rep(tracer)
                tally.layers.append(spantrace.layer_metrics(tracer, phase))
                tally.tracers.append(tracer)
            durations.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(durations) > seconds:
                break
    finally:
        workload.close()
    return tally
