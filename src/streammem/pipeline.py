"""Three-stage pipeline: frame gating, memory formation, contextual
summarization.

The stage logic lives once, in `Stages`; two drivers decide only the order
and the threading:

* `run_sim` replays frame and query events in timestamp order on one thread,
  so the same (trace, seeds, config) always yields a byte-identical report.
  Stream time stands still while a query is answered, so a sim answer has
  `t_start == t_done == t_input` and request processing delay (`rpd`) 0:
  sim mode models no latency.
* `Engine` runs intake and formation in line on one worker thread, which
  publishes a snapshot after each write.  Queries answer on the caller's
  thread from the latest snapshot, so they never wait for formation.  Its
  answer times, and so `rpd`, are measured on the monotonic clock.
"""

from __future__ import annotations

import dataclasses
import json
import queue
import threading
import time
from dataclasses import dataclass

from .errors import BackendError, InputError, call_port
from .frame_gate import Chunk, Frame, FrameGate, GateConfig, VisionBuffer
from .memory_core import MemoryConfig, MemoryStore
from .ports import PortSet
from .retrieval import PathResult, assemble_context, bundle_digest, encode_query


@dataclass(frozen=True)
class QueryRequest:
    question: str
    t_input: float


@dataclass
class AnswerRecord:
    question: str
    answer: str
    t_input: float
    t_start: float
    t_done: float
    rpd: float
    bundle_digest: str
    error: str | None = None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunReport:
    frames_in: int
    frames_kept: int
    duration: float  # stream time span (sim) or wall elapsed (wall)
    fps_in: float  # input frames per second, dropped frames included
    fps_kept: float
    answers: list[AnswerRecord]
    config: dict
    clock_mode: str

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the stage core


class Stages:
    """The stage logic both drivers share: intake gates, encodes and buffers
    frames, formation writes chunks and answered turns into the store,
    answering reads a snapshot, and report sums up the run."""

    def __init__(self, mem_cfg: MemoryConfig, gate_cfg: GateConfig, ports: PortSet):
        self.mem_cfg = mem_cfg
        self.ports = ports
        self.gate = FrameGate(gate_cfg)
        self.buf = VisionBuffer(mem_cfg.chunk_len_L)
        self.store = MemoryStore(mem_cfg, ports.captioner, ports.text_encoder)
        self.frames_in = 0
        self.frames_kept = 0

    def intake(self, frame: Frame) -> Chunk | None:
        """Gate one frame and, if kept, encode and buffer it.  Returns the
        chunk its embedding completed, if any."""
        self.frames_in += 1
        if not self.gate.update(frame).kept:
            return None
        self.frames_kept += 1
        return self.buf.push(call_port("frame encoding", self.ports.frame_encoder, frame))

    def form(self, item: Chunk | AnswerRecord) -> None:
        """Write a chunk, or an answered turn, into memory."""
        if isinstance(item, Chunk):
            self.store.on_chunk(item)
        else:
            self.store.on_answer(item.question, item.answer, item.t_done)

    def answer(
        self, question: str, t_input: float, snapshot, now
    ) -> tuple[AnswerRecord, PathResult | None]:
        """Encode the question, assemble its context from `snapshot`, digest
        the bundle and generate.  `now()` is the driver's clock: it is read
        when generation starts (or a port failed) and when the answer is
        done."""
        answer, digest, path, error = "", "", None, None
        try:
            q = call_port("query encoding", encode_query, question, self.ports.text_encoder)
            bundle = assemble_context(snapshot, q, self.mem_cfg)
            path = bundle.path
            digest = bundle_digest(bundle)
            t_start = now()
            answer = call_port("generation", self.ports.generator, bundle)
        except BackendError as exc:
            error = str(exc)
            t_start = now()
        record = AnswerRecord(question, answer, t_input, t_start, now(),
                              t_start - t_input, digest, error)
        return record, path

    def report(self, duration: float, answers: list[AnswerRecord], mode: str) -> RunReport:
        config = dataclasses.asdict(self.mem_cfg)
        config.update({f"gate_{k}": v for k, v in dataclasses.asdict(self.gate.cfg).items()})
        return RunReport(
            frames_in=self.frames_in,
            frames_kept=self.frames_kept,
            duration=duration,
            fps_in=self.frames_in / duration if duration > 0 else 0.0,
            fps_kept=self.frames_kept / duration if duration > 0 else 0.0,
            answers=answers,
            config=config,
            clock_mode=mode,
        )


# ---------------------------------------------------------------------------
# simulated mode


def run_sim(
    frames,
    queries: list[QueryRequest],
    mem_cfg: MemoryConfig,
    gate_cfg: GateConfig,
    ports: PortSet,
) -> RunReport:
    """Deterministic single-threaded replay of the three-stage pipeline.

    Events are processed in timestamp order, frames before queries at equal
    timestamps.  The final partial buffer is flushed at stream end.  Stream
    time stands still while a query is answered: every answer is stamped
    with its own t_input.
    """
    for a, b in zip(queries, queries[1:]):
        if b.t_input < a.t_input:
            raise InputError("queries must be sorted by t_input")

    stages = Stages(mem_cfg, gate_cfg, ports)
    answers: list[AnswerRecord] = []
    first_t = last_t = None

    def form(chunk):
        if chunk is not None:
            stages.form(chunk)

    frame_iter = iter(frames)
    frame = next(frame_iter, None)
    qi = 0
    while frame is not None or qi < len(queries):
        if frame is not None and (qi == len(queries) or frame.timestamp <= queries[qi].t_input):
            first_t = frame.timestamp if first_t is None else first_t
            last_t = frame.timestamp
            form(stages.intake(frame))
            frame = next(frame_iter, None)
            if frame is None:
                form(stages.buf.flush())
        else:
            req = queries[qi]
            qi += 1
            record, _ = stages.answer(
                req.question, req.t_input, stages.store.snapshot(), now=lambda: req.t_input
            )
            answers.append(record)
            if record.error is None:
                # appended after generation completes: a query never sees its own turn
                stages.form(record)

    duration = float(last_t - first_t) if stages.frames_in else 0.0
    return stages.report(duration, answers, "sim")


# ---------------------------------------------------------------------------
# wall-clock mode


class Engine:
    """Live engine for wall-clock runs and the interactive mode.

    One worker thread pulls frames and forms memory in line: each completed
    chunk is written and a new snapshot published before the next frame is
    pulled.  submit_query answers on the caller's thread from the latest
    snapshot, so a query never waits for formation, and sends its turn to an
    inbox that the worker forms before its next frame, or with a blocking
    get once intake has ended.  Intake ends with the source, at stop, or at
    the first stage failure, which is raised again by submit_query and stop.
    The worker is a daemon thread, so an engine that is never stopped does
    not keep the interpreter alive.
    """

    def __init__(self, mem_cfg: MemoryConfig, gate_cfg: GateConfig, ports: PortSet):
        self._origin = time.monotonic()
        self._stages = Stages(mem_cfg, gate_cfg, ports)
        self._snapshot = self._stages.store.snapshot()
        # answer records and finally None (stop), in arrival order
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        # guards _progress and _stopped; notified when _progress changes or
        # intake ends
        self._cond = threading.Condition()
        self._progress = float("-inf")  # timestamp of the last frame pulled
        self._error: Exception | None = None  # first stage failure
        self._source_done = threading.Event()
        self._stopped = False
        self.last_path = None  # PathResult of the most recent query, for display
        self._thread: threading.Thread | None = None

    @property
    def frames_in(self) -> int:
        return self._stages.frames_in

    @property
    def frames_kept(self) -> int:
        return self._stages.frames_kept

    def _now(self) -> float:
        return time.monotonic() - self._origin

    def latest_snapshot(self):
        return self._snapshot  # swapped whole by the worker, never mutated

    # -- the worker ----------------------------------------------------------

    def _form(self, item: Chunk | AnswerRecord | None) -> None:
        if item is not None:
            self._stages.form(item)
            self._snapshot = self._stages.store.snapshot()

    def _work(self, source) -> None:
        try:
            for frame in source:
                with self._cond:
                    self._progress = frame.timestamp
                    self._cond.notify_all()
                while not self._inbox.empty():  # no other thread reads it: get never blocks
                    self._form(self._inbox.get())
                self._form(self._stages.intake(frame))
                if self._stopped:
                    break
            self._form(self._stages.buf.flush())
        except Exception as exc:
            self._error = exc
        finally:
            with self._cond:
                self._source_done.set()
                self._cond.notify_all()
        # after a failure, keep reading so that stop's None is always seen
        while (item := self._inbox.get()) is not None:
            if self._error is None:
                try:
                    self._form(item)
                except Exception as exc:
                    self._error = exc

    # -- public API ----------------------------------------------------------

    def start(self, source) -> None:
        self._thread = threading.Thread(
            target=self._work, args=(source,), name="stream-worker", daemon=True
        )
        self._thread.start()

    def submit_query(self, question: str) -> AnswerRecord:
        if self._error is not None:
            raise self._error
        if self._stopped:
            raise InputError("engine stopped; no further queries accepted")
        if not question:  # its turn would fail formation and end the engine
            raise InputError("a question must be nonempty")
        record, self.last_path = self._stages.answer(
            question, self._now(), self.latest_snapshot(), now=self._now
        )
        if record.error is None:
            with self._cond:
                # a turn sent after stop's final None would never be formed
                if self._stopped:
                    raise InputError("engine stopped; no further queries accepted")
                self._inbox.put(record)
        return record

    def wait_progress(self, t: float) -> None:
        """Block until the worker has pulled a frame at or after stream time
        `t`, or intake has ended (which stop and a stage failure also do)."""
        with self._cond:
            self._cond.wait_for(lambda: self._progress >= t or self._source_done.is_set())

    def wait_source_done(self, timeout: float | None = None) -> bool:
        """Block until intake has ended; False if `timeout` passed first."""
        return self._source_done.wait(timeout)

    def stop(self) -> None:
        """End intake at the next frame boundary, flush the partial chunk,
        form every turn sent so far, join the worker, and raise the first
        stage failure, if any.  A source blocked inside next() holds stop
        until it yields."""
        with self._cond:
            first, self._stopped = not self._stopped, True
        if first and self._thread is not None:
            self._source_done.wait()
            self._inbox.put(None)
            self._thread.join()
        if self._error is not None:
            raise self._error

    def report(self, answers: list[AnswerRecord]) -> RunReport:
        return self._stages.report(self._now(), answers, "wall")


def run_wall(
    frames,
    queries: list[QueryRequest],
    mem_cfg: MemoryConfig,
    gate_cfg: GateConfig,
    ports: PortSet,
) -> RunReport:
    """Stream the whole source as fast as the stages allow; each query fires
    once the source has progressed past its submission timestamp.  A stage
    failure is raised."""
    engine = Engine(mem_cfg, gate_cfg, ports)
    engine.start(frames)
    answers: list[AnswerRecord] = []
    try:
        for req in queries:
            engine.wait_progress(req.t_input)
            answers.append(engine.submit_query(req.question))
        engine.wait_source_done()
    finally:
        engine.stop()
    return engine.report(answers)


def run(
    frames,
    queries: list[QueryRequest],
    mem_cfg: MemoryConfig,
    gate_cfg: GateConfig,
    ports: PortSet,
    clock_mode: str = "sim",
) -> RunReport:
    if clock_mode == "sim":
        return run_sim(frames, queries, mem_cfg, gate_cfg, ports)
    if clock_mode == "wall":
        return run_wall(frames, queries, mem_cfg, gate_cfg, ports)
    raise InputError(f"unknown clock mode {clock_mode!r}")
