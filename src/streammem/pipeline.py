"""Three-stage pipeline: frame gating, memory formation, contextual
summarization.

The stage logic lives once, in the steps of `Engine`; two drivers decide
only the order and the threading:

* `run_sim` steps an engine it never starts on the caller's thread, in the
  timestamp order of frame and query events, so the same (trace, seeds,
  config) always yields a byte-identical report.  Stream time stands still
  while a query is answered, so a sim answer has `t_start == t_done ==
  t_input` and request processing delay (`rpd`) 0: sim mode models no
  latency.
* A started `Engine` steps through intake and formation in line on one
  worker thread, which publishes a snapshot after each step that wrote.
  Queries answer on the caller's thread from the latest snapshot, so they
  never wait for formation.  Its answer times, and so `rpd`, are measured
  on the monotonic clock.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BackendError, InputError, PortOutputError, call_port
from .frame_gate import Frame, FrameGate, GateConfig, VisionBuffer
from .memory_core import MemoryConfig, MemorySnapshot, MemoryStore
from .ports import PortSet
from .retrieval import assemble_context, bundle_digest, encode_query


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
# the engine


# k-means squares the differences of token values and sums them, over a
# token's width and a chunk's rows: below this magnitude a difference's
# square is below 2**514, so any sum of fewer than 2**500 of them is finite.
MAX_TOKEN_ABS = 2.0**256


class Engine:
    """The stage core, and the live engine for wall-clock runs and the
    interactive mode.

    The steps `feed`, `finish`, `answer` and `drain` hold the stage logic.
    `run_sim` calls them on an engine it never starts; a started engine's
    worker calls them itself, and submit_query calls `answer`.  The one
    worker thread pulls frames, drains the inbox and feeds each frame before
    the next, and publishes a snapshot after each step that wrote; once
    intake has ended it forms turns as they arrive, until stop.
    submit_query answers on the caller's thread from the latest snapshot, so
    a query never waits for formation.  Intake ends with the source, at
    stop, or at the first stage failure, which submit_query and stop raise
    again.  The worker is a daemon thread, so an engine that is never
    stopped does not keep the interpreter alive.
    """

    def __init__(self, mem_cfg: MemoryConfig, gate_cfg: GateConfig, ports: PortSet):
        self.mem_cfg = mem_cfg
        self.ports = ports
        self.gate = FrameGate(gate_cfg)
        self.buf = VisionBuffer(mem_cfg.chunk_len_L)
        self.store = MemoryStore(mem_cfg, ports.captioner, ports.text_encoder)
        self.frames_in = 0
        self.frames_kept = 0
        self._token_shape = None  # the first kept frame's
        self._origin = time.monotonic()
        # the empty store's, built directly: only the worker calls snapshot()
        self._snapshot = MemorySnapshot(0, (), (), (), ())
        self._inbox: deque[AnswerRecord] = deque()  # answered turns, oldest first
        # guards _progress, _stopped and puts into the inbox; notified when
        # _progress changes, intake ends, a turn is put or stop is called
        self._cond = threading.Condition()
        self._progress = float("-inf")  # timestamp of the last frame pulled
        self._error: Exception | None = None  # first stage failure
        self._source_done = threading.Event()
        self._stopped = False
        self._thread: threading.Thread | None = None

    # -- the stage steps -----------------------------------------------------

    def feed(self, frame: Frame) -> None:
        """Gate one frame and, if kept, encode and buffer it; form the chunk
        its embedding completed, if any."""
        self.frames_in += 1
        if not self.gate.update(frame).kept:
            return
        self.frames_kept += 1
        embedding = call_port("frame encoding", self.ports.frame_encoder, frame)
        self._check_tokens(getattr(embedding, "tokens", None))
        if (chunk := self.buf.push(embedding)) is not None:
            self.store.on_chunk(chunk)

    def _check_tokens(self, tokens) -> None:
        """A kept frame's tokens must be a nonempty 2-D array of real numbers
        of the first kept frame's shape, finite and at most MAX_TOKEN_ABS in
        magnitude; anything else is a PortOutputError."""
        if not (isinstance(tokens, np.ndarray) and tokens.ndim == 2 and tokens.size
                and tokens.dtype.kind in "iuf"):
            problem = f"tokens that are not a nonempty 2-D array of numbers: {tokens!r:.60}"
        elif self._token_shape not in (None, tokens.shape):
            problem = (f"token shape {tokens.shape}, where the first kept frame's "
                       f"is {self._token_shape}")
        elif not np.isfinite(tokens).all():
            problem = "non-finite token values"
        elif not (np.abs(tokens) <= MAX_TOKEN_ABS).all():
            problem = f"a token value over {MAX_TOKEN_ABS:.6g} in magnitude"
        else:
            self._token_shape = tokens.shape
            return
        raise PortOutputError(f"frame encoding failed: {problem}")

    def finish(self) -> None:
        """Flush the partial chunk at stream end and form it."""
        if (chunk := self.buf.flush()) is not None:
            self.store.on_chunk(chunk)

    def drain(self) -> None:
        """Form the answered turns in the inbox, oldest first; turns put
        meanwhile wait for the next drain."""
        for _ in range(len(self._inbox)):
            record = self._inbox.popleft()
            self.store.on_answer(record.question, record.answer)

    def answer(self, question: str, t_input: float, snapshot, now) -> AnswerRecord:
        """Encode the question, assemble its context from `snapshot`, digest
        the bundle and generate; an answered turn goes into the inbox, so a
        query never sees its own turn.  A failing port call is the answer's
        error; a port output of the wrong kind (a query vector that fails
        `check_text_vector`, an answer that is not a string) is raised.
        `now()` is the driver's clock: it is read when generation starts (or
        a port failed) and when the answer is done."""
        answer, digest, error = "", "", None
        try:
            q = call_port("query encoding", encode_query, question, self.ports.text_encoder)
            bundle = assemble_context(snapshot, q, self.mem_cfg)
            digest = bundle_digest(bundle)
            t_start = now()
            answer = call_port("generation", self.ports.generator, bundle)
            if not isinstance(answer, str):
                raise PortOutputError(f"generation failed: an answer that is not a "
                                      f"string: {answer!r:.60}")
        except PortOutputError:
            raise
        except BackendError as exc:
            error = str(exc)
            t_start = now()
        record = AnswerRecord(question, answer, t_input, t_start, now(),
                              t_start - t_input, digest, error)
        if error is None:
            with self._cond:
                # a turn put after the worker's last drain would never be formed
                if self._stopped:
                    raise InputError("engine stopped; no further queries accepted")
                self._inbox.append(record)
                self._cond.notify_all()
        return record

    def _report(self, duration: float, answers: list[AnswerRecord], mode: str) -> RunReport:
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

    # -- the worker ----------------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._origin

    def latest_snapshot(self):
        return self._snapshot  # swapped whole by the worker, never mutated

    def _publish(self) -> None:
        if self.store.version != self._snapshot.version:
            self._snapshot = self.store.snapshot()

    def _work(self, source) -> None:
        try:
            for frame in source:
                with self._cond:
                    self._progress = frame.timestamp
                    self._cond.notify_all()
                self.drain()
                self.feed(frame)
                self._publish()
                if self._stopped:
                    break
            self.finish()
            self._publish()
        except Exception as exc:
            self._error = exc
        finally:
            with self._cond:
                self._source_done.set()
                self._cond.notify_all()
        try:  # form the turns answered after intake ended, until stop
            while self._error is None:
                with self._cond:
                    self._cond.wait_for(lambda: self._inbox or self._stopped)
                    if not self._inbox:
                        return
                self.drain()
                self._publish()
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
        return self.answer(question, self._now(), self.latest_snapshot(), now=self._now)

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
        until it yields.  An engine that was never started forms its turns
        and publishes here."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
        else:
            self.drain()
            self._publish()
        if self._error is not None:
            raise self._error

    def report(self, answers: list[AnswerRecord]) -> RunReport:
        return self._report(self._now(), answers, "wall")


# ---------------------------------------------------------------------------
# the drivers


def run_sim(
    frames,
    queries: list[QueryRequest],
    mem_cfg: MemoryConfig,
    gate_cfg: GateConfig,
    ports: PortSet,
) -> RunReport:
    """Deterministic single-threaded replay: an engine that is never started,
    stepped on the caller's thread.

    Events are processed in timestamp order, frames before queries at equal
    timestamps, and the turns answered so far are formed before each event
    and at the end.  The final partial buffer is flushed after the last
    frame.  A query reads a snapshot taken just before it, and stream time
    stands still while it is answered: every answer is stamped with its own
    t_input.
    """
    for a, b in zip(queries, queries[1:]):
        if b.t_input < a.t_input:
            raise InputError("queries must be sorted by t_input")

    engine = Engine(mem_cfg, gate_cfg, ports)
    answers: list[AnswerRecord] = []
    first_t = last_t = None
    frame_iter = iter(frames)
    frame = next(frame_iter, None)
    qi = 0
    while frame is not None or qi < len(queries):
        engine.drain()
        if frame is not None and (qi == len(queries) or frame.timestamp <= queries[qi].t_input):
            first_t = frame.timestamp if first_t is None else first_t
            last_t = frame.timestamp
            engine.feed(frame)
            frame = next(frame_iter, None)
            if frame is None:
                engine.finish()
        else:
            req = queries[qi]
            qi += 1
            answers.append(engine.answer(req.question, req.t_input, engine.store.snapshot(),
                                         now=lambda: req.t_input))
    engine.drain()

    duration = float(last_t - first_t) if engine.frames_in else 0.0
    return engine._report(duration, answers, "sim")


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
