"""In-memory span tracing for the traced benchmark run.

The tracer wraps, from outside the program, the callables each streammem
layer exposes: the injected port objects and the module and class attributes
the pipeline calls.  Every call becomes one span: name, start, end, parent
span, thread and an optional number noted from the call (rows clustered, frame
kept, dialogue hit).  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans;
every ``busy_s`` and ``p50_us`` figure is self time, so the layers' busy
times add up without double counting.

A wrapped name that no longer exists is recorded in ``Tracer.missing``; the
metrics built on it are then reported missing by name, never as zero.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

_ABSENT = object()


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a span opened with no span open on its thread
    thread: int
    value: float | None  # number noted from the call, if any
    ok: bool  # False when the call raised


def _noted(note, args, result):
    # a note reads the program's return value; if its shape changed, the
    # metric built on it becomes missing instead of breaking the run
    try:
        return float(note(args, result))
    except Exception:
        return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.thread_names: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None, name_of=None):
        """Return a wrapper of `fn` that records one span per call and passes
        return values and exceptions through unchanged."""
        spans, ids, local, names = self.spans, self._ids, self._local, self.thread_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                thread = threading.get_ident()
                if thread not in names:
                    names[thread] = threading.current_thread().name
                value = _noted(note, args, result) if ok and note is not None else None
                span_name = name_of(args, name) if name_of is not None else name
                spans.append(Span(sid, span_name, start, end, parent, thread, value, ok))
            return result

        return traced

    def patch(self, name: str, owner, attr: str, note=None, name_of=None) -> None:
        """Replace `owner.attr` (module, class or instance attribute) with a
        traced wrapper until restore(); a missing attribute is recorded."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(name)
            return
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, self.wrap(name, fn, note, name_of))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# derived figures

SIM_ROOT = "pipeline.run_sim"
QUERY_ROOT = "pipeline.query"
# spans that make up one query inside run_sim, which has no query boundary
# of its own: a query starts at its snapshot read and runs through these; the
# dialogue write that follows is formation work, as it is in the Engine
SIM_QUERY_STEPS = frozenset({
    "retrieval.encode_query",
    "retrieval.assemble_context",
    "retrieval.bundle_digest",
    "ports.generator",
})


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its child spans."""
    child = defaultdict(float)
    for s in spans:
        if s.parent:
            child[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child[s.sid] for s in spans}


def query_ids(spans: list[Span]) -> dict[int, int]:
    """Span id -> query id for every span on a query path.

    A `pipeline.query` span (one `Engine.submit_query` call) opens a query.
    Inside `pipeline.run_sim` a query is the run of sibling spans that starts
    with a `memory_core.snapshot` read.  Descendants inherit the id.
    """
    qid: dict[int, int] = {}
    roots = {s.sid for s in spans if s.name == SIM_ROOT}
    n = 0
    current = None
    for s in sorted((s for s in spans if s.parent in roots), key=lambda s: s.start):
        if s.name == "memory_core.snapshot":
            current, n = n, n + 1
        elif s.name not in SIM_QUERY_STEPS:
            current = None
        if current is not None:
            qid[s.sid] = current
    for s in sorted(spans, key=lambda s: s.sid):  # parents open before children
        if s.name == QUERY_ROOT:
            qid[s.sid], n = n, n + 1
        elif s.sid not in qid and s.parent in qid:
            qid[s.sid] = qid[s.parent]
    return qid


def query_starts(spans: list[Span], qid: dict[int, int]) -> list[float]:
    """Start time of each query, in query-id order."""
    first: dict[int, float] = {}
    for s in spans:
        q = qid.get(s.sid)
        if q is not None and (q not in first or s.start < first[q]):
            first[q] = s.start
    return [first[q] for q in sorted(first)]


# span names reported as <name>.calls and <name>.busy_s
COUNTED = (
    "frame_gate.update",
    "ports.frame_encoder",
    "ports.text_encoder",
    "ports.generator",
    "ports.remote.embed",
    "ports.remote.caption",
    "ports.remote.generate",
    "memory_core.kmeans",
    "memory_core.make_unit",
    "memory_core.tree_append",
    "memory_core.snapshot",
    "memory_core.dialogue_append",
    "retrieval.encode_query",
    "retrieval.descend_tree",
    "retrieval.retrieve_dialogue",
    "retrieval.assemble_context",
    "retrieval.bundle_digest",
)
RETRIEVAL = tuple(n for n in COUNTED if n.startswith("retrieval."))
INTAKE_STEPS = ("frame_gate.update", "ports.frame_encoder", "frame_gate.buffer_push")
FORMATION_STEPS = ("memory_core.on_chunk", "memory_core.dialogue_append", "memory_core.snapshot")

# metric -> wrapped names it is built from, beyond its own prefix
DEPENDS = {
    "frame_gate.kept_ratio": ("frame_gate.update",),
    "memory_core.parent_build_yield": ("ports.captioner.summarize",),
    "retrieval.dialogue_hit_ratio": ("retrieval.retrieve_dialogue",),
    "ports.captioner.busy_s": ("ports.captioner.caption_chunk", "ports.captioner.summarize"),
    "ports.remote.retries": ("ports.remote",),
    "pipeline.intake.backpressure_s": INTAKE_STEPS,
    "pipeline.formation.busy_s": FORMATION_STEPS,
    "pipeline.formation.idle_s": FORMATION_STEPS,
    "pipeline.query_wait_ms": ("memory_core.snapshot",),
}

UNITS = {"calls": "count", "busy_s": "s", "p50_us": "us", "rows": "count"}


def metric_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith("_ratio") or last.endswith("_yield") or last == "span_coverage":
        return "ratio"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    return "count"


def is_missing(metric: str, missing) -> bool:
    needs = DEPENDS.get(metric, ())
    return any(metric.startswith(m + ".") or m in needs for m in missing)


def layer_metrics(tracer: Tracer, phase: dict) -> dict[str, float | None]:
    """Per-layer figures of one traced repetition; None marks a metric whose
    wrapped name is missing.

    `phase` holds what the workload measured around the layers: `wall` (s),
    `handed` and `resumed` (source hand-over and resume times), `intake_thread`,
    `due` (query due times), `tree_levels`, `dialogue_turns` and
    `remote_attempts`.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(*names):
        return sum(selfs[s.sid] for n in names for s in by_name[n])

    out: dict[str, float | None] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = float(len(by_name[name]))
        out[f"{name}.busy_s"] = busy(name)
    for name in RETRIEVAL:
        own = [selfs[s.sid] for s in by_name[name]]
        out[f"{name}.p50_us"] = statistics.median(own) * 1e6 if own else 0.0

    def noted_sum(name):
        values = [s.value for s in by_name[name]]
        return None if None in values else sum(values)

    def ratio(num, den):
        return None if num is None else (num / den if den else 0.0)

    gate = by_name["frame_gate.update"]
    out["frame_gate.kept_ratio"] = ratio(noted_sum("frame_gate.update"), len(gate))
    out["memory_core.kmeans.rows"] = noted_sum("memory_core.kmeans")
    dialogue = by_name["retrieval.retrieve_dialogue"]
    out["retrieval.dialogue_hit_ratio"] = ratio(noted_sum("retrieval.retrieve_dialogue"),
                                                len(dialogue))
    captions = by_name["ports.captioner.caption_chunk"]
    summaries = by_name["ports.captioner.summarize"]
    out["ports.captioner.caption_chunk.calls"] = float(len(captions))
    out["ports.captioner.summarize.calls"] = float(len(summaries))
    out["ports.captioner.busy_s"] = busy("ports.captioner.caption_chunk",
                                         "ports.captioner.summarize")

    levels = phase.get("tree_levels", [])
    out["memory_core.tree_units"] = float(sum(levels))
    out["memory_core.dialogue_turns"] = float(phase.get("dialogue_turns", 0))
    out["memory_core.parent_build_yield"] = ratio(float(sum(levels[1:])), len(summaries))

    attempts = phase.get("remote_attempts", 0)
    client_calls = sum(len(by_name[f"ports.remote.{e}"]) for e in ("embed", "caption",
                                                                   "generate", "judge"))
    out["ports.remote.attempts"] = float(attempts)
    out["ports.remote.retries"] = float(attempts - client_calls) if attempts else 0.0

    roots = {s.sid for s in spans if s.name == SIM_ROOT}

    def top_level(s):
        return s.parent == 0 or s.parent in roots

    handed, resumed = phase.get("handed", []), phase.get("resumed", [])
    intake_busy = sum(r - h for h, r in zip(handed, resumed))
    intake = phase.get("intake_thread")
    intake_work = sum(s.end - s.start for n in INTAKE_STEPS for s in by_name[n]
                      if s.thread == intake and top_level(s))
    out["pipeline.intake.busy_s"] = intake_busy
    out["pipeline.intake.backpressure_s"] = intake_busy - intake_work

    qid = query_ids(spans)
    formation = sum(s.end - s.start for n in FORMATION_STEPS for s in by_name[n]
                    if top_level(s) and s.sid not in qid)
    out["pipeline.formation.busy_s"] = formation
    out["pipeline.formation.idle_s"] = max(0.0, phase["wall"] - formation)

    starts = query_starts(spans, qid)
    waits = [(start - due) * 1e3 for start, due in zip(starts, phase.get("due", []))]
    out["pipeline.query_wait_ms"] = statistics.median(waits) if waits else 0.0

    root_spans = [s for s in spans if s.name in (SIM_ROOT, QUERY_ROOT)]
    total = sum(s.end - s.start for s in root_spans)
    covered = sum((s.end - s.start) - selfs[s.sid] for s in root_spans)
    out["trace.span_coverage"] = covered / total if total else 0.0
    out["trace.spans"] = float(len(spans))

    for metric in out:
        if is_missing(metric, tracer.missing):
            out[metric] = None
    return out
