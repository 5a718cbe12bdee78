"""Model ports and their deterministic stubs.

Four model components (frame encoder, text encoder, captioner, generator)
plus a judge are pluggable.  The stubs are engineered so retrieval behaviour
is testable end-to-end with no ML runtime: text encoding is signed feature
hashing, captions are tag unions, generation echoes the retrieved context.
A minimal JSON-over-HTTP client lets real models replace the stubs.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import re
import select
import threading
import time
import weakref
from dataclasses import dataclass
from urllib.parse import urlsplit

import numpy as np

from .errors import BackendError, InputError, ProtocolError, check_numbers
from .frame_gate import Chunk, Frame, VisionEmbedding
from .retrieval import bundle_to_json

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# stub text embedding width: at 256 buckets, query words alias with tag
# words often enough to send tree descent down the wrong branch
TEXT_DIM = 512

# judge scores run 0..MAX_SCORE; an answer passes (verdict yes) at PASS_SCORE or above
MAX_SCORE = 5
PASS_SCORE = 3


def _tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def hash_text_encode(text: str, dim: int = TEXT_DIM) -> np.ndarray:
    """Signed feature hashing of whitespace/punctuation-split tokens into
    `dim` buckets, normalized to unit length.  Empty text -> zero vector."""
    if dim < 8:
        raise InputError("embedding dim must be >= 8")
    vec = np.zeros(dim, dtype=np.float64)
    for token in _tokenize(text):
        digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        # two independent (bucket, sign) pairs per token: a pair of tokens
        # only aliases if both bucket/sign pairs coincide (~1/dim^2), so a
        # single hash collision cannot make unrelated texts look identical
        low, high = value & 0xFFFFFFFF, value >> 32
        vec[low % dim] += 1.0 if (low >> 31) & 1 else -1.0
        vec[high % dim] += 1.0 if (high >> 31) & 1 else -1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


class StubTextEncoder:
    def __init__(self, dim: int = TEXT_DIM):
        self.dim = dim

    def __call__(self, text: str) -> np.ndarray:
        return hash_text_encode(text, self.dim)


class StubFrameEncoder:
    """Token row j is a seeded normal vector keyed by (tags, coarse 4x4
    intensity histogram, j).  Quantizing the histogram makes near-equal
    frames encode identically."""

    HIST_LEVELS = 8  # quantization levels of each histogram cell's mean

    def __init__(self, n: int = 4, d: int = 32):
        self.n = n
        self.d = d

    def _histogram_key(self, pixels: np.ndarray) -> bytes:
        """The means of a 4x4 grid of cells, cell (i, j) spanning rows
        i*h//4 to (i+1)*h//4 and likewise columns, each quantized to
        HIST_LEVELS levels, rounding half to even."""
        h, w = pixels.shape
        if h < 4 or w < 4:
            raise InputError(f"a {h}x{w} frame has empty histogram cells")
        rows, cols = np.arange(5) * h // 4, np.arange(5) * w // 4
        sums = np.add.reduceat(np.add.reduceat(pixels, rows[:4], axis=0), cols[:4], axis=1)
        levels = sums / np.outer(np.diff(rows), np.diff(cols)) * (self.HIST_LEVELS - 1)
        # these sums run in another order than block.mean()'s, so a level can
        # differ from its block's in the last bits; that changes the rounding
        # only next to a half, where the block's own mean is taken (1e-6
        # exceeds the difference for any cell of under 10^9 pixels)
        for i, j in np.argwhere(np.abs(levels % 1 - 0.5) < 1e-6):
            block = pixels[rows[i] : rows[i + 1], cols[j] : cols[j + 1]]
            levels[i, j] = float(block.mean()) * (self.HIST_LEVELS - 1)
        return bytes(round(level) for level in levels.ravel().tolist())

    def __call__(self, frame: Frame) -> VisionEmbedding:
        key_base = repr(frame.tags).encode() + self._histogram_key(frame.pixels)
        rows = []
        for j in range(self.n):
            digest = hashlib.blake2b(key_base + bytes([j]), digest_size=8).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            row = rng.standard_normal(self.d)
            rows.append(row / np.linalg.norm(row))
        return VisionEmbedding(
            tokens=np.array(rows),
            source_timestamp=frame.timestamp,
            source_tags=frame.tags,
        )


class TagCaptioner:
    """Caption = sorted, deduplicated union of scene tags, comma-separated
    ("garden, harbor").  A caption carries no shared prefix: a word common
    to every caption would score against every question and favour the
    captions with fewest tags."""

    def caption_chunk(self, chunk: Chunk) -> str:
        return self._format(set(chunk.tags))

    def summarize(self, captions: list[str]) -> str:
        tags: set[str] = set()
        for caption in captions:
            tags.update(t.strip() for t in caption.split(",") if t.strip())
        tags.discard("unknown")
        return self._format(tags)

    def _format(self, tags: set[str]) -> str:
        return ", ".join(sorted(tags)) if tags else "unknown"


class EchoGenerator:
    """Answers by echoing the best tree caption and any recalled turn, which
    makes end-to-end answer content assertable in tests."""

    def __call__(self, bundle) -> str:
        parts = []
        if bundle.path is not None and bundle.path.best_caption:
            parts.append(bundle.path.best_caption)
        if bundle.dialogue_context is not None:
            q, a = bundle.dialogue_context
            parts.append(f"(recalling: {q} -> {a})")
        if not parts:
            parts.append("no visual memory yet")
        return " | ".join(parts)


def exact_match_judge(question: str, reference: str, prediction: str) -> tuple[str, int]:
    """Token-set F1 mapped to a 0..MAX_SCORE score (round-half-to-even); verdict yes
    iff score >= PASS_SCORE."""
    ref = set(_tokenize(reference))
    pred = set(_tokenize(prediction))
    if not ref or not pred:
        f1 = 1.0 if ref == pred else 0.0
    else:
        overlap = len(ref & pred)
        if overlap == 0:
            f1 = 0.0
        else:
            precision = overlap / len(pred)
            recall = overlap / len(ref)
            f1 = 2 * precision * recall / (precision + recall)
    score = round(MAX_SCORE * f1)
    return ("yes" if score >= PASS_SCORE else "no", score)


@dataclass
class PortSet:
    frame_encoder: object  # Frame -> VisionEmbedding
    text_encoder: object  # str -> np.ndarray
    captioner: object  # caption_chunk / summarize
    generator: object  # PromptBundle -> str
    judge: object  # (question, reference, prediction) -> (verdict, score)


def stub_ports() -> PortSet:
    return PortSet(
        frame_encoder=StubFrameEncoder(),
        text_encoder=StubTextEncoder(),
        captioner=TagCaptioner(),
        generator=EchoGenerator(),
        judge=exact_match_judge,
    )


# ---------------------------------------------------------------------------
# remote backend


# tries per call, the first included, and the wait before the first retry,
# which doubles before each further one: 0.5 s, then 1 s
ATTEMPTS = 3
BACKOFF_BASE = 0.5


@dataclass(frozen=True)
class RemoteBackendConfig:
    base_url: str
    timeout: float = 10.0

    def __post_init__(self):
        check_numbers(self)
        if self.timeout <= 0:
            raise InputError("timeout must be positive")
        try:
            url = urlsplit(self.base_url)
            url.port  # raises ValueError unless the port is a number in 0..65535
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad remote url {self.base_url!r:.80}: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname:
            raise InputError(f"remote url must be http:// or https:// with a host, "
                             f"got {self.base_url!r:.80}")


class RemoteClient:
    """POSTs JSON payloads to base_url/{endpoint}, retrying with exponential
    backoff, and sends `Authorization: Bearer $STREAMMEM_API_KEY` when that is
    set.  Each calling thread keeps its own connection alive, opened at its
    first call: one HTTPConnection shared by two threads mixes their calls."""

    ENDPOINTS = ("embed", "caption", "generate", "judge")

    def __init__(self, cfg: RemoteBackendConfig):
        self.cfg = cfg
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []  # closed with the client

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            url = urlsplit(self.cfg.base_url)
            https = url.scheme == "https"
            kind = http.client.HTTPSConnection if https else http.client.HTTPConnection
            conn = self._local.conn = kind(url.hostname, url.port, timeout=self.cfg.timeout)
            self._opened.append(conn)
            if self._opened[0] is conn:  # exactly one thread opens the first
                weakref.finalize(self, _close_all, self._opened)
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            # an idle connection is readable only once the server has closed
            # it: reconnect now rather than spend an attempt and a backoff
            conn.close()
        return conn

    def call(self, endpoint: str, payload: dict) -> dict:
        if endpoint not in self.ENDPOINTS:
            raise InputError(f"unknown endpoint {endpoint!r}")
        try:
            # bytes, so http.client sends headers and body in one send
            body = json.dumps(payload, allow_nan=False).encode()
        except (TypeError, ValueError) as exc:
            raise BackendError(f"{endpoint} payload is not valid JSON: {exc}",
                               endpoint=endpoint, attempts=0) from exc
        headers = {"Content-Type": "application/json"}
        key = os.environ.get("STREAMMEM_API_KEY")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        path = urlsplit(self.cfg.base_url).path.rstrip("/") + "/" + endpoint
        last_error = None
        for attempt in range(ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_BASE * 2 ** (attempt - 1))
            conn = self._connection()
            try:
                conn.request("POST", path, body, headers)
                resp = conn.getresponse()
                data = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if not 200 <= resp.status < 300:
                last_error = f"HTTP {resp.status}"
                continue
            try:
                reply = json.loads(data)
            except ValueError as exc:
                raise ProtocolError(f"non-JSON response from {endpoint}",
                                    endpoint=endpoint) from exc
            if not isinstance(reply, dict):
                raise ProtocolError(f"{endpoint} response is not a JSON object", endpoint=endpoint)
            return reply
        raise BackendError(
            f"{endpoint} failed after {ATTEMPTS} attempts: {last_error}",
            endpoint=endpoint,
            attempts=ATTEMPTS,
        )


def _close_all(connections: list) -> None:
    for conn in connections:
        conn.close()


def _require(payload: dict, key: str, endpoint: str, kind: type = object):
    if key not in payload:
        raise ProtocolError(f"missing field {key!r} in {endpoint} response", endpoint=endpoint)
    if not isinstance(payload[key], kind):
        raise ProtocolError(
            f"field {key!r} in {endpoint} response is not a {kind.__name__}", endpoint=endpoint
        )
    return payload[key]


def _is_number(x) -> bool:
    # not errors.require_number, whose numbers.Real check costs about 1 us more
    # a call: this runs on every element of each embed reply, on the query path
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class RemoteTextEncoder:
    def __init__(self, client: RemoteClient):
        self.client = client

    def __call__(self, text: str) -> np.ndarray:
        reply = self.client.call("embed", {"texts": [text]})
        vectors = _require(reply, "vectors", "embed", list)
        if not (
            vectors
            and all(isinstance(v, list) and v and len(v) == len(vectors[0]) for v in vectors)
            and all(_is_number(x) for v in vectors for x in v)
        ):
            raise ProtocolError(
                "vectors in embed response must be a non-empty list of equal-length, "
                "non-empty lists of finite numbers",
                endpoint="embed",
            )
        return np.asarray(vectors[0], dtype=np.float64)


class RemoteCaptioner:
    def __init__(self, client: RemoteClient):
        self.client = client

    def caption_chunk(self, chunk: Chunk) -> str:
        reply = self.client.call("caption", {"captions": [], "tags": list(chunk.tags)})
        return _require(reply, "caption", "caption", str)

    def summarize(self, captions: list[str]) -> str:
        reply = self.client.call("caption", {"captions": list(captions), "tags": []})
        return _require(reply, "caption", "caption", str)


class RemoteGenerator:
    def __init__(self, client: RemoteClient):
        self.client = client

    def __call__(self, bundle) -> str:
        reply = self.client.call("generate", {"bundle": bundle_to_json(bundle)})
        return _require(reply, "text", "generate", str)


class RemoteJudge:
    def __init__(self, client: RemoteClient):
        self.client = client

    def __call__(self, question: str, reference: str, prediction: str) -> tuple[str, int]:
        reply = self.client.call(
            "judge",
            {"question": question, "reference": reference, "prediction": prediction},
        )
        verdict = _require(reply, "verdict", "judge")
        score = _require(reply, "score", "judge")
        if verdict not in ("yes", "no"):
            raise ProtocolError(f"judge verdict must be 'yes' or 'no', got {verdict!r:.40}",
                                endpoint="judge")
        if isinstance(score, bool) or not isinstance(score, int) or not 0 <= score <= MAX_SCORE:
            raise ProtocolError(f"judge score must be an integer in 0..{MAX_SCORE}, "
                                f"got {score!r:.40}", endpoint="judge")
        return (verdict, score)


def remote_ports(cfg: RemoteBackendConfig) -> PortSet:
    """Remote text/caption/generate/judge; the frame encoder stays a local
    stub since the wire protocol carries no pixel endpoint."""
    client = RemoteClient(cfg)
    return PortSet(
        frame_encoder=StubFrameEncoder(),
        text_encoder=RemoteTextEncoder(client),
        captioner=RemoteCaptioner(client),
        generator=RemoteGenerator(client),
        judge=RemoteJudge(client),
    )
