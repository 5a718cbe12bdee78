"""Motion-gated frame intake.

A single global Lucas-Kanade solve over the (optionally downsampled) frame
decides whether an incoming frame moved enough relative to the last kept
frame to be worth encoding.  Kept frames are encoded into vision embeddings
and accumulated in a bounded buffer that flushes fixed-length chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, check_numbers


@dataclass(frozen=True)
class Frame:
    """One grayscale frame with a timestamp and optional scene tags."""

    pixels: np.ndarray  # 2-D float array, intensities in [0, 1]
    timestamp: float
    tags: tuple[str, ...] = ()

    @staticmethod
    def from_pgm(path: str | Path, timestamp: float, tags: tuple[str, ...] = ()) -> "Frame":
        """Load an 8-bit PGM (P2 or P5) as intensities value/maxval."""
        try:
            pixels = _parse_pgm(Path(path).read_bytes())
        except OSError as exc:  # missing, unreadable, or a directory
            raise InputError(f"cannot read PGM {path}: {exc}") from exc
        except (ValueError, IndexError) as exc:
            raise InputError(f"cannot parse PGM {path}: {exc}") from exc
        return Frame(pixels=pixels, timestamp=timestamp, tags=tags)


def _parse_pgm(data: bytes) -> np.ndarray:
    # Tokenize the header, skipping '#' comment lines.
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    magic, width, height, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if width < 1 or height < 1:
        raise ValueError(f"dimensions {width} x {height} are not positive")
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"unsupported maxval {maxval}")
    if magic == b"P5":
        raw = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos + 1)
        grid = raw.reshape(height, width).astype(np.float64)
    elif magic == b"P2":  # int() of each sample: a sample like 1.5 is a ValueError
        values = np.array(data[pos:].split()[: width * height]).astype(np.int64)
        grid = values.reshape(height, width).astype(np.float64)
    else:
        raise ValueError(f"not a PGM magic: {magic!r}")
    if not ((grid >= 0) & (grid <= maxval)).all():
        raise ValueError(f"a sample lies outside 0..{maxval}")
    return grid / maxval


@dataclass(frozen=True)
class MotionEstimate:
    """Global displacement between two frames, in pixels/frame."""

    u: float
    v: float
    magnitude: float  # min(sqrt(u^2+v^2)/NORM_SCALE, 1); 0 when degenerate
    degenerate: bool


# The flow estimate's constants.  NORM_SCALE is not a setting: a frame is
# kept iff min(speed / NORM_SCALE, 1) > threshold_t, so it only rescales t.
NORM_SCALE = 3.0  # px/frame mapped to magnitude 1.0
SINGULAR_EPS = 1e-7  # relative determinant below which the solve is degenerate
DOWNSAMPLE_MAX_EDGE = 64  # frames are strided to at most this many pixels a side


@dataclass(frozen=True)
class GateConfig:
    threshold_t: float = 0.35

    def __post_init__(self):
        check_numbers(self)
        if not 0.0 <= self.threshold_t <= 1.0:
            raise InputError(f"threshold_t must be in [0,1], got {self.threshold_t}")


@dataclass(frozen=True)
class MotionReference:
    """What a motion solve needs of the earlier frame: its downsampled
    pixels, their central-difference gradients and the structure matrix
    (sxx, sxy; sxy, syy) they form.  Built once per reference frame."""

    shape: tuple[int, ...]  # the full frame's pixel shape
    stride: int
    pixels: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    sxx: float
    sxy: float
    syy: float

    @staticmethod
    def of(frame: Frame) -> "MotionReference":
        """The stride keeps both downsampled sides at 2 pixels or more, which
        central differences need."""
        short = min(frame.pixels.shape)
        if short < 2:
            raise InputError(f"a frame needs at least 2 x 2 pixels, got {frame.pixels.shape}")
        stride = max(1, min(math.ceil(max(frame.pixels.shape) / DOWNSAMPLE_MAX_EDGE), short - 1))
        p = frame.pixels[::stride, ::stride].astype(np.float64)
        iy, ix = np.gradient(p)
        return MotionReference(
            shape=frame.pixels.shape, stride=stride, pixels=p, ix=ix, iy=iy,
            sxx=float(np.sum(ix * ix)), sxy=float(np.sum(ix * iy)), syy=float(np.sum(iy * iy)),
        )

    def motion_to(self, cur: Frame) -> MotionEstimate:
        """Single-window Lucas-Kanade flow from this reference frame to `cur`
        over the whole (downsampled) frame: spatial gradients by central
        differences on the reference, temporal derivative cur - reference.  A
        near-singular structure matrix (flat frames) yields a degenerate
        estimate with magnitude 0."""
        if self.shape != cur.pixels.shape:
            raise InputError(f"frame size mismatch: {self.shape} vs {cur.pixels.shape}")
        sxx, sxy, syy = self.sxx, self.sxy, self.syy
        det = sxx * syy - sxy * sxy
        trace = sxx + syy
        if abs(det) < SINGULAR_EPS * (trace * trace + 1e-12):
            return MotionEstimate(u=0.0, v=0.0, magnitude=0.0, degenerate=True)

        it = cur.pixels[:: self.stride, :: self.stride].astype(np.float64) - self.pixels
        bx = float(-np.sum(self.ix * it))
        by = float(-np.sum(self.iy * it))
        u = (syy * bx - sxy * by) / det * self.stride
        v = (sxx * by - sxy * bx) / det * self.stride
        magnitude = min(math.hypot(u, v) / NORM_SCALE, 1.0)
        return MotionEstimate(u=u, v=v, magnitude=magnitude, degenerate=False)


@dataclass(frozen=True)
class GateDecision:
    kept: bool
    magnitude: float


class FrameGate:
    """Keeps the first frame, then keeps a frame iff motion against the last
    KEPT frame exceeds the threshold."""

    def __init__(self, cfg: GateConfig):
        self.cfg = cfg
        self._last_kept: MotionReference | None = None

    def update(self, cur: Frame) -> GateDecision:
        if self._last_kept is None:
            self._last_kept = MotionReference.of(cur)
            return GateDecision(kept=True, magnitude=1.0)
        est = self._last_kept.motion_to(cur)
        if est.magnitude > self.cfg.threshold_t:
            self._last_kept = MotionReference.of(cur)
            return GateDecision(kept=True, magnitude=est.magnitude)
        return GateDecision(kept=False, magnitude=est.magnitude)


@dataclass(frozen=True)
class VisionEmbedding:
    """n x d token matrix produced by the frame-encoder port."""

    tokens: np.ndarray
    source_timestamp: float
    source_tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Chunk:
    """A flushed buffer's worth of embeddings (the final chunk of a stream
    may be shorter than the configured length)."""

    embeddings: tuple[VisionEmbedding, ...]
    span: tuple[float, float]
    tags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.embeddings)


def make_chunk(embeddings: list[VisionEmbedding]) -> Chunk:
    if not embeddings:
        raise InputError("cannot build an empty chunk")
    tags = sorted({t for e in embeddings for t in e.source_tags})
    return Chunk(
        embeddings=tuple(embeddings),
        span=(embeddings[0].source_timestamp, embeddings[-1].source_timestamp),
        tags=tuple(tags),
    )


@dataclass
class VisionBuffer:
    """Bounded accumulation buffer; emits one chunk per `capacity` pushes."""

    capacity: int
    entries: list[VisionEmbedding] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity < 1:
            raise InputError("buffer capacity must be >= 1")

    def push(self, e: VisionEmbedding) -> Chunk | None:
        self.entries.append(e)
        if len(self.entries) >= self.capacity:
            chunk = make_chunk(self.entries)
            self.entries = []
            return chunk
        return None

    def flush(self) -> Chunk | None:
        """Emit whatever remains as a (possibly short) final chunk."""
        if not self.entries:
            return None
        chunk = make_chunk(self.entries)
        self.entries = []
        return chunk
