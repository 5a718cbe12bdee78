"""The three memory structures: short-term sampled embeddings, the long-memory
tree of clustered+captioned chunks, and encoded dialogue history.

All mutation happens in the single memory-formation stage; readers work from
immutable snapshots.  Tree nodes are never mutated in place: an in-progress
trailing parent is replaced by a freshly built node, so a snapshot's tuple of
node references stays valid forever.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, require_finite
from .frame_gate import Chunk, VisionEmbedding

__all__ = [
    "MemoryConfig",
    "PRESETS",
    "ShortTermMemory",
    "TreeNode",
    "MemoryTree",
    "DialogueEntry",
    "DialogueMemory",
    "MemorySnapshot",
    "MemoryStore",
    "forgetting_weights",
    "refresh_short_term",
    "kmeans",
    "KMeansResult",
    "make_unit",
    "derive_seed",
    "Chunk",
]


@dataclass(frozen=True)
class MemoryConfig:
    threshold_t: float = 0.35
    chunk_len_L: int = 25
    group_size_g: int = 10
    cluster_goal_C: int = 5
    short_len_S: int = 5
    candidate_len_N: int = 20
    forgetting_scale_s: float = 1.0
    rng_seed: int = 0
    min_dialogue_sim: float = 0.35

    def __post_init__(self):
        require_finite(self)
        if self.chunk_len_L < 1:
            raise InputError("chunk_len_L must be >= 1")
        if self.group_size_g < 2:
            raise InputError("group_size_g must be >= 2")
        if self.cluster_goal_C < 1:
            raise InputError("cluster_goal_C must be >= 1")
        if not 1 <= self.short_len_S <= self.candidate_len_N:
            raise InputError("need 1 <= short_len_S <= candidate_len_N")
        if self.forgetting_scale_s <= 0:
            raise InputError("forgetting_scale_s must be positive")


# (t, L, g, C) per published configuration table.
PRESETS: dict[str, MemoryConfig] = {
    "slow": MemoryConfig(threshold_t=0.13, chunk_len_L=35, group_size_g=15, cluster_goal_C=5),
    "base": MemoryConfig(threshold_t=0.35, chunk_len_L=25, group_size_g=10, cluster_goal_C=5),
    "fast": MemoryConfig(threshold_t=0.58, chunk_len_L=30, group_size_g=15, cluster_goal_C=5),
}


def derive_seed(root_seed: int, label: str, index: int) -> int:
    """Stable sub-seed independent of process hash randomization."""
    digest = hashlib.blake2b(
        f"{root_seed}:{label}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# short-term memory


def forgetting_weights(n: int, scale_s: float) -> np.ndarray:
    """Exponential-decay weights over ages 0..n-1 (newest first), sum 1."""
    if n < 1:
        raise InputError("need n >= 1 candidates")
    if scale_s <= 0:
        raise InputError("scale must be positive")
    raw = np.exp(-np.arange(n) / scale_s)
    return raw / raw.sum()


@dataclass(frozen=True)
class ShortTermMemory:
    units: tuple[VisionEmbedding, ...]


def refresh_short_term(
    recent: list[VisionEmbedding],
    cfg: MemoryConfig,
    rng: np.random.Generator,
) -> ShortTermMemory:
    """Sample min(S, |recent|) embeddings without replacement, pick probability
    proportional to the forgetting weight of each age.  `recent` is newest-last.
    """
    if not recent:
        return ShortTermMemory(units=())
    pool = list(recent[-cfg.candidate_len_N :])
    weights = forgetting_weights(len(pool), cfg.forgetting_scale_s)
    # ages run newest=0; pool is newest-last, so reverse the weight vector.
    probs = weights[::-1].copy()
    size = min(cfg.short_len_S, len(pool))
    chosen: list[int] = []
    available = list(range(len(pool)))
    p = probs.copy()
    for _ in range(size):
        pick = int(rng.choice(len(available), p=p / p.sum()))
        chosen.append(available[pick])
        del available[pick]
        p = np.delete(p, pick)
    chosen.sort()  # chronological order
    return ShortTermMemory(units=tuple(pool[i] for i in chosen))


# ---------------------------------------------------------------------------
# k-means


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # k' x d
    labels: np.ndarray  # m, indices into centroids
    objective: float
    objective_history: tuple[float, ...]  # per Lloyd iteration, non-increasing


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int):
    m = points.shape[0]
    # k-means++ seeding
    first = int(rng.integers(m))
    centroids = [points[first]]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centroids.append(points[idx])
        d2 = np.minimum(d2, np.sum((points - centroids[-1]) ** 2, axis=1))
    centers = np.array(centroids)

    labels = np.zeros(m, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iter):
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        # update step with empty-cluster reseed to the farthest point
        new_centers = centers.copy()
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                new_centers[c] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(np.min(dists, axis=1)))
                new_centers[c] = points[far]
                new_labels[far] = c
        dists = np.sum((points[:, None, :] - new_centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        obj = float(dists[np.arange(m), new_labels].sum())
        history.append(obj)
        stable = np.array_equal(new_labels, labels)
        centers, labels = new_centers, new_labels
        if stable:
            break
    return centers, labels, history[-1], history


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 50,
    n_init: int = 8,
) -> KMeansResult:
    """Seeded Lloyd's with k-means++ initialization, best of `n_init` restarts.

    Points are canonicalized (lexicographically sorted) before seeding so the
    result is invariant under input row permutation for a fixed seed.
    k is clamped to the number of distinct points; fully deterministic.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[0] < 1 or k < 1:
        raise InputError("need at least one point and k >= 1")
    if not np.isfinite(points).all():
        raise InputError("non-finite values in clustering input")

    order = np.lexsort(points.T[::-1])  # canonical row order
    canon = points[order]
    distinct = np.unique(canon, axis=0)
    k_eff = min(k, distinct.shape[0])

    if k_eff == distinct.shape[0]:
        # one centroid per distinct point: exact, objective only from duplicates
        centers = distinct
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(dists, axis=1)
        obj = float(dists[np.arange(points.shape[0]), labels].sum())
        return KMeansResult(centers, labels, obj, (obj,))

    best = None
    for trial in range(n_init):
        rng = np.random.default_rng(derive_seed(seed, "kmeans-init", trial))
        centers, labels_c, obj, history = _kmeans_once(canon, k_eff, rng, max_iter)
        if best is None or obj < best[2] - 1e-12:
            best = (centers, labels_c, obj, history)
    centers, labels_c, obj, history = best
    labels = np.empty(points.shape[0], dtype=np.int64)
    labels[order] = labels_c
    return KMeansResult(centers, labels, obj, tuple(history))


# ---------------------------------------------------------------------------
# long-memory tree


@dataclass(frozen=True)
class TreeNode:
    """One memory unit: cluster centroids plus a caption that indexes them.

    Level-0 nodes summarize one chunk; higher nodes summarize `g` consecutive
    children ([child_start, child_end) in the level below).
    """

    centroids: np.ndarray  # k' x d
    caption: str
    caption_vec: np.ndarray
    span: tuple[float, float]
    level: int
    child_start: int = 0
    child_end: int = 0


def make_unit(
    chunk: Chunk,
    cfg: MemoryConfig,
    chunk_index: int,
    captioner,
    text_encoder,
) -> TreeNode:
    """Cluster a chunk's token rows and caption it, yielding a basic node."""
    if len(chunk) == 0:
        raise InputError("cannot build a unit from an empty chunk")
    points = np.vstack([e.tokens for e in chunk.embeddings])
    result = kmeans(points, cfg.cluster_goal_C, derive_seed(cfg.rng_seed, "chunk", chunk_index))
    try:
        caption = captioner.caption_chunk(chunk)
        caption_vec = text_encoder(caption)
    except Exception as exc:
        from .errors import BackendError

        raise BackendError(
            f"captioning failed for chunk span {chunk.span}: {exc}", span=chunk.span
        ) from exc
    return TreeNode(
        centroids=result.centroids,
        caption=caption,
        caption_vec=np.asarray(caption_vec, dtype=np.float64),
        span=chunk.span,
        level=0,
    )


TreeView = tuple[tuple[TreeNode, ...], ...]


class MemoryTree:
    """Chronological g-ary grouping of memory units.

    A level k+1 is materialized only while level k holds more than g nodes,
    so the topmost materialized level always has <= g nodes and is scanned
    as the virtual root's children during retrieval.
    """

    def __init__(self, cfg: MemoryConfig):
        self.cfg = cfg
        self.levels: list[list[TreeNode]] = [[]]
        self._parent_counter = 0

    def __len__(self) -> int:
        return len(self.levels[0])

    def append(self, unit: TreeNode, captioner, text_encoder) -> None:
        if unit.level != 0:
            raise InputError("only level-0 units can be appended")
        if self.levels[0] and unit.span[0] < self.levels[0][-1].span[1]:
            raise InputError("units must arrive in chronological order")
        self.levels[0].append(unit)
        g = self.cfg.group_size_g
        level = 0
        while len(self.levels[level]) > g:
            if level + 1 >= len(self.levels):
                self.levels.append([])
            children = self.levels[level]
            parents = self.levels[level + 1]
            needed = math.ceil(len(children) / g)
            # drop the stale trailing (partial) parent, if any
            if parents and parents[-1].child_start >= (needed - 1) * g:
                parents.pop()
            while len(parents) < needed:
                idx = len(parents)
                start, end = idx * g, min((idx + 1) * g, len(children))
                parents.append(
                    self._build_parent(children[start:end], level + 1, start, end,
                                       captioner, text_encoder)
                )
            level += 1

    def _build_parent(self, children, level, start, end, captioner, text_encoder):
        points = np.vstack([c.centroids for c in children])
        seed = derive_seed(self.cfg.rng_seed, f"parent-l{level}", self._parent_counter)
        self._parent_counter += 1
        result = kmeans(points, self.cfg.cluster_goal_C, seed)
        caption = captioner.summarize([c.caption for c in children])
        caption_vec = np.asarray(text_encoder(caption), dtype=np.float64)
        return TreeNode(
            centroids=result.centroids,
            caption=caption,
            caption_vec=caption_vec,
            span=(min(c.span[0] for c in children), max(c.span[1] for c in children)),
            level=level,
            child_start=start,
            child_end=end,
        )

    def view(self) -> TreeView:
        return tuple(tuple(level) for level in self.levels if level)

    def level_sizes(self) -> list[int]:
        return [len(level) for level in self.levels if level]


def tree_view_to_json(view: TreeView) -> dict:
    return {
        "levels": [
            [
                {
                    "centroids": node.centroids.tolist(),
                    "caption": node.caption,
                    "caption_vec": node.caption_vec.tolist(),
                    "span": list(node.span),
                    "level": node.level,
                    "child_start": node.child_start,
                    "child_end": node.child_end,
                }
                for node in level
            ]
            for level in view
        ],
    }


def check_tree_invariants(view: TreeView, g: int) -> None:
    """Raise AssertionError if the view violates the tree shape contract."""
    if not view:
        return
    for k, level in enumerate(view):
        assert level, f"empty materialized level {k}"
        for i in range(1, len(level)):
            assert level[i].span[0] >= level[i - 1].span[1] - 1e-12, (
                f"level {k} not chronological at index {i}"
            )
        if k + 1 < len(view):
            parents = view[k + 1]
            assert len(parents) == math.ceil(len(level) / g), (
                f"level {k + 1} size {len(parents)} != ceil({len(level)}/{g})"
            )
            for j, parent in enumerate(parents):
                assert parent.child_start == j * g
                assert parent.child_end == min((j + 1) * g, len(level))
                kids = level[parent.child_start : parent.child_end]
                assert parent.span == (
                    min(c.span[0] for c in kids),
                    max(c.span[1] for c in kids),
                ), f"parent span mismatch at level {k + 1} index {j}"
    assert len(view[-1]) <= g, "topmost materialized level exceeds group size"


# ---------------------------------------------------------------------------
# dialogue memory


@dataclass(frozen=True)
class DialogueEntry:
    question: str
    answer: str
    vec: np.ndarray
    turn_index: int
    timestamp: float


@dataclass
class DialogueMemory:
    entries: list[DialogueEntry] = field(default_factory=list)

    def append(self, question: str, answer: str, text_encoder, timestamp: float) -> DialogueEntry:
        if not question:
            raise InputError("dialogue question must be nonempty")
        try:
            vec = np.asarray(text_encoder(f"Q: {question} A: {answer}"), dtype=np.float64)
        except Exception as exc:
            from .errors import BackendError

            raise BackendError(f"dialogue encoding failed: {exc}") from exc
        entry = DialogueEntry(
            question=question,
            answer=answer,
            vec=vec,
            turn_index=len(self.entries),
            timestamp=timestamp,
        )
        self.entries.append(entry)
        return entry


# ---------------------------------------------------------------------------
# snapshots and the store


@dataclass(frozen=True)
class MemorySnapshot:
    """Immutable, internally consistent view of all three memories."""

    version: int
    short_term: tuple[VisionEmbedding, ...]
    tree: TreeView
    dialogue: tuple[DialogueEntry, ...]

    def check(self, g: int) -> None:
        check_tree_invariants(self.tree, g)
        for i, entry in enumerate(self.dialogue):
            assert entry.turn_index == i, "dialogue turn indices not contiguous"


class MemoryStore:
    """Single-writer owner of all three memories.

    Only the memory-formation stage calls the mutators; everyone else reads
    via snapshot().
    """

    def __init__(self, cfg: MemoryConfig, captioner, text_encoder):
        self.cfg = cfg
        self.captioner = captioner
        self.text_encoder = text_encoder
        self.tree = MemoryTree(cfg)
        self.short = ShortTermMemory(units=())
        self.dialogue = DialogueMemory()
        self.recent: deque[VisionEmbedding] = deque(maxlen=cfg.candidate_len_N)
        self.version = 0
        self._chunk_index = 0
        self._refresh_count = 0

    def on_chunk(self, chunk: Chunk) -> None:
        self.recent.extend(chunk.embeddings)
        unit = make_unit(chunk, self.cfg, self._chunk_index, self.captioner, self.text_encoder)
        self._chunk_index += 1
        self.tree.append(unit, self.captioner, self.text_encoder)
        rng = np.random.default_rng(
            derive_seed(self.cfg.rng_seed, "short-refresh", self._refresh_count)
        )
        self._refresh_count += 1
        self.short = refresh_short_term(list(self.recent), self.cfg, rng)
        self.version += 1

    def on_answer(self, question: str, answer: str, timestamp: float) -> None:
        self.dialogue.append(question, answer, self.text_encoder, timestamp)
        self.version += 1

    def snapshot(self) -> MemorySnapshot:
        return MemorySnapshot(
            version=self.version,
            short_term=self.short.units,
            tree=self.tree.view(),
            dialogue=tuple(self.dialogue.entries),
        )
