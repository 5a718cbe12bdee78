"""The three memory structures: short-term sampled embeddings, the long-memory
tree of clustered+captioned chunks, and encoded dialogue history.

All mutation happens in the single memory-formation stage; readers work from
immutable snapshots.  Tree nodes are never mutated in place: an in-progress
trailing parent is replaced by a freshly built node, so a snapshot's tuple of
node references stays valid forever.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BackendError, InputError, call_port, check_numbers
from .frame_gate import Chunk, VisionEmbedding


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
        check_numbers(self)
        if not 0.0 <= self.threshold_t <= 1.0:
            raise InputError(f"threshold_t must be in [0,1], got {self.threshold_t}")
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


def refresh_short_term(
    recent: list[VisionEmbedding],
    cfg: MemoryConfig,
    rng: np.random.Generator,
) -> tuple[VisionEmbedding, ...]:
    """Sample min(S, |recent|) embeddings without replacement, pick probability
    proportional to the forgetting weight of each age.  `recent` is newest-last.
    """
    if not recent:
        return ()
    pool = list(recent[-cfg.candidate_len_N :])
    weights = forgetting_weights(len(pool), cfg.forgetting_scale_s)
    # ages run newest=0; pool is newest-last, so reverse the weight vector.
    probs = weights[::-1]
    size = min(cfg.short_len_S, len(pool))
    chosen = np.sort(rng.choice(len(pool), size, replace=False, p=probs))  # chronological
    return tuple(pool[i] for i in chosen)


# ---------------------------------------------------------------------------
# k-means


N_INIT = 8  # k-means++ restarts; the lowest objective wins
MAX_ITER = 50  # Lloyd steps per restart


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # k' x d
    objective: float
    objective_history: tuple[float, ...]  # per Lloyd iteration, non-increasing


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(r, m, k) squared distances from the m points to each of the k centers
    of r restarts.  Each center's slab is summed over its last axis, so every
    distance is the same pairwise sum a single (m, k, d) broadcast gives."""
    r, k, _ = centers.shape
    dists = np.empty((r, points.shape[0], k))
    for c in range(k):
        dists[:, :, c] = np.sum((points - centers[:, c, None, :]) ** 2, axis=2)
    return dists


def _seed_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur and Vassilvitskii, 2007)."""
    m = points.shape[0]
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
    return np.array(centroids)


def _update(points: np.ndarray, dists: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """One Lloyd update of r restarts: each center moves to the mean of its
    points, summed in row order as `mean(axis=0)` sums two or more columns
    (it sums a single column pairwise, so on 1-D points a center can differ
    from that mean in its last bit).

    An empty cluster is reseeded to the point farthest from its nearest
    center, by the rule of a pass over the clusters in order: each empty
    cluster takes that point over, so a cluster after the first empty one
    no longer holds it when it is averaged, and is reseeded too if it held
    nothing else."""
    r, m, k = dists.shape
    d = points.shape[1]
    members = nearest + k * np.arange(r)[:, None]  # flat (restart, cluster)
    counts = np.bincount(members.ravel(), minlength=r * k).reshape(r, k)
    reseeds = []
    for i in np.flatnonzero((counts == 0).any(axis=1)):
        empty = counts[i] == 0
        far = int(np.argmax(np.min(dists[i], axis=1)))
        first, owner = int(np.argmax(empty)), nearest[i, far]
        if owner > first:
            members[i, far] = k * i + first  # summed into a cluster that is reseeded anyway
            counts[i, owner] -= 1
            empty[owner] = counts[i, owner] == 0
        reseeds.append((i, empty, far))
    index = (members[:, :, None] * d + np.arange(d)).ravel()
    weights = np.broadcast_to(points, (r, m, d)).ravel()
    sums = np.bincount(index, weights, minlength=r * k * d).reshape(r, k, d)
    centers = sums / np.maximum(counts, 1)[:, :, None]
    for i, empty, far in reseeds:
        centers[i, empty] = points[far]
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, list[list[float]]]:
    """Lloyd's algorithm on the (r, k, d) seeded centers of r restarts at
    once.  Each step assigns by the distances to the centers the previous
    step computed, updates the centers and measures the new ones once.  A
    restart stops when its assignment stops changing, or after MAX_ITER
    steps.  Returns each restart's final centers and objective history."""
    r, m = centers.shape[0], points.shape[0]
    final = centers.copy()
    histories: list[list[float]] = [[] for _ in range(r)]
    live = np.arange(r)  # restarts still moving
    dists = _sq_dists(points, centers)
    nearest = np.argmin(dists, axis=2)
    labels = np.zeros((r, m), dtype=np.int64)  # the previous step's assignment
    for _ in range(MAX_ITER):
        centers = _update(points, dists, nearest)
        dists = _sq_dists(points, centers)
        nearest = np.argmin(dists, axis=2)
        objectives = np.min(dists, axis=2).sum(axis=1)
        for i, objective in zip(live, objectives):
            histories[i].append(float(objective))
        final[live] = centers
        moving = ~np.all(nearest == labels, axis=1)
        if not moving.any():
            break
        live, dists, nearest = live[moving], dists[moving], nearest[moving]
        labels = nearest
    return final, histories


def kmeans(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Seeded Lloyd's with k-means++ initialization, best of `N_INIT` restarts.

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

    canon = points[np.lexsort(points.T[::-1])]  # canonical row order
    distinct = np.unique(canon, axis=0)
    if k >= distinct.shape[0]:
        # one centroid per distinct point: every point sits on its centroid
        return KMeansResult(distinct, 0.0, (0.0,))

    seeded = np.array([
        _seed_centers(canon, k, np.random.default_rng(derive_seed(seed, "kmeans-init", trial)))
        for trial in range(N_INIT)
    ])
    centers, histories = _lloyd(canon, seeded)
    best = 0  # in restart order, a restart wins by beating the best so far by 1e-12
    for trial in range(1, N_INIT):
        if histories[trial][-1] < histories[best][-1] - 1e-12:
            best = trial
    history = histories[best]
    return KMeansResult(centers[best].copy(), history[-1], tuple(history))


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


def _build_node(points, seed, cfg, describe, text_encoder, span, level, start=0, end=0):
    """Cluster `points`, caption them with `describe()` and encode the
    caption; a failing port surfaces as a BackendError."""
    result = kmeans(points, cfg.cluster_goal_C, seed)
    what = f"captioning span {span}"
    caption = call_port(what, describe)
    caption_vec = call_port(what, text_encoder, caption)
    return TreeNode(
        centroids=result.centroids,
        caption=caption,
        caption_vec=np.asarray(caption_vec, dtype=np.float64),
        span=span,
        level=level,
        child_start=start,
        child_end=end,
    )


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
    seed = derive_seed(cfg.rng_seed, "chunk", chunk_index)
    return _build_node(points, seed, cfg, lambda: captioner.caption_chunk(chunk),
                       text_encoder, chunk.span, level=0)


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
                parents.append(
                    self._build_parent(children, level + 1, len(parents), captioner, text_encoder)
                )
            level += 1

    def _build_parent(self, below, level, index, captioner, text_encoder):
        """Build parent `index` of `level` over its (up to g) children in
        `below`; its draws are seeded by that position alone."""
        g = self.cfg.group_size_g
        start, end = index * g, min((index + 1) * g, len(below))
        children = below[start:end]
        points = np.vstack([c.centroids for c in children])
        seed = derive_seed(self.cfg.rng_seed, f"parent-l{level}", index)
        span = (min(c.span[0] for c in children), max(c.span[1] for c in children))
        return _build_node(points, seed, self.cfg,
                           lambda: captioner.summarize([c.caption for c in children]),
                           text_encoder, span, level, start, end)

    def view(self) -> TreeView:
        return tuple(tuple(level) for level in self.levels if level)


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
    vec: np.ndarray  # a read-only view of the turn's row in the dialogue index
    turn_index: int


FIRST_BLOCK_ROWS = 64  # the index's blocks hold 64, 128, 256, ... rows

# One block of the dialogue index: its rows, each row's norm, and the turn
# index of its first row.
DialogueBlock = tuple[np.ndarray, np.ndarray, int]


class DialogueMemory:
    """The dialogue turns in order, with their vectors in an append-only index.

    A turn's vector is written into a row of the last block, and a full block
    is followed by one twice its size; no block is ever copied or moved.  Its
    norm, `np.linalg.norm(vec)`, is stored beside it, not divided into the
    row, so every similarity reported is the one `cosine_similarity` gives.
    A reader that knows a turn count reads only the rows below it, so it may
    read while the writer fills later rows.
    """

    def __init__(self):
        self.turns: list[DialogueEntry] = []
        self.blocks: list[DialogueBlock] = []

    def append(self, question: str, answer: str, vec) -> None:
        """Check the text encoder's vector for the turn and index it.  A
        vector that is not 1-D, not finite, of another width than the first
        turn's, or whose norm overflows is a BackendError."""
        vec, norm = self._checked(vec)
        n = len(self.turns)
        if not self.blocks or n == self.blocks[-1][2] + len(self.blocks[-1][0]):
            size = FIRST_BLOCK_ROWS << len(self.blocks)
            self.blocks.append((np.empty((size, vec.shape[0])), np.empty(size), n))
        rows, norms, first = self.blocks[-1]
        rows[n - first] = vec
        norms[n - first] = norm
        row = rows[n - first]
        row.flags.writeable = False
        self.turns.append(DialogueEntry(question, answer, row, turn_index=n))

    def _checked(self, vec) -> tuple[np.ndarray, float]:
        try:
            vec = np.asarray(vec, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise BackendError(f"dialogue encoding failed: {exc}") from exc
        width = self.blocks[0][0].shape[1] if self.blocks else None
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(vec) if vec.ndim == 1 else None
        if vec.ndim != 1:
            problem = f"a {vec.ndim}-D vector of shape {vec.shape}"
        elif width is not None and vec.shape[0] != width:
            problem = f"width {vec.shape[0]}, where the first turn's is {width}"
        elif not np.isfinite(vec).all():
            problem = "non-finite values"
        elif not np.isfinite(norm):
            problem = "a norm that overflows"
        else:
            return vec, norm
        raise BackendError(f"dialogue encoding failed: {problem}")

    def view(self) -> tuple[tuple[DialogueEntry, ...], tuple[DialogueBlock, ...]]:
        return tuple(self.turns), tuple(self.blocks)


# ---------------------------------------------------------------------------
# snapshots and the store


@dataclass(frozen=True)
class MemorySnapshot:
    """Immutable, internally consistent view of all three memories."""

    version: int
    short_term: tuple[VisionEmbedding, ...]
    tree: TreeView
    dialogue: tuple[DialogueEntry, ...]
    dialogue_blocks: tuple[DialogueBlock, ...]  # index rows below len(dialogue) are fixed

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
        self.short: tuple[VisionEmbedding, ...] = ()
        self.dialogue = DialogueMemory()
        self.recent: deque[VisionEmbedding] = deque(maxlen=cfg.candidate_len_N)
        self.version = 0

    def on_chunk(self, chunk: Chunk) -> None:
        index = len(self.tree)  # the chunk's position, which seeds its draws
        self.recent.extend(chunk.embeddings)
        unit = make_unit(chunk, self.cfg, index, self.captioner, self.text_encoder)
        self.tree.append(unit, self.captioner, self.text_encoder)
        rng = np.random.default_rng(derive_seed(self.cfg.rng_seed, "short-refresh", index))
        self.short = refresh_short_term(list(self.recent), self.cfg, rng)
        self.version += 1

    def on_answer(self, question: str, answer: str) -> None:
        if not question:
            raise InputError("dialogue question must be nonempty")
        vec = call_port("dialogue encoding", self.text_encoder, f"Q: {question} A: {answer}")
        self.dialogue.append(question, answer, vec)
        self.version += 1

    def snapshot(self) -> MemorySnapshot:
        dialogue, blocks = self.dialogue.view()
        return MemorySnapshot(
            version=self.version,
            short_term=self.short,
            tree=self.tree.view(),
            dialogue=dialogue,
            dialogue_blocks=blocks,
        )
