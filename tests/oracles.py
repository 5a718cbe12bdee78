"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: exhaustive SSD search
for motion, exhaustive partition enumeration for clustering, a standalone
per-level argmax walk over the serialized tree for retrieval, a per-turn scan
for the dialogue lookup, and k-means++ seeding, Lloyd's algorithm and its
squared distances run one restart and one cluster at a time.
"""

from __future__ import annotations

import numpy as np


def ssd_shift(prev: np.ndarray, cur: np.ndarray, max_shift: int = 3) -> tuple[int, int]:
    """Integer (dx, dy) in [-max_shift, max_shift]^2 minimizing the sum of
    squared differences between cur and the rolled prev."""
    best = None
    best_cost = np.inf
    for dx in range(-max_shift, max_shift + 1):
        for dy in range(-max_shift, max_shift + 1):
            shifted = np.roll(np.roll(prev, dx, axis=1), dy, axis=0)
            cost = float(np.sum((cur - shifted) ** 2))
            if cost < best_cost:
                best_cost = cost
                best = (dx, dy)
    return best


def _restricted_growth_strings(m: int, k: int):
    """All assignments of m items into at most k unlabeled clusters, encoded
    canonically (label i appears only after labels 0..i-1)."""
    labels = [0] * m

    def rec(pos: int, used: int):
        if pos == m:
            yield tuple(labels)
            return
        for lbl in range(min(used + 1, k)):
            labels[pos] = lbl
            yield from rec(pos + 1, max(used, lbl + 1))

    yield from rec(1, 1) if m > 1 else iter([(0,)])


def best_partition_objective(points: np.ndarray, k: int) -> float:
    """Exhaustive minimum within-cluster sum of squared distances over every
    partition of the points into at most k clusters."""
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    assignments = np.array(list(_restricted_growth_strings(m, k)), dtype=np.int64)
    sq_norms = np.sum(points**2, axis=1)
    total_sq = sq_norms.sum()
    best = np.inf
    onehot = np.eye(k)[assignments]  # P x m x k
    counts = onehot.sum(axis=1)  # P x k
    sums = np.einsum("pmk,md->pkd", onehot, points)  # P x k x d
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(counts > 0, np.sum(sums**2, axis=2) / counts, 0.0)
    objectives = total_sq - contrib.sum(axis=1)
    return float(objectives.min())


def seed_centers_loop(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur and Vassilvitskii, 2007) of one restart, a
    center at a time, each drawn by `rng.choice` with its checks of `p`; a
    draw when every point sits on a center so far is `rng.integers(m)`."""
    m = points.shape[0]
    centroids = [points[int(rng.integers(m))]]
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


def sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(r, k, m) exact squared distances from the m points to each of the k
    centers of r restarts, a center at a time: the difference, its square
    and `np.add.reduce` over the contiguous last axis, the sums k-means
    reports."""
    r, k, _ = centers.shape
    dists = np.empty((r, k, points.shape[0]))
    for c in range(k):
        diff = points - centers[:, c, None, :]
        np.add.reduce(diff * diff, axis=-1, out=dists[:, c])
    return dists


def lloyd_update_loop(points: np.ndarray, dists: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """One Lloyd update of one restart, a cluster at a time: a center moves
    to the mean of its points; an empty cluster is reseeded to the point
    farthest from its nearest center, which from then on counts as its
    member for the clusters after it."""
    nearest = nearest.copy()
    k = dists.shape[1]
    centers = np.empty((k, points.shape[1]))
    for c in range(k):
        mask = nearest == c
        if mask.any():
            centers[c] = points[mask].mean(axis=0)
        else:
            far = int(np.argmax(np.min(dists, axis=1)))
            centers[c] = points[far]
            nearest[far] = c
    return centers


def lloyd_loop(points: np.ndarray, seeded: list[np.ndarray], max_iter: int):
    """Lloyd's algorithm on each (k, d) seeded center set in turn.  Returns
    the (centers, objective history) of the winner: in order, a restart
    wins by beating the best objective so far by more than 1e-12."""
    best = None
    for centers in seeded:
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        nearest = np.argmin(dists, axis=1)
        labels = np.zeros(len(points), dtype=np.int64)
        history = []
        for _ in range(max_iter):
            centers = lloyd_update_loop(points, dists, nearest)
            dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            nearest = np.argmin(dists, axis=1)
            history.append(float(dists[np.arange(len(points)), nearest].sum()))
            if np.array_equal(nearest, labels):
                break
            labels = nearest
        if best is None or history[-1] < best[1][-1] - 1e-12:
            best = (centers, history)
    return best


def tree_view_to_json(view) -> dict:
    """A memory-tree view (levels of TreeNode, bottom first) as the plain
    document argmax_descent walks."""
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


def argmax_descent(tree_doc: dict, query_vec: np.ndarray) -> list[tuple[int, int]]:
    """Standalone greedy walk over a serialized tree document: per level pick
    the candidate with the highest cosine, ties to earlier span then lower
    index.  Returns [(level, index), ...] topmost first."""
    levels = tree_doc["levels"]
    if not levels:
        return []

    def cos(a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(a @ b / (na * nb))

    top = len(levels) - 1
    candidates = list(range(len(levels[top])))
    path = []
    for level in range(top, -1, -1):
        nodes = levels[level]
        ranked = sorted(
            candidates,
            key=lambda i: (-cos(query_vec, nodes[i]["caption_vec"]), nodes[i]["span"][0], i),
        )
        pick = ranked[0]
        path.append((level, pick))
        if level > 0:
            candidates = list(range(nodes[pick]["child_start"], nodes[pick]["child_end"]))
    return path


def scan_dialogue(vecs, query_vec: np.ndarray, min_sim: float) -> tuple[int, float] | None:
    """The exact top-1 dialogue lookup as a loop over the turns: each cosine
    computed alone, as `cosine_similarity` computes it, kept by `>=` in turn
    order so ties go to the most recent turn, then the cutoff.  Returns
    (turn index, similarity), or None."""
    q = np.asarray(query_vec, dtype=np.float64)
    nq = np.linalg.norm(q)
    best, best_sim = None, -np.inf
    for i, v in enumerate(vecs):
        v = np.asarray(v, dtype=np.float64)
        nv = np.linalg.norm(v)
        sim = 0.0 if nq == 0.0 or nv == 0.0 else float(np.dot(q, v) / (nq * nv))
        if sim >= best_sim:
            best, best_sim = i, sim
    if best is None or best_sim < min_sim:
        return None
    return best, best_sim


def iterated_ceil_sizes(b: int, g: int) -> list[int]:
    """Expected tree level sizes: start at b, divide by g (ceil) until <= g."""
    sizes = [b]
    while sizes[-1] > g:
        sizes.append(-(-sizes[-1] // g))
    return sizes
