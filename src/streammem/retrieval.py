"""Similarity-guided retrieval over a memory snapshot.

Greedy per-level descent of the long-memory tree (argmax of cosine between
the encoded question and node caption vectors, earlier span on ties),
exact top-1 dialogue lookup over the dialogue index, and context assembly.
Everything here is a pure function over immutable snapshots and safe to call
from any stage.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .frame_gate import VisionEmbedding
from .memory_core import DialogueBlock, DialogueEntry, MemorySnapshot, TreeView


@dataclass(frozen=True)
class QueryVec:
    vec: np.ndarray
    text: str


def encode_query(text: str, text_encoder) -> QueryVec:
    return QueryVec(vec=np.asarray(text_encoder(text), dtype=np.float64), text=text)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a,b)/(|a||b|); zero vectors yield 0.0 by convention."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"vector dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


@dataclass(frozen=True)
class PathStep:
    level: int
    index: int
    similarity: float


@dataclass(frozen=True)
class PathResult:
    """Visited nodes topmost -> leaf, with centroids collected per level."""

    steps: tuple[PathStep, ...]
    collected_centroids: tuple[np.ndarray, ...]
    best_caption: str


EMPTY_PATH = PathResult(steps=(), collected_centroids=(), best_caption="")


def descend_tree(tree: TreeView, q: QueryVec) -> PathResult:
    """Greedy descent from the topmost materialized level to level 0.

    At the top, every node is a candidate (children of the virtual root);
    below, only the chosen node's children.  Each level of `tree` must be in
    chronological order, as `check_tree_invariants` requires, so the first
    candidate of the highest similarity is the one of the earliest span."""
    if not tree:
        return EMPTY_PATH
    top = len(tree) - 1
    candidates = range(len(tree[top]))
    steps: list[PathStep] = []
    centroids: list[np.ndarray] = []
    for level in range(top, -1, -1):
        nodes = tree[level]
        # the first maximum is kept; a NaN compares false: it displaces nothing, nor is displaced
        sim, best_idx = max(((cosine_similarity(q.vec, nodes[i].caption_vec), i)
                             for i in candidates), key=lambda scored: scored[0])
        chosen = nodes[best_idx]
        steps.append(PathStep(level=level, index=best_idx, similarity=sim))
        centroids.append(chosen.centroids)
        if level > 0:
            candidates = range(chosen.child_start, chosen.child_end)
    return PathResult(
        steps=tuple(steps),
        collected_centroids=tuple(centroids),
        best_caption=tree[0][steps[-1].index].caption,
    )


# Turns whose approximate cosine lies within BAND of the best are scored
# again exactly.  Two float64 dot products of width d, summed in any order,
# each lie within d * 2**-53 * |q| |v| of the true one (Higham, "Accuracy and
# Stability of Numerical Algorithms", section 3.1), so the two cosines of a
# turn differ by about 2 * d * 1.1e-16: under BAND / 2 for any d below 10**6.
BAND = 1e-9
# That bound needs |q| |v| clear of underflow, so a turn below
# MIN_NORM_PRODUCT is always scored again; and no partial sum may overflow,
# so a query whose norm reaches MAX_QUERY_NORM has every turn scored again
# (a turn's norm is finite, so below 2**512).
MIN_NORM_PRODUCT = 1e-300
MAX_QUERY_NORM = 2.0**511


def _approx_cosines(blocks: tuple[DialogueBlock, ...], n: int, qv: np.ndarray) -> np.ndarray:
    """Cosine of `qv` with each of the first `n` indexed turns, from one
    matrix product per block: 0 for a zero turn vector or a zero query, as
    in `cosine_similarity`, and NaN where the bound above does not hold."""
    q_norm = math.sqrt(qv @ qv)
    if q_norm == 0.0:
        return np.zeros(n)
    if not q_norm < MAX_QUERY_NORM:  # NaN too
        q_norm = math.nan
    dots, norms = [], []
    for rows, row_norms, first in blocks:  # each block holds a row below n
        m = min(len(rows), n - first)
        dots.append(rows[:m] @ qv)
        norms.append(row_norms[:m])
    norms = np.concatenate(norms)
    denom = norms * q_norm
    denom[denom < MIN_NORM_PRODUCT] = np.nan
    denom[norms == 0.0] = 1.0  # over a dot product that is 0
    return np.concatenate(dots) / denom


def retrieve_dialogue(
    entries: tuple[DialogueEntry, ...],
    blocks: tuple[DialogueBlock, ...],
    q: QueryVec,
    min_sim: float,
) -> tuple[DialogueEntry, float] | None:
    """Exact top-1 by cosine over `entries`, whose vectors `blocks` index;
    ties go to the most recent turn; None when the best similarity is below
    min_sim or memory is empty.

    Every turn is scored approximately by `_approx_cosines`.  If no score is
    NaN and the best is more than BAND below min_sim, no exact score reaches
    min_sim: a miss.  Otherwise only the turns within BAND of the best score,
    and those whose score is NaN, are scored again by `cosine_similarity`,
    in turn order.  The exact best always lies in that band, so the turn
    chosen and the similarity reported are those of an exact scan."""
    if not entries:
        return None
    width = blocks[0][0].shape[1:]
    if q.vec.shape != width:
        raise InputError(f"vector dimension mismatch: {q.vec.shape} vs {width}")
    scores = _approx_cosines(blocks, len(entries), q.vec)
    top = np.fmax.reduce(scores)  # skips NaN
    if top + BAND < min_sim and not np.isnan(scores).any():
        return None
    candidates = ~(scores < top - BAND)  # NaN compares false: a NaN score is a candidate
    best = None
    best_sim = -np.inf
    for i in candidates.nonzero()[0]:
        sim = cosine_similarity(q.vec, entries[i].vec)
        if sim >= best_sim:
            best, best_sim = entries[i], sim
    if best is None or best_sim < min_sim:
        return None
    return (best, best_sim)


@dataclass(frozen=True)
class PromptBundle:
    """The retrieved context handed to the generator port."""

    short_term: tuple[VisionEmbedding, ...]
    dialogue_context: tuple[str, str] | None
    question: str
    path: PathResult = EMPTY_PATH
    dialogue_similarity: float | None = None


def assemble_context(snapshot: MemorySnapshot, q: QueryVec, cfg) -> PromptBundle:
    """Pure function of (snapshot, query): short-term units, path centroids
    from the tree, and the best prior dialogue turn above the cutoff."""
    path = descend_tree(snapshot.tree, q)
    hit = retrieve_dialogue(snapshot.dialogue, snapshot.dialogue_blocks, q, cfg.min_dialogue_sim)
    dialogue_context = None
    dialogue_sim = None
    if hit is not None:
        entry, dialogue_sim = hit
        dialogue_context = (entry.question, entry.answer)
    return PromptBundle(
        short_term=snapshot.short_term,
        dialogue_context=dialogue_context,
        question=q.text,
        path=path,
        dialogue_similarity=dialogue_sim,
    )


def _matrix_json(m: np.ndarray) -> dict:
    """A matrix by its shape and a hash of its raw float64 bytes."""
    digest = hashlib.sha256(np.ascontiguousarray(m, dtype=np.float64).tobytes()).hexdigest()
    return {"shape": list(m.shape), "digest": digest[:16]}


def bundle_to_json(bundle: PromptBundle) -> dict:
    return {
        "question": bundle.question,
        "short_term": [
            {
                "timestamp": e.source_timestamp,
                "tags": list(e.source_tags),
                "tokens": _matrix_json(e.tokens),
            }
            for e in bundle.short_term
        ],
        "tree_tokens": [_matrix_json(m) for m in bundle.path.collected_centroids],
        "path": [
            {"level": s.level, "index": s.index, "similarity": s.similarity}
            for s in bundle.path.steps
        ],
        "best_caption": bundle.path.best_caption,
        "dialogue_context": (
            None
            if bundle.dialogue_context is None
            else {
                "question": bundle.dialogue_context[0],
                "answer": bundle.dialogue_context[1],
                "similarity": bundle.dialogue_similarity,
            }
        ),
    }


def bundle_digest(bundle: PromptBundle) -> str:
    """Content hash of `bundle_to_json`, the form the remote generator
    receives, for replay checks; every matrix enters through its hash."""
    payload = json.dumps(bundle_to_json(bundle), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
