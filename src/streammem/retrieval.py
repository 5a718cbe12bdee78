"""Similarity-guided retrieval over a memory snapshot.

Greedy per-level descent of the long-memory tree (argmax of cosine between
the encoded question and node caption vectors, earlier span on ties),
exact top-1 dialogue lookup, and context assembly.  Everything here is a
pure function over immutable snapshots and safe to call from any stage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .frame_gate import VisionEmbedding
from .memory_core import DialogueEntry, MemorySnapshot, TreeView


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
    below, only the chosen node's children.  Ties break to the earlier span,
    then the lower index.
    """
    if not tree:
        return EMPTY_PATH
    top = len(tree) - 1
    candidates = range(len(tree[top]))
    steps: list[PathStep] = []
    centroids: list[np.ndarray] = []
    for level in range(top, -1, -1):
        nodes = tree[level]
        best_idx = None
        best_key = None
        for idx in candidates:
            node = nodes[idx]
            sim = cosine_similarity(q.vec, node.caption_vec)
            key = (-sim, node.span[0], idx)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        chosen = nodes[best_idx]
        steps.append(PathStep(level=level, index=best_idx, similarity=-best_key[0]))
        centroids.append(chosen.centroids)
        if level > 0:
            candidates = range(chosen.child_start, chosen.child_end)
    return PathResult(
        steps=tuple(steps),
        collected_centroids=tuple(centroids),
        best_caption=tree[0][steps[-1].index].caption,
    )


def retrieve_dialogue(
    entries: tuple[DialogueEntry, ...], q: QueryVec, min_sim: float
) -> tuple[DialogueEntry, float] | None:
    """Exact top-1 by cosine; ties go to the most recent turn; None when the
    best similarity is below min_sim or memory is empty."""
    best = None
    best_sim = -np.inf
    for entry in entries:
        sim = cosine_similarity(q.vec, entry.vec)
        if sim >= best_sim:
            best, best_sim = entry, sim
    if best is None or best_sim < min_sim:
        return None
    return (best, best_sim)


@dataclass(frozen=True)
class PromptBundle:
    """The retrieved context handed to the generator port."""

    short_term: tuple[VisionEmbedding, ...]
    tree_tokens: tuple[np.ndarray, ...]
    dialogue_context: tuple[str, str] | None
    question: str
    path: PathResult = EMPTY_PATH
    dialogue_similarity: float | None = None


def assemble_context(snapshot: MemorySnapshot, q: QueryVec, cfg) -> PromptBundle:
    """Pure function of (snapshot, query): short-term units, path centroids
    from the tree, and the best prior dialogue turn above the cutoff."""
    path = descend_tree(snapshot.tree, q)
    hit = retrieve_dialogue(snapshot.dialogue, q, cfg.min_dialogue_sim)
    dialogue_context = None
    dialogue_sim = None
    if hit is not None:
        entry, dialogue_sim = hit
        dialogue_context = (entry.question, entry.answer)
    return PromptBundle(
        short_term=snapshot.short_term,
        tree_tokens=path.collected_centroids,
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
        "tree_tokens": [_matrix_json(m) for m in bundle.tree_tokens],
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
