import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import argmax_descent, scan_dialogue, tree_view_to_json
from streammem import retrieval
from streammem.errors import InputError
from streammem.memory_core import (
    DialogueMemory,
    MemorySnapshot,
    MemoryConfig,
    TreeNode,
)
from streammem.ports import hash_text_encode
from streammem.retrieval import (
    BAND,
    PromptBundle,
    QueryVec,
    assemble_context,
    bundle_digest,
    bundle_to_json,
    cosine_similarity,
    descend_tree,
    encode_query,
    retrieve_dialogue,
)


def random_tree_view(rng, n_basic: int, g: int, d: int = 6, tie_groups=False):
    """Hand-built tree view with random caption vectors and correct ranges."""
    levels = [
        [
            TreeNode(
                centroids=rng.standard_normal((2, d)),
                caption=f"leaf {i}",
                caption_vec=rng.standard_normal(d),
                span=(float(i), i + 0.5),
                level=0,
            )
            for i in range(n_basic)
        ]
    ]
    while len(levels[-1]) > g:
        kids = levels[-1]
        parents = []
        count = math.ceil(len(kids) / g)
        shared = rng.standard_normal(d)
        for j in range(count):
            start, end = j * g, min((j + 1) * g, len(kids))
            vec = shared.copy() if tie_groups else rng.standard_normal(d)
            parents.append(
                TreeNode(
                    centroids=rng.standard_normal((2, d)),
                    caption=f"summary {len(levels)}/{j}",
                    caption_vec=vec,
                    span=(kids[start].span[0], kids[end - 1].span[1]),
                    level=len(levels),
                    child_start=start,
                    child_end=end,
                )
            )
        levels.append(parents)
    return tuple(tuple(lv) for lv in levels)


def vec_with_cosine(q: np.ndarray, target: float) -> np.ndarray:
    """A vector whose cosine with unit q is exactly `target`."""
    ortho = np.zeros_like(q)
    ortho[np.argmin(np.abs(q))] = 1.0
    ortho = ortho - (ortho @ q) * q
    ortho /= np.linalg.norm(ortho)
    return target * q + math.sqrt(1 - target**2) * ortho


def count_exact_scores(monkeypatch) -> list:
    """Patch the exact cosine that `cosine_similarity`, descent and the
    dialogue re-check all use; the list returned grows by one per call."""
    calls = []
    exact = retrieval._cosine
    monkeypatch.setattr(retrieval, "_cosine", lambda *args: calls.append(1) or exact(*args))
    return calls


class TestCosine:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_analytic_value(self):
        sim = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert sim == pytest.approx(0.70711, abs=1e-5)

    def test_zero_vector_convention(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cosine_similarity(np.ones(2), np.ones(3))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        sim = cosine_similarity(rng.standard_normal(5), rng.standard_normal(5))
        assert -1.0 - 1e-12 <= sim <= 1.0 + 1e-12


class TestDescend:
    def test_empty_tree(self):
        path = descend_tree((), QueryVec(vec=np.ones(4), text="q"))
        assert not path.steps
        assert path.collected_centroids == ()

    def test_single_node(self):
        rng = np.random.default_rng(0)
        view = random_tree_view(rng, 1, g=2)
        path = descend_tree(view, QueryVec(vec=rng.standard_normal(6), text="q"))
        assert [(s.level, s.index) for s in path.steps] == [(0, 0)]
        assert len(path.collected_centroids) == 1
        assert path.best_caption == "leaf 0"

    def test_case_study_similarities_pick_second_branch(self):
        # two top nodes engineered at cosines 0.3993 and 0.4751
        rng = np.random.default_rng(1)
        q = rng.standard_normal(8)
        q /= np.linalg.norm(q)
        view = random_tree_view(rng, 4, g=2, d=8)
        top = list(view[1])
        top[0] = dataclass_replace(top[0], caption_vec=vec_with_cosine(q, 0.3993))
        top[1] = dataclass_replace(top[1], caption_vec=vec_with_cosine(q, 0.4751))
        view = (view[0], tuple(top))
        path = descend_tree(view, QueryVec(vec=q, text="q"))
        assert path.steps[0].index == 1
        assert path.steps[0].similarity == pytest.approx(0.4751, abs=1e-6)
        assert path.steps[1].index in (2, 3)  # stays under the chosen branch

    def test_matches_argmax_oracle_on_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_basic = int(rng.integers(1, 30))
            g = int(rng.integers(2, 5))
            view = random_tree_view(rng, n_basic, g)
            q = QueryVec(vec=rng.standard_normal(6), text="q")
            path = descend_tree(view, q)
            expected = argmax_descent(tree_view_to_json(view), q.vec)
            assert [(s.level, s.index) for s in path.steps] == expected

    def test_tie_breaks_to_earlier_span(self):
        rng = np.random.default_rng(3)
        view = random_tree_view(rng, 9, g=3, tie_groups=True)
        q = QueryVec(vec=rng.standard_normal(6), text="q")
        path = descend_tree(view, q)
        assert path.steps[0].index == 0  # all top vectors equal -> earliest span
        expected = argmax_descent(tree_view_to_json(view), q.vec)
        assert [(s.level, s.index) for s in path.steps] == expected

    def test_scale_invariance_of_chosen_path(self):
        rng = np.random.default_rng(5)
        view = random_tree_view(rng, 12, g=3)
        q = QueryVec(vec=rng.standard_normal(6), text="q")
        base = [(s.level, s.index) for s in descend_tree(view, q).steps]
        scaled = tuple(
            tuple(dataclass_replace(n, caption_vec=n.caption_vec * 17.5) for n in lv)
            for lv in view
        )
        assert [(s.level, s.index) for s in descend_tree(scaled, q).steps] == base

    def test_similarities_are_cosine_similarity_bits(self):
        # descent scores from each node's stored norm, also after a replace;
        # a zero caption vector scores 0.0 and a query of another width fails
        rng = np.random.default_rng(26)
        view = random_tree_view(rng, 30, g=3)
        view = (view[0], view[1], tuple(dataclass_replace(n, caption_vec=n.caption_vec * 3.0)
                                        for n in view[2]), view[3])
        for _ in range(20):
            q = QueryVec(vec=rng.standard_normal(6), text="q")
            for step in descend_tree(view, q).steps:
                want = cosine_similarity(q.vec, view[step.level][step.index].caption_vec)
                assert np.float64(step.similarity).tobytes() == np.float64(want).tobytes()
        zero = (tuple(dataclass_replace(n, caption_vec=[0.0] * 6) for n in view[0]),)
        assert descend_tree(zero, q).steps[0].similarity == 0.0
        with pytest.raises(InputError, match="dimension mismatch"):
            descend_tree(view, QueryVec(vec=np.ones(5), text="q"))

    def test_path_is_parent_child_chain(self):
        rng = np.random.default_rng(9)
        view = random_tree_view(rng, 20, g=3)
        path = descend_tree(view, QueryVec(vec=rng.standard_normal(6), text="q"))
        assert len(path.collected_centroids) == len(path.steps) == len(view)
        for above, below in zip(path.steps, path.steps[1:]):
            parent = view[above.level][above.index]
            assert parent.child_start <= below.index < parent.child_end


def dataclass_replace(node, **kw):
    import dataclasses

    return dataclasses.replace(node, **kw)


def dialogue(*vecs, questions=None):
    """(entries, blocks) of a dialogue memory holding one turn per vector;
    turn i asks `questions[i]`, or "q{i}"."""
    memory = DialogueMemory()
    for i, vec in enumerate(vecs):
        memory.append(questions[i] if questions else f"q{i}", f"a{i}", vec)
    return memory.view()


class TestDialogueRetrieval:
    def test_empty_memory(self):
        assert retrieve_dialogue((), (), QueryVec(vec=np.ones(4), text="q"), -1.0) is None

    def test_best_above_threshold_returned(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        entries, blocks = dialogue(vec_with_cosine(q, 0.1), vec_with_cosine(q, 0.6983))
        hit = retrieve_dialogue(entries, blocks, QueryVec(vec=q, text="q"), min_sim=0.35)
        assert hit is not None
        best, sim = hit
        assert best.question == "q1"
        assert sim == pytest.approx(0.6983, abs=1e-6)

    def test_all_below_threshold(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        entries, blocks = dialogue(vec_with_cosine(q, 0.1))
        assert retrieve_dialogue(entries, blocks, QueryVec(vec=q, text="q"), min_sim=0.35) is None

    def test_nonempty_memory_with_min_sim_minus_one_always_hits(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        entries, blocks = dialogue(-q)
        assert retrieve_dialogue(entries, blocks, QueryVec(vec=q, text="q"),
                                 min_sim=-1.0) is not None

    def test_tie_goes_to_most_recent(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        shared = vec_with_cosine(q, 0.9)
        entries, blocks = dialogue(shared, shared.copy(), questions=["old", "new"])
        best, _ = retrieve_dialogue(entries, blocks, QueryVec(vec=q, text="q"), min_sim=0.0)
        assert best.question == "new"

    def test_query_of_another_width_is_input_error(self):
        entries, blocks = dialogue(np.ones(4))
        with pytest.raises(InputError, match="dimension mismatch"):
            retrieve_dialogue(entries, blocks, QueryVec(vec=np.ones(3), text="q"), -1.0)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # norms of 1e154
    def test_same_turn_and_similarity_bits_as_the_scan(self, data):
        # small integer entries make exact ties, and a row repeated at another
        # scale ties up to rounding; the turn counts straddle the index's
        # block edges at 64 and 192 rows, and the scales reach both ends of
        # the range where approximate scores are trusted
        n = data.draw(st.sampled_from([1, 2, 3, 63, 64, 65, 127, 128, 129, 191, 192, 193]))
        d = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            values = st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(np.array)
        else:
            values = st.integers(0, 2**32 - 1).map(
                lambda seed: np.random.default_rng(seed).standard_normal(d))
        pool = data.draw(st.lists(values, min_size=1, max_size=6))
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                             st.sampled_from([1.0, 3.0, 0.1])),
                                   min_size=n, max_size=n))
        vecs = np.array([pool[i] * scale for i, scale in picks], dtype=np.float64)
        vecs *= data.draw(st.sampled_from([1.0, 1e-160]))  # with a tiny query, products underflow
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            vecs[i] = 0.0
        if data.draw(st.booleans()):
            vecs[data.draw(st.integers(0, n - 1))] *= 1e150
        qv = data.draw(values).astype(np.float64)
        qv *= data.draw(st.sampled_from([0.0, 1.0, 1e-160, 1e150, 1e154, np.nan]))
        entries, blocks = dialogue(*vecs)
        q = QueryVec(vec=qv, text="q")
        cutoffs = [data.draw(st.floats(-1.0, 1.0))]
        best = scan_dialogue(vecs, qv, -np.inf)
        if best is not None:  # a NaN query scores only zero rows
            cutoffs += [best[1], np.nextafter(best[1], np.inf), best[1] + BAND, best[1] + 0.25]
        for min_sim in cutoffs:
            expected = scan_dialogue(vecs, qv, min_sim)
            hit = retrieve_dialogue(entries, blocks, q, min_sim)
            if expected is None:
                assert hit is None
            else:
                assert hit is not None
                assert hit[0] is entries[expected[0]]
                assert np.float64(hit[1]).tobytes() == np.float64(expected[1]).tobytes()

    def test_rechecks_only_the_band(self, monkeypatch):
        # without ties every turn but the best lies outside the band, so a
        # lookup that fell back to scoring each turn alone, or that re-checked
        # the zero rows, would show here
        rng = np.random.default_rng(24)
        vecs = rng.standard_normal((1000, 512))
        vecs[::100] = 0.0
        entries, blocks = dialogue(*vecs)
        exact = retrieval.cosine_similarity
        calls = count_exact_scores(monkeypatch)
        for _ in range(20):
            qv = rng.standard_normal(512)
            sims = [exact(qv, v) for v in vecs]
            in_band = sum(sim >= max(sims) - 2 * BAND for sim in sims)
            calls.clear()
            best, sim = retrieve_dialogue(entries, blocks, QueryVec(vec=qv, text="q"), -1.0)
            assert (best.turn_index, sim) == scan_dialogue(vecs, qv, -1.0)
            assert 1 <= len(calls) <= in_band

    def test_a_miss_rechecks_no_turn(self, monkeypatch):
        # turns of three words, and questions that share at most one word
        # with any of them, so that every best score lies below the cutoff
        rng = np.random.default_rng(25)
        texts = [" ".join(rng.choice([f"w{i}" for i in range(400)], 3)) for _ in range(250)]
        vecs = [hash_text_encode(text) for text in texts]
        entries, blocks = dialogue(*vecs)
        calls = count_exact_scores(monkeypatch)
        for question in ("?", "four fresh words here", f"{texts[0].split()[0]} fresh words here"):
            q = encode_query(question, hash_text_encode)
            assert scan_dialogue(vecs, q.vec, 0.35) is None
            assert retrieve_dialogue(entries, blocks, q, 0.35) is None
            assert calls == []
        q = encode_query(texts[7], hash_text_encode)
        best, sim = retrieve_dialogue(entries, blocks, q, 0.35)
        assert (best.turn_index, sim) == scan_dialogue(vecs, q.vec, 0.35)
        assert calls


class TestAssemble:
    def make_snapshot(self, rng, with_tree=True, with_dialogue=True, short=()):
        tree = random_tree_view(rng, 4, g=2) if with_tree else ()
        q_axis = np.zeros(6)
        q_axis[0] = 1.0
        memory = DialogueMemory()
        if with_dialogue:
            memory.append("prev q", "prev a", vec_with_cosine(q_axis, 0.8))
        turns, blocks = memory.view()
        return MemorySnapshot(version=1, short_term=short, tree=tree, dialogue=turns,
                              dialogue_blocks=blocks)

    def cfg(self):
        return MemoryConfig(min_dialogue_sim=0.35)

    def test_empty_memories_yield_partial_bundle(self):
        from conftest import make_embedding

        rng = np.random.default_rng(0)
        snap = self.make_snapshot(rng, with_tree=False, with_dialogue=False,
                                  short=(make_embedding(1.0),))
        q = QueryVec(vec=np.ones(6), text="what")
        bundle = assemble_context(snap, q, self.cfg())
        assert bundle.path.collected_centroids == ()
        assert bundle.dialogue_context is None
        assert len(bundle.short_term) == 1
        assert bundle.question == "what"

    def test_purity_same_inputs_same_bundle(self):
        rng = np.random.default_rng(2)
        snap = self.make_snapshot(rng)
        qv = np.zeros(6)
        qv[0] = 1.0
        q = QueryVec(vec=qv, text="q")
        d1 = bundle_digest(assemble_context(snap, q, self.cfg()))
        d2 = bundle_digest(assemble_context(snap, q, self.cfg()))
        assert d1 == d2

    def test_bundle_contains_path_and_dialogue(self):
        rng = np.random.default_rng(4)
        snap = self.make_snapshot(rng)
        qv = np.zeros(6)
        qv[0] = 1.0
        bundle = assemble_context(snap, QueryVec(vec=qv, text="q"), self.cfg())
        assert len(bundle.path.collected_centroids) == len(snap.tree)
        assert bundle.dialogue_context == ("prev q", "prev a")

    def make_bundle(self, seed):
        from conftest import make_embedding

        snap = self.make_snapshot(np.random.default_rng(seed), short=(make_embedding(1.0),))
        qv = np.zeros(6)
        qv[0] = 1.0
        return assemble_context(snap, QueryVec(vec=qv, text="q"), self.cfg())

    def test_json_carries_matrices_by_shape_and_hash(self):
        bundle = self.make_bundle(6)
        doc = bundle_to_json(bundle)
        m = bundle.path.collected_centroids[0]
        assert doc["tree_tokens"][0] == {
            "shape": list(m.shape),
            "digest": hashlib.sha256(m.astype(np.float64).tobytes()).hexdigest()[:16],
        }
        assert set(doc["short_term"][0]["tokens"]) == {"shape", "digest"}

    def test_digest_covers_every_matrix_value(self):
        bundle = self.make_bundle(7)
        reference = bundle_digest(bundle)
        assert bundle_digest(self.make_bundle(7)) == reference

        unit = bundle.short_term[0]
        tokens = unit.tokens.copy()
        tokens[-1, -1] = np.nextafter(tokens[-1, -1], np.inf)
        changed = dataclasses.replace(unit, tokens=tokens)
        assert bundle_digest(dataclasses.replace(bundle, short_term=(changed,))) != reference

        tree_tokens = list(bundle.path.collected_centroids)
        tree_tokens[-1] = tree_tokens[-1].copy()
        tree_tokens[-1][0, 0] += 1e-9
        path = dataclasses.replace(bundle.path, collected_centroids=tuple(tree_tokens))
        assert bundle_digest(dataclasses.replace(bundle, path=path)) != reference
