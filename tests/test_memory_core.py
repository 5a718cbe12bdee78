import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_embedding
from oracles import (
    best_partition_objective,
    iterated_ceil_sizes,
    lloyd_loop,
    lloyd_update_loop,
)
from streammem import memory_core
from streammem.errors import BackendError, InputError
from streammem.frame_gate import make_chunk
from streammem.memory_core import (
    MemoryConfig,
    MemoryStore,
    MemoryTree,
    PRESETS,
    check_tree_invariants,
    derive_seed,
    forgetting_weights,
    kmeans,
    make_unit,
    refresh_short_term,
)
from streammem.ports import TagCaptioner, hash_text_encode
from streammem.retrieval import assemble_context, bundle_digest, encode_query


def small_cfg(**kw):
    defaults = dict(chunk_len_L=2, group_size_g=2, cluster_goal_C=2, rng_seed=0)
    defaults.update(kw)
    return MemoryConfig(**defaults)


def chunk_at(t0: float, length=2, tags=("lab",), n=2, d=4):
    return make_chunk(
        [make_embedding(t0 + i, tags=tags, n=n, d=d) for i in range(length)]
    )


class TestForgettingWeights:
    def test_single_candidate(self):
        assert forgetting_weights(1, 1.0).tolist() == [1.0]

    def test_three_candidates_unit_scale(self):
        w = forgetting_weights(3, 1.0)
        assert np.allclose(w, [0.66524, 0.24473, 0.09003], atol=1e-4)

    def test_zero_candidates_rejected(self):
        with pytest.raises(InputError):
            forgetting_weights(0, 1.0)

    @given(
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.1, max_value=20.0),
    )
    def test_normalized_and_strictly_decreasing(self, n, s):
        w = forgetting_weights(n, s)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert all(w[i] > w[i + 1] for i in range(n - 1))


class TestShortTerm:
    def test_small_population_returned_whole(self):
        recent = [make_embedding(float(i)) for i in range(3)]
        cfg = MemoryConfig(short_len_S=5, candidate_len_N=20)
        st_mem = refresh_short_term(recent, cfg, np.random.default_rng(0))
        assert len(st_mem) == 3

    def test_result_size_matches_s(self):
        recent = [make_embedding(float(i)) for i in range(20)]
        cfg = MemoryConfig(short_len_S=5, candidate_len_N=20)
        st_mem = refresh_short_term(recent, cfg, np.random.default_rng(0))
        assert len(st_mem) == 5

    def test_chronological_and_within_candidate_window(self):
        recent = [make_embedding(float(i)) for i in range(40)]
        cfg = MemoryConfig(short_len_S=5, candidate_len_N=20)
        st_mem = refresh_short_term(recent, cfg, np.random.default_rng(1))
        times = [u.source_timestamp for u in st_mem]
        assert times == sorted(times)
        assert min(times) >= 20.0  # never older than the N-th most recent

    def test_deterministic_given_seed(self):
        recent = [make_embedding(float(i)) for i in range(10)]
        cfg = MemoryConfig(short_len_S=3, candidate_len_N=20)
        a = refresh_short_term(recent, cfg, np.random.default_rng(7))
        b = refresh_short_term(recent, cfg, np.random.default_rng(7))
        assert [u.source_timestamp for u in a] == [u.source_timestamp for u in b]

    def test_pick_frequency_tracks_forgetting_curve(self):
        recent = [make_embedding(float(i)) for i in range(3)]
        cfg = MemoryConfig(short_len_S=1, candidate_len_N=20, forgetting_scale_s=1.0)
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        trials = 30_000
        for _ in range(trials):
            st_mem = refresh_short_term(recent, cfg, rng)
            counts[int(st_mem[0].source_timestamp)] += 1
        freqs = counts / trials
        # ages: newest (t=2) has weight 0.665
        assert np.allclose(freqs[::-1], [0.66524, 0.24473, 0.09003], atol=0.02)

    def test_pair_frequency_is_successive_sampling(self):
        # S=2 of 3: a pair {i, j} is drawn as i then j, or as j then i, each
        # later pick proportional to the weight left
        recent = [make_embedding(float(i)) for i in range(3)]
        cfg = MemoryConfig(short_len_S=2, candidate_len_N=20, forgetting_scale_s=1.0)
        p = forgetting_weights(3, 1.0)[::-1]  # chronological order, newest last
        rng = np.random.default_rng(43)
        trials = 30_000
        counts = {}
        for _ in range(trials):
            pair = tuple(int(u.source_timestamp) for u in refresh_short_term(recent, cfg, rng))
            counts[pair] = counts.get(pair, 0) + 1
        for i, j in ((0, 1), (0, 2), (1, 2)):
            expected = p[i] * p[j] / (1 - p[i]) + p[j] * p[i] / (1 - p[j])
            assert abs(counts.get((i, j), 0) / trials - expected) <= 0.015, (i, j)
        assert sum(counts.values()) == trials


class TestKMeans:
    def test_one_cluster_per_distinct_point(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        res = kmeans(points, k=3, seed=0)
        assert res.objective == 0.0
        assert {tuple(c) for c in res.centroids} == {tuple(p) for p in points}

    def test_two_clear_clusters(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        res = kmeans(points, k=2, seed=0)
        assert abs(res.objective - 1.0) <= 1e-9
        got = sorted(map(tuple, res.centroids))
        assert np.allclose(got, [(0.0, 0.5), (10.0, 10.5)])

    def test_duplicate_only_input_collapses(self):
        points = np.tile([3.0, 3.0], (5, 1))
        res = kmeans(points, k=2, seed=0)
        assert res.centroids.shape == (1, 2)
        assert np.allclose(res.centroids[0], [3.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            kmeans(np.array([[np.nan, 0.0]]), k=1, seed=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((10, 3))
        perm = rng.permutation(10)
        a = kmeans(points, k=3, seed=5)
        b = kmeans(points[perm], k=3, seed=5)
        assert abs(a.objective - b.objective) <= 1e-9
        assert np.allclose(
            sorted(map(tuple, a.centroids)), sorted(map(tuple, b.centroids))
        )

    def test_objective_monotone_per_iteration(self):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((30, 4))
        res = kmeans(points, k=4, seed=2)
        hist = res.objective_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    def test_matches_exhaustive_on_small_instances(self):
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(20):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            points = rng.standard_normal((m, 2))
            res = kmeans(points, k=k, seed=int(rng.integers(1 << 30)))
            if abs(res.objective - best_partition_objective(points, k)) <= 1e-9:
                hits += 1
        assert hits >= 18

    def test_cluster_emptied_mid_lloyd_pinned(self):
        # found by searching small integer inputs: the winning restart
        # empties a cluster during Lloyd's, so its result passes through
        # the reseed rule; the values are those of the restart-by-restart,
        # cluster-by-cluster implementation
        points = np.array([[4.0, 0.0], [0.0, 4.0], [0.0, 3.0], [5.0, 2.0], [5.0, 4.0], [4.0, 3.0]])
        res = kmeans(points, k=3, seed=359188)
        assert res.centroids.tolist() == [[0.0, 3.5], [4.0, 0.0], [4.666666666666667, 3.0]]
        assert res.objective_history == (
            25.805555555555554, 11.11111111111111, 3.166666666666667, 3.166666666666667
        )

    def test_batched_update_matches_cluster_loop(self):
        # random assignments empty clusters before and after the one holding
        # the farthest point, several at once, and leave that one empty too
        rng = np.random.default_rng(14201)
        for _ in range(300):
            r, m = int(rng.integers(1, 5)), int(rng.integers(2, 10))
            k, d = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            points = rng.standard_normal((m, d))
            dists = rng.random((r, m, k))
            nearest = rng.integers(0, k, (r, m))
            got = memory_core._update(points, dists, nearest)
            for i in range(r):
                want = lloyd_update_loop(points, dists[i], nearest[i])
                assert got[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", [False, True], ids=["normal", "integer-grid"])
    def test_matches_restart_by_restart_loop(self, grid):
        # bit for bit, with two or more columns: the batched update sums a
        # cluster's rows in the order mean(axis=0) does
        rng = np.random.default_rng(14202)
        for _ in range(40):
            m, d, k = int(rng.integers(4, 30)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
            if grid:
                points = rng.integers(0, 4, (m, d)).astype(float)
            else:
                points = rng.standard_normal((m, d))
            seed = int(rng.integers(1 << 30))
            canon = points[np.lexsort(points.T[::-1])]
            if k >= len(np.unique(canon, axis=0)):
                continue
            seeded = [
                memory_core._seed_centers(
                    canon, k, np.random.default_rng(derive_seed(seed, "kmeans-init", trial))
                )
                for trial in range(memory_core.N_INIT)
            ]
            centers, history = lloyd_loop(canon, seeded, memory_core.MAX_ITER)
            res = kmeans(points, k=k, seed=seed)
            assert res.centroids.tobytes() == centers.tobytes()
            assert res.objective_history == tuple(history)


class TestTree:
    def build_tree(self, n_units, cfg=None):
        cfg = cfg or small_cfg()
        tree = MemoryTree(cfg)
        captioner = TagCaptioner()
        encoder = hash_text_encode
        for i in range(n_units):
            chunk = chunk_at(2.0 * i, tags=(f"tag{i}",))
            tree.append(make_unit(chunk, cfg, i, captioner, encoder), captioner, encoder)
        return tree

    def test_single_unit_tree(self):
        tree = self.build_tree(1)
        assert [len(level) for level in tree.view()] == [1]

    def test_four_units_g2_gives_two_levels(self):
        tree = self.build_tree(4, small_cfg(group_size_g=2))
        assert [len(level) for level in tree.view()] == [4, 2]

    def test_ten_units_g3(self):
        tree = self.build_tree(10, small_cfg(group_size_g=3))
        assert [len(level) for level in tree.view()] == [10, 4, 2]

    def test_shape_law_sweep(self):
        for g in (2, 3, 10, 15):
            cfg = small_cfg(group_size_g=g)
            tree = MemoryTree(cfg)
            captioner = TagCaptioner()
            encoder = hash_text_encode
            for i in range(40):
                chunk = chunk_at(2.0 * i)
                tree.append(make_unit(chunk, cfg, i, captioner, encoder), captioner, encoder)
                assert [len(level) for level in tree.view()] == iterated_ceil_sizes(i + 1, g)

    def test_parent_spans_cover_children(self):
        tree = self.build_tree(7, small_cfg(group_size_g=2))
        check_tree_invariants(tree.view(), g=2)

    def test_parents_are_seeded_by_position(self, monkeypatch):
        # a parent's centroids come from the kmeans call that last built it;
        # its seed must name the parent's (level, index), however many times
        # the trailing parent was rebuilt on the way
        builds = []
        real_kmeans = memory_core.kmeans

        def recording_kmeans(points, k, seed):
            result = real_kmeans(points, k, seed)
            builds.append((seed, result))
            return result

        monkeypatch.setattr(memory_core, "kmeans", recording_kmeans)
        cfg = small_cfg(group_size_g=10)
        view = self.build_tree(25, cfg).view()
        assert [len(level) for level in view] == [25, 3]
        seed_of = {id(result.centroids): seed for seed, result in builds}
        for index, parent in enumerate(view[1]):
            assert seed_of[id(parent.centroids)] == derive_seed(cfg.rng_seed, "parent-l1", index)

    def test_parent_caption_unions_child_tags(self):
        tree = self.build_tree(4, small_cfg(group_size_g=2))
        top = tree.view()[-1]
        assert top[0].caption == "tag0, tag1"
        assert top[1].caption == "tag2, tag3"

    def test_chronology_enforced(self):
        cfg = small_cfg()
        tree = MemoryTree(cfg)
        captioner, encoder = TagCaptioner(), hash_text_encode
        tree.append(make_unit(chunk_at(10.0), cfg, 0, captioner, encoder), captioner, encoder)
        with pytest.raises(InputError):
            tree.append(make_unit(chunk_at(0.0), cfg, 1, captioner, encoder), captioner, encoder)


class TestDialogue:
    def make_store(self):
        return MemoryStore(small_cfg(), TagCaptioner(), hash_text_encode)

    def test_first_turn(self):
        store = self.make_store()
        store.on_answer("what is it", "a cup")
        (entry,) = store.snapshot().dialogue
        assert entry.turn_index == 0

    def test_append_only_in_order(self):
        store = self.make_store()
        for i in range(5):
            store.on_answer(f"q{i}", f"a{i}")
        turns = store.snapshot().dialogue
        assert [e.turn_index for e in turns] == list(range(5))
        assert [e.question for e in turns] == [f"q{i}" for i in range(5)]

    def test_encoding_deterministic(self):
        s1, s2 = self.make_store(), self.make_store()
        s1.on_answer("q", "a")
        s2.on_answer("q", "a")
        assert np.array_equal(s1.snapshot().dialogue[0].vec, s2.snapshot().dialogue[0].vec)

    def test_empty_question_rejected(self):
        with pytest.raises(InputError):
            self.make_store().on_answer("", "a")

    def test_blocks_double_and_entries_view_their_rows(self):
        store = self.make_store()
        for i in range(200):
            store.on_answer(f"q{i}", f"a{i}")
        snap = store.snapshot()
        assert [(len(rows), len(norms), first) for rows, norms, first
                in snap.dialogue_blocks] == [(64, 64, 0), (128, 128, 64), (256, 256, 192)]
        for entry in snap.dialogue:
            rows, norms, first = snap.dialogue_blocks[
                0 if entry.turn_index < 64 else 1 if entry.turn_index < 192 else 2]
            row = entry.turn_index - first
            assert np.shares_memory(entry.vec, rows[row])  # one copy of each vector
            assert not entry.vec.flags.writeable
            assert np.array_equal(entry.vec, hash_text_encode(f"Q: {entry.question} A: "
                                                              f"a{entry.turn_index}"))
            assert norms[row] == np.linalg.norm(entry.vec)

    @pytest.mark.parametrize("second,problem", [
        (np.ones(256), "width 256, where the first turn's is 512"),
        (np.full(512, np.nan), "non-finite values"),
        (np.full(512, 1e200), "a norm that overflows"),
        (np.ones((2, 256)), "a 2-D vector"),
        ("not a vector", "could not convert"),
    ], ids=["width", "nan", "overflow", "2-d", "text"])
    def test_bad_turn_vector_is_backend_error(self, second, problem):
        replies = iter([np.ones(512), second])
        store = MemoryStore(small_cfg(), TagCaptioner(), lambda text: next(replies))
        store.on_answer("q0", "a0")
        with pytest.raises(BackendError, match=f"^dialogue encoding failed: {problem}"):
            store.on_answer("q1", "a1")
        snap = store.snapshot()
        assert [e.question for e in snap.dialogue] == ["q0"]
        snap.check(2)

    def test_snapshot_answers_alike_after_later_turns(self):
        # later turns, across a block edge, repeat the questions asked, so
        # they would win every lookup that could see them
        store = self.make_store()
        for i in range(60):
            store.on_answer(f"what about w{i}", f"a{i}")
        snap = store.snapshot()
        cfg = small_cfg()
        questions = [f"what about w{i}" for i in (0, 30, 59, 99)] + ["unrelated words"]
        queries = [encode_query(text, hash_text_encode) for text in questions]
        before = [bundle_digest(assemble_context(snap, q, cfg)) for q in queries]
        for i in range(60, 140):
            store.on_answer(questions[i % len(questions)], f"b{i}")
        assert len(snap.dialogue) == 60
        assert [bundle_digest(assemble_context(snap, q, cfg)) for q in queries] == before
        latest = store.snapshot()
        assert (assemble_context(latest, queries[0], cfg).dialogue_context[1]
                != assemble_context(snap, queries[0], cfg).dialogue_context[1])


class TestStoreAndSnapshots:
    def make_store(self, cfg=None):
        cfg = cfg or small_cfg()
        return MemoryStore(cfg, TagCaptioner(), hash_text_encode)

    def test_snapshot_isolated_from_later_appends(self):
        store = self.make_store()
        store.on_chunk(chunk_at(0.0))
        snap = store.snapshot()
        store.on_chunk(chunk_at(2.0))
        assert len(snap.tree[0]) == 1
        assert len(store.snapshot().tree[0]) == 2

    def test_snapshots_without_writes_are_equal(self):
        store = self.make_store()
        store.on_chunk(chunk_at(0.0))
        a, b = store.snapshot(), store.snapshot()
        assert a.version == b.version
        assert a.tree == b.tree
        assert a.short_term == b.short_term

    def test_interleaved_snapshot_append_stress(self):
        cfg = small_cfg(group_size_g=3)
        store = self.make_store(cfg)
        for i in range(200):
            store.on_chunk(chunk_at(2.0 * i))
            snap = store.snapshot()
            snap.check(cfg.group_size_g)

    def test_chunk_flush_refreshes_short_term(self):
        store = self.make_store()
        store.on_chunk(chunk_at(0.0))
        assert store.snapshot().short_term

    def test_presets_match_published_table(self):
        assert (
            PRESETS["slow"].threshold_t,
            PRESETS["slow"].chunk_len_L,
            PRESETS["slow"].group_size_g,
            PRESETS["slow"].cluster_goal_C,
        ) == (0.13, 35, 15, 5)
        assert (
            PRESETS["base"].threshold_t,
            PRESETS["base"].chunk_len_L,
            PRESETS["base"].group_size_g,
            PRESETS["base"].cluster_goal_C,
        ) == (0.35, 25, 10, 5)
        assert (
            PRESETS["fast"].threshold_t,
            PRESETS["fast"].chunk_len_L,
            PRESETS["fast"].group_size_g,
            PRESETS["fast"].cluster_goal_C,
        ) == (0.58, 30, 15, 5)
