import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_embedding
from streammem.errors import InputError
from streammem.frame_gate import Frame, make_chunk
from streammem.harness import smooth_texture
from streammem.ports import (
    EchoGenerator,
    StubFrameEncoder,
    TagCaptioner,
    exact_match_judge,
    hash_text_encode,
)
from streammem.retrieval import EMPTY_PATH, PromptBundle, cosine_similarity


class TestHashTextEncode:
    def test_deterministic_and_unit_norm(self):
        a = hash_text_encode("red cup")
        b = hash_text_encode("red cup")
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12

    def test_empty_text_zero_vector(self):
        assert np.linalg.norm(hash_text_encode("")) == 0.0

    def test_case_and_punctuation_insensitive(self):
        assert np.array_equal(hash_text_encode("Red Cup!"), hash_text_encode("red cup"))

    def test_shared_tokens_raise_cosine(self):
        base = hash_text_encode("red cup on table")
        related = hash_text_encode("red cup")
        unrelated = hash_text_encode("blue door")
        assert cosine_similarity(base, related) > cosine_similarity(base, unrelated)

    def test_token_overlap_beats_disjoint_over_corpus(self):
        rng = np.random.default_rng(0)
        words = [f"word{i}" for i in range(60)]
        wins = 0
        for _ in range(100):
            picks = rng.choice(len(words), size=6, replace=False)
            doc = " ".join(words[i] for i in picks[:4])
            overlapping = " ".join(words[i] for i in picks[:2])
            disjoint = " ".join(words[i] for i in picks[4:])
            d = hash_text_encode(doc)
            if cosine_similarity(d, hash_text_encode(overlapping)) > cosine_similarity(
                d, hash_text_encode(disjoint)
            ):
                wins += 1
        assert wins >= 95


class TestStubFrameEncoder:
    def frame(self, seed=0, tags=("kitchen",), t=0.0):
        # cutoff pinned: the jitter test below needs a texture whose histogram
        # sits comfortably inside its quantization bins
        tex = smooth_texture(np.random.default_rng(seed), 32, cutoff=4)
        return Frame(pixels=tex, timestamp=t, tags=tags)

    def test_deterministic(self):
        enc = StubFrameEncoder()
        a, b = enc(self.frame()), enc(self.frame())
        assert np.array_equal(a.tokens, b.tokens)

    def test_shape_contract(self):
        enc = StubFrameEncoder()
        e = enc(self.frame())
        assert e.tokens.shape == (4, 32)

    def test_near_equal_frames_encode_identically(self):
        enc = StubFrameEncoder()
        f = self.frame()
        jittered = Frame(
            pixels=np.clip(f.pixels + 1e-4, 0, 1), timestamp=1.0, tags=f.tags
        )
        assert np.array_equal(enc(f).tokens, enc(jittered).tokens)

    def test_same_scene_closer_than_different_scene(self):
        enc = StubFrameEncoder()
        same_a = enc(self.frame(seed=1, tags=("kitchen",)))
        same_b = enc(
            Frame(
                pixels=np.roll(
                    smooth_texture(np.random.default_rng(1), 32), 1, axis=1
                ),
                timestamp=1.0,
                tags=("kitchen",),
            )
        )
        other = enc(self.frame(seed=9, tags=("garden",)))

        def mean_cos(a, b):
            return cosine_similarity(a.tokens.mean(axis=0), b.tokens.mean(axis=0))

        assert mean_cos(same_a, same_b) > mean_cos(same_a, other)

    @staticmethod
    def block_mean_key(pixels):
        """The key as one mean() per cell: the reference."""
        h, w = pixels.shape
        cells = []
        for i in range(4):
            for j in range(4):
                block = pixels[i * h // 4 : (i + 1) * h // 4, j * w // 4 : (j + 1) * w // 4]
                cells.append(int(round(float(block.mean()) * (StubFrameEncoder.HIST_LEVELS - 1))))
        return bytes(cells)

    @pytest.mark.parametrize("shape", [(48, 48), (50, 37), (5, 4)])
    def test_histogram_key_is_quantized_block_means(self, shape):
        rng = np.random.default_rng(14401)
        for _ in range(50):
            pixels = rng.random(shape)
            assert StubFrameEncoder()._histogram_key(pixels) == self.block_mean_key(pixels)

    @pytest.mark.parametrize("seed", [115, 343])
    def test_histogram_key_at_a_rounding_boundary(self, seed):
        # 8-bit frames can put a cell mean exactly halfway between two
        # levels, where the order of summation decides the rounding
        levels = np.random.default_rng(seed).integers(0, 256, (8, 8))
        # a cell's level is 7 * sum / (255 * 4), a half level when
        # 2 * 7 * sum is an odd multiple of 255 * 4
        twice = 2 * 7 * levels.reshape(4, 2, 4, 2).sum(axis=(1, 3))
        assert ((twice % (255 * 4) == 0) & (twice // (255 * 4) % 2 == 1)).any()
        pixels = levels / 255.0
        assert StubFrameEncoder()._histogram_key(pixels) == self.block_mean_key(pixels)

    def test_frame_smaller_than_histogram_grid_rejected(self):
        with pytest.raises(InputError):
            StubFrameEncoder()(Frame(pixels=np.full((3, 8), 0.5), timestamp=0.0))


class TestTagCaptioner:
    def test_single_tag(self):
        chunk = make_chunk([make_embedding(0.0, tags=("kitchen",))])
        assert TagCaptioner().caption_chunk(chunk) == "kitchen"

    def test_summary_sorted_union(self):
        cap = TagCaptioner()
        assert cap.summarize(["kitchen", "garden"]) == "garden, kitchen"

    def test_untagged_fallback(self):
        chunk = make_chunk([make_embedding(0.0)])
        assert TagCaptioner().caption_chunk(chunk) == "unknown"

    def test_summary_drops_unknown_when_tags_exist(self):
        assert TagCaptioner().summarize(["unknown", "pier"]) == "pier"


class TestJudge:
    def test_exact_match_full_score(self):
        assert exact_match_judge("q", "a red cup", "a red cup") == ("yes", 5)

    def test_disjoint_zero(self):
        assert exact_match_judge("q", "red cup", "blue door") == ("no", 0)

    def test_half_f1_rounds_to_even(self):
        # reference {a}, prediction {a, b, c}: F1 = 0.5 -> round(2.5) = 2
        verdict, score = exact_match_judge("q", "alpha", "alpha beta gamma")
        assert (verdict, score) == ("no", 2)

    def test_empty_strings(self):
        assert exact_match_judge("q", "", "") == ("yes", 5)
        assert exact_match_judge("q", "ref", "") == ("no", 0)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=50)
    def test_score_range_and_symmetry_of_perfect(self, ref, pred):
        verdict, score = exact_match_judge("q", ref, pred)
        assert 0 <= score <= 5
        assert verdict == ("yes" if score >= 3 else "no")


class TestEchoGenerator:
    def test_echoes_caption_and_dialogue(self):
        bundle = PromptBundle(
            short_term=(),
            dialogue_context=("what was it", "a cup"),
            question="q",
            path=EMPTY_PATH,
        )
        text = EchoGenerator()(bundle)
        assert "what was it" in text and "a cup" in text

    def test_empty_bundle_fallback(self):
        bundle = PromptBundle(short_term=(), dialogue_context=None, question="q")
        assert EchoGenerator()(bundle) == "no visual memory yet"
