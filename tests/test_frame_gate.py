import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_frame, make_embedding
from oracles import ssd_shift
from streammem.errors import InputError
from streammem.frame_gate import (
    Frame,
    FrameGate,
    GateConfig,
    MotionReference,
    VisionBuffer,
    make_chunk,
)
from streammem.harness import SceneDef, SceneSpec, smooth_texture, synth_scenes


def texture_frame(seed, t=0.0, size=48, cutoff=2, tags=()):
    tex = smooth_texture(np.random.default_rng(seed), size, cutoff=cutoff)
    return Frame(pixels=tex, timestamp=t, tags=tags)


class TestEstimateMotion:
    def test_identical_frames_zero_motion(self):
        f = texture_frame(0)
        est = MotionReference.of(f).motion_to(Frame(pixels=f.pixels, timestamp=1.0))
        assert est.u == 0.0 and est.v == 0.0
        assert est.magnitude == 0.0
        assert not est.degenerate

    def test_flat_frames_degenerate(self):
        est = MotionReference.of(flat_frame(0.2, 0.0)).motion_to(flat_frame(0.8, 1.0))
        assert est.degenerate
        assert est.magnitude == 0.0

    def test_dimension_mismatch(self):
        a = Frame(pixels=np.zeros((8, 8)), timestamp=0.0)
        b = Frame(pixels=np.zeros((8, 9)), timestamp=1.0)
        with pytest.raises(InputError):
            MotionReference.of(a).motion_to(b)

    def test_recovers_unit_right_shift(self):
        f = texture_frame(7)
        cur = Frame(pixels=np.roll(f.pixels, 1, axis=1), timestamp=1.0)
        est = MotionReference.of(f).motion_to(cur)
        dx, dy = ssd_shift(f.pixels, cur.pixels)
        assert (dx, dy) == (1, 0)
        assert abs(est.u - 1) <= 0.5
        assert abs(est.v) <= 0.5

    def test_antisymmetric_in_shift_direction(self):
        f = texture_frame(11)
        ref = MotionReference.of(f)
        right = ref.motion_to(Frame(pixels=np.roll(f.pixels, 2, axis=1), timestamp=1.0))
        left = ref.motion_to(Frame(pixels=np.roll(f.pixels, -2, axis=1), timestamp=1.0))
        assert right.u > 0 > left.u
        assert abs(right.u + left.u) <= 1.0

    def test_downsampled_frames_rescale_displacement(self):
        # 128-px frame is strided down to <=64; u must still be in source px
        tex = smooth_texture(np.random.default_rng(3), 128, cutoff=2)
        est = MotionReference.of(Frame(pixels=tex, timestamp=0.0)).motion_to(
            Frame(pixels=np.roll(tex, 2, axis=1), timestamp=1.0)
        )
        assert abs(est.u - 2) <= 1.0

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_magnitude_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        a = Frame(pixels=rng.random((16, 16)), timestamp=0.0)
        b = Frame(pixels=rng.random((16, 16)), timestamp=1.0)
        est = MotionReference.of(a).motion_to(b)
        assert 0.0 <= est.magnitude <= 1.0
        if est.degenerate:
            assert est.magnitude == 0.0


    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_gradients_are_np_gradient_bits(self, data):
        # from 2 x 2 up to 64 x 64 kept whole, and larger frames strided down,
        # some of them views of a wider array
        side = st.integers(2, 64) if data.draw(st.booleans()) else st.integers(65, 300)
        shape = (data.draw(side), data.draw(side))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pixels = rng.random((shape[0], 2 * shape[1]))[:, ::2] if data.draw(st.booleans()) \
            else rng.random(shape)
        ref = MotionReference.of(Frame(pixels=pixels, timestamp=0.0))
        assert ref.stride == (1 if max(shape) <= 64 else math.ceil(max(shape) / 64))
        want_iy, want_ix = np.gradient(pixels[:: ref.stride, :: ref.stride])
        assert ref.iy.tobytes() == want_iy.tobytes()
        assert ref.ix.tobytes() == want_ix.tobytes()
        assert ref.sxy == float(np.sum(want_ix * want_iy))


class TestGate:
    def test_first_frame_always_kept(self):
        gate = FrameGate(GateConfig(threshold_t=0.9))
        decision = gate.update(flat_frame(0.5, 0.0))
        assert decision.kept
        assert decision.magnitude == 1.0

    def test_keep_above_drop_below_threshold(self):
        # threshold 0.35: shift of ~1.2px -> magnitude ~0.4 keeps,
        # shift ~0.6px -> magnitude ~0.2 drops
        cfg = GateConfig(threshold_t=0.35)
        gate = FrameGate(cfg)
        base = texture_frame(5)
        gate.update(base)
        kept = gate.update(Frame(pixels=np.roll(base.pixels, 2, axis=1), timestamp=1.0))
        assert kept.kept and kept.magnitude > 0.35
        gate2 = FrameGate(cfg)
        gate2.update(base)
        dropped = gate2.update(Frame(pixels=np.roll(base.pixels, 1, axis=1), timestamp=1.0))
        assert not dropped.kept and dropped.magnitude <= 0.35

    def test_identical_stream_keeps_exactly_one(self):
        for threshold in (0.1, 0.5, 0.9):
            gate = FrameGate(GateConfig(threshold_t=threshold))
            f = texture_frame(9)
            kept = sum(
                gate.update(Frame(pixels=f.pixels, timestamp=float(i))).kept
                for i in range(20)
            )
            assert kept == 1

    def test_kept_count_non_increasing_in_threshold(self):
        tex = smooth_texture(np.random.default_rng(21), 48, cutoff=2)
        frames = [
            Frame(pixels=np.roll(tex, i, axis=1), timestamp=float(i)) for i in range(30)
        ]
        counts = []
        for threshold in np.arange(0.1, 1.0, 0.1):
            gate = FrameGate(GateConfig(threshold_t=float(threshold)))
            counts.append(sum(gate.update(f).kept for f in frames))
        assert counts == sorted(counts, reverse=True)

    def test_magnitudes_equal_estimate_motion_against_last_kept(self):
        # the gate keeps the kept frame's gradients; each decision must still
        # be the motion from that frame, on noisy frames that are not shifts
        scenes = (SceneDef(("a",), 6.0, 0.5), SceneDef(("b",), 6.0, 0.15))
        frames = list(synth_scenes(SceneSpec(scenes=scenes, fps=5.0, noise=0.03, seed=14301)))
        gate = FrameGate(GateConfig(threshold_t=0.35))
        last_kept = frames[0]
        assert gate.update(last_kept).kept
        outcomes = set()
        for f in frames[1:]:
            decision = gate.update(f)
            assert decision.magnitude == MotionReference.of(last_kept).motion_to(f).magnitude
            outcomes.add(decision.kept)
            if decision.kept:
                last_kept = f
        assert outcomes == {True, False}

    def test_frame_size_change_rejected(self):
        gate = FrameGate(GateConfig())
        gate.update(texture_frame(0, size=48))
        with pytest.raises(InputError):
            gate.update(texture_frame(1, t=1.0, size=32))


class TestVisionBuffer:
    def test_capacity_rule(self):
        buf = VisionBuffer(capacity=3)
        assert buf.push(make_embedding(0.0)) is None
        assert buf.push(make_embedding(1.0)) is None
        chunk = buf.push(make_embedding(2.0))
        assert chunk is not None
        assert len(chunk) == 3
        assert chunk.span == (0.0, 2.0)
        assert buf.entries == []

    def test_capacity_one_emits_every_push(self):
        buf = VisionBuffer(capacity=1)
        for i in range(4):
            chunk = buf.push(make_embedding(float(i)))
            assert chunk is not None and len(chunk) == 1

    def test_base_preset_capacity(self):
        buf = VisionBuffer(capacity=25)
        chunks = [buf.push(make_embedding(float(i))) for i in range(50)]
        emitted = [c for c in chunks if c is not None]
        assert len(emitted) == 2
        assert all(len(c) == 25 for c in emitted)

    def test_flush_emits_partial_chunk(self):
        buf = VisionBuffer(capacity=5)
        buf.push(make_embedding(0.0))
        buf.push(make_embedding(1.0))
        chunk = buf.flush()
        assert chunk is not None and len(chunk) == 2
        assert buf.flush() is None

    def test_chunk_tags_are_sorted_union(self):
        chunk = make_chunk(
            [make_embedding(0.0, tags=("b", "a")), make_embedding(1.0, tags=("c", "a"))]
        )
        assert chunk.tags == ("a", "b", "c")


class TestPgm:
    def test_roundtrip_p5(self, tmp_path):
        raw = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 3\n255\n" + raw.tobytes())
        frame = Frame.from_pgm(path, timestamp=0.5)
        assert frame.pixels.shape == (3, 4)
        assert np.allclose(frame.pixels, raw / 255.0)

    @pytest.mark.parametrize("data", [b"P5\n2 1\n15\n\x0f\x05", b"P2\n2 1\n15\n15 5\n"])
    def test_samples_scale_by_maxval(self, tmp_path, data):
        path = tmp_path / "f.pgm"
        path.write_bytes(data)
        assert np.array_equal(Frame.from_pgm(path, timestamp=0.0).pixels, [[1.0, 5 / 15]])

    @pytest.mark.parametrize("data", [b"P5\n2 1\n15\n\x10\x05", b"P2\n2 1\n255\n300 5\n"])
    def test_sample_above_maxval_is_input_error(self, tmp_path, data):
        path = tmp_path / "f.pgm"
        path.write_bytes(data)
        with pytest.raises(InputError, match="outside"):
            Frame.from_pgm(path, timestamp=0.0)

    def test_bad_pgm_is_input_error(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7 nonsense")
        with pytest.raises(InputError):
            Frame.from_pgm(path, timestamp=0.0)

    @pytest.mark.parametrize("data", [b"P5\n-1 1\n255\n\x01\x02\x03",
                                      b"P5\n3 -1\n255\n\x01\x02\x03",
                                      b"P2\n0 1\n255\n"])
    def test_dimension_below_one_is_input_error(self, tmp_path, data):
        path = tmp_path / "f.pgm"
        path.write_bytes(data)
        with pytest.raises(InputError, match="cannot parse PGM .*not positive"):
            Frame.from_pgm(path, timestamp=0.0)

    def test_p2_sample_that_is_not_an_integer_is_input_error(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P2\n2 1\n255\n0 1.5\n")
        with pytest.raises(InputError, match="cannot parse PGM .*1.5"):
            Frame.from_pgm(path, timestamp=0.0)
