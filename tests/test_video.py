"""Unit tests for frames, sequences, synthetic generators and raw I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.video.frame import Frame, VideoSequence, MB_SIZE, QCIF_HEIGHT, QCIF_WIDTH
from repro.video.io import (
    read_raw_luma,
    write_pgm,
    write_ppm,
    write_raw_luma,
    yuv420_to_rgb,
)
from repro.video.synthetic import (
    SEQUENCE_GENERATORS,
    SyntheticConfig,
    akiyo_like,
    foreman_like,
    garden_like,
    generate_sequence,
)


class TestFrame:
    def test_valid_frame(self, rng):
        pixels = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        frame = Frame(pixels, 3)
        assert frame.width == 64 and frame.height == 48
        assert frame.mb_rows == 3 and frame.mb_cols == 4
        assert frame.index == 3

    def test_macroblock_extraction(self, rng):
        pixels = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        frame = Frame(pixels)
        mb = frame.macroblock(2, 3)
        np.testing.assert_array_equal(mb, pixels[32:48, 48:64])
        with pytest.raises(IndexError):
            frame.macroblock(3, 0)

    def test_rejects_bad_dtype(self):
        with pytest.raises(TypeError):
            Frame(np.zeros((48, 64), dtype=np.float64))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((50, 64), dtype=np.uint8))
        with pytest.raises(ValueError):
            Frame(np.zeros((48, 64, 3), dtype=np.uint8))


class TestVideoSequence:
    def test_rejects_mixed_sizes(self, rng):
        frames = (
            Frame(np.zeros((16, 16), dtype=np.uint8), 0),
            Frame(np.zeros((16, 32), dtype=np.uint8), 1),
        )
        with pytest.raises(ValueError):
            VideoSequence(frames)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VideoSequence(())

    def test_clip(self, sequence):
        clipped = sequence.clip(3)
        assert len(clipped) == 3
        with pytest.raises(ValueError):
            sequence.clip(0)


class TestSyntheticGenerators:
    def test_deterministic(self):
        a = foreman_like(n_frames=5, seed=3)
        b = foreman_like(n_frames=5, seed=3)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.pixels, fb.pixels)

    def test_different_seeds_differ(self):
        a = foreman_like(n_frames=3, seed=1)
        b = foreman_like(n_frames=3, seed=2)
        assert (a[0].pixels != b[0].pixels).any()

    def test_qcif_dimensions(self):
        seq = akiyo_like(n_frames=2)
        assert seq.width == QCIF_WIDTH and seq.height == QCIF_HEIGHT

    def test_registry_names(self):
        assert set(SEQUENCE_GENERATORS) == {"foreman", "akiyo", "garden"}
        for name, gen in SEQUENCE_GENERATORS.items():
            seq = gen(2)
            assert seq.name == name

    def test_motion_profiles_ordered(self):
        """akiyo < foreman < garden in temporal activity (the property
        the paper's sequence choice is built on)."""

        def activity(seq):
            total = 0
            for a, b in zip(seq.frames, seq.frames[1:]):
                total += np.abs(
                    a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
                ).mean()
            return total / (len(seq) - 1)

        akiyo = activity(akiyo_like(n_frames=12))
        foreman = activity(foreman_like(n_frames=12))
        garden = activity(garden_like(n_frames=12))
        assert akiyo < foreman < garden

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(width=50)
        with pytest.raises(ValueError):
            SyntheticConfig(n_frames=0)
        with pytest.raises(ValueError):
            SyntheticConfig(texture_drift=-1)
        with pytest.raises(ValueError):
            SyntheticConfig(camera_jitter=-0.5)

    def test_custom_size(self):
        seq = generate_sequence(
            SyntheticConfig(width=64, height=48, n_frames=2), name="tiny"
        )
        assert seq.width == 64 and seq.height == 48

    def test_pixels_are_uint8_full_range_safe(self):
        seq = garden_like(n_frames=3)
        for frame in seq:
            assert frame.pixels.dtype == np.uint8


class TestRawIO:
    def test_roundtrip(self, tmp_path, sequence):
        path = tmp_path / "clip.yuv"
        written = write_raw_luma(sequence, path)
        assert written == len(sequence) * sequence.width * sequence.height
        loaded = read_raw_luma(
            path, sequence.width, sequence.height, name="clip"
        )
        assert len(loaded) == len(sequence)
        for a, b in zip(sequence, loaded):
            np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_max_frames(self, tmp_path, sequence):
        path = tmp_path / "clip.yuv"
        write_raw_luma(sequence, path)
        loaded = read_raw_luma(path, sequence.width, sequence.height, max_frames=2)
        assert len(loaded) == 2

    def test_rejects_partial_file(self, tmp_path):
        path = tmp_path / "bad.yuv"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError):
            read_raw_luma(path, 64, 48)

    def test_default_name_from_stem(self, tmp_path, sequence):
        path = tmp_path / "foreman.yuv"
        write_raw_luma(sequence, path)
        loaded = read_raw_luma(path, sequence.width, sequence.height)
        assert loaded.name == "foreman"


class TestImageWriters:
    def _colour_frame(self, rng):
        luma = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        cb = rng.integers(0, 256, (24, 32)).astype(np.uint8)
        cr = rng.integers(0, 256, (24, 32)).astype(np.uint8)
        return Frame(luma, 0, cb, cr)

    def test_pgm_header_and_size(self, tmp_path, rng):
        frame = Frame(rng.integers(0, 256, (48, 64)).astype(np.uint8), 0)
        path = tmp_path / "out.pgm"
        write_pgm(frame, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n64 48\n255\n")
        assert len(data) == len(b"P5\n64 48\n255\n") + 48 * 64

    def test_ppm_header_and_size(self, tmp_path, rng):
        frame = self._colour_frame(rng)
        path = tmp_path / "out.ppm"
        write_ppm(frame, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n64 48\n255\n")
        assert len(data) == len(b"P6\n64 48\n255\n") + 48 * 64 * 3

    def test_rgb_conversion_grey_point(self):
        luma = np.full((16, 16), 77, dtype=np.uint8)
        neutral = np.full((8, 8), 128, dtype=np.uint8)
        rgb = yuv420_to_rgb(Frame(luma, 0, neutral, neutral))
        # Neutral chroma: R = G = B = Y.
        assert (rgb == 77).all()

    def test_rgb_conversion_red_shift(self):
        luma = np.full((16, 16), 128, dtype=np.uint8)
        cb = np.full((8, 8), 128, dtype=np.uint8)
        cr = np.full((8, 8), 200, dtype=np.uint8)
        rgb = yuv420_to_rgb(Frame(luma, 0, cb, cr))
        assert rgb[0, 0, 0] > rgb[0, 0, 1]  # red above green
        assert rgb[0, 0, 0] > rgb[0, 0, 2]  # red above blue

    def test_rgb_requires_chroma(self, rng):
        frame = Frame(rng.integers(0, 256, (16, 16)).astype(np.uint8), 0)
        with pytest.raises(ValueError):
            yuv420_to_rgb(frame)


class TestSyntheticChroma:
    def test_chroma_planes_generated(self):
        seq = generate_sequence(
            SyntheticConfig(width=64, height=48, n_frames=3, chroma=True),
            name="c",
        )
        assert seq.has_chroma
        for frame in seq:
            assert frame.cb.shape == (24, 32)
            assert frame.cr.dtype == np.uint8

    def test_chroma_deterministic(self):
        cfg = SyntheticConfig(
            width=64, height=48, n_frames=3, chroma=True, seed=9
        )
        a = generate_sequence(cfg, name="a")
        b = generate_sequence(cfg, name="b")
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.cb, fb.cb)
            np.testing.assert_array_equal(fa.cr, fb.cr)

    def test_object_tints_chroma(self):
        cfg = SyntheticConfig(
            width=64,
            height=48,
            n_frames=1,
            chroma=True,
            object_radius=12,
            object_motion_amplitude=4.0,
            seed=3,
        )
        frame = generate_sequence(cfg, name="t")[0]
        # The warm foreground tint raises Cr around the object centre
        # relative to the frame's background mean.
        centre = frame.cr[10:16, 12:20].astype(np.float64).mean()
        background = frame.cr[:4, :].astype(np.float64).mean()
        assert centre > background + 5

    def test_luma_only_by_default(self):
        seq = generate_sequence(
            SyntheticConfig(width=64, height=48, n_frames=2), name="g"
        )
        assert not seq.has_chroma

    def test_chroma_pans_with_luma(self):
        cfg = SyntheticConfig(
            width=64,
            height=48,
            n_frames=4,
            chroma=True,
            pan_speed=4.0,
            sensor_noise=0.0,
            seed=5,
        )
        seq = generate_sequence(cfg, name="p")
        # Panning moves the chroma field too: consecutive Cb planes
        # differ, and frame 0 shifted by 2 (half of 4 px at 4:2:0)
        # matches frame 1 better than unshifted.
        a = seq[1].cb.astype(np.int64)
        b = seq[2].cb.astype(np.int64)
        unshifted = np.abs(a - b).mean()
        shifted = np.abs(a[:, 2:] - b[:, :-2]).mean()
        assert shifted < unshifted
