import numpy as np
import pytest

from avfuse.errors import AlignmentFailure, InvalidInput
from avfuse.timebase import (
    AudioClip,
    Frame,
    FrameBurst,
    align_audio_to_frames,
    validate_burst,
)


def make_burst(timestamps, shape=(16, 16)):
    return FrameBurst(tuple(Frame(np.zeros(shape, dtype=np.uint8), t) for t in timestamps))


def reference_window(samples, center, length):
    """Scalar index-by-index slice with zero padding, the alignment oracle."""
    out = np.zeros(length)
    start = center - length // 2
    for k in range(length):
        idx = start + k
        if 0 <= idx < len(samples):
            out[k] = samples[idx]
    return out


class TestAlignAudioToFrames:
    def test_canonical_burst_ten_windows_of_3200(self):
        burst = make_burst([i / 20.0 for i in range(10)])
        clip = AudioClip(np.ones(32000), 16000)
        windows = align_audio_to_frames(burst, clip)
        assert len(windows) == 10
        assert all(len(w.samples) == 3200 for w in windows)

    def test_single_frame_gets_whole_clip_length(self):
        burst = make_burst([0.5])
        clip = AudioClip(np.arange(16000) / 16000.0, 16000)
        windows = align_audio_to_frames(burst, clip)
        assert len(windows) == 1
        assert len(windows[0].samples) == 16000
        # Center at the clip midpoint: no overhang on either side.
        assert windows[0].pad_left == 0 and windows[0].pad_right == 0

    def test_frame_at_clip_start_pads_half_window_with_zeros(self):
        burst = make_burst([i / 20.0 for i in range(10)])
        clip = AudioClip(np.full(32000, 0.25), 16000)
        windows = align_audio_to_frames(burst, clip)
        first = windows[0]
        assert first.pad_left == 1600
        assert np.all(first.samples[:1600] == 0.0)
        assert np.all(first.samples[1600:] == 0.25)

    def test_windows_match_scalar_reference(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(-1, 1, size=4800)
        clip = AudioClip(samples, 16000)
        burst = make_burst([0.0, 0.11, 0.21, 0.299])
        length = 4800 // 4
        for window in align_audio_to_frames(burst, clip):
            t = burst.frames[window.frame_index].timestamp
            center = round(t * 16000)
            np.testing.assert_array_equal(window.samples, reference_window(samples, center, length))

    def test_alignment_is_deterministic(self):
        rng = np.random.default_rng(3)
        clip = AudioClip(rng.uniform(-1, 1, size=32000), 16000)
        burst = make_burst([i / 20.0 for i in range(10)])
        a = align_audio_to_frames(burst, clip)
        b = align_audio_to_frames(burst, clip)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.samples, wb.samples)

    def test_non_padded_sample_budget_and_pad_bounds(self):
        clip = AudioClip(np.ones(1000), 1000)
        for timestamps in ([0.0, 0.4, 0.99], [0.45, 0.5, 0.52, 0.55], [0.1]):
            burst = make_burst(timestamps)
            windows = align_audio_to_frames(burst, clip)
            non_padded = sum(len(w.samples) - w.pad_left - w.pad_right for w in windows)
            assert non_padded <= len(clip.samples)
            for w in windows:
                assert 0 <= w.pad_left <= len(w.samples)
                assert 0 <= w.pad_right <= len(w.samples)

    def test_empty_inputs_rejected(self):
        clip = AudioClip(np.ones(100), 100)
        with pytest.raises(InvalidInput):
            align_audio_to_frames(make_burst([]), clip)
        with pytest.raises(InvalidInput):
            align_audio_to_frames(make_burst([0.0]), AudioClip(np.array([]), 100))

    def test_far_outside_frame_names_its_index(self):
        clip = AudioClip(np.ones(1000), 1000)  # 1 s clip, window length 500
        burst = make_burst([0.0, 5.0])
        with pytest.raises(AlignmentFailure) as err:
            align_audio_to_frames(burst, clip)
        assert err.value.frame_index == 1

    def test_just_outside_is_fully_padded_not_an_error(self):
        clip = AudioClip(np.ones(1000), 1000)
        burst = make_burst([0.0, 1.4])  # center 1400, within one window (500) of span end
        windows = align_audio_to_frames(burst, clip)
        assert windows[1].pad_left + windows[1].pad_right == len(windows[1].samples)
        assert np.all(windows[1].samples == 0.0)


class TestValidateBurst:
    def test_canonical_burst_is_clean(self):
        report = validate_burst(make_burst([i / 20.0 for i in range(10)]))
        assert report.ok
        assert report.violations == ()

    def test_equal_timestamps_flagged_once(self):
        report = validate_burst(make_burst([0.1, 0.1]))
        assert len(report.violations) == 1
        assert "timestamp" in report.violations[0]

    def test_mixed_dimensions_flagged_per_offender(self):
        frames = (
            Frame(np.zeros((16, 16), dtype=np.uint8), 0.0),
            Frame(np.zeros((8, 16), dtype=np.uint8), 0.1),
            Frame(np.zeros((16, 8), dtype=np.uint8), 0.2),
        )
        report = validate_burst(FrameBurst(frames))
        dim_violations = [v for v in report.violations if "dimensions" in v]
        assert len(dim_violations) == 2

    def test_empty_burst_reported_not_raised(self):
        report = validate_burst(FrameBurst(()))
        assert not report.ok
