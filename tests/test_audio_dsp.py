import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse.audio_dsp import (
    CWT_FMAX_HZ,
    CWT_FMIN_HZ,
    CWT_SCALES,
    cwt_scalogram,
    default_cwt_scales,
    hann_window,
    mel_filterbank,
    mel_spectrogram,
    morlet_wavelet,
    spectral_stats,
    stft,
)
from avfuse.errors import InvalidInput

SR = 16000


def naive_dft_magnitude(frame):
    """O(N^2) one-sided DFT magnitude, the STFT oracle."""
    n = len(frame)
    ks = np.arange(n // 2 + 1)
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        out[i] = abs(np.sum(frame * np.exp(-2j * np.pi * k * np.arange(n) / n)))
    return out


def sine(freq, n=32000, sr=SR, amp=1.0):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / sr)


class TestStft:
    def test_frame_count_and_bins(self):
        spec = stft(np.zeros(32000), 1024, 512, SR)
        assert spec.magnitudes.shape == (61, 513)

    def test_zero_input_zero_magnitudes(self):
        spec = stft(np.zeros(4096), 1024, 512, SR)
        assert np.all(spec.magnitudes == 0.0)

    def test_bin_centered_sine_dominates(self):
        # 1000 Hz is bin 64 of a 1024-point window at 16 kHz.
        spec = stft(sine(1000.0, n=8192), 1024, 512, SR)
        for row in spec.magnitudes:
            peak_bin = int(np.argmax(row))
            assert peak_bin == 64
            others = np.delete(row, [peak_bin - 1, peak_bin, peak_bin + 1])
            assert row[peak_bin] >= 10.0 * others.max()

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform(-1, 1, size=300)
        spec = stft(samples, 64, 32, SR)
        window = hann_window(64)
        for i in range(spec.magnitudes.shape[0]):
            frame = samples[i * 32:i * 32 + 64] * window
            np.testing.assert_allclose(spec.magnitudes[i], naive_dft_magnitude(frame), atol=1e-9)

    def test_short_input_rejected(self):
        with pytest.raises(InvalidInput):
            stft(np.zeros(100), 1024, 512, SR)

    def test_non_power_of_two_window_rejected(self):
        with pytest.raises(InvalidInput):
            stft(np.zeros(4096), 1000, 512, SR)


class TestMelSpectrogram:
    def test_zero_in_zero_out(self):
        spec = stft(np.zeros(32000), 1024, 512, SR)
        assert np.all(mel_spectrogram(spec) == 0.0)

    def test_output_shape_64_bands(self):
        spec = stft(np.zeros(32000), 1024, 512, SR)
        assert mel_spectrogram(spec).shape == (61, 64)

    def test_white_noise_lights_every_band(self):
        rng = np.random.default_rng(5)
        spec = stft(rng.uniform(-1, 1, size=32000), 1024, 512, SR)
        assert np.all(mel_spectrogram(spec).sum(axis=0) > 0.0)

    def test_interior_bins_covered_by_filterbank(self):
        filters = mel_filterbank(1024, SR)
        per_bin = filters.sum(axis=0)
        assert np.all(per_bin[1:-1] > 0.0)

    def test_total_weight_per_bin_at_most_one(self):
        filters = mel_filterbank(1024, SR)
        assert filters.sum(axis=0).max() <= 1.0 + 1e-12

    def test_cached_filterbank_is_read_only_and_equal_to_a_fresh_build(self):
        cached = mel_filterbank(1024, SR)
        assert mel_filterbank(1024, SR) is cached
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
        np.testing.assert_array_equal(cached, mel_filterbank.__wrapped__(1024, SR))

    def test_parseval_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            spec = stft(rng.uniform(-1, 1, size=8192), 512, 256, SR)
            assert mel_spectrogram(spec).sum() <= (spec.magnitudes ** 2).sum() + 1e-9


class TestCwtScalogram:
    def test_zero_signal_zero_coefficients(self):
        scales = default_cwt_scales(SR)
        sc = cwt_scalogram(np.zeros(2048), scales)
        assert np.all(sc == 0.0)
        assert sc.shape == (32, 2048)

    def test_scales_strictly_increasing(self):
        scales = default_cwt_scales(SR)
        assert np.all(np.diff(scales) > 0)

    @pytest.mark.parametrize("freq", [440.0, 1000.0, 3000.0])
    def test_sine_peaks_at_nearest_pseudo_frequency(self, freq):
        sc = cwt_scalogram(sine(freq, n=4096), default_cwt_scales(SR))
        power = sc[:, 1024:3072].mean(axis=1)
        best = int(np.argmax(power))
        pseudo_frequencies = np.geomspace(CWT_FMAX_HZ, CWT_FMIN_HZ, CWT_SCALES)
        nearest = int(np.argmin(np.abs(pseudo_frequencies - freq)))
        assert best == nearest

    def test_impulse_reproduces_wavelet_envelope(self):
        n = 512
        signal = np.zeros(n)
        signal[n // 2] = 1.0
        scales = np.array([8.0, 20.0])
        sc = cwt_scalogram(signal, scales)
        for i, scale in enumerate(scales):
            psi = morlet_wavelet(scale)
            half = (len(psi) - 1) // 2
            got = sc[i, n // 2 - half:n // 2 + half + 1]
            np.testing.assert_allclose(got, np.abs(psi), atol=1e-12)

    def test_matches_direct_convolution_oracle_at_one_scale(self):
        rng = np.random.default_rng(2)
        signal = rng.uniform(-1, 1, size=256)
        scale = 6.0
        sc = cwt_scalogram(signal, np.array([scale]))
        psi = morlet_wavelet(scale)
        half = (len(psi) - 1) // 2
        for b in [0, 40, 128, 255]:
            acc = 0.0 + 0.0j
            for m in range(-half, half + 1):
                if 0 <= b + m < len(signal):
                    acc += signal[b + m] * np.conj(psi[m + half])
            assert abs(sc[0, b] - abs(acc)) < 1e-10

    def test_non_positive_scale_rejected(self):
        with pytest.raises(InvalidInput):
            cwt_scalogram(np.ones(64), np.array([0.0]))
        with pytest.raises(InvalidInput):
            cwt_scalogram(np.array([]), np.array([4.0]))


class TestSpectralStats:
    def test_alternating_signal_full_zcr(self):
        stats = spectral_stats(np.array([1.0, -1.0, 1.0, -1.0]), SR)
        assert stats.zcr == 1.0

    def test_constant_signal_is_dc(self):
        stats = spectral_stats(np.array([3.0, 3.0, 3.0, 3.0]), SR)
        assert stats.zcr == 0.0
        assert stats.centroid_hz == 0.0

    def test_sine_centroid_within_one_percent(self):
        stats = spectral_stats(sine(1000.0), SR)
        assert abs(stats.centroid_hz - 1000.0) <= 10.0

    def test_all_zero_signal_degenerates_to_zeros(self):
        stats = spectral_stats(np.zeros(128), SR)
        assert (stats.zcr, stats.centroid_hz, stats.bandwidth_hz, stats.rolloff_hz, stats.energy) == (
            0.0, 0.0, 0.0, 0.0, 0.0,
        )

    def test_rolloff_within_nyquist(self):
        rng = np.random.default_rng(1)
        stats = spectral_stats(rng.uniform(-1, 1, size=2048), SR)
        assert 0.0 <= stats.rolloff_hz <= SR / 2

    @settings(max_examples=30, deadline=None)
    @given(gain=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 1000))
    def test_positive_rescaling_covariance(self, gain, seed):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1, 1, size=512)
        base = spectral_stats(samples, SR)
        scaled = spectral_stats(samples * gain, SR)
        assert scaled.zcr == base.zcr
        np.testing.assert_allclose(
            [scaled.centroid_hz, scaled.bandwidth_hz, scaled.rolloff_hz],
            [base.centroid_hz, base.bandwidth_hz, base.rolloff_hz],
            rtol=1e-9, atol=1e-9,
        )
        np.testing.assert_allclose(scaled.energy, base.energy * gain * gain, rtol=1e-9)

    def test_outputs_finite_for_finite_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            samples = rng.normal(scale=rng.uniform(1e-6, 1e3), size=64)
            stats = spectral_stats(samples, SR)
            values = [stats.zcr, stats.centroid_hz, stats.bandwidth_hz, stats.rolloff_hz, stats.energy]
            assert np.all(np.isfinite(values))
