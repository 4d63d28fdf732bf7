"""Audio time-frequency representations and scalar spectral statistics.

Three representations of a sample window: STFT magnitude spectrogram,
``MEL_BANDS``-band mel spectrogram (HTK mel scale, triangular filters with peak weight
1), and a Morlet-wavelet scalogram. Scalar statistics (zero-crossing rate,
spectral centroid, bandwidth, rolloff, mean-square energy), one row per
window in that order, are the fusion models' audio tokens; they take one
window or a (B, n) stack of windows, each row with the bytes it has alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInput

MORLET_OMEGA0 = 6.0
ROLLOFF_FRACTION = 0.85
CWT_SCALES, CWT_FMIN_HZ, CWT_FMAX_HZ = 32, 50.0, 8000.0
MEL_BANDS = 64
CENTROID_COLUMN, ENERGY_COLUMN = 1, 4  # in a spectral_stats row


@dataclass(frozen=True)
class Spectrogram:
    magnitudes: np.ndarray  # (time_frames, freq_bins), non-negative
    window_size: int
    sample_rate: int


def hann_window(n: int) -> np.ndarray:
    # Periodic Hann, the analysis variant.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(samples, window_size: int, hop_length: int, sample_rate: int) -> Spectrogram:
    """Hann-windowed magnitude STFT.

    Produces ``1 + (len(samples) - window_size) // hop_length`` frames of
    ``window_size // 2 + 1`` one-sided bins.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if window_size < 2 or window_size & (window_size - 1):
        raise InvalidInput(f"window_size must be a power of two, got {window_size}")
    if hop_length < 1:
        raise InvalidInput(f"hop_length must be positive, got {hop_length}")
    if len(samples) < window_size:
        raise InvalidInput(
            f"need at least window_size={window_size} samples, got {len(samples)}"
        )
    n_frames = 1 + (len(samples) - window_size) // hop_length
    window = hann_window(window_size)
    starts = np.arange(n_frames) * hop_length
    frames = samples[starts[:, None] + np.arange(window_size)] * window
    magnitudes = np.abs(np.fft.rfft(frames, axis=1))
    return Spectrogram(magnitudes, window_size, sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(window_size: int, sample_rate: int) -> np.ndarray:
    """``MEL_BANDS`` triangular filters equally spaced on the mel scale over [0, Nyquist].

    Peak weight is 1, so overlapping ascending/descending flanks of adjacent
    filters sum to at most 1 per bin and total filtered energy never exceeds
    input energy. Built once per window size and sample rate and read-only,
    because every window and thread shares it.
    """
    n_bins = window_size // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate / window_size
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), MEL_BANDS + 2))
    filters = np.zeros((MEL_BANDS, n_bins))
    for k in range(MEL_BANDS):
        lo, mid, hi = edges_hz[k], edges_hz[k + 1], edges_hz[k + 2]
        rising = (bin_hz - lo) / (mid - lo)
        falling = (hi - bin_hz) / (hi - mid)
        filters[k] = np.clip(np.minimum(rising, falling), 0.0, None)
    filters.setflags(write=False)
    return filters


def mel_spectrogram(spec: Spectrogram) -> np.ndarray:
    """(time_frames, MEL_BANDS) squared STFT magnitudes pooled through the mel filterbank."""
    filters = mel_filterbank(spec.window_size, spec.sample_rate)
    return (spec.magnitudes ** 2) @ filters.T


def morlet_wavelet(scale: float) -> np.ndarray:
    """Sampled Morlet wavelet at the given scale (in samples).

    Truncated at five scale widths, where the Gaussian envelope is below
    4e-6 of its peak.
    """
    if scale <= 0:
        raise InvalidInput(f"wavelet scale must be positive, got {scale}")
    half = int(np.ceil(5.0 * scale))
    t = np.arange(-half, half + 1) / scale
    return np.pi ** -0.25 * np.exp(1j * MORLET_OMEGA0 * t) * np.exp(-0.5 * t * t) / np.sqrt(scale)


def default_cwt_scales(sample_rate: int) -> np.ndarray:
    """``CWT_SCALES`` log-spaced scales whose pseudo-frequencies span [CWT_FMIN_HZ, CWT_FMAX_HZ]."""
    freqs = np.geomspace(CWT_FMAX_HZ, CWT_FMIN_HZ, CWT_SCALES)
    return MORLET_OMEGA0 * sample_rate / (2.0 * np.pi * freqs)


def cwt_scalogram(samples, scales) -> np.ndarray:
    """Morlet scalogram: per-scale cross-correlation of the signal with the
    sampled wavelet, computed by frequency-domain multiplication.

    Returns (n_scales, n_samples) magnitudes: row ``i`` holds
    ``|sum_m x[b+m] conj(psi_scale[m])|`` for every sample position ``b``;
    samples outside the signal are treated as zero.
    """
    samples = np.asarray(samples, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    if len(samples) == 0:
        raise InvalidInput("cannot transform an empty signal")
    if len(scales) == 0:
        raise InvalidInput("need at least one scale")
    if np.any(scales <= 0):
        raise InvalidInput("scales must be positive")

    n = len(samples)
    coeffs = np.empty((len(scales), n))
    for i, scale in enumerate(scales):
        psi = morlet_wavelet(scale)
        half = (len(psi) - 1) // 2
        # Cross-correlation == convolution with the reversed conjugate kernel.
        kernel = np.conj(psi)[::-1]
        nfft = 1 << int(np.ceil(np.log2(n + len(kernel) - 1)))
        full = np.fft.ifft(np.fft.fft(samples, nfft) * np.fft.fft(kernel, nfft))
        coeffs[i] = np.abs(full[half:half + n])
    return coeffs


def spectral_stats(samples, sample_rate: int) -> np.ndarray:
    """The (5,) row ``(zcr, centroid, bandwidth, rolloff, energy)`` of one sample
    window, or the (B, 5) rows of a (B, n) stack.

    zcr counts sign changes over ``n - 1`` adjacent pairs. Centroid and
    bandwidth are the magnitude-weighted mean and standard deviation of the
    one-sided spectrum; rolloff is the lowest frequency below which 85% of
    spectral energy lies. A silent window yields all zeros rather than NaN.
    Every step is elementwise over the stack or reduces one window's row, so
    each window gets the bytes it has alone.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim not in (1, 2):
        raise InvalidInput(f"expected a sample window or a (B, n) stack, got shape {samples.shape}")
    n = samples.shape[-1]
    if n < 2:
        raise InvalidInput(f"need at least 2 samples, got {n}")
    windows = samples.reshape(-1, n)

    zcr = np.count_nonzero(windows[:, :-1] * windows[:, 1:] < 0, axis=1) / (n - 1)
    energy = np.mean(windows ** 2, axis=1)
    magnitudes = np.abs(np.fft.rfft(windows, axis=1))
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    total_mag = magnitudes.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # silent windows, zeroed below
        centroid = (freqs * magnitudes).sum(axis=1) / total_mag
        bandwidth = np.sqrt(((freqs - centroid[:, None]) ** 2 * magnitudes).sum(axis=1) / total_mag)
    cumulative = np.cumsum(magnitudes ** 2, axis=1)
    # The first bin whose cumulative power reaches the fraction; the sums never decrease.
    rolloff_idx = np.count_nonzero(cumulative < ROLLOFF_FRACTION * cumulative[:, -1:], axis=1)
    rolloff = freqs[np.minimum(rolloff_idx, len(freqs) - 1)]
    spectral = np.where(total_mag[:, None] == 0.0, 0.0, np.stack([centroid, bandwidth, rolloff], 1))
    stats = np.column_stack([zcr, spectral, energy])
    return stats[0] if samples.ndim == 1 else stats
