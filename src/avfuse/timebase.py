"""Capture-unit data model and audio-to-frame temporal alignment.

A capture unit pairs a short burst of timestamped grayscale frames with an
audio clip recorded over the same wall-clock interval. Alignment slices the
clip into one fixed-length window per frame, centered on the frame timestamp,
so that downstream visual and audio features refer to the same instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentFailure, InvalidInput


@dataclass(frozen=True)
class Frame:
    """Single 8-bit grayscale frame with its capture timestamp in seconds."""

    pixels: np.ndarray  # 2-D uint8, shape (height, width)
    timestamp: float


@dataclass(frozen=True)
class FrameBurst:
    """Ordered frame sequence treated as one capture unit.

    Construction does not validate; use :func:`validate_burst` to obtain a
    report, so malformed bursts can still be inspected.
    """

    frames: tuple[Frame, ...]

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class AudioClip:
    """Mono audio samples in [-1, 1] starting at ``start_time`` seconds."""

    samples: np.ndarray  # 1-D float64
    sample_rate: int
    start_time: float = 0.0

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class AlignedWindow:
    """Audio slice centered on one frame's timestamp.

    ``pad_left``/``pad_right`` count the zero samples inserted where the
    window extends past the clip boundaries.
    """

    frame_index: int
    samples: np.ndarray
    pad_left: int
    pad_right: int


@dataclass(frozen=True)
class BurstValidation:
    """Report from :func:`validate_burst`; empty ``violations`` means valid."""

    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_burst(burst: FrameBurst) -> BurstValidation:
    """Check burst invariants and report every violation found.

    Checks: non-empty, all frames share dimensions, timestamps strictly
    increasing, timestamps finite and non-negative. Never raises.
    """
    def pixel_violations(i: int) -> list[str]:
        pixels, ref_shape = burst.frames[i].pixels, burst.frames[0].pixels.shape
        if pixels.ndim != 2:
            return [f"frame {i}: pixel grid is not 2-D"]
        if pixels.shape != ref_shape:
            return [f"frame {i}: dimensions {pixels.shape} differ from frame 0 {ref_shape}"]
        return []

    return validate_timestamps([f.timestamp for f in burst.frames], pixel_violations)


def validate_timestamps(timestamps: list, pixel_violations=lambda i: []) -> BurstValidation:
    """The checks of :func:`validate_burst` on frames known by their timestamps,
    with ``pixel_violations(i)`` for what frame ``i``'s pixels break."""
    if len(timestamps) == 0:
        return BurstValidation(("burst is empty",))
    violations: list[str] = []
    for i, t in enumerate(timestamps):
        violations += pixel_violations(i)
        if not np.isfinite(t) or t < 0:
            violations.append(f"frame {i}: timestamp {t} not a non-negative finite value")

    ts = np.array(timestamps, dtype=np.float64)
    for i in range(1, len(ts)):
        if not ts[i] > ts[i - 1]:
            violations.append(
                f"frame {i}: timestamp {ts[i]:g} not greater than previous {ts[i - 1]:g}"
            )
    return BurstValidation(tuple(violations))


def window_starts(timestamps: list[float], n_samples: int, sample_rate: int,
                  start_time: float = 0.0) -> tuple[int, list[int]]:
    """Window length and the first sample of each frame's window.

    Window length is ``n_samples // len(timestamps)`` samples. Each window
    is centered at sample index ``round((t_frame - start_time) * sample_rate)``.
    A frame whose center lies more than one window length outside the clip
    span, or whose offset is not a finite number of samples, is an alignment
    failure.
    """
    if len(timestamps) == 0:
        raise InvalidInput("cannot align: burst has no frames")
    if n_samples == 0:
        raise InvalidInput("cannot align: clip has no samples")
    window_len = n_samples // len(timestamps)
    if window_len == 0:
        raise InvalidInput(
            f"clip of {n_samples} samples too short for {len(timestamps)} windows"
        )
    half = window_len // 2

    starts = []
    for i, t in enumerate(timestamps):
        offset = (t - start_time) * sample_rate
        if not np.isfinite(offset):
            raise AlignmentFailure(i, f"frame {i} at t={t:g}s is {offset} samples from the "
                                      f"clip start at {start_time:g}s")
        center = int(round(offset))
        if center < -window_len or center > n_samples + window_len:
            raise AlignmentFailure(
                i,
                f"frame {i} at t={t:g}s maps to sample {center}, "
                f"more than one window length outside clip span [0, {n_samples})",
            )
        starts.append(center - half)
    return window_len, starts


def window_span(start: int, window_len: int, n_samples: int) -> tuple[int, int]:
    """The clip samples ``[lo, hi)`` that a window starting at ``start`` covers."""
    return min(max(0, start), n_samples), min(max(0, start + window_len), n_samples)


def padded_window(index: int, body: np.ndarray, start: int, window_len: int) -> AlignedWindow:
    """Frame ``index``'s window: ``body``, its :func:`window_span` of the clip,
    zero-padded where the window overhangs the clip."""
    pad_left = min(max(0, -start), window_len)
    samples = np.zeros(window_len, dtype=np.float64)
    samples[pad_left:pad_left + len(body)] = body
    return AlignedWindow(index, samples, pad_left, window_len - pad_left - len(body))


def align_audio_to_frames(burst: FrameBurst, clip: AudioClip) -> list[AlignedWindow]:
    """Slice ``clip`` into one equal-length window per frame of ``burst``,
    as :func:`window_starts` places them, zero-padded where a window
    overhangs the clip."""
    n_samples = len(clip.samples)
    window_len, starts = window_starts([f.timestamp for f in burst.frames], n_samples,
                                       clip.sample_rate, clip.start_time)
    return [padded_window(i, clip.samples[slice(*window_span(start, window_len, n_samples))],
                          start, window_len)
            for i, start in enumerate(starts)]
