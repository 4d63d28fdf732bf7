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

    @property
    def timestamps(self) -> np.ndarray:
        return np.array([f.timestamp for f in self.frames], dtype=np.float64)


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
    violations: list[str] = []
    if len(burst) == 0:
        return BurstValidation(("burst is empty",))

    ref_shape = burst.frames[0].pixels.shape
    for i, frame in enumerate(burst.frames):
        if frame.pixels.ndim != 2:
            violations.append(f"frame {i}: pixel grid is not 2-D")
        elif frame.pixels.shape != ref_shape:
            violations.append(
                f"frame {i}: dimensions {frame.pixels.shape} differ from frame 0 {ref_shape}"
            )
        if not np.isfinite(frame.timestamp) or frame.timestamp < 0:
            violations.append(f"frame {i}: timestamp {frame.timestamp} not a non-negative finite value")

    ts = burst.timestamps
    for i in range(1, len(ts)):
        if not ts[i] > ts[i - 1]:
            violations.append(
                f"frame {i}: timestamp {ts[i]:g} not greater than previous {ts[i - 1]:g}"
            )
    return BurstValidation(tuple(violations))


def align_audio_to_frames(burst: FrameBurst, clip: AudioClip) -> list[AlignedWindow]:
    """Slice ``clip`` into one equal-length window per frame of ``burst``.

    Window length is ``len(clip) // len(burst)`` samples. Each window is
    centered at sample index ``round((t_frame - t_clip_start) * sample_rate)``
    and zero-padded where it overhangs the clip. A frame whose center lies
    more than one window length outside the clip span is an alignment
    failure.
    """
    if len(burst) == 0:
        raise InvalidInput("cannot align: burst has no frames")
    if len(clip) == 0:
        raise InvalidInput("cannot align: clip has no samples")

    n_samples = len(clip.samples)
    window_len = n_samples // len(burst)
    if window_len == 0:
        raise InvalidInput(
            f"clip of {n_samples} samples too short for {len(burst)} windows"
        )
    half = window_len // 2

    windows: list[AlignedWindow] = []
    for i, frame in enumerate(burst.frames):
        center = int(round((frame.timestamp - clip.start_time) * clip.sample_rate))
        if center < -window_len or center > n_samples + window_len:
            raise AlignmentFailure(
                i,
                f"frame {i} at t={frame.timestamp:g}s maps to sample {center}, "
                f"more than one window length outside clip span [0, {n_samples})",
            )
        start = center - half
        stop = start + window_len
        lo = min(max(0, start), n_samples)
        hi = min(max(0, stop), n_samples)
        body = clip.samples[lo:hi]
        pad_left = min(max(0, -start), window_len)
        pad_right = window_len - pad_left - len(body)
        samples = np.zeros(window_len, dtype=np.float64)
        samples[pad_left:pad_left + len(body)] = body
        windows.append(AlignedWindow(i, samples, pad_left, pad_right))
    return windows
