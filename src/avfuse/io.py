"""File formats: binary PGM (P5) frames, 16-bit PCM mono WAV, burst manifests.

A recorded capture unit on disk is a directory of PGM files, a WAV clip and
a ``manifest.json`` listing ``{"file", "timestamp_s"}`` per frame.
"""

from __future__ import annotations

import json
import os
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .timebase import AudioClip, Frame, FrameBurst

INT16_MAX = 2 ** 15 - 1


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM (P5, maxval 255)."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise InvalidInput(f"PGM needs a 2-D grid, got shape {pixels.shape}")
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.astype(np.uint8).tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    # Header is whitespace-separated tokens; '#' starts a comment line.
    while len(fields) < 4 and pos < len(data):
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if len(fields) < 4 or fields[0] != b"P5" or not all(f.isdigit() for f in fields[1:]):
        raise InvalidInput(f"{path}: not a binary PGM (P5) file")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise InvalidInput(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    if len(data) - pos < width * height:
        raise InvalidInput(f"{path}: truncated PGM, {max(len(data) - pos, 0)} of "
                           f"{width * height} pixel bytes")
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return raster.reshape(height, width).copy()


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM mono WAV."""
    quantized = np.clip(np.rint(np.asarray(samples) * INT16_MAX), -INT16_MAX - 1, INT16_MAX)
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(sample_rate))
        wav.writeframes(quantized.astype("<i2").tobytes())


@dataclass(frozen=True)
class WavLayout:
    """Where a 16-bit PCM mono WAV keeps its samples, found without reading them."""

    path: Path
    sample_rate: int
    n_samples: int
    offset: int  # byte offset of the first sample


def open_wav(path: str | Path) -> WavLayout:
    """Check a 16-bit PCM mono WAV's header and that the file holds every sample it declares."""
    path = Path(path)
    try:
        with open(path, "rb") as file, wave.open(file, "rb") as wav:
            if wav.getnchannels() != 1 or wav.getsampwidth() != 2:
                raise InvalidInput(f"{path}: expected 16-bit mono PCM")
            sample_rate = wav.getframerate()
            if sample_rate < 1:
                raise InvalidInput(f"{path}: sample rate {sample_rate} Hz, expected at least 1")
            n_samples = wav.getnframes()
            offset = file.tell()  # wave.open stops at the data chunk's first sample
            size = os.fstat(file.fileno()).st_size
    except (wave.Error, EOFError, RuntimeError) as exc:  # RuntimeError: a bad chunk size
        raise InvalidInput(f"{path}: not a readable WAV file ({exc!r})") from exc
    expected = 2 * n_samples
    if size - offset < expected:
        raise InvalidInput(f"{path}: truncated WAV, {max(size - offset, 0)} of {expected} "
                           "sample bytes")
    return WavLayout(path, sample_rate, n_samples, offset)


def read_samples(wav: WavLayout, spans: list[tuple[int, int]]) -> list[np.ndarray]:
    """Samples ``lo`` to ``hi`` of each ``(lo, hi)`` span as float64 in [-1, 1], each read
    by its position in the file. The int16 to float conversion is elementwise, so a span
    holds the bits the whole clip read at once would."""
    out = []
    with open(wav.path, "rb") as file:
        for lo, hi in spans:
            file.seek(wav.offset + 2 * lo)
            raw = file.read(2 * (hi - lo))
            if len(raw) != 2 * (hi - lo):
                raise InvalidInput(f"{wav.path}: truncated WAV, shorter than sample {hi}")
            out.append(np.frombuffer(raw, dtype="<i2").astype(np.float64) / INT16_MAX)
    return out


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a 16-bit PCM mono WAV into float64 samples in [-1, 1]."""
    wav = open_wav(path)
    return read_samples(wav, [(0, wav.n_samples)])[0], wav.sample_rate


def write_manifest(
    directory: str | Path,
    frame_files: list[str],
    timestamps: list[float],
    nominal_fps: float,
    audio_file: str,
) -> Path:
    manifest = {
        "nominal_fps": nominal_fps,  # for readers only: load_capture paces by timestamps
        "audio": {"file": audio_file, "start_s": 0.0},
        "frames": [
            {"file": f, "timestamp_s": t} for f, t in zip(frame_files, timestamps)
        ],
    }
    path = Path(directory) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


class Capture:
    """A capture directory opened for reading by position.

    Opening parses the manifest and checks the WAV's header; no frame and
    no sample is read until asked for, so a reader holds one window at a
    time however long the capture is. A file the manifest names that cannot
    be opened is an :class:`InvalidInput` naming the manifest.
    """

    def __init__(self, directory: str | Path):
        directory = Path(directory)
        self.manifest = directory / "manifest.json"
        if not self.manifest.exists():
            raise InvalidInput(f"missing manifest: {self.manifest}")
        try:
            manifest = json.loads(self.manifest.read_text())
            # Paths are kept as strings, which take under half of a Path's memory.
            entries = [(str(directory / entry["file"]), float(entry["timestamp_s"]))
                       for entry in manifest["frames"]]
            audio_path = directory / manifest["audio"]["file"]
            self.start_s = float(manifest["audio"].get("start_s", 0.0))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise InvalidInput(f"{self.manifest}: malformed manifest "
                               f"({type(exc).__name__}: {exc})") from exc
        if not np.isfinite(self.start_s):
            raise InvalidInput(f"{self.manifest}: audio.start_s {self.start_s} is not finite")
        self.frame_paths = [path for path, _ in entries]
        self.timestamps = [t for _, t in entries]
        self.wav = self._reading(open_wav, audio_path)

    @property
    def sample_rate(self) -> int:
        return self.wav.sample_rate

    def read_frame(self, index: int) -> np.ndarray:
        return self._reading(read_pgm, self.frame_paths[index])

    def read_samples(self, spans: list[tuple[int, int]]) -> list[np.ndarray]:
        """See :func:`read_samples`."""
        return self._reading(read_samples, self.wav, spans)

    def _reading(self, read, *args):
        try:
            return read(*args)
        except OSError as exc:
            raise InvalidInput(f"{self.manifest}: cannot read a file it names ({exc})") from exc


def load_capture(directory: str | Path) -> tuple[FrameBurst, AudioClip]:
    """Load a burst and its whole clip from a manifest directory."""
    capture = Capture(directory)
    frames = tuple(Frame(capture.read_frame(i), t) for i, t in enumerate(capture.timestamps))
    samples = capture.read_samples([(0, capture.wav.n_samples)])[0]
    return FrameBurst(frames), AudioClip(samples, capture.sample_rate, capture.start_s)
