"""File formats: binary PGM (P5) frames, 16-bit PCM mono WAV, burst manifests.

A recorded capture unit on disk is a directory of PGM files, a WAV clip and
a ``manifest.json`` listing ``{"file", "timestamp_s"}`` per frame.
"""

from __future__ import annotations

import json
import wave
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


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a 16-bit PCM mono WAV into float64 samples in [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getnchannels() != 1 or wav.getsampwidth() != 2:
                raise InvalidInput(f"{path}: expected 16-bit mono PCM")
            sample_rate = wav.getframerate()
            expected = 2 * wav.getnframes()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError, RuntimeError) as exc:  # RuntimeError: a bad chunk size
        raise InvalidInput(f"{path}: not a readable WAV file ({exc!r})") from exc
    if len(raw) != expected:
        raise InvalidInput(f"{path}: truncated WAV, {len(raw)} of {expected} sample bytes")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / INT16_MAX
    return samples, sample_rate


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


def load_capture(directory: str | Path) -> tuple[FrameBurst, AudioClip]:
    """Load a burst and its clip from a manifest directory."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise InvalidInput(f"missing manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        entries = [(directory / entry["file"], float(entry["timestamp_s"]))
                   for entry in manifest["frames"]]
        audio_path = directory / manifest["audio"]["file"]
        start_s = float(manifest["audio"].get("start_s", 0.0))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidInput(f"{manifest_path}: malformed manifest "
                           f"({type(exc).__name__}: {exc})") from exc

    try:
        frames = tuple(Frame(read_pgm(path), t) for path, t in entries)
        samples, sample_rate = read_wav(audio_path)
    except OSError as exc:
        raise InvalidInput(f"{manifest_path}: cannot read a file it names ({exc})") from exc
    return FrameBurst(frames), AudioClip(samples, sample_rate, start_s)
