"""Synthetic scenario definition and deterministic rendering.

A scenario stands in for live capture: scripted rectangles moving over a
textured background, scripted tone/noise audio, and optional injected
anomalies (frame intensity bursts, broadband audio bursts, or tagged event
labels). The same seed always renders byte-identical PGM and WAV output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import read_file
from .detect_track import DetectionScript, ScriptedObject
from .errors import InvalidConfig, InvalidInput
from .io import write_manifest, write_pgm, write_wav
from .vision_dsp import check_dwt_sides

INJECTION_KINDS = ("visual_burst", "audio_burst", "event_label")


@dataclass(frozen=True)
class AudioSegment:
    start_s: float
    duration_s: float
    kind: str = "tone"  # "tone" | "noise"
    frequency_hz: float = 440.0
    amplitude: float = 0.3


@dataclass(frozen=True)
class Injection:
    """Anomaly injected over an inclusive window (frame) index range."""

    window_start: int
    window_end: int
    kind: str
    label_id: int = 0  # event_label injections only
    magnitude: float = 80.0  # gray levels for visual, amplitude for audio

    def covers(self, window: int) -> bool:
        return self.window_start <= window <= self.window_end


@dataclass
class Scenario:
    name: str = "scenario"
    duration_s: float = 2.0
    fps: float = 20.0
    frame_count: int | None = None  # defaults to round(duration * fps)
    sample_rate: int = 16000
    width: int = 64
    height: int = 64
    background_level: int = 90
    background_noise: float = 3.0
    seed: int = 0
    objects: list[ScriptedObject] = field(default_factory=list)
    audio_segments: list[AudioSegment] = field(default_factory=list)
    injections: list[Injection] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return self.frame_count if self.frame_count is not None else int(round(self.duration_s * self.fps))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate))

    @property
    def window_samples(self) -> int:
        return self.n_samples // self.n_frames

    def frame_timestamp(self, index: int) -> float:
        return index / self.fps

    def validate(self) -> None:
        problems: list[str] = []
        if self.duration_s <= 0:
            problems.append("duration_s must be positive")
        if self.fps <= 0:
            problems.append("fps must be positive")
        if self.sample_rate <= 0:
            problems.append("sample_rate must be positive")
        if self.seed < 0:
            problems.append("seed must be non-negative")
        if self.n_frames < 1:
            problems.append("scenario must render at least one frame")
        try:
            check_dwt_sides(self.height, self.width)
        except InvalidInput as exc:
            problems.append(str(exc))
        if self.fps > 0 and self.sample_rate > 0 and self.n_frames >= 1:
            last_t = self.frame_timestamp(self.n_frames - 1)
            if last_t >= self.duration_s + self.window_samples / self.sample_rate:
                problems.append(
                    f"frames extend to {last_t:.3f}s, beyond the {self.duration_s:.3f}s clip"
                )
        for obj in self.objects:
            if min(obj.size) <= 0:
                problems.append(f"object {obj.object_id}: size must be positive")
            elif 0 <= obj.first_frame < self.n_frames:
                # Positions move linearly: the coarsest float spacing is at the first or last frame.
                last = min(self.n_frames if obj.last_frame is None else obj.last_frame, self.n_frames - 1)
                for frame in (obj.first_frame, last):
                    try:
                        obj.bbox_at(frame)
                    except InvalidInput as exc:
                        problems.append(f"object {obj.object_id}: {exc} at frame {frame}")
                        break
            if obj.first_frame < 0 or obj.first_frame >= self.n_frames:
                problems.append(f"object {obj.object_id}: first_frame outside scenario")
            if obj.last_frame is not None and obj.last_frame >= self.n_frames:
                problems.append(f"object {obj.object_id}: last_frame outside scenario")
        for seg in self.audio_segments:
            if seg.kind not in ("tone", "noise"):
                problems.append(f"audio segment kind {seg.kind!r} unknown")
            if seg.start_s < 0 or seg.start_s + seg.duration_s > self.duration_s + 1e-9:
                problems.append(f"audio segment at {seg.start_s}s outside clip duration")
        for inj in self.injections:
            if inj.kind not in INJECTION_KINDS:
                problems.append(f"injection kind {inj.kind!r} unknown")
            if not (0 <= inj.window_start <= inj.window_end < self.n_frames):
                problems.append(
                    f"injection windows [{inj.window_start}, {inj.window_end}] outside scenario"
                )
            if inj.kind == "event_label" and not 0 <= inj.label_id < 32:
                problems.append(f"injection label_id {inj.label_id} outside [0, 32)")
        if problems:
            raise InvalidConfig(problems)

    # Ground truth queries used by training and evaluation.

    def motion_label(self, window: int) -> int:
        for obj in self.objects:
            if obj.velocity == (0.0, 0.0):
                continue
            if obj.bbox_at(window) is not None:
                return 1
        return 0

    def event_label(self, window: int) -> int:
        for inj in self.injections:
            if inj.kind == "event_label" and inj.covers(window):
                return inj.label_id
        return 0

    def is_injected(self, window: int) -> bool:
        return any(inj.kind in ("visual_burst", "audio_burst") and inj.covers(window)
                   for inj in self.injections)

    def detection_script(self, detector_config) -> DetectionScript:
        return DetectionScript(
            objects=tuple(self.objects),
            n_frames=self.n_frames,
            jitter_px=detector_config.jitter_px,
            confidence_noise=detector_config.confidence_noise,
            drop_probability=detector_config.drop_probability,
            false_positive_rate=detector_config.false_positive_rate,
            frame_size=(self.width, self.height),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, path: str | Path) -> "Scenario":
        """Read and validate a scenario file; each problem names ``path``."""
        return read_file(cls, path)


def render_frames(scenario: Scenario) -> list[np.ndarray]:
    """Frames as uint8 grids: static seeded texture, per-frame noise,
    filled object rectangles, then visual-burst injections."""
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 1]))
    h, w = scenario.height, scenario.width
    texture = scenario.background_level + rng.uniform(-10.0, 10.0, size=(h, w))
    frames = []
    for index in range(scenario.n_frames):
        frame = texture + rng.normal(0.0, scenario.background_noise, size=(h, w))
        for obj in scenario.objects:
            box = obj.bbox_at(index)
            if box is None:
                continue
            box = box.clamped(w, h)
            y1, y2 = int(round(box.y1)), int(round(box.y2))
            x1, x2 = int(round(box.x1)), int(round(box.x2))
            frame[y1:y2, x1:x2] = obj.intensity
        for inj in scenario.injections:
            if inj.kind == "visual_burst" and inj.covers(index):
                frame = frame + inj.magnitude
        frames.append(np.clip(np.rint(frame), 0, 255).astype(np.uint8))
    return frames


def render_audio(scenario: Scenario) -> np.ndarray:
    """Clip samples in [-1, 1]: scripted segments plus audio-burst injections."""
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 2]))
    n = scenario.n_samples
    sr = scenario.sample_rate
    t = np.arange(n) / sr
    samples = np.zeros(n)
    for seg in scenario.audio_segments:
        lo = int(round(seg.start_s * sr))
        hi = min(n, lo + int(round(seg.duration_s * sr)))
        if seg.kind == "tone":
            samples[lo:hi] += seg.amplitude * np.sin(2 * np.pi * seg.frequency_hz * t[lo:hi])
        else:
            samples[lo:hi] += seg.amplitude * rng.uniform(-1.0, 1.0, size=hi - lo)
    window_len = scenario.window_samples
    half = window_len // 2
    for inj in scenario.injections:
        if inj.kind != "audio_burst":
            continue
        for window in range(inj.window_start, inj.window_end + 1):
            center = int(round(scenario.frame_timestamp(window) * sr))
            lo = max(0, center - half)
            hi = min(n, center - half + window_len)
            if hi > lo:
                samples[lo:hi] += inj.magnitude * rng.uniform(-1.0, 1.0, size=hi - lo)
    return np.clip(samples, -1.0, 1.0)


def generate_scenario(scenario: Scenario, out_dir: str | Path) -> Path:
    """Render and persist a scenario capture directory; returns the directory.

    Layout: ``frame_NNNN.pgm`` files, ``audio.wav``, ``manifest.json`` and
    the scenario definition itself as ``scenario.json``.
    """
    scenario.validate()
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)

    frames = render_frames(scenario)
    frame_files = []
    timestamps = []
    for index, frame in enumerate(frames):
        frame_files.append(f"frame_{index:04d}.pgm")
        write_pgm(directory / frame_files[-1], frame)
        timestamps.append(scenario.frame_timestamp(index))

    write_wav(directory / "audio.wav", render_audio(scenario), scenario.sample_rate)

    write_manifest(
        directory,
        frame_files,
        timestamps,
        nominal_fps=scenario.fps,
        audio_file="audio.wav",
    )
    scenario_path = directory / "scenario.json"
    scenario_path.write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n")
    return directory


def preset_scenario(name: str, seed: int = 0) -> Scenario:
    """Built-in scenarios: 'canonical' (one burst), 'training' (alternating
    motion segments), 'injection' (normal traffic with planted anomalies)."""
    if name == "canonical":
        return Scenario(
            name="canonical", duration_s=2.0, fps=20.0, frame_count=10, seed=seed,
            objects=[ScriptedObject(1, 0, (10.0, 24.0), (16.0, 16.0), (1.5, 0.0))],
            audio_segments=[AudioSegment(0.0, 2.0, "tone", 1000.0, 0.3)],
        )
    if name == "training":
        # Motion alternates in 10-window blocks; audio follows the motion.
        objects = []
        segments = []
        n_blocks = 12
        for block in range(0, n_blocks, 2):  # even blocks are "moving"
            first = block * 10
            last = first + 9
            objects.append(ScriptedObject(
                block + 1, 0, (6.0 + 3 * block, 20.0), (14.0, 14.0), (1.2, 0.3),
                first_frame=first, last_frame=last,
            ))
            segments.append(AudioSegment(first / 5.0, 2.0, "noise", amplitude=0.25))
            segments.append(AudioSegment(first / 5.0, 2.0, "tone", 900.0 + 120 * block, 0.3))
        quiet = [AudioSegment(0.0, 24.0, "tone", 220.0, 0.05)]
        return Scenario(
            name="training", duration_s=24.0, fps=5.0, seed=seed,
            objects=objects, audio_segments=quiet + segments,
            injections=[Injection(30, 39, "event_label", label_id=4),
                        Injection(90, 99, "event_label", label_id=3)],
        )
    if name == "injection":
        # The last burst is audiovisual, like a crash that is seen and heard.
        return Scenario(
            name="injection", duration_s=12.0, fps=10.0, seed=seed,
            objects=[ScriptedObject(1, 0, (4.0, 10.0), (14.0, 14.0), (0.4, 0.1))],
            audio_segments=[AudioSegment(0.0, 12.0, "tone", 800.0, 0.2)],
            injections=[
                Injection(40, 44, "visual_burst", magnitude=70.0),
                Injection(80, 84, "audio_burst", magnitude=0.6),
                Injection(100, 102, "visual_burst", magnitude=90.0),
                Injection(100, 102, "audio_burst", magnitude=0.5),
            ],
        )
    raise InvalidConfig([f"unknown scenario preset {name!r}; "
                         f"expected canonical, training, or injection"])
