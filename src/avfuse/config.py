"""Run configuration: one JSON document covering every tunable.

Defaults mirror the per-module decisions (detector thresholds 0.3/0.5,
tracker 0.5/0.1 with IoU floor 0.2, STFT 1024/512, Horn-Schunck alpha 10
with 100 iterations, equal anomaly weights with trigger threshold 0.5).
Validation collects every problem before rejecting, so a bad file is
reported in full.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .detect_track import TrackerThresholds
from .errors import InvalidConfig

DEFAULT_EVENT_LABELS = (
    "normal", "machine_operation", "tool_usage", "smoke", "fire", "leak",
    "structural_damage", "alarm", "glass_break", "impact", "footsteps", "door",
    "speech", "shout", "whistle", "hiss", "hum", "buzz", "rattle", "clank",
    "grind", "drill", "saw", "weld", "spray", "pour", "splash", "crack",
    "collapse", "explosion", "siren", "silence",
)

DEFAULT_ANOMALY_LABELS = ("smoke", "fire", "leak", "structural_damage", "explosion", "collapse")


@dataclass
class DetectorConfig:
    confidence_floor: float = 0.3
    nms_iou_threshold: float = 0.5
    cross_merge_iou: float = 0.5
    dual: bool = True  # run both detector personalities and cross-merge
    jitter_px: float = 0.5
    confidence_noise: float = 0.02
    drop_probability: float = 0.0
    false_positive_rate: float = 0.0


@dataclass
class AudioFeatureConfig:
    window_size: int = 1024
    hop_length: int = 512
    cwt_scales: int = 32
    cwt_fmin_hz: float = 50.0
    cwt_fmax_hz: float = 8000.0


@dataclass
class VisionConfig:
    nlm_patch: int = 3
    nlm_search: int = 7
    nlm_strength: float = 10.0
    flow_alpha: float = 10.0
    flow_iterations: int = 100


@dataclass
class FusionConfig:
    model: str = "basic"  # "basic" | "advanced"
    seed: int = 0
    learning_rate: float = 0.1
    steps: int = 300
    burst_tokens: int = 10  # sliding context length at inference
    basic_hidden: int = 128
    basic_layers: int = 2
    basic_heads: int = 4
    basic_ffn: int = 512
    advanced_layers: int = 4
    advanced_heads: int = 8
    advanced_ffn: int = 1024
    max_tokens: int = 64


@dataclass
class AnomalyConfig:
    weights: dict = field(default_factory=lambda: {
        "statistical": 0.25, "reconstruction": 0.25, "audio": 0.25, "event": 0.25,
    })
    threshold: float = 0.5
    history: int = 64
    event_probability_threshold: float = 0.5
    anomaly_labels: tuple = DEFAULT_ANOMALY_LABELS
    autoencoder_steps: int = 1500
    autoencoder_learning_rate: float = 0.1


@dataclass
class RuntimeConfig:
    queue_capacity: int = 64


@dataclass
class Config:
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    tracker: TrackerThresholds = field(default_factory=TrackerThresholds)
    audio: AudioFeatureConfig = field(default_factory=AudioFeatureConfig)
    vision: VisionConfig = field(default_factory=VisionConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    anomaly: AnomalyConfig = field(default_factory=AnomalyConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    event_labels: tuple = DEFAULT_EVENT_LABELS

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        """Raise InvalidConfig listing every problem found."""
        problems: list[str] = []

        def check(ok: bool, message: str) -> None:
            if not ok:
                problems.append(message)

        d = self.detector
        check(0.0 <= d.confidence_floor <= 1.0, "detector.confidence_floor must be in [0, 1]")
        check(0.0 < d.nms_iou_threshold <= 1.0, "detector.nms_iou_threshold must be in (0, 1]")
        check(0.0 < d.cross_merge_iou <= 1.0, "detector.cross_merge_iou must be in (0, 1]")
        check(0.0 <= d.drop_probability <= 1.0, "detector.drop_probability must be in [0, 1]")
        check(d.jitter_px >= 0.0, "detector.jitter_px must be non-negative")
        check(d.false_positive_rate >= 0.0, "detector.false_positive_rate must be non-negative")

        t = self.tracker
        check(0.0 <= t.low_confidence < t.high_confidence <= 1.0,
              "tracker thresholds must satisfy 0 <= low < high <= 1")
        check(0.0 < t.match_iou <= 1.0, "tracker.match_iou must be in (0, 1]")
        check(t.max_misses >= 1, "tracker.max_misses must be >= 1")
        check(t.confirm_hits >= 1, "tracker.confirm_hits must be >= 1")

        a = self.audio
        check(a.window_size >= 2 and a.window_size & (a.window_size - 1) == 0,
              "audio.window_size must be a power of two")
        check(a.hop_length >= 1, "audio.hop_length must be positive")
        check(a.cwt_scales >= 1, "audio.cwt_scales must be >= 1")
        check(0.0 < a.cwt_fmin_hz < a.cwt_fmax_hz, "audio cwt band must satisfy 0 < fmin < fmax")

        v = self.vision
        check(v.nlm_patch % 2 == 1 and v.nlm_patch >= 1, "vision.nlm_patch must be odd and positive")
        check(v.nlm_search % 2 == 1 and v.nlm_search >= v.nlm_patch,
              "vision.nlm_search must be odd and >= patch")
        check(v.nlm_strength > 0.0, "vision.nlm_strength must be positive")
        check(v.flow_alpha > 0.0, "vision.flow_alpha must be positive")
        check(v.flow_iterations >= 1, "vision.flow_iterations must be >= 1")

        f = self.fusion
        check(f.model in ("basic", "advanced"), "fusion.model must be 'basic' or 'advanced'")
        check(f.learning_rate >= 0.0, "fusion.learning_rate must be non-negative")
        check(f.steps >= 1, "fusion.steps must be >= 1")
        check(f.burst_tokens >= 1, "fusion.burst_tokens must be >= 1")
        check(f.basic_hidden >= f.basic_heads and f.basic_hidden % f.basic_heads == 0,
              "fusion.basic_hidden must be a positive multiple of basic_heads")
        check(f.advanced_heads >= 1 and 256 % f.advanced_heads == 0,
              "fusion.advanced_heads must divide 256, the fused audio embedding width")
        check(f.basic_layers >= 1 and f.advanced_layers >= 1, "fusion layer counts must be >= 1")
        check(f.basic_ffn >= 1 and f.advanced_ffn >= 1, "fusion FFN widths must be >= 1")
        check(f.burst_tokens <= f.max_tokens,
              "fusion.burst_tokens cannot exceed fusion.max_tokens")

        an = self.anomaly
        unknown = set(an.weights) - {"statistical", "reconstruction", "audio", "event"}
        check(not unknown, f"anomaly.weights has unknown methods: {sorted(unknown)}")
        check(all(w >= 0.0 for w in an.weights.values()), "anomaly.weights must be non-negative")
        check(any(w > 0.0 for w in an.weights.values()), "anomaly.weights must include a positive weight")
        check(0.0 <= an.threshold <= 1.0, "anomaly.threshold must be in [0, 1]")
        check(an.history >= 2, "anomaly.history must be >= 2")
        check(an.autoencoder_learning_rate >= 0.0,
              "anomaly.autoencoder_learning_rate must be non-negative")
        check(0.0 <= an.event_probability_threshold <= 1.0,
              "anomaly.event_probability_threshold must be in [0, 1]")
        check(len(self.event_labels) == 32, "event_labels must list exactly 32 labels")
        bad_labels = [l for l in an.anomaly_labels if l not in self.event_labels]
        check(not bad_labels, f"anomaly.anomaly_labels not in event_labels: {bad_labels}")

        check(self.runtime.queue_capacity >= 1, "runtime.queue_capacity must be >= 1")

        if problems:
            raise InvalidConfig(problems)

    def anomaly_label_ids(self) -> tuple[int, ...]:
        index = {name: i for i, name in enumerate(self.event_labels)}
        return tuple(index[name] for name in self.anomaly.anomaly_labels)


def _json_type(value) -> str:
    for kind, types in (("boolean", bool), ("integer", int), ("number", float), ("string", str),
                        ("array", (list, tuple)), ("object", dict)):
        if isinstance(value, types):
            return kind
    return "null"


def _merge(base: dict, override: dict, path: str, problems: list[str]) -> None:
    """Overlay ``override`` on ``base``; every value must have its default's JSON type.

    An integer may stand for a number, and a number must be finite (``json``
    reads ``NaN`` and ``Infinity``). ``weights`` maps names to finite numbers.
    """
    for key, value in override.items():
        if key not in base:
            problems.append(f"unknown config key: {path}{key}")
            continue
        want, got = _json_type(base[key]), _json_type(value)
        if want != got and (want, got) != ("number", "integer"):
            problems.append(f"{path}{key} must be a JSON {want}, got {got}")
        elif got == "number" and not math.isfinite(value):
            problems.append(f"{path}{key} must be a finite number, got {value}")
        elif key == "weights":
            bad = sorted(k for k, v in value.items()
                         if _json_type(v) not in ("integer", "number") or not math.isfinite(v))
            if bad:
                problems.append(f"{path}{key} values must be finite numbers, got {bad}")
            else:
                base[key] = value
        elif got == "object":
            _merge(base[key], value, f"{path}{key}.", problems)
        else:
            base[key] = value


def load_config(path: str | Path | None = None) -> Config:
    """Defaults overridden by an optional JSON document, then validated."""
    merged = Config().to_dict()
    if path is not None:
        try:
            override = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 errors
            raise InvalidConfig([f"cannot read config {path}: {exc}"]) from exc
        if not isinstance(override, dict):
            raise InvalidConfig([f"config {path} must hold a JSON object"])
        problems: list[str] = []
        _merge(merged, override, "", problems)
        if problems:
            raise InvalidConfig(problems)
    config = Config(
        detector=DetectorConfig(**merged["detector"]),
        tracker=TrackerThresholds(**merged["tracker"]),
        audio=AudioFeatureConfig(**merged["audio"]),
        vision=VisionConfig(**merged["vision"]),
        fusion=FusionConfig(**merged["fusion"]),
        anomaly=AnomalyConfig(**{**merged["anomaly"],
                                 "anomaly_labels": tuple(merged["anomaly"]["anomaly_labels"])}),
        runtime=RuntimeConfig(**merged["runtime"]),
        event_labels=tuple(merged["event_labels"]),
    )
    config.validate()
    return config
