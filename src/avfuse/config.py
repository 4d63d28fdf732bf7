"""Run configuration: one JSON document covering every tunable.

Defaults mirror the per-module decisions (detector thresholds 0.3/0.5,
tracker 0.5/0.1 with IoU floor 0.2, Horn-Schunck alpha 10 with 100
iterations, equal anomaly weights with trigger threshold 0.5).
Validation collects every problem before rejecting, so a bad file is
reported in full. :func:`read_file` reads this file and a capture's
``scenario.json`` alike, by the type hints of their dataclasses.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .anomaly import METHODS
from .detect_track import TrackerThresholds
from .errors import InvalidConfig
from .vision_dsp import FLOW_ALPHA_MAX, FLOW_ALPHA_MIN, NLM_PATCH_MAX, NLM_STRENGTH_MIN

DEFAULT_EVENT_LABELS = (
    "normal", "machine_operation", "tool_usage", "smoke", "fire", "leak",
    "structural_damage", "alarm", "glass_break", "impact", "footsteps", "door",
    "speech", "shout", "whistle", "hiss", "hum", "buzz", "rattle", "clank",
    "grind", "drill", "saw", "weld", "spray", "pour", "splash", "crack",
    "collapse", "explosion", "siren", "silence",
)

DEFAULT_ANOMALY_LABELS = ("smoke", "fire", "leak", "structural_damage", "explosion", "collapse")

MAX_TOKENS = 64  # positions in the advanced fusion model's table

# Horn-Schunck runs every iteration over every frame pair: 100 times the default
# is about 0.2 s per 64x64 pair, a slow run rather than one that never ends.
FLOW_ITERATIONS_MAX = 10_000
# Training steps at 100 times their defaults: a slow train, not one that never ends.
FUSION_STEPS_MAX = 30_000
AUTOENCODER_STEPS_MAX = 150_000


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
    burst_tokens: int = 10  # sliding context length at inference, at most MAX_TOKENS


@dataclass
class AnomalyConfig:
    weights: dict[str, float] = field(default_factory=lambda: {
        "statistical": 0.25, "reconstruction": 0.25, "audio": 0.25, "event": 0.25,
    })
    threshold: float = 0.5
    history: int = 64
    event_probability_threshold: float = 0.5
    anomaly_labels: tuple[str, ...] = DEFAULT_ANOMALY_LABELS
    autoencoder_steps: int = 1500
    autoencoder_learning_rate: float = 0.1


@dataclass
class RuntimeConfig:
    queue_capacity: int = 64


@dataclass
class Config:
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    tracker: TrackerThresholds = field(default_factory=TrackerThresholds)
    vision: VisionConfig = field(default_factory=VisionConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    anomaly: AnomalyConfig = field(default_factory=AnomalyConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    event_labels: tuple[str, ...] = DEFAULT_EVENT_LABELS

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
        check(0.0 <= d.jitter_px <= 1e6, "detector.jitter_px must be in [0, 1e6]")
        check(0.0 <= d.false_positive_rate <= 100.0,
              "detector.false_positive_rate must be in [0, 100] boxes per frame, "
              "because NMS and tracking are quadratic in the boxes")

        t = self.tracker
        check(0.0 <= t.low_confidence < t.high_confidence <= 1.0,
              "tracker thresholds must satisfy 0 <= low < high <= 1")
        check(0.0 < t.match_iou <= 1.0, "tracker.match_iou must be in (0, 1]")
        check(t.max_misses >= 1, "tracker.max_misses must be >= 1")
        check(t.confirm_hits >= 1, "tracker.confirm_hits must be >= 1")

        v = self.vision
        check(v.nlm_patch % 2 == 1 and v.nlm_patch >= 1, "vision.nlm_patch must be odd and positive")
        check(v.nlm_patch <= NLM_PATCH_MAX,
              f"vision.nlm_patch must be <= {NLM_PATCH_MAX}, so float32 holds NLM's distances exactly")
        check(v.nlm_search % 2 == 1 and v.nlm_search >= v.nlm_patch,
              "vision.nlm_search must be odd and >= patch")
        check(v.nlm_strength >= NLM_STRENGTH_MIN,
              f"vision.nlm_strength must be >= {NLM_STRENGTH_MIN:g}, because NLM divides by its square")
        check(FLOW_ALPHA_MIN <= v.flow_alpha <= FLOW_ALPHA_MAX,
              f"vision.flow_alpha must be between {FLOW_ALPHA_MIN:g} and {FLOW_ALPHA_MAX}, "
              "because Horn-Schunck squares it in float32")
        check(v.flow_iterations >= 1, "vision.flow_iterations must be >= 1")
        check(v.flow_iterations <= FLOW_ITERATIONS_MAX,
              f"vision.flow_iterations must be <= {FLOW_ITERATIONS_MAX}")

        f = self.fusion
        check(f.model in ("basic", "advanced"), "fusion.model must be 'basic' or 'advanced'")
        check(f.learning_rate >= 0.0, "fusion.learning_rate must be non-negative")
        check(f.steps >= 1, "fusion.steps must be >= 1")
        check(f.steps <= FUSION_STEPS_MAX, f"fusion.steps must be <= {FUSION_STEPS_MAX}")
        check(f.burst_tokens >= 1, "fusion.burst_tokens must be >= 1")
        check(f.seed >= 0, "fusion.seed must be non-negative")
        check(f.burst_tokens <= MAX_TOKENS,
              f"fusion.burst_tokens cannot exceed {MAX_TOKENS}, the advanced model's positions")

        an = self.anomaly
        unknown = set(an.weights) - set(METHODS)
        check(not unknown, f"anomaly.weights has unknown methods: {sorted(unknown)}")
        check(all(w >= 0.0 for w in an.weights.values()), "anomaly.weights must be non-negative")
        check(any(w > 0.0 for w in an.weights.values()), "anomaly.weights must include a positive weight")
        check(math.isfinite(sum(map(float, an.weights.values()))),
              "anomaly.weights must sum to a finite number")
        check(0.0 <= an.threshold <= 1.0, "anomaly.threshold must be in [0, 1]")
        check(an.history >= 2, "anomaly.history must be >= 2")
        check(an.autoencoder_steps >= 1, "anomaly.autoencoder_steps must be >= 1")
        check(an.autoencoder_steps <= AUTOENCODER_STEPS_MAX,
              f"anomaly.autoencoder_steps must be <= {AUTOENCODER_STEPS_MAX}")
        check(an.autoencoder_learning_rate >= 0.0,
              "anomaly.autoencoder_learning_rate must be non-negative")
        check(0.0 <= an.event_probability_threshold <= 1.0,
              "anomaly.event_probability_threshold must be in [0, 1]")
        check(len(self.event_labels) == 32, "event_labels must list exactly 32 labels")
        bad_labels = [l for l in an.anomaly_labels if l not in self.event_labels]
        check(not bad_labels, f"anomaly.anomaly_labels not in event_labels: {bad_labels}")

        check(self.runtime.queue_capacity >= 1, "runtime.queue_capacity must be >= 1")
        check(self.runtime.queue_capacity <= sys.maxsize,
              f"runtime.queue_capacity must be <= {sys.maxsize}")

        if problems:
            raise InvalidConfig(problems)

    def anomaly_label_ids(self) -> tuple[int, ...]:
        index = {name: i for i, name in enumerate(self.event_labels)}
        return tuple(index[name] for name in self.anomaly.anomaly_labels)


def _number(value) -> bool:
    """A JSON number that fits a float64: no boolean, NaN, infinity or huge integer."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.maxsize


# The JSON value each field type of a record takes.
_JSON_KINDS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", _integer),
    float: ("a finite number", _number),
    int | None: ("an integer or null", lambda v: v is None or _integer(v)),
    tuple[float, float]: ("a list of two numbers",
                          lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                          and all(map(_number, v))),
    tuple[str, ...]: ("a list of strings", lambda v: isinstance(v, (list, tuple))
                      and all(isinstance(s, str) for s in v)),
    dict[str, float]: ("an object of finite numbers",
                       lambda v: isinstance(v, dict) and all(map(_number, v.values()))),
}


def read_record(cls, raw, where: str, problems: list[str]):
    """``cls(**raw)`` for a JSON object holding fields of dataclass ``cls``.

    A field typed with a dataclass holds an object for that record, and a
    field typed ``list[R]`` a list of objects for records ``R``; a field
    left out keeps its default. Each problem is appended to ``problems``,
    its key path prefixed by ``where``, and then the result is ``None``.
    """
    if not isinstance(raw, dict):
        problems.append(f"{where.rstrip('.') or cls.__name__.lower()} must be a JSON object")
        return None
    before = len(problems)
    hints = get_type_hints(cls)
    problems.extend(f"{where}{f.name}: missing" for f in fields(cls) if f.name not in raw
                    and f.default is MISSING and f.default_factory is MISSING)
    values = {}
    for key, value in raw.items():
        hint = hints.get(key)
        if hint is None:
            problems.append(f"{where}{key}: unknown key")
        elif is_dataclass(hint):
            values[key] = read_record(hint, value, f"{where}{key}.", problems)
        elif get_origin(hint) is list:
            if isinstance(value, list):
                values[key] = [read_record(get_args(hint)[0], item, f"{where}{key}[{i}].", problems)
                               for i, item in enumerate(value)]
            else:
                problems.append(f"{where}{key} must be a list")
        else:
            kind, fits = _JSON_KINDS[hint]
            if fits(value):
                values[key] = tuple(value) if isinstance(value, (list, tuple)) else value
            else:
                problems.append(f"{where}{key} must be {kind}, got {json.dumps(value, default=repr)}")
    return cls(**values) if len(problems) == before else None


def read_file(cls, path: str | Path):
    """The validated ``cls`` record of the JSON file at ``path``; every problem names ``path``.

    ``--config`` and ``--scenario`` files both come through here, so an
    unreadable file, a broken document and a bad key read the same for both.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidConfig([f"{path}: cannot read ({exc})"]) from exc
    except ValueError as exc:  # JSON and UTF-8 errors
        raise InvalidConfig([f"{path}: not a JSON document ({exc})"]) from exc
    problems: list[str] = []
    record = read_record(cls, raw, "", problems)
    try:
        if problems:
            raise InvalidConfig(problems)
        record.validate()
    except InvalidConfig as exc:
        raise InvalidConfig([f"{path}: {problem}" for problem in exc.problems]) from exc
    return record


def load_config(path: str | Path | None = None) -> Config:
    """Defaults overridden by an optional JSON document, then validated; problems name ``path``."""
    return Config() if path is None else read_file(Config, path)
