"""Detection data model, IoU/NMS, cross-detector merging, and tracking.

Detections come from two scripted detector personalities ("fast" and
"accurate") that perturb scenario ground truth; the tracker associates them
with persistent identities in two confidence stages so brief detector dips
do not break a track.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class BBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise InvalidInput(f"degenerate box ({self.x1},{self.y1},{self.x2},{self.y2})")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def clamped(self, width: float, height: float) -> "BBox":
        return BBox(
            max(0.0, min(self.x1, width - 1.0)),
            max(0.0, min(self.y1, height - 1.0)),
            max(1.0, min(self.x2, float(width))),
            max(1.0, min(self.y2, float(height))),
        )


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    confidence: float
    class_id: int
    source: str = "fast"  # "fast" | "accurate"

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidInput(f"confidence {self.confidence} outside [0, 1]")


class TrackState(Enum):
    TENTATIVE = "tentative"
    ACTIVE = "active"
    LOST = "lost"


@dataclass
class Track:
    track_id: int
    bbox: BBox
    class_id: int
    misses: int = 0
    hits: int = 1  # consecutive matched steps, resets on a miss
    state: TrackState = TrackState.TENTATIVE


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; exactly 0 for disjoint boxes."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _suppression_order(det: Detection) -> tuple:
    # Total order: confidence first, "accurate" wins ties, then geometry.
    source_rank = 0 if det.source == "accurate" else 1
    return (-det.confidence, source_rank, det.class_id, det.bbox.x1, det.bbox.y1, det.bbox.x2, det.bbox.y2)


def nms(detections: list[Detection], iou_threshold: float = 0.5) -> list[Detection]:
    """Greedy descending-confidence suppression within each class.

    Survivors have pairwise same-class IoU below the threshold. Callers are
    expected to have applied their confidence floor already.
    """
    remaining = sorted(detections, key=_suppression_order)
    kept: list[Detection] = []
    for det in remaining:
        duplicate = any(
            k.class_id == det.class_id and iou(k.bbox, det.bbox) >= iou_threshold
            for k in kept
        )
        if not duplicate:
            kept.append(det)
    return kept


def cross_detector_merge(
    fast: list[Detection], accurate: list[Detection], iou_threshold: float = 0.5
) -> list[Detection]:
    """Merge two NMS-clean detector outputs, dropping cross-source duplicates.

    A same-class pair overlapping at or above the threshold keeps the
    higher-confidence member; on an exact tie the "accurate" source wins.
    """
    return nms(list(fast) + list(accurate), iou_threshold)


@dataclass(frozen=True)
class ScriptedObject:
    """Ground truth for one object: linear motion from ``start`` at ``velocity``."""

    object_id: int
    class_id: int
    start: tuple[float, float]  # top-left at frame 0
    size: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)  # pixels per frame
    first_frame: int = 0
    last_frame: int | None = None
    confidence: float = 0.9
    intensity: float = 200.0  # gray level when rendered into synthetic frames

    def bbox_at(self, frame_index: int) -> BBox | None:
        if frame_index < self.first_frame:
            return None
        if self.last_frame is not None and frame_index > self.last_frame:
            return None
        elapsed = frame_index - self.first_frame
        x = self.start[0] + self.velocity[0] * elapsed
        y = self.start[1] + self.velocity[1] * elapsed
        return BBox(x, y, x + self.size[0], y + self.size[1])


@dataclass(frozen=True)
class DetectionScript:
    """Scripted ground truth plus perturbation knobs for a stub detector."""

    objects: tuple[ScriptedObject, ...]
    n_frames: int
    jitter_px: float = 0.0
    confidence_noise: float = 0.0
    drop_probability: float = 0.0
    false_positive_rate: float = 0.0  # expected spurious boxes per frame
    frame_size: tuple[int, int] = (96, 96)  # (width, height)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))


def scripted_detector(
    frame_index: int,
    script: DetectionScript,
    source: str = "fast",
    seed: int = 0,
    confidence_floor: float = 0.3,
) -> list[Detection]:
    """Ground-truth boxes perturbed deterministically from ``seed``.

    The per-frame random stream is keyed on (seed, frame index, source), so
    repeated calls for the same frame return identical detections and frames
    can be evaluated in any order.
    """
    if not 0 <= frame_index < script.n_frames:
        raise InvalidInput(f"frame {frame_index} outside script range [0, {script.n_frames})")
    source_key = 1 if source == "accurate" else 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, frame_index, source_key]))
    width, height = script.frame_size

    detections: list[Detection] = []
    for obj in script.objects:
        box = obj.bbox_at(frame_index)
        dropped = rng.uniform() < script.drop_probability
        if box is None or dropped:
            continue
        if script.jitter_px > 0.0:
            dx, dy = rng.normal(0.0, script.jitter_px, size=2)
            box = BBox(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)
        confidence = obj.confidence
        if script.confidence_noise > 0.0:
            confidence += float(rng.normal(0.0, script.confidence_noise))
        confidence = float(np.clip(confidence, 0.0, 1.0))
        if confidence >= confidence_floor:
            detections.append(Detection(box.clamped(width, height), confidence, obj.class_id, source))

    n_false = rng.poisson(script.false_positive_rate) if script.false_positive_rate > 0 else 0
    for _ in range(n_false):
        w = float(rng.uniform(4.0, width / 4))
        h = float(rng.uniform(4.0, height / 4))
        x = float(rng.uniform(0.0, width - w))
        y = float(rng.uniform(0.0, height - h))
        confidence = float(rng.uniform(confidence_floor, 0.6))
        detections.append(Detection(BBox(x, y, x + w, y + h), confidence, 0, source))
    return detections


@dataclass(frozen=True)
class TrackerThresholds:
    high_confidence: float = 0.5
    low_confidence: float = 0.1
    match_iou: float = 0.2
    max_misses: int = 3
    confirm_hits: int = 2


class Tracker:
    """Two-stage IoU tracker with persistent, never-reused track ids.

    Stage one associates live tracks with high-confidence detections by
    greedy max-IoU; stage two rescues still-unmatched tracks with
    low-confidence detections. Only unmatched high-confidence detections
    spawn new (tentative) tracks.
    """

    def __init__(self, thresholds: TrackerThresholds | None = None):
        self.thresholds = thresholds or TrackerThresholds()
        self._tracks: list[Track] = []
        self._next_id = 1

    @property
    def tracks(self) -> list[Track]:
        return list(self._tracks)

    def step(self, detections: list[Detection]) -> list[Track]:
        """Advance one frame; returns every track touched this step,
        including ones that just became lost."""
        th = self.thresholds
        high = [d for d in detections if d.confidence >= th.high_confidence]
        low = [d for d in detections if th.low_confidence <= d.confidence < th.high_confidence]

        unmatched_tracks = list(self._tracks)
        matches: list[tuple[Track, Detection]] = []
        for pool in (high, low):
            matched_now = _greedy_match(unmatched_tracks, pool, th.match_iou)
            matches.extend(matched_now)
            matched_set = {id(t) for t, _ in matched_now}
            unmatched_tracks = [t for t in unmatched_tracks if id(t) not in matched_set]
            pool_matched = {id(d) for _, d in matched_now}
            if pool is high:
                high = [d for d in high if id(d) not in pool_matched]

        for track, det in matches:
            track.bbox = det.bbox
            track.misses = 0
            track.hits += 1
            if track.state is TrackState.TENTATIVE and track.hits >= th.confirm_hits:
                track.state = TrackState.ACTIVE

        for track in unmatched_tracks:
            track.misses += 1
            track.hits = 0
            if track.misses >= th.max_misses:
                track.state = TrackState.LOST

        spawned: list[Track] = []
        for det in high:  # survivors: high-confidence detections nobody claimed
            spawned.append(Track(self._next_id, det.bbox, det.class_id))
            self._next_id += 1

        snapshot = self._tracks + spawned
        self._tracks = [t for t in snapshot if t.state is not TrackState.LOST]
        return snapshot


def _greedy_match(
    tracks: list[Track], detections: list[Detection], iou_floor: float
) -> list[tuple[Track, Detection]]:
    """Repeatedly take the globally best same-class IoU pair above the floor."""
    pairs = []
    for ti, track in enumerate(tracks):
        for di, det in enumerate(detections):
            if track.class_id != det.class_id:
                continue
            overlap = iou(track.bbox, det.bbox)
            if overlap >= iou_floor:
                pairs.append((-overlap, track.track_id, di, ti))
    pairs.sort()
    used_tracks: set[int] = set()
    used_dets: set[int] = set()
    matches = []
    for _, _, di, ti in pairs:
        if ti in used_tracks or di in used_dets:
            continue
        used_tracks.add(ti)
        used_dets.add(di)
        matches.append((tracks[ti], detections[di]))
    return matches
