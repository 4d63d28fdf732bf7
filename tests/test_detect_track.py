import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse.detect_track import (
    BBox,
    Detection,
    DetectionScript,
    ScriptedObject,
    Tracker,
    TrackerThresholds,
    TrackState,
    cross_detector_merge,
    iou,
    nms,
    scripted_detector,
)
from avfuse.errors import InvalidInput
from oracles import brute_force_nms


def det(x1, y1, x2, y2, conf, class_id=0, source="fast"):
    return Detection(BBox(x1, y1, x2, y2), conf, class_id, source)


def random_detections(rng, n, n_classes=3):
    dets = []
    for _ in range(n):
        x1 = rng.uniform(0, 80)
        y1 = rng.uniform(0, 80)
        dets.append(det(
            x1, y1, x1 + rng.uniform(4, 30), y1 + rng.uniform(4, 30),
            round(float(rng.uniform(0.3, 1.0)), 6),
            int(rng.integers(0, n_classes)),
            "accurate" if rng.uniform() < 0.5 else "fast",
        ))
    return dets


class TestIou:
    def test_identical_boxes(self):
        a = BBox(1, 2, 5, 8)
        assert iou(a, a) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_one_third_overlap(self):
        # Unit-grid cell count: 2 shared cells, 6 in the union.
        assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)) == pytest.approx(1 / 3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_detections(rng, 2)
        assert iou(a.bbox, b.bbox) == iou(b.bbox, a.bbox)

    def test_degenerate_box_rejected(self):
        with pytest.raises(InvalidInput):
            BBox(5, 0, 5, 10)


class TestNms:
    def test_identical_boxes_keep_highest_confidence(self):
        kept = nms([det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)], 0.5)
        assert [k.confidence for k in kept] == [0.9]

    def test_disjoint_boxes_both_survive(self):
        kept = nms([det(0, 0, 5, 5, 0.9), det(50, 50, 60, 60, 0.8)], 0.5)
        assert len(kept) == 2

    def test_overlap_chain_keeps_ends(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(6, 0, 16, 10, 0.8)
        c = det(12, 0, 22, 10, 0.7)
        assert iou(a.bbox, b.bbox) >= 0.2 and iou(b.bbox, c.bbox) >= 0.2
        assert iou(a.bbox, c.bbox) == 0.0
        kept = nms([a, b, c], 0.2)
        assert [k.confidence for k in kept] == [0.9, 0.7]

    def test_different_classes_never_suppress(self):
        kept = nms([det(0, 0, 10, 10, 0.9, class_id=0), det(0, 0, 10, 10, 0.8, class_id=1)], 0.5)
        assert len(kept) == 2

    def test_empty_in_empty_out(self):
        assert nms([], 0.5) == []

    def test_matches_brute_force_oracle_on_500_random_sets(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            dets = random_detections(rng, int(rng.integers(0, 14)))
            threshold = float(rng.uniform(0.1, 0.9))
            kept = nms(dets, threshold)
            boxes = [(d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in dets]
            expected = brute_force_nms(
                boxes,
                [d.confidence for d in dets],
                [d.class_id for d in dets],
                [d.source for d in dets],
                threshold,
            )
            assert kept == [dets[i] for i in expected]
            # Survivors pairwise below threshold within a class.
            for i, a in enumerate(kept):
                for b in kept[i + 1:]:
                    if a.class_id == b.class_id:
                        assert iou(a.bbox, b.bbox) < threshold
            assert all(k in dets for k in kept)


class TestCrossDetectorMerge:
    def test_higher_confidence_source_wins(self):
        fast = [det(0, 0, 10, 10, 0.6, source="fast")]
        accurate = [det(0, 0, 10, 10, 0.9, source="accurate")]
        merged = cross_detector_merge(fast, accurate, 0.5)
        assert len(merged) == 1 and merged[0].source == "accurate"

    def test_disjoint_sets_union(self):
        fast = [det(0, 0, 10, 10, 0.6)]
        accurate = [det(50, 50, 60, 60, 0.7, source="accurate")]
        assert len(cross_detector_merge(fast, accurate, 0.5)) == 2

    def test_equal_confidence_prefers_accurate(self):
        fast = [det(0, 0, 10, 10, 0.8, source="fast")]
        accurate = [det(0, 0, 10, 10, 0.8, source="accurate")]
        merged = cross_detector_merge(fast, accurate, 0.5)
        assert len(merged) == 1 and merged[0].source == "accurate"


class TestScriptedDetector:
    def script(self, **kwargs):
        objects = [ScriptedObject(1, 0, (10.0, 10.0), (20.0, 20.0), (1.0, 0.0))]
        return DetectionScript(objects, n_frames=10, **kwargs)

    def test_clean_script_reproduced_exactly(self):
        script = self.script()
        dets = scripted_detector(3, script, seed=5)
        assert len(dets) == 1
        assert dets[0].bbox == BBox(13.0, 10.0, 33.0, 30.0)
        assert dets[0].confidence == 0.9

    def test_drop_probability_one_yields_nothing(self):
        assert scripted_detector(0, self.script(drop_probability=1.0), seed=5) == []

    def test_seeded_jitter_is_deterministic(self):
        script = self.script(jitter_px=2.0, confidence_noise=0.05, false_positive_rate=0.5)
        first = scripted_detector(4, script, seed=17)
        second = scripted_detector(4, script, seed=17)
        assert first == second
        different = scripted_detector(4, script, seed=18)
        assert first != different

    def test_frame_outside_script_rejected(self):
        with pytest.raises(InvalidInput):
            scripted_detector(10, self.script(), seed=0)


class TestTracker:
    def test_overlapping_detection_keeps_track_id(self):
        tracker = Tracker()
        first = tracker.step([det(0, 0, 10, 10, 0.9)])
        second = tracker.step([det(1, 0, 11, 10, 0.9)])
        assert first[0].track_id == second[0].track_id
        assert second[0].bbox == BBox(1, 0, 11, 10)

    def test_track_lost_after_max_misses(self):
        tracker = Tracker()
        tracker.step([det(0, 0, 10, 10, 0.9)])
        for _ in range(2):
            (track,) = tracker.step([])
            assert track.state is not TrackState.LOST
        (track,) = tracker.step([])
        assert track.state is TrackState.LOST
        assert tracker.step([]) == []

    def test_confidence_dip_rescued_by_low_stage(self):
        tracker = Tracker(TrackerThresholds(low_confidence=0.1))
        ids = set()
        for conf in (0.9, 0.9, 0.15, 0.9):
            tracks = tracker.step([det(0, 0, 20, 20, conf)])
            live = [t for t in tracks if t.state is not TrackState.LOST]
            assert len(live) == 1
            ids.add(live[0].track_id)
        assert len(ids) == 1

    def test_below_low_threshold_never_spawns(self):
        tracker = Tracker()
        assert tracker.step([det(0, 0, 10, 10, 0.05)]) == []

    def test_no_duplicate_ids_within_a_step_and_ids_increase(self):
        rng = np.random.default_rng(31)
        tracker = Tracker()
        seen_max = 0
        for _ in range(30):
            tracks = tracker.step(nms(random_detections(rng, 6), 0.5))
            ids = [t.track_id for t in tracks]
            assert len(ids) == len(set(ids))
            if ids:
                assert max(ids) >= seen_max
                seen_max = max(ids)

    def test_zero_id_switches_on_three_object_drop_script(self):
        objects = [
            ScriptedObject(1, 0, (5.0, 5.0), (18.0, 18.0), (1.5, 0.0)),
            ScriptedObject(2, 0, (5.0, 45.0), (18.0, 18.0), (1.5, -0.5)),
            ScriptedObject(3, 0, (5.0, 80.0), (18.0, 18.0), (1.5, 0.5)),
        ]
        script = DetectionScript(objects, n_frames=40, drop_probability=0.1,
                                 frame_size=(128, 128))
        tracker = Tracker()
        assigned: dict[int, int] = {}
        switches = 0
        for frame in range(script.n_frames):
            dets = nms(scripted_detector(frame, script, seed=7), 0.5)
            tracks = [t for t in tracker.step(dets) if t.state is not TrackState.LOST]
            for obj in objects:
                truth = obj.bbox_at(frame)
                overlaps = [(iou(t.bbox, truth), t.track_id) for t in tracks]
                if not overlaps:
                    continue
                best_iou, best_id = max(overlaps)
                if best_iou < 0.3:
                    continue
                if obj.object_id in assigned and assigned[obj.object_id] != best_id:
                    switches += 1
                assigned[obj.object_id] = best_id
        assert switches == 0
        assert len(set(assigned.values())) == 3
