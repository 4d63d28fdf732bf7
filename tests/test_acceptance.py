"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; tolerances are asserted exactly as stated, never loosened.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from avfuse import tensor as tz
from avfuse.audio_dsp import spectral_stats, stft
from avfuse.config import Config, RuntimeConfig
from avfuse.detect_track import (
    BBox,
    DetectionScript,
    ScriptedObject,
    Tracker,
    TrackerThresholds,
    TrackState,
    iou,
    nms,
    scripted_detector,
)
from avfuse.fusion import FUSED_DIM, AdvancedFusionModel, AudioEnsembleFusion, BasicFusionModel, train_step
from avfuse.io import read_wav
from avfuse.pipeline import run_pipeline
from avfuse.scenario import Scenario, generate_scenario, preset_scenario
from avfuse.timebase import AudioClip, align_audio_to_frames
from avfuse.vision_dsp import dwt2_energy
from avfuse.anomaly import METHODS, combine_scores
from avfuse.pipeline import train_on_scenario

from oracles import brute_force_nms, finite_diff_check, ranking_auc, scalar_attention, sequence
from test_detect_track import random_detections
from test_fusion import make_separable_set, sequence_accuracy
from test_tensor import primitive_cases
from test_timebase import make_burst


def passed(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:2d} PASS  {detail}")


@pytest.fixture(scope="module")
def injection_flow(tmp_path_factory):
    """Generate + train + two deterministic runs on the injection scenario."""
    root = tmp_path_factory.mktemp("acc_injection")
    capture = root / "capture"
    generate_scenario(preset_scenario("injection", seed=0), capture)
    config = Config()
    config.fusion.steps = 60
    config.anomaly.autoencoder_steps = 800
    trained = train_on_scenario(capture, config, root / "models", seed=0)
    runs = []
    for name in ("run_a", "run_b"):
        runs.append(run_pipeline(
            capture, config, root / name, deterministic=True,
            model_path=trained["model_path"],
            autoencoder_path=trained["autoencoder_path"],
        ))
    return {"root": root, "capture": capture, "config": config, "runs": runs}


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    configs = 0
    rng = np.random.default_rng(1234)
    while configs < 100:
        for name, f, params in primitive_cases(rng):
            for p in params:
                p.grad = None
            err = finite_diff_check(f, params, seed=configs)
            assert err < 1e-4, f"primitive {name}: {err}"
            configs += 1

    for seed in (0, 1):
        model = BasicFusionModel(seed=seed)
        data = np.random.default_rng(seed)
        vis = data.normal(size=(3, 3))
        aud = data.normal(size=(3, 4))

        def f_basic():
            return tz.cross_entropy(model.forward(vis, aud)[0], [seed % 2])

        err = finite_diff_check(f_basic, model.parameters(), max_coords_per_param=2, seed=seed)
        assert err < 1e-4, f"basic model: {err}"

    advanced = AdvancedFusionModel(seed=0)
    data = np.random.default_rng(2)
    vis = data.normal(size=(2, 4))
    aud = data.normal(size=(2, 5))
    fused = data.normal(size=FUSED_DIM)

    def f_advanced():
        motion, event = advanced.forward(vis, aud, fused)
        return tz.add(tz.cross_entropy(motion, [1]), tz.cross_entropy(event, [5]))

    # Four stacked layers leave f with ~1e-12 evaluation noise, so the
    # rounding/truncation balance sits near step 1e-4 for this composite.
    err = finite_diff_check(f_advanced, advanced.parameters(), step=1e-4,
                            max_coords_per_param=1, seed=3)
    assert err < 1e-4, f"advanced model: {err}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    passed(1, f"gradients: {configs} primitive configs + both models, worst tolerance 1e-4, {elapsed:.1f}s")


def test_criterion_2_attention_contract():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, m, d_k, d_v = (int(x) for x in rng.integers(1, 9, size=4))
        q = rng.normal(scale=3.0, size=(n, d_k))
        k = rng.normal(scale=3.0, size=(m, d_k))
        v = rng.normal(size=(m, d_v))
        weights = tz.attention_weights(tz.Tensor(q), tz.Tensor(k)).data
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        out = tz.attention(tz.Tensor(q), tz.Tensor(k), tz.Tensor(v)).data
        np.testing.assert_allclose(out, scalar_attention(q, k, v), atol=1e-10)
    q = rng.normal(size=(5, 3))
    single_v = rng.normal(size=(1, 4))
    out = tz.attention(tz.Tensor(q), tz.Tensor(rng.normal(size=(1, 3))), tz.Tensor(single_v)).data
    for row in out:
        np.testing.assert_array_equal(row, single_v[0])
    passed(2, "attention: rows sum to 1 (1e-9), single-key exact, scalar oracle within 1e-10")


def test_criterion_3_synchronization():
    burst = make_burst([i / 20.0 for i in range(10)])
    rng = np.random.default_rng(0)
    clip = AudioClip(rng.uniform(-1, 1, size=32000), 16000)
    windows = align_audio_to_frames(burst, clip)
    assert len(windows) == 10
    assert all(len(w.samples) == 3200 for w in windows)
    assert windows[0].pad_left == 1600
    assert np.all(windows[0].samples[:1600] == 0.0)
    repeat = align_audio_to_frames(burst, clip)
    for a, b in zip(windows, repeat):
        np.testing.assert_array_equal(a.samples, b.samples)
    passed(3, "sync: 10 windows x 3200 samples, boundary zero-padding, bit-identical re-run")


def test_criterion_4_dsp_oracles():
    sr = 16000
    # Steady tones completing whole cycles in the 2 s window (the analysis
    # grid is 0.5 Hz); off-grid tones smear leakage into the centroid.
    for freq in (500.0, 753.5, 997.5, 1234.5, 2000.0, 3333.5, 4000.0):
        tone = np.sin(2 * np.pi * freq * np.arange(32000) / sr)
        stats = spectral_stats(tone, sr)
        assert abs(stats.centroid_hz - freq) <= 0.01 * freq, freq

    rng = np.random.default_rng(21)
    for _ in range(1000):
        h = int(rng.integers(2, 9)) * 4
        w = int(rng.integers(2, 9)) * 4
        img = rng.uniform(0.0, 255.0, size=(h, w))
        energy = dwt2_energy(img)
        pixel_energy = float(np.sum(img * img))
        assert abs(energy.total - pixel_energy) <= 1e-6 * pixel_energy

    # 1000 Hz is exactly bin 64 of a 1024-point window at 16 kHz.
    spec = stft(np.sin(2 * np.pi * 1000.0 * np.arange(8192) / sr), 1024, 512, sr)
    from test_audio_dsp import naive_dft_magnitude
    from avfuse.audio_dsp import hann_window
    tone = np.sin(2 * np.pi * 1000.0 * np.arange(8192) / sr)
    oracle_row = naive_dft_magnitude(tone[:1024] * hann_window(1024))
    np.testing.assert_allclose(spec.magnitudes[0], oracle_row, atol=1e-9)
    for row in spec.magnitudes:
        peak = int(np.argmax(row))
        assert peak == 64
        others = np.delete(row, [peak - 1, peak, peak + 1])
        assert row[peak] >= 10.0 * others.max()
    passed(4, "dsp: centroid within 1% (500-4000 Hz), DWT conservation 1e-6 x1000, STFT vs naive DFT")


def test_criterion_5_detection_tracking():
    rng = np.random.default_rng(99)
    for _ in range(500):
        dets = random_detections(rng, int(rng.integers(0, 14)))
        threshold = float(rng.uniform(0.1, 0.9))
        kept = nms(dets, threshold)
        expected = brute_force_nms(
            [(d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) for d in dets],
            [d.confidence for d in dets], [d.class_id for d in dets],
            [d.source for d in dets], threshold,
        )
        assert kept == [dets[i] for i in expected]

    a = BBox(1, 2, 5, 8)
    assert iou(a, a) == 1.0
    assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0
    assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)) == pytest.approx(1 / 3)
    b = BBox(0.5, 1.5, 7.25, 9.0)
    assert iou(a, b) == iou(b, a)

    objects = [
        ScriptedObject(1, 0, (5.0, 5.0), (18.0, 18.0), (1.5, 0.0)),
        ScriptedObject(2, 0, (5.0, 45.0), (18.0, 18.0), (1.5, -0.5)),
        ScriptedObject(3, 0, (5.0, 80.0), (18.0, 18.0), (1.5, 0.5)),
    ]
    script = DetectionScript(objects, n_frames=40, drop_probability=0.1, frame_size=(128, 128))
    tracker = Tracker()
    assigned = {}
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
    assert switches == 0 and len(set(assigned.values())) == 3

    tracker = Tracker(TrackerThresholds(low_confidence=0.1))
    ids = set()
    from avfuse.detect_track import Detection
    for conf in (0.9, 0.9, 0.15, 0.9):
        tracks = tracker.step([Detection(BBox(0, 0, 20, 20), conf, 0)])
        live = [t for t in tracks if t.state is not TrackState.LOST]
        assert len(live) == 1
        ids.add(live[0].track_id)
    assert len(ids) == 1
    passed(5, "detect/track: NMS oracle x500, IoU hand cases, 0 ID switches, conf-dip rescue")


def test_criterion_6_fusion_training():
    model = BasicFusionModel(seed=6)
    batch = make_separable_set(8)
    accuracy = 0.0
    steps_used = 0
    for step in range(1, 501):
        train_step(model, batch, 0.1)
        if step % 10 == 0:
            accuracy = sequence_accuracy(model, batch)
            if accuracy >= 0.95:
                steps_used = step
                break
    assert accuracy >= 0.95

    single = BasicFusionModel(seed=5)
    example = sequence(make_separable_set(2), 0)
    losses = [train_step(single, example, 0.05) for _ in range(200)]
    assert losses[-1] < 0.1
    for i in range(len(losses) - 50):
        assert losses[i + 50] < losses[i]
    passed(6, f"training: {accuracy:.0%} accuracy in {steps_used} steps, strict 50-step loss descent")


def test_criterion_7_anomaly_auc(injection_flow):
    scenario = Scenario.from_json(injection_flow["capture"] / "scenario.json")
    summary = injection_flow["runs"][0]
    scores, labels = {}, {}
    for line in Path(summary.log_path).read_text().splitlines():
        record = json.loads(line)
        if record["kind"] != "anomaly":
            continue
        w = record["window"]
        scores[w] = record["payload"]["combined"]
        labels[w] = scenario.is_injected(w)
        for value in record["payload"]["scores"].values():
            assert 0.0 <= value <= 1.0
        assert 0.0 <= record["payload"]["combined"] <= 1.0
    windows = sorted(scores)
    auc = ranking_auc([scores[w] for w in windows], [labels[w] for w in windows])
    assert auc >= 0.9

    rng = np.random.default_rng(11)
    for _ in range(200):
        base = rng.uniform(0, 1, size=4)
        weights = dict(zip(METHODS, rng.uniform(0.01, 2.0, size=4)))
        index = int(rng.integers(0, 4))
        bumped = base.copy()
        bumped[index] = min(1.0, bumped[index] + rng.uniform(0, 1))
        low = combine_scores(dict(zip(METHODS, base)), weights, 0.5)
        high = combine_scores(dict(zip(METHODS, bumped)), weights, 0.5)
        assert high.combined >= low.combined - 1e-12
    passed(7, f"anomaly: injection AUC {auc:.3f} >= 0.9, scores in [0,1], combiner monotone")


def test_criterion_8_latency_budget():
    model = AdvancedFusionModel(seed=0)
    rng = np.random.default_rng(0)
    vis = rng.normal(size=(10, 4))
    aud = rng.normal(size=(10, 5))
    fused = rng.normal(size=FUSED_DIM)
    model.forward(vis, aud, fused)  # warm-up
    times = []
    for _ in range(20):
        start = time.perf_counter()
        model.forward(vis, aud, fused)
        times.append(time.perf_counter() - start)
    fusion_ms = float(np.median(times)) * 1e3
    assert fusion_ms <= 60.0, f"advanced fusion forward took {fusion_ms:.1f} ms"

    ensemble = AudioEnsembleFusion()
    embeddings = [rng.normal(size=768) for _ in range(3)]
    ensemble.fuse(*embeddings)  # warm-up
    times = []
    for _ in range(50):
        start = time.perf_counter()
        ensemble.fuse(*embeddings)
        times.append(time.perf_counter() - start)
    fuse_ms = float(np.median(times)) * 1e3
    assert fuse_ms <= 40.0, f"ensemble fuse took {fuse_ms:.3f} ms"
    passed(8, f"latency: advanced forward {fusion_ms:.1f} ms <= 60, ensemble fuse {fuse_ms:.3f} ms <= 40")


def test_criterion_9_end_to_end_determinism(canonical_capture, injection_flow, tmp_path):
    config = Config()
    runs = [
        run_pipeline(canonical_capture, config, tmp_path / name, deterministic=True)
        for name in ("one", "two")
    ]
    assert Path(runs[0].log_path).read_bytes() == Path(runs[1].log_path).read_bytes()

    run_a, run_b = injection_flow["runs"]
    assert Path(run_a.log_path).read_bytes() == Path(run_b.log_path).read_bytes()
    root = injection_flow["root"]
    tree_a = sorted(p.relative_to(root / "run_a") for p in (root / "run_a" / "anomalies").rglob("*"))
    tree_b = sorted(p.relative_to(root / "run_b") for p in (root / "run_b" / "anomalies").rglob("*"))
    assert tree_a == tree_b and len(tree_a) > 0
    for rel in tree_a:
        a, b = root / "run_a" / rel, root / "run_b" / rel
        if a.is_file():
            assert a.read_bytes() == b.read_bytes(), rel

    for summary in runs + list(injection_flow["runs"]):
        assert summary.accounting_ok
        assert summary.windows_ingested == summary.windows_processed + sum(summary.drops.values())

    stress = run_pipeline(canonical_capture, Config(runtime=RuntimeConfig(queue_capacity=1)),
                          tmp_path / "stress")
    assert sum(stress.drops.values()) > 0
    assert stress.accounting_ok
    passed(9, "determinism: byte-identical logs+artifacts, exact accounting, capacity-1 stress completes")


def test_criterion_10_artifact_persistence(injection_flow):
    summary = injection_flow["runs"][0]
    assert summary.anomalies_triggered > 0
    root = injection_flow["root"] / "run_a" / "anomalies"
    directories = sorted(d for d in root.iterdir() if d.is_dir())
    assert len(directories) == summary.anomalies_triggered
    for directory in directories:
        assert sorted(p.name for p in directory.iterdir()) == ["frame.pgm", "report.json", "snippet.wav"]

    # WAV round-trip: the snippet must equal the aligned window bit for bit.
    from avfuse.io import load_capture
    burst, clip = load_capture(injection_flow["capture"])
    windows = align_audio_to_frames(burst, clip)
    by_ms = {round(burst.frames[w.frame_index].timestamp * 1000): w for w in windows}
    for directory in directories:
        ms = int(directory.name.split("_")[0])
        window = by_ms[ms]
        samples, rate = read_wav(directory / "snippet.wav")
        assert rate == clip.sample_rate
        np.testing.assert_array_equal(samples, window.samples)
    passed(10, f"artifacts: {len(directories)} triggered dirs with frame.pgm+snippet.wav+report.json, WAV exact")
