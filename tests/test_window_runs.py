"""Analyze, fuse and score over runs of consecutive windows: stacked NLM, Horn-Schunck,
DWT, spectral statistics, frame means and block means, one fusion forward per run,
and how a run reports failures and latencies."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avfuse.pipeline
import avfuse.vision_dsp
from avfuse.anomaly import (RollingBaseline, autoencoder_score, autoencoder_train,
                            frame_to_vector, save_autoencoder, zscore_score)
from avfuse.audio_dsp import spectral_stats
from avfuse.cli import main as cli_main
from avfuse.config import Config
from avfuse.detect_track import BBox, Detection
from avfuse.errors import AvFuseError, InvalidInput
from avfuse.fusion import (FUSED_DIM, FusionModel, TokenNormalizer, TrainingBatch, build_model,
                           visual_rows)
from avfuse.io import load_capture
from avfuse.pipeline import (
    RUN,
    PipelineContext,
    Run,
    _motion_accuracy,
    open_capture,
    run_pipeline,
    run_stages,
)
from avfuse.scenario import generate_scenario, preset_scenario
from avfuse.vision_dsp import STACK, DenseFlow, dwt2_energy, preprocess_frame, preprocess_frames
from oracles import (HandWindows, audio_row, reference_dwt2_energies, reference_spectral_stats,
                     visual_row)


@pytest.fixture(scope="module")
def seed1_injection(tmp_path_factory):
    directory = tmp_path_factory.mktemp("injection-seed1")
    generate_scenario(preset_scenario("injection", seed=1), directory)
    return directory


def random_frames(shape, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, *shape), dtype=np.uint8)


def runs(items, size):
    return [items[start:start + size] for start in range(0, len(items), size)]


def advanced_config() -> Config:
    config = Config()
    config.fusion.model = "advanced"
    return config


class TestStackedNonLocalMeans:
    def assert_stack_equals_each_frame(self, frames, patch=3, search=7, size=RUN):
        for run in runs(frames, size):
            stacked = preprocess_frames(run, patch, search)
            assert stacked.shape == run.shape and stacked.dtype == np.uint8
            for frame, out in zip(run, stacked):
                assert out.tobytes() == preprocess_frame(frame, patch, search).tobytes()

    def test_every_seed1_injection_frame_in_runs_of_1_4_and_a_short_last_run(self,
                                                                                seed1_injection):
        burst, _ = load_capture(seed1_injection)
        frames = np.stack([frame.pixels for frame in burst.frames])[:10]  # runs of 4, 4 and 2
        for size in (1, RUN, 8):
            self.assert_stack_equals_each_frame(frames, size=size)

    def test_tall_frames(self):
        self.assert_stack_equals_each_frame(random_frames((20, 8), 5), patch=3, search=7)

    @pytest.mark.parametrize("patch", [1, 3, 5])
    def test_search_equal_to_the_smaller_side(self, patch):
        self.assert_stack_equals_each_frame(random_frames((7, 12), 3, seed=patch), patch, 7)

    def test_a_frame_instead_of_a_stack_is_rejected_naming_its_shape(self):
        with pytest.raises(InvalidInput, match=r"shape \(8, 8\)"):
            preprocess_frames(np.zeros((8, 8), dtype=np.uint8))


class TestPassesOfAtMostStack:
    """Non-local means and Horn-Schunck take a run of any length in passes of at most
    ``STACK`` frames or pairs, and each frame or pair keeps the bytes it has alone."""

    def test_non_local_means(self, monkeypatch):
        frames = random_frames((12, 16), 2 * STACK + 2)
        passes, nlm = [], avfuse.vision_dsp._nlm
        monkeypatch.setattr(avfuse.vision_dsp, "_nlm",
                            lambda img, *args: passes.append(len(img)) or nlm(img, *args))
        stacked = preprocess_frames(frames)
        assert passes == [STACK, STACK, 2]
        for frame, out in zip(frames, stacked):
            assert out.tobytes() == preprocess_frame(frame).tobytes()

    def test_horn_schunck(self, monkeypatch):
        frames = random_frames((12, 20), 2 * STACK + 2)
        flow, passes, sweeps = DenseFlow(10.0, 25), [], DenseFlow._sweeps
        monkeypatch.setattr(DenseFlow, "_sweeps", lambda self, prev, nxt: (
            passes.append(len(prev)) or sweeps(self, prev, nxt)))
        stacked = flow(frames[:-1], frames[1:])
        assert passes == [STACK, STACK, 1]
        for i in range(len(frames) - 1):
            alone = flow(frames[i], frames[i + 1])
            assert stacked.u[i].tobytes() == alone.u.tobytes()
            assert stacked.v[i].tobytes() == alone.v.tobytes()


class TestStackedHornSchunck:
    @pytest.mark.parametrize("shape", [(8, 8), (12, 20), (64, 64)])
    @pytest.mark.parametrize("pairs", [1, 3])
    def test_each_pair_equals_the_pair_alone(self, shape, pairs):
        frames = random_frames(shape, pairs + 1, seed=shape[1] + pairs)
        flow = DenseFlow(10.0, 25)
        stacked = flow(frames[:-1], frames[1:])
        assert stacked.u.shape == stacked.v.shape == (pairs, *shape)
        for i in range(pairs):
            alone = flow(frames[i], frames[i + 1])
            assert stacked.u[i].tobytes() == alone.u.tobytes()
            assert stacked.v[i].tobytes() == alone.v.tobytes()

    def test_a_stack_with_a_degenerate_frame_names_the_shape(self):
        with pytest.raises(InvalidInput, match=r"\(3, 1, 5\)"):
            DenseFlow()(np.zeros((3, 1, 5)), np.zeros((3, 1, 5)))


class TestRunLevelAnalyze:
    def test_equals_one_window_analyze_for_every_seed1_injection_window(self, seed1_injection):
        config = advanced_config()  # the advanced model reads the flow
        scenario, clip, windows = open_capture(seed1_injection, config.vision)
        alone = PipelineContext(config, scenario, clip.sample_rate)
        batched = PipelineContext(config, scenario, clip.sample_rate)
        expected = [windows[w] for w in range(len(windows))]
        got = windows[:]
        for context, each in ((alone, expected), (batched, got)):
            for run in each:
                context.analyze(run)
        assert len(expected) == 120 and [len(run) for run in got] == [RUN] * (120 // RUN)
        assert expected[0].flows.tolist() == [0.0]
        assert all(run.flows[0] > 0.0 for run in expected[1:])
        for window, a in enumerate(expected):
            b, i = got[window // RUN], window % RUN
            assert a.index == b.index + i == window
            for column in ("preprocessed", "wavelets", "stats", "flows"):
                assert getattr(a, column)[0].tobytes() == getattr(b, column)[i].tobytes()

    def test_flow_csvs_of_every_window_after_the_first(self, canonical_capture, tmp_path):
        export = tmp_path / "features"
        run_pipeline(canonical_capture, Config(), tmp_path / "out", deterministic=True,
                     export_dir=export)
        assert sorted(p.name for p in export.glob("flow_*.csv")) == [
            f"flow_{w:04d}.csv" for w in range(1, 10)]


def seed1_frames(capture) -> np.ndarray:
    burst, _ = load_capture(capture)
    return np.stack([frame.pixels for frame in burst.frames])


def assert_dwt_per_frame(frames):
    stacked = dwt2_energy(frames)
    assert stacked.shape == (len(frames), 7)
    for frame, energies in zip(frames, stacked):
        assert energies.tobytes() == dwt2_energy(frame).tobytes()
        assert energies.tobytes() == np.array(reference_dwt2_energies(frame)).tobytes()


def assert_stats_per_window(windows, sample_rate):
    stacked = spectral_stats(windows, sample_rate)
    assert stacked.shape == (len(windows), 5)
    for samples, stats in zip(windows, stacked):
        assert stats.tobytes() == spectral_stats(samples, sample_rate).tobytes()
        assert stats.tobytes() == np.array(reference_spectral_stats(samples, sample_rate)).tobytes()


class TestStackedKernels:
    """The DWT, spectral statistics, frame means and block means of a stack give each frame
    or window the bytes of its own call and of the one-window reference."""

    @pytest.mark.parametrize("shape", [(8, 8), (12, 20), (36, 52), (64, 64), (96, 128)])
    def test_dwt_of_random_constant_and_zero_frames(self, shape):
        rng = np.random.default_rng(shape[1])
        frames = np.concatenate([random_frames(shape, 3, seed=shape[0]).astype(np.float64),
                                 rng.normal(0.0, 100.0, size=(2, *shape)),
                                 np.full((1, *shape), 9.0), np.zeros((1, *shape))])
        assert_dwt_per_frame(frames)

    def test_dwt_of_every_seed1_injection_frame(self, seed1_injection):
        frames = seed1_frames(seed1_injection)
        assert len(frames) == 120
        for run in runs(frames, RUN):
            assert_dwt_per_frame(run)
        assert_dwt_per_frame(frames)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 1601])
    def test_spectral_stats_of_random_tone_constant_and_silent_windows(self, n):
        rng = np.random.default_rng(n)
        tone = 0.3 * np.sin(2.0 * np.pi * 440.0 * np.arange(n) / 16000)
        windows = np.stack([rng.uniform(-1.0, 1.0, n), np.zeros(n), tone, np.full(n, 0.25),
                            rng.integers(-32768, 32768, n) / 32768.0])
        assert_stats_per_window(windows, 16000)

    def test_spectral_stats_of_every_seed1_injection_window(self, seed1_injection):
        _, capture, windows = open_capture(seed1_injection, Config().vision)
        samples = np.concatenate([run.samples for run in windows[:]])
        assert len(samples) == 120
        for run in runs(samples, RUN):
            assert_stats_per_window(run, capture.sample_rate)

    def test_frame_means_and_block_means_of_every_seed1_injection_frame(self, seed1_injection):
        frames = seed1_frames(seed1_injection)
        stacked, alone = RollingBaseline(256), RollingBaseline(256)
        assert zscore_score(stacked, frames).tolist() == [zscore_score(alone, frame)
                                                          for frame in frames]
        assert list(stacked.values) == list(alone.values) == [
            float(frame.astype(np.float64).mean()) for frame in frames]
        vectors = frame_to_vector(frames)
        assert vectors.shape == (120, 64)
        for frame, vector in zip(frames, vectors):
            assert vector.tobytes() == frame_to_vector(frame).tobytes()

    @pytest.mark.parametrize("shape", [(8, 8), (36, 52), (63, 70)])
    def test_block_means_of_uneven_blocks(self, shape):
        frames = random_frames(shape, 5, seed=shape[1])
        for frame, vector in zip(frames, frame_to_vector(frames)):
            assert vector.tobytes() == frame_to_vector(frame).tobytes()

    def test_reconstruction_scores_of_every_seed1_injection_frame(self, seed1_injection):
        frames = seed1_frames(seed1_injection)
        model = autoencoder_train(list(frames[:32]), steps=20, learning_rate=0.1)
        assert autoencoder_score(model, frames) == [autoencoder_score(model, f) for f in frames]


BOUNDED = settings(max_examples=40, derandomize=True, database=None, deadline=None)
SIDES = st.sampled_from([8, 12, 16])
CUTS = st.lists(st.integers(1, 8), max_size=8)  # the sizes of a stack's leading parts


def split(items, sizes):
    """``items`` cut into consecutive parts of ``sizes``, whatever is left in a last part."""
    parts, start = [], 0
    for size in sizes + [len(items)]:
        if start < len(items):
            parts.append(items[start:start + size])
            start += size
    return parts


@st.composite
def frame_stacks(draw):
    """1 to 8 frames of one drawn size, each 8-bit pixels, wide normal values, a constant
    or zeros."""
    count, h, w = draw(st.integers(1, 8)), draw(SIDES), draw(SIDES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    makers = {"pixels": lambda: rng.integers(0, 256, (h, w)).astype(np.float64),
              "normal": lambda: rng.normal(0.0, 100.0, (h, w)),
              "constant": lambda: np.full((h, w), float(rng.integers(1, 256))),
              "zero": lambda: np.zeros((h, w))}
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=count, max_size=count))
    return np.stack([makers[kind]() for kind in kinds])


@st.composite
def sample_stacks(draw):
    """1 to 8 windows of one drawn length, each noise, a tone, a constant, 16-bit
    quantized noise or silence."""
    count, n = draw(st.integers(1, 8)), draw(st.integers(2, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    makers = {"noise": lambda: rng.uniform(-1.0, 1.0, n),
              "tone": lambda: 0.3 * np.sin(2.0 * np.pi * rng.uniform(20.0, 8000.0)
                                           * np.arange(n) / 16000),
              "constant": lambda: np.full(n, rng.uniform(-1.0, 1.0)),
              "quantized": lambda: rng.integers(-32768, 32768, n) / 32768.0,
              "silence": lambda: np.zeros(n)}
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=count, max_size=count))
    return np.stack([makers[kind]() for kind in kinds])


@pytest.fixture(scope="module")
def advanced_bundle():
    """An untrained advanced model, which reads the flow, with the identity normalizer."""
    model = build_model(advanced_config().fusion)
    return model, TokenNormalizer.identity(model.config.visual_features,
                                           model.config.audio_features)


class TestStackedRowsMatchReferences:
    """For any stack of 1 to 8 windows cut into any runs, each window's DWT and spectral
    statistics rows, flow and token rows have the bytes of the per-window references in
    ``oracles``. Hypothesis runs derandomized, 40 examples each."""

    @BOUNDED
    @given(frames=frame_stacks(), sizes=CUTS)
    def test_dwt_rows(self, frames, sizes):
        for part in split(frames, sizes):
            assert_dwt_per_frame(part)

    @BOUNDED
    @given(windows=sample_stacks(), sizes=CUTS)
    def test_spectral_stats_rows(self, windows, sizes):
        for part in split(windows, sizes):
            assert_stats_per_window(part, 16000)

    @BOUNDED
    @given(count=st.integers(1, 8), h=SIDES, w=SIDES, seed=st.integers(0, 2**32 - 1),
           sizes=CUTS, data=st.data())
    def test_analyze_and_tokenize_columns(self, advanced_bundle, count, h, w, seed, sizes,
                                          data):
        config = advanced_config()
        config.vision.flow_iterations = 10
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, (count, h, w), dtype=np.uint8)
        samples = rng.uniform(-1.0, 1.0, (count, 64))
        detections = [tuple(Detection(BBox(0.0, 0.0, 4.0, 4.0), confidence, 0)
                            for confidence in data.draw(st.lists(st.floats(0.0, 1.0),
                                                                 max_size=3)))
                      for _ in range(count)]
        context = PipelineContext(config, preset_scenario("canonical", seed=0), 16000,
                                  model_bundle=advanced_bundle)
        runs = []
        for part in split(range(count), sizes):
            window = slice(part.start, part.stop)
            run = Run(index=part.start, timestamps=[0.1 * i for i in part], raw=raw[window],
                      samples=samples[window])
            context.analyze(run)
            run.detections = detections[window]
            context.tokenize(run)
            runs.append(run)

        def column(name):
            return np.concatenate([getattr(run, name) for run in runs])

        v = config.vision
        denoised = [preprocess_frame(frame, v.nlm_patch, v.nlm_search, v.nlm_strength)
                    for frame in raw]
        flow = DenseFlow(v.flow_alpha, v.flow_iterations)
        flows = [0.0] + [float(flow(a, b).magnitude.mean()) for a, b in zip(denoised, denoised[1:])]
        energies = [reference_dwt2_energies(frame) for frame in denoised]
        stats = [reference_spectral_stats(window, 16000) for window in samples]
        assert column("flows").tobytes() == np.array(flows).tobytes()
        assert column("wavelets").tobytes() == np.array(energies).tobytes()
        assert column("stats").tobytes() == np.array(stats).tobytes()
        expected = np.array([visual_row(*window) for window in zip(detections, energies, flows)])
        assert column("visual_rows").tobytes() == expected.tobytes()
        assert visual_rows(detections, column("wavelets"), column("flows")).tobytes() == (
            expected.tobytes())
        assert column("audio_rows").tobytes() == np.array([audio_row(s) for s in stats]).tobytes()


def row_gap(batched: np.ndarray, alone: np.ndarray) -> float:
    """The largest logit gap over the largest |logit| of the one-window row."""
    return float(np.abs(batched - alone).max() / np.abs(alone).max())


class TestBatchedForward:
    @pytest.mark.parametrize("kind", ["basic", "advanced"])
    @pytest.mark.parametrize("batch", [RUN, 8])
    def test_logits_within_1e_5_of_the_row_and_equal_argmax(self, kind, batch):
        config = Config()
        config.fusion.model = kind
        model = build_model(config.fusion)
        model.cast_to_float32()
        c = model.config
        rng = np.random.default_rng(batch)
        visual = rng.normal(size=(batch, 10, c.visual_features))
        audio = rng.normal(size=(batch, 10, c.audio_features))
        fused = rng.normal(size=(batch, FUSED_DIM)) if model.ensemble is not None else None
        motion, event = model.predict(visual, audio, fused)
        motion = motion.reshape(batch, -1)
        event = None if event is None else event.reshape(batch, -1)
        for i in range(batch):
            one_motion, one_event = model.predict(visual[i], audio[i],
                                                  None if fused is None else fused[i])
            for got, alone in [(motion[i], one_motion)] + (
                    [] if event is None else [(event[i], one_event)]):
                assert row_gap(got, alone) <= 1e-5
                assert np.argmax(got) == np.argmax(alone)

    @pytest.mark.parametrize("kind", ["basic", "advanced"])
    def test_sequences_of_unequal_length_share_one_forward(self, kind):
        config = Config()
        config.fusion.model = kind
        model = build_model(config.fusion)
        model.cast_to_float32()
        c = model.config
        rng = np.random.default_rng(11)
        lengths = [1, 2, 3, 5, 5, 8, 12, 12, 7]
        visual = [rng.normal(size=(n, c.visual_features)) for n in lengths]
        audio = [rng.normal(size=(n, c.audio_features)) for n in lengths]
        fused = rng.normal(size=(len(lengths), FUSED_DIM)) if model.ensemble is not None else None
        motion, event = model.predict(visual, audio, fused)
        motion = motion.reshape(len(lengths), -1)
        event = None if event is None else event.reshape(len(lengths), -1)
        for i in range(len(lengths)):
            one_motion, one_event = model.predict(visual[i], audio[i],
                                                  None if fused is None else fused[i])
            for got, alone in [(motion[i], one_motion)] + (
                    [] if event is None else [(event[i], one_event)]):
                assert row_gap(got, alone) <= 1e-5
                assert np.argmax(got) == np.argmax(alone)
        with pytest.raises(InvalidInput, match="token counts differ"):
            model.predict(visual, audio[:-1] + [audio[-1][:3]], fused)

    def test_fuse_makes_one_predict_per_run_warm_up_runs_included(self, injection_capture,
                                                                  tmp_path, monkeypatch):
        """120 windows at 32 tokens: 15 runs of RUN windows, one ``predict`` each, the
        first four over the warm-up sequences of 1 to 32 tokens."""
        calls = []
        predict = FusionModel.predict

        def counting(model, visual, audio, fused=None):
            calls.append([len(sequence) for sequence in visual])
            return predict(model, visual, audio, fused)

        monkeypatch.setattr(FusionModel, "predict", counting)
        config = advanced_config()
        config.fusion.burst_tokens = 32
        summary = run_pipeline(injection_capture, config, tmp_path / "out", deterministic=True)
        assert summary.windows_processed == 120 and len(calls) == 15
        assert calls == [[min(window + 1, 32) for window in range(first, first + RUN)]
                         for first in range(0, 120, RUN)]

    def test_run_level_fuse_matches_one_window_fuse(self, seed1_injection):
        """Every window, warm-up ones included, stays within 1e-5 with an equal argmax."""
        config = advanced_config()
        scenario, clip, windows = open_capture(seed1_injection, config.vision)
        context = PipelineContext(config, scenario, clip.sample_rate)
        context.model.cast_to_float32()
        alone = PipelineContext(config, scenario, clip.sample_rate,
                                model_bundle=(context.model, context.normalizer))
        expected = [windows[w] for w in range(3 * RUN)]
        got = windows[:3 * RUN]
        for each, ctx in ((expected, alone), (got, context)):
            for run in each:
                for stage in (ctx.analyze, ctx.detect, ctx.tokenize, ctx.fuse):
                    stage(run)
        for window, a in enumerate(expected):
            b, i = got[window // RUN], window % RUN
            for one, batched in ((a.motion_logits[0], b.motion_logits[i]),
                                 (a.event_logits[0], b.event_logits[i])):
                assert row_gap(batched, one) <= 1e-5
                assert np.argmax(batched) == np.argmax(one)

    @pytest.mark.parametrize("kind", ["basic", "advanced"])
    def test_batched_motion_accuracy_counts_each_sequence(self, kind):
        config = Config()
        config.fusion.model = kind
        model = build_model(config.fusion)
        c = model.config
        rng = np.random.default_rng(7)
        batch = TrainingBatch(visual=rng.normal(size=(12, 10, c.visual_features)),
                              audio=rng.normal(size=(12, 10, c.audio_features)),
                              motion=rng.integers(0, 2, size=12),
                              fused=rng.normal(size=(12, FUSED_DIM)))
        correct = sum(int(np.argmax(model.predict(v, a, f)[0])) == label
                      for v, a, f, label in zip(batch.visual, batch.audio, batch.fused, batch.motion))
        assert _motion_accuracy(model, batch) == correct / 12


class TestCaptureWindowSlices:
    @pytest.mark.parametrize("key, step", [(slice(0, 8, 2), 2), (slice(None, None, -1), -1)])
    def test_a_step_other_than_1_is_rejected_naming_it(self, seed1_injection, key, step):
        """Runs hold consecutive windows, so a strided slice would label its frames wrongly."""
        _, _, windows = open_capture(seed1_injection, Config().vision)
        with pytest.raises(InvalidInput, match=f"got step {step}$"):
            windows[key]

    def test_a_slice_is_cut_into_runs_of_the_windows_it_names(self, seed1_injection):
        _, _, windows = open_capture(seed1_injection, Config().vision)
        got = windows[5:14:1]
        assert [list(run.windows) for run in got] == [[5, 6, 7, 8, 9, 10, 11, 12], [13]]
        for run in got:
            for window, frame in zip(run.windows, run.raw):
                assert frame.tobytes() == windows[window].raw[0].tobytes()


class TestRunFailuresAndLatency:
    def test_a_detector_failing_only_at_window_5_names_window_5(self, canonical_capture,
                                                                tmp_path, monkeypatch):
        original = avfuse.pipeline.scripted_detector

        def fails_at_window_5(window, *args):
            if window == 5:
                raise ValueError("broken detector")
            return original(window, *args)

        monkeypatch.setattr(avfuse.pipeline, "scripted_detector", fails_at_window_5)
        with pytest.raises(AvFuseError) as raised:
            run_pipeline(canonical_capture, Config(), tmp_path / "out", deterministic=True)
        assert str(raised.value) == "window 5: detect stage failed: broken detector"
        assert isinstance(raised.value.__cause__, ValueError)

    def test_a_failure_over_a_run_names_the_run_s_windows(self, canonical_capture, tmp_path,
                                                          monkeypatch):
        def broken(frames, **_):
            raise ValueError("broken NLM")

        monkeypatch.setattr(avfuse.pipeline, "preprocess_frames", broken)
        with pytest.raises(AvFuseError) as raised:
            run_pipeline(canonical_capture, Config(), tmp_path / "out", deterministic=True)
        assert str(raised.value) == f"windows 0-{RUN - 1}: analyze stage failed: broken NLM"

    def test_a_score_failure_names_the_run_s_windows_and_exits_2(self, canonical_capture,
                                                                tmp_path, monkeypatch, capsys):
        calls = []
        original = avfuse.pipeline.event_anomaly_score

        def fails_on_the_second_run(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("broken event score")
            return original(*args)

        monkeypatch.setattr(avfuse.pipeline, "event_anomaly_score", fails_on_the_second_run)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fusion": {"model": "advanced"}}))
        assert cli_main(["--config", str(config), "--out", str(tmp_path / "out"),
                         "--deterministic", "run", str(canonical_capture)]) == 2
        assert "windows 8-9: score stage failed: broken event score" in capsys.readouterr().err

    def test_a_tokenize_failure_names_the_run_s_windows_and_exits_2(self, canonical_capture,
                                                                   tmp_path, monkeypatch, capsys):
        """Tokenize has no one-window step, so its failure names the run."""
        calls = []
        original = avfuse.pipeline.visual_rows

        def fails_on_the_second_run(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("broken visual rows")
            return original(*args)

        monkeypatch.setattr(avfuse.pipeline, "visual_rows", fails_on_the_second_run)
        assert cli_main(["--out", str(tmp_path / "out"), "--deterministic", "run",
                         str(canonical_capture)]) == 2
        err = capsys.readouterr().err
        assert "windows 8-9: tokenize stage failed: broken visual rows" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "events.jsonl").exists()

    def test_each_window_of_a_run_gets_its_share_of_the_run_time(self):
        outputs = []
        _, latencies = run_stages([("a", lambda run: None), ("b", outputs.append)],
                                  HandWindows(7), capacity=8)
        assert [window for run in outputs for window in run.windows] == list(range(7))
        a = latencies["a"]
        assert len(a) == len(latencies["b"]) == 7
        assert a[0] == a[1] == a[2] == a[3] and a[4] == a[5] == a[6]


def output_tree(out_dir: Path) -> dict[str, bytes]:
    """Every file a run wrote but its timing summary, by relative path."""
    return {str(path.relative_to(out_dir)): path.read_bytes()
            for path in sorted(out_dir.rglob("*"))
            if path.is_file() and path.name != "summary.json"}


class TestScoreAcrossRunsAndChunks:
    """The baselines carry one buffer across runs and chunks, so the bytes do not depend on
    where the chunks fall or on how much history a baseline may keep."""

    def test_the_outputs_do_not_depend_on_the_chunk_size(self, canonical_capture, tmp_path,
                                                         monkeypatch):
        frames = random_frames((64, 64), 32)
        autoencoder = tmp_path / "autoencoder.bin"
        save_autoencoder(autoencoder, autoencoder_train(list(frames), steps=2, learning_rate=0.1))
        config = Config()
        config.anomaly.threshold = 0.1  # so that some windows trigger and write artifacts
        trees = {}
        for chunk in (8, 16, 32, 64):  # multiples of RUN, as the runner's CHUNK is
            monkeypatch.setattr(avfuse.pipeline, "CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}"
            run_pipeline(canonical_capture, config, out, deterministic=True,
                         autoencoder_path=autoencoder)
            trees[chunk] = output_tree(out)
        assert any(name.startswith("anomalies") for name in trees[64])
        assert trees[8] == trees[16] == trees[32] == trees[64]

    def test_an_unbounded_history_logs_what_the_window_count_does(self, canonical_capture,
                                                                 tmp_path):
        logs = []
        for history in (10**12, 10):  # the canonical capture has 10 windows
            config = tmp_path / f"history{history}.json"
            config.write_text(json.dumps({"anomaly": {"history": history}}))
            out = tmp_path / f"out{history}"
            assert cli_main(["--config", str(config), "--out", str(out), "--deterministic",
                             "run", str(canonical_capture)]) == 0
            logs.append((out / "events.jsonl").read_bytes())
        assert logs[0] == logs[1]
