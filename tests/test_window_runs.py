"""Analyze and fuse over runs of consecutive windows: stacked NLM and Horn-Schunck,
one fusion forward per run of equal-length sequences, and how a run reports
failures and latencies."""

from types import SimpleNamespace

import numpy as np
import pytest

import avfuse.pipeline
from avfuse.config import Config
from avfuse.errors import AvFuseError, InvalidInput
from avfuse.fusion import FUSED_DIM, TrainingBatch, build_model
from avfuse.io import load_capture
from avfuse.pipeline import (
    RUN,
    PipelineContext,
    _motion_accuracy,
    open_capture,
    per_window,
    run_pipeline,
    run_stages,
)
from avfuse.scenario import generate_scenario, preset_scenario
from avfuse.vision_dsp import DenseFlow, preprocess_frame, preprocess_frames


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
        scenario, clip, jobs = open_capture(seed1_injection, config.vision)
        alone = PipelineContext(config, scenario, clip.sample_rate)
        batched = PipelineContext(config, scenario, clip.sample_rate)
        expected = [alone.analyze(job) for job in jobs]
        got = [out for run in runs(jobs, RUN) for out in batched.analyze_run(run)]
        assert len(got) == len(expected) == 120
        assert expected[0].flow == 0.0 and all(job.flow > 0.0 for job in expected[1:])
        for a, b in zip(expected, got):
            assert a.index == b.index
            assert a.preprocessed.tobytes() == b.preprocessed.tobytes()
            assert a.wavelet == b.wavelet
            assert a.flow == b.flow

    def test_flow_csvs_of_every_window_after_the_first(self, canonical_capture, tmp_path):
        export = tmp_path / "features"
        run_pipeline(canonical_capture, Config(), tmp_path / "out", deterministic=True,
                     export_dir=export)
        assert sorted(p.name for p in export.glob("flow_*.csv")) == [
            f"flow_{w:04d}.csv" for w in range(1, 10)]


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

    def test_run_level_fuse_matches_one_window_fuse(self, seed1_injection):
        """Warm-up windows run alone and keep their bytes; the rest stay within 1e-5."""
        config = advanced_config()
        scenario, clip, jobs = open_capture(seed1_injection, config.vision)
        context = PipelineContext(config, scenario, clip.sample_rate)
        context.model.cast_to_float32()
        tokens = [context.tokenize(context.detect(job))
                  for job in context.analyze_run(jobs[:3 * RUN])]
        alone = PipelineContext(config, scenario, clip.sample_rate,
                                model_bundle=(context.model, context.normalizer))
        expected = [alone.fuse(job) for job in tokens]
        got = [out for run in runs(tokens, RUN) for out in context.fuse_run(run)]
        warm_up = config.fusion.burst_tokens - 1
        for window, (a, b) in enumerate(zip(expected, got)):
            for one, batched in ((a.motion_logits, b.motion_logits),
                                 (a.event_logits, b.event_logits)):
                if window < warm_up:
                    assert one.tobytes() == batched.tobytes()
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


class TestRunFailuresAndLatency:
    def test_a_dwt_failing_only_at_window_5_names_window_5(self, canonical_capture, tmp_path,
                                                           monkeypatch):
        original, calls = avfuse.pipeline.dwt2_energy, []

        def fails_at_window_5(frame):
            calls.append(1)
            if len(calls) == 6:
                raise ValueError("broken DWT")
            return original(frame)

        monkeypatch.setattr(avfuse.pipeline, "dwt2_energy", fails_at_window_5)
        with pytest.raises(AvFuseError) as raised:
            run_pipeline(canonical_capture, Config(), tmp_path / "out", deterministic=True)
        assert str(raised.value) == "window 5: analyze stage failed: broken DWT"
        assert isinstance(raised.value.__cause__, ValueError)

    def test_a_failure_over_a_run_names_the_run_s_windows(self, canonical_capture, tmp_path,
                                                          monkeypatch):
        def broken(frames, **_):
            raise ValueError("broken NLM")

        monkeypatch.setattr(avfuse.pipeline, "preprocess_frames", broken)
        with pytest.raises(AvFuseError) as raised:
            run_pipeline(canonical_capture, Config(), tmp_path / "out", deterministic=True)
        assert str(raised.value) == f"windows 0-{RUN - 1}: analyze stage failed: broken NLM"

    def test_each_window_of_a_run_gets_its_share_of_the_run_time(self):
        def batched(jobs):
            return list(jobs)

        jobs = [SimpleNamespace(index=i) for i in range(7)]
        outputs = []
        _, latencies = run_stages(
            [("a", batched, 3), per_window("b", lambda job: outputs.append(job) or job)], jobs,
            capacity=8)
        assert [job.index for job in outputs] == list(range(7))
        a = latencies["a"]
        assert len(a) == len(latencies["b"]) == 7
        assert a[0] == a[1] == a[2] and a[3] == a[4] == a[5]
