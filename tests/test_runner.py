"""The one stage runner: failure propagation, drop accounting, shared loader."""

import json
import shutil
import threading
import tracemalloc
from pathlib import Path
import numpy as np
import pytest

import avfuse.pipeline
from avfuse.cli import main as cli_main
from avfuse.config import Config, RuntimeConfig
from avfuse.errors import AvFuseError, InvalidInput
from avfuse.fusion import FLOW_COLUMN, build_model
from avfuse.io import Capture, read_pgm, write_pgm
from avfuse.pipeline import (CHUNK, PARTIAL_LOG, RUN, PipelineContext, _naming, open_capture,
                             run_pipeline, run_stages, train_on_scenario)
from avfuse.scenario import AudioSegment, Scenario, ScriptedObject, generate_scenario
from avfuse.vision_dsp import DenseFlow
from oracles import HandWindows

TIMEOUT_S = 60.0


def finishes(fn, timeout: float = TIMEOUT_S):
    """Run ``fn`` on a helper thread; fail instead of hanging if it never returns.

    Returns ``("value", result)`` or ``("error", exception)``.
    """
    outcome = []

    def target():
        try:
            outcome.append(("value", fn()))
        except BaseException as exc:  # reported to the test, not swallowed
            outcome.append(("error", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"did not finish within {timeout:g} s"
    return outcome[0]


@pytest.fixture(scope="module")
def cropped_capture(canonical_capture, tmp_path_factory):
    """Canonical capture with every frame cropped to 62x62, which DWT rejects."""
    directory = shutil.copytree(canonical_capture, tmp_path_factory.mktemp("cropped") / "capture")
    for path in directory.glob("frame_*.pgm"):
        write_pgm(path, read_pgm(path)[:62, :62])
    return directory


@pytest.fixture
def failing_analyze(monkeypatch):
    """Make the DWT inside analyze raise on every run."""
    import avfuse.pipeline

    def broken(frames):
        raise ValueError("broken DWT")

    monkeypatch.setattr(avfuse.pipeline, "dwt2_energy", broken)


class TestStageFailure:
    def test_run_raises_naming_window_and_stage(self, canonical_capture, tmp_path,
                                                failing_analyze):
        kind, error = finishes(lambda: run_pipeline(canonical_capture, Config(), tmp_path / "t"))
        assert kind == "error"
        assert isinstance(error, AvFuseError)
        assert str(error) == f"windows 0-{RUN - 1}: analyze stage failed: broken DWT"
        assert isinstance(error.__cause__, ValueError)

    @pytest.mark.parametrize("mode", [[], ["--single-thread"]], ids=["threaded", "inline"])
    def test_cli_exits_2_naming_window_and_stage(self, canonical_capture, tmp_path, capsys, mode,
                                                 failing_analyze):
        argv = ["--out", str(tmp_path / "out"), "run", str(canonical_capture), *mode]
        assert finishes(lambda: cli_main(argv)) == ("value", 2)
        err = capsys.readouterr().err
        assert f"windows 0-{RUN - 1}: analyze stage failed" in err

    @pytest.mark.parametrize("on_helper_thread", [True, False], ids=["threaded", "inline"])
    def test_first_failure_stops_every_worker(self, on_helper_thread):
        """The runner stops at the first failure on whichever thread calls it."""
        seen = {"a": [], "b": [], "c": []}

        def stage(name, fail_at=None):
            def fn(run):
                for window in run.windows:
                    with _naming(window):
                        if window == fail_at:
                            raise ValueError("boom")
                        seen[name].append(window)
            return name, fn

        def run():
            return run_stages([stage("a"), stage("b", fail_at=3), stage("c")], HandWindows(20),
                              capacity=32)

        if on_helper_thread:
            kind, error = finishes(run)
        else:
            with pytest.raises(AvFuseError) as raised:
                run()
            kind, error = "error", raised.value
        assert kind == "error"
        assert isinstance(error, AvFuseError)
        assert str(error) == "window 3: b stage failed: boom"
        assert isinstance(error.__cause__, ValueError)
        assert seen["b"] == [0, 1, 2]
        assert set(seen["c"]) <= {0, 1, 2}

    def test_no_stage_starts_a_thread(self, canonical_capture, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError("a stage started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        config = Config()
        config.fusion.steps = 1
        config.anomaly.autoencoder_steps = 1
        summary = run_pipeline(canonical_capture, config, tmp_path / "run")
        assert summary.windows_processed == 10
        assert train_on_scenario(canonical_capture, config, tmp_path / "models")["sequences"] == 1


class TestChunkedIngest:
    def test_stages_run_chunk_by_chunk_over_the_windows_ingest_keeps(self):
        calls, received = [], {name: [] for name in "abc"}

        def stage(name):
            def fn(run):
                received[name].append(run)
                calls.extend((name, window) for window in run.windows)
            return name, fn

        n, shed = 2 * CHUNK + 5, 3
        windows = HandWindows(n)
        dropped, latencies = run_stages([stage("a"), stage("b"), stage("c")], windows,
                                        capacity=n - shed)
        chunks = [range(start, min(start + CHUNK, n)) for start in range(shed, n, CHUNK)]
        assert windows.reads == [slice(c.start, c.start + CHUNK) for c in chunks]
        assert calls == [(name, i) for chunk in chunks for name in "abc" for i in chunk]
        served = [run for runs in windows.served for run in runs]
        assert [window for run in served for window in run.windows] == list(range(shed, n))
        for name in "abc":  # the runs ingest made, in window order: nothing is copied
            assert len(received[name]) == len(served)
            assert all(got is run for got, run in zip(received[name], served))
        assert dropped == shed
        assert {name: len(ms) for name, ms in latencies.items()} == dict.fromkeys("abc", n - shed)

    def test_chunk_is_a_multiple_of_the_run(self):
        assert CHUNK % RUN == 0

    def test_a_dropping_run_reads_no_frame_or_sample_of_a_shed_window(self, injection_capture,
                                                                       tmp_path, monkeypatch):
        """Only frame 0, for the size every frame must have, is read ahead of its window."""
        frames, spans = [], []
        read_frame, read_samples = Capture.read_frame, Capture.read_samples
        monkeypatch.setattr(Capture, "read_frame",
                            lambda self, i: frames.append(i) or read_frame(self, i))
        monkeypatch.setattr(Capture, "read_samples",
                            lambda self, s: spans.extend(s) or read_samples(self, s))
        summary = run_pipeline(injection_capture, Config(runtime=RuntimeConfig(8)), tmp_path / "out")
        assert summary.drops["analyze"] == 112 and summary.windows_processed == 8
        assert frames == [0, *range(112, 120)]
        first_kept = open_capture(injection_capture, Config().vision)[2].starts[112]
        assert len(spans) == 8 and min(lo for lo, _ in spans) == first_kept


class TestStreamedRun:
    def test_a_truncated_last_frame_exits_2_naming_it_and_leaves_no_event_log(
            self, injection_capture, tmp_path, capsys):
        capture = shutil.copytree(injection_capture, tmp_path / "capture")
        last = capture / "frame_0119.pgm"
        last.write_bytes(last.read_bytes()[:-10])
        out = tmp_path / "out"
        assert cli_main(["--out", str(out), "--deterministic", "run", str(capture)]) == 2
        assert f"{last}: truncated PGM" in capsys.readouterr().err
        assert not (out / "events.jsonl").exists() and not (out / PARTIAL_LOG).exists()

    def test_a_failing_stage_leaves_no_event_log(self, injection_capture, tmp_path, monkeypatch):
        original, calls = avfuse.pipeline.dwt2_energy, []

        def fails_late(frames):
            calls.append(1)
            if len(calls) == 25:  # windows 96-99, once the sink has logged the first chunk
                raise ValueError("broken DWT")
            return original(frames)

        monkeypatch.setattr(avfuse.pipeline, "dwt2_energy", fails_late)
        with pytest.raises(AvFuseError, match="windows 96-99: analyze stage failed"):
            run_pipeline(injection_capture, Config(), tmp_path / "out", deterministic=True)
        assert not (tmp_path / "out" / "events.jsonl").exists()
        assert not (tmp_path / "out" / PARTIAL_LOG).exists()

    def test_a_frame_of_another_size_fails_when_read_naming_frame_0(self, injection_capture,
                                                                    tmp_path):
        capture = shutil.copytree(injection_capture, tmp_path / "capture")
        frame = capture / "frame_0100.pgm"
        write_pgm(frame, read_pgm(frame)[:32, :32])
        with pytest.raises(InvalidInput) as raised:
            run_pipeline(capture, Config(), tmp_path / "out", deterministic=True)
        assert str(raised.value) == ("invalid burst: frame 100: dimensions (32, 32) "
                                     "differ from frame 0 (64, 64)")

    def test_4x_capture_peaks_within_a_tenth_of_the_1x_peak(self, tmp_path):
        """Peak traced memory of a deterministic run does not grow with the capture,
        once the capture fills a chunk."""
        peaks = {}
        for scale in (1, 1, 4):  # the first run warms caches and lazy imports
            capture = tmp_path / f"x{scale}"
            if not capture.exists():
                generate_scenario(steady_scenario(CHUNK / 10 * scale), capture)
            tracemalloc.start()
            try:
                run_pipeline(capture, Config(), tmp_path / f"out{scale}", deterministic=True)
                peaks[scale] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.1 * peaks[1], peaks


def steady_scenario(duration_s: float) -> Scenario:
    """A 10 fps capture with one moving object and a tone throughout."""
    return Scenario(name="steady", duration_s=duration_s, fps=10.0, seed=1,
                    objects=[ScriptedObject(1, 0, (4.0, 10.0), (14.0, 14.0), (0.4, 0.1))],
                    audio_segments=[AudioSegment(0.0, duration_s, "tone", 800.0, 0.2)])


class TestDropAccounting:
    def test_inline_run_sheds_from_the_same_queues(self, injection_capture, tmp_path):
        summary = run_pipeline(injection_capture, Config(), tmp_path / "out")
        assert summary.windows_ingested == 120
        assert summary.drops == {"analyze": 56, "detect": 0, "tokenize": 0,
                                 "fuse": 0, "score": 0, "sink": 0}
        assert summary.windows_processed == 64
        assert summary.accounting_ok
        records = [json.loads(line) for line in Path(summary.log_path).read_text().splitlines()]
        assert {r["payload"]["stage"]: r["payload"]["dropped"]
                for r in records if r["kind"] == "metric"} == summary.drops

    def test_threaded_run_accounts_the_same_way(self, injection_capture, tmp_path):
        summary = run_pipeline(injection_capture, Config(), tmp_path / "out")
        assert summary.accounting_ok
        assert summary.windows_ingested == 120
        assert summary.windows_processed + sum(summary.drops.values()) == 120


class TestSharedCaptureLoader:
    def fails_alike(self, capture, tmp_path, expected):
        config = Config()
        with pytest.raises(InvalidInput) as from_run:
            run_pipeline(capture, config, tmp_path / "run")
        with pytest.raises(InvalidInput) as from_train:
            train_on_scenario(capture, config, tmp_path / "train")
        assert expected in str(from_run.value)
        assert str(from_train.value) == str(from_run.value)

    def test_mixed_frame_sizes(self, canonical_capture, tmp_path):
        capture = shutil.copytree(canonical_capture, tmp_path / "capture")
        frame = capture / "frame_0003.pgm"
        write_pgm(frame, read_pgm(frame)[:32, :32])
        self.fails_alike(capture, tmp_path, "invalid burst")

    def test_missing_scenario(self, canonical_capture, tmp_path):
        capture = shutil.copytree(canonical_capture, tmp_path / "capture")
        (capture / "scenario.json").unlink()
        self.fails_alike(capture, tmp_path, "missing scenario definition")

    def test_frame_sides_the_dwt_cannot_take(self, cropped_capture, tmp_path, monkeypatch):
        import avfuse.pipeline

        loads = []
        monkeypatch.setattr(avfuse.pipeline, "load_model", loads.append)
        with pytest.raises(InvalidInput) as from_run:
            run_pipeline(cropped_capture, Config(), tmp_path / "run",
                         model_path=tmp_path / "fusion.bin")
        with pytest.raises(InvalidInput) as from_train:
            train_on_scenario(cropped_capture, Config(), tmp_path / "train")
        assert str(from_run.value) == "frame dimensions must be divisible by 4, got 62x62"
        assert str(from_train.value) == str(from_run.value)
        assert loads == []


class TestAdvancedModelAndTraining:
    def test_advanced_single_thread_matches_threaded(self, canonical_capture, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fusion": {"model": "advanced"}}))
        logs = []
        for mode in ([], ["--single-thread"]):
            out = tmp_path / f"out{len(logs)}"
            assert cli_main(["--config", str(config), "--out", str(out), "--deterministic",
                             "run", str(canonical_capture), *mode]) == 0
            logs.append((out / "events.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_train_builds_one_fusion_model(self, canonical_capture, tmp_path, monkeypatch):
        import avfuse.pipeline

        built = []

        def counting_build(fusion_config):
            built.append(fusion_config)
            return build_model(fusion_config)

        monkeypatch.setattr(avfuse.pipeline, "build_model", counting_build)
        config = Config()
        config.fusion.steps = 1
        result = train_on_scenario(canonical_capture, config, tmp_path / "models")
        assert result["sequences"] == 1
        assert len(built) == 1


class TestFlowOnlyWhenRead:
    """Horn-Schunck runs for window 1 onward only if the model or an export reads it."""

    @pytest.fixture
    def flow_calls(self, monkeypatch):
        calls = []
        original = DenseFlow.__call__

        def counting(self, frame_prev, frame_next):
            calls.extend([1] * (len(frame_prev) if np.ndim(frame_prev) == 3 else 1))  # one per pair
            return original(self, frame_prev, frame_next)

        monkeypatch.setattr(DenseFlow, "__call__", counting)
        return calls

    def test_basic_run_skips_flow(self, injection_capture, tmp_path, flow_calls):
        run_pipeline(injection_capture, Config(), tmp_path / "out", deterministic=True)
        assert len(flow_calls) == 0

    def test_basic_run_with_export_computes_flow(self, injection_capture, tmp_path, flow_calls):
        export = tmp_path / "features"
        run_pipeline(injection_capture, Config(), tmp_path / "out", deterministic=True,
                     export_dir=export)
        assert len(flow_calls) == 119
        assert len(list(export.glob("flow_*.csv"))) == 119

    def test_advanced_run_computes_flow(self, injection_capture, tmp_path, flow_calls):
        config = Config()
        config.fusion.model = "advanced"
        run_pipeline(injection_capture, config, tmp_path / "out", deterministic=True)
        assert len(flow_calls) == 119

    def test_advanced_flow_column_is_the_mean_flow_magnitude(self, injection_capture):
        config = Config()
        config.fusion.model = "advanced"
        scenario, clip, windows = open_capture(injection_capture, config.vision)
        context = PipelineContext(config, scenario, clip.sample_rate)
        first, second = windows[0], windows[1]
        for run in (first, second):
            for stage in (context.analyze, context.detect, context.tokenize):
                stage(run)
        field = DenseFlow(config.vision.flow_alpha, config.vision.flow_iterations)(
            first.preprocessed[0], second.preprocessed[0])
        assert first.visual_rows[0, FLOW_COLUMN] == 0.0
        assert second.visual_rows[0, FLOW_COLUMN] == np.hypot(field.u, field.v).mean() > 0.0

    def test_basic_train_skips_flow(self, injection_capture, tmp_path, flow_calls):
        config = Config()
        config.fusion.steps = 1
        config.anomaly.autoencoder_steps = 1
        train_on_scenario(injection_capture, config, tmp_path / "models")
        assert len(flow_calls) == 0
