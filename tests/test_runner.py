"""The one stage runner: failure propagation, drop accounting, shared loader."""

import json
import shutil
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from avfuse.cli import main as cli_main
from avfuse.config import Config
from avfuse.errors import AvFuseError, InvalidInput
from avfuse.fusion import FLOW_COLUMN, build_model
from avfuse.io import read_pgm, write_pgm
from avfuse.pipeline import (PipelineContext, open_capture, per_window, run_pipeline, run_stages,
                             train_on_scenario)
from avfuse.vision_dsp import DenseFlow

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
    """Make the DWT inside analyze raise on every frame."""
    import avfuse.pipeline

    def broken(frame):
        raise ValueError("broken DWT")

    monkeypatch.setattr(avfuse.pipeline, "dwt2_energy", broken)


class TestStageFailure:
    def test_run_raises_naming_window_and_stage(self, canonical_capture, tmp_path,
                                                failing_analyze):
        kind, error = finishes(lambda: run_pipeline(canonical_capture, Config(), tmp_path / "t"))
        assert kind == "error"
        assert isinstance(error, AvFuseError)
        assert str(error) == "window 0: analyze stage failed: broken DWT"
        assert isinstance(error.__cause__, ValueError)

    @pytest.mark.parametrize("mode", [[], ["--single-thread"]], ids=["threaded", "inline"])
    def test_cli_exits_2_naming_window_and_stage(self, canonical_capture, tmp_path, capsys, mode,
                                                 failing_analyze):
        argv = ["--out", str(tmp_path / "out"), "run", str(canonical_capture), *mode]
        assert finishes(lambda: cli_main(argv)) == ("value", 2)
        err = capsys.readouterr().err
        assert "window 0: analyze stage failed" in err

    @pytest.mark.parametrize("on_helper_thread", [True, False], ids=["threaded", "inline"])
    def test_first_failure_stops_every_worker(self, on_helper_thread):
        """The runner stops at the first failure on whichever thread calls it."""
        seen = {"a": [], "b": [], "c": []}

        def stage(name, fail_at=None):
            def fn(job):
                if job.index == fail_at:
                    raise ValueError("boom")
                seen[name].append(job.index)
                return job
            return per_window(name, fn)

        jobs = [SimpleNamespace(index=i) for i in range(20)]

        def run():
            return run_stages([stage("a"), stage("b", fail_at=3), stage("c")], jobs, capacity=32)

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


class TestOneIngestQueue:
    def test_stages_run_in_order_over_what_the_ingest_queue_released(self):
        calls = []

        def stage(name):
            def fn(job):
                calls.append((name, job.index))
                return SimpleNamespace(index=job.index, by=name)
            return per_window(name, fn)

        jobs = [SimpleNamespace(index=i) for i in range(5)]
        outputs, queue, latencies = run_stages([stage("a"), stage("b"), stage("c")], jobs,
                                               capacity=3)
        assert calls == [(name, i) for name in "abc" for i in (2, 3, 4)]
        assert [(job.index, job.by) for job in outputs] == [(2, "c"), (3, "c"), (4, "c")]
        assert queue.dropped == 2
        assert {name: len(ms) for name, ms in latencies.items()} == {"a": 3, "b": 3, "c": 3}


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
        scenario, clip, jobs = open_capture(injection_capture, config.vision)
        context = PipelineContext(config, scenario, clip.sample_rate)
        first, second = ([context.tokenize(context.detect(context.analyze(job)))
                          for job in jobs[:2]])
        field = DenseFlow(config.vision.flow_alpha, config.vision.flow_iterations)(
            first.preprocessed, second.preprocessed)
        assert first.visual_row[FLOW_COLUMN] == 0.0
        assert second.visual_row[FLOW_COLUMN] == np.hypot(field.u, field.v).mean() > 0.0

    def test_basic_train_skips_flow(self, injection_capture, tmp_path, flow_calls):
        config = Config()
        config.fusion.steps = 1
        config.anomaly.autoencoder_steps = 1
        train_on_scenario(injection_capture, config, tmp_path / "models")
        assert len(flow_calls) == 0
