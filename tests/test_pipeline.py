import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from avfuse.anomaly import AnomalyReport
from avfuse.cli import main as cli_main
from avfuse.config import Config, load_config
from avfuse.errors import InvalidConfig, InvalidInput
from avfuse.io import read_wav
from avfuse.pipeline import (
    EventRecord,
    StageQueue,
    emit_event_log,
    persist_anomaly_artifact,
    run_pipeline,
    train_on_scenario,
)
from avfuse.scenario import AudioSegment, Injection, Scenario, generate_scenario, preset_scenario


def run_canonical(capture, out, **kwargs):
    return run_pipeline(capture, Config(), out, deterministic=True, **kwargs)


class TestScenarioGeneration:
    def test_empty_scripts_constant_background_and_silence(self, tmp_path):
        scenario = Scenario(name="empty", duration_s=1.0, fps=4.0, background_noise=0.0, seed=3)
        generate_scenario(scenario, tmp_path)
        frames = sorted(tmp_path.glob("frame_*.pgm"))
        assert len(frames) == 4
        first = frames[0].read_bytes()
        assert all(p.read_bytes() == first for p in frames[1:])
        samples, _ = read_wav(tmp_path / "audio.wav")
        assert np.all(samples == 0.0)

    def test_manifest_frame_count_is_duration_times_fps(self, tmp_path):
        scenario = preset_scenario("injection", seed=1)
        generate_scenario(scenario, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["frames"]) == round(scenario.duration_s * scenario.fps)

    def test_same_seed_renders_identical_bytes(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            generate_scenario(preset_scenario("injection", seed=7), d)
        for name in sorted(p.name for p in a_dir.iterdir()):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name

    def test_different_seed_renders_different_frames(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_scenario(preset_scenario("canonical", seed=1), a_dir)
        generate_scenario(preset_scenario("canonical", seed=2), b_dir)
        assert (a_dir / "frame_0000.pgm").read_bytes() != (b_dir / "frame_0000.pgm").read_bytes()

    def test_out_of_range_injection_rejected(self):
        scenario = Scenario(duration_s=1.0, fps=4.0,
                            injections=[Injection(2, 9, "visual_burst")])
        with pytest.raises(InvalidConfig):
            scenario.validate()

    def test_audio_segment_outside_duration_rejected(self):
        scenario = Scenario(duration_s=1.0, fps=4.0,
                            audio_segments=[AudioSegment(0.5, 2.0)])
        with pytest.raises(InvalidConfig):
            scenario.validate()


class TestStageQueue:
    def test_drop_oldest_keeps_newest(self):
        queue = StageQueue(capacity=2)
        for item in (1, 2, 3, 4):
            queue.put(item)
        assert queue.dropped == 2
        assert queue.get() == 3
        assert queue.get() == 4

    def test_counters_account_exactly(self):
        queue = StageQueue(capacity=3)
        for item in range(10):
            queue.put(item)
        drained = list(iter(queue.get, None))
        assert queue.pushed == 10
        assert queue.pushed == len(drained) + queue.dropped

    def test_get_on_empty_queue_returns_none(self):
        queue = StageQueue(capacity=1)
        assert queue.get() is None
        queue.put(1)
        assert queue.get() == 1
        assert queue.get() is None


class TestPipelineRun:
    def test_canonical_run_contract(self, canonical_capture, tmp_path):
        summary = run_canonical(canonical_capture, tmp_path / "out")
        assert summary.windows_processed == 10
        assert sum(summary.drops.values()) == 0
        assert summary.anomalies_triggered == 0
        assert summary.accounting_ok

    def test_every_window_has_a_classification_record(self, canonical_capture, tmp_path):
        summary = run_canonical(canonical_capture, tmp_path / "out")
        windows = set()
        for line in Path(summary.log_path).read_text().splitlines():
            record = json.loads(line)
            if record["kind"] == "classification":
                windows.add(record["window"])
        assert windows == set(range(10))

    def test_log_timestamps_non_decreasing(self, canonical_capture, tmp_path):
        summary = run_canonical(canonical_capture, tmp_path / "out")
        stamps = [json.loads(line)["t"] for line in Path(summary.log_path).read_text().splitlines()]
        assert stamps == sorted(stamps)

    def test_deterministic_runs_are_byte_identical(self, canonical_capture, tmp_path):
        first = run_canonical(canonical_capture, tmp_path / "one")
        second = run_canonical(canonical_capture, tmp_path / "two")
        assert Path(first.log_path).read_bytes() == Path(second.log_path).read_bytes()

    def test_single_thread_matches_threaded(self, canonical_capture, tmp_path):
        """``--single-thread`` still parses and changes nothing."""
        logs = []
        for mode in ([], ["--single-thread"]):
            out = tmp_path / f"out{len(logs)}"
            assert cli_main(["--out", str(out), "--deterministic",
                             "run", str(canonical_capture), *mode]) == 0
            logs.append((out / "events.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_capacity_one_with_slow_stage_drops_but_completes(self, canonical_capture, tmp_path):
        summary = run_pipeline(canonical_capture, Config(), tmp_path / "out", queue_capacity=1)
        assert sum(summary.drops.values()) > 0
        assert summary.accounting_ok
        assert summary.windows_processed + summary.drops["analyze"] >= 10

    def test_latency_percentiles_are_ordered(self, canonical_capture, tmp_path):
        summary = run_canonical(canonical_capture, tmp_path / "out")
        for stage, latency in summary.stage_latency.items():
            assert latency["p50_ms"] <= latency["p95_ms"] <= latency["max_ms"], stage

    def test_missing_manifest_is_a_startup_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "scenario.json").write_text(json.dumps(Scenario(fps=4.0, duration_s=1.0).to_dict()))
        with pytest.raises(InvalidInput) as err:
            run_pipeline(empty, Config(), tmp_path / "out")
        assert "manifest" in str(err.value)


class TestArtifacts:
    def report(self, t, kind):
        return AnomalyReport(
            method_scores={"statistical": 0.1, "reconstruction": 0.2, "audio": 0.9, "event": 0.0},
            combined=0.6, triggered=True, anomaly_type=kind,
            contributing_events=(), timestamp=t,
        )

    def test_directory_naming_contract(self, tmp_path):
        frame = np.full((16, 16), 50, dtype=np.uint8)
        samples = np.linspace(-0.5, 0.5, 1600)
        paths = persist_anomaly_artifact(self.report(1.25, "audio_burst"), frame, samples, 16000, tmp_path)
        assert paths[0].parent.name == "000001250_audio_burst"
        assert sorted(p.name for p in paths) == ["frame.pgm", "report.json", "snippet.wav"]
        assert all(p.exists() for p in paths)

    def test_same_timestamp_different_types_get_distinct_dirs(self, tmp_path):
        frame = np.zeros((8, 8), dtype=np.uint8)
        samples = np.zeros(100)
        a = persist_anomaly_artifact(self.report(2.0, "visual_burst"), frame, samples, 16000, tmp_path)
        b = persist_anomaly_artifact(self.report(2.0, "audio_burst"), frame, samples, 16000, tmp_path)
        assert a[0].parent != b[0].parent

    def test_snippet_wav_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        quantized = np.round(rng.uniform(-1, 1, size=800) * 32767) / 32767
        persist_anomaly_artifact(self.report(0.5, "audio_burst"), np.zeros((8, 8), np.uint8),
                                 quantized, 16000, tmp_path)
        read_back, rate = read_wav(tmp_path / "000000500_audio_burst" / "snippet.wav")
        assert rate == 16000
        np.testing.assert_array_equal(read_back, quantized)

    def test_non_triggered_report_rejected(self, tmp_path):
        report = AnomalyReport({}, 0.1, False, "audio", (), 1.0)
        with pytest.raises(InvalidInput):
            persist_anomaly_artifact(report, np.zeros((8, 8), np.uint8), np.zeros(10), 16000, tmp_path)

    def test_unwritable_root_raises_oserror_for_sink_to_log(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where a directory must go")
        with pytest.raises(OSError):
            persist_anomaly_artifact(self.report(1.0, "audio_burst"),
                                     np.zeros((8, 8), np.uint8), np.zeros(10), 16000,
                                     blocked / "anomalies")


class TestEventLog:
    def test_zero_records_empty_file(self, tmp_path):
        path = emit_event_log([], tmp_path / "events.jsonl")
        assert path.read_text() == ""

    def test_single_record_round_trips(self, tmp_path):
        record = EventRecord(0.5, 3, "detection", {"count": 2})
        path = emit_event_log([record], tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed == {"t": 0.5, "window": 3, "kind": "detection", "payload": {"count": 2}}

    def test_records_sorted_by_timestamp(self, tmp_path):
        records = [
            EventRecord(2.0, 2, "anomaly", {}),
            EventRecord(0.5, 0, "detection", {}),
            EventRecord(1.0, 1, "track", {}),
        ]
        path = emit_event_log(records, tmp_path / "events.jsonl")
        stamps = [json.loads(line)["t"] for line in path.read_text().splitlines()]
        assert stamps == [0.5, 1.0, 2.0]


class TestTrainingIntegration:
    def test_train_then_run_with_models(self, tmp_path):
        capture = tmp_path / "capture"
        generate_scenario(preset_scenario("training", seed=0), capture)
        config = Config()
        config.fusion.steps = 60
        config.anomaly.autoencoder_steps = 400
        result = train_on_scenario(capture, config, tmp_path / "models", seed=0)
        assert result["training_accuracy"] >= 0.9
        assert Path(result["model_path"]).exists()
        assert result["autoencoder_path"] is not None

        summary = run_pipeline(
            capture, config, tmp_path / "out", deterministic=True,
            model_path=result["model_path"], autoencoder_path=result["autoencoder_path"],
        )
        assert summary.windows_processed == 120
        # The model pools a sliding context of the last burst_tokens windows,
        # so it tracks the dominant state of that context; skip ambiguous
        # mixed contexts near block transitions.
        scenario = Scenario.from_json(capture / "scenario.json")
        context_len = config.fusion.burst_tokens
        agree = total = 0
        for line in Path(summary.log_path).read_text().splitlines():
            record = json.loads(line)
            if record["kind"] != "classification" or record["window"] < context_len:
                continue
            w = record["window"]
            moving = np.mean([scenario.motion_label(v) for v in range(w - context_len + 1, w + 1)])
            if 0.3 < moving < 0.7:
                continue
            total += 1
            agree += record["payload"]["motion_pred"] == int(moving >= 0.5)
        assert total >= 50
        assert agree / total >= 0.85


class TestArtifactLossIsNotFatal:
    def test_sink_counts_artifact_errors_and_run_completes(self, canonical_capture, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "anomalies").write_text("blocks the artifact directory")
        config = Config()
        config.anomaly.threshold = 0.0  # every window triggers
        summary = run_pipeline(canonical_capture, config, out, deterministic=True)
        assert summary.windows_processed == 10
        assert summary.anomalies_triggered == 10
        assert summary.artifact_errors == 10


class TestCli:
    def test_generate_run_report_flow(self, tmp_path, capsys):
        capture = tmp_path / "cap"
        assert cli_main(["--out", str(capture), "generate", "--preset", "canonical"]) == 0
        out = tmp_path / "run"
        assert cli_main(["--out", str(out), "--deterministic", "run", str(capture)]) == 0
        assert cli_main(["--out", str(out), "report", str(out / "events.jsonl")]) == 0
        stdout = capsys.readouterr().out
        assert "10 windows" in stdout

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tracker": {"high_confidence": -3}}))
        capture = tmp_path / "cap"
        cli_main(["--out", str(capture), "generate"])
        assert cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), "run", str(capture)]) == 1

    def test_runtime_error_exit_code(self, tmp_path):
        missing = tmp_path / "nonexistent"
        assert cli_main(["--out", str(tmp_path / "o"), "run", str(missing)]) == 2

    def test_export_features_writes_csvs(self, tmp_path):
        capture = tmp_path / "cap"
        cli_main(["--out", str(capture), "generate", "--preset", "canonical"])
        export = tmp_path / "features"
        assert cli_main(["--out", str(tmp_path / "o"), "--deterministic", "run", str(capture),
                         "--export-features", str(export)]) == 0
        assert (export / "spectrogram.csv").exists()
        assert (export / "scalogram.csv").exists()
        assert list(export.glob("flow_*.csv"))


class TestConfig:
    def test_defaults_validate(self):
        load_config(None).validate()

    def test_all_problems_enumerated(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "tracker": {"high_confidence": -1.0, "max_misses": 0},
            "vision": {"nlm_patch": 4},
        }))
        with pytest.raises(InvalidConfig) as err:
            load_config(bad)
        assert len(err.value.problems) >= 3

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"detecter": {"dual": True}}))
        with pytest.raises(InvalidConfig) as err:
            load_config(bad)
        assert "detecter: unknown key" in err.value.problems[0]

    def test_defaults_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(asdict(Config())))
        assert load_config(path) == Config()

    def test_one_key_overridden_in_every_section(self, tmp_path):
        labels = tuple(reversed(Config().event_labels))
        override = {
            "detector": {"dual": False}, "tracker": {"max_misses": 5},
            "vision": {"flow_alpha": 4},
            "fusion": {"model": "advanced"}, "anomaly": {"weights": {"audio": 1.0}},
            "runtime": {"queue_capacity": 8}, "event_labels": list(labels),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(override))
        default = Config()
        assert load_config(path) == Config(
            detector=replace(default.detector, dual=False),
            tracker=replace(default.tracker, max_misses=5),
            vision=replace(default.vision, flow_alpha=4),
            fusion=replace(default.fusion, model="advanced"),
            anomaly=replace(default.anomaly, weights={"audio": 1.0}),
            runtime=replace(default.runtime, queue_capacity=8),
            event_labels=labels,
        )
