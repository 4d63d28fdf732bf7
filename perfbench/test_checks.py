"""Self-test of the benchmark's own checks and bookkeeping.

    python3 -m pytest perfbench -q

The output checks must reject a truncated event log, a dropped window and a
capture whose digest does not match; BENCHMARK.json must list exactly the
metrics and workloads run.py reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import (
    STAGES,
    capture_digest,
    check_capture,
    check_event_log,
    check_identical,
    check_summary,
    detection_outcome,
)
from layers import per_layer_names, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
N = 4


def write_log(path: Path, n: int = N, skip_window: int | None = None, dropped: int = 0) -> Path:
    lines = []
    for w in range(n):
        if w == skip_window:
            continue
        for kind in ("detection", "track", "classification", "anomaly"):
            payload = {"combined": 0.9 if w == 1 else 0.1, "triggered": w == 1} \
                if kind == "anomaly" else {}
            lines.append({"t": w / 10, "window": w, "kind": kind, "payload": payload})
    for stage in STAGES:
        lines.append({"t": (n - 1) / 10, "window": n - 1, "kind": "metric",
                      "payload": {"stage": stage, "processed": n - dropped, "dropped": dropped}})
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in lines))
    return path


def summary(processed=N, drops=0, accounting=True) -> dict:
    return {"windows_ingested": N, "windows_processed": processed, "accounting_ok": accounting,
            "drops": {stage: (drops if stage == "analyze" else 0) for stage in STAGES}}


def test_complete_log_passes(tmp_path):
    assert check_event_log(write_log(tmp_path / "events.jsonl"), N) == []


@pytest.mark.parametrize("cut", [0.5, 0.99, "last newline"])
def test_truncated_log_fails(tmp_path, cut):
    path = write_log(tmp_path / "events.jsonl")
    data = path.read_bytes()
    path.write_bytes(data[:-1] if cut == "last newline" else data[:int(len(data) * cut)])
    assert check_event_log(path, N)


def test_log_cut_at_a_line_boundary_fails(tmp_path):
    path = write_log(tmp_path / "events.jsonl")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))
    assert check_event_log(path, N)


def test_dropped_window_fails(tmp_path):
    assert check_event_log(write_log(tmp_path / "a.jsonl", skip_window=2), N)
    assert check_event_log(write_log(tmp_path / "b.jsonl", dropped=1), N)
    assert check_summary(summary(processed=N - 1, drops=1), N, deterministic=True)
    assert check_summary(summary(processed=N - 1), N, deterministic=True)
    assert check_summary(summary(drops=1), N, deterministic=True)


def test_shedding_run_only_needs_accounting():
    assert check_summary(summary(processed=N - 1, drops=1), N, deterministic=False) == []
    assert check_summary(summary(processed=N - 1), N, deterministic=False)
    assert check_summary(summary(accounting=False), N, deterministic=False)


def test_capture_digest_mismatch_fails(tmp_path):
    capture = tmp_path / "capture"
    capture.mkdir()
    (capture / "frame_0000.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
    (capture / "manifest.json").write_text("{}\n")
    digest = capture_digest(capture)
    assert check_capture(capture, digest) == []
    (capture / "frame_0000.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x04")
    assert check_capture(capture, digest)
    (capture / "frame_0000.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
    (capture / "frame_0000.pgm").rename(capture / "frame_0001.pgm")
    assert check_capture(capture, digest)


def test_repetitions_must_match():
    assert check_identical(["a", "a"], "log") == []
    assert check_identical(["a", "b"], "log")


def test_detection_outcome(tmp_path):
    scenario = {"injections": [{"kind": "visual_burst", "window_start": 1, "window_end": 2},
                               {"kind": "event_label", "window_start": 3, "window_end": 3}]}
    outcome = detection_outcome(write_log(tmp_path / "events.jsonl"), scenario)
    assert outcome["triggered"] == [1]
    assert (outcome["injected_hits"], outcome["false_alarms"]) == (1, 0)
    assert outcome["anomaly_auc"] == pytest.approx(0.75)
    assert outcome["injected_score"] == pytest.approx(0.5)
    assert outcome["normal_score"] == pytest.approx(0.1)


def test_self_time_excludes_traced_children():
    spans = [
        {"id": 2, "name": "vision_dsp.dense_flow", "parent": 1, "window": 0, "start": 1.0, "end": 3.0},
        {"id": 1, "name": "pipeline.analyze", "parent": None, "window": 0, "start": 0.5, "end": 4.0},
        {"id": 3, "name": "pipeline.detect", "parent": None, "window": 0, "start": 4.5, "end": 5.0},
    ]
    out = summarize(spans, [(0.0, 0)], wall_s=5.0)
    assert out["vision_dsp.dense_flow.busy_s"] == pytest.approx(2.0)
    assert out["vision_dsp.dense_flow.p50_ms"] == pytest.approx(2000.0)
    assert out["pipeline.analyze.busy_p50_ms"] == pytest.approx(3500.0)
    assert out["pipeline.analyze.wait_p50_ms"] == pytest.approx(500.0)
    assert out["pipeline.detect.wait_p50_ms"] == pytest.approx(500.0)
    assert out["pipeline.analyze.busy_share"] == pytest.approx(0.7)


def test_benchmark_json_lists_what_run_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    summarized = summarize([], [], wall_s=1.0)
    passes = {"trace.overhead_ratio", "pipeline.threaded_windows_per_s",
              "pipeline.inline_windows_per_s"}
    assert set(summarized) | passes == {name for name, _ in per_layer_names()}


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "injection-basic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_restores_the_program():
    pytest.importorskip("numpy")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import avfuse.pipeline
    import avfuse.tensor
    from tracing import Tracer

    original = avfuse.pipeline.dwt2_energy
    original_matmul = avfuse.tensor.matmul
    tracer = Tracer()
    with tracer.installed():
        assert avfuse.pipeline.dwt2_energy is not original
        avfuse.pipeline.dwt2_energy(np.zeros((16, 16)))
    assert avfuse.pipeline.dwt2_energy is original
    assert avfuse.tensor.matmul is original_matmul
    assert [s["name"] for s in tracer.spans] == ["vision_dsp.dwt2_energy"]
