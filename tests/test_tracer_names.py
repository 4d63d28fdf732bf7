"""The names perfbench's tracer wraps are the ones a run calls.

The tracer in ``perfbench/tracing.py`` patches the stage methods by name and
reads each span's window from the stage's ``Run`` argument. A rename on
either side would leave its stage metrics at 0 without any error.
"""

from pathlib import Path

import numpy as np
import pytest

from avfuse.anomaly import autoencoder_train, save_autoencoder
from avfuse.config import Config
from avfuse.pipeline import RUN, run_pipeline

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("kind", ["basic", "advanced"])
def test_traced_run_logs_the_same_bytes_with_one_analyze_and_fuse_span_per_run(
        canonical_capture, tmp_path, monkeypatch, kind):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    config = Config()
    config.fusion.model = kind
    untraced = run_pipeline(canonical_capture, config, tmp_path / "untraced", deterministic=True)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pipeline(canonical_capture, config, tmp_path / "traced", deterministic=True)
    assert Path(traced.log_path).read_bytes() == Path(untraced.log_path).read_bytes()
    runs = list(range(0, traced.windows_processed, RUN))
    assert len(runs) == 3  # 10 windows: runs from windows 0, 4 and 8
    for stage in ("analyze", "fuse"):
        assert [span["window"] for span in tracer.spans
                if span["name"] == f"pipeline.{stage}"] == runs


def test_the_stacked_kernels_make_one_span_per_run(canonical_capture, tmp_path, monkeypatch):
    """The DWT, the spectral statistics and the frame-mean and reconstruction scores each
    take a run's stack in one call, under the name the tracer wraps."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    frames = np.random.default_rng(0).integers(0, 256, size=(32, 64, 64), dtype=np.uint8)
    autoencoder = tmp_path / "autoencoder.bin"
    save_autoencoder(autoencoder, autoencoder_train(list(frames), steps=2, learning_rate=0.1))
    tracer = Tracer()
    with tracer.installed():
        summary = run_pipeline(canonical_capture, Config(), tmp_path / "out", deterministic=True,
                               autoencoder_path=autoencoder)
    runs = list(range(0, summary.windows_processed, RUN))
    assert len(runs) == 3
    for name in ("vision_dsp.dwt2_energy", "audio_dsp.spectral_stats", "anomaly.zscore_score",
                 "anomaly.autoencoder_score"):
        assert [span["window"] for span in tracer.spans if span["name"] == name] == runs, name
