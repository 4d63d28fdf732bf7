"""Truncated or byte-flipped files fail cleanly in every on-disk format.

Each example cuts a valid file short or flips one of its bytes and passes it
through the loader for that format. The only accepted outcomes are a normal
return, an :class:`AvFuseError`, or (for ``report``, which runs the CLI) an
exit status of 0, 1 or 2. Every load runs under a timeout, so a hang fails.
Hypothesis runs derandomized, 30 examples per format.
"""

import json
import shutil
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse.anomaly import DenseAutoencoder, load_autoencoder, save_autoencoder
from avfuse.cli import main as cli_main
from avfuse.config import Config, load_config
from avfuse.errors import AvFuseError, InvalidInput
from avfuse.fusion import BasicFusionModel, TokenNormalizer, load_model, save_model
from avfuse.io import load_capture, read_pgm, read_wav
from avfuse.scenario import Scenario, generate_scenario, preset_scenario

TIMEOUT_S = 10.0

EVENTS = [
    {"t": 0.0, "window": 0, "kind": "metric", "payload": {"fuse_ms": 1.5}},
    {"t": 0.1, "window": 1, "kind": "anomaly",
     "payload": {"triggered": True, "combined": 0.75, "type": "visual_burst"}},
    {"t": 0.2, "window": 2, "kind": "anomaly",
     "payload": {"triggered": True, "combined": 0.5, "type": "audio_burst"}},
]


def report_exit(path):
    """``avfuse report`` on ``path``; its exit status must be 0, 1 or 2."""
    status = cli_main(["report", str(path)])
    assert status in (0, 1, 2)


# Format -> (file under the fixture root, loader of the corrupted copy).
# The manifest is corrupted in place inside a capture copy, so that the
# loader sees it next to the frames and audio it names.
FORMATS = {
    "fusion.bin": ("fusion.bin", load_model),
    "autoencoder.bin": ("autoencoder.bin", load_autoencoder),
    "pgm frame": ("capture/frame_0000.pgm", read_pgm),
    "audio.wav": ("capture/audio.wav", read_wav),
    "manifest.json": ("capture/manifest.json", lambda path: load_capture(path.parent)),
    "scenario.json": ("capture/scenario.json", Scenario.from_json),
    "config": ("config.json", load_config),
    "events.jsonl line": ("events.jsonl", report_exit),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A valid file of every format, and a scratch copy of the capture."""
    root = tmp_path_factory.mktemp("originals")
    generate_scenario(preset_scenario("canonical", seed=0), root / "capture")
    save_model(root / "fusion.bin", BasicFusionModel(), TokenNormalizer.identity(3, 4))
    autoencoder = DenseAutoencoder()
    autoencoder.training_mse = 0.01
    save_autoencoder(root / "autoencoder.bin", autoencoder)
    (root / "config.json").write_text(json.dumps(Config().to_dict(), indent=2))
    (root / "events.jsonl").write_text("".join(json.dumps(e) + "\n" for e in EVENTS))
    scratch = tmp_path_factory.mktemp("corrupted")
    shutil.copytree(root / "capture", scratch / "capture")
    return root, scratch


def edit(data: bytes, draw) -> bytes:
    """``data`` cut at a drawn length, or with one drawn byte XOR a drawn mask."""
    position = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        return data[:position]
    flipped = data[position] ^ draw(st.integers(1, 255))
    return data[:position] + bytes([flipped]) + data[position + 1:]


def corrupt(data: bytes, name: str, draw) -> bytes:
    if name != "events.jsonl line":
        return edit(data, draw)
    lines = data.splitlines(keepends=True)
    index = draw(st.integers(0, len(lines) - 1))
    lines[index] = edit(lines[index], draw)
    return b"".join(lines)


def within_timeout(load, path):
    """Run ``load(path)`` on a worker thread; return what it raised, if anything."""
    outcome = {}

    def target():
        try:
            load(path)
        except Exception as exc:  # re-raised on the test thread unless an AvFuseError
            outcome["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(TIMEOUT_S)
    assert not worker.is_alive(), f"loading {path} did not finish in {TIMEOUT_S} s"
    return outcome.get("error")


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_corrupted_file_fails_cleanly(originals, name, data):
    root, scratch = originals
    relative, load = FORMATS[name]
    original = (root / relative).read_bytes()
    target = scratch / relative
    target.write_bytes(corrupt(original, name, data.draw))
    try:
        error = within_timeout(load, target)
    finally:
        target.write_bytes(original)
    if error is not None and not isinstance(error, AvFuseError):
        raise error


def test_a_valid_file_of_every_format_loads(originals):
    root, _ = originals
    for name, (relative, load) in FORMATS.items():
        assert within_timeout(load, root / relative) is None, name
    samples, rate = read_wav(root / "capture" / "audio.wav")
    assert rate == 16000 and np.all(np.abs(samples) <= 1.0)


def test_wav_cut_inside_a_sample_is_invalid_input(originals, tmp_path):
    wav = tmp_path / "audio.wav"
    wav.write_bytes((originals[0] / "capture" / "audio.wav").read_bytes()[:45])
    with pytest.raises(InvalidInput, match="truncated WAV"):
        read_wav(wav)


def test_manifest_naming_a_missing_frame_is_invalid_input(originals, tmp_path):
    capture = shutil.copytree(originals[0] / "capture", tmp_path / "capture")
    (capture / "frame_0001.pgm").unlink()
    with pytest.raises(InvalidInput, match="manifest.json: cannot read a file it names"):
        load_capture(capture)


def test_manifest_with_a_numeric_file_name_is_invalid_input(originals, tmp_path):
    capture = shutil.copytree(originals[0] / "capture", tmp_path / "capture")
    manifest = json.loads((capture / "manifest.json").read_text())
    manifest["frames"][0]["file"] = 5
    (capture / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InvalidInput, match="manifest.json: malformed manifest"):
        load_capture(capture)
