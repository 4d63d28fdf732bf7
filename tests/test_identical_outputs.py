"""``tools/identical_outputs.py``: the rendered outputs against the golden manifest,
and ``--compare`` on small synthetic output trees."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avfuse import tensor as tz

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identical_outputs.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "identical_outputs.sha256"
RUN = Path("runs") / "advanced-trained-threaded"
MODEL = Path("models") / "advanced" / "fusion.bin"


def anomaly_record(window: int, combined: float, triggered: bool) -> dict:
    return {"kind": "anomaly", "t": window / 10, "window": window,
            "payload": {"combined": combined, "events": [3], "triggered": triggered,
                        "scores": {"audio": 0.0, "statistical": 2 * combined},
                        "type": "statistical"}}


def write_events(tree: Path, records: list[dict]) -> None:
    (tree / RUN / "events.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


@pytest.fixture
def tree(tmp_path) -> Path:
    root = tmp_path / "a"
    (root / "captures" / "injection").mkdir(parents=True)
    (root / "captures" / "injection" / "frame_0000.pgm").write_bytes(b"P5\n2 1\n255\n\x01\x02")
    (root / MODEL.parent).mkdir(parents=True)
    weights = np.random.default_rng(0).normal(size=(4, 3))
    tz.save_tensors(root / MODEL, {"proj.weight": weights, "meta.arch": np.array([[1.0, 4.0]])})
    tz.save_tensors(root / MODEL.parent / "autoencoder.bin",
                    {"enc.weight": weights.T, "meta.training_mse": np.array([[0.003]])})
    report = root / RUN / "anomalies" / "000004000_statistical" / "report.json"
    report.parent.mkdir(parents=True)
    report.write_text(json.dumps({"combined": 0.5066720064085453, "type": "statistical"}))
    write_events(root, [anomaly_record(0, 0.07745708472842795, False),
                        anomaly_record(40, 0.5066720064085453, True)])
    return root


def copy_of(tree: Path) -> Path:
    other = tree.parent / "b"
    shutil.copytree(tree, other)
    return other


def compare(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=120)


def events(tree: Path) -> list[dict]:
    return [json.loads(line) for line in (tree / RUN / "events.jsonl").read_text().splitlines()]


def nudge_weight(tree: Path, relative: float) -> None:
    state = tz.load_tensors(tree / MODEL)
    state["proj.weight"][1, 2] *= 1 + relative
    tz.save_tensors(tree / MODEL, state)


def test_identical_trees_pass(tree):
    result = compare(tree, copy_of(tree))
    assert result.returncode == 0, result.stderr
    assert "within the bounds" in result.stdout


def test_flipped_trigger_fails_naming_file_and_field(tree):
    other = copy_of(tree)
    records = events(other)
    records[1]["payload"]["triggered"] = False
    write_events(other, records)
    result = compare(tree, other)
    assert result.returncode == 1
    assert "events.jsonl: line 2.payload.triggered: True vs False" in result.stderr


def test_changed_record_count_fails(tree):
    other = copy_of(tree)
    write_events(other, events(other)[:1])
    result = compare(tree, other)
    assert result.returncode == 1
    assert "events.jsonl: 2 vs 1 records" in result.stderr


def test_event_float_off_by_1e_10_fails_and_1e_14_passes(tree):
    other = copy_of(tree)
    records = events(other)
    combined = records[0]["payload"]["combined"]
    records[0]["payload"]["combined"] = combined * (1 + 1e-14)
    write_events(other, records)
    assert compare(tree, other).returncode == 0
    records[0]["payload"]["combined"] = combined * (1 + 1e-10)
    write_events(other, records)
    result = compare(tree, other)
    assert result.returncode == 1
    assert "events.jsonl: line 1.payload.combined" in result.stderr


def test_weight_off_by_1e_10_passes_and_1e_6_fails(tree):
    other = copy_of(tree)
    nudge_weight(other, 1e-10)
    assert compare(tree, other).returncode == 0
    nudge_weight(other, 1e-6)
    result = compare(tree, other)
    assert result.returncode == 1
    assert "fusion.bin: proj.weight[1, 2]" in result.stderr


def test_a_file_in_one_tree_only_fails(tree):
    other = copy_of(tree)
    (other / RUN / "anomalies" / "000004000_statistical" / "report.json").unlink()
    result = compare(tree, other)
    assert result.returncode == 1
    assert "report.json is in only one tree" in result.stderr


def test_changed_capture_byte_fails(tree):
    other = copy_of(tree)
    (other / "captures" / "injection" / "frame_0000.pgm").write_bytes(b"P5\n2 1\n255\n\x01\x03")
    result = compare(tree, other)
    assert result.returncode == 1
    assert "frame_0000.pgm: bytes differ" in result.stderr


def test_every_file_outside_the_bounds_is_listed_with_its_largest_gap(tree):
    other = copy_of(tree)
    records = events(other)
    for record, relative in zip(records, (1e-10, 1e-9)):
        record["payload"]["combined"] *= 1 + relative
    write_events(other, records)
    state = tz.load_tensors(other / MODEL)
    state["proj.weight"][0, 1] *= 1 + 1e-6
    state["proj.weight"][3, 0] *= 1 + 1e-4
    tz.save_tensors(other / MODEL, state)
    (other / "captures" / "injection" / "frame_0000.pgm").write_bytes(b"P5\n2 1\n255\n\x01\x03")
    result = compare(tree, other)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert lines[0] == "outside the bounds in 3 files:"
    assert lines[1] == "captures/injection/frame_0000.pgm: bytes differ"
    assert lines[2].startswith("models/advanced/fusion.bin: proj.weight[3, 0]: ")
    assert lines[2].endswith("relative gap 0.0001 (largest of 2 outside the bounds)")
    assert lines[3].startswith(f"{RUN.as_posix()}/events.jsonl: line 2.payload.combined: ")
    assert "relative gap 1e-09 (largest of 2 outside the bounds)" in lines[3]


def test_rendered_outputs_match_the_golden_manifest(tmp_path):
    rendered_tree = tmp_path / "out"
    result = subprocess.run([sys.executable, str(TOOL), "--manifest", str(rendered_tree)],
                            capture_output=True, text=True, timeout=900)
    assert result.returncode == 0, result.stderr[-2000:]
    golden, rendered = GOLDEN.read_text().splitlines(), result.stdout.splitlines()
    if golden[0] != rendered[0]:
        pytest.skip(f"{GOLDEN.name} was rendered with {golden[0][2:]}; "
                    f"this machine has {rendered[0][2:]}")
    differing = sorted({line.split(" ", 2)[2] for line in set(golden) ^ set(rendered)})
    assert not differing, (
        f"{len(differing)} rendered files differ from {GOLDEN.name}, first: {differing[:5]}; "
        f"render OUT here and at the parent with `python3 tools/identical_outputs.py OUT` and "
        f"check them with `--compare`, or regenerate the manifest for an intended change")
    shutil.rmtree(rendered_tree)
