"""Malformed configs, captures and event logs exit cleanly, naming what is wrong."""

import json
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import avfuse
from avfuse.cli import main as cli_main
from avfuse.config import FLOW_ITERATIONS_MAX, Config, DetectorConfig, RuntimeConfig
from avfuse.errors import InvalidConfig
from avfuse.pipeline import run_pipeline
from avfuse.scenario import preset_scenario
from avfuse.vision_dsp import NLM_PATCH_MAX

CANONICAL = preset_scenario("canonical", seed=0).to_dict()


@pytest.mark.parametrize("override, key", [
    ({"fusion": {"steps": "10"}}, "fusion.steps"),
    ({"anomaly": {"weights": [1, 2]}}, "anomaly.weights"),
    ({"anomaly": {"weights": {"audio": "1"}}}, "anomaly.weights"),
    ({"tracker": 5}, "tracker"),
    ({"detector": {"dual": 1}}, "detector.dual"),
    ({"anomaly": {"weights": {"audio": float("inf")}}}, "anomaly.weights"),
    ({"fusion": {"learning_rate": float("inf")}}, "fusion.learning_rate"),
    ({"vision": {"flow_alpha": float("inf")}}, "vision.flow_alpha"),
    ({"anomaly": {"autoencoder_learning_rate": -0.5}}, "anomaly.autoencoder_learning_rate"),
    ({"fusion": {"seed": -1}}, "fusion.seed"),
    ({"vision": {"flow_alpha": 10**399}}, "vision.flow_alpha"),
    ({"anomaly": {"history": 10**30}}, "anomaly.history"),
    ({"anomaly": {"weights": {"audio": -10**400}}}, "anomaly.weights"),
    ({"runtime": {"queue_capacity": 10**30}}, "runtime.queue_capacity"),
    ({"anomaly": {"weights": {"audio": 1, "colour": 1}}}, "anomaly.weights"),
    ({"anomaly": {"weights": {"statistical": 1e308, "audio": 1e308}}}, "anomaly.weights"),
    ({"vision": {"nlm_strength": 1e-300}}, "vision.nlm_strength"),
    ({"vision": {"nlm_strength": 1e-160}}, "vision.nlm_strength"),
    ({"detector": {"false_positive_rate": 1e300}}, "detector.false_positive_rate"),
    ({"detector": {"false_positive_rate": 101}}, "detector.false_positive_rate"),
    ({"detector": {"jitter_px": 1e300}}, "detector.jitter_px"),
    ({"vision": {"flow_iterations": 10**9}}, "vision.flow_iterations"),
    ({"fusion": {"steps": 30_001}}, "fusion.steps"),
    ({"anomaly": {"autoencoder_steps": 150_001}}, "anomaly.autoencoder_steps"),
    ({"vision": {"nlm_patch": 17, "nlm_search": 17}}, "vision.nlm_patch"),
], ids=["string steps", "list weights", "string weight", "number section", "integer flag",
        "infinite weight", "infinite learning rate", "infinite flow alpha",
        "negative autoencoder learning rate", "negative fusion seed", "400-digit flow alpha",
        "huge history", "huge weight", "huge queue capacity", "unknown method weight",
        "overflowing weight sum", "nlm strength 1e-300", "nlm strength 1e-160",
        "false positive rate 1e300", "false positive rate 101", "jitter 1e300",
        "flow iterations 1e9", "fusion steps 30001", "autoencoder steps 150001",
        "nlm patch 17"])
def test_wrong_json_type_is_a_config_error(tmp_path, capsys, override, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(override))
    assert cli_main(["--config", str(config), "--out", str(tmp_path / "out"), "generate"]) == 1
    assert f"config error: {config}: {key} " in capsys.readouterr().err


def test_flow_iterations_up_to_the_bound_are_accepted():
    config = Config()
    config.vision.flow_iterations = FLOW_ITERATIONS_MAX
    config.validate()
    config.vision.flow_iterations += 1
    with pytest.raises(InvalidConfig, match=f"vision.flow_iterations must be <= {FLOW_ITERATIONS_MAX}"):
        config.validate()


def test_nlm_patch_up_to_the_bound_is_accepted():
    """Above 15, float32 no longer holds NLM's 8-bit patch distances exactly."""
    config = Config()
    config.vision.nlm_patch = config.vision.nlm_search = NLM_PATCH_MAX
    config.validate()
    config.vision.nlm_patch = config.vision.nlm_search = NLM_PATCH_MAX + 2
    with pytest.raises(InvalidConfig, match=f"vision.nlm_patch must be <= {NLM_PATCH_MAX}"):
        config.validate()


def test_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    assert cli_main(["--config", str(config), "--out", str(tmp_path / "out"), "generate"]) == 1
    assert "config error:" in capsys.readouterr().err


def test_integer_where_a_number_is_expected_is_accepted(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"anomaly": {"threshold": 1, "weights": {"audio": 1}}}))
    assert cli_main(["--config", str(config), "--out", str(tmp_path / "out"), "generate"]) == 0


def test_one_weight_near_the_float64_limit_is_accepted(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"anomaly": {"weights": {"audio": 1.7e308}}}))
    assert cli_main(["--config", str(config), "--out", str(tmp_path / "out"), "generate"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nlm_strength_and_detector_knobs_at_their_bounds_run(canonical_capture, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vision": {"nlm_strength": 1e-150},
                                  "detector": {"false_positive_rate": 100, "jitter_px": 1e6}}))
    assert cli_main(["--config", str(config), "--out", str(tmp_path / "out"), "--deterministic",
                     "run", str(canonical_capture)]) == 0


def run_capture(capture, tmp_path):
    return cli_main(["--out", str(tmp_path / "out"), "--deterministic", "run", str(capture)])


def test_truncated_frame_exits_2_naming_it(canonical_capture, tmp_path, capsys):
    capture = shutil.copytree(canonical_capture, tmp_path / "capture")
    frame = capture / "frame_0003.pgm"
    frame.write_bytes(frame.read_bytes()[:-100])
    assert run_capture(capture, tmp_path) == 2
    err = capsys.readouterr().err
    assert str(frame) in err and "truncated" in err


def test_manifest_without_audio_exits_2_naming_it(canonical_capture, tmp_path, capsys):
    capture = shutil.copytree(canonical_capture, tmp_path / "capture")
    manifest = capture / "manifest.json"
    document = json.loads(manifest.read_text())
    del document["audio"]
    manifest.write_text(json.dumps(document))
    assert run_capture(capture, tmp_path) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "'audio'" in err


@pytest.mark.parametrize("bad_line", [
    "{not json", '{"kind": "anomaly"}', "[1, 2]",
    '{"t": "soon", "window": 0, "kind": "anomaly", "payload": {"triggered": true, "combined": 0.9}}',
], ids=["not json", "missing keys", "not an object", "string time"])
def test_bad_report_line_exits_2_naming_file_and_line(tmp_path, capsys, bad_line):
    log = tmp_path / "events.jsonl"
    good = json.dumps({"t": 0.0, "window": 0, "kind": "metric", "payload": {}})
    log.write_text(f"{good}\n{good}\n{bad_line}\n")
    assert cli_main(["report", str(log)]) == 2
    assert f"{log}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("keep", [30, 0], ids=["truncated header", "empty"])
def test_unreadable_wav_exits_2_naming_it(canonical_capture, tmp_path, capsys, keep):
    capture = shutil.copytree(canonical_capture, tmp_path / "capture")
    wav = capture / "audio.wav"
    wav.write_bytes(wav.read_bytes()[:keep])
    assert run_capture(capture, tmp_path) == 2
    assert str(wav) in capsys.readouterr().err


@pytest.mark.parametrize("capacity, flags, problem", [
    (0, [], "runtime.queue_capacity must be >= 1"),
    (-3, ["--deterministic"], "runtime.queue_capacity must be >= 1"),
    (10**30, [], f"runtime.queue_capacity must be an integer, got {10**30}"),
], ids=["zero", "negative deterministic", "huge"])
def test_bad_queue_capacity_is_a_config_error_before_loading(canonical_capture, tmp_path, capsys,
                                                            monkeypatch, capacity, flags, problem):
    import avfuse.pipeline

    loaded = []
    for name in ("load_capture", "load_model"):
        monkeypatch.setattr(avfuse.pipeline, name, lambda path, name=name: loaded.append(name))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"runtime": {"queue_capacity": capacity}}))
    argv = ["--config", str(config), "--out", str(tmp_path / "out"), *flags,
            "run", str(canonical_capture), "--params", str(tmp_path / "fusion.bin")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"config error: {config}: {problem}\n"
    assert loaded == []


def test_queue_capacity_above_maxsize_from_python_is_a_config_error(canonical_capture, tmp_path):
    """A config file cannot hold such an integer; a Config built in Python can."""
    out = tmp_path / "out"
    config = Config(runtime=RuntimeConfig(queue_capacity=sys.maxsize + 1))
    with pytest.raises(InvalidConfig, match=re.escape(
            f"runtime.queue_capacity must be <= {sys.maxsize}")):
        run_pipeline(canonical_capture, config, out)
    assert not out.exists() or not any(out.iterdir())


def test_audio_section_is_an_unknown_key_before_loading(canonical_capture, tmp_path, capsys,
                                                        monkeypatch):
    """The feature dump runs at fixed parameters, so a config cannot set them."""
    import avfuse.pipeline

    called = []
    for name in ("load_capture", "load_model", "export_audio_features"):
        monkeypatch.setattr(avfuse.pipeline, name, lambda *args, name=name: called.append(name))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"audio": {"cwt_fmin_hz": 1e-300}}))
    out = tmp_path / "out"
    assert cli_main(["--config", str(config), "--out", str(out), "run", str(canonical_capture),
                     "--export-features", str(out / "features")]) == 1
    assert capsys.readouterr().err == f"config error: {config}: audio: unknown key\n"
    assert called == []


@pytest.mark.parametrize("search", [301, 100001])
@pytest.mark.parametrize("command", ["run", "train"])
def test_nlm_search_wider_than_the_frames_is_a_config_error_before_any_model(
        canonical_capture, tmp_path, capsys, monkeypatch, command, search):
    import avfuse.pipeline

    built = []
    for name in ("build_model", "load_model"):
        monkeypatch.setattr(avfuse.pipeline, name, lambda *args, name=name: built.append(name))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vision": {"nlm_search": search}}))
    params = ["--params", str(tmp_path / "fusion.bin")] if command == "run" else []
    assert cli_main(["--config", str(config), "--out", str(tmp_path / "out"), command,
                     str(canonical_capture), *params]) == 1
    assert capsys.readouterr().err == (
        f"config error: vision.nlm_search: search window {search} exceeds the smaller side "
        f"of a 64x64 frame in {canonical_capture}\n")
    assert built == []


@pytest.mark.parametrize("flags, flag", [(["--deterministic"], "--deterministic")],
                         ids=["deterministic"])
@pytest.mark.parametrize("command", ["generate", "train"])
def test_run_only_flag_on_another_command_is_a_config_error(canonical_capture, tmp_path, capsys,
                                                            monkeypatch, command, flags, flag):
    import avfuse.cli

    called = []
    monkeypatch.setattr(avfuse.cli, "COMMANDS", {command: lambda args, config: called.append(1)})
    argv = [command] + ([str(canonical_capture)] if command == "train" else [])
    assert cli_main(["--out", str(tmp_path / "out"), *flags, *argv]) == 1
    assert capsys.readouterr().err == f"config error: {flag} applies only to run\n"
    assert called == []


@pytest.mark.parametrize("command", ["run", "train"])
def test_jitter_that_can_collapse_an_object_is_a_config_error_before_any_stage(
        canonical_capture, tmp_path, capsys, command):
    capture = shutil.copytree(canonical_capture, tmp_path / "capture")
    (capture / "scenario.json").write_text(
        scenario_with(objects=[{**CANONICAL["objects"][0], "size": [1e-12, 1e-12]}]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"detector": {"jitter_px": 1e6}}))
    out = tmp_path / "out"
    flags = ["--deterministic"] if command == "run" else []
    assert cli_main(["--config", str(config), "--out", str(out), *flags,
                     command, str(capture)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: detector.jitter_px: 1e+06 can collapse object "
        f"{CANONICAL['objects'][0]['object_id']}: its 1e-12 px side ")
    assert not (out / "events.jsonl").exists() and not (out / "fusion.bin").exists()


@pytest.mark.parametrize("jitter", [DetectorConfig().jitter_px, 1e6], ids=["default", "largest"])
@pytest.mark.parametrize("preset", ["canonical", "training", "injection"])
def test_presets_pass_the_jitter_check(preset, jitter):
    preset_scenario(preset).detection_script(DetectorConfig(jitter_px=jitter))


@pytest.mark.parametrize("command", ["generate", "run", "train"])
def test_negative_seed_flag_is_a_config_error_before_anything_runs(canonical_capture, tmp_path,
                                                                  capsys, monkeypatch, command):
    import avfuse.cli

    called = []
    monkeypatch.setattr(avfuse.cli, "COMMANDS", {command: lambda args, config: called.append(1)})
    argv = [command] + ([str(canonical_capture)] if command != "generate" else [])
    assert cli_main(["--out", str(tmp_path / "out"), "--seed", "-1", *argv]) == 1
    assert capsys.readouterr().err == "config error: --seed must be non-negative, got -1\n"
    assert called == []


@pytest.mark.parametrize("override, message", [
    ({"fusion": {"learning_rate": 1e6, "steps": 8}},
     r"fusion model diverged: loss \S+ at step \d+; lower fusion\.learning_rate"),
    ({"fusion": {"learning_rate": 1e6, "steps": 4}},  # exploded, but still finite
     r"fusion model diverged: loss \d[\d.e+]* at step 2; lower fusion\.learning_rate"),
    ({"fusion": {"steps": 2}, "anomaly": {"autoencoder_learning_rate": 1e8,
                                          "autoencoder_steps": 20}},
     r"autoencoder diverged: loss \S+ at step \d+; lower anomaly\.autoencoder_learning_rate"),
], ids=["fusion", "fusion finite", "autoencoder"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_trainer_exits_2_and_writes_no_model(training_capture, tmp_path, capsys,
                                                      override, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(override))
    out = tmp_path / "models"
    assert cli_main(["--config", str(config), "--out", str(out), "train",
                     str(training_capture)]) == 2
    assert re.search(f"^error: {message}$", capsys.readouterr().err, re.MULTILINE)
    assert not list(out.glob("*.bin"))


def test_capture_shorter_than_one_burst_is_a_config_error_and_writes_no_model(
        canonical_capture, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fusion": {"burst_tokens": 11}}))
    out = tmp_path / "models"
    assert cli_main(["--config", str(config), "--out", str(out), "train",
                     str(canonical_capture)]) == 1
    assert capsys.readouterr().err == (
        "config error: scenario too short to build any training sequence\n")
    assert not (out / "fusion.bin").exists()


@pytest.mark.parametrize("steps", [0, -3, 150_001])
def test_untrainable_autoencoder_steps_is_a_config_error_and_writes_no_model(
        training_capture, tmp_path, capsys, steps):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"anomaly": {"autoencoder_steps": steps}}))
    out = tmp_path / "models"
    assert cli_main(["--config", str(config), "--out", str(out), "train",
                     str(training_capture)]) == 1
    assert f"config error: {config}: anomaly.autoencoder_steps " in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flag", ["--config", "--scenario"])
@pytest.mark.parametrize("make, problem", [
    (lambda path: None, "cannot read ([Errno 2] "),
    (lambda path: path.mkdir(), "cannot read ([Errno 21] "),
    (lambda path: path.write_text("{not json"), "not a JSON document ("),
], ids=["missing", "directory", "invalid json"])
def test_unreadable_config_and_scenario_files_read_alike(tmp_path, capsys, flag, make, problem):
    path = tmp_path / "given.json"
    make(path)
    given = ["--config", str(path), "generate"] if flag == "--config" else [
        "generate", "--scenario", str(path)]
    assert cli_main(["--out", str(tmp_path / "out"), *given]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}: {problem}")


def scenario_with(**changes):
    return json.dumps({**json.loads(json.dumps(CANONICAL)), **changes})


def without(record, *keys):
    return {k: v for k, v in record.items() if k not in keys}


@pytest.mark.parametrize("text, key", [
    ("{not json", "not a JSON document"),
    ("[1, 2]", "scenario must be a JSON object"),
    (scenario_with(duration_s="abc"), "duration_s must be a finite number"),
    (scenario_with(fps=None), "fps must be a finite number"),
    (scenario_with(objects=[without(CANONICAL["objects"][0], "start")]), "objects[0].start: missing"),
    (scenario_with(objects=[{**CANONICAL["objects"][0], "colour": 3}]),
     "objects[0].colour: unknown key"),
    (scenario_with(injections=[{"window_start": 1}]), "injections[0].window_end: missing"),
    (scenario_with(injections=[{"window_start": 1}]), "injections[0].kind: missing"),
    (scenario_with(fps=0), "fps must be positive"),
    (scenario_with(seed=-3), "seed must be non-negative"),
    (scenario_with(duration_s=10**399), "duration_s must be a finite number"),
    (scenario_with(objects=[{**CANONICAL["objects"][0], "start": [10**399, 0]}]),
     "objects[0].start must be a list of two numbers"),
    (scenario_with(width=62), "frame dimensions must be divisible by 4, got 64x62"),
    (scenario_with(objects=[{**CANONICAL["objects"][0], "size": [-4.0, 4.0]}]),
     f"object {CANONICAL['objects'][0]['object_id']}: size must be positive"),
    (scenario_with(objects=[{**CANONICAL["objects"][0], "size": [1e-300, 1e-300]}]),
     f"object {CANONICAL['objects'][0]['object_id']}: degenerate box (10.0,24.0,10.0,24.0) "
     "at frame 0"),
    (scenario_with(objects=[{**CANONICAL["objects"][0], "size": [4.0, 4.0],
                             "velocity": [1e17, 0.0]}]),
     f"object {CANONICAL['objects'][0]['object_id']}: degenerate box (9e+17,24.0,9e+17,28.0) "
     "at frame 9"),
], ids=["invalid json", "not an object", "string duration", "null fps", "object without start",
        "unknown object key", "injection without window_end", "injection without kind", "zero fps",
        "negative seed", "400-digit duration", "400-digit object start", "width 62",
        "negative object size", "object size 1e-300", "object that collapses at its last frame"])
@pytest.mark.parametrize("command", ["generate", "run"])
def test_malformed_scenario_exits_1_naming_file_and_key(canonical_capture, tmp_path, capsys,
                                                        command, text, key):
    if command == "generate":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        argv = ["generate", "--scenario", str(scenario)]
    else:
        capture = shutil.copytree(canonical_capture, tmp_path / "capture")
        scenario = capture / "scenario.json"
        scenario.write_text(text)
        argv = ["--deterministic", "run", str(capture)]
    assert cli_main(["--out", str(tmp_path / "out"), *argv]) == 1
    err = capsys.readouterr().err
    assert f"config error: {scenario}: " in err and key in err


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


def generate_under_limit(tmp_path, scenario):
    """``avfuse generate --scenario`` in a child process under a 3 GiB address-space limit."""
    env = {**os.environ, "PYTHONPATH": str(Path(avfuse.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "avfuse.cli", "--out", str(tmp_path / "out"), "generate",
         "--scenario", str(scenario)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit_address_space)


@pytest.mark.parametrize("changes, problem", [
    ({"width": 1000000, "height": 1000000},
     "frame_count x width x height is 1e+13 pixels, more than the 2147483648 a render holds"),
    ({"duration_s": 1e9, "frame_count": None},
     "duration_s x sample_rate is 1.6e+13 samples, more than the 2147483647 a 16-bit WAV holds"),
    ({"fps": 1e7, "frame_count": None},
     "duration_s x fps x width x height is 8.192e+10 pixels, more than the 2147483648"),
    ({"sample_rate": 10**12}, "sample_rate must be at most 4294967295"),
], ids=["width and height 1000000", "duration 1e9", "fps 1e7", "sample rate 1e12"])
def test_scenario_too_large_to_render_exits_1_before_allocating(tmp_path, changes, problem):
    """Under a 3 GiB address-space limit, as a child process: a missing bound would end
    in a memory error (or fill the frame list for minutes), not exit 1."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_with(**changes))
    result = generate_under_limit(tmp_path, scenario)
    assert result.returncode == 1, result.stderr
    assert f"config error: {scenario}: {problem}" in result.stderr
    assert "Traceback" not in result.stderr


def test_scenario_that_runs_out_of_memory_exits_2_naming_the_command(tmp_path):
    """1.6e9 samples fit a 16-bit WAV but not the 3 GiB the child may map: the render's
    memory error ends the command with exit 2 and one line, not a traceback."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_with(duration_s=100000, frame_count=1))
    result = generate_under_limit(tmp_path, scenario)
    assert result.returncode == 2, result.stderr
    assert "error: generate ran out of memory" in result.stderr
    assert "Traceback" not in result.stderr
