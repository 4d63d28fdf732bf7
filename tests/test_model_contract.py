"""One fusion-model contract, the saved-model format, and malformed model files."""

import json

import numpy as np
import pytest

from avfuse import fusion
from avfuse import tensor as tz
from avfuse.anomaly import DenseAutoencoder, save_autoencoder
from avfuse.cli import main as cli_main
from avfuse.config import Config, load_config
from avfuse.errors import InvalidConfig
from avfuse.fusion import (
    FUSED_DIM,
    AdvancedFusionModel,
    BasicFusionModel,
    LabeledSequence,
    TokenNormalizer,
    save_model,
)
from avfuse.pipeline import PipelineContext, open_capture
from avfuse.scenario import generate_scenario, preset_scenario


def tokens(rng, model, n=3):
    c = model.config
    return rng.normal(size=(n, c.visual_features)), rng.normal(size=(n, c.audio_features))


class TestPredictAndLoss:
    def test_basic_predict_and_loss_match_forward(self):
        rng = np.random.default_rng(0)
        model = BasicFusionModel(seed=1)
        vis, aud = tokens(rng, model)
        motion, event = model.predict(vis, aud)
        np.testing.assert_array_equal(motion, model.forward(vis, aud).data.reshape(-1))
        assert event is None
        assert model.ensemble is None
        expected = tz.cross_entropy(model.forward(vis, aud), [1]).item()
        assert model.loss(LabeledSequence(vis, aud, 1)).item() == expected

    def test_advanced_predict_and_loss_match_forward_graph(self):
        rng = np.random.default_rng(1)
        model = AdvancedFusionModel(seed=2)
        vis, aud = tokens(rng, model)
        fused = rng.normal(size=FUSED_DIM)
        out = model.forward(vis, aud, fused)
        motion, event = model.predict(vis, aud, fused)
        np.testing.assert_array_equal(motion, out.motion_logits)
        np.testing.assert_array_equal(event, out.event_logits)

        motion_g, event_g = model.forward_graph(vis, aud, fused)
        expected = (tz.cross_entropy(motion_g, [1]).item(), tz.cross_entropy(event_g, [5]).item())
        loss = model.loss(LabeledSequence(vis, aud, 1, fused=fused, event_label=5)).item()
        assert loss == expected[0] + expected[1]

    def test_advanced_missing_fused_reads_as_zeros(self):
        rng = np.random.default_rng(2)
        model = AdvancedFusionModel(seed=3)
        vis, aud = tokens(rng, model)
        zeros = model.predict(vis, aud, np.zeros(FUSED_DIM))
        missing = model.predict(vis, aud)
        for got, expected in zip(missing, zeros):
            np.testing.assert_array_equal(got, expected)
        example = LabeledSequence(vis, aud, 0, event_label=3)
        assert model.loss(example).item() == model.loss(
            LabeledSequence(vis, aud, 0, fused=np.zeros(FUSED_DIM), event_label=3)).item()


class TestBasicContext:
    def test_basic_context_builds_and_calls_no_ensemble(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("basic run built an audio ensemble")

        monkeypatch.setattr(fusion.AudioEnsembleFusion, "__init__", refuse)
        generate_scenario(preset_scenario("canonical", seed=0), tmp_path)
        scenario, clip, jobs = open_capture(tmp_path)
        context = PipelineContext(Config(), scenario, clip.sample_rate)
        assert context.model.ensemble is None
        assert context.analyze(jobs[0]).fused is None


class TestModelFileFormat:
    @pytest.mark.parametrize("model_cls, arch", [
        (BasicFusionModel, [0, 128, 2, 4, 512, 3, 4, 2]),
        (AdvancedFusionModel, [1, 256, 4, 8, 1024, 4, 5, 2, 32, 64]),
    ])
    def test_default_arch_records_are_pinned(self, tmp_path, model_cls, arch):
        model = model_cls()
        c = model.config
        path = tmp_path / "model.bin"
        save_model(path, model, TokenNormalizer.identity(c.visual_features, c.audio_features))
        assert tz.load_tensors(path)["meta.arch"].tolist() == [arch]


class TestFusionConfig:
    def test_advanced_hidden_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"fusion": {"advanced_hidden": 256}}))
        with pytest.raises(InvalidConfig, match="unknown config key: fusion.advanced_hidden"):
            load_config(path)

    def test_advanced_heads_must_divide_fused_width(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"fusion": {"advanced_heads": 3}}))
        with pytest.raises(InvalidConfig, match="fusion.advanced_heads must divide 256"):
            load_config(path)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A canonical capture plus a valid fusion model and autoencoder file."""
    root = tmp_path_factory.mktemp("model_files")
    generate_scenario(preset_scenario("canonical", seed=0), root / "capture")
    save_model(root / "fusion.bin", BasicFusionModel(), TokenNormalizer.identity(3, 4))
    autoencoder = DenseAutoencoder()
    autoencoder.training_mse = 0.01
    save_autoencoder(root / "autoencoder.bin", autoencoder)
    return root


def rewrite(source, target, edit):
    state = tz.load_tensors(source)
    edit(state)
    tz.save_tensors(target, state)


def set_arch(values):
    return lambda state: state.__setitem__("meta.arch", np.array([values], dtype=np.float64))


def set_weight(value):
    def edit(state):
        state["proj.visual.weight"] = state["proj.visual.weight"].copy()
        state["proj.visual.weight"][0, 0] = value
    return edit


FUSION_DEFECTS = {
    "truncated": None,
    "trailing bytes": None,
    "short arch record": set_arch([1, 128, 2]),
    "unknown kind 7": set_arch([7, 128, 2, 4, 512, 3, 4, 2]),
    "negative kind": set_arch([-1, 128, 2, 4, 512, 3, 4, 2]),
    "fractional dim": set_arch([0, 128.5, 2, 4, 512, 3, 4, 2]),
    "nan weight": set_weight(np.nan),
    "infinite weight": set_weight(np.inf),
    "missing normalizer": lambda state: state.pop("norm.audio_std"),
    "normalizer width": lambda state: state.update(
        {"norm.visual_mean": np.zeros(4), "norm.visual_std": np.ones(4)}),
}

AUTOENCODER_DEFECTS = {
    "missing training mse": lambda state: state.pop("meta.training_mse"),
    "mis-shaped tensor": lambda state: state.__setitem__("enc.weight", np.zeros((64, 8))),
    "missing tensor": lambda state: state.pop("dec.bias"),
    "nan tensor": lambda state: state.__setitem__("dec.bias", np.full((1, 64), np.nan)),
}


def run_with(model_files, tmp_path, **files):
    argv = ["--out", str(tmp_path / "out"), "--deterministic", "run",
            str(model_files / "capture")]
    for flag, path in files.items():
        argv += [f"--{flag}", str(path)]
    return cli_main(argv)


class TestMalformedModelFiles:
    def test_valid_files_run(self, model_files, tmp_path):
        assert run_with(model_files, tmp_path, params=model_files / "fusion.bin",
                        autoencoder=model_files / "autoencoder.bin") == 0

    @pytest.mark.parametrize("defect", sorted(FUSION_DEFECTS))
    def test_fusion_file_exits_2_naming_it(self, model_files, tmp_path, capsys, defect):
        bad = tmp_path / "bad_fusion.bin"
        data = (model_files / "fusion.bin").read_bytes()
        if defect == "truncated":
            bad.write_bytes(data[:-100])
        elif defect == "trailing bytes":
            bad.write_bytes(data + b"\x00" * 8)
        else:
            rewrite(model_files / "fusion.bin", bad, FUSION_DEFECTS[defect])
        assert run_with(model_files, tmp_path, params=bad) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("defect", sorted(AUTOENCODER_DEFECTS))
    def test_autoencoder_file_exits_2_naming_it(self, model_files, tmp_path, capsys, defect):
        bad = tmp_path / "bad_autoencoder.bin"
        rewrite(model_files / "autoencoder.bin", bad, AUTOENCODER_DEFECTS[defect])
        assert run_with(model_files, tmp_path, autoencoder=bad) == 2
        assert str(bad) in capsys.readouterr().err
