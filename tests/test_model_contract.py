"""One fusion-model contract, the saved-model format, and malformed model files."""

import json
import re
import threading
from dataclasses import replace

import numpy as np
import pytest

from avfuse import fusion
from avfuse import tensor as tz
from avfuse.anomaly import DenseAutoencoder, load_autoencoder, save_autoencoder
from avfuse.cli import main as cli_main
from avfuse.config import Config, load_config
from avfuse.errors import InvalidConfig, InvalidInput
from avfuse.fusion import (
    FUSED_DIM,
    AdvancedFusionModel,
    BasicFusionModel,
    TokenNormalizer,
    TrainingBatch,
    save_model,
)
from avfuse.pipeline import PipelineContext, open_capture
from avfuse.scenario import generate_scenario, preset_scenario
from test_param_layout import PINNED, layout_digests


def tokens(rng, model, n=3):
    c = model.config
    return rng.normal(size=(n, c.visual_features)), rng.normal(size=(n, c.audio_features))


def one(vis, aud, motion, fused=None, event=None):
    """One (n, f) sequence and its labels as a batch of one."""
    return TrainingBatch(vis[None], aud[None], np.array([motion]),
                         None if fused is None else fused[None],
                         None if event is None else np.array([event]))


MODELS = {
    "basic": lambda: BasicFusionModel(seed=1),
    "advanced": lambda: AdvancedFusionModel(seed=2),
}


class TestPredictAndLoss:
    """The contract of :class:`fusion.FusionModel`, checked on both model kinds."""

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_forward_gives_one_row_per_sequence(self, kind):
        rng = np.random.default_rng(0)
        model = MODELS[kind]()
        c = model.config
        visual = rng.normal(size=(4, 3, c.visual_features))
        audio = rng.normal(size=(4, 3, c.audio_features))
        motion, event = model.forward(visual, audio, rng.normal(size=(4, FUSED_DIM)))
        assert motion.shape == (4, c.motion_classes)
        if kind == "basic":
            assert event is None
            assert model.ensemble is None
        else:
            assert event.shape == (4, c.event_classes)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_predict_and_loss_match_forward(self, kind):
        rng = np.random.default_rng(1)
        model = MODELS[kind]()
        vis, aud = tokens(rng, model)
        fused = rng.normal(size=FUSED_DIM)
        motion, event = model.forward(vis, aud, fused)
        got_motion, got_event = model.predict(vis, aud, fused)
        np.testing.assert_array_equal(got_motion, motion.data.reshape(-1))
        expected = tz.cross_entropy(motion, [1]).item()
        if event is None:
            assert got_event is None
        else:
            np.testing.assert_array_equal(got_event, event.data.reshape(-1))
            expected += tz.cross_entropy(event, [5]).item()
        loss = model.loss(one(vis, aud, 1, fused=fused, event=5)).item()
        assert loss == expected

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_a_bad_label_is_named(self, kind):
        rng = np.random.default_rng(3)
        model = MODELS[kind]()
        vis, aud = tokens(rng, model)
        with pytest.raises(InvalidInput, match="motion label 7 outside"):
            model.loss(one(vis, aud, 7, event=0))
        for label, message in ((32, "event label 32 outside"), (None, "no event labels")):
            bad_event = one(vis, aud, 0, event=label)
            if kind == "basic":
                assert np.isfinite(model.loss(bad_event).item())  # no event head reads it
            else:
                with pytest.raises(InvalidInput, match=message):
                    model.loss(bad_event)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_a_fractional_label_is_named(self, kind):
        rng = np.random.default_rng(3)
        model = MODELS[kind]()
        vis, aud = tokens(rng, model)
        for label in (0.5, 1.9):
            with pytest.raises(InvalidInput, match=f"motion label {label} is not an integer"):
                model.loss(one(vis, aud, label, event=0))
            bad_event = one(vis, aud, 0, event=label)
            if kind == "basic":
                assert np.isfinite(model.loss(bad_event).item())  # no event head reads it
            else:
                with pytest.raises(InvalidInput, match=f"event label {label} is not an integer"):
                    model.loss(bad_event)
        assert np.isfinite(model.loss(one(vis, aud, 1.0, event=2.0)).item())

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_fused_is_read_only_with_an_ensemble(self, kind):
        rng = np.random.default_rng(4)
        model = MODELS[kind]()
        vis, aud = tokens(rng, model)
        for fused in (np.zeros((1, 7)), np.ones((2, 3))):
            batch = replace(one(vis, aud, 1, event=2), fused=fused)
            if kind == "basic":
                assert model.loss(batch).item() == model.loss(replace(batch, fused=None)).item()
            else:
                with pytest.raises(InvalidInput, match="fused"):
                    model.loss(batch)

    def test_advanced_missing_fused_reads_as_zeros(self):
        rng = np.random.default_rng(2)
        model = AdvancedFusionModel(seed=3)
        vis, aud = tokens(rng, model)
        zeros = model.predict(vis, aud, np.zeros(FUSED_DIM))
        missing = model.predict(vis, aud)
        for got, expected in zip(missing, zeros):
            np.testing.assert_array_equal(got, expected)
        assert model.loss(one(vis, aud, 0, event=3)).item() == model.loss(
            one(vis, aud, 0, fused=np.zeros(FUSED_DIM), event=3)).item()


class TestBasicContext:
    def test_basic_context_builds_and_calls_no_ensemble(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("basic run built an audio ensemble")

        monkeypatch.setattr(fusion.AudioEnsembleFusion, "__init__", refuse)
        generate_scenario(preset_scenario("canonical", seed=0), tmp_path)
        scenario, clip, windows = open_capture(tmp_path, Config().vision)
        context = PipelineContext(Config(), scenario, clip.sample_rate)
        assert context.model.ensemble is None
        run = windows[0]
        for stage in (context.analyze, context.detect, context.tokenize, context.fuse):
            stage(run)
        assert run.motion_logits is not None and run.event_logits is None


class TestFixedEnsembleReduction:
    """The ensemble's reduction is fixed, so it is no parameter and no tensor of a file."""

    def test_one_train_step_reaches_every_parameter(self):
        rng = np.random.default_rng(5)
        model = AdvancedFusionModel(seed=0)
        vis, aud = tokens(rng, model)
        fusion.train_step(model, one(vis, aud, 1, fused=rng.normal(size=FUSED_DIM), event=2), 0.01)
        assert [name for name, p in model.store.params.items() if p.grad is None] == []
        assert len(model.parameters()) == 130

    def test_advanced_file_holding_it_exits_2_naming_the_file(self, canonical_capture, tmp_path,
                                                              capsys):
        path = tmp_path / "fusion.bin"
        save_model(path, AdvancedFusionModel(seed=0), TokenNormalizer.identity(4, 5))
        state = tz.load_tensors(path)
        state["ensemble.weight"] = fusion.AudioEnsembleFusion().weight
        state["ensemble.bias"] = np.zeros((1, FUSED_DIM))
        tz.save_tensors(path, state)
        assert cli_main(["--out", str(tmp_path / "out"), "--deterministic", "run",
                         str(canonical_capture), "--params", str(path)]) == 2
        assert f"{path}: unexpected tensor ensemble.bias, ensemble.weight" in capsys.readouterr().err


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

    def test_run_with_another_shape_exits_2_naming_the_file_and_record(self, canonical_capture,
                                                                      tmp_path, capsys):
        """An advanced file of 1 layer, a 64-wide feed-forward and 8 positions, its tensors cut
        from a default one so that each has the shape that record declares."""
        arch = [1, 256, 1, 8, 64, 4, 5, 2, 32, 8]
        path = tmp_path / "fusion.bin"
        save_model(path, AdvancedFusionModel(seed=0), TokenNormalizer.identity(4, 5))
        state = {}
        for name, array in tz.load_tensors(path).items():
            if name.split(".")[0][-1] in "123":  # layers 1 to 3
                continue
            if name.startswith("pos."):
                array = array[:8]
            state[name] = array[tuple(slice(64) if n == 1024 else slice(None)
                                      for n in array.shape)]
        state["meta.arch"] = np.array([arch], dtype=np.float64)
        tz.save_tensors(path, state)
        out = tmp_path / "out"
        assert cli_main(["--out", str(out), "--deterministic", "run", str(canonical_capture),
                         "--params", str(path)]) == 2
        assert f"{path}: architecture record {[float(x) for x in arch]} is neither" in (
            capsys.readouterr().err)
        assert not (out / "events.jsonl").exists()


class TestFusionConfig:
    @pytest.mark.parametrize("key, value", [
        ("advanced_hidden", 256), ("basic_hidden", 4 * 10**9), ("basic_layers", 3),
        ("basic_heads", 0), ("basic_heads", -4), ("basic_ffn", 10**11),
        ("advanced_layers", 10**8), ("advanced_heads", 3), ("advanced_ffn", 64),
        ("max_tokens", 10**12),
    ])
    def test_advanced_hidden_is_not_a_config_key(self, tmp_path, key, value):
        """The two architectures are fixed: no model size is a config key."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"fusion": {key: value}}))
        with pytest.raises(InvalidConfig, match=rf"{re.escape(str(path))}: fusion\.{key}: unknown key"):
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
    "zero std": lambda state: state.__setitem__("norm.audio_std", np.zeros(4)),
    "nan mean": lambda state: state.__setitem__("norm.visual_mean", np.array([0.0, np.nan, 0.0])),
    "normalizer row": lambda state: state.__setitem__("norm.visual_mean", np.zeros((1, 3))),
    "heads do not split hidden": set_arch([0, 128, 2, 3, 512, 3, 4, 2]),
    "arch larger than the file": set_arch([0, 128, 2, 4, 512 * 2.0 ** 49, 3, 4, 2]),
    "extra tensor": lambda state: state.__setitem__("bogus.weight", np.zeros((2, 2))),
    "missing tensor": lambda state: state.pop("enc1.ffn.w2.bias"),
    "mis-shaped tensor": lambda state: state.__setitem__("proj.audio.weight", np.zeros((4, 64))),
    "enormous first tensor": set_arch([0, 2 ** 50, 2, 4, 512, 3, 4, 2]),
}

AUTOENCODER_DEFECTS = {
    "missing training mse": lambda state: state.pop("meta.training_mse"),
    "mis-shaped tensor": lambda state: state.__setitem__("enc.weight", np.zeros((64, 8))),
    "missing tensor": lambda state: state.pop("dec.bias"),
    "nan tensor": lambda state: state.__setitem__("dec.bias", np.full((1, 64), np.nan)),
    "extra tensor": lambda state: state.__setitem__("bogus.weight", np.zeros((2, 2))),
    "training mse of shape (1,)": lambda state: state.__setitem__("meta.training_mse",
                                                                  np.array([0.01])),
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


class TestFileBoundary:
    @pytest.mark.parametrize("loader, name, edit", [
        (fusion.load_model, "fusion.bin", FUSION_DEFECTS["extra tensor"]),
        (load_autoencoder, "autoencoder.bin", AUTOENCODER_DEFECTS["extra tensor"]),
    ], ids=["fusion", "autoencoder"])
    def test_extra_tensor_is_named_with_the_file(self, model_files, tmp_path, loader, name, edit):
        bad = tmp_path / name
        rewrite(model_files / name, bad, edit)
        with pytest.raises(InvalidInput, match="bogus.weight") as err:
            loader(bad)
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize("arch", [
        [0, 128, 2, 3, 512, 3, 4, 2],
        [0, 128, 3, 4, 512, 3, 4, 2],
        [1, 256, 1, 8, 64, 4, 5, 2, 32, 8],
    ], ids=["heads do not split hidden", "basic with 3 layers", "small advanced"])
    def test_another_arch_record_is_rejected_before_building(self, model_files, tmp_path,
                                                            monkeypatch, arch):
        bad = tmp_path / "fusion.bin"
        rewrite(model_files / "fusion.bin", bad, set_arch(arch))

        def refuse(*args):
            raise AssertionError("a model was built from another architecture record")

        monkeypatch.setattr(tz.ParamStore, "_add", refuse)
        with pytest.raises(InvalidInput, match=re.escape(
                f"architecture record {[float(x) for x in arch]} is neither")) as err:
            fusion.load_model(bad)
        assert str(bad) in str(err.value)


class TestWritersRefuseNonFinite:
    """A writer refuses, before writing anything, a tensor its loader would reject."""

    def test_save_model(self, tmp_path):
        model = BasicFusionModel()
        model.store.params["proj.visual.weight"].data[0, 0] = np.nan
        path = tmp_path / "fusion.bin"
        with pytest.raises(InvalidInput, match="proj.visual.weight") as err:
            save_model(path, model, TokenNormalizer.identity(3, 4))
        assert str(path) in str(err.value)
        assert not path.exists()

    def test_save_autoencoder(self, tmp_path):
        autoencoder = DenseAutoencoder()
        autoencoder.training_mse = float("inf")
        path = tmp_path / "autoencoder.bin"
        with pytest.raises(InvalidInput, match="meta.training_mse") as err:
            save_autoencoder(path, autoencoder)
        assert str(path) in str(err.value)
        assert not path.exists()


@pytest.fixture(scope="module")
def loadable(tmp_path_factory):
    """A basic, an advanced and an autoencoder file, each saved from a non-default seed."""
    root = tmp_path_factory.mktemp("loadable")
    rng = np.random.default_rng(7)
    normalizer = TokenNormalizer(rng.normal(size=3), rng.uniform(1, 2, size=3),
                                 rng.normal(size=4), rng.uniform(1, 2, size=4))
    save_model(root / "basic.bin", BasicFusionModel(seed=5), normalizer)
    advanced = AdvancedFusionModel(seed=6)
    wide = TokenNormalizer(rng.normal(size=4), rng.uniform(1, 2, size=4),
                           rng.normal(size=5), rng.uniform(1, 2, size=5))
    save_model(root / "advanced.bin", advanced, wide)
    autoencoder = DenseAutoencoder(seed=4)
    autoencoder.training_mse = 0.0125
    save_autoencoder(root / "autoencoder.bin", autoencoder)
    return root


LOADED_PARAMS = {
    "basic.bin": lambda path: fusion.load_model(path)[0].store.params,
    "advanced.bin": lambda path: fusion.load_model(path)[0].store.params,
    "autoencoder.bin": lambda path: load_autoencoder(path).params,
}


class RefusingGenerator:
    """Stands in for a seeded generator and fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"a loader drew from a seeded generator ({name})")


class TestLoadPath:
    @pytest.mark.parametrize("name", sorted(LOADED_PARAMS))
    def test_loaders_read_every_parameter_and_draw_nothing(self, loadable, monkeypatch, name):
        returned = []

        def recording(path, load=tz.load_tensors, **read_as):
            returned.append(load(path, **read_as))
            return returned[-1]

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: RefusingGenerator())
        monkeypatch.setattr(tz, "load_tensors", recording)
        params = LOADED_PARAMS[name](loadable / name)
        [state] = returned
        assert params
        for key, tensor in params.items():
            assert tensor.data is state[key], key

    @pytest.mark.parametrize("name", sorted(LOADED_PARAMS))
    def test_saving_what_was_loaded_gives_the_same_bytes(self, loadable, tmp_path, name):
        again = tmp_path / name
        if name == "autoencoder.bin":
            save_autoencoder(again, load_autoencoder(loadable / name))
        else:
            save_model(again, *fusion.load_model(loadable / name))
        assert again.read_bytes() == (loadable / name).read_bytes()


class TestReadingModeIsUndone:
    @pytest.mark.parametrize("defect", ["missing tensor", "mis-shaped tensor", "nan weight"])
    def test_after_a_rejected_file(self, model_files, tmp_path, defect):
        bad = tmp_path / "fusion.bin"
        rewrite(model_files / "fusion.bin", bad, FUSION_DEFECTS[defect])
        with pytest.raises(InvalidInput):
            fusion.load_model(bad)
        assert layout_digests(BasicFusionModel(seed=0).store.params) == PINNED["basic"]

    def test_another_thread_keeps_drawing(self, loadable):
        state = tz.load_tensors(loadable / "basic.bin")
        entered, built = threading.Event(), threading.Event()
        seen = {}

        def build():
            assert entered.wait(timeout=10)
            seen["digests"] = layout_digests(BasicFusionModel(seed=0).store.params)
            built.set()

        worker = threading.Thread(target=build)
        worker.start()
        with tz.reading(state):
            entered.set()
            assert built.wait(timeout=10)
            read = BasicFusionModel(seed=0).store.params
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen["digests"] == PINNED["basic"]
        assert all(read[name].data is state[name] for name in read)
