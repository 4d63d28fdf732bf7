"""The precision rule: ``run`` computes the fusion forward in float32; training and files stay
float64, and Horn-Schunck's alpha is bounded so that its float32 square stays finite."""

import json
import warnings

import numpy as np
import pytest

from avfuse import tensor as tz
from avfuse.cli import main as cli_main
from avfuse.config import Config
from avfuse.errors import InvalidInput
from avfuse.fusion import (
    FUSED_DIM,
    AdvancedFusionModel,
    AudioEnsembleFusion,
    BasicFusionModel,
    TokenNormalizer,
    load_model,
    save_model,
)
from avfuse.pipeline import run_pipeline
from avfuse.vision_dsp import FLOW_ALPHA_MAX, FLOW_ALPHA_MIN, DenseFlow

MODELS = {
    "basic": lambda: BasicFusionModel(seed=1),
    "advanced": lambda: AdvancedFusionModel(seed=2),
}
# Operations one forward records: every linear layer is one, its bias added in place.
FORWARD_NODES = {"basic": 29, "advanced": 108}


def inputs(model, seed):
    rng = np.random.default_rng(seed)
    c = model.config
    return (rng.normal(size=(32, c.visual_features)), rng.normal(size=(32, c.audio_features)),
            rng.normal(size=FUSED_DIM))


def float32_model(kind):
    model = MODELS[kind]()
    model.cast_to_float32()
    return model


@pytest.fixture
def node_dtypes(monkeypatch):
    """The dtype of every value a tensor operation computes while the test runs."""
    dtypes = []
    node = tz._node

    def recording(data, parents, grad_fns):
        dtypes.append(data.dtype)
        return node(data, parents, grad_fns)

    monkeypatch.setattr(tz, "_node", recording)
    return dtypes


class TestTensorDtype:
    def test_float32_data_stays_float32(self):
        assert tz.Tensor(np.ones((2, 3), np.float32)).data.dtype == np.float32

    @pytest.mark.parametrize("data", [np.ones((2, 3), np.float16), np.ones((2, 3), np.int64),
                                      [[1, 2]], 0.5], ids=["float16", "int64", "list", "float"])
    def test_anything_else_becomes_float64(self, data):
        assert tz.Tensor(data).data.dtype == np.float64


class TestFloat32Inference:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_cast_leaves_no_float64_parameter(self, kind):
        model = float32_model(kind)
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        if model.ensemble is not None:
            assert model.ensemble.weight.dtype == np.float32
            np.testing.assert_array_equal(model.ensemble.weight,
                                          AudioEnsembleFusion().weight.astype(np.float32))

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_every_forward_operation_is_float32(self, kind, node_dtypes):
        model = float32_model(kind)
        motion, event = model.predict(*inputs(model, 0))
        assert len(node_dtypes) == FORWARD_NODES[kind]
        assert set(node_dtypes) == {np.dtype(np.float32)}
        assert motion.dtype == np.float32
        assert event is None or event.dtype == np.float32

    def test_ensemble_fuses_in_float32(self):
        model = float32_model("advanced")
        samples = np.random.default_rng(0).normal(size=1600)
        assert model.ensemble.embed(samples, 16000).dtype == np.float32

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_float32_logits_agree_with_float64(self, kind, seed):
        """The same argmax, and every logit within 1e-5 of the largest float64 magnitude."""
        reference, model = MODELS[kind](), float32_model(kind)
        tokens = inputs(reference, seed)
        for exact, fast in zip(reference.predict(*tokens), model.predict(*tokens)):
            if exact is None:
                assert fast is None
                continue
            assert np.argmax(fast) == np.argmax(exact)
            assert np.abs(fast - exact).max() <= 1e-5 * np.abs(exact).max()

    def test_weight_too_large_for_float32_is_named(self):
        model = BasicFusionModel()
        model.store.params["enc1.ffn.w2.weight"].data[3, 4] = -1e39
        with pytest.raises(InvalidInput, match=r"enc1\.ffn\.w2\.weight: value 1e\+39 overflows"):
            model.cast_to_float32()


class TestRunCastsTrainingAndFilesDoNot:
    def test_run_computes_in_float32(self, canonical_capture, tmp_path, node_dtypes):
        run_pipeline(canonical_capture, Config(), tmp_path / "out", deterministic=True)
        assert node_dtypes and set(node_dtypes) == {np.dtype(np.float32)}

    def test_load_model_returns_float64_and_run_leaves_the_file(self, canonical_capture,
                                                                tmp_path):
        path = tmp_path / "fusion.bin"
        save_model(path, BasicFusionModel(), TokenNormalizer.identity(3, 4))
        before = path.read_bytes()
        model, _ = load_model(path)
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        assert cli_main(["--out", str(tmp_path / "out"), "--deterministic", "run",
                         str(canonical_capture), "--params", str(path)]) == 0
        assert path.read_bytes() == before

    def test_training_forward_is_float64(self, node_dtypes):
        model = MODELS["advanced"]()
        visual, audio, fused = inputs(model, 0)
        model.forward(visual, audio, fused)
        assert set(node_dtypes) == {np.dtype(np.float64)}

    def test_weight_of_1e39_makes_run_exit_2_naming_file_and_tensor(self, canonical_capture,
                                                                   tmp_path, capsys):
        path = tmp_path / "fusion.bin"
        save_model(path, BasicFusionModel(), TokenNormalizer.identity(3, 4))
        state = tz.load_tensors(path)
        state["proj.audio.weight"][1, 2] = 1e39
        tz.save_tensors(path, state)
        assert cli_main(["--out", str(tmp_path / "out"), "--deterministic", "run",
                         str(canonical_capture), "--params", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: proj.audio.weight: value 1e+39 overflows float32" in err


def generate_with_alpha(tmp_path, capsys, alpha) -> tuple[int, str]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vision": {"flow_alpha": alpha}}))
    code = cli_main(["--config", str(config), "--out", str(tmp_path / "out"), "generate"])
    return code, capsys.readouterr().err


class TestFlowAlphaBound:
    """Horn-Schunck squares alpha in float32; its bounds keep every sweep finite."""

    @pytest.mark.parametrize("alpha", [np.nextafter(FLOW_ALPHA_MAX, np.inf), 1e20,
                                       np.nextafter(FLOW_ALPHA_MIN, 0.0), 1e-30],
                             ids=["above the largest", "1e20", "below the smallest", "1e-30"])
    def test_alpha_outside_the_bounds_exits_1_naming_the_key(self, tmp_path, capsys, alpha):
        code, err = generate_with_alpha(tmp_path, capsys, float(alpha))
        assert code == 1
        assert f"config error: {tmp_path / 'config.json'}: vision.flow_alpha must be between" in err
        with pytest.raises(InvalidInput, match="alpha must be in"):
            DenseFlow(alpha)

    @pytest.mark.parametrize("alpha", [FLOW_ALPHA_MAX, FLOW_ALPHA_MIN], ids=["largest", "smallest"])
    def test_alpha_at_the_bounds_is_accepted_and_stays_finite(self, tmp_path, capsys, alpha):
        assert generate_with_alpha(tmp_path, capsys, alpha)[0] == 0
        rng = np.random.default_rng(0)
        textured = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        flat = np.zeros((16, 16), np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for prev, nxt in ((textured, textured[::-1]), (flat, flat + 255)):
                field = DenseFlow(alpha)(prev, nxt)
                assert np.isfinite(field.u).all() and np.isfinite(field.v).all()
