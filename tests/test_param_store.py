"""The one parameter layer (ParamStore, sgd_step) and the one tracker record."""

import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from avfuse import tensor as tz
from avfuse.anomaly import DenseAutoencoder
from avfuse.config import Config, load_config
from avfuse.detect_track import TrackerThresholds
from avfuse.fusion import EMBED_DIM, FUSED_DIM, AdvancedFusionModel, AudioEnsembleFusion
from avfuse.pipeline import PipelineContext, open_capture
from avfuse.scenario import generate_scenario, preset_scenario


def uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def square_loss(store, x):
    w, b = store.params["lin.weight"], store.params["lin.bias"]
    y = tz.add_bias(tz.matmul(tz.Tensor(x), w), b)
    return tz.sum_all(tz.mul(y, y))


class TestSgdStep:
    def test_zero_learning_rate_leaves_every_parameter(self):
        store = tz.ParamStore(seed=1)
        store.linear("lin", 3, 2)
        before = {name: p.data.copy() for name, p in store.params.items()}
        tz.sgd_step(store.params.values(), square_loss(store, np.ones((4, 3))), 0.0)
        for name, p in store.params.items():
            np.testing.assert_array_equal(p.data, before[name])
            assert p.grad is not None

    def test_stale_grad_from_an_earlier_step_is_cleared(self):
        p = tz.Tensor([[2.0]], requires_grad=True)
        p.grad = np.array([[100.0]])
        tz.sgd_step([p], tz.mul(p, p), 0.5)  # d(p^2)/dp = 4, so 2 - 0.5 * 4
        assert p.data.tolist() == [[0.0]]
        assert p.grad.tolist() == [[4.0]]

    def test_parameter_the_loss_does_not_reach_stays(self):
        p = tz.Tensor([[3.0]], requires_grad=True)
        unused = tz.Tensor([[5.0]], requires_grad=True)
        unused.grad = np.array([[7.0]])
        tz.sgd_step([p, unused], tz.mul(p, p), 0.1)
        assert unused.data.tolist() == [[5.0]]
        assert unused.grad is None
        assert p.data.tolist() == [[3.0 - 0.1 * 6.0]]

    def test_returns_the_loss_value(self):
        store = tz.ParamStore(seed=2)
        store.linear("lin", 3, 2)
        loss = square_loss(store, np.arange(6.0).reshape(2, 3))
        expected = loss.item()
        assert tz.sgd_step(store.params.values(), loss, 0.01) == expected


class TestSeededInit:
    def test_autoencoder_weights_are_uniform_draws_in_creation_order(self):
        rng = np.random.default_rng(7)
        enc = uniform(rng, 64, (64, 16))
        dec = uniform(rng, 16, (16, 64))
        params = DenseAutoencoder(7).params
        assert list(params) == ["enc.weight", "enc.bias", "dec.weight", "dec.bias"]
        np.testing.assert_array_equal(params["enc.weight"].data, enc)
        np.testing.assert_array_equal(params["dec.weight"].data, dec)
        np.testing.assert_array_equal(params["enc.bias"].data, np.zeros((1, 16)))
        np.testing.assert_array_equal(params["dec.bias"].data, np.zeros((1, 64)))

    def test_ensemble_weights_are_uniform_draws(self):
        weight = uniform(np.random.default_rng(3), 3 * EMBED_DIM, (3 * EMBED_DIM, FUSED_DIM))
        ensemble = AudioEnsembleFusion(3)
        np.testing.assert_array_equal(ensemble.weight.data, weight)
        np.testing.assert_array_equal(ensemble.bias.data, np.zeros((1, FUSED_DIM)))

    def test_advanced_model_stores_the_ensemble_tensors_themselves(self):
        model = AdvancedFusionModel(seed=0)
        assert model.store.params["ensemble.weight"] is model.ensemble.weight
        assert model.store.params["ensemble.bias"] is model.ensemble.bias
        assert list(model.store.params)[-2:] == ["ensemble.weight", "ensemble.bias"]


def test_json_tracker_override_reaches_the_pipeline_tracker(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tracker": {"match_iou": 0.35, "max_misses": 5}}))
    config = load_config(path)
    generate_scenario(preset_scenario("canonical", seed=0), tmp_path / "capture")
    scenario, clip, _ = open_capture(tmp_path / "capture", Config().vision)
    thresholds = PipelineContext(config, scenario, clip.sample_rate).tracker.thresholds
    assert thresholds == TrackerThresholds(match_iou=0.35, max_misses=5)


def test_tracker_config_is_the_tracker_record():
    assert type(load_config().tracker) is TrackerThresholds
    with pytest.raises(FrozenInstanceError):
        load_config().tracker.max_misses = 9
