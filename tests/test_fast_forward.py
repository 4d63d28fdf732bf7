"""The heads-batched attention op, inference mode, the cheap GELU cube and
the cached ensemble projections."""

import threading

import numpy as np
import pytest

from avfuse import tensor as tz
from avfuse.anomaly import DenseAutoencoder
from avfuse.config import FusionConfig
from avfuse.errors import InvalidInput
from avfuse import fusion
from avfuse.fusion import (
    FUSED_DIM,
    AdvancedFusionModel,
    BasicFusionModel,
    build_model,
    stub_audio_embeddings,
)
from oracles import finite_diff_check, identity_value_weights, scalar_gelu, scalar_softmax_rows

HEADS = (1, 2, 4, 8)
GRAD_TOL = 1e-4
# Largest relative gap measured between tz.gelu and the x ** 3 oracle on
# [-10, 10] is 2.7e-12, at x near -4 where 1 + tanh(u) cancels; elsewhere
# the two agree to a few ulp.
GELU_RTOL = 1e-11


def param(rng, *shape):
    return tz.Tensor(rng.normal(size=shape), requires_grad=True)


def per_head_composition(q, k, v, heads):
    """Each head by slice_cols + attention_weights + matmul, then concat."""
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    outs = []
    for h in range(heads):
        weights = tz.attention_weights(tz.slice_cols(q, h * dk, (h + 1) * dk),
                                       tz.slice_cols(k, h * dk, (h + 1) * dk))
        outs.append(tz.matmul(weights, tz.slice_cols(v, h * dv, (h + 1) * dv)))
    return tz.concat(outs) if heads > 1 else outs[0]


class TestBatchedAttention:
    @pytest.mark.parametrize("heads", HEADS)
    def test_self_attention_gradients_match_finite_differences(self, heads):
        rng = np.random.default_rng(heads)
        x = param(rng, 4, 16)
        mix = tz.Tensor(rng.normal(size=(4, 16)))

        def f():
            return tz.sum_all(tz.mul(tz.attention(x, x, x, heads), mix))

        assert finite_diff_check(f, [x]) < GRAD_TOL

    @pytest.mark.parametrize("heads", HEADS)
    def test_cross_attention_gradients_match_finite_differences(self, heads):
        rng = np.random.default_rng(10 + heads)
        q, k, v = param(rng, 3, 8), param(rng, 5, 8), param(rng, 5, 16)
        mix = tz.Tensor(rng.normal(size=(3, 16)))

        def f():
            return tz.sum_all(tz.mul(tz.attention(q, k, v, heads), mix))

        assert finite_diff_check(f, [q, k, v]) < GRAD_TOL

    @pytest.mark.parametrize("heads", HEADS)
    def test_matches_per_head_composition(self, heads):
        rng = np.random.default_rng(20 + heads)
        q, k, v = param(rng, 6, 16), param(rng, 9, 16), param(rng, 9, 8)
        mix = tz.Tensor(rng.normal(size=(6, 8)))
        grads = []
        for build in (lambda: tz.attention(q, k, v, heads),
                      lambda: per_head_composition(q, k, v, heads)):
            out = build()
            for p in (q, k, v):
                p.grad = None
            tz.backward(tz.sum_all(tz.mul(out, mix)))
            grads.append([out.data] + [p.grad for p in (q, k, v)])
        for batched, composed in zip(*grads):
            np.testing.assert_allclose(batched, composed, rtol=0, atol=1e-12)

    def test_identity_values_give_each_heads_weights_in_order(self):
        rng = np.random.default_rng(30)
        q, k = (rng.normal(size=shape) for shape in ((3, 8), (5, 8)))
        weights = identity_value_weights(tz.attention, tz.Tensor(q), tz.Tensor(k), heads=4)
        assert len(weights) == 4
        for h, w in enumerate(weights):
            cols = slice(2 * h, 2 * h + 2)
            expected = scalar_softmax_rows(q[:, cols] @ k[:, cols].T / np.sqrt(2))
            assert w.shape == (3, 5)
            np.testing.assert_allclose(w, expected, rtol=0, atol=1e-15)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_widths_that_do_not_split_are_rejected(self):
        x = tz.Tensor(np.zeros((2, 6)))
        with pytest.raises(InvalidInput, match="4 heads"):
            tz.attention(x, x, x, 4)
        with pytest.raises(InvalidInput, match="0 heads"):
            tz.attention(x, x, x, 0)

    def test_basic_trace_holds_layers_times_heads(self, attention_weights):
        model = BasicFusionModel()
        rng = np.random.default_rng(31)
        model.forward(rng.normal(size=(5, 3)), rng.normal(size=(5, 4)))
        assert len(attention_weights) == 2 * 4
        assert all(w.shape == (5, 5) for w in attention_weights)

    def test_advanced_trace_holds_layers_times_two_times_heads(self, attention_weights):
        model = AdvancedFusionModel()
        rng = np.random.default_rng(32)
        model.forward(rng.normal(size=(6, 4)), rng.normal(size=(6, 5)), rng.normal(size=FUSED_DIM))
        assert len(attention_weights) == 4 * 2 * 8
        assert all(w.shape == (6, 6) for w in attention_weights)


class TestInferenceMode:
    def test_records_no_graph(self):
        rng = np.random.default_rng(40)
        w = param(rng, 3, 3)
        x = tz.Tensor(rng.normal(size=(2, 3)))
        with tz.inference():
            out = tz.gelu(tz.matmul(x, w))
        assert out._parents == () and out._grad_fns == ()
        assert tz.matmul(x, w)._parents != ()

    def test_restores_the_previous_mode_after_an_exception(self):
        rng = np.random.default_rng(41)
        w = param(rng, 3, 3)
        with pytest.raises(ValueError):
            with tz.inference():
                raise ValueError("inside")
        assert tz.matmul(w, w)._parents != ()
        with tz.inference():
            with tz.inference():
                pass
            assert tz.matmul(w, w)._parents == ()
        assert tz.matmul(w, w)._parents != ()

    def test_another_thread_keeps_building_its_graph(self):
        rng = np.random.default_rng(42)
        w = param(rng, 4, 4)
        entered, built = threading.Event(), threading.Event()
        seen = {}

        def train():
            assert entered.wait(timeout=10)
            loss = tz.sum_all(tz.gelu(tz.matmul(w, w)))
            tz.backward(loss)
            seen["parents"], seen["grad"] = loss._parents, w.grad
            built.set()

        worker = threading.Thread(target=train)
        worker.start()
        with tz.inference():
            entered.set()
            assert built.wait(timeout=10)
            assert tz.matmul(w, w)._parents == ()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen["parents"] != () and seen["grad"] is not None

    def test_basic_predict_equals_forward(self):
        model = BasicFusionModel(seed=3)
        rng = np.random.default_rng(43)
        visual, audio = rng.normal(size=(7, 3)), rng.normal(size=(7, 4))
        motion, event = model.predict(visual, audio)
        assert event is None
        np.testing.assert_allclose(motion, model.forward(visual, audio)[0].data.reshape(-1),
                                   rtol=1e-12, atol=0)

    def test_advanced_predict_equals_forward_graph(self):
        model = AdvancedFusionModel(seed=4)
        rng = np.random.default_rng(44)
        visual, audio = rng.normal(size=(6, 4)), rng.normal(size=(6, 5))
        fused = rng.normal(size=FUSED_DIM)
        motion, event = model.predict(visual, audio, fused)
        graph_motion, graph_event = model.forward(visual, audio, fused)
        np.testing.assert_allclose(motion, graph_motion.data.reshape(-1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(event, graph_event.data.reshape(-1), rtol=1e-12, atol=0)

    def test_autoencoder_reconstruct_equals_its_forward(self):
        model = DenseAutoencoder(seed=5)
        vector = np.random.default_rng(45).uniform(size=64)
        np.testing.assert_allclose(model.reconstruct(vector),
                                   model._forward(tz.Tensor(vector)).data.reshape(-1),
                                   rtol=1e-12, atol=0)

    def test_advanced_forward_at_32_tokens_stays_under_200_ops(self, monkeypatch):
        model = build_model(FusionConfig(model="advanced"))
        calls = []
        node = tz._node
        monkeypatch.setattr(tz, "_node", lambda *args: calls.append(1) or node(*args))
        rng = np.random.default_rng(46)
        model.predict(rng.normal(size=(32, 4)), rng.normal(size=(32, 5)), rng.normal(size=FUSED_DIM))
        assert 0 < len(calls) <= 200


def test_gelu_matches_the_scalar_oracle():
    rng = np.random.default_rng(50)
    x = np.concatenate([np.linspace(-10.0, 10.0, 4001), rng.normal(scale=3.0, size=4000)])
    ours, oracle = tz.gelu(tz.Tensor(x)).data.reshape(-1), scalar_gelu(x)
    scale = np.maximum(np.abs(ours), np.abs(oracle))
    assert np.all(np.abs(ours - oracle) <= GELU_RTOL * scale)


def test_ensemble_projections_are_drawn_once_and_shared_read_only():
    samples = np.random.default_rng(51).normal(size=1600)
    first = stub_audio_embeddings(samples, 16000)
    before = fusion._ensemble_projections.cache_info()
    second = stub_audio_embeddings(samples, 16000)
    after = fusion._ensemble_projections.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    for projection in fusion._ensemble_projections():
        assert not projection.flags.writeable
