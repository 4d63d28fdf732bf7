import numpy as np
import pytest

from avfuse import tensor as tz
from avfuse.detect_track import BBox, Detection
from avfuse.errors import InvalidInput
from avfuse.fusion import (
    EMBED_DIM,
    FUSED_DIM,
    AdvancedFusionModel,
    AudioEnsembleFusion,
    BasicFusionModel,
    TokenNormalizer,
    TrainingBatch,
    load_model,
    save_model,
    stub_audio_embeddings,
    train_step,
    visual_rows,
)
from avfuse.audio_dsp import CENTROID_COLUMN, ENERGY_COLUMN, spectral_stats
from avfuse.vision_dsp import dwt2_energy
from oracles import finite_diff_check, ref_advanced_forward, ref_basic_forward, sequence

SR = 16000


def param_arrays(model):
    return {name: t.data.copy() for name, t in model.store.params.items()}


def make_separable_set(n_per_class=8, t=6, advanced=False, seed=42):
    """Moving class: detections, texture, flow; static class: near-zero."""
    rng = np.random.default_rng(seed)
    examples = []
    for label in (0, 1):
        for _ in range(n_per_class):
            if label == 1:
                vis = [
                    rng.integers(2, 5, size=t).astype(float),
                    rng.uniform(0.6, 0.95, size=t),
                    rng.uniform(3e5, 8e5, size=t),
                ]
                aud = [
                    rng.uniform(0.2, 0.5, size=t),
                    rng.uniform(800, 2500, size=t),
                    rng.uniform(300, 900, size=t),
                    rng.uniform(1500, 5000, size=t),
                ]
                if advanced:
                    vis.append(rng.uniform(1.0, 3.0, size=t))
                    aud.append(rng.uniform(0.01, 0.2, size=t))
                vis = np.column_stack(vis)
                aud = np.column_stack(aud)
            else:
                vis = rng.normal(0, 0.01, size=(t, 4 if advanced else 3))
                aud = np.abs(rng.normal(0, 0.01, size=(t, 5 if advanced else 4)))
            examples.append((vis, aud, label))
    rng.shuffle(examples)
    visual, audio, labels = (np.array(column) for column in zip(*examples))
    norm = TokenNormalizer.fit(visual, audio)
    return TrainingBatch(norm.normalize_visual(visual), norm.normalize_audio(audio), labels,
                         fused=np.zeros((len(labels), FUSED_DIM)) if advanced else None,
                         event=np.zeros(len(labels), dtype=int) if advanced else None)


def sequence_accuracy(model, batch):
    """The share of ``batch``'s sequences whose motion argmax, predicted alone, is their label."""
    return np.mean([np.argmax(model.predict(v, a)[0]) == label
                    for v, a, label in zip(batch.visual, batch.audio, batch.motion)])


class TestTokens:
    """Visual tokens are :func:`visual_rows`, audio tokens the spectral statistics rows."""

    def test_frame_without_detections(self):
        rows = visual_rows([()], dwt2_energy(np.zeros((1, 8, 8))), np.zeros(1))
        assert rows.shape == (1, 4)
        bbox_count, mean_confidence, wavelet_energy, _ = rows[0]
        assert bbox_count == 0
        assert mean_confidence == 0.0
        assert wavelet_energy == 0.0

    def test_mean_confidence_of_two_detections(self):
        dets = (
            Detection(BBox(0, 0, 5, 5), 0.4, 0),
            Detection(BBox(10, 10, 15, 15), 0.6, 0),
        )
        rows = visual_rows([dets, ()], dwt2_energy(np.ones((2, 8, 8))), np.array([0.0, 2.5]))
        assert rows[:, 0].tolist() == [2, 0]
        assert rows[0, 1] == pytest.approx(0.5) and rows[1, 1] == 0.0
        assert rows[:, 2] == pytest.approx([64.0, 64.0])
        assert rows[:, 3].tolist() == [0.0, 2.5]

    def test_zero_window_token_is_zeros(self):
        token = spectral_stats(np.zeros((1, 1600)), SR)
        assert token.tolist() == [[0.0, 0.0, 0.0, 0.0, 0.0]]

    def test_sine_window_centroid(self):
        samples = np.sin(2 * np.pi * 1000 * np.arange(3200) / SR)
        assert abs(spectral_stats(samples, SR)[CENTROID_COLUMN] - 1000.0) <= 10.0

    def test_audio_tokens_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(-1, 1, size=1600)
        base = spectral_stats(samples, SR)
        scaled = spectral_stats(samples * 4.2, SR)
        assert tuple(scaled[:4]) == pytest.approx(tuple(base[:4]))
        assert scaled[ENERGY_COLUMN] == pytest.approx(base[ENERGY_COLUMN] * 4.2 ** 2)


class TestAudioEnsemble:
    def test_zero_inputs_zero_output(self):
        fusion = AudioEnsembleFusion()
        zero = np.zeros(EMBED_DIM)
        assert np.all(fusion.fuse(zero, zero, zero) == 0.0)

    def test_selection_matrix_picks_first_embedding(self):
        fusion = AudioEnsembleFusion()
        selection = np.zeros((3 * EMBED_DIM, FUSED_DIM))
        selection[:FUSED_DIM, :] = np.eye(FUSED_DIM)
        fusion.weight = selection
        rng = np.random.default_rng(1)
        e1, e2, e3 = (rng.normal(size=EMBED_DIM) for _ in range(3))
        np.testing.assert_array_equal(fusion.fuse(e1, e2, e3), e1[:FUSED_DIM])

    def test_matches_scalar_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        fusion = AudioEnsembleFusion()
        e1, e2, e3 = (rng.normal(size=EMBED_DIM) for _ in range(3))
        got = fusion.fuse(e1, e2, e3)
        stacked = np.concatenate([e1, e2, e3])
        expected = np.array([
            sum(stacked[i] * fusion.weight[i, j] for i in range(3 * EMBED_DIM))
            for j in range(FUSED_DIM)
        ])
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_wrong_length_rejected(self):
        fusion = AudioEnsembleFusion()
        with pytest.raises(InvalidInput):
            fusion.fuse(np.zeros(10), np.zeros(EMBED_DIM), np.zeros(EMBED_DIM))

    def test_stub_embeddings_deterministic_and_distinct(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-1, 1, size=3200)
        a = stub_audio_embeddings(samples, SR)
        b = stub_audio_embeddings(samples, SR)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert not np.allclose(a[0], a[1])


class TestBasicModel:
    def test_single_token_attention_is_identity_weight(self, attention_weights):
        model = BasicFusionModel(seed=0)
        model.forward(np.ones((1, 3)), np.ones((1, 4)))
        assert attention_weights
        for weights in attention_weights:
            np.testing.assert_array_equal(weights, [[1.0]])

    def test_permutation_invariant_without_positions(self):
        rng = np.random.default_rng(4)
        model = BasicFusionModel(seed=1)
        vis = rng.normal(size=(8, 3))
        aud = rng.normal(size=(8, 4))
        base = model.forward(vis, aud)[0].data
        perm = rng.permutation(8)
        np.testing.assert_allclose(model.forward(vis[perm], aud[perm])[0].data, base, atol=1e-12)

    def test_matches_scalar_reference_forward(self):
        rng = np.random.default_rng(5)
        model = BasicFusionModel(seed=2)
        vis = rng.normal(size=(6, 3))
        aud = rng.normal(size=(6, 4))
        got = model.forward(vis, aud)[0].data
        expected = ref_basic_forward(param_arrays(model), model.config, vis, aud)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_token_count_mismatch_rejected(self):
        model = BasicFusionModel(seed=0)
        with pytest.raises(InvalidInput):
            model.forward(np.ones((3, 3)), np.ones((4, 4)))

    def test_attention_rows_sum_to_one_everywhere(self, attention_weights):
        rng = np.random.default_rng(8)
        model = BasicFusionModel(seed=3)
        model.forward(rng.normal(size=(5, 3)), rng.normal(size=(5, 4)))
        assert len(attention_weights) == model.config.layers * model.config.heads
        for weights in attention_weights:
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)


class TestAdvancedModel:
    def test_zero_inputs_zero_params_logits_equal_head_biases(self):
        model = AdvancedFusionModel(seed=0)
        for name, tensor in model.store.params.items():
            tensor.data = np.zeros_like(tensor.data)
        model.store.params["head.motion.bias"].data = np.array([[0.3, -0.7]])
        model.store.params["head.event.bias"].data = np.arange(32.0).reshape(1, 32)
        motion, event = model.forward(np.zeros((4, 4)), np.zeros((4, 5)), np.zeros(FUSED_DIM))
        np.testing.assert_array_equal(motion.data.reshape(-1), [0.3, -0.7])
        np.testing.assert_array_equal(event.data.reshape(-1), np.arange(32.0))

    def test_single_token_cross_attention_weights_are_one(self, attention_weights):
        model = AdvancedFusionModel(seed=1)
        model.forward(np.ones((1, 4)), np.ones((1, 5)), np.zeros(FUSED_DIM))
        assert len(attention_weights) == model.config.layers * 2 * model.config.heads
        for weights in attention_weights:
            np.testing.assert_array_equal(weights, [[1.0]])

    def test_matches_scalar_reference_forward(self):
        rng = np.random.default_rng(9)
        model = AdvancedFusionModel(seed=2)
        vis = rng.normal(size=(3, 4))
        aud = rng.normal(size=(3, 5))
        fused = rng.normal(size=FUSED_DIM)
        got_motion, got_event = model.forward(vis, aud, fused)
        motion, event = ref_advanced_forward(param_arrays(model), model.config, vis, aud, fused)
        np.testing.assert_allclose(got_motion.data.reshape(-1), motion.reshape(-1), atol=1e-8)
        np.testing.assert_allclose(got_event.data.reshape(-1), event.reshape(-1), atol=1e-8)

    def test_attention_rows_sum_to_one(self, attention_weights):
        rng = np.random.default_rng(10)
        model = AdvancedFusionModel(seed=3)
        model.forward(rng.normal(size=(5, 4)), rng.normal(size=(5, 5)), rng.normal(size=FUSED_DIM))
        assert attention_weights
        for weights in attention_weights:
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)

    def test_wrong_fused_dimension_rejected(self):
        model = AdvancedFusionModel(seed=0)
        with pytest.raises(InvalidInput):
            model.forward(np.ones((2, 4)), np.ones((2, 5)), np.zeros(100))


class TestTraining:
    def test_zero_learning_rate_reports_loss_without_update(self):
        model = BasicFusionModel(seed=4)
        batch = make_separable_set(2)
        before = [p.data.copy() for p in model.parameters()]
        loss = train_step(model, batch, 0.0)
        assert np.isfinite(loss) and loss > 0
        for b, p in zip(before, model.parameters()):
            np.testing.assert_array_equal(b, p.data)

    def test_single_example_loss_strictly_decreases(self):
        model = BasicFusionModel(seed=5)
        example = sequence(make_separable_set(2), 0)
        losses = [train_step(model, example, 0.05) for _ in range(200)]
        assert losses[-1] < 0.1
        for i in range(len(losses) - 50):
            assert losses[i + 50] < losses[i]

    def test_separable_set_accuracy_within_500_steps(self):
        model = BasicFusionModel(seed=6)
        batch = make_separable_set(8)
        accuracy = 0.0
        for step in range(1, 501):
            train_step(model, batch, 0.1)
            if step % 10 == 0:
                accuracy = sequence_accuracy(model, batch)
                if accuracy >= 0.95:
                    break
        assert accuracy >= 0.95

    def test_invalid_labels_rejected(self):
        model = BasicFusionModel(seed=0)
        bad = TrainingBatch(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)), motion=np.array([7]))
        with pytest.raises(InvalidInput):
            train_step(model, bad, 0.1)
        advanced = AdvancedFusionModel(seed=0)
        bad_event = TrainingBatch(np.zeros((1, 2, 4)), np.zeros((1, 2, 5)), np.array([0]),
                                  fused=np.zeros((1, FUSED_DIM)), event=np.array([32]))
        with pytest.raises(InvalidInput):
            train_step(advanced, bad_event, 0.1)

    def test_basic_model_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        model = BasicFusionModel(seed=7)
        vis = rng.normal(size=(3, 3))
        aud = rng.normal(size=(3, 4))

        def f():
            return tz.cross_entropy(model.forward(vis, aud)[0], [1])

        err = finite_diff_check(f, model.parameters(), max_coords_per_param=2, seed=0)
        assert err < 1e-4

    def test_model_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        model = BasicFusionModel(seed=8)
        batch = make_separable_set(2)
        train_step(model, batch, 0.1)
        norm = TokenNormalizer.fit(rng.normal(size=(4, 3)), rng.normal(size=(4, 4)))
        path = tmp_path / "model.bin"
        save_model(path, model, norm)
        loaded, loaded_norm = load_model(path)
        vis = rng.normal(size=(5, 3))
        aud = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(loaded.forward(vis, aud)[0].data, model.forward(vis, aud)[0].data)
        np.testing.assert_array_equal(loaded_norm.visual_mean, norm.visual_mean)

    def test_advanced_model_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        model = AdvancedFusionModel(seed=9)
        norm = TokenNormalizer.identity(4, 5)
        path = tmp_path / "advanced.bin"
        save_model(path, model, norm)
        loaded, _ = load_model(path)
        vis = rng.normal(size=(3, 4))
        aud = rng.normal(size=(3, 5))
        fused = rng.normal(size=FUSED_DIM)
        got = loaded.forward(vis, aud, fused)
        expected = model.forward(vis, aud, fused)
        np.testing.assert_array_equal(got[0].data, expected[0].data)
        np.testing.assert_array_equal(got[1].data, expected[1].data)
