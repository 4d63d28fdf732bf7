import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse.anomaly import (
    METHODS,
    AudioBaseline,
    DenseAutoencoder,
    StatWindow,
    audio_anomaly_score,
    autoencoder_score,
    autoencoder_train,
    block_mean_downsample,
    combine_scores,
    event_anomaly_score,
    zscore_score,
)
from avfuse.errors import InvalidConfig, InvalidInput, NotTrained


def constant_frames(value=120, n=40, shape=(32, 32)):
    return [np.full(shape, value, dtype=np.uint8) for _ in range(n)]


class TestZscore:
    def test_frame_matching_history_mean_scores_zero(self):
        window = StatWindow()
        for _ in range(5):
            window.push(np.full((4, 4), 50.0))
        assert zscore_score(window, np.full((4, 4), 50.0)) == 0.0

    def test_constant_history_with_large_jump_clamps_to_one(self):
        window = StatWindow()
        for _ in range(4):
            window.push(np.full((4, 4), 10.0))
        # std floor is active; any visible jump saturates the clamp
        assert zscore_score(window, np.full((4, 4), 11.0)) == 1.0

    def test_matches_scalar_mean_std_oracle(self):
        history = [100.0, 102.0, 98.0, 101.0, 99.0]
        window = StatWindow()
        for m in history:
            window.push(np.full((4, 4), m))
        sigma = float(np.std(history))
        expected = min(abs(130.0 - float(np.mean(history))) / (sigma * 6.0), 1.0)
        assert zscore_score(window, np.full((4, 4), 130.0)) == pytest.approx(expected)

    def test_warm_up_scores_zero_and_appends(self):
        window = StatWindow()
        assert zscore_score(window, np.full((4, 4), 10.0)) == 0.0
        assert zscore_score(window, np.full((4, 4), 200.0)) == 0.0
        assert len(window) == 2
        # history is now populated; scoring resumes
        assert zscore_score(window, np.full((4, 4), 200.0)) > 0.0

    def test_capacity_bounds_history(self):
        window = StatWindow(capacity=3)
        for v in range(10):
            window.push(np.full((2, 2), float(v)))
        assert len(window) == 3


class TestAutoencoder:
    def test_constant_frames_converge(self):
        model = autoencoder_train(constant_frames(), steps=2000, learning_rate=0.1, seed=1)
        assert model.training_mse < 1e-3

    def test_zero_learning_rate_leaves_parameters(self):
        fresh = DenseAutoencoder(seed=5)
        before = {k: p.data.copy() for k, p in fresh.params.items()}
        trained = autoencoder_train(constant_frames(), steps=50, learning_rate=0.0, seed=5)
        for key in before:
            np.testing.assert_array_equal(before[key], trained.params[key].data)

    def test_seeded_training_is_deterministic(self):
        a = autoencoder_train(constant_frames(), steps=150, learning_rate=0.1, seed=3)
        b = autoencoder_train(constant_frames(), steps=150, learning_rate=0.1, seed=3)
        for key in a.params:
            np.testing.assert_array_equal(a.params[key].data, b.params[key].data)

    def test_training_frame_scores_low_noise_scores_high(self):
        model = autoencoder_train(constant_frames(), steps=2000, learning_rate=0.1, seed=1)
        assert autoencoder_score(model, constant_frames()[0]) < 0.15
        noise = np.random.default_rng(0).uniform(0, 255, size=(32, 32))
        assert autoencoder_score(model, noise) >= 0.5

    def test_perfect_reconstruction_scores_zero(self):
        model = autoencoder_train(constant_frames(), steps=1500, learning_rate=0.1, seed=2)
        model.params["enc.weight"].data[:] = 0.0
        model.params["dec.weight"].data[:] = 0.0
        model.params["enc.bias"].data[:] = 0.0
        target = np.full((32, 32), 90, dtype=np.uint8)
        model.params["dec.bias"].data[:] = 90.0 / 255.0
        assert autoencoder_score(model, target) == 0.0

    def test_too_few_frames_rejected(self):
        with pytest.raises(InvalidInput):
            autoencoder_train(constant_frames(n=10))

    def test_untrained_model_cannot_score(self):
        with pytest.raises(NotTrained):
            autoencoder_score(DenseAutoencoder(), np.zeros((8, 8)))

    def test_block_mean_handles_ragged_dimensions(self):
        img = np.arange(9 * 13, dtype=np.float64).reshape(9, 13)
        out = block_mean_downsample(img)
        assert out.shape == (8, 8)
        assert out.min() >= img.min() and out.max() <= img.max()


class TestAudioAnomaly:
    def warmed_baseline(self, energies, centroids):
        baseline = AudioBaseline()
        for e, c in zip(energies, centroids):
            baseline.energy.push(e)
            baseline.centroid.push(c)
        return baseline

    def test_stats_at_baseline_mean_score_zero(self):
        baseline = self.warmed_baseline([0.5, 0.5, 0.5], [1000.0, 1000.0, 1000.0])
        assert audio_anomaly_score(0.5, 1000.0, baseline) == 0.0

    def test_loud_burst_saturates(self):
        baseline = self.warmed_baseline([0.1, 0.1, 0.1, 0.1], [800.0, 820.0, 790.0, 805.0])
        assert audio_anomaly_score(50.0, 800.0, baseline) == 1.0

    def test_silence_after_steady_tone_scores_positive(self):
        energies = [0.4, 0.41, 0.39, 0.4]
        centroids = [1000.0, 1001.0, 999.0, 1000.0]
        baseline = self.warmed_baseline(energies, centroids)
        expected_z = abs(0.0 - np.mean(energies)) / max(np.std(energies), 1e-6)
        score = audio_anomaly_score(0.0, 1000.0, baseline)
        assert score > 0.0
        assert score == pytest.approx(min(expected_z / 6.0, 1.0))

    def test_warm_up_scores_zero(self):
        baseline = AudioBaseline()
        assert audio_anomaly_score(0.9, 2000.0, baseline) == 0.0


class TestEventAnomaly:
    def test_uniform_logits_give_uniform_probability(self):
        result = event_anomaly_score(np.zeros(32), [3, 7, 11, 15], probability_threshold=0.5)
        assert result.score == pytest.approx(1.0 / 32.0)
        assert result.label_ids == ()

    def test_dominant_logit_saturates_and_reports(self):
        logits = np.zeros(32)
        logits[7] = 20.0
        result = event_anomaly_score(logits, [7, 9])
        assert result.score > 0.999
        assert result.label_ids == (7,)

    def test_matches_scalar_softmax_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=32)
        exp = np.exp(logits - logits.max())
        probs = exp / exp.sum()
        anomaly_ids = [1, 4, 30]
        result = event_anomaly_score(logits, anomaly_ids, probability_threshold=0.01)
        assert result.score == pytest.approx(max(probs[i] for i in anomaly_ids), abs=1e-10)

    def test_empty_anomaly_set_scores_zero(self):
        assert event_anomaly_score(np.zeros(32), []).score == 0.0

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(InvalidInput):
            event_anomaly_score(np.zeros(32), [40])


class TestCombineScores:
    WEIGHTS = {m: 0.25 for m in METHODS}

    def test_all_zero_scores(self):
        report = combine_scores({m: 0.0 for m in METHODS}, self.WEIGHTS, 0.5)
        assert report.combined == 0.0
        assert not report.triggered

    def test_all_one_scores_trigger(self):
        report = combine_scores({m: 1.0 for m in METHODS}, self.WEIGHTS, 1.0)
        assert report.combined == pytest.approx(1.0)
        assert report.triggered

    def test_arithmetic_example(self):
        scores = dict(zip(METHODS, (0.2, 0.4, 0.0, 1.0)))
        report = combine_scores(scores, {m: 1.0 for m in METHODS}, 0.5)
        assert report.combined == pytest.approx(0.4)
        assert not report.triggered
        assert report.anomaly_type == "event"

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InvalidConfig):
            combine_scores({m: 0.5 for m in METHODS}, {m: 0.0 for m in METHODS}, 0.5)
        with pytest.raises(InvalidConfig):
            combine_scores({m: 0.5 for m in METHODS}, {m: -1.0 for m in METHODS}, 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_weight_sum_rejected(self):
        with pytest.raises(InvalidConfig, match="finite"):
            combine_scores({m: 1.0 for m in METHODS}, {"statistical": 1e308, "audio": 1e308}, 0.5)

    def test_one_weight_near_the_float64_limit_weighs_like_one(self):
        scores = dict(zip(METHODS, (0.2, 0.4, 0.0, 1.0)))
        assert (combine_scores(scores, {"event": 1.7e308}, 0.5)
                == combine_scores(scores, {"event": 1.0}, 0.5))

    @settings(max_examples=80, deadline=None)
    @given(
        base=st.lists(st.floats(0, 1), min_size=4, max_size=4),
        bump=st.floats(0.0, 1.0),
        index=st.integers(0, 3),
        weights=st.lists(st.floats(0.01, 5), min_size=4, max_size=4),
    )
    def test_monotone_in_every_method(self, base, bump, index, weights):
        weight_map = dict(zip(METHODS, weights))
        low = combine_scores(dict(zip(METHODS, base)), weight_map, 0.5)
        raised = list(base)
        raised[index] = min(1.0, raised[index] + bump)
        high = combine_scores(dict(zip(METHODS, raised)), weight_map, 0.5)
        assert high.combined >= low.combined - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    def test_combined_always_in_unit_interval(self, raw):
        report = combine_scores(dict(zip(METHODS, raw)), self.WEIGHTS, 0.5)
        assert 0.0 <= report.combined <= 1.0
        for value in report.method_scores.values():
            assert 0.0 <= value <= 1.0
