"""One graph per training step: a batch of equal-length sequences stacked as row blocks.

The loss of each sequence as a batch of one, summed and scaled the way
training used to build it, is the reference. The batched loss and its gradients sum the same terms in
another order, so they agree to 1e-12 relative, not bit for bit.
"""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse import tensor as tz
from avfuse.config import Config
from avfuse.errors import InvalidInput
from avfuse.fusion import (
    FUSED_DIM,
    AdvancedFusionModel,
    BasicFusionModel,
    TrainingBatch,
    train_step,
)
from avfuse.pipeline import PipelineContext, build_training_sequences, open_capture
from avfuse.scenario import generate_scenario, preset_scenario
from oracles import finite_diff_check, sequence

GRAD_TOL = 1e-4
BATCH_RTOL = 1e-12
MODELS = {
    "basic": lambda: BasicFusionModel(seed=3),
    "advanced": lambda: AdvancedFusionModel(seed=3),
}


def param(rng, *shape):
    return tz.Tensor(rng.normal(size=shape), requires_grad=True)


def make_batch(model, count, tokens=10, seed=0):
    rng = np.random.default_rng(seed)
    c = model.config
    advanced = isinstance(model, AdvancedFusionModel)
    return TrainingBatch(rng.normal(size=(count, tokens, c.visual_features)),
                         rng.normal(size=(count, tokens, c.audio_features)),
                         motion=np.arange(count) % c.motion_classes,
                         fused=rng.normal(size=(count, FUSED_DIM)) if advanced else None,
                         event=(5 * np.arange(count)) % c.event_classes if advanced else None)


class TestRowBlockOps:
    def test_block_attention_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        q, k, v = param(rng, 3 * 4, 6), param(rng, 3 * 5, 6), param(rng, 3 * 5, 4)
        mix = tz.Tensor(rng.normal(size=(3 * 4, 4)))

        def f():
            return tz.sum_all(tz.mul(tz.attention(q, k, v, heads=2, blocks=3), mix))

        assert finite_diff_check(f, [q, k, v]) < GRAD_TOL

    def test_block_attention_attends_within_each_block(self):
        rng = np.random.default_rng(1)
        q, k, v = (rng.normal(size=(3 * n, 6)) for n in (4, 5, 5))
        batched = tz.attention(tz.Tensor(q), tz.Tensor(k), tz.Tensor(v), heads=2, blocks=3).data
        for b in range(3):
            alone = tz.attention(tz.Tensor(q[4 * b:4 * b + 4]), tz.Tensor(k[5 * b:5 * b + 5]),
                                 tz.Tensor(v[5 * b:5 * b + 5]), heads=2).data
            np.testing.assert_array_equal(batched[4 * b:4 * b + 4], alone)

    def test_block_mean_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x, w = param(rng, 3 * 4, 5), param(rng, 3, 5)
        assert tz.mean(x, 3).shape == (3, 5)

        def f():
            return tz.sum_all(tz.mul(tz.gelu(tz.mean(x, 3)), w))

        assert finite_diff_check(f, [x, w]) < GRAD_TOL

    def test_block_bias_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x, bias = param(rng, 3 * 4, 5), param(rng, 4, 5)
        np.testing.assert_array_equal(tz.add_bias(x, bias).data,
                                      x.data + np.tile(bias.data, (3, 1)))

        def f():
            return tz.sum_all(tz.gelu(tz.add_bias(x, bias)))

        assert finite_diff_check(f, [x, bias]) < GRAD_TOL

    @pytest.mark.parametrize("build", [
        lambda x: tz.attention(x, x, x, heads=2, blocks=5),
        lambda x: tz.mean(x, 5),
        lambda x: tz.add_bias(x, tz.Tensor(np.zeros((5, 4)))),
    ], ids=["attention", "mean", "add_bias"])
    def test_rows_that_do_not_split_into_blocks_are_rejected(self, build):
        with pytest.raises(InvalidInput):
            build(tz.Tensor(np.ones((12, 4))))


UNEQUAL = settings(max_examples=40, derandomize=True, database=None, deadline=None)
# Blocks of 1 to 12 rows in any order, each repeated 1 to 3 times in a row, so that some
# consecutive blocks share a length and run as one group.
LENGTHS = st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), min_size=1,
                   max_size=5).map(lambda runs: [n for n, times in runs for _ in range(times)])
DTYPES = st.sampled_from([np.float64, np.float32])


def spans(lengths):
    """Each block's (first row, end row)."""
    ends = np.cumsum(lengths).tolist()
    return list(zip([0] + ends[:-1], ends))


def data(rng, dtype, *shape):
    return rng.normal(size=shape).astype(dtype)


class TestUnequalRowBlocks:
    """Each block of an unequal-block call has the bytes of that block computed alone, and
    the gradients match finite differences. Hypothesis runs derandomized, 40 examples each."""

    @UNEQUAL
    @given(lengths=LENGTHS, dtype=DTYPES, seed=st.integers(0, 2**32 - 1))
    def test_attention_blocks_equal_each_block_alone(self, lengths, dtype, seed):
        rng = np.random.default_rng(seed)
        rows = sum(lengths)
        q, k, v = data(rng, dtype, rows, 8), data(rng, dtype, rows, 8), data(rng, dtype, rows, 4)
        out = tz.attention(tz.Tensor(q), tz.Tensor(k), tz.Tensor(v), heads=2, blocks=lengths).data
        assert out.dtype == dtype and out.shape == (rows, 4)
        for lo, hi in spans(lengths):
            alone = tz.attention(tz.Tensor(q[lo:hi]), tz.Tensor(k[lo:hi]), tz.Tensor(v[lo:hi]),
                                 heads=2).data
            assert out[lo:hi].tobytes() == alone.tobytes()

    @UNEQUAL
    @given(lengths=LENGTHS, dtype=DTYPES, seed=st.integers(0, 2**32 - 1))
    def test_mean_blocks_equal_each_block_alone(self, lengths, dtype, seed):
        x = data(np.random.default_rng(seed), dtype, sum(lengths), 6)
        out = tz.mean(tz.Tensor(x), lengths).data
        assert out.dtype == dtype and out.shape == (len(lengths), 6)
        for row, (lo, hi) in zip(out, spans(lengths)):
            assert row.tobytes() == tz.mean(tz.Tensor(x[lo:hi]), 1).data[0].tobytes()

    @UNEQUAL
    @given(lengths=LENGTHS, dtype=DTYPES, seed=st.integers(0, 2**32 - 1))
    def test_positional_add_blocks_equal_each_block_alone(self, lengths, dtype, seed):
        rng = np.random.default_rng(seed)
        x, table = data(rng, dtype, sum(lengths), 6), data(rng, dtype, 12, 6)
        out = tz.add_bias(tz.Tensor(x), tz.Tensor(table[:max(lengths)]), lengths).data
        assert out.dtype == dtype
        for lo, hi in spans(lengths):
            alone = tz.add_bias(tz.Tensor(x[lo:hi]), tz.Tensor(table[:hi - lo])).data
            assert out[lo:hi].tobytes() == alone.tobytes()

    @settings(max_examples=15, derandomize=True, database=None, deadline=None)
    @given(lengths=LENGTHS, seed=st.integers(0, 2**32 - 1))
    def test_gradients_match_finite_differences(self, lengths, seed):
        rng = np.random.default_rng(seed)
        rows = sum(lengths)
        q, k, v = param(rng, rows, 4), param(rng, rows, 4), param(rng, rows, 2)
        table = param(rng, max(lengths), 2)
        w = tz.Tensor(rng.normal(size=(len(lengths), 2)))

        def f():
            attended = tz.attention(q, k, v, heads=2, blocks=lengths)
            placed = tz.add_bias(attended, table, lengths)
            return tz.sum_all(tz.mul(tz.gelu(tz.mean(placed, lengths)), w))

        # Pooling 12 rows makes some gradients small enough that the default step's
        # rounding dominates their central differences; a step of 1e-4 keeps them clear.
        assert finite_diff_check(f, [q, k, v, table], step=1e-4) < GRAD_TOL

    def test_float32_gradients_stay_float32(self):
        rng = np.random.default_rng(4)
        x = tz.Tensor(data(rng, np.float32, 12, 4), requires_grad=True)
        table = tz.Tensor(data(rng, np.float32, 5, 4), requires_grad=True)
        lengths = [5, 2, 2, 3]
        tz.backward(tz.sum_all(tz.mean(tz.add_bias(tz.attention(x, x, x, heads=2, blocks=lengths),
                                                   table, lengths), lengths)))
        assert x.grad.dtype == table.grad.dtype == np.float32

    @pytest.mark.parametrize("build", [
        lambda x: tz.attention(x, x, x, heads=2, blocks=[4, 4, 3]),
        lambda x: tz.attention(x, x, x, heads=2, blocks=[6, 0, 6]),
        lambda x: tz.mean(x, [5, 5]),
        lambda x: tz.mean(x, []),
        lambda x: tz.add_bias(x, tz.Tensor(np.zeros((5, 4))), [6, 6]),
        lambda x: tz.add_bias(x, tz.Tensor(np.zeros((6, 4))), [6, 5]),
    ], ids=["attention short", "attention empty block", "mean short", "mean no blocks",
            "bias shorter than a block", "add_bias short"])
    def test_lengths_that_do_not_tile_the_rows_are_rejected(self, build):
        with pytest.raises(InvalidInput):
            build(tz.Tensor(np.ones((12, 4))))


@pytest.mark.parametrize("kind", sorted(MODELS))
class TestBatchedLoss:
    def test_loss_and_gradients_equal_the_per_example_mean(self, kind):
        model = MODELS[kind]()
        batch = make_batch(model, 4)
        params = model.parameters()
        summed = [np.zeros_like(p.data) for p in params]
        losses = []
        for i in range(len(batch.motion)):
            for p in params:
                p.grad = None
            loss = model.loss(sequence(batch, i))
            tz.backward(loss)
            losses.append(loss.item())
            for total, p in zip(summed, params):
                if p.grad is not None:
                    total += p.grad

        for p in params:
            p.grad = None
        loss = model.loss(batch)
        tz.backward(loss)
        assert loss.item() == pytest.approx(np.mean(losses), rel=BATCH_RTOL)
        for (name, p), total in zip(model.store.params.items(), summed):
            got = np.zeros_like(p.data) if p.grad is None else p.grad
            expected = total / len(batch.motion)
            gap = np.max(np.abs(got - expected), initial=0.0)
            assert gap <= BATCH_RTOL * np.max(np.abs(expected), initial=0.0), name

    def test_batched_forward_gives_each_sequence_its_own_row(self, kind):
        model = MODELS[kind]()
        batch = make_batch(model, 3, seed=1)
        if kind == "basic":
            rows = model.forward(batch.visual, batch.audio)[0].data
            alone = [model.forward(v, a)[0].data[0] for v, a in zip(batch.visual, batch.audio)]
        else:
            rows = model.forward(batch.visual, batch.audio, batch.fused)[1].data
            alone = [model.forward(v, a, f)[1].data[0]
                     for v, a, f in zip(batch.visual, batch.audio, batch.fused)]
        np.testing.assert_allclose(rows, np.stack(alone), rtol=BATCH_RTOL, atol=1e-14)

    def test_visual_and_audio_of_different_length_are_rejected(self, kind):
        model = MODELS[kind]()
        batch = make_batch(model, 2, tokens=10)
        mixed = replace(batch, audio=make_batch(model, 2, tokens=8).audio)
        with pytest.raises(InvalidInput) as err:
            model.loss(mixed)
        assert "(2, 10, " in str(err.value) and "(2, 8, " in str(err.value)
        with pytest.raises(InvalidInput):
            train_step(model, mixed, 0.1)


def test_advanced_train_step_over_12_examples_is_one_small_graph(monkeypatch):
    model = AdvancedFusionModel(seed=0)
    batch = make_batch(model, 12)
    nodes = []
    node = tz._node

    def counting(*args):
        nodes.append(1)
        return node(*args)

    monkeypatch.setattr(tz, "_node", counting)
    train_step(model, batch, 0.1)
    assert len(nodes) == 111


def test_advanced_loss_over_12_examples_keeps_one_activation_per_linear_layer():
    """What the graph of one loss holds, as numpy reports it to tracemalloc.

    It reads 47.26 MiB when each linear layer keeps only its output, and
    62.75 MiB when it also keeps the product before its bias.
    """
    model = AdvancedFusionModel(seed=0)
    batch = make_batch(model, 12)
    model.loss(batch)
    gc.collect()
    tracemalloc.start()
    try:
        loss = model.loss(batch)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.data.size == 1
    assert 40 * 2**20 < held < 50 * 2**20


def test_sgd_step_updates_in_place_with_the_old_bits():
    rng = np.random.default_rng(9)
    p = tz.Tensor(rng.normal(size=(7, 5)), requires_grad=True)
    w = tz.Tensor(rng.normal(size=(5, 3)))
    loss = tz.sum_all(tz.gelu(tz.matmul(p, w)))
    data = p.data
    before = data.copy()
    tz.sgd_step([p], loss, 0.37)
    assert p.data is data
    np.testing.assert_array_equal(p.data, before - 0.37 * p.grad)


def test_an_advanced_batch_without_event_labels_is_rejected():
    model = AdvancedFusionModel(seed=0)
    before = [p.data.copy() for p in model.parameters()]
    with pytest.raises(InvalidInput, match="no event labels"):
        train_step(model, replace(make_batch(model, 2), event=None), 0.1)
    for b, p in zip(before, model.parameters()):
        np.testing.assert_array_equal(b, p.data)


@pytest.fixture(scope="module")
def seed1_training(tmp_path_factory):
    directory = tmp_path_factory.mktemp("training-seed1")
    generate_scenario(preset_scenario("training", seed=1), directory)
    return directory


@pytest.mark.parametrize("kind, widths", [("basic", (3, 4)), ("advanced", (4, 5))])
def test_training_batch_stacks_each_span_of_window_token_rows(seed1_training, kind, widths):
    config = Config()
    config.fusion.model = kind
    batch, _, _ = build_training_sequences(seed1_training, config)
    assert batch.visual.shape == (12, 10, widths[0])
    assert batch.audio.shape == (12, 10, widths[1])
    assert batch.motion.tolist() == [1, 0] * 6
    assert batch.event.tolist() == [{3: 4, 9: 3}.get(span, 0) for span in range(12)]

    scenario, clip, windows = open_capture(seed1_training, config.vision)
    context = PipelineContext(config, scenario, clip.sample_rate)
    runs = [windows[w] for w in range(len(windows))]
    for run in runs:
        for stage in (context.analyze, context.detect, context.tokenize):
            stage(run)
    assert len(runs) == 120
    for name in ("visual_rows", "audio_rows"):
        rows = np.concatenate([getattr(run, name) for run in runs]).reshape(12, 10, -1)
        assert getattr(batch, name.removesuffix("_rows")).tobytes() == rows.tobytes()
    if kind == "basic":
        assert batch.fused is None
    else:
        assert batch.fused.shape == (12, FUSED_DIM)
        last = np.array([context.model.ensemble.embed(runs[10 * span + 9].samples[0],
                                                      clip.sample_rate)
                         for span in range(12)])
        assert batch.fused.tobytes() == last.tobytes()


def test_a_partial_last_span_is_dropped(seed1_training):
    config = Config()
    config.fusion.burst_tokens = 11
    batch, _, _ = build_training_sequences(seed1_training, config)
    assert batch.visual.shape == (10, 11, 3) and batch.audio.shape == (10, 11, 4)
    assert len(batch.motion) == len(batch.event) == 10
