import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avfuse import tensor as T
from avfuse.errors import InvalidInput
from oracles import finite_diff_check, reference_gelu_grad, scalar_attention

GRAD_TOL = 1e-4


def rand_param(rng, *shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)


class TestAttention:
    def test_single_key_returns_value_row_exactly(self):
        rng = np.random.default_rng(0)
        q = T.Tensor(rng.normal(size=(4, 3)))
        k = T.Tensor(rng.normal(size=(1, 3)))
        v = T.Tensor(rng.normal(size=(1, 5)))
        out = T.attention(q, k, v)
        for row in out.data:
            np.testing.assert_array_equal(row, v.data[0])

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        q = T.Tensor(rng.normal(size=(3, 4)))
        k = T.Tensor(np.tile(rng.normal(size=(1, 4)), (6, 1)))
        v = T.Tensor(rng.normal(size=(6, 2)))
        out = T.attention(q, k, v)
        weights = T.attention_weights(q, k)
        np.testing.assert_allclose(weights.data, 1.0 / 6.0, atol=1e-15)
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-14)

    def test_matches_scalar_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 2))
        out = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v))
        np.testing.assert_allclose(out.data, scalar_attention(q, k, v), atol=1e-10)

    def test_weight_rows_sum_to_one_on_random_shapes(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n, m, d = rng.integers(1, 9, size=3)
            q = T.Tensor(rng.normal(scale=5.0, size=(n, d)))
            k = T.Tensor(rng.normal(scale=5.0, size=(m, d)))
            sums = T.attention_weights(q, k).data.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_shape_mismatch_reports_shapes(self):
        with pytest.raises(InvalidInput) as err:
            T.attention(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))), T.Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
        with pytest.raises(InvalidInput):
            T.attention(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 3))), T.Tensor(np.zeros((5, 2))))


class TestBackwardBytes:
    """In-place and shared backward steps give the bits of the plain expressions."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (32, 1024), (384, 256)])
    def test_gelu_gradient_equals_the_fresh_array_oracle(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.normal(scale=3.0, size=shape)
        g = rng.normal(size=shape)
        (grad,) = T.gelu(T.Tensor(x, requires_grad=True))._grad_fns
        assert grad(g).tobytes() == reference_gelu_grad(x, g).tobytes()

    def test_attention_query_and_key_gradients_equal_separate_calls(self):
        rng = np.random.default_rng(1)
        q, k, v = (T.Tensor(rng.normal(size=(12, 8)), requires_grad=True) for _ in range(3))
        node = T.attention(q, k, v, heads=2, blocks=3)
        g = rng.normal(size=node.shape)
        shared = [fn(g) for fn in node._grad_fns]
        alone = [fn(g.copy()) for fn in node._grad_fns]
        for a, b in zip(shared, alone):
            assert a.tobytes() == b.tobytes()


class TestLinear:
    """``linear`` is one operation with the bits of ``add_bias(matmul(x, w), b)``."""

    @staticmethod
    def layer(rng, rows, dtype):
        return (T.Tensor(rng.normal(size=(rows, 6)).astype(dtype), requires_grad=True),
                T.Tensor(rng.normal(size=(6, 5)).astype(dtype), requires_grad=True),
                T.Tensor(rng.normal(size=(1, 5)).astype(dtype), requires_grad=True))

    @pytest.mark.parametrize("rows", [1, 37])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_output_and_gradients_equal_the_pair(self, rows, dtype):
        results = []
        for fused in (True, False):
            rng = np.random.default_rng(rows)
            x, w, b = self.layer(rng, rows, dtype)
            upstream = T.Tensor(rng.normal(size=(rows, 5)).astype(dtype))
            out = T.linear(x, (w, b)) if fused else T.add_bias(T.matmul(x, w), b)
            T.backward(T.sum_all(T.mul(out, upstream)))
            results.append([t.tobytes() for t in (out.data, x.grad, w.grad, b.grad)])
            assert {out.data.dtype, x.grad.dtype, w.grad.dtype, b.grad.dtype} == {np.dtype(dtype)}
        assert results[0] == results[1]

    def test_writes_into_none_of_its_inputs(self):
        x, w, b = self.layer(np.random.default_rng(3), 4, np.float64)
        before = [t.data.copy() for t in (x, w, b)]
        out = T.linear(x, (w, b))
        T.backward(T.sum_all(out))
        for t, data in zip((x, w, b), before):
            assert t.data.tobytes() == data.tobytes()
            assert not np.shares_memory(t.data, out.data)

    def test_records_one_node_and_none_under_inference(self, monkeypatch):
        x, w, b = self.layer(np.random.default_rng(4), 4, np.float64)
        nodes = []
        node = T._node

        def counting(*args):
            nodes.append(args)
            return node(*args)

        monkeypatch.setattr(T, "_node", counting)
        out = T.linear(x, (w, b))
        assert len(nodes) == 1 and out._parents == (x, w, b)
        with T.inference():
            out = T.linear(x, (w, b))
        assert len(nodes) == 2 and out._parents == () and out._grad_fns == ()

    def test_shape_errors_keep_the_pair_messages(self):
        x, w, b = self.layer(np.random.default_rng(5), 4, np.float64)
        with pytest.raises(InvalidInput, match=r"matmul: inner dims disagree, \(4, 6\) @ \(5, 5\)"):
            T.linear(x, (T.Tensor(np.ones((5, 5))), b))
        with pytest.raises(InvalidInput,
                           match=r"add_bias: bias shape \(1, 4\) does not broadcast onto \(4, 5\)"):
            T.linear(x, (w, T.Tensor(np.ones((1, 4)))))


class TestSoftmax:
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (4, 6), elements=st.floats(-200, 200)))
    def test_rows_sum_to_one(self, data):
        out = T.softmax(T.Tensor(data))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_extreme_values_stay_finite(self):
        out = T.softmax(T.Tensor(np.array([[1e4, -1e4, 0.0]])))
        assert np.all(np.isfinite(out.data))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = rand_param(np.random.default_rng(0), 3, 4)
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_scalar_product_gradients(self):
        x = T.Tensor([[3.0]], requires_grad=True)
        y = T.Tensor([[-2.0]], requires_grad=True)
        T.backward(T.mul(x, y))
        assert x.grad[0, 0] == -2.0
        assert y.grad[0, 0] == 3.0

    def test_non_ancestor_gradient_stays_zero(self):
        x = T.Tensor([[1.0, 2.0]], requires_grad=True)
        y = T.Tensor([[5.0, 6.0]], requires_grad=True)
        T.backward(T.sum_all(T.scale(x, 2.0)))
        assert x.grad is not None
        assert y.grad is None  # None reads as zero

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(InvalidInput):
            T.backward(T.scale(x, 1.0))

    def test_double_backward_is_an_error(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        loss = T.sum_all(x)
        T.backward(loss)
        with pytest.raises(RuntimeError):
            T.backward(loss)

    def test_shared_subexpression_accumulates_once_per_use(self):
        x = T.Tensor([[2.0]], requires_grad=True)
        y = T.mul(x, x)  # d/dx x^2 = 2x
        T.backward(T.sum_all(y))
        assert x.grad[0, 0] == pytest.approx(4.0)

    def test_attention_block_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        q = rand_param(rng, 3, 4)
        k = rand_param(rng, 5, 4)
        v = rand_param(rng, 5, 2)

        def f():
            return T.sum_all(T.attention(q, k, v))

        assert finite_diff_check(f, [q, k, v], step=1e-5) < GRAD_TOL


def primitive_cases(rng):
    """One differentiable closure per primitive, random shapes each call."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    d = int(rng.integers(2, 6))

    a = rand_param(rng, n, d)
    b = rand_param(rng, n, d)
    w = rand_param(rng, d, m)
    head = rand_param(rng, d, d)
    bias = rand_param(rng, 1, d)
    gain = rand_param(rng, 1, d)
    labels = rng.integers(0, d, size=n)

    yield "matmul", (lambda: T.sum_all(T.matmul(a, w))), [a, w]
    yield "add", (lambda: T.sum_all(T.mul(T.add(a, b), b))), [a, b]
    yield "sub", (lambda: T.sum_all(T.mul(T.sub(a, b), a))), [a, b]
    yield "mul", (lambda: T.sum_all(T.mul(a, b))), [a, b]
    yield "scale", (lambda: T.sum_all(T.scale(a, 0.7))), [a]
    yield "add_bias", (lambda: T.sum_all(T.gelu(T.add_bias(a, bias)))), [a, bias]
    yield "linear", (lambda: T.sum_all(T.gelu(T.linear(a, (head, bias))))), [a, head, bias]
    yield "transpose", (lambda: T.sum_all(T.mul(T.transpose(a), T.transpose(b)))), [a, b]
    yield "softmax", (lambda: T.sum_all(T.mul(T.softmax(a), b))), [a, b]
    yield "layer_norm", (lambda: T.sum_all(T.mul(T.layer_norm(a, gain, bias), b))), [a, gain, bias, b]
    yield "gelu", (lambda: T.sum_all(T.gelu(a))), [a]
    yield "mean", (lambda: T.sum_all(T.mul(T.mean(a, 1), bias))), [a, bias]
    yield "concat", (lambda: T.sum_all(T.mul(T.concat([a, b]), T.concat([b, a])))), [a, b]
    yield "slice_cols", (lambda: T.sum_all(T.slice_cols(a, 0, max(1, d // 2)))), [a]
    yield "cross_entropy", (lambda: T.cross_entropy(T.matmul(a, head), labels)), [a, head]


class TestFiniteDiffCheck:
    def test_linear_function_near_exact(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        err = finite_diff_check(lambda: T.sum_all(T.scale(x, 3.0)), [x])
        assert err < 1e-8

    def test_layernorm_gelu_composite(self):
        rng = np.random.default_rng(11)
        x = rand_param(rng, 4, 6)
        gain = rand_param(rng, 1, 6)
        bias = rand_param(rng, 1, 6)

        def f():
            return T.sum_all(T.gelu(T.layer_norm(x, gain, bias)))

        assert finite_diff_check(f, [x, gain, bias]) < GRAD_TOL

    def test_softmax_cross_entropy_head(self):
        rng = np.random.default_rng(12)
        x = rand_param(rng, 5, 4)
        w = rand_param(rng, 4, 3)
        labels = rng.integers(0, 3, size=5)

        def f():
            return T.cross_entropy(T.matmul(x, w), labels)

        assert finite_diff_check(f, [x, w]) < GRAD_TOL

    def test_every_primitive_over_100_random_shapes(self):
        rng = np.random.default_rng(2024)
        configs = 0
        while configs < 105:
            for name, f, params in primitive_cases(rng):
                for p in params:
                    p.grad = None
                err = finite_diff_check(f, params, seed=configs)
                assert err < GRAD_TOL, f"{name}: finite-difference error {err}"
                configs += 1


class TestParameterFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        tensors = {
            "proj.weight": rng.normal(size=(4, 7)),
            "proj.bias": rng.normal(size=(1, 7)),
            "norm": rng.normal(size=(2, 2)),
        }
        path = tmp_path / "params.bin"
        T.save_tensors(path, tensors)
        loaded = T.load_tensors(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InvalidInput):
            T.load_tensors(path)
