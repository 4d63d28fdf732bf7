"""Parameter files are read and written one tensor at a time, and ``run`` reads its model as
float32: the memory a load or a save takes, the checks before any allocation, and the
float32 read against the float64 load plus cast."""

import struct
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from avfuse import tensor as tz
from avfuse.errors import InvalidInput
from avfuse.fusion import AdvancedFusionModel, TokenNormalizer, load_model, save_model

MiB = 2**20


def normalizer(model, seed=3):
    """A fitted-looking normalizer, so a float32 round of it would show."""
    rng = np.random.default_rng(seed)
    v, a = model.config.visual_features, model.config.audio_features
    return TokenNormalizer(rng.normal(size=v), rng.uniform(0.1, 3.0, size=v),
                           rng.normal(size=a), rng.uniform(0.1, 3.0, size=a))


@pytest.fixture(scope="module")
def advanced_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("advanced") / "fusion.bin"
    model = AdvancedFusionModel(seed=0)
    save_model(path, model, normalizer(model))
    return path


@contextmanager
def tracing():
    """Trace allocations in the block, numpy's buffers included; yields the (now, peak) reader."""
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory
    finally:
        tracemalloc.stop()


def first_dim_offset(path) -> int:
    """Byte offset of the first tensor's first dim: header, name length, name, rank."""
    (name_len,) = struct.unpack_from("<I", path.read_bytes(), 12)
    return 12 + 4 + name_len + 4


class TestStreamedMemory:
    def test_advanced_load_holds_about_one_file(self, advanced_file):
        with tracing() as traced:
            load_model(advanced_file)
            peak = traced()[1]
        assert peak <= 1.1 * advanced_file.stat().st_size

    def test_float32_load_holds_about_half_a_file(self, advanced_file):
        with tracing() as traced:
            load_model(advanced_file, np.float32)
            peak = traced()[1]
        assert peak <= 0.6 * advanced_file.stat().st_size

    def test_save_builds_no_file_sized_buffer(self, advanced_file, tmp_path):
        bundle = load_model(advanced_file)
        again = tmp_path / "fusion.bin"
        with tracing() as traced:
            save_model(again, *bundle)
            peak = traced()[1]
        assert peak <= 0.05 * advanced_file.stat().st_size
        assert again.read_bytes() == advanced_file.read_bytes()


class TestDeclaredSizes:
    @pytest.mark.parametrize("dim", [2**32 - 1, 2**20], ids=["2**32 - 1", "2**20"])
    def test_dims_beyond_the_file_are_rejected_before_allocating(self, advanced_file,
                                                                  tmp_path, dim):
        data = bytearray(advanced_file.read_bytes())
        struct.pack_into("<I", data, first_dim_offset(advanced_file), dim)
        bad = tmp_path / "fusion.bin"
        bad.write_bytes(bytes(data))
        with tracing() as traced:
            with pytest.raises(InvalidInput) as err:
                tz.load_tensors(bad)
            peak = traced()[1]
        assert str(err.value).startswith(f"{bad}: truncated or corrupt parameter file")
        assert peak < MiB

    def test_rank_beyond_the_file_is_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        tz.save_tensors(path, {"w": np.ones((2, 3))})
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, first_dim_offset(path) - 4, 2**32 - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidInput, match=f"{path}: truncated or corrupt parameter file"):
            tz.load_tensors(path)

    @pytest.mark.parametrize("cut", [0, 7, 11], ids=["empty", "7 bytes", "11 bytes"])
    def test_short_header_is_not_a_parameter_file(self, tmp_path, cut):
        path = tmp_path / "params.bin"
        tz.save_tensors(path, {"w": np.ones((2, 3))})
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(InvalidInput, match=f"{path}: not a parameter file"):
            tz.load_tensors(path)

    def test_every_shape_round_trips(self, tmp_path):
        tensors = {"scalar": np.array(2.5), "empty": np.zeros((0, 3)), "row": np.arange(4.0),
                   "strided": np.arange(12.0).reshape(3, 4)[:, ::2],
                   "float32": np.ones((2, 2), np.float32)}
        path = tmp_path / "params.bin"
        tz.save_tensors(path, tensors)
        loaded = tz.load_tensors(path)
        for name, array in tensors.items():
            assert loaded[name].dtype == np.float64 and loaded[name].shape == array.shape
            np.testing.assert_array_equal(loaded[name], array)


class TestFloat32Read:
    def test_bit_equal_to_load_then_cast(self, advanced_file):
        reference, ref_norm = load_model(advanced_file)
        reference.cast_to_float32()
        model, norm = load_model(advanced_file, np.float32)
        assert model.config == reference.config
        assert list(model.store.params) == list(reference.store.params)
        for name, tensor in model.store.params.items():
            assert tensor.data.dtype == np.float32, name
            assert tensor.data.tobytes() == reference.store.params[name].data.tobytes(), name
        for name, array in norm.state().items():
            assert array.dtype == np.float64, name
            assert array.tobytes() == ref_norm.state()[name].tobytes(), name

    def test_cast_leaves_a_float32_read_in_place(self, advanced_file):
        model, _ = load_model(advanced_file, np.float32)
        before = {name: tensor.data for name, tensor in model.store.params.items()}
        model.cast_to_float32()
        assert all(tensor.data is before[name] for name, tensor in model.store.params.items())

    @pytest.mark.parametrize("value, problem", [
        (1e39, "proj.audio.weight: value 1e+39 overflows float32"),
        (np.nan, "proj.audio.weight: tensor data must be finite"),
        (-np.inf, "proj.audio.weight: tensor data must be finite"),
    ], ids=["1e39", "nan", "-inf"])
    def test_bad_weight_names_file_and_tensor(self, advanced_file, tmp_path, value, problem):
        state = tz.load_tensors(advanced_file)
        state["proj.audio.weight"][1, 2] = value
        path = tmp_path / "fusion.bin"
        tz.save_tensors(path, state)
        with pytest.raises(InvalidInput) as err:
            load_model(path, np.float32)
        assert str(err.value) == f"{path}: {problem}"
