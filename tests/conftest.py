"""Fixtures shared across test modules."""

import pytest

from avfuse import tensor as tz
from avfuse.scenario import generate_scenario, preset_scenario
from oracles import identity_value_weights


def _preset_capture(tmp_path_factory, preset: str):
    directory = tmp_path_factory.mktemp(preset)
    generate_scenario(preset_scenario(preset, seed=0), directory)
    return directory


# One rendering per preset, shared by every module: a test that changes a
# capture copies it first.
@pytest.fixture(scope="session")
def canonical_capture(tmp_path_factory):
    return _preset_capture(tmp_path_factory, "canonical")


@pytest.fixture(scope="session")
def injection_capture(tmp_path_factory):
    return _preset_capture(tmp_path_factory, "injection")


@pytest.fixture(scope="session")
def training_capture(tmp_path_factory):
    return _preset_capture(tmp_path_factory, "training")


@pytest.fixture
def attention_weights(monkeypatch):
    """Each head's weight matrix of every :func:`tensor.attention` call the test makes, in order."""
    recorded = []
    kernel = tz.attention

    def recording(q, k, v, heads=1, blocks=1):
        recorded.extend(identity_value_weights(kernel, q, k, heads, blocks))
        return kernel(q, k, v, heads, blocks)

    monkeypatch.setattr(tz, "attention", recording)
    return recorded
