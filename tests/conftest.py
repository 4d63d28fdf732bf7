"""Fixtures shared across test modules."""

import pytest

from avfuse import tensor as tz
from oracles import identity_value_weights


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
