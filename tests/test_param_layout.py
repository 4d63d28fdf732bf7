"""The default models keep their parameter layout and seeded values.

Names, shapes and creation order fix the tensor order in a saved file, and
creation order fixes which draws of the seeded generator each tensor gets.
A refactor of how a model builds or holds its blocks must keep all three.
The digests were taken from the models as first laid out.
"""

import hashlib

import pytest

from avfuse.anomaly import DenseAutoencoder
from avfuse.fusion import AdvancedFusionModel, BasicFusionModel

PINNED = {
    "basic": (36, "cc30b40b52bafec1535695234bde3f6768905f8c2a680a4477eeee82343debe4",
              "98adfdcedd269406a52b434e6b921ffe555afc28b28cdf3435c86933b80aa000"),
    "advanced": (132, "5414dbb9ebd9805daa1bf7e18b1945a205b847b93f6787afbb2797360ba02091",
                 "777258aa338d67a5a1a23d82daf7a9185e0e46b83cd546e992225f6e881f4040"),
    "autoencoder": (4, "5be44c08d16d77fa4881c1d48346b4db11ab865a156bf83a71eac39a09845cd1",
                    "de718b1577b5193ff61755bdb2ce5e5d40ee4739c7a810735a74546d60f61ca2"),
}

PARAMS = {
    "basic": lambda: BasicFusionModel(seed=0).store.params,
    "advanced": lambda: AdvancedFusionModel(seed=0).store.params,
    "autoencoder": lambda: DenseAutoencoder(seed=0).params,
}


def layout_digests(params):
    """(count, SHA-256 of the ordered names and shapes, SHA-256 of the values)."""
    layout, values = hashlib.sha256(), hashlib.sha256()
    for name, tensor in params.items():
        layout.update(f"{name} {tensor.data.shape}\n".encode())
        values.update(tensor.data.astype("<f8").tobytes())
    return len(params), layout.hexdigest(), values.hexdigest()


@pytest.mark.parametrize("model", sorted(PINNED))
def test_default_model_keeps_names_shapes_and_seeded_values(model):
    count, layout, values = layout_digests(PARAMS[model]())
    pinned_count, pinned_layout, pinned_values = PINNED[model]
    assert count == pinned_count
    assert layout == pinned_layout, "names, shapes or their order changed"
    assert values == pinned_values, "seeded values changed: creation order or draws moved"
