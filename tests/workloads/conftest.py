"""Shared fixtures for the workload-harness tests.

The sweeps need a *mixed* bundle (smartexchange convs + quant-linear
head) so a cost-aware admission policy has something to exploit; the
bundle is published once per module because the smartexchange encode
dominates fixture time.
"""

from __future__ import annotations

import pytest

from repro.core import SmartExchangeConfig
from repro.serving import ArtifactStore, ModelRegistry

from tests.serving.conftest import build_mixed_model, publish_mixed

MODEL_NAME = "cnn"


@pytest.fixture(scope="module")
def mixed_registry(tmp_path_factory) -> ModelRegistry:
    store = ArtifactStore(tmp_path_factory.mktemp("harness") / "artifacts")
    config = SmartExchangeConfig(max_iterations=4, target_row_sparsity=0.5)
    publish_mixed(store, build_mixed_model(seed=0), MODEL_NAME, config=config)
    return ModelRegistry(store)
