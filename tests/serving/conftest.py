"""Shared fixtures for the serving-subsystem tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.codecs import SmartExchangeCodec, get_codec
from repro.core import SmartExchangeConfig, apply_smartexchange
from repro.serving import ArtifactStore

FAST = SmartExchangeConfig(max_iterations=5, target_row_sparsity=0.5)


def build_model(seed: int = 0) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(8, 4, rng=rng),
    )


def build_mixed_model(seed: int = 0) -> nn.Module:
    """Two convs and a head: big enough that a 0.6 dense budget cannot
    hold the second conv."""
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1, bias=False, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1, bias=False, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(32, 10, rng=rng),
    )


def publish_mixed(store, model, name, config=FAST):
    """Publish ``model`` with smartexchange convs (slow to rebuild) and
    quant-linear linears (fast): a bundle a cost model can tell apart."""
    se, ql = SmartExchangeCodec(config), get_codec("quant-linear")
    payloads = {}
    for layer, module in model.named_modules():
        if isinstance(module, nn.Conv2d):
            payloads[layer] = se.encode(module.weight.data)
        elif isinstance(module, nn.Linear):
            payloads[layer] = ql.encode(module.weight.data)
    return store.publish_payloads(payloads, name=name, model=model)


@pytest.fixture
def compressed_model():
    """(model, report, config) for a small transformed CNN."""
    model = build_model(seed=0)
    _, report = apply_smartexchange(model, FAST, model_name="demo")
    return model, report, FAST


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "artifacts")


@pytest.fixture
def published(store, compressed_model):
    """(store, manifest, model, report, config) with one bundle."""
    model, report, config = compressed_model
    manifest = store.publish(report, config, model=model)
    return store, manifest, model, report, config
