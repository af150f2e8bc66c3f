"""Backward compat: pre-codec (format-1) bundles still load and serve.

The checked-in fixture under ``fixtures/legacy/`` was written the way
PR 1/2 published bundles — a format-1 manifest with no ``codec`` keys
and the SmartExchange-only ``core.serialize`` weights layout.  The
codec redesign must keep serving it unchanged (regenerate the fixture
with ``fixtures/make_legacy_bundle.py`` only if the fixture model
itself changes).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.codecs import LayerPayload, payload_matrix_count
from repro.serving import ArtifactStore, InferenceEngine, ModelRegistry
from repro.serving.artifacts import DEFAULT_CODEC

from tests.serving.conftest import build_model

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "legacy"
MODEL = "legacy-cnn"


@pytest.fixture
def legacy_store() -> ArtifactStore:
    return ArtifactStore(FIXTURES)


class TestLegacyManifest:
    def test_fixture_really_predates_the_codec_field(self):
        raw = json.loads(
            (FIXTURES / MODEL / "v1" / "manifest.json").read_text()
        )
        assert raw["format"] == 1
        assert "codec" not in raw
        assert all("codec" not in layer for layer in raw["layers"])

    def test_missing_codec_defaults_to_smartexchange(self, legacy_store):
        manifest = legacy_store.manifest(MODEL)
        assert manifest.codec == DEFAULT_CODEC == "smartexchange"
        for spec in manifest.layers:
            assert spec.codec == "smartexchange"
            assert spec.plan is not None

    def test_checksums_still_verify(self, legacy_store):
        legacy_store.verify(MODEL)


class TestLegacyServing:
    def test_payloads_adapt_to_layer_payloads(self, legacy_store):
        payloads = legacy_store.load_payloads(MODEL)
        manifest = legacy_store.manifest(MODEL)
        assert set(payloads) == {spec.name for spec in manifest.layers}
        for spec in manifest.layers:
            payload = payloads[spec.name]
            assert isinstance(payload, LayerPayload)
            assert payload.codec == "smartexchange"
            assert payload_matrix_count(payload) == spec.matrix_count

    def test_legacy_bundle_serves_end_to_end(self, legacy_store):
        registry = ModelRegistry(legacy_store)
        handle = registry.get(MODEL)
        engine = InferenceEngine(build_model(seed=3), handle)
        batch = np.random.default_rng(0).normal(size=(4, 3, 8, 8))
        offline = engine.predict(batch)
        assert offline.shape == (4, 4)
        assert np.isfinite(offline).all()
        # ... and through the online worker pool.
        engine.start(workers=2)
        try:
            tickets = [engine.submit(sample) for sample in batch]
            online = np.stack([t.result(timeout=30.0) for t in tickets])
        finally:
            engine.stop()
        np.testing.assert_allclose(online, offline, rtol=0, atol=1e-12)
        summary = engine.summary()
        assert summary["codec"] == "smartexchange"
        assert summary["bundle_bytes_saved"] > 0

    def test_rebuilt_weights_match_fresh_decompression(self, legacy_store):
        """The fixture's stored weights decode to what compressing the
        same seeded model today produces (up to basis quantization)."""
        from repro.core import apply_smartexchange
        from repro.serving import rebuild_layer_weight

        from tests.serving.conftest import FAST

        model = build_model(seed=0)
        _, report = apply_smartexchange(model, FAST, model_name=MODEL)
        manifest = legacy_store.manifest(MODEL)
        payloads = legacy_store.load_payloads(MODEL)
        modules = dict(model.named_modules())
        for spec in manifest.layers:
            rebuilt = rebuild_layer_weight(payloads[spec.name], spec)
            installed = modules[spec.name].weight.data
            scale = max(np.abs(installed).max(), 1e-9)
            assert np.abs(rebuilt - installed).max() < 0.02 * scale + 1e-6
