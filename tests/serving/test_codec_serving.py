"""One serving pipeline, many codecs: publish and serve every encoding.

The acceptance bar for the codec redesign: bundles published under at
least four distinct codecs (including ``dense`` and ``smartexchange``)
serve through both the offline ``predict`` path and the online
worker-pool path, with ``ServingStats`` reporting each bundle's
storage-vs-compute trade.
"""

import numpy as np
import pytest

from repro import nn
from repro.compression import (
    FP8Quantizer,
    LinearQuantizer,
    MagnitudePruner,
    Pow2Quantizer,
)
from repro.core import apply_smartexchange
from repro.serving import (
    ADMISSION_POLICIES,
    ArtifactStore,
    CostAwareBatchPolicy,
    InferenceEngine,
    ModelRegistry,
    StaticBatchPolicy,
)

from tests.serving.conftest import FAST, build_model


def publish_all(store: ArtifactStore):
    """One bundle per codec; returns {bundle name: mutated model}."""
    models = {}

    model = build_model(seed=0)
    _, report = apply_smartexchange(model, FAST, model_name="m-se")
    store.publish(report, FAST, model=model)
    models["m-se"] = model

    model = build_model(seed=0)
    store.publish_model(model, name="m-dense", codec="dense")
    models["m-dense"] = model

    for bundle, compressor in [
        ("m-quant", LinearQuantizer(8)),
        ("m-prune", MagnitudePruner(0.6)),
        ("m-pow2", Pow2Quantizer(4)),
        ("m-fp8", FP8Quantizer()),
    ]:
        model = build_model(seed=0)
        report = compressor.compress(model, bundle)
        store.publish_compressed(report, model=model)
        models[bundle] = model
    return models


EXPECTED_CODECS = {
    "m-se": "smartexchange",
    "m-dense": "dense",
    "m-quant": "quant-linear",
    "m-prune": "prune-csr",
    "m-pow2": "quant-pow2",
    "m-fp8": "quant-fp8",
}


@pytest.fixture(scope="module")
def codec_zoo(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("codec-zoo"))
    models = publish_all(store)
    return store, models


def direct_prediction(model: nn.Module, batch: np.ndarray) -> np.ndarray:
    model.eval()
    output = model(batch)
    return np.asarray(output.data if isinstance(output, nn.Tensor) else output)


class TestCodecZoo:
    def test_covers_at_least_four_codecs(self, codec_zoo):
        store, _ = codec_zoo
        codecs = {store.manifest(name).codec for name in store.models()}
        assert {"dense", "smartexchange"} <= codecs
        assert len(codecs) >= 4

    def test_manifests_record_their_codec(self, codec_zoo):
        store, _ = codec_zoo
        for bundle, codec in EXPECTED_CODECS.items():
            manifest = store.manifest(bundle)
            assert manifest.codec == codec
            assert all(spec.codec == codec for spec in manifest.layers)

    @pytest.mark.parametrize("bundle", sorted(EXPECTED_CODECS))
    def test_offline_predictions_match_compressed_model(self, codec_zoo, bundle):
        store, models = codec_zoo
        engine = InferenceEngine(
            build_model(seed=7), ModelRegistry(store).get(bundle)
        )
        batch = np.random.default_rng(1).normal(size=(4, 3, 8, 8))
        served = engine.predict(batch)
        direct = direct_prediction(models[bundle], batch)
        # The engine serves exactly what the (mutated) compressed model
        # computes; smartexchange additionally pays its 8-bit basis
        # quantization, every other codec stores its snap losslessly.
        atol = 5e-2 if bundle == "m-se" else 1e-5
        np.testing.assert_allclose(served, direct, atol=atol)

    @pytest.mark.parametrize("bundle", sorted(EXPECTED_CODECS))
    def test_online_pool_matches_offline(self, codec_zoo, bundle):
        store, _ = codec_zoo
        engine = InferenceEngine(
            build_model(seed=7),
            ModelRegistry(store).get(bundle),
            policy=StaticBatchPolicy(max_batch_size=4, max_wait_s=0.001),
        )
        samples = list(np.random.default_rng(2).normal(size=(6, 3, 8, 8)))
        offline = engine.predict_many(samples)
        engine.start(workers=2)
        try:
            tickets = [engine.submit(sample) for sample in samples]
            online = [t.result(timeout=30.0) for t in tickets]
        finally:
            engine.stop()
        np.testing.assert_allclose(
            np.stack(online), np.stack(offline), rtol=0, atol=1e-12
        )

    def test_stats_report_per_codec_trade(self, codec_zoo):
        store, _ = codec_zoo
        batch = np.random.default_rng(3).normal(size=(2, 3, 8, 8))
        trades = {}
        for bundle in EXPECTED_CODECS:
            engine = InferenceEngine(
                build_model(seed=7), ModelRegistry(store).get(bundle)
            )
            engine.predict(batch)
            summary = engine.summary()
            assert summary["codec"] == EXPECTED_CODECS[bundle]
            assert summary["rebuild_rebuilds"] > 0
            assert summary["rebuilt_bytes_per_request"] > 0
            trades[bundle] = summary
        # dense is the no-trade baseline: full payload bytes, nothing
        # saved; every compressing codec stores strictly less.
        assert trades["m-dense"]["bundle_bytes_saved"] == 0
        for bundle in EXPECTED_CODECS:
            if bundle == "m-dense":
                continue
            assert trades[bundle]["bundle_payload_bytes"] < (
                trades["m-dense"]["bundle_payload_bytes"]
            )
            assert trades[bundle]["bundle_bytes_saved"] > 0

    @pytest.mark.parametrize("admission", sorted(ADMISSION_POLICIES))
    @pytest.mark.parametrize("bundle", sorted(EXPECTED_CODECS))
    def test_every_codec_serves_under_every_policy(
        self, codec_zoo, bundle, admission
    ):
        """The policy matrix: 6 codecs x 3 admission x 2 batch policies.

        A capacity-bounded cache (forcing real eviction/rejection
        decisions) must not change served outputs — offline under the
        static batch policy, online worker-pool under the cost-aware
        batch policy.
        """
        store, _ = codec_zoo
        registry = ModelRegistry(store)
        handle = registry.get(bundle)
        total = handle.total_dense_bytes
        samples = list(np.random.default_rng(5).normal(size=(6, 3, 8, 8)))
        reference = np.stack(
            InferenceEngine(build_model(seed=7), handle).predict_many(samples)
        )

        offline = InferenceEngine(
            build_model(seed=7),
            handle,
            policy=StaticBatchPolicy(max_batch_size=4, max_wait_s=0.001),
            cache_bytes=int(total * 0.6),
            admission=admission,
            cost_model=registry.cost_model,
        )
        np.testing.assert_allclose(
            np.stack(offline.predict_many(samples)), reference, atol=1e-12
        )
        assert offline.summary()["rebuild_policy"] == admission
        assert offline.summary()["batch_policy"] == "static"

        online = InferenceEngine(
            build_model(seed=7),
            handle,
            policy=CostAwareBatchPolicy(max_batch_size=4, max_wait_s=0.01),
            cache_bytes=int(total * 0.6),
            admission=admission,
            cost_model=registry.cost_model,
        )
        online.start(workers=2)
        try:
            tickets = [online.submit(sample) for sample in samples]
            rows = [t.result(timeout=30.0) for t in tickets]
        finally:
            online.stop()
        np.testing.assert_allclose(np.stack(rows), reference, atol=1e-12)
        summary = online.summary()
        assert summary["batch_policy"] == "cost-aware"
        assert "cost-aware" in summary["per_policy"]

    def test_lazy_loads_only_touched_layers(self, codec_zoo):
        store, _ = codec_zoo
        payloads = store.load_payloads("m-quant")
        assert payloads.loaded_layers == []
        names = sorted(payloads)
        first = names[0]
        payloads[first]
        assert payloads.loaded_layers == [first]
        # Materializing pulls the rest.
        assert set(payloads.materialize()) == set(names)
        assert payloads.loaded_layers == names
