"""Artifact store: bundles, manifests, checksums, and round-trips."""

import json

import numpy as np
import pytest

from repro.core.reshape import from_matrices
from repro.core.serialize import decomposition_payload, payload_weight
from repro.serving import (
    ArtifactCorruptionError,
    ArtifactError,
    ArtifactNotFoundError,
    ArtifactStore,
    rebuild_layer_weight,
)
from repro.serving.artifacts import MANIFEST_FILE, RESIDUAL_FILE, WEIGHTS_FILE

from tests.serving.conftest import FAST, build_model


class TestPublish:
    def test_bundle_layout(self, published, tmp_path):
        store, manifest, *_ = published
        bundle = store.root / manifest.name / manifest.version
        assert (bundle / MANIFEST_FILE).is_file()
        assert (bundle / WEIGHTS_FILE).is_file()
        assert (bundle / RESIDUAL_FILE).is_file()

    def test_manifest_accounting(self, published):
        _, manifest, _, report, _ = published
        assert manifest.payload_bytes == pytest.approx(
            report.storage.total_bits / 8, rel=0.15
        )
        assert manifest.dense_bytes == sum(
            spec.dense_bytes for spec in manifest.layers
        )
        assert manifest.bytes_saved > 0
        assert manifest.compression_rate == pytest.approx(
            report.compression_rate
        )

    def test_auto_versioning(self, store, compressed_model):
        model, report, config = compressed_model
        first = store.publish(report, config)
        second = store.publish(report, config)
        assert (first.version, second.version) == ("v1", "v2")
        assert store.latest_version(report.model_name) == "v2"

    def test_duplicate_version_rejected(self, store, compressed_model):
        model, report, config = compressed_model
        store.publish(report, config, version="v1")
        with pytest.raises(ArtifactError, match="already exists"):
            store.publish(report, config, version="v1")

    def test_listing(self, published):
        store, manifest, *_ = published
        assert store.models() == [manifest.name]
        assert store.versions(manifest.name) == [manifest.version]

    def test_missing_model_raises(self, store):
        with pytest.raises(ArtifactNotFoundError):
            store.latest_version("nope")
        with pytest.raises(ArtifactNotFoundError):
            store.manifest("nope")

    def test_failed_publish_leaves_no_bundle(self, store, compressed_model):
        """A mid-publish crash must not wedge auto-versioning."""
        model, report, config = compressed_model
        import repro.serving.artifacts as artifacts_mod

        original = artifacts_mod.write_payloads_npz

        def explode(*args, **kwargs):
            raise OSError("disk full")

        artifacts_mod.write_payloads_npz = explode
        try:
            with pytest.raises(OSError):
                store.publish(report, config)
        finally:
            artifacts_mod.write_payloads_npz = original
        assert store.versions(report.model_name) == []
        model_dir = store.root / report.model_name
        assert not model_dir.exists() or not any(model_dir.iterdir())
        # The next publish reuses v1 cleanly.
        assert store.publish(report, config).version == "v1"

    def test_unverified_load_skips_hash_pass(self, published, monkeypatch):
        store, manifest, *_ = published
        import repro.serving.artifacts as artifacts_mod

        calls = []
        monkeypatch.setattr(
            artifacts_mod,
            "_sha256",
            lambda path: calls.append(path) or "not-a-real-hash",
        )
        # verify=False never hashes; the default path does (and trips
        # on the stubbed hash).
        payloads = store.load_payloads(manifest.name, verify=False)
        assert calls == [] and payloads
        with pytest.raises(ArtifactCorruptionError):
            store.load_payloads(manifest.name)


class TestManifestRoundTrip:
    def test_json_round_trip(self, published):
        store, manifest, *_ = published
        reloaded = store.manifest(manifest.name, manifest.version)
        assert reloaded.to_json() == manifest.to_json()

    def test_layer_specs_cover_report(self, published):
        _, manifest, _, report, _ = published
        assert {spec.name for spec in manifest.layers} == {
            layer.name for layer in report.layers
        }
        for layer in report.layers:
            spec = manifest.layer(layer.name)
            assert spec.matrix_count == len(layer.decompositions)


class TestSerializeRoundTripThroughStore:
    """Satellite: save -> load -> rebuilt dense weights, plus corruption."""

    def test_rebuilt_weights_bitwise_equal_to_serialized_form(self, published):
        store, manifest, _, report, config = published
        payloads = store.load_payloads(manifest.name)
        for layer in report.layers:
            spec = manifest.layer(layer.name)
            payload = payloads[layer.name]
            rebuilt = rebuild_layer_weight(payload, spec)
            # Bitwise-identical to decoding each decomposition's own
            # DRAM image by hand and reassembling the layer ...
            matrices = [
                payload_weight(decomposition_payload(decomposition, config))
                for decomposition in layer.decompositions
            ]
            reference = from_matrices(matrices, spec.plan).reshape(
                spec.weight_shape
            )
            np.testing.assert_array_equal(rebuilt, reference)
            # ... and equal to the layer_transform rebuild up to the
            # 8-bit basis quantization that serialization applies.
            dense = layer.rebuild_weight().reshape(spec.weight_shape)
            scale = max(np.abs(dense).max(), 1e-9)
            assert np.abs(rebuilt - dense).max() < 0.02 * scale + 1e-6

    def test_rebuilt_weights_match_installed_model_weights(self, published):
        store, manifest, model, report, _ = published
        payloads = store.load_payloads(manifest.name)
        modules = dict(model.named_modules())
        for spec in manifest.layers:
            installed = modules[spec.name].weight.data
            rebuilt = rebuild_layer_weight(payloads[spec.name], spec)
            scale = max(np.abs(installed).max(), 1e-9)
            assert np.abs(rebuilt - installed).max() < 0.02 * scale + 1e-6

    def test_corruption_detected(self, published):
        store, manifest, *_ = published
        weights = store.root / manifest.name / manifest.version / WEIGHTS_FILE
        blob = bytearray(weights.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        weights.write_bytes(bytes(blob))
        with pytest.raises(ArtifactCorruptionError, match="checksum"):
            store.load_payloads(manifest.name)

    def test_missing_file_detected(self, published):
        store, manifest, *_ = published
        bundle = store.root / manifest.name / manifest.version
        (bundle / RESIDUAL_FILE).unlink()
        with pytest.raises(ArtifactCorruptionError, match="missing"):
            store.verify(manifest.name)

    def test_unsupported_manifest_format(self, published):
        store, manifest, *_ = published
        path = store.root / manifest.name / manifest.version / MANIFEST_FILE
        data = json.loads(path.read_text())
        data["format"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactError, match="format"):
            store.manifest(manifest.name)


class TestResidualState:
    def test_residual_excludes_compressed_weights(self, published):
        store, manifest, model, report, _ = published
        residual = store.load_residual(manifest.name)
        compressed = {f"{layer.name}.weight" for layer in report.layers}
        assert compressed.isdisjoint(residual)
        # BN state must be there so serving can reconstruct the network.
        assert any("running_mean" in key for key in residual)

    def test_residual_optional(self, store, compressed_model):
        _, report, config = compressed_model
        manifest = store.publish(report, config)  # no model given
        assert store.load_residual(manifest.name) is None


class TestStorageWin:
    def test_bundle_smaller_than_dense_checkpoint(self, tmp_path):
        """Sparsity-heavy model: on-disk bundle beats the dense .npz."""
        from repro.core import SmartExchangeConfig, apply_smartexchange
        from repro import nn

        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 32, 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(32),
            nn.ReLU(),
            nn.Conv2d(32, 64, 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(64),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Flatten(),
            nn.Linear(64, 10, rng=rng),
        )
        dense_path = tmp_path / "dense.npz"
        np.savez(dense_path, **model.state_dict())

        config = SmartExchangeConfig(max_iterations=5,
                                     target_row_sparsity=0.7)
        _, report = apply_smartexchange(model, config, model_name="big")
        store = ArtifactStore(tmp_path / "store")
        manifest = store.publish(report, config, model=model)

        assert manifest.bundle_bytes < dense_path.stat().st_size
        assert manifest.payload_bytes < manifest.dense_bytes
