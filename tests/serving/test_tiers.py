"""Lower cache tiers: blobs, residency bookkeeping, cost-gated migration."""

import numpy as np
import pytest

from repro.costs import CodecCostModel
from repro.serving import (
    ArtifactStore,
    CompressedRamTier,
    DiskSpillTier,
    LRUPolicy,
    ModelRegistry,
    RebuildEngine,
    make_tiers,
)
from repro.serving.tiers import compress_dense, decompress_dense

from tests.serving.conftest import build_mixed_model, publish_mixed


@pytest.fixture
def handle(published):
    store, manifest, *_ = published
    return ModelRegistry(store).get(manifest.name)


def make_blob(seed: int = 0, shape=(6, 7)):
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=shape)
    return weight, compress_dense(weight)


def store_weight(tier, name, weight, blob, saved=1.0):
    return tier.store(
        name,
        blob,
        codec="dense",
        dense_nbytes=weight.nbytes,
        dtype=str(weight.dtype),
        shape=tuple(weight.shape),
        saved_seconds=saved,
    )


class NeverAdmit:
    name = "never"
    requires_costs = False

    def admit(self, candidate, resident, free_bytes):
        return False

    def victim(self, candidate, resident):
        return resident[0].name


class TestBlobFormat:
    def test_round_trip(self):
        weight, blob = make_blob()
        out = decompress_dense(
            blob, weight.nbytes, str(weight.dtype), weight.shape
        )
        np.testing.assert_array_equal(out, weight)
        assert not out.flags.writeable

    def test_corrupt_blob_is_none(self):
        weight, blob = make_blob()
        assert (
            decompress_dense(
                b"\x00" + blob[1:], weight.nbytes, str(weight.dtype),
                weight.shape,
            )
            is None
        )

    def test_wrong_size_is_none(self):
        weight, blob = make_blob()
        assert (
            decompress_dense(
                blob, weight.nbytes + 8, str(weight.dtype), weight.shape
            )
            is None
        )

    def test_bad_shape_is_none(self):
        weight, blob = make_blob()
        assert (
            decompress_dense(blob, weight.nbytes, str(weight.dtype), (5, 5))
            is None
        )


class TestCompressedRamTier:
    def test_store_claim_load_round_trip(self):
        tier = CompressedRamTier()
        weight, blob = make_blob()
        verdict, evicted = store_weight(tier, "w", weight, blob)
        assert verdict == "admitted" and evicted == []
        assert "w" in tier and tier.charged_bytes == len(blob)
        entry = tier.claim("w")
        assert "w" not in tier and tier.charged_bytes == 0
        np.testing.assert_array_equal(tier.load(entry), weight)

    def test_claim_is_exclusive(self):
        tier = CompressedRamTier()
        weight, blob = make_blob()
        store_weight(tier, "w", weight, blob)
        assert tier.claim("w") is not None
        assert tier.claim("w") is None

    def test_oversized_blob_refused(self):
        weight, blob = make_blob()
        tier = CompressedRamTier(capacity_bytes=len(blob) - 1)
        verdict, evicted = store_weight(tier, "w", weight, blob)
        assert verdict == "oversized" and evicted == []
        assert tier.entry_count == 0

    def test_placement_policy_can_reject(self):
        weight, blob = make_blob()
        tier = CompressedRamTier(
            capacity_bytes=len(blob) * 4, policy=NeverAdmit()
        )
        verdict, _ = store_weight(tier, "w", weight, blob)
        assert verdict == "rejected"
        assert tier.entry_count == 0

    def test_capacity_evicts_lru_and_returns_entries(self):
        a, blob_a = make_blob(1)
        b, blob_b = make_blob(2)
        tier = CompressedRamTier(
            capacity_bytes=max(len(blob_a), len(blob_b)), policy=LRUPolicy()
        )
        store_weight(tier, "a", a, blob_a)
        verdict, evicted = store_weight(tier, "b", b, blob_b)
        assert verdict == "admitted"
        assert [entry.name for entry in evicted] == ["a"]
        # The evicted entry's blob is still extractable (cascade path).
        np.testing.assert_array_equal(tier.load(evicted[0]), a)
        assert tier.resident_names() == ["b"]
        assert tier.charged_bytes == len(blob_b)

    def test_restore_replaces_stale_entry(self):
        weight, blob = make_blob()
        tier = CompressedRamTier()
        store_weight(tier, "w", weight, blob)
        store_weight(tier, "w", weight, blob)
        assert tier.entry_count == 1
        assert tier.charged_bytes == len(blob)

    def test_clear_releases_everything(self):
        weight, blob = make_blob()
        tier = CompressedRamTier()
        store_weight(tier, "w", weight, blob)
        tier.clear()
        assert tier.entry_count == 0 and tier.charged_bytes == 0

    def test_as_dict_schema(self):
        tier = CompressedRamTier(capacity_bytes=1024)
        snap = tier.as_dict()
        assert snap == {
            "tier": "compressed-ram",
            "policy": "lru",
            "capacity_bytes": 1024,
            "charged_bytes": 0,
            "entries": 0,
        }


class TestDiskSpillTier:
    def test_spills_to_directory_and_loads_back(self, tmp_path):
        tier = DiskSpillTier(directory=str(tmp_path / "spill"))
        weight, blob = make_blob()
        store_weight(tier, "w", weight, blob)
        path = tier._entries["w"].path
        assert path is not None
        with open(path, "rb") as fh:
            assert fh.read() == blob
        claimed = tier.claim("w")
        np.testing.assert_array_equal(tier.load(claimed), weight)
        # Extraction consumes the file.
        import os

        assert not os.path.exists(path)

    def test_private_tempdir_removed_on_close(self):
        tier = DiskSpillTier()
        weight, blob = make_blob()
        store_weight(tier, "w", weight, blob)
        directory = tier.directory
        assert directory is not None
        import os

        assert os.path.isdir(directory)
        tier.close()
        assert not os.path.exists(directory)
        assert tier.directory is None

    def test_close_keeps_caller_owned_directory(self, tmp_path):
        spill = tmp_path / "spill"
        tier = DiskSpillTier(directory=str(spill))
        weight, blob = make_blob()
        store_weight(tier, "w", weight, blob)
        tier.close()
        assert spill.exists()

    def test_cascade_between_tiers_round_trips(self, tmp_path):
        upper = CompressedRamTier()
        lower = DiskSpillTier(directory=str(tmp_path))
        weight, blob = make_blob()
        store_weight(upper, "w", weight, blob)
        entry = upper.claim("w")
        moved = upper.extract(entry)
        assert moved == blob
        store_weight(lower, "w", weight, moved)
        claimed = lower.claim("w")
        np.testing.assert_array_equal(lower.load(claimed), weight)


class TestMakeTiers:
    def test_none_is_empty(self):
        assert make_tiers(None) == []

    def test_spec_string(self, tmp_path):
        tiers = make_tiers(
            "compressed:2048,disk", spill_dir=str(tmp_path)
        )
        assert [t.name for t in tiers] == ["compressed-ram", "disk"]
        assert tiers[0].capacity_bytes == 2048
        assert tiers[1].capacity_bytes is None
        assert tiers[1].directory == str(tmp_path)

    def test_leading_dense_token_skipped(self):
        tiers = make_tiers("dense,compressed,disk")
        assert [t.name for t in tiers] == ["compressed-ram", "disk"]

    def test_dense_not_first_rejected(self):
        with pytest.raises(ValueError, match="dense"):
            make_tiers("compressed,dense")

    def test_compressed_defaults_to_dense_budget(self):
        (tier,) = make_tiers("compressed", default_capacity=4096)
        assert tier.capacity_bytes == 4096

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown cache tier"):
            make_tiers("tape")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_tiers("compressed:0")

    def test_duplicate_tiers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_tiers("disk,disk")

    def test_instances_pass_through(self):
        stack = [CompressedRamTier(), DiskSpillTier()]
        assert make_tiers(stack) == stack
        with pytest.raises(TypeError, match="not a CacheTier"):
            make_tiers(["compressed"])  # strings only as one spec


class TestEngineTierIntegration:
    def layer_sizes(self, handle):
        return {
            name: int(np.prod(spec.weight_shape)) * 8
            for name, spec in handle.layer_specs.items()
        }

    def test_eviction_demotes_and_faults_back(self, handle):
        sizes = self.layer_sizes(handle)
        big = max(sizes.values())
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            capacity_bytes=big,  # one large layer at a time
            tiers="compressed",
        )
        reference = {
            name: np.array(
                RebuildEngine(
                    payloads=handle.payloads, specs=handle.layer_specs
                ).layer_weight(name)
            )
            for name in engine.layer_names
        }
        for _ in range(3):
            for name in engine.layer_names:
                np.testing.assert_array_equal(
                    engine.layer_weight(name), reference[name]
                )
        stats = engine.stats
        assert stats.tier_count("compressed-ram", "demotions") > 0
        assert stats.tier_count("compressed-ram", "hits") > 0
        # A tier fault that re-enters the dense cache is a promotion.
        assert stats.tier_count("compressed-ram", "promotions") > 0
        # Faults replaced full rebuilds one for one.
        assert (
            stats.rebuilds
            == stats.accesses
            - stats.hits
            - stats.tier_count("compressed-ram", "hits")
        )

    def test_tier_hit_counts_partition_accesses(self, handle):
        sizes = self.layer_sizes(handle)
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            capacity_bytes=max(sizes.values()),
            tiers="compressed,disk",
        )
        for _ in range(4):
            for name in engine.layer_names:
                engine.layer_weight(name)
        counts = engine.stats.tier_hit_counts()
        assert list(counts) == ["dense-ram", "compressed-ram", "disk", "rebuild"]
        assert sum(counts.values()) == engine.stats.accesses

    def test_lower_tiers_absorb_what_dense_only_rebuilds(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        manifest = publish_mixed(store, build_mixed_model(seed=0), "mixed")
        handle = ModelRegistry(store).get(manifest.name)
        rebuilds = {}
        for tiers in (None, "compressed,disk"):
            # Seeded, frozen rates keep every admission and demotion
            # decision independent of how fast this host decodes.
            model = CodecCostModel()
            model.seed("smartexchange", 1e-7)
            model.seed("quant-linear", 1e-9)
            model.observe = model.observe_tier_access = lambda *a, **k: 0.0
            engine = RebuildEngine(
                payloads=handle.payloads,
                specs=handle.layer_specs,
                # Too small for the big conv: dense-only re-decodes it.
                capacity_bytes=int(0.6 * handle.total_dense_bytes),
                policy="cost-aware",
                cost_model=model,
                tiers=tiers,
                spill_dir=str(tmp_path / "spill"),
            )
            for _ in range(2):
                engine.warm()
            engine.reset_stats()
            for _ in range(4):
                engine.warm()
            rebuilds[tiers] = engine.stats.rebuilds
            engine.close()
        assert rebuilds[None] > 0
        assert rebuilds["compressed,disk"] == 0

    def test_negative_savings_gate_blocks_demotion(self, handle):
        from repro.costs import CodecCostModel

        model = CodecCostModel()
        # Price the tier access as ruinously slow: rebuilding from the
        # payload is always cheaper, so nothing should ever demote.
        model.seed_tier("compressed-ram", 1.0)
        sizes = self.layer_sizes(handle)
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            capacity_bytes=max(sizes.values()),
            cost_model=model,
            tiers="compressed",
        )
        for _ in range(3):
            for name in engine.layer_names:
                engine.layer_weight(name)
        stats = engine.stats
        assert stats.tier_count("compressed-ram", "demotions") == 0
        assert stats.tier_count("compressed-ram", "rejected") == 0
        assert stats.tier_count("compressed-ram", "hits") == 0
        assert engine.tiers[0].entry_count == 0

    def test_compressed_overflow_cascades_to_disk(self, handle):
        probe = RebuildEngine(
            payloads=handle.payloads, specs=handle.layer_specs
        )
        blobs = {
            name: compress_dense(probe.layer_weight(name))
            for name in probe.layer_names
        }
        # Nothing fits the dense tier, so every rebuild demotes; the
        # compressed tier holds one blob at a time, so demoting the
        # second layer evicts the first, which must cascade to disk.
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            capacity_bytes=min(self.layer_sizes(handle).values()) - 1,
            tiers=f"compressed:{max(len(b) for b in blobs.values())},disk",
        )
        for _ in range(4):
            for name in engine.layer_names:
                engine.layer_weight(name)
        stats = engine.stats
        assert stats.tier_count("disk", "demotions") > 0
        assert stats.tier_count("disk", "hits") > 0
        engine.close()

    def test_oversized_dense_layer_served_from_tier(self, handle):
        sizes = self.layer_sizes(handle)
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            capacity_bytes=min(sizes.values()) - 1,  # nothing fits dense
            tiers="compressed:1048576",
        )
        for _ in range(3):
            for name in engine.layer_names:
                engine.layer_weight(name)
        stats = engine.stats
        assert stats.hits == 0  # dense tier can never hold a layer
        assert stats.tier_count("compressed-ram", "hits") > 0
        assert stats.rebuilds < stats.accesses

    def test_close_is_idempotent_and_engine_stays_usable(self, handle):
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            capacity_bytes=1,
            tiers="compressed,disk",
        )
        for name in engine.layer_names:
            engine.layer_weight(name)
        engine.close()
        engine.close()
        for name in engine.layer_names:
            engine.layer_weight(name)
        engine.close()

    def test_clear_empties_tiers(self, handle):
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            capacity_bytes=1,
            tiers="compressed:1048576",
        )
        for name in engine.layer_names:
            engine.layer_weight(name)
        assert engine.tiers[0].entry_count > 0
        engine.clear()
        assert engine.tiers[0].entry_count == 0

    def test_tier_summaries_snapshot(self, handle):
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            tiers="compressed:1024,disk",
        )
        summaries = engine.tier_summaries()
        assert [s["tier"] for s in summaries] == ["compressed-ram", "disk"]
        assert summaries[0]["capacity_bytes"] == 1024

    def test_stats_as_dict_has_tier_sections_only_with_tiers(self, handle):
        flat = RebuildEngine(
            payloads=handle.payloads, specs=handle.layer_specs
        )
        assert "tiers" not in flat.stats.as_dict()
        tiered = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            tiers="compressed",
        )
        snap = tiered.stats.as_dict()
        assert set(snap["tiers"]) == {"compressed-ram"}
        assert set(snap["tiers"]["compressed-ram"]) == set(
            tiered.stats.TIER_EVENTS
        )

    def test_tier_metrics_pre_registered(self, handle):
        engine = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            tiers="compressed,disk",
        )
        # Every per-tier series exists before any traffic, so exports
        # (and the simulator's schema-match check) see the full schema.
        for metric_name, _ in engine.stats.TIER_EVENTS.values():
            tiers = {
                series.tag_dict.get("tier")
                for series in engine.metrics.series(metric_name)
            }
            assert tiers == {"compressed-ram", "disk"}
