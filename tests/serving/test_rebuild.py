"""Rebuild engine: on-demand reconstruction behind a bounded LRU cache."""

import numpy as np
import pytest

from repro.serving import ModelRegistry, RebuildEngine


@pytest.fixture
def handle(published):
    store, manifest, *_ = published
    return ModelRegistry(store).get(manifest.name)


def make_engine(handle, capacity_bytes=None) -> RebuildEngine:
    return RebuildEngine(
        payloads=handle.payloads,
        specs=handle.layer_specs,
        capacity_bytes=capacity_bytes,
    )


class TestCorrectness:
    def test_rebuild_matches_repeated_rebuild(self, handle):
        engine = make_engine(handle)
        for name in engine.layer_names:
            first = engine.layer_weight(name)
            engine.clear()
            second = engine.layer_weight(name)
            np.testing.assert_array_equal(first, second)

    def test_weight_shapes(self, handle):
        engine = make_engine(handle)
        for name, spec in handle.layer_specs.items():
            assert engine.layer_weight(name).shape == spec.weight_shape

    def test_cached_weight_is_read_only(self, handle):
        engine = make_engine(handle)
        weight = engine.layer_weight(engine.layer_names[0])
        with pytest.raises(ValueError):
            weight[...] = 0.0

    def test_unknown_layer_rejected(self, handle):
        with pytest.raises(KeyError, match="unknown layer"):
            make_engine(handle).layer_weight("nope")

    def test_missing_payload_rejected(self, handle):
        payloads = dict(handle.payloads)
        payloads.pop(next(iter(payloads)))
        with pytest.raises(KeyError, match="missing"):
            RebuildEngine(payloads=payloads, specs=handle.layer_specs)


class TestCacheBehavior:
    def test_hit_on_second_access(self, handle):
        engine = make_engine(handle)
        name = engine.layer_names[0]
        engine.layer_weight(name)
        engine.layer_weight(name)
        assert engine.stats.misses == 1
        assert engine.stats.hits == 1
        assert engine.stats.rebuilds == 1
        assert engine.stats.hit_rate == 0.5

    def test_unbounded_cache_rebuilds_each_layer_once(self, handle):
        engine = make_engine(handle)
        for _ in range(3):
            for name in engine.layer_names:
                engine.layer_weight(name)
        assert engine.stats.rebuilds == len(engine.layer_names)
        assert engine.cached_bytes == engine.total_dense_bytes
        assert engine.bytes_saved == 0

    def test_bounded_cache_evicts_lru(self, handle):
        sizes = {  # resident float64 bytes per rebuilt layer
            name: int(np.prod(spec.weight_shape)) * 8
            for name, spec in handle.layer_specs.items()
        }
        names = sorted(sizes, key=sizes.get, reverse=True)
        assert len(names) >= 2
        # Room for the largest layer only: the second access pattern
        # must evict and re-rebuild.
        engine = make_engine(handle, capacity_bytes=sizes[names[0]])
        for _ in range(2):
            for name in names:
                engine.layer_weight(name)
        assert engine.stats.evictions > 0
        assert engine.stats.rebuilds > len(names)
        assert engine.cached_bytes <= sizes[names[0]]
        assert engine.bytes_saved > 0

    def test_oversized_layer_served_uncached(self, handle):
        engine = make_engine(handle, capacity_bytes=1)
        name = engine.layer_names[0]
        engine.layer_weight(name)
        engine.layer_weight(name)
        assert engine.cached_bytes == 0
        assert engine.stats.misses == 2
        assert engine.stats.rebuilds == 2

    def test_warm_fills_cache(self, handle):
        engine = make_engine(handle)
        engine.warm()
        assert set(engine.cached_layers) == set(engine.layer_names)
        assert engine.stats.rebuilt_bytes == engine.total_dense_bytes

    def test_stats_dict_keys(self, handle):
        engine = make_engine(handle)
        engine.warm()
        stats = engine.stats.as_dict()
        for key in ("hits", "misses", "accesses", "evictions", "rebuilds",
                    "rebuilt_bytes", "rebuild_seconds", "hit_rate",
                    "layer_hit_rates"):
            assert key in stats
        # Derived counters are materialized, not left for consumers to
        # re-derive inconsistently.
        assert stats["accesses"] == stats["hits"] + stats["misses"]

    def test_per_layer_hit_rates_tracked(self, handle):
        # Per-layer hit rates are EWMAs (alpha 0.2, seeded at the first
        # observation), not all-time averages: miss, hit, hit walks
        # 0.0 -> 0.2 -> 0.36.
        engine = make_engine(handle)
        first = engine.layer_names[0]
        engine.layer_weight(first)  # miss -> seeds at 0.0
        engine.layer_weight(first)  # hit  -> 0.2
        engine.layer_weight(first)  # hit  -> 0.36
        rates = engine.stats.layer_hit_rates()
        alpha = engine.stats.hit_rate_alpha
        assert rates[first] == pytest.approx(alpha + (1 - alpha) * alpha)
        assert engine.stats.layer_hit_rate("never-touched") == 0.0
        assert engine.stats.as_dict()["layer_hit_rates"] == rates
        # All-time counts are still kept for audit.
        assert engine.stats.layer_hits[first] == 2
        assert engine.stats.layer_accesses[first] == 3
