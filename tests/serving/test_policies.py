"""Admission policies, the cost-aware batch policy, and their wiring.

Unit-level coverage of the decision logic (synthetic cache views, fake
cost sources) plus integration through a real ``RebuildEngine`` over a
mixed-codec payload map — the scenario the cost model exists for: a
``smartexchange`` miss costs ~10x a ``quant-linear`` miss, so the
cost-aware policy must keep the expensive layers resident.
"""

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.costs import CodecCostModel
from repro.serving import (
    ADMISSION_POLICIES,
    CacheEntryView,
    CostAwareBatchPolicy,
    CostAwarePolicy,
    LRUPolicy,
    RebuildEngine,
    RequestQueue,
    StaticBatchPolicy,
    make_admission_policy,
)
from repro.serving.artifacts import LayerArtifactSpec


def view(name, nbytes, seconds, codec="c"):
    return CacheEntryView(
        name=name, nbytes=nbytes, codec=codec, rebuild_seconds=seconds
    )


class TestAdmissionPolicies:
    def test_factory_resolves_names_and_instances(self):
        assert set(ADMISSION_POLICIES) == {"lru", "cost-aware"}
        assert isinstance(make_admission_policy(None), LRUPolicy)
        assert isinstance(make_admission_policy("cost-aware"), CostAwarePolicy)
        policy = CostAwarePolicy()
        assert make_admission_policy(policy) is policy
        with pytest.raises(ValueError, match="unknown admission policy"):
            make_admission_policy("nope")

    def test_lru_evicts_least_recently_used(self):
        policy = LRUPolicy()
        resident = [view("old", 10, 1.0), view("new", 10, 1.0)]
        assert policy.admit(view("x", 10, 1.0), resident, 0)
        assert policy.victim(view("x", 10, 1.0), resident) == "old"

    def test_cost_aware_evicts_cheapest_density_first(self):
        policy = CostAwarePolicy()
        resident = [
            view("expensive", 100, 1.0),  # 10 ms/byte
            view("cheap", 100, 0.001),  # 10 us/byte
        ]
        assert policy.victim(view("x", 10, 1.0), resident) == "cheap"

    def test_cost_aware_admits_when_room_exists(self):
        policy = CostAwarePolicy()
        assert policy.admit(view("x", 10, 0.001), [], free_bytes=10)

    def test_cost_aware_rejects_displacing_more_valuable_bytes(self):
        policy = CostAwarePolicy()
        resident = [view("expensive", 100, 1.0)]
        # Candidate is cheaper per byte than everything it would evict.
        assert not policy.admit(view("cheap", 50, 0.0001), resident, 0)
        # Candidate denser than the bytes it displaces: admitted.
        assert policy.admit(view("denser", 50, 1.0), resident, 0)

    def test_cost_aware_rejects_when_cheap_residents_cannot_free_enough(self):
        policy = CostAwarePolicy()
        resident = [view("cheap", 10, 0.0001), view("expensive", 100, 1.0)]
        # Needs 50 bytes; only 10 can come from cheaper entries.
        candidate = view("mid", 50, 0.005)
        assert not policy.admit(candidate, resident, free_bytes=0)


class TestCostAwareBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostAwareBatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            CostAwareBatchPolicy(max_wait_s=-1.0)

    def test_unbound_behaves_like_static(self):
        policy = CostAwareBatchPolicy(max_batch_size=8, max_wait_s=0.02)
        assert policy.expected_batch_seconds() is None
        assert policy.wait_budget(1) == 0.02
        assert policy.wait_budget(7) == 0.02

    def test_budget_amortizes_fixed_cost_over_pending(self):
        policy = CostAwareBatchPolicy(max_batch_size=8, max_wait_s=10.0)
        policy.bind_costs(lambda: 0.1)
        assert policy.wait_budget(1) == pytest.approx(0.1)
        assert policy.wait_budget(4) == pytest.approx(0.025)
        # The cap still applies.
        policy = CostAwareBatchPolicy(max_batch_size=8, max_wait_s=0.01)
        policy.bind_costs(lambda: 5.0)
        assert policy.wait_budget(1) == 0.01

    def test_warm_cache_closes_immediately(self):
        policy = CostAwareBatchPolicy(max_batch_size=8, max_wait_s=0.5)
        policy.bind_costs(lambda: 0.0)
        assert policy.wait_budget(1) == 0.0

    def test_rebinding_to_another_source_refused(self):
        policy = CostAwareBatchPolicy()
        first, second = (lambda: 0.1), (lambda: 0.2)
        policy.bind_costs(first)
        policy.bind_costs(first)  # idempotent re-bind is fine
        with pytest.raises(ValueError, match="already bound"):
            policy.bind_costs(second)

    def test_binds_rebuild_engine_estimator(self):
        class FakeRebuild:
            def estimated_install_seconds(self):
                return 0.25

        policy = CostAwareBatchPolicy(max_wait_s=10.0)
        policy.bind_costs(FakeRebuild())
        assert policy.expected_batch_seconds() == pytest.approx(0.25)

    def test_queue_closes_batches_fast_when_cost_is_zero(self):
        policy = CostAwareBatchPolicy(max_batch_size=8, max_wait_s=0.5)
        policy.bind_costs(lambda: 0.0)
        queue = RequestQueue(policy)
        for i in range(3):
            queue.submit(np.full(2, float(i)))
        # Zero budget: the batch closes with whatever is pending
        # instead of waiting out max_wait_s.
        batch = queue.next_batch()
        assert 1 <= len(batch) <= 3

    def test_queue_coalesces_under_expensive_cost(self):
        policy = CostAwareBatchPolicy(max_batch_size=3, max_wait_s=0.05)
        policy.bind_costs(lambda: 10.0)  # always worth waiting
        queue = RequestQueue(policy)
        for i in range(3):
            queue.submit(np.full(2, float(i)))
        assert len(queue.next_batch()) == 3


# ----------------------------------------------------------------------
# Integration: a real RebuildEngine over a mixed-codec payload map
# ----------------------------------------------------------------------
def mixed_engine(policy, capacity_bytes, cost_model=None, layers=None):
    """RebuildEngine over synthetic fc payloads with per-layer codecs."""
    rng = np.random.default_rng(0)
    layers = layers or [
        ("se0", (24, 24), "smartexchange"),
        ("se1", (16, 16), "smartexchange"),
        ("ql0", (16, 16), "quant-linear"),
        ("ql1", (8, 8), "quant-linear"),
    ]
    payloads, specs = {}, {}
    for name, shape, codec in layers:
        weight = rng.normal(size=shape)
        payloads[name] = get_codec(codec).encode(weight)
        specs[name] = LayerArtifactSpec(
            name=name, kind="fc", weight_shape=shape, codec=codec
        )
    return RebuildEngine(
        payloads=payloads,
        specs=specs,
        capacity_bytes=capacity_bytes,
        policy=policy,
        cost_model=cost_model,
    )


class TestRebuildEngineWithPolicies:
    def test_stats_carry_policy_name(self):
        for name in ADMISSION_POLICIES:
            engine = mixed_engine(name, capacity_bytes=None)
            assert engine.policy.name == name
            assert engine.stats.policy == name
            assert engine.stats.as_dict()["policy"] == name

    def test_cost_requiring_policy_calibrates_upfront(self):
        model = CodecCostModel()
        engine = mixed_engine("cost-aware", None, cost_model=model)
        assert model.calibrated("smartexchange")
        assert model.calibrated("quant-linear")
        estimates = engine.layer_cost_estimates()
        assert set(estimates) == {"se0", "se1", "ql0", "ql1"}
        assert all(value > 0 for value in estimates.values())

    def test_lru_policy_does_not_calibrate(self):
        model = CodecCostModel()
        mixed_engine("lru", None, cost_model=model)
        assert not model.calibrated("smartexchange")

    def test_rebuilds_feed_the_cost_model(self):
        model = CodecCostModel()
        engine = mixed_engine("lru", None, cost_model=model)
        engine.warm()
        assert model.observations("smartexchange") == 2
        assert model.observations("quant-linear") == 2

    def test_cost_aware_keeps_expensive_layers_resident(self):
        # float64 resident bytes: se0 4608, se1 2048, ql0 2048, ql1 512.
        # Room for everything except one quant-linear layer.  Rates are
        # seeded and learning frozen so the admission decisions under
        # test are deterministic — with live per-(codec, layer) EWMAs
        # the two quant-linear layers' measured rates differ and the
        # knapsack may legitimately swap them once (covered by the
        # install-estimate tests below).
        capacity = 4608 + 2048 + 2048 + 512 - 512
        model = CodecCostModel()
        model.seed("smartexchange", 1e-5)
        model.seed("quant-linear", 1e-7)
        model.observe = lambda *args, **kwargs: 0.0
        engine = mixed_engine(
            "cost-aware", capacity_bytes=capacity, cost_model=model
        )
        for _ in range(4):
            for name in engine.layer_names:
                engine.layer_weight(name)
        cached = set(engine.cached_layers)
        assert {"se0", "se1"} <= cached  # expensive layers pinned
        assert engine.cached_bytes <= capacity
        # The cheap layer that does not fit keeps getting rejected, not
        # evicted-and-readmitted.
        assert engine.stats.evictions == 0
        assert engine.stats.rejected > 0

    def test_policies_preserve_decode_correctness(self):
        baseline = mixed_engine("lru", None)
        reference = {
            name: baseline.layer_weight(name).copy()
            for name in baseline.layer_names
        }
        for name in ADMISSION_POLICIES:
            engine = mixed_engine(name, capacity_bytes=2048)
            for _ in range(2):
                for layer in engine.layer_names:
                    np.testing.assert_array_equal(
                        engine.layer_weight(layer), reference[layer]
                    )

    def test_estimated_install_seconds_shrinks_as_cache_fills(self):
        engine = mixed_engine("cost-aware", capacity_bytes=None)
        cold = engine.estimated_install_seconds()
        assert cold > 0
        engine.warm()
        assert engine.estimated_install_seconds() == 0.0

    def test_uncached_layer_discounted_by_observed_hit_rate(self):
        """A layer with history of hitting is not priced as a certain
        miss once it falls out of the cache."""
        engine = mixed_engine("lru", capacity_bytes=None)
        name = engine.layer_names[0]
        # 1 miss + 9 hits: the decayed (EWMA) hit rate is well above 0.
        for _ in range(10):
            engine.layer_weight(name)
        hit_rate = engine.stats.layer_hit_rate(name)
        assert 0.0 < hit_rate < 1.0
        certain_miss = engine._estimate_seconds(name)
        assert certain_miss > 0
        engine.clear()  # drop residency, keep the hit history
        estimate = engine.estimated_install_seconds()
        contributions = {
            layer: engine._estimate_seconds(layer)
            for layer in engine.layer_names
        }
        all_miss_pending = sum(contributions.values())
        # The touched layer contributes only (1 - hit_rate) of its
        # cost; the untouched layers still price as certain misses.
        expected = all_miss_pending - hit_rate * certain_miss
        assert estimate == pytest.approx(expected, rel=1e-6)
        assert estimate < all_miss_pending

    def test_install_estimates_use_per_layer_rates(self):
        """Two same-codec layers with different observed decode rates
        must estimate differently — the (codec, layer) EWMA at work."""
        model = CodecCostModel(alpha=1.0)
        engine = mixed_engine("lru", capacity_bytes=None, cost_model=model)
        # Same codec, wildly different observed rates per layer.
        model.observe("quant-linear", 1000, 1000 * 1e-7, layer="ql0")
        model.observe("quant-linear", 1000, 1000 * 1e-4, layer="ql1")
        estimates = engine.layer_cost_estimates()
        # ql0 is the bigger layer (16x16 vs 8x8) yet estimates cheaper:
        # only a per-layer rate can produce that inversion.
        assert estimates["ql0"] < estimates["ql1"]

    def test_reset_stats_keeps_cache_contents(self):
        engine = mixed_engine("lru", capacity_bytes=None)
        engine.warm()
        cached = engine.cached_layers
        engine.reset_stats()
        assert engine.stats.accesses == 0
        assert engine.stats.policy == "lru"
        assert engine.cached_layers == cached
        engine.layer_weight(engine.layer_names[0])
        assert engine.stats.hits == 1  # still warm

    def test_bytes_saved_consistent_under_lock(self):
        engine = mixed_engine("lru", capacity_bytes=None)
        engine.warm()
        assert engine.bytes_saved == 0
        assert engine.total_dense_bytes == engine.cached_bytes
