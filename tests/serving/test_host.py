"""Multi-model serving host: routing policies, fleet lifecycle, stats.

Unit-level coverage of the routing decision logic (synthetic engine
views) plus integration through a real two-model fleet — the scenario
cost-aware routing exists for: a warm engine bids ~0 expected install
seconds while a cold engine bids its full rebuild bill, so the
cold-cache-heavy traffic drains toward the warm replica.
"""

import threading

import numpy as np
import pytest

from repro.compression import LinearQuantizer
from repro.core import apply_smartexchange
from repro.serving import (
    ROUTING_POLICIES,
    CostAwareRoutingPolicy,
    EngineView,
    HostStats,
    InferenceEngine,
    LeastLoadedPolicy,
    ModelRegistry,
    RoundRobinPolicy,
    ServingError,
    ServingHost,
    StaticBatchPolicy,
    make_routing_policy,
)
from tests.serving.conftest import FAST, build_model


def fake_view(key, depth=0, install=0.0, model="m"):
    return EngineView(
        key=key, model=model, queue_depth=depth, estimate=lambda: install
    )


# ----------------------------------------------------------------------
# Routing policy decision logic (no engines involved)
# ----------------------------------------------------------------------
class TestRoutingPolicies:
    def test_factory_resolves_names_and_instances(self):
        assert set(ROUTING_POLICIES) == {
            "round-robin", "least-loaded", "cost-aware",
        }
        assert isinstance(make_routing_policy(None), RoundRobinPolicy)
        assert isinstance(
            make_routing_policy("cost-aware"), CostAwareRoutingPolicy
        )
        policy = LeastLoadedPolicy()
        assert make_routing_policy(policy) is policy
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_routing_policy("nope")

    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy()
        views = [fake_view("a"), fake_view("b"), fake_view("c")]
        chosen = [policy.choose(views).key for _ in range(6)]
        assert chosen == ["a", "b", "c", "a", "b", "c"]

    def test_least_loaded_picks_shortest_queue(self):
        policy = LeastLoadedPolicy()
        views = [fake_view("busy", depth=5), fake_view("idle", depth=1)]
        assert policy.choose(views).key == "idle"
        # Ties keep deployment order.
        views = [fake_view("first", depth=2), fake_view("second", depth=2)]
        assert policy.choose(views).key == "first"

    def test_cost_aware_picks_lowest_install_cost(self):
        policy = CostAwareRoutingPolicy()
        views = [
            fake_view("cold", install=0.5),
            fake_view("warm", install=0.0),
        ]
        assert policy.choose(views).key == "warm"

    def test_cost_aware_ties_break_on_queue_depth(self):
        policy = CostAwareRoutingPolicy()
        views = [
            fake_view("busy", depth=4, install=0.0),
            fake_view("idle", depth=0, install=0.0),
        ]
        assert policy.choose(views).key == "idle"

    def test_view_memoizes_install_estimate(self):
        calls = []

        def estimate():
            calls.append(1)
            return 0.25

        view = EngineView("k", "m", 0, estimate)
        assert view.estimated_install_seconds() == pytest.approx(0.25)
        assert view.estimated_install_seconds() == pytest.approx(0.25)
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Fleet integration: two real models behind one host
# ----------------------------------------------------------------------
@pytest.fixture
def two_model_store(store):
    """A store holding a smartexchange and a quant-linear bundle."""
    se_model = build_model(seed=0)
    _, report = apply_smartexchange(se_model, FAST, model_name="host-se")
    store.publish(report, FAST, model=se_model)
    ql_model = build_model(seed=0)
    q_report = LinearQuantizer(8).compress(ql_model, "host-ql")
    store.publish_compressed(q_report, model=ql_model)
    return store


def fast_batch_policy():
    return StaticBatchPolicy(max_batch_size=4, max_wait_s=0.001)


def make_host(store, routing):
    registry = ModelRegistry(store)
    host = ServingHost(registry, routing=routing)
    host.deploy("host-se", build_model(seed=1), policy=fast_batch_policy())
    host.deploy("host-ql", build_model(seed=1), policy=fast_batch_policy())
    return host


def samples(count=8):
    rng = np.random.default_rng(7)
    return [rng.normal(size=(3, 8, 8)) for _ in range(count)]


class TestServingHost:
    @pytest.mark.parametrize("routing", sorted(ROUTING_POLICIES))
    def test_serves_two_models_concurrently(self, two_model_store, routing):
        """Both models answer correctly under every routing policy."""
        host = make_host(two_model_store, routing)
        engines = host.engines()
        offline = {
            key: engine.predict(np.stack(samples()))
            for key, engine in engines.items()
        }
        host.start(workers=2)
        with host:
            tickets = [
                (key, [host.submit(s, model=model) for s in samples()])
                for key, model in (
                    ("host-se:v1", "host-se"),
                    ("host-ql:v1", "host-ql"),
                )
            ]
            for key, batch in tickets:
                rows = np.stack([t.result(timeout=30.0) for t in batch])
                np.testing.assert_allclose(
                    rows, offline[key], rtol=1e-10, atol=1e-10
                )
        host.stop()
        summary = host.summary()
        assert summary["routing"] == routing
        assert summary["models"] == ["host-ql", "host-se"]
        assert summary["requests"] >= 16

    def test_round_robin_splits_unpinned_traffic(self, two_model_store):
        host = make_host(two_model_store, "round-robin")
        with host:
            tickets = [host.submit(s) for s in samples(8)]
            for ticket in tickets:
                ticket.result(timeout=30.0)
        routed = host.summary()["routed_by_engine"]
        assert routed == {"host-se:v1": 4, "host-ql:v1": 4}

    def test_cost_aware_routes_cold_traffic_to_warm_engine(
        self, two_model_store
    ):
        host = make_host(two_model_store, "cost-aware")
        warm = host.engines()["host-se:v1"]
        warm.rebuild.warm()
        warm.rebuild.reset_stats()
        assert warm.estimated_install_seconds() == 0.0
        with host:
            tickets = [host.submit(s) for s in samples(8)]
            for ticket in tickets:
                ticket.result(timeout=30.0)
        summary = host.summary()
        routed = summary["routed_by_engine"]
        assert routed.get("host-se:v1", 0) == 8
        assert routed.get("host-ql:v1", 0) == 0
        # No engine paid a rebuild: the cold one never installed.
        assert summary["rebuild_seconds"] == 0.0

    def test_offline_predict_routes_too(self, two_model_store):
        host = make_host(two_model_store, "round-robin")
        batch = np.stack(samples(4))
        first = host.predict(batch)
        second = host.predict(batch)
        assert first.shape == second.shape == (4, 4)
        routed = host.summary()["routed_by_engine"]
        assert sum(routed.values()) == 2
        assert set(routed) == {"host-se:v1", "host-ql:v1"}

    def test_model_pinning_and_engine_keys(self, two_model_store):
        host = make_host(two_model_store, "round-robin")
        batch = np.stack(samples(2))
        for _ in range(3):
            host.predict(batch, model="host-ql")
        # Pinning by full engine key works as well.
        host.predict(batch, model="host-ql:v1")
        routed = host.summary()["routed_by_engine"]
        assert routed == {"host-ql:v1": 4}

    def test_unknown_model_rejected(self, two_model_store):
        host = make_host(two_model_store, "round-robin")
        with pytest.raises(ServingError, match="no engine serves"):
            host.submit(samples(1)[0], model="nope")

    def test_empty_host_rejected(self):
        host = ServingHost()
        with pytest.raises(ServingError, match="no engines"):
            host.start()
        with pytest.raises(ServingError, match="no engines"):
            host.predict(np.zeros((1, 3, 8, 8)))
        with pytest.raises(ServingError, match="no registry"):
            host.deploy("x", build_model())

    def test_double_start_rejected(self, two_model_store):
        host = make_host(two_model_store, "round-robin")
        with host:
            with pytest.raises(ServingError, match="already started"):
                host.start()
        host.stop()  # idempotent after __exit__

    def test_replicas_get_suffixed_keys(self, two_model_store):
        registry = ModelRegistry(two_model_store)
        host = ServingHost(registry)
        host.deploy("host-se", build_model(seed=1))
        host.deploy("host-se", build_model(seed=2))
        host.deploy("host-se", build_model(seed=3))
        assert sorted(host.engines()) == [
            "host-se:v1", "host-se:v1#2", "host-se:v1#3",
        ]
        assert host.models() == ["host-se"]

    def test_add_engine_while_started_serves_immediately(
        self, two_model_store
    ):
        registry = ModelRegistry(two_model_store)
        host = ServingHost(registry, routing="round-robin")
        host.deploy("host-se", build_model(seed=1), policy=fast_batch_policy())
        with host:
            engine = InferenceEngine(
                build_model(seed=2),
                registry.get("host-ql"),
                policy=fast_batch_policy(),
            )
            key = host.add_engine(engine)
            assert key == "host-ql:v1"
            assert engine.worker_count == 1  # hot-started
            ticket = host.submit(samples(1)[0], model="host-ql")
            assert ticket.result(timeout=30.0).shape == (4,)

    def test_concurrent_submitters_race_cleanly(self, two_model_store):
        host = make_host(two_model_store, "least-loaded")
        results, errors = [], []

        def client(model):
            try:
                tickets = [host.submit(s, model=model) for s in samples(4)]
                results.extend(t.result(timeout=30.0) for t in tickets)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        host.start(workers=2)
        with host:
            threads = [
                threading.Thread(target=client, args=(model,))
                for model in ("host-se", "host-ql", None, None)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(results) == 16
        assert host.summary()["requests"] == 16

    def test_misbehaving_policy_surfaces(self, two_model_store):
        class Rogue:
            name = "rogue"

            def choose(self, candidates):
                return fake_view("not-a-candidate")

        host = make_host(two_model_store, Rogue())
        with pytest.raises(ServingError, match="not a candidate"):
            host.predict(np.stack(samples(1)))


# ----------------------------------------------------------------------
# HostStats aggregation (pure dict plumbing, no engines)
# ----------------------------------------------------------------------
class TestHostStats:
    def engine_summary(self, **overrides):
        base = {
            "model": "m",
            "requests": 10,
            "failed_requests": 1,
            "rebuild_rebuild_seconds": 0.5,
            "rebuild_hits": 8,
            "rebuild_accesses": 10,
        }
        base.update(overrides)
        return base

    def test_routed_counters(self):
        stats = HostStats()
        for _ in range(3):
            stats.record_routed("a", "m1")
        stats.record_routed("b", "m2")
        assert stats.routed_total == 4
        summary = stats.summary()
        assert summary["routed_by_engine"] == {"a": 3, "b": 1}
        assert summary["routed_by_model"] == {"m1": 3, "m2": 1}
        stats.reset()
        assert stats.routed_total == 0

    def test_summary_aggregates_engines(self):
        stats = HostStats()
        stats.record_routed("a", "m1")
        per_engine = {
            "a": self.engine_summary(model="m1"),
            "b": self.engine_summary(
                model="m2", requests=6, failed_requests=0,
                rebuild_rebuild_seconds=0.25, rebuild_hits=0,
                rebuild_accesses=10,
            ),
        }
        summary = stats.summary(per_engine, routing="cost-aware")
        assert summary["routing"] == "cost-aware"
        assert summary["engines"] == 2
        assert summary["models"] == ["m1", "m2"]
        assert summary["requests"] == 16
        assert summary["failed_requests"] == 1
        assert summary["rebuild_seconds"] == pytest.approx(0.75)
        # Pooled hit rate: (8 + 0) / (10 + 10), not a mean of rates.
        assert summary["rebuild_hit_rate"] == pytest.approx(0.4)
        assert summary["per_engine"]["a"]["model"] == "m1"

    def test_summary_handles_empty_fleet(self):
        summary = HostStats().summary({}, routing="round-robin")
        assert summary["requests"] == 0
        assert summary["rebuild_hit_rate"] == 0.0
        assert summary["models"] == []

    def test_report_renders(self):
        stats = HostStats()
        stats.record_routed("a", "m1")
        report = stats.report(
            stats.summary({"a": self.engine_summary()}, routing="cost-aware")
        )
        assert "serving host (cost-aware)" in report
        assert "engine[a]" in report
        assert "routed=1" in report
