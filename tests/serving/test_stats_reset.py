"""ServingStats recording, bounded memory, and atomic reset-while-serving
behavior."""

from __future__ import annotations

import gc
import threading
import tracemalloc

import numpy as np

from repro.observability import MetricsRegistry
from repro.serving import ModelRegistry, ServingStats, StaticBatchPolicy
from repro.serving.engine import InferenceEngine

from tests.serving.conftest import build_model


class TestRecordRequests:
    LATENCIES = [0.0004, 0.001, 0.0031, 0.2, 7.5, 30.0, float("nan"), 0.0]

    def test_summary_matches_one_record_per_request(self):
        one_each = ServingStats(metrics=MetricsRegistry())
        batched = ServingStats(metrics=MetricsRegistry())
        for stats in (one_each, batched):
            stats.record_batch(len(self.LATENCIES), 0.01, worker=0, policy="static")
        for latency in self.LATENCIES:
            one_each.record_request(latency)
        batched.record_requests(self.LATENCIES[:3])
        batched.record_requests(np.array(self.LATENCIES[3:]))
        assert str(batched.summary()) == str(one_each.summary())
        assert (
            batched.metrics.to_prometheus_text()
            == one_each.metrics.to_prometheus_text()
        )

    def test_empty_batch_records_nothing(self):
        stats = ServingStats(metrics=MetricsRegistry())
        stats.record_requests([])
        (latency,) = stats.metrics.series("repro_serving_request_latency_seconds")
        assert latency.count == 0
        assert stats.summary()["request_latency_p50_ms"] == 0.0


class TestBoundedMemory:
    def test_memory_does_not_grow_with_request_count(self):
        stats = ServingStats(metrics=MetricsRegistry())
        # Warm up: the per-worker and per-policy slices exist after the
        # first batch, so every later batch only moves counters.
        stats.record_batch(16, 0.001, worker=0, policy="static")
        stats.record_requests([0.001] * 16)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for batch in range(100_000 // 16):
                # Fresh floats every batch, as live timers produce.
                latencies = [1e-3 + (batch * 16 + i) * 1e-9 for i in range(16)]
                stats.record_batch(16, latencies[-1], worker=0, policy="static")
                stats.record_requests(latencies)
            del latencies
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert stats.request_count == 100_000 // 16 * 16 + 16
        assert retained < 16 * 1024


class TestServingStatsReset:
    def test_reset_clears_everything_in_place(self):
        stats = ServingStats(metrics=MetricsRegistry())
        stats.record_batch(4, 0.01, worker=0, policy="static")
        stats.record_request(0.02)
        stats.record_failed()
        stats.reset()
        assert stats.request_count == 0
        assert stats.batch_count == 0
        assert stats.failed_requests == 0
        assert stats.busy_seconds == 0.0
        assert stats.per_worker == {}
        assert stats.per_policy == {}
        for name in (
            "repro_serving_request_latency_seconds",
            "repro_serving_batch_latency_seconds",
        ):
            (latency,) = stats.metrics.series(name)
            assert latency.count == 0
        summary = stats.summary()
        assert summary["requests"] == 0
        assert summary["request_latency_p50_ms"] == 0.0

    def test_reset_zeroes_slice_series_in_registry(self):
        registry = MetricsRegistry()
        stats = ServingStats(metrics=registry)
        stats.record_batch(4, 0.01, worker=0)
        (series,) = registry.series("repro_serving_worker_requests_total")
        assert series.value == 4
        stats.reset()
        # The series outlives the per_worker dict entry but reads zero,
        # so the Prometheus export agrees with the fresh summary.
        assert series.value == 0

    def test_concurrent_reset_never_tears_a_record(self):
        """record_batch lands entirely before or after a reset.

        Writers hammer batches of a fixed size while a resetter spins;
        at any instant requests must be a multiple of the batch size
        and batches * size == requests — a torn record (half cleared)
        would break the invariant.
        """
        stats = ServingStats(metrics=MetricsRegistry())
        size, stop = 4, threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                stats.record_batch(size, 0.001, worker=0, policy="static")
                stats.record_request(0.001)

        def checker():
            while not stop.is_set():
                with stats._lock:
                    requests = int(stats._requests.value)
                    batches = int(stats._batches.value)
                if requests != batches * size:
                    torn.append((requests, batches))

        def resetter():
            for _ in range(200):
                stats.reset()

        writers = [threading.Thread(target=writer) for _ in range(3)]
        check = threading.Thread(target=checker)
        for thread in (*writers, check):
            thread.start()
        resetter()
        stop.set()
        for thread in (*writers, check):
            thread.join()
        assert torn == []

    def test_reset_while_serving_live_engine(self, store, compressed_model):
        """Stats reset mid-flight leaves a consistent, identical object."""
        model, report, config = compressed_model
        store.publish(report, config, model=model)
        engine = InferenceEngine(
            build_model(seed=1),
            ModelRegistry(store).get("demo"),
            policy=StaticBatchPolicy(max_batch_size=4, max_wait_s=0.001),
        )
        stats, rebuild_stats = engine.stats, engine.rebuild.stats
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(48, 3, 8, 8))
        engine.start(workers=2)
        try:
            tickets = [engine.submit(sample) for sample in samples]
            for _ in range(10):
                engine.stats.reset()
                engine.rebuild.reset_stats()
            for ticket in tickets:
                ticket.result(timeout=30.0)
        finally:
            engine.stop()
        # Identity preserved: summaries and metric exports keep reading
        # the same objects the engine writes to.
        assert engine.stats is stats
        assert engine.rebuild.stats is rebuild_stats
        # Post-reset tallies are internally consistent.
        assert rebuild_stats.accesses == rebuild_stats.hits + rebuild_stats.misses
        assert stats.request_count <= len(samples)
        assert engine.summary()["requests"] == stats.request_count

    def test_rebuild_reset_preserves_identity_and_zeroes(
        self, store, compressed_model
    ):
        model, report, config = compressed_model
        store.publish(report, config, model=model)
        engine = InferenceEngine(
            build_model(seed=1), ModelRegistry(store).get("demo")
        )
        engine.predict(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        stats = engine.rebuild.stats
        assert stats.accesses > 0
        engine.rebuild.reset_stats()
        assert engine.rebuild.stats is stats
        assert stats.accesses == 0
        assert stats.rebuild_seconds == 0.0
        assert stats.layer_hits == {}
