"""Instrument behavior and exporter golden-output tests."""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

from repro.observability import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(3)
        assert counter.value == 4.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_set_and_reset_for_local_reset_semantics(self):
        counter = MetricsRegistry().counter("repro_test_total")
        counter.set(7)
        assert counter.value == 7.0
        counter.reset()
        assert counter.value == 0.0

    def test_concurrent_increments_all_land(self):
        counter = MetricsRegistry().counter("repro_test_total")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_test_bytes")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["sum"] == pytest.approx(56.05)
        # Cumulative: le=0.1 -> 1, le=1.0 -> 3, le=10.0 -> 4, +Inf -> 5.
        assert snapshot["buckets"] == [
            [0.1, 1],
            [1.0, 3],
            [10.0, 4],
            [math.inf, 5],
        ]

    def test_boundary_value_is_inclusive(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(1.0, 2.0)
        )
        histogram.observe(1.0)
        assert histogram.snapshot()["buckets"][0] == [1.0, 1]

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_reset_zeroes_everything(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(1.0,)
        )
        histogram.observe(0.5)
        histogram.reset()
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["sum"] == 0.0


class TestHistogramQuantile:
    @staticmethod
    def latency_histogram() -> Histogram:
        return MetricsRegistry().histogram("repro_test_latency_seconds")

    def test_empty_histogram_is_zero(self):
        histogram = self.latency_histogram()
        assert [histogram.quantile(q) for q in (0.0, 0.5, 1.0)] == [0.0] * 3

    def test_single_sample_comes_back_exactly(self):
        histogram = self.latency_histogram()
        histogram.observe(0.0123)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert histogram.quantile(q) == 0.0123

    def test_equal_samples_come_back_exactly(self):
        histogram = self.latency_histogram()
        histogram.observe_many([0.25] * 1000)
        assert histogram.quantile(0.5) == 0.25
        assert histogram.quantile(0.99) == 0.25

    @pytest.mark.parametrize("sigma", [0.2, 0.4, 1.0])
    def test_lognormal_quantiles_track_numpy(self, sigma):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=np.log(0.005), sigma=sigma, size=20_000)
        histogram = self.latency_histogram()
        histogram.observe_many(samples)
        for point in (50, 90, 99):
            assert histogram.quantile(point / 100) == pytest.approx(
                np.percentile(samples, point), rel=0.05
            )

    def test_non_finite_samples_stay_out_of_the_quantiles(self):
        histogram = self.latency_histogram()
        histogram.observe_many([math.nan, 1.0, math.inf, 3.0, -math.inf])
        for q in (0.0, 0.5, 1.0):
            assert -math.inf < histogram.quantile(q) < math.inf
        assert histogram.quantile(1.0) == 3.0

    def test_reset_clears_min_and_max(self):
        histogram = self.latency_histogram()
        histogram.observe_many([0.001, 10.0])
        histogram.reset()
        assert histogram.quantile(1.0) == 0.0
        histogram.observe(0.5)
        assert histogram.quantile(0.0) == histogram.quantile(1.0) == 0.5

    def test_prometheus_buckets_stay_cumulative_to_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_test_latency_seconds")
        histogram.observe_many([1e-6, 0.003, 0.003, 0.2, 500.0])
        lines = [
            line
            for line in registry.to_prometheus_text().splitlines()
            if line.startswith("repro_test_latency_seconds_bucket")
        ]
        assert len(lines) == len(DEFAULT_LATENCY_BUCKETS) + 1
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert lines[-1] == 'repro_test_latency_seconds_bucket{le="+Inf"} 5'
        assert counts[-2] == 4  # 500 s is past the last finite bound


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", tags={"worker": "0"})
        b = registry.counter("repro_x_total", tags={"worker": "0"})
        c = registry.counter("repro_x_total", tags={"worker": "1"})
        assert a is b
        assert a is not c

    def test_tag_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", tags={"a": "1", "b": "2"})
        b = registry.counter("repro_x_total", tags={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", tags={"worker": "0"})

    def test_series_and_remove(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", tags={"k": "a"})
        registry.counter("repro_x_total", tags={"k": "b"})
        registry.counter("repro_y_total")
        assert len(registry.series("repro_x_total")) == 2
        assert registry.remove("repro_x_total") == 2
        assert registry.series("repro_x_total") == []
        assert len(registry.instruments()) == 1

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0.0
        # Same instrument is handed back after the reset.
        assert registry.counter("repro_x_total") is counter


class TestPrometheusGolden:
    def build(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        requests = registry.counter(
            "repro_serving_requests_total", "requests served"
        )
        requests.inc(24)
        per_worker = registry.counter(
            "repro_serving_worker_requests_total",
            "per-worker requests",
            tags={"worker": "0"},
        )
        per_worker.inc(10)
        gauge = registry.gauge(
            "repro_rebuild_cached_bytes", "resident dense bytes"
        )
        gauge.set(4096)
        histogram = registry.histogram(
            "repro_serving_batch_size", "formed batch sizes", buckets=(1.0, 8.0)
        )
        histogram.observe(1)
        histogram.observe(4)
        histogram.observe(16)
        return registry

    def test_prometheus_text_golden(self):
        text = self.build().to_prometheus_text()
        assert text == (
            "# HELP repro_rebuild_cached_bytes resident dense bytes\n"
            "# TYPE repro_rebuild_cached_bytes gauge\n"
            "repro_rebuild_cached_bytes 4096\n"
            "# HELP repro_serving_batch_size formed batch sizes\n"
            "# TYPE repro_serving_batch_size histogram\n"
            'repro_serving_batch_size_bucket{le="1"} 1\n'
            'repro_serving_batch_size_bucket{le="8"} 2\n'
            'repro_serving_batch_size_bucket{le="+Inf"} 3\n'
            "repro_serving_batch_size_sum 21\n"
            "repro_serving_batch_size_count 3\n"
            "# HELP repro_serving_requests_total requests served\n"
            "# TYPE repro_serving_requests_total counter\n"
            "repro_serving_requests_total 24\n"
            "# HELP repro_serving_worker_requests_total per-worker requests\n"
            "# TYPE repro_serving_worker_requests_total counter\n"
            'repro_serving_worker_requests_total{worker="0"} 10\n'
        )

    def test_extra_tags_label_every_series(self):
        text = self.build().to_prometheus_text(extra_tags={"source": "m:v1"})
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert 'source="m:v1"' in line

    def test_json_export_round_trips_and_sorts(self):
        document = json.loads(self.build().to_json())
        names = [entry["name"] for entry in document["metrics"]]
        assert names == sorted(names)
        by_name = {entry["name"]: entry for entry in document["metrics"]}
        assert by_name["repro_serving_requests_total"]["value"] == 24
        buckets = by_name["repro_serving_batch_size"]["buckets"]
        assert buckets[-1] == ["+Inf", 3]
        # The document itself must be valid JSON end to end (no bare inf).
        assert "Infinity" not in self.build().to_json()

    def test_render_prometheus_merges_sources(self):
        first = MetricsRegistry()
        first.counter("repro_serving_requests_total", "requests").inc(2)
        second = MetricsRegistry()
        second.counter("repro_serving_requests_total", "requests").inc(3)
        merged = first.snapshot(extra_tags={"source": "a"}) + second.snapshot(
            extra_tags={"source": "b"}
        )
        text = render_prometheus(merged)
        # One header, two labelled series.
        assert text.count("# TYPE repro_serving_requests_total counter") == 1
        assert 'repro_serving_requests_total{source="a"} 2' in text
        assert 'repro_serving_requests_total{source="b"} 3' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_x_total", tags={"path": 'a"b\\c\nd'}
        ).inc()
        text = registry.to_prometheus_text()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
