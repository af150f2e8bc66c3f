"""Serving telemetry: throughput, latency percentiles, and the realized
storage-vs-compute trade.

:class:`ServingStats` is fed by the engine (one ``record_batch`` per
executed batch, carrying its requests' latencies) and folds in the
rebuild-cache counters and bundle accounting on demand, so one
``summary()`` call answers: how fast are we serving, what did batching
buy, how often did the rebuild cache hit, and how many dense bytes did
the compressed form keep out of memory per request.

Counters live in a :class:`~repro.observability.metrics.MetricsRegistry`
rather than ad-hoc fields: each accumulator allocates typed instruments
(``repro_serving_*`` counters and histograms, per-worker/per-policy
slices as label dimensions) and reads its summary numbers back out of
them, so the registry's ``to_prometheus_text()`` export and the
``summary()`` dict can never drift apart.  Latency percentiles are
read from the same log-bucketed histograms the export carries
(:meth:`~repro.observability.metrics.Histogram.quantile`), so the
accumulator's memory stays fixed however many requests it records.

Counters are also sliced per batch policy (``record_batch``'s
``policy`` tag) and per pool worker.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.observability.metrics import Counter, MetricsRegistry
from repro.serving.artifacts import ArtifactManifest
from repro.serving.rebuild import RebuildCacheStats

LATENCY_PERCENTILES = (50.0, 90.0, 99.0)

# Batch-size histogram bounds: powers of two up to the largest batch a
# policy will realistically form.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class WorkerStats:
    """Per-worker slice of the engine's counters (one pool member).

    The three fields are read-only views of
    ``repro_serving_worker_*`` counters tagged with the worker index,
    so the Prometheus export carries the same per-worker slices the
    summary prints; :meth:`record` is the one writer.
    """

    PREFIX = "repro_serving_worker"
    HELP = "per-worker slice of the serving pool counters"

    __slots__ = ("_batches", "_requests", "_busy")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tags: Optional[Dict[str, str]] = None,
    ) -> None:
        metrics = metrics if metrics is not None else MetricsRegistry()
        prefix, help_text = self.PREFIX, self.HELP
        self._batches = metrics.counter(
            f"{prefix}_batches_total", help_text, tags
        )
        self._requests = metrics.counter(
            f"{prefix}_requests_total", help_text, tags
        )
        self._busy = metrics.counter(
            f"{prefix}_busy_seconds_total", help_text, tags
        )

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def busy_seconds(self) -> float:
        return self._busy.value

    def record(self, batch_size: int, latency_s: float) -> None:
        self._batches.inc()
        self._requests.inc(batch_size)
        self._busy.inc(latency_s)

    def reset(self) -> None:
        self._batches.reset()
        self._requests.reset()
        self._busy.reset()

    def as_dict(self) -> Dict:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "busy_seconds": self.busy_seconds,
        }


class PolicyStats(WorkerStats):
    """Per-batch-policy slice of the engine's counters (same shape)."""

    PREFIX = "repro_serving_policy"
    HELP = "per-batch-policy slice of the serving counters"

    __slots__ = ()


class ServingStats:
    """Thread-safe accumulator for the inference engine's counters.

    With a worker pool, summed per-batch busy seconds overstate elapsed
    time (N workers each busy for T seconds overlap in wall-clock), so
    the accumulator also tracks the observed *pool* serving window —
    from the start of the first worker batch to the end of the last —
    and :attr:`throughput_rps` divides pooled requests by that window
    (offline-only use keeps the busy-seconds denominator).
    ``busy_seconds`` stays available; ``busy_seconds / wall_seconds``
    over a pool-only run is the realized parallelism.

    Pass ``metrics=`` to allocate the instruments out of a shared
    registry (the engine shares one registry between its serving and
    rebuild stats so one export covers both).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.per_worker: Dict[int, WorkerStats] = {}
        self.per_policy: Dict[str, PolicyStats] = {}
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None
        self._requests = self.metrics.counter(
            "repro_serving_requests_total", "requests served (batched)"
        )
        self._batches = self.metrics.counter(
            "repro_serving_batches_total", "batches executed"
        )
        self._failed = self.metrics.counter(
            "repro_serving_failed_requests_total",
            "requests whose batch raised instead of completing",
        )
        self._busy = self.metrics.counter(
            "repro_serving_busy_seconds_total",
            "summed per-batch execution seconds",
        )
        self._request_latency = self.metrics.histogram(
            "repro_serving_request_latency_seconds",
            "end-to-end request latency (queueing + execution)",
        )
        self._batch_latency = self.metrics.histogram(
            "repro_serving_batch_latency_seconds",
            "per-batch execution latency",
        )
        self._batch_size = self.metrics.histogram(
            "repro_serving_batch_size",
            "formed batch sizes",
            buckets=BATCH_SIZE_BUCKETS,
        )

    def reset(self) -> None:
        """Zero everything atomically under the stats lock.

        Every piece of state — instruments, per-worker /
        per-policy slices, and the wall-clock window anchors — is
        cleared inside one critical section, so a concurrent
        ``record_batch`` lands either entirely before or entirely
        after the reset, never across it.  Slice instruments are
        zeroed *before* the dicts are dropped so the metrics registry
        (where the series outlive the dict entries) agrees with the
        freshly empty summary.
        """
        with self._lock:
            for slice_ in self.per_worker.values():
                slice_.reset()
            for slice_ in self.per_policy.values():
                slice_.reset()
            self.per_worker = {}
            self.per_policy = {}
            self._window_start = None
            self._window_end = None
            for instrument in (
                self._requests,
                self._batches,
                self._failed,
                self._busy,
                self._request_latency,
                self._batch_latency,
                self._batch_size,
            ):
                instrument.reset()

    # ------------------------------------------------------------------
    def record_batch(
        self,
        batch_size: int,
        latency_s: float,
        worker: Optional[int] = None,
        policy: Optional[str] = None,
        request_latencies_s: Sequence[float] = (),
    ) -> None:
        """One executed batch: its size and execution latency, plus
        (``request_latencies_s``) the end-to-end latency of each of its
        requests, all recorded under one lock acquisition."""
        batch_size, latency_s = int(batch_size), float(latency_s)
        end = time.perf_counter()
        start = end - latency_s
        with self._lock:
            self._request_latency.observe_many(request_latencies_s)
            self._requests.inc(batch_size)
            self._batches.inc()
            self._busy.inc(latency_s)
            self._batch_latency.observe(latency_s)
            self._batch_size.observe(batch_size)
            if policy is not None:
                slice_ = self.per_policy.get(policy)
                if slice_ is None:
                    slice_ = self.per_policy[policy] = PolicyStats(
                        self.metrics, tags={"policy": policy}
                    )
                slice_.record(batch_size, latency_s)
            if worker is not None:
                # The wall window tracks pool serving only, so offline
                # batches (and the idle gaps around them) never dilute
                # the pooled throughput.
                if self._window_start is None or start < self._window_start:
                    self._window_start = start
                if self._window_end is None or end > self._window_end:
                    self._window_end = end
                stats = self.per_worker.get(worker)
                if stats is None:
                    stats = self.per_worker[worker] = WorkerStats(
                        self.metrics, tags={"worker": str(worker)}
                    )
                stats.record(batch_size, latency_s)

    def record_request(self, latency_s: float) -> None:
        """End-to-end latency of one request (queueing + execution)."""
        self.record_requests((latency_s,))

    def record_requests(self, latencies_s: Sequence[float]) -> None:
        """End-to-end latencies of a batch's requests, recorded under
        one lock acquisition and one histogram pass."""
        with self._lock:
            self._request_latency.observe_many(latencies_s)

    def record_failed(self, count: int = 1) -> None:
        """Requests whose batch raised instead of completing."""
        with self._lock:
            self._failed.inc(int(count))

    # ------------------------------------------------------------------
    @property
    def request_count(self) -> int:
        return int(self._requests.value)

    @property
    def batch_count(self) -> int:
        return int(self._batches.value)

    @property
    def failed_requests(self) -> int:
        return int(self._failed.value)

    @property
    def busy_seconds(self) -> float:
        return self._busy.value

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            return self._mean_batch_size_locked()

    def _mean_batch_size_locked(self) -> float:
        # Caller holds self._lock, under which record_batch moves both
        # counters together.
        batches = self._batches.value
        if not batches:
            return 0.0
        return self._requests.value / batches

    @property
    def wall_seconds(self) -> float:
        """Observed *pool* serving window (first worker batch start →
        last worker batch end); 0.0 when only the offline path ran."""
        with self._lock:
            return self._wall_seconds_locked()

    def _wall_seconds_locked(self) -> float:
        # Caller holds self._lock: the window endpoints move together
        # under it, so reading the pair here can never tear.
        if self._window_start is None or self._window_end is None:
            return 0.0
        return self._window_end - self._window_start

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self.per_worker)

    @property
    def throughput_rps(self) -> float:
        """Requests per second of serving time.

        For pool serving (per-worker records exist) this is pooled
        requests over the pool's wall-clock window, so overlapping
        workers count as parallelism instead of as extra elapsed time
        and offline batches never dilute the number.  For the offline
        path it stays total requests over summed busy seconds —
        offline calls may be sporadic, and idle gaps between them are
        not serving time.
        """
        with self._lock:
            return self._throughput_rps_locked()

    def _throughput_rps_locked(self) -> float:
        # Caller holds self._lock.
        if self.per_worker:
            wall = self._wall_seconds_locked()
            if wall == 0.0:
                return 0.0
            pooled = sum(w.requests for w in self.per_worker.values())
            return pooled / wall
        if self.busy_seconds == 0.0:
            return 0.0
        return self.request_count / self.busy_seconds

    # ------------------------------------------------------------------
    def summary(
        self,
        rebuild: Optional[RebuildCacheStats] = None,
        manifest: Optional[ArtifactManifest] = None,
    ) -> Dict:
        """One flat dict of everything a dashboard would plot."""
        with self._lock:
            out: Dict = {
                "requests": self.request_count,
                "failed_requests": self.failed_requests,
                "batches": self.batch_count,
                "mean_batch_size": self._mean_batch_size_locked(),
                "throughput_rps": self._throughput_rps_locked(),
                "busy_seconds": self.busy_seconds,
                "wall_seconds": self._wall_seconds_locked(),
                "workers": len(self.per_worker),
            }
            if self.per_worker:
                out["per_worker"] = {
                    index: stats.as_dict()
                    for index, stats in sorted(self.per_worker.items())
                }
            if self.per_policy:
                out["per_policy"] = {
                    name: stats.as_dict()
                    for name, stats in sorted(self.per_policy.items())
                }
            for kind, histogram in (
                ("request", self._request_latency),
                ("batch", self._batch_latency),
            ):
                for point in LATENCY_PERCENTILES:
                    out[f"{kind}_latency_p{point:g}_ms"] = (
                        histogram.quantile(point / 100.0) * 1e3
                    )
        if rebuild is not None:
            for key, value in rebuild.as_dict().items():
                out[f"rebuild_{key}"] = value
        if manifest is not None:
            out["codec"] = manifest.codec
            out["bundle_payload_bytes"] = manifest.payload_bytes
            out["bundle_dense_bytes"] = manifest.dense_bytes
            out["bundle_bytes_saved"] = manifest.bytes_saved
            out["bundle_compression_rate"] = manifest.compression_rate
            if rebuild is not None:
                # The trade, per request: rebuild compute paid in place
                # of holding/loading dense weights (the paper's exchange).
                out["rebuilt_bytes_per_request"] = (
                    rebuild.rebuilt_bytes / max(out["requests"], 1)
                )
        return out

    def report(
        self,
        rebuild: Optional[RebuildCacheStats] = None,
        manifest: Optional[ArtifactManifest] = None,
        phases: Optional[Dict[str, Dict]] = None,
    ) -> str:
        """Human-readable one-screen summary.

        ``phases`` is an optional span-derived latency breakdown
        (:meth:`repro.observability.Observability.latency_breakdown`):
        one line per request phase with count / p50 / p95 / total.
        """
        summary = self.summary(rebuild=rebuild, manifest=manifest)
        per_worker = summary.pop("per_worker", {})
        per_policy = summary.pop("per_policy", {})
        # Per-layer hit rates are a dict per layer — a plot input, not
        # a report line; the flat summary keeps them.
        summary.pop("rebuild_layer_hit_rates", None)
        # Tier counters are dict-of-dicts; render them as one compact
        # line per tier below the scalars (the flat summary keeps the
        # full dicts).
        tier_counts = summary.pop("rebuild_tiers", {})
        tier_hits = summary.pop("rebuild_tier_hit_counts", {})
        lines = ["== serving stats =="]
        for key, value in summary.items():
            if isinstance(value, float):
                lines.append(f"{key:30s} {value:12.4g}")
            else:
                lines.append(f"{key:30s} {value!s:>12s}")
        if tier_hits:
            served = " / ".join(
                f"{tier}:{count}" for tier, count in tier_hits.items()
            )
            lines.append(f"{'served_from':30s} {served}")
        for tier, counts in tier_counts.items():
            lines.append(
                f"tier[{tier}]".ljust(30)
                + f" {counts['hits']:.0f} hits / "
                f"{counts['demotions']:.0f} demotions / "
                f"{counts['promotions']:.0f} promotions / "
                f"{counts['evictions']:.0f} evictions / "
                f"{counts['corrupt']:.0f} corrupt / "
                f"{counts['fault_seconds']:.4g}s faulting"
            )
        for index, worker in per_worker.items():
            lines.append(
                f"worker[{index}]".ljust(30)
                + f" {worker['batches']} batches / {worker['requests']} "
                f"requests / {worker['busy_seconds']:.4g}s busy"
            )
        for name, slice_ in per_policy.items():
            lines.append(
                f"policy[{name}]".ljust(30)
                + f" {slice_['batches']} batches / {slice_['requests']} "
                f"requests / {slice_['busy_seconds']:.4g}s busy"
            )
        for name, phase in (phases or {}).items():
            lines.append(
                f"phase[{name}]".ljust(30)
                + f" n={phase['count']} p50={phase['p50_ms']:.3g}ms "
                f"p95={phase['p95_ms']:.3g}ms total={phase['total_s']:.4g}s"
            )
        return "\n".join(lines)


class HostStats:
    """Fleet-level accumulator for a :class:`~repro.serving.host.
    ServingHost`: routing decisions per engine/model, plus on-demand
    aggregation over the engines' own summaries.

    Routing counters are ``repro_host_routed_total{engine=...}`` /
    ``repro_host_routed_model_total{model=...}`` series in the host's
    metrics registry; the ``routed_by_engine`` / ``routed_by_model``
    dict views are derived from those series (zero-valued series are
    filtered, so a freshly reset host reads as empty).

    The host binds each engine's pair of counters once
    (:meth:`routed_counters`) and increments them per routed request;
    :meth:`summary` folds those counters together with each engine's
    ``summary()`` dict into the numbers a fleet dashboard needs —
    total requests and failures, total rebuild seconds paid, and the
    pooled rebuild-cache hit rate (Σ hits / Σ accesses, not a mean of
    per-engine rates, so empty engines don't dilute it).
    """

    _ENGINE_SERIES = "repro_host_routed_total"
    _MODEL_SERIES = "repro_host_routed_model_total"

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def reset(self) -> None:
        with self._lock:
            for name in (self._ENGINE_SERIES, self._MODEL_SERIES):
                for instrument in self.metrics.series(name):
                    instrument.reset()

    def _series_dict(self, name: str, tag: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for instrument in self.metrics.series(name):
            count = int(instrument.value)
            if count:
                out[instrument.tag_dict.get(tag, "")] = count
        return out

    @property
    def routed_by_engine(self) -> Dict[str, int]:
        return self._series_dict(self._ENGINE_SERIES, "engine")

    @property
    def routed_by_model(self) -> Dict[str, int]:
        return self._series_dict(self._MODEL_SERIES, "model")

    @property
    def routed_total(self) -> int:
        return sum(self.routed_by_engine.values())

    def routed_counters(
        self, key: str, model: Optional[str] = None
    ) -> Tuple[Counter, Optional[Counter]]:
        """The routed-request counters of engine ``key`` and of
        ``model`` (``None`` without a model).

        The host resolves them once per engine when it joins the fleet
        and increments them on every routed request, so the hot path
        never looks a series up by its labels.
        """
        engine = self.metrics.counter(
            self._ENGINE_SERIES,
            "requests routed per engine",
            tags={"engine": key},
        )
        if model is None:
            return engine, None
        return engine, self.metrics.counter(
            self._MODEL_SERIES,
            "requests routed per model",
            tags={"model": model},
        )

    def record_routed(self, key: str, model: Optional[str] = None) -> None:
        """Count one request routed to engine ``key`` (of ``model``)."""
        for counter in self.routed_counters(key, model):
            if counter is not None:
                counter.inc()

    def summary(
        self,
        per_engine: Optional[Dict[str, Dict]] = None,
        routing: Optional[str] = None,
    ) -> Dict:
        """One dict for the fleet: routed counters plus aggregates over
        ``per_engine`` (each value one engine's ``summary()`` dict)."""
        with self._lock:
            routed_engine = self.routed_by_engine
            routed_model = self.routed_by_model
        out: Dict = {
            "routing": routing,
            "routed": sum(routed_engine.values()),
            "routed_by_engine": routed_engine,
            "routed_by_model": routed_model,
        }
        if per_engine is None:
            return out
        models = {
            summary.get("model")
            for summary in per_engine.values()
            if summary.get("model") is not None
        }
        hits = sum(s.get("rebuild_hits", 0) for s in per_engine.values())
        accesses = sum(
            s.get("rebuild_accesses", 0) for s in per_engine.values()
        )
        out.update(
            {
                "engines": len(per_engine),
                "models": sorted(models),
                "requests": sum(
                    s.get("requests", 0) for s in per_engine.values()
                ),
                "failed_requests": sum(
                    s.get("failed_requests", 0) for s in per_engine.values()
                ),
                "rebuild_seconds": sum(
                    s.get("rebuild_rebuild_seconds", 0.0)
                    for s in per_engine.values()
                ),
                "rebuild_hit_rate": hits / accesses if accesses else 0.0,
                "per_engine": dict(per_engine),
            }
        )
        return out

    def report(self, summary: Dict) -> str:
        """Human-readable one-screen fleet summary (from :meth:`~repro.
        serving.host.ServingHost.summary` output)."""
        lines = [f"== serving host ({summary.get('routing')}) =="]
        for key in (
            "engines",
            "models",
            "requests",
            "failed_requests",
            "routed",
            "rebuild_seconds",
            "rebuild_hit_rate",
        ):
            if key in summary:
                value = summary[key]
                if isinstance(value, float):
                    lines.append(f"{key:30s} {value:12.4g}")
                else:
                    lines.append(f"{key:30s} {value!s:>12s}")
        for key, engine_summary in summary.get("per_engine", {}).items():
            routed = summary.get("routed_by_engine", {}).get(key, 0)
            lines.append(
                f"engine[{key}]".ljust(30)
                + f" model={engine_summary.get('model')} routed={routed} "
                f"requests={engine_summary.get('requests', 0)} "
                f"rebuild_s={engine_summary.get('rebuild_rebuild_seconds', 0.0):.4g} "
                f"hit_rate={engine_summary.get('rebuild_hit_rate', 0.0):.1%}"
            )
        for tenant, usage in sorted(summary.get("tenants", {}).items()):
            lines.append(
                f"tenant[{tenant}]".ljust(30)
                + f" requests={usage.get('requests', 0)} "
                f"served={usage.get('served', 0)} "
                f"rejected={usage.get('rejected', 0)} "
                f"rebuild_s={usage.get('rebuild_seconds', 0.0):.4g} "
                f"resident={usage.get('resident_bytes', 0)}B"
            )
        return "\n".join(lines)
