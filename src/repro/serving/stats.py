"""Serving telemetry: throughput, latency percentiles, and the realized
storage-vs-compute trade.

:class:`ServingStats` is fed by the engine (one ``record_batch`` and
one ``record_requests`` per executed batch) and folds in the
rebuild-cache counters and bundle accounting on demand, so one
``summary()`` call answers: how fast are we serving, what did batching
buy, how often did the rebuild cache hit, and how many dense bytes did
the compressed form keep out of memory per request.

Counters live in a :class:`~repro.observability.metrics.MetricsRegistry`
rather than ad-hoc fields: each accumulator allocates typed instruments
(``repro_serving_*`` counters and histograms, per-worker/per-policy
slices as label dimensions) and reads its summary numbers back out of
them, so the registry's ``to_prometheus_text()`` export and the
``summary()`` dict can never drift apart.  Exact latency percentiles
still come from the raw sample lists (histograms quantize); the
histograms are the export/streaming view of the same observations.

Counters are also sliced per batch policy (``record_batch``'s
``policy`` tag), and :meth:`ServingStats.cost_curve` summarizes the
rebuild engine's sampled trade curve — resident bytes vs cumulative
rebuild seconds over the access stream — which is how the realized
storage-vs-compute trade of an admission policy gets plotted.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.serving.artifacts import ArtifactManifest
from repro.serving.rebuild import RebuildCacheStats

LATENCY_PERCENTILES = (50.0, 90.0, 99.0)

# Batch-size histogram bounds: powers of two up to the largest batch a
# policy will realistically form.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def percentiles(
    values: Sequence[float], points: Sequence[float] = LATENCY_PERCENTILES
) -> Dict[str, float]:
    """{"p50": ..., "p90": ..., ...} over the finite samples.

    Well-defined on the edge cases a live accumulator hits:

    - no samples (empty list, empty array) → all points 0.0;
    - one sample → every point is that sample (nothing to
      interpolate);
    - arrays of any shape are flattened, and non-finite samples
      (NaN/inf from a failed timer) are dropped rather than poisoning
      every percentile.
    """
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size:
        array = array[np.isfinite(array)]
    if array.size == 0:
        return {f"p{point:g}": 0.0 for point in points}
    if array.size == 1:
        only = float(array[0])
        return {f"p{point:g}": only for point in points}
    return {
        f"p{point:g}": float(np.percentile(array, point)) for point in points
    }


class WorkerStats:
    """Per-worker slice of the engine's counters (one pool member).

    The three fields are metric-backed properties over
    ``repro_serving_worker_*`` counters tagged with the worker index,
    so the Prometheus export carries the same per-worker slices the
    summary prints.  ``+=`` keeps working through the setters.
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

    @batches.setter
    def batches(self, value: int) -> None:
        self._batches.set(value)

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @requests.setter
    def requests(self, value: int) -> None:
        self._requests.set(value)

    @property
    def busy_seconds(self) -> float:
        return self._busy.value

    @busy_seconds.setter
    def busy_seconds(self, value: float) -> None:
        self._busy.set(value)

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
        self.request_latencies_s: List[float] = []
        self.batch_latencies_s: List[float] = []
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

        Every piece of state — sample lists, instruments, per-worker /
        per-policy slices, and the wall-clock window anchors — is
        cleared inside one critical section, so a concurrent
        ``record_batch`` lands either entirely before or entirely
        after the reset, never across it.  Slice instruments are
        zeroed *before* the dicts are dropped so the metrics registry
        (where the series outlive the dict entries) agrees with the
        freshly empty summary.
        """
        with self._lock:
            self.request_latencies_s = []
            self.batch_latencies_s = []
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
    ) -> None:
        end = time.perf_counter()
        start = end - float(latency_s)
        with self._lock:
            self.batch_latencies_s.append(float(latency_s))
            self._requests.inc(int(batch_size))
            self._batches.inc()
            self._busy.inc(float(latency_s))
            self._batch_latency.observe(float(latency_s))
            self._batch_size.observe(int(batch_size))
            if policy is not None:
                slice_ = self.per_policy.get(policy)
                if slice_ is None:
                    slice_ = self.per_policy[policy] = PolicyStats(
                        self.metrics, tags={"policy": policy}
                    )
                slice_.batches += 1
                slice_.requests += int(batch_size)
                slice_.busy_seconds += float(latency_s)
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
                stats.batches += 1
                stats.requests += int(batch_size)
                stats.busy_seconds += float(latency_s)

    def record_request(self, latency_s: float) -> None:
        """End-to-end latency of one request (queueing + execution)."""
        self.record_requests((latency_s,))

    def record_requests(self, latencies_s: Sequence[float]) -> None:
        """End-to-end latencies of a batch's requests, recorded under
        one lock acquisition and one histogram pass."""
        latencies = [float(latency) for latency in latencies_s]
        with self._lock:
            self.request_latencies_s.extend(latencies)
            self._request_latency.observe_many(latencies)

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
            for key, value in percentiles(self.request_latencies_s).items():
                out[f"request_latency_{key}_ms"] = value * 1e3
            for key, value in percentiles(self.batch_latencies_s).items():
                out[f"batch_latency_{key}_ms"] = value * 1e3
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

    def cost_curve(
        self, rebuild: RebuildCacheStats, max_points: int = 64
    ) -> Dict:
        """The realized storage-vs-compute trade of one rebuild cache.

        Downsamples the rebuild engine's sampled curve — one point per
        rebuild: (accesses so far, resident dense bytes, cumulative
        rebuild seconds) — to at most ``max_points``, and attaches the
        headline numbers a policy comparison needs: total rebuild
        seconds paid, the estimated seconds cache hits avoided, and how
        many admissions the policy declined.
        """
        points = list(rebuild.curve)
        if len(points) > max_points:
            keep = np.linspace(0, len(points) - 1, max_points).astype(int)
            points = [points[i] for i in keep]
        return {
            "policy": rebuild.policy,
            "rebuild_seconds": rebuild.rebuild_seconds,
            "est_seconds_saved": rebuild.est_seconds_saved,
            "rejected": rebuild.rejected,
            "evictions": rebuild.evictions,
            "points": [
                {
                    "accesses": accesses,
                    "cached_bytes": cached_bytes,
                    "rebuild_seconds": seconds,
                }
                for accesses, cached_bytes, seconds in points
            ],
        }


class HostStats:
    """Fleet-level accumulator for a :class:`~repro.serving.host.
    ServingHost`: routing decisions per engine/model, plus on-demand
    aggregation over the engines' own summaries.

    Routing counters are ``repro_host_routed_total{engine=...}`` /
    ``repro_host_routed_model_total{model=...}`` series in the host's
    metrics registry; the ``routed_by_engine`` / ``routed_by_model``
    dict views are derived from those series (zero-valued series are
    filtered, so a freshly reset host reads as empty).

    The host records one :meth:`record_routed` per routed request;
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

    def record_routed(self, key: str, model: Optional[str] = None) -> None:
        """Count one request routed to engine ``key`` (of ``model``)."""
        with self._lock:
            self.metrics.counter(
                self._ENGINE_SERIES,
                "requests routed per engine",
                tags={"engine": key},
            ).inc()
            if model is not None:
                self.metrics.counter(
                    self._MODEL_SERIES,
                    "requests routed per model",
                    tags={"model": model},
                ).inc()

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
