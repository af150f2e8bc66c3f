"""Serving compressed models: the software side of the paper's trade.

The accelerator stores {B, Ce, index} in DRAM and rebuilds weights in
its PE lines; this package does the same at the systems layer — for
*any* registered weight codec (:mod:`repro.codecs`), not just the
SmartExchange encoding: a bundle's manifest names the codec that
encoded each layer, and the rebuild engine dispatches decode through
the registry, so ``dense`` / ``prune-csr`` / ``quant-*`` baselines
serve through the identical pipeline.

- :mod:`repro.serving.artifacts` — versioned on-disk bundles with a
  manifest, codec field, sizes, and SHA-256 checksums
  (:class:`ArtifactStore`; ``publish`` for SmartExchange reports,
  ``publish_compressed`` for baseline compressors, ``publish_model`` /
  ``publish_payloads`` for anything else).
- :mod:`repro.serving.registry` — named/versioned bundles loaded lazily
  and cached in memory (:class:`ModelRegistry`), sharing one
  :class:`~repro.costs.CodecCostModel` across a fleet of engines.
- :mod:`repro.serving.rebuild` — dense weights rebuilt on read behind a
  capacity-bounded cache (:class:`RebuildEngine`) with pluggable
  admission/eviction (:class:`AdmissionPolicy`: :class:`LRUPolicy`,
  :class:`CostAwarePolicy`).
- :mod:`repro.serving.tiers` — the cache's lower tiers
  (:class:`CompressedRamTier`, :class:`DiskSpillTier`): layers leaving
  the dense tier demote into zlib blobs (RAM, then disk) and fault back
  on a miss, cost-gated by per-tier access rates.
- :mod:`repro.serving.simulator` — trace-driven offline policy lab
  (:class:`CacheSimulator`): replay a recorded request trace against
  candidate tier/admission configs in-process, same stats schema as the
  live engine.
- :mod:`repro.serving.batching` — request queueing and batch coalescing
  (:class:`BatchPolicy` protocol: :class:`StaticBatchPolicy`,
  :class:`CostAwareBatchPolicy`; :class:`RequestQueue`).
- :mod:`repro.serving.engine` — the batched inference engine
  (:class:`InferenceEngine`), offline, online (worker pool), and async
  (:class:`AsyncInferenceEngine`) paths.
- :mod:`repro.serving.arena` — compressed payloads placed once into a
  shared-memory segment (:class:`SharedPayloadArena`), attached
  zero-copy and checksum-validated by worker processes
  (:class:`ArenaPayloadMap`).
- :mod:`repro.serving.procpool` — the process execution backend
  (``engine.start(workers=N, backend="process")``): per-process
  skeletons and rebuild caches over the shared arena, ticket bridging
  over pipes, crash respawn (:class:`ProcessPool`).
- :mod:`repro.serving.host` — the multi-model front door
  (:class:`ServingHost`): a fleet of engines behind one pluggable
  :class:`RoutingPolicy` (:class:`RoundRobinPolicy`,
  :class:`LeastLoadedPolicy`, :class:`CostAwareRoutingPolicy` — route
  to the engine whose expected install cost is lowest right now).
- :mod:`repro.serving.stats` — throughput / latency percentiles /
  per-worker and per-policy counters / cache behavior /
  storage-vs-compute telemetry and trade curves (:class:`ServingStats`);
  fleet aggregation for the host (:class:`HostStats`).  Counters are
  backed by :mod:`repro.observability` metric instruments, so one
  Prometheus/JSON export reports exactly what the summaries report.

Every engine and host accepts an optional shared
:class:`~repro.observability.Observability` handle (per-request span
traces, fleet-wide metrics export, JSONL trace recording); without
one, serving pays a single attribute check per call site.

Typical use::

    from repro.serving import ArtifactStore, InferenceEngine, ModelRegistry

    store = ArtifactStore("artifacts/")
    manifest = store.publish(report, config, name="vgg19", model=model)
    store.publish_model(model, name="vgg19-dense", codec="dense")

    registry = ModelRegistry(store)
    engine = InferenceEngine(skeleton, registry.get("vgg19"))
    logits = engine.predict(batch)            # offline
    engine.start(workers=4)                   # online, batched pool
    tickets = [engine.submit(x) for x in samples]
    rows = [t.result(timeout=5) for t in tickets]
    engine.stop()

    async with AsyncInferenceEngine(engine, workers=4) as serving:
        rows = await serving.predict_many(samples)

Cost-model-driven serving (capacity-bounded cache, costed batching)::

    engine = InferenceEngine(
        skeleton, registry.get("vgg19"),
        policy=CostAwareBatchPolicy(max_batch_size=16),
        cache_bytes=1 << 20,
        admission="cost-aware",          # or CostAwarePolicy()
        cost_model=registry.cost_model,  # shared across the fleet
    )
    print(engine.cost_curve())           # the realized trade

Multi-model hosting with cost-aware request routing::

    host = ServingHost(registry, routing="cost-aware")
    host.deploy("vgg19", build_vgg_skeleton())
    host.deploy("vgg19-int8", build_vgg_skeleton())
    with host:                           # starts every engine's pool
        tickets = [host.submit(x) for x in samples]  # routed by cost
        rows = [t.result(timeout=5) for t in tickets]
    print(host.report())                 # per-engine routed counts
"""

from repro.serving.artifacts import (
    ArtifactCorruptionError,
    ArtifactError,
    ArtifactManifest,
    ArtifactNotFoundError,
    ArtifactStore,
    LayerArtifactSpec,
)
from repro.serving.batching import (
    BatchPolicy,
    CostAwareBatchPolicy,
    QueueClosed,
    Request,
    RequestQueue,
    StaticBatchPolicy,
    Ticket,
    coalesce,
    per_ticket_error,
    stack_batch,
)
from repro.serving.engine import (
    AsyncInferenceEngine,
    InferenceEngine,
    ServingError,
)
from repro.serving.execute import BatchRun, SkeletonPlan, execute_batch
from repro.serving.arena import (
    ArenaError,
    ArenaManifest,
    ArenaPayloadMap,
    SharedPayloadArena,
)
from repro.serving.procpool import (
    BatchEnvelope,
    BatchResult,
    ProcessPool,
    ProcessWorkerError,
    WorkerSpec,
)
from repro.serving.rebuild import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    CacheEntryView,
    CostAwarePolicy,
    LRUPolicy,
    RebuildCacheStats,
    RebuildEngine,
    make_admission_policy,
    rebuild_layer_weight,
)
from repro.serving.host import (
    ROUTING_POLICIES,
    CostAwareRoutingPolicy,
    EngineView,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    ServingHost,
    make_routing_policy,
)
from repro.serving.registry import CompressedModelHandle, ModelRegistry
from repro.serving.simulator import (
    CacheSimulator,
    SimulationReport,
    simulate_policies,
)
from repro.serving.tiers import (
    CacheTier,
    CompressedRamTier,
    DiskSpillTier,
    TierEntry,
    make_tiers,
)
from repro.serving.stats import (
    HostStats,
    PolicyStats,
    ServingStats,
    WorkerStats,
    percentiles,
)

__all__ = [
    "ArtifactStore",
    "ArtifactManifest",
    "ArtifactError",
    "ArtifactNotFoundError",
    "ArtifactCorruptionError",
    "LayerArtifactSpec",
    "ModelRegistry",
    "CompressedModelHandle",
    "RebuildEngine",
    "RebuildCacheStats",
    "rebuild_layer_weight",
    "AdmissionPolicy",
    "ADMISSION_POLICIES",
    "CacheEntryView",
    "LRUPolicy",
    "CostAwarePolicy",
    "make_admission_policy",
    "CacheTier",
    "CompressedRamTier",
    "DiskSpillTier",
    "TierEntry",
    "make_tiers",
    "CacheSimulator",
    "SimulationReport",
    "simulate_policies",
    "BatchPolicy",
    "StaticBatchPolicy",
    "CostAwareBatchPolicy",
    "RequestQueue",
    "Request",
    "Ticket",
    "QueueClosed",
    "coalesce",
    "per_ticket_error",
    "stack_batch",
    "InferenceEngine",
    "AsyncInferenceEngine",
    "ServingError",
    "SkeletonPlan",
    "BatchRun",
    "execute_batch",
    "SharedPayloadArena",
    "ArenaPayloadMap",
    "ArenaManifest",
    "ArenaError",
    "ProcessPool",
    "ProcessWorkerError",
    "WorkerSpec",
    "BatchEnvelope",
    "BatchResult",
    "ServingHost",
    "EngineView",
    "RoutingPolicy",
    "ROUTING_POLICIES",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "CostAwareRoutingPolicy",
    "make_routing_policy",
    "ServingStats",
    "HostStats",
    "WorkerStats",
    "PolicyStats",
    "percentiles",
]
