"""Serve predictions straight from a compressed artifact bundle.

The SmartExchange trade at the serving layer: train a small CNN,
decompose it, publish the {B, Ce, index} payloads to the artifact
store, then bring up a batched inference engine that rebuilds dense
weights on read behind an LRU cache — and show that the served outputs
match the compressed model while the bundle is a fraction of the dense
checkpoint.

The same pipeline serves every registered weight codec: a later
section publishes the identical network under the ``quant-linear``
(int8) baseline codec and serves it through the identical engine —
only the bundle's ``codec`` field differs.

A cost-model section serves the same bundle through a capacity-bounded
cache under plain LRU vs the cost-aware admission policy
(rebuild-seconds-per-byte knapsack), showing the rebuild compute each
policy pays for the identical request stream.

The final section brings up a :class:`ServingHost` over *both* bundles
— the SmartExchange and the int8 encoding of the same network — and
routes one unpinned request stream under cost-aware routing: the
pre-warmed engine bids ~0 expected install seconds, so the traffic
drains to it instead of waking the cold one.  The host runs with the
observability layer on: one shared :class:`Observability` handle
traces every request (route → queue → rebuild → compute spans),
records a replayable JSONL trace, and exports fleet-wide Prometheus
metrics that reconcile with the summaries.

Run:  python examples/serve_compressed.py
"""

import asyncio
import tempfile
from pathlib import Path

import numpy as np

from repro import nn
from repro.compression import LinearQuantizer
from repro.core import SmartExchangeConfig, apply_smartexchange
from repro.datasets import synthetic_cifar10
from repro.observability import Observability, TraceReader, TraceRecorder
from repro.serving import (
    ArtifactStore,
    InferenceEngine,
    ModelRegistry,
    ServingHost,
    StaticBatchPolicy,
)


def build_model(rng: np.random.Generator) -> nn.Module:
    return nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(32),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(32, 10, rng=rng),
    )


def main() -> None:
    rng = np.random.default_rng(0)
    dataset = synthetic_cifar10(train_per_class=10, test_per_class=4)

    print("training + compressing a small CNN ...")
    model = build_model(rng)
    nn.fit(model, dataset.train_images, dataset.train_labels,
           epochs=3, lr=0.03)
    config = SmartExchangeConfig(theta=4e-3, max_iterations=8,
                                 target_row_sparsity=0.5)
    _, report = apply_smartexchange(model, config, model_name="demo-cnn")

    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        manifest = store.publish(report, config, model=model)
        print(f"published {manifest.name}:{manifest.version}")
        print(f"  payload bytes : {manifest.payload_bytes}")
        print(f"  dense bytes   : {manifest.dense_bytes} "
              f"({manifest.compression_rate:.1f}x smaller in DRAM-image form)")
        print(f"  bundle on disk: {manifest.bundle_bytes} bytes")

        # A fresh skeleton: every weight below comes from the bundle.
        registry = ModelRegistry(store)
        engine = InferenceEngine(
            build_model(np.random.default_rng(1)),
            registry.get("demo-cnn"),
            policy=StaticBatchPolicy(max_batch_size=8, max_wait_s=0.005),
        )

        samples = list(dataset.test_images[:16])
        offline = engine.predict_many(samples, batched=True)

        print("serving the same requests through a 4-worker pool ...")
        engine.start(workers=4)
        try:
            tickets = [engine.submit(sample) for sample in samples]
            online = [ticket.result(timeout=30.0) for ticket in tickets]
        finally:
            engine.stop()

        print("and once more through the asyncio front door ...")

        async def serve_async():
            return await asyncio.gather(
                *(engine.submit_async(sample) for sample in samples)
            )

        engine.start(workers=2)
        try:
            from_async = asyncio.run(serve_async())
        finally:
            engine.stop()

        model.eval()
        direct = nn.predict(model, dataset.test_images[:16]).argmax(axis=1)
        served = np.stack(online).argmax(axis=1)
        agreement = float((served == direct).mean())
        drift = float(np.abs(np.stack(online) - np.stack(offline)).max())
        async_drift = float(
            np.abs(np.stack(from_async) - np.stack(online)).max()
        )
        print(f"served vs direct label agreement: {agreement:6.1%}")
        print(f"online vs offline max drift     : {drift:.2e}")
        print(f"async vs threaded max drift     : {async_drift:.2e}")
        print(engine.report())

        # The codec axis: publish the same network as an int8 baseline
        # bundle and serve it through the identical pipeline.
        print("\npublishing the same model as a quant-linear baseline ...")
        baseline = build_model(np.random.default_rng(0))
        baseline.load_state_dict(model.state_dict())
        q_report = LinearQuantizer(8).compress(baseline, "demo-cnn-int8")
        q_manifest = store.publish_compressed(q_report, model=baseline)
        q_engine = InferenceEngine(
            build_model(np.random.default_rng(2)),
            registry.get("demo-cnn-int8"),
            policy=StaticBatchPolicy(max_batch_size=8, max_wait_s=0.005),
        )
        q_served = np.stack(q_engine.predict_many(samples, batched=True))
        baseline.eval()
        q_direct = nn.predict(baseline, dataset.test_images[:16])
        q_agreement = float(
            (q_served.argmax(axis=1) == q_direct.argmax(axis=1)).mean()
        )
        print(f"codec comparison ({manifest.name}):")
        for m in (manifest, q_manifest):
            print(
                f"  {m.codec:14s} payload {m.payload_bytes:6d} B  "
                f"dense {m.dense_bytes:6d} B  "
                f"({m.dense_bytes / max(m.payload_bytes, 1):.1f}x smaller)"
            )
        print(f"int8 served vs int8 model label agreement: {q_agreement:6.1%}")

        # The cost-model axis: the same bundle behind a cache too small
        # to hold every layer.  LRU thrashes — a round-robin install
        # pass evicts exactly the layer it needs next — while the
        # cost-aware policy pins the layers whose rebuild is expensive
        # (measured seconds-per-byte, learned online) and keeps
        # re-rebuilding only the cheap ones.
        print("\nadmission-policy comparison (cache at 95% of dense bytes):")
        handle = registry.get("demo-cnn")
        capacity = int(handle.total_dense_bytes * 0.95)
        for admission in ("lru", "cost-aware"):
            policy_engine = InferenceEngine(
                build_model(np.random.default_rng(3)),
                handle,
                policy=StaticBatchPolicy(max_batch_size=8, max_wait_s=0.005),
                cache_bytes=capacity,
                admission=admission,
                cost_model=registry.cost_model,
            )
            policy_engine.predict_many(samples[:8])  # warm to steady state
            policy_engine.rebuild.reset_stats()
            policy_engine.stats.reset()
            policy_served = policy_engine.predict_many(samples)
            drift = float(
                np.abs(np.stack(policy_served) - np.stack(offline)).max()
            )
            summary = policy_engine.summary()
            print(
                f"  {admission:11s} rebuild {summary['rebuild_rebuild_seconds']*1e3:8.2f} ms  "
                f"hit rate {summary['rebuild_hit_rate']:5.1%}  "
                f"evictions {summary['rebuild_evictions']:3d}  "
                f"rejected {summary['rebuild_rejected']:3d}  "
                f"drift vs offline {drift:.2e}"
            )

        # The routing axis: both encodings of the network behind one
        # multi-model host.  The SmartExchange engine is pre-warmed, so
        # under cost-aware routing it bids ~0 expected install seconds
        # and the unpinned stream drains to it; the cold int8 engine
        # never pays a rebuild.
        print("\nmulti-model host with cost-aware request routing:")
        # One observability handle for the whole fleet: every engine
        # deployed by the host shares its tracer/recorder, and each
        # engine's metrics registry federates into one export.
        trace_path = Path(root) / "requests.jsonl"
        observability = Observability(recorder=TraceRecorder(trace_path))
        host = ServingHost(
            registry, routing="cost-aware", observability=observability
        )
        warm_engine = host.deploy(
            "demo-cnn", build_model(np.random.default_rng(4)),
            policy=StaticBatchPolicy(max_batch_size=8, max_wait_s=0.005),
        )
        host.deploy(
            "demo-cnn-int8", build_model(np.random.default_rng(5)),
            policy=StaticBatchPolicy(max_batch_size=8, max_wait_s=0.005),
        )
        warm_engine.rebuild.warm()
        host.start(workers=2)
        try:
            tickets = [host.submit(sample) for sample in samples]
            routed_rows = [ticket.result(timeout=30.0) for ticket in tickets]
        finally:
            host.stop()
        drift = float(np.abs(np.stack(routed_rows) - np.stack(offline)).max())
        print(host.report())
        print(f"routed vs offline max drift     : {drift:.2e}")

        # What the observability layer saw: span-derived per-phase
        # latencies, the recorded trace (a replayable schedule), and a
        # Prometheus page any scraper could pull.
        print("\nspan-derived latency breakdown (queue/rebuild/compute):")
        for phase, stats in observability.latency_breakdown().items():
            print(
                f"  {phase:10s} n={stats['count']:3d} "
                f"p50={stats['p50_ms']:7.2f} ms  "
                f"p95={stats['p95_ms']:7.2f} ms  "
                f"total={stats['total_s']:.3f} s"
            )
        observability.recorder.close()
        schedule = TraceReader(trace_path).schedule()
        print(
            f"recorded {len(schedule)} requests; first arrival at "
            f"{schedule[0].arrival_s * 1e3:.1f} ms, all routed to "
            f"{sorted({row.engine for row in schedule})}"
        )
        metrics_page = observability.to_prometheus_text()
        print("prometheus export (excerpt):")
        for line in metrics_page.splitlines():
            if line.startswith("repro_host_routed_total"):
                print(f"  {line}")

        # The tenancy axis: the same fleet, metered per tenant.  A
        # seeded flash-crowd scenario generates the schedule (same
        # seed, same schedule — replayable), a steady tenant shares
        # the wire with a spiky one, and the spiky tenant runs under a
        # rate quota enforced at the host front door *before* routing.
        # Every rebuild the fleet pays is charged to the tenants whose
        # batch caused it, so the per-tenant bills reconcile with the
        # fleet totals exactly.
        print("\nmulti-tenant serving under a generated flash crowd:")
        from repro.tenancy import QuotaExceededError, TenantQuota
        from repro.workloads import FlashCrowdScenario

        scenario = FlashCrowdScenario(
            rate_rps=40, duration_s=1.5, burst_start_s=0.5,
            burst_duration_s=0.4, burst_multiplier=5.0,
            burst_tenant="spiky", models=["demo-cnn"],
            tenants=["steady"], seed=7,
        )
        rows = scenario.generate()
        tenant_host = ServingHost(
            registry,
            quotas={
                "spiky": TenantQuota(max_requests_per_second=10, burst=5)
            },
        )
        tenant_host.deploy(
            "demo-cnn", build_model(np.random.default_rng(6)),
            policy=StaticBatchPolicy(max_batch_size=8, max_wait_s=0.005),
        )
        rejected = 0
        tenant_host.start(workers=2)
        try:
            tickets = []
            for i, request in enumerate(rows):
                try:
                    tickets.append(tenant_host.submit(
                        samples[i % len(samples)],
                        model=request.model, tenant=request.tenant,
                    ))
                except QuotaExceededError:
                    rejected += 1
            for ticket in tickets:
                ticket.result(timeout=30.0)
        finally:
            tenant_host.stop()
        ledger = tenant_host.ledger
        fleet_rebuild = tenant_host.summary()["rebuild_seconds"]
        assert abs(ledger.total_rebuild_seconds() - fleet_rebuild) < 1e-9
        print(
            f"  {len(rows)} generated requests ({scenario.name}), "
            f"{rejected} rejected by the spiky tenant's rate quota"
        )
        for tenant, usage in sorted(ledger.usage_reports().items()):
            if usage.requests == 0 and usage.rejected == 0:
                continue
            print(
                f"  tenant[{tenant:6s}] requests={usage.requests:3d} "
                f"rejected={usage.rejected:3d} "
                f"rebuild={usage.rebuild_seconds * 1e3:7.2f} ms  "
                f"bill=${usage.total_usd:.2e}"
            )
        print(
            "  per-tenant rebuild seconds sum to the fleet total "
            f"({fleet_rebuild * 1e3:.2f} ms) exactly"
        )


if __name__ == "__main__":
    main()
